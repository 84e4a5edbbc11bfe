package kvbuf

// LongestChain returns the most entries one probe of b can visit: the
// length of its longest chain.
func (b *Bucket) LongestChain() int {
	longest := 0
	for _, i := range b.heads {
		n := 0
		for ; i >= 0; i = b.entries[i].next {
			n++
		}
		if n > longest {
			longest = n
		}
	}
	return longest
}
