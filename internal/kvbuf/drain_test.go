package kvbuf

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mimir/internal/mem"
)

// mergeValues is a partial-reduction callback that changes a value's length
// when the two lengths differ, so an upsert sometimes relocates the value.
func mergeValues(existing, incoming []byte) ([]byte, error) {
	if len(existing) == len(incoming) {
		for i := range existing {
			existing[i] += incoming[i]
		}
		return existing, nil
	}
	merged := append(append([]byte{}, existing...), incoming...)
	if len(merged) > 32 {
		merged = merged[:32]
	}
	return merged, nil
}

// collectBucket returns what scan yields, as strings.
func collectBucket(t testing.TB, scan func(func(k, v []byte) error) error) [][2]string {
	t.Helper()
	var out [][2]string
	if err := scan(func(k, v []byte) error {
		out = append(out, [2]string{string(k), string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// drainStream is a KV stream whose second half re-upserts every third key of
// the first with a value of another length, so mergeValues relocates those
// values to pages far past their keys' — the case Drain's release rule must
// get right.
func drainStream() [][2][]byte {
	var stream [][2][]byte
	for i := 0; i < 300; i++ {
		stream = append(stream, [2][]byte{[]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("v%03d", i))})
	}
	for i := 0; i < 300; i += 3 {
		stream = append(stream, [2][]byte{[]byte(fmt.Sprintf("key-%03d", i)), []byte("longer")})
	}
	return stream
}

// stillNeeded is what a bucket can still need when a drain hands over its
// last entry: every data page from that entry's key page on, and the entry
// and head charges, which go when the bucket is freed.
func stillNeeded(b *Bucket) int64 {
	n := int64(len(b.entries))*bucketEntryBytes + b.headCharged
	if len(b.entries) == 0 {
		return n
	}
	for _, p := range b.data.pages[b.entries[len(b.entries)-1].keyRef.page():] {
		n += int64(len(p.Buf))
	}
	return n
}

// checkDrain drains through drain and asserts the walk yields want, that the
// arena's usage never rises from one entry to the next (a drain only ever
// releases), that at the last entry it holds exactly atEnd (the bucket's
// stillNeeded: every page the walk has passed is gone), and that the drain
// returns every byte the bucket held. Release scribbling is on, so a page
// freed before its last entry was handed over shows up as wrong bytes.
func checkDrain(t *testing.T, arena *mem.Arena, drain func(func(k, v []byte) error) error, want [][2]string, atEnd int64) {
	t.Helper()
	mem.DebugPool(true)
	defer mem.DebugPool(false)
	start := arena.Used()
	last := start
	var got [][2]string
	err := drain(func(k, v []byte) error {
		if used := arena.Used(); used > last {
			t.Fatalf("entry %d: arena usage rose %d -> %d during the drain", len(got), last, used)
		} else {
			last = used
		}
		got = append(got, [2]string{string(k), string(v)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("drain yields %d entries that differ from the scan's %d", len(got), len(want))
	}
	if last != atEnd || last >= start {
		t.Fatalf("arena holds %d bytes at the last entry (%d at the start), want %d: pages the walk passed were kept", last, start, atEnd)
	}
	if used := arena.Used(); used != 0 {
		t.Fatalf("arena holds %d bytes after the drain, want 0", used)
	}
}

// TestBucketDrain: a drain visits the scan's sequence, relocated values
// included, releasing pages behind the walk.
func TestBucketDrain(t *testing.T) {
	arena := mem.NewArena(0)
	b, err := NewBucket(arena, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range drainStream() {
		if err := b.Upsert(kv[0], kv[1], mergeValues); err != nil {
			t.Fatal(err)
		}
	}
	if b.GarbageBytes() == 0 {
		t.Fatal("the stream relocated no value; the test exercises nothing")
	}
	want := collectBucket(t, b.Scan)
	checkDrain(t, arena, b.Drain, want, stillNeeded(b))
	if b.Len() != 0 {
		t.Fatalf("bucket holds %d keys after the drain", b.Len())
	}
}

// TestDrainErrorFreesEverything: a callback error stops a drain midway, is
// returned as is, and still leaves the arena where it was before the bucket.
func TestDrainErrorFreesEverything(t *testing.T) {
	boom := errors.New("boom")
	failAt := func(n int) func(k, v []byte) error {
		seen := 0
		return func(k, v []byte) error {
			if seen++; seen == n {
				return boom
			}
			return nil
		}
	}
	arena := mem.NewArena(0)
	b, err := NewBucket(arena, 128)
	if err != nil {
		t.Fatal(err)
	}
	stream := drainStream()
	for _, kv := range stream {
		if err := b.Upsert(kv[0], kv[1], mergeValues); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Drain(failAt(150)); !errors.Is(err, boom) {
		t.Fatalf("bucket drain returned %v, want the callback's error", err)
	}
	if used := arena.Used(); used != 0 {
		t.Fatalf("arena holds %d bytes after a failed drain, want 0", used)
	}
}
