package kvbuf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"mimir/internal/mem"
)

func TestPagedBufRefsStable(t *testing.T) {
	a := mem.NewArena(0)
	pb := newPagedBuf(a, 64)
	var refs []ref
	var want [][]byte
	for i := 0; i < 200; i++ {
		b := bytes.Repeat([]byte{byte(i)}, i%50+1)
		r, err := pb.append(b)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
		want = append(want, b)
	}
	// All earlier refs must still resolve after later growth.
	for i, r := range refs {
		if !bytes.Equal(pb.at(r, len(want[i])), want[i]) {
			t.Fatalf("ref %d corrupted", i)
		}
	}
	if pb.usedBytes() > pb.reservedBytes() {
		t.Errorf("used %d > reserved %d", pb.usedBytes(), pb.reservedBytes())
	}
	pb.free()
	if a.Used() != 0 {
		t.Errorf("arena used %d after free", a.Used())
	}
}

// TestPagedBufOversized: every page is pageSize, so a record larger than a
// page is rejected with an error naming PageSize and the record's size, and
// leaves neither a page nor an arena charge behind. A record of exactly a
// page still fits.
func TestPagedBufOversized(t *testing.T) {
	a := mem.NewArena(0)
	pb := newPagedBuf(a, 16)
	_, err := pb.append(bytes.Repeat([]byte{7}, 500))
	if err == nil || !strings.Contains(err.Error(), "PageSize 16") || !strings.Contains(err.Error(), "500 bytes") {
		t.Fatalf("append of 500 bytes into 16-byte pages: err = %v, want one naming PageSize and the size", err)
	}
	if pb.numPages() != 0 || a.Used() != 0 {
		t.Fatalf("rejected record left %d pages and %d arena bytes", pb.numPages(), a.Used())
	}
	full := bytes.Repeat([]byte{9}, 16)
	r, err := pb.append(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.at(r, 16), full) || a.Used() != 16 {
		t.Fatalf("page-sized record: arena used %d, want 16", a.Used())
	}
	pb.free()
}

func TestPagedBufInvalidPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("pageSize 0 did not panic")
		}
	}()
	newPagedBuf(mem.NewArena(0), 0)
}

// Property: appends never alias each other — writing one record never
// alters another — across random record sizes up to a page, and a record
// over a page is rejected without disturbing them.
func TestPagedBufIsolationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := mem.NewArena(0)
		pb := newPagedBuf(a, 32)
		type entry struct {
			r ref
			b []byte
		}
		var entries []entry
		for i, s := range sizes {
			n := int(s)%32 + 1
			b := bytes.Repeat([]byte{byte(i + 1)}, n)
			r, err := pb.append(b)
			if err != nil {
				return false
			}
			entries = append(entries, entry{r, b})
		}
		if _, err := pb.append(make([]byte, 33)); err == nil {
			return false
		}
		for _, e := range entries {
			if !bytes.Equal(pb.at(e.r, len(e.b)), e.b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: reserve gives non-overlapping, writable regions.
func TestPagedBufReserveProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := mem.NewArena(0)
		pb := newPagedBuf(a, 48)
		var refs []ref
		var lens []int
		for _, s := range sizes {
			n := int(s)%40 + 1
			r, err := pb.reserve(n)
			if err != nil {
				return false
			}
			// Fill the region with a marker derived from its index.
			marker := byte(len(refs) + 1)
			buf := pb.at(r, n)
			for i := range buf {
				buf[i] = marker
			}
			refs = append(refs, r)
			lens = append(lens, n)
		}
		for i, r := range refs {
			buf := pb.at(r, lens[i])
			for _, b := range buf {
				if b != byte(i+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBucketStringer(t *testing.T) {
	a := mem.NewArena(0)
	b, err := NewBucket(a, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Free()
	if err := b.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if !bytes.Contains([]byte(s), []byte("keys=1")) {
		t.Errorf("String() = %q", s)
	}
}
