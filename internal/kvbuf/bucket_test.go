package kvbuf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mimir/internal/mem"
)

func sumMerge(existing, incoming []byte) ([]byte, error) {
	binary.LittleEndian.PutUint64(existing,
		binary.LittleEndian.Uint64(existing)+binary.LittleEndian.Uint64(incoming))
	return existing, nil
}

func u64(n uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, n)
	return b
}

func TestBucketPutGet(t *testing.T) {
	a := mem.NewArena(0)
	b, err := NewBucket(a, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.Get([]byte("k1")); !ok || string(v) != "v1" {
		t.Errorf("Get(k1) = %q,%v", v, ok)
	}
	if _, ok := b.Get([]byte("absent")); ok {
		t.Error("Get(absent) found something")
	}
	// Same-length replace happens in place (no garbage).
	if err := b.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Get([]byte("k1")); string(v) != "v2" {
		t.Errorf("Get after replace = %q", v)
	}
	if b.GarbageBytes() != 0 {
		t.Errorf("garbage = %d after in-place replace", b.GarbageBytes())
	}
	// Different-length replace leaves garbage.
	if err := b.Put([]byte("k1"), []byte("longer-value")); err != nil {
		t.Fatal(err)
	}
	if b.GarbageBytes() != 2 {
		t.Errorf("garbage = %d, want 2", b.GarbageBytes())
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

func TestBucketUpsertCombines(t *testing.T) {
	a := mem.NewArena(0)
	b, err := NewBucket(a, 256)
	if err != nil {
		t.Fatal(err)
	}
	// WordCount-style combining: repeated keys sum their counts.
	words := []string{"the", "quick", "the", "fox", "the", "quick"}
	for _, w := range words {
		if err := b.Upsert([]byte(w), u64(1), sumMerge); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3 unique words", b.Len())
	}
	want := map[string]uint64{"the": 3, "quick": 2, "fox": 1}
	for w, n := range want {
		v, ok := b.Get([]byte(w))
		if !ok || binary.LittleEndian.Uint64(v) != n {
			t.Errorf("Get(%s) = %v,%v want %d", w, v, ok, n)
		}
	}
}

func TestBucketScanInsertionOrder(t *testing.T) {
	a := mem.NewArena(0)
	b, err := NewBucket(a, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := b.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	err = b.Scan(func(k, v []byte) error {
		if want := fmt.Sprintf("key-%03d", i); string(k) != want {
			return fmt.Errorf("scan[%d] = %q, want %q", i, k, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 200 {
		t.Errorf("scanned %d entries, want 200 (growth must preserve order)", i)
	}
}

func TestBucketGrowthKeepsEntries(t *testing.T) {
	a := mem.NewArena(0)
	b, err := NewBucket(a, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // forces many head-table doublings
	for i := 0; i < n; i++ {
		if err := b.Upsert(u64(uint64(i)), u64(uint64(i)), sumMerge); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := b.Get(u64(uint64(i)))
		if !ok || binary.LittleEndian.Uint64(v) != uint64(i) {
			t.Fatalf("entry %d lost after growth", i)
		}
	}
}

func TestBucketMemoryAccounting(t *testing.T) {
	a := mem.NewArena(0)
	b, err := NewBucket(a, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.Put([]byte(fmt.Sprintf("key%d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if a.Used() != b.MemoryBytes() {
		t.Errorf("arena used %d != bucket MemoryBytes %d", a.Used(), b.MemoryBytes())
	}
	b.Free()
	if a.Used() != 0 {
		t.Errorf("arena used %d after Free, want 0", a.Used())
	}
}

func TestBucketOOM(t *testing.T) {
	a := mem.NewArena(600)
	b, err := NewBucket(a, 128)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 1000 && lastErr == nil; i++ {
		lastErr = b.Put([]byte(fmt.Sprintf("key%d", i)), []byte("value"))
	}
	if !errors.Is(lastErr, mem.ErrNoMemory) {
		t.Fatalf("expected ErrNoMemory, got %v", lastErr)
	}
	b.Free()
	if a.Used() != 0 {
		t.Errorf("arena used %d after OOM + Free", a.Used())
	}
}

// TestBucketOversizedEntry: a key or value larger than a page is an error
// naming PageSize, on insert and on a merge that grows the value past a
// page; the bucket keeps its entries and returns every byte on Free.
func TestBucketOversizedEntry(t *testing.T) {
	a := mem.NewArena(0)
	b, _ := NewBucket(a, 64)
	big := bytes.Repeat([]byte("v"), 65)
	if err := b.Put([]byte("k"), big); err == nil || !strings.Contains(err.Error(), "PageSize 64") {
		t.Fatalf("Put of a 65-byte value into 64-byte pages: err = %v, want a PageSize error", err)
	}
	if err := b.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	err := b.Upsert([]byte("k"), []byte("w"), func(_, _ []byte) ([]byte, error) { return big, nil })
	if err == nil || !strings.Contains(err.Error(), "PageSize 64") {
		t.Fatalf("Upsert growing the value past a page: err = %v, want a PageSize error", err)
	}
	if v, ok := b.Get([]byte("k")); !ok || string(v) != "v" || b.Len() != 1 {
		t.Fatalf("after the rejections: Get = (%q, %v), Len %d; want (v, true), 1", v, ok, b.Len())
	}
	b.Free()
	if a.Used() != 0 {
		t.Errorf("arena used %d after Free", a.Used())
	}
}

func TestBucketUpsertMergeError(t *testing.T) {
	a := mem.NewArena(0)
	b, _ := NewBucket(a, 256)
	boom := errors.New("merge failed")
	if err := b.Upsert([]byte("k"), []byte("v"), nil); err != nil {
		t.Fatal(err) // nil merge never called on first insert
	}
	err := b.Upsert([]byte("k"), []byte("v"), func(_, _ []byte) ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("Upsert merge error = %v", err)
	}
}

// Property: the bucket behaves exactly like a map under Upsert-with-sum for
// arbitrary key sequences.
func TestBucketMatchesMapProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		a := mem.NewArena(0)
		b, err := NewBucket(a, 256)
		if err != nil {
			return false
		}
		ref := map[string]uint64{}
		for _, kb := range keys {
			k := []byte{kb}
			ref[string(k)]++
			if err := b.Upsert(k, u64(1), sumMerge); err != nil {
				return false
			}
		}
		if b.Len() != len(ref) {
			return false
		}
		got := map[string]uint64{}
		_ = b.Scan(func(k, v []byte) error {
			got[string(k)] = binary.LittleEndian.Uint64(v)
			return nil
		})
		if len(got) != len(ref) {
			return false
		}
		for k, n := range ref {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConvertGroupsValues(t *testing.T) {
	a := mem.NewArena(0)
	in := NewKVC(a, 256, DefaultHint())
	pairs := [][2]string{
		{"b", "1"}, {"a", "x"}, {"b", "22"}, {"c", "zz"}, {"a", "yy"}, {"b", "3"},
	}
	for _, p := range pairs {
		if err := in.Append([]byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	out, err := Convert(in, a, 256, DefaultHint())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Free()
	got := map[string][]string{}
	var order []string
	err = out.Scan(func(key []byte, vals *ValueIter) error {
		order = append(order, string(key))
		for v, ok := vals.Next(); ok; v, ok = vals.Next() {
			got[string(key)] = append(got[string(key)], string(v))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"a": {"x", "yy"}, "b": {"1", "22", "3"}, "c": {"zz"}}
	for k, vs := range want {
		if fmt.Sprint(got[k]) != fmt.Sprint(vs) {
			t.Errorf("key %q: got %v, want %v", k, got[k], vs)
		}
	}
	// First-appearance order.
	if fmt.Sprint(order) != "[b a c]" {
		t.Errorf("key order = %v, want [b a c]", order)
	}
	// The input was drained: only the KMVC (plus its metadata) remains.
	if a.Used() != out.ReservedBytes() {
		t.Errorf("arena used %d != KMVC reservation %d (input must be drained, index freed)",
			a.Used(), out.ReservedBytes())
	}
}

// Property: Convert(in) groups exactly like a reference map grouping, for
// random multisets of KVs, under both default and hinted encodings.
func TestConvertMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint16) bool {
		a := mem.NewArena(0)
		hint := DefaultHint()
		if seed%2 == 1 {
			hint = Hint{Key: StrZ(), Val: Fixed(8)}
		}
		in := NewKVC(a, 512, hint)
		ref := map[string][]string{}
		n := int(seed%50) + 1
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", (i*7+int(seed))%10)
			v := u64(uint64(i))
			if hint.Val.IsVarlen() {
				v = []byte(fmt.Sprintf("v%d", i))
			}
			if err := in.Append([]byte(k), v); err != nil {
				return false
			}
			ref[k] = append(ref[k], string(v))
		}
		out, err := Convert(in, a, 512, hint)
		if err != nil {
			return false
		}
		defer out.Free()
		if out.NumKMV() != len(ref) {
			return false
		}
		ok := true
		_ = out.Scan(func(key []byte, vals *ValueIter) error {
			var vs []string
			for v, more := vals.Next(); more; v, more = vals.Next() {
				vs = append(vs, string(v))
			}
			want := ref[string(key)]
			sort.Strings(vs)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if !bytes.Equal([]byte(fmt.Sprint(vs)), []byte(fmt.Sprint(sorted))) {
				ok = false
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConvertEmptyInput(t *testing.T) {
	a := mem.NewArena(0)
	in := NewKVC(a, 256, DefaultHint())
	out, err := Convert(in, a, 256, DefaultHint())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumKMV() != 0 {
		t.Errorf("NumKMV = %d for empty input", out.NumKMV())
	}
	out.Free()
	if a.Used() != 0 {
		t.Error("leak on empty convert")
	}
}

func TestConvertOOM(t *testing.T) {
	// Arena large enough for the input but not for input + index + output.
	a := mem.NewArena(4096)
	in := NewKVC(a, 512, DefaultHint())
	for i := 0; i < 100; i++ {
		if err := in.Append([]byte(fmt.Sprintf("key-%03d", i)), []byte("valuevalue")); err != nil {
			t.Fatalf("setup append %d: %v", i, err)
		}
	}
	_, err := Convert(in, a, 512, DefaultHint())
	if !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("Convert = %v, want ErrNoMemory", err)
	}
}

// residueKeys returns n distinct keys whose HashKey is r modulo p — the key
// population one rank of a p-rank job holds under the default partitioner.
func residueKeys(n int, r, p uint64) [][]byte {
	keys := make([][]byte, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("word-%d", i))
		if HashKey(k)%p == r {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestBucketProbeBoundedUnderRankResidue: a bucket only ever sees keys of
// one HashKey residue class (the rank's), so its chains must not be drawn
// from the bits that picked the rank. Indexed by HashKey itself, the
// longest chain grows with the rank count (at 64 ranks, 64 times the keys
// per reachable head); indexed by slotHash it stays that of an unfiltered
// population.
func TestBucketProbeBoundedUnderRankResidue(t *testing.T) {
	const n = 1 << 14
	longest := func(keys [][]byte) int {
		a := mem.NewArena(0)
		b, err := NewBucket(a, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Free()
		for _, k := range keys {
			if err := b.Put(k, nil); err != nil {
				t.Fatal(err)
			}
		}
		return b.LongestChain()
	}
	base := longest(residueKeys(n, 0, 1))
	for _, p := range []uint64{2, 8, 64} {
		r := p - 1
		if got := longest(residueKeys(n, r, p)); got > 2*base {
			t.Errorf("keys = %d mod %d: longest chain %d, unfiltered population %d (want <= 2x)", r, p, got, base)
		}
	}
}

// TestConvertAllocs pins convert's heap traffic: it may allocate per page
// and per doubling of its tables, never per KV.
func TestConvertAllocs(t *testing.T) {
	const kvs, pageSize = 1 << 15, 64 << 10
	keys := residueKeys(512, 3, 8)
	hint := Hint{Key: StrZ(), Val: Fixed(8)}
	a := mem.NewArena(0)
	val := make([]byte, 8)
	fill := func() *KVC {
		in := NewKVC(a, pageSize, hint)
		for i := 0; i < kvs; i++ {
			if err := in.Append(keys[i%len(keys)], val); err != nil {
				t.Fatal(err)
			}
		}
		return in
	}
	in := fill()
	pages := int(in.ReservedBytes()/pageSize) + 1
	in.Free()
	// AllocsPerRun also counts the refill; appends reuse pooled pages and
	// allocate only the page table.
	perRun := testing.AllocsPerRun(5, func() {
		out, err := Convert(fill(), a, pageSize, hint)
		if err != nil {
			t.Fatal(err)
		}
		out.Free()
	})
	// Input, output and index pages, plus ~log2 growth steps of the four
	// tables (entries, heads, records, page lists).
	if limit := float64(4*pages + 64); perRun > limit {
		t.Errorf("Convert of %d KVs on %d pages: %.0f allocs, want <= %.0f (none per KV)", kvs, pages, perRun, limit)
	}
}
