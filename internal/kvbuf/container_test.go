package kvbuf

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mimir/internal/mem"
)

func TestKVCAppendScan(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKVC(a, 64, DefaultHint())
	want := [][2]string{{"apple", "1"}, {"banana", "22"}, {"cherry", "333"}}
	for _, p := range want {
		if err := c.Append([]byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if c.NumKV() != 3 {
		t.Errorf("NumKV = %d, want 3", c.NumKV())
	}
	var got [][2]string
	if err := c.Scan(func(k, v []byte) error {
		got = append(got, [2]string{string(k), string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Scan[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKVCGrowsByPages(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKVC(a, 32, DefaultHint())
	for i := 0; i < 100; i++ {
		if err := c.Append([]byte(fmt.Sprintf("key%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if a.Used() < c.Bytes() {
		t.Errorf("arena charge %d below payload %d", a.Used(), c.Bytes())
	}
	if c.ReservedBytes()%32 != 0 {
		t.Errorf("reservation %d not in page units", c.ReservedBytes())
	}
	c.Free()
	if a.Used() != 0 {
		t.Errorf("arena used %d after Free, want 0", a.Used())
	}
}

// TestKVCOversizedRecord: a KV larger than a page is an error naming
// PageSize, from Append and from AppendChunk's per-KV fallback alike; the
// container keeps every KV before it and stays usable.
func TestKVCOversizedRecord(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKVC(a, 16, DefaultHint())
	big := bytes.Repeat([]byte("x"), 100)
	if err := c.Append([]byte("k"), big); err == nil || !strings.Contains(err.Error(), "PageSize 16") {
		t.Fatalf("Append of a 109-byte KV into 16-byte pages: err = %v, want a PageSize error", err)
	}
	h := DefaultHint()
	chunk, _ := h.Encode(nil, []byte("a"), []byte("1"))
	chunk, _ = h.Encode(chunk, []byte("k"), big)
	n, err := c.AppendChunk(chunk)
	if err == nil || !strings.Contains(err.Error(), "PageSize 16") || n != 1 {
		t.Fatalf("AppendChunk = (%d, %v), want 1 KV appended then a PageSize error", n, err)
	}
	if err := c.Append([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := c.Scan(func(k, v []byte) error {
		got = append(got, string(k)+"="+string(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "a=1 b=2" || c.NumKV() != 2 {
		t.Fatalf("container holds %q (%d KVs), want [a=1 b=2]", got, c.NumKV())
	}
	c.Free()
	if a.Used() != 0 {
		t.Fatalf("arena holds %d bytes after Free", a.Used())
	}
}

func TestKVCDrainFreesPages(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKVC(a, 64, DefaultHint())
	for i := 0; i < 50; i++ {
		if err := c.Append([]byte(fmt.Sprintf("key%02d", i)), []byte("val")); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Used()
	if before == 0 {
		t.Fatal("no arena charge before drain")
	}
	n := 0
	if err := c.Drain(func(k, v []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("drained %d KVs, want 50", n)
	}
	if a.Used() != 0 {
		t.Errorf("arena used %d after Drain, want 0", a.Used())
	}
	if c.NumKV() != 0 {
		t.Errorf("NumKV = %d after Drain", c.NumKV())
	}
}

func TestKVCDrainErrorStillFrees(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKVC(a, 64, DefaultHint())
	for i := 0; i < 50; i++ {
		if err := c.Append([]byte(fmt.Sprintf("key%02d", i)), []byte("val")); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	err := c.Drain(func(k, v []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Drain error = %v", err)
	}
	if a.Used() != 0 {
		t.Errorf("arena used %d after failed Drain, want 0 (pages must not leak)", a.Used())
	}
}

func TestKVCAppendChunk(t *testing.T) {
	h := Hint{Key: StrZ(), Val: Fixed(2)}
	var chunk []byte
	var err error
	for i := 0; i < 5; i++ {
		chunk, err = h.Encode(chunk, []byte(fmt.Sprintf("k%d", i)), []byte{byte(i), 0xFF})
		if err != nil {
			t.Fatal(err)
		}
	}
	a := mem.NewArena(0)
	c := NewKVC(a, 64, h)
	n, err := c.AppendChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || c.NumKV() != 5 {
		t.Errorf("AppendChunk = %d (NumKV %d), want 5", n, c.NumKV())
	}
	if _, err := c.AppendChunk([]byte{1, 2}); err == nil {
		t.Error("AppendChunk accepted garbage")
	}
}

func TestKVCHintRejection(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKVC(a, 64, Hint{Key: StrZ(), Val: Fixed(8)})
	if err := c.Append([]byte("ok"), []byte("short")); err == nil {
		t.Error("Append accepted hint-violating value")
	}
	if c.NumKV() != 0 || c.Bytes() != 0 {
		t.Error("failed Append left residue")
	}
}

func TestKVCOOM(t *testing.T) {
	a := mem.NewArena(100)
	c := NewKVC(a, 64, DefaultHint())
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = c.Append([]byte("some-key-data"), []byte("some-value"))
	}
	if !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("expected ErrNoMemory, got %v", err)
	}
	c.Free()
	if a.Used() != 0 {
		t.Error("leak after OOM + Free")
	}
}

// Property: KV-hint encodings always use no more container bytes than the
// default encoding for the same data (the Fig 7 saving).
func TestHintNeverLargerProperty(t *testing.T) {
	f := func(words []string) bool {
		def := DefaultHint()
		hinted := Hint{Key: StrZ(), Val: Fixed(8)}
		var defBytes, hintBytes int
		val := make([]byte, 8)
		for _, w := range words {
			k := []byte(w)
			if bytes.IndexByte(k, 0) >= 0 {
				continue
			}
			defBytes += def.EncodedSize(k, val)
			hintBytes += hinted.EncodedSize(k, val)
		}
		return hintBytes <= defBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKMVCBuildAndScan(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKMVC(a, 128, DefaultHint())
	id0, err := c.NewRecord([]byte("fruit"), 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := c.NewRecord([]byte("veg"), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		id int
		v  string
	}{{id0, "apple"}, {id1, "carrot"}, {id0, "banana"}} {
		if err := c.AppendValue(step.id, []byte(step.v)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err = c.Scan(func(key []byte, vals *ValueIter) error {
		var vs []string
		for v, ok := vals.Next(); ok; v, ok = vals.Next() {
			vs = append(vs, string(v))
		}
		got = append(got, fmt.Sprintf("%s=%v(len %d)", key, vs, vals.Len()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fruit=[apple banana](len 2)", "veg=[carrot](len 1)"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Scan = %v, want %v", got, want)
	}
	c.Free()
	if a.Used() != 0 {
		t.Error("arena leak after KMVC Free")
	}
}

func TestKMVCIncompleteScanFails(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKMVC(a, 128, DefaultHint())
	if _, err := c.NewRecord([]byte("k"), 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Scan(func([]byte, *ValueIter) error { return nil }); err == nil {
		t.Error("Scan of incomplete record succeeded")
	}
}

func TestKMVCOverfillRejected(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKMVC(a, 128, DefaultHint())
	id, err := c.NewRecord([]byte("k"), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendValue(id, []byte("xx")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendValue(id, []byte("y")); err == nil {
		t.Error("AppendValue beyond declared count succeeded")
	}
	if err := c.AppendValue(99, []byte("y")); err == nil {
		t.Error("AppendValue with bad id succeeded")
	}
}

func TestKMVCFixedValueLayoutSaves(t *testing.T) {
	a1 := mem.NewArena(0)
	a2 := mem.NewArena(0)
	varc := NewKMVC(a1, 1<<20, DefaultHint())
	fixc := NewKMVC(a2, 1<<20, Hint{Key: Varlen(), Val: Fixed(8)})
	v := make([]byte, 8)
	id1, _ := varc.NewRecord([]byte("key"), 100, 800)
	id2, _ := fixc.NewRecord([]byte("key"), 100, 800)
	for i := 0; i < 100; i++ {
		if err := varc.AppendValue(id1, v); err != nil {
			t.Fatal(err)
		}
		if err := fixc.AppendValue(id2, v); err != nil {
			t.Fatal(err)
		}
	}
	if fixc.Bytes() >= varc.Bytes() {
		t.Errorf("fixed-value KMV (%d B) not smaller than varlen (%d B)", fixc.Bytes(), varc.Bytes())
	}
}

func TestValueIterReset(t *testing.T) {
	a := mem.NewArena(0)
	c := NewKMVC(a, 128, Hint{Key: Varlen(), Val: StrZ()})
	id, err := c.NewRecord([]byte("k"), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendValue(id, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendValue(id, []byte("cd")); err != nil {
		t.Fatal(err)
	}
	err = c.Scan(func(key []byte, vals *ValueIter) error {
		for pass := 0; pass < 2; pass++ {
			var n int
			for _, ok := vals.Next(); ok; _, ok = vals.Next() {
				n++
			}
			if n != 2 {
				return fmt.Errorf("pass %d saw %d values", pass, n)
			}
			vals.Reset()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
