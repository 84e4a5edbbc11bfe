package kvbuf

import (
	"bytes"
	"testing"

	"mimir/internal/mem"
)

// fuzzHint maps a pair of mode bytes to a Hint, sanitizing (k, v) so they
// are legal under it: fixed sides are padded/truncated to the declared
// length, strz sides have NUL bytes replaced. Covers all nine combinations
// of varlen, Fixed, and StrZ (NullTerminated) on each side.
func fuzzHint(keyMode, valMode uint8, k, v []byte) (Hint, []byte, []byte) {
	side := func(mode uint8, b []byte) (LenMode, []byte) {
		switch mode % 3 {
		case 1:
			n := int(mode/3)%15 + 1
			fixed := make([]byte, n)
			copy(fixed, b)
			return Fixed(n), fixed
		case 2:
			return StrZ(), bytes.ReplaceAll(b, []byte{0}, []byte{1})
		}
		return Varlen(), b
	}
	km, k2 := side(keyMode, k)
	vm, v2 := side(valMode, v)
	return Hint{Key: km, Val: vm}, k2, v2
}

// FuzzCodecRoundTrip checks, for every hint mode combination, that
// (1) Encode→Decode is the identity and consumes exactly the encoded bytes,
// and (2) Decode never panics and never reports success with zero consumed
// bytes on arbitrary input (the invariant that keeps stream decoding from
// looping forever).
func FuzzCodecRoundTrip(f *testing.F) {
	// Seeds from the table tests: one per hint shape, plus raw junk.
	f.Add([]byte("abc"), []byte("12345678"), uint8(0), uint8(0))
	f.Add([]byte("word"), []byte("12345678"), uint8(2), uint8(0))
	f.Add([]byte("word"), []byte("12345678"), uint8(2), uint8(22)) // strz key, fixed(8) value
	f.Add([]byte("abc"), []byte("12345678"), uint8(7), uint8(22))  // fixed(3)/fixed(8)
	f.Add([]byte("hello"), []byte("world"), uint8(0), uint8(2))
	f.Add([]byte(""), []byte(""), uint8(2), uint8(2))
	f.Add([]byte("no-nul-here"), []byte{0xff, 0xfe}, uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, k, v []byte, keyMode, valMode uint8) {
		h, k, v := fuzzHint(keyMode, valMode, k, v)
		enc, err := h.Encode(nil, k, v)
		if err != nil {
			t.Fatalf("Encode(%q, %q) under %v/%v: %v", k, v, h.Key, h.Val, err)
		}
		if len(enc) != h.EncodedSize(k, v) {
			t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), h.EncodedSize(k, v))
		}
		gk, gv, n, err := h.Decode(enc)
		if err != nil {
			t.Fatalf("Decode of own encoding failed: %v", err)
		}
		if n != len(enc) || !bytes.Equal(gk, k) || !bytes.Equal(gv, v) {
			t.Fatalf("round trip (%q, %q) -> (%q, %q), consumed %d/%d", k, v, gk, gv, n, len(enc))
		}

		// Adversarial decode: the raw fuzz input (plus the encoding) fed to
		// every decoder must either error or make progress — never panic,
		// never succeed consuming nothing.
		raw := append(append([]byte{}, k...), v...)
		for _, buf := range [][]byte{raw, enc[:len(enc)/2], append(enc, raw...)} {
			for km := uint8(0); km < 3; km++ {
				for vm := uint8(0); vm < 3; vm++ {
					dh, _, _ := fuzzHint(km, vm, nil, nil)
					if _, _, dn, derr := dh.Decode(buf); derr == nil && dn <= 0 {
						t.Fatalf("Decode under %v/%v consumed %d bytes without error", dh.Key, dh.Val, dn)
					}
				}
			}
		}
	})
}

// FuzzConvert drives the two-pass KV→KMV convert with arbitrary KV streams,
// hint modes and page sizes (32, 64 or 256 bytes, picked by pageSel): the
// KMV output must be the input regrouped by key — records in
// first-appearance order, values in arrival order — and all arena memory
// must be returned after Free. Every KV fits a 32-byte page, while a key
// repeated often enough makes a KMV record that spans pages.
func FuzzConvert(f *testing.F) {
	f.Add([]byte("the quick brown fox the lazy dog the end"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("aaaa bb c dddddd bb aaaa"), uint8(2), uint8(0), uint8(1))
	f.Add([]byte{1, 2, 3, 0, 255, 254, 0, 9}, uint8(0), uint8(4), uint8(2))
	f.Add([]byte(""), uint8(1), uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte("\x00\x07kvvvvvvv"), 40), uint8(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, keyMode, valMode, pageSel uint8) {
		hint, _, _ := fuzzHint(keyMode, valMode, nil, nil)
		pageSize := [...]int{32, 64, 256}[pageSel%3]
		arena := mem.NewArena(0)
		kvc := NewKVC(arena, pageSize, hint)

		// Slice the fuzz input into KVs, sanitized for the hint.
		type kv struct{ k, v string }
		var want []kv
		for pos := 0; pos+2 <= len(data) && len(want) < 64; {
			klen := int(data[pos]%8) + 1
			vlen := int(data[pos+1] % 8)
			pos += 2
			if pos+klen+vlen > len(data) {
				break
			}
			_, k, v := fuzzHint(keyMode, valMode, data[pos:pos+klen], data[pos+klen:pos+klen+vlen])
			pos += klen + vlen
			if err := kvc.Append(k, v); err != nil {
				t.Fatalf("Append(%q, %q): %v", k, v, err)
			}
			want = append(want, kv{string(k), string(v)})
		}

		kmv, err := Convert(kvc, arena, pageSize, hint)
		if err != nil {
			t.Fatalf("Convert: %v", err)
		}
		// One record per unique key in first-appearance order, each with
		// the key's values in arrival order: flattened, the KMV is the
		// input stably regrouped by first appearance.
		firstSeen := map[string]int{}
		groups := [][]kv{}
		for _, w := range want {
			i, ok := firstSeen[w.k]
			if !ok {
				i = len(groups)
				firstSeen[w.k] = i
				groups = append(groups, nil)
			}
			groups[i] = append(groups[i], w)
		}
		rec := 0
		err = kmv.Scan(func(key []byte, vals *ValueIter) error {
			if rec >= len(groups) {
				t.Fatalf("KMV holds more than the %d unique keys inserted", len(groups))
			}
			g := groups[rec]
			if vals.Len() != len(g) {
				t.Fatalf("record %d (%q) holds %d values, want %d", rec, key, vals.Len(), len(g))
			}
			for i := 0; i < len(g); i++ {
				v, _ := vals.Next()
				if string(key) != g[i].k || string(v) != g[i].v {
					t.Fatalf("record %d value %d = (%q, %q), want (%q, %q)", rec, i, key, v, g[i].k, g[i].v)
				}
			}
			rec++
			return nil
		})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if rec != len(groups) {
			t.Fatalf("KMV holds %d records, want %d", rec, len(groups))
		}
		kmv.Free()
		if arena.Used() != 0 {
			t.Fatalf("arena holds %d bytes after Free (leak)", arena.Used())
		}
	})
}
