package kvbuf_test

import (
	"fmt"
	"reflect"
	"testing"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
	"mimir/internal/spill"
)

// kmvRecord is one KMV record as a reader sees it.
type kmvRecord struct {
	key  string
	vals []string
}

func dumpKMV(t *testing.T, kmv *kvbuf.KMVC) []kmvRecord {
	t.Helper()
	var recs []kmvRecord
	err := kmv.Scan(func(key []byte, vals *kvbuf.ValueIter) error {
		r := kmvRecord{key: string(key)}
		for v, ok := vals.Next(); ok; v, ok = vals.Next() {
			r.vals = append(r.vals, string(v))
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("KMV scan: %v", err)
	}
	return recs
}

// groupReference is convert's specification, on a Go map: one record per
// unique key in first-appearance order, each holding the key's values in
// arrival order.
func groupReference(stream [][2][]byte) []kmvRecord {
	var recs []kmvRecord
	at := map[string]int{}
	for _, kv := range stream {
		i, ok := at[string(kv[0])]
		if !ok {
			i = len(recs)
			at[string(kv[0])] = i
			recs = append(recs, kmvRecord{key: string(kv[0])})
		}
		recs[i].vals = append(recs[i].vals, string(kv[1]))
	}
	return recs
}

// TestConvertEqualsReferenceEverywhere holds every convert entry point to
// the map-based reference — record order (hence record ids), values and
// stored bytes — on the key population one rank of an 8-rank job holds
// (HashKey = 3 mod 8), under each length mode, in memory and on a spill
// store small enough to evict during both passes.
func TestConvertEqualsReferenceEverywhere(t *testing.T) {
	const pageSize = 512
	var words [][]byte
	for i := 0; len(words) < 200; i++ {
		w := []byte(fmt.Sprintf("w%dx", i*i))
		if kvbuf.HashKey(w)%8 == 3 {
			words = append(words, w)
		}
	}
	hints := map[string]kvbuf.Hint{
		"varlen":      kvbuf.DefaultHint(),
		"strz-fixed8": {Key: kvbuf.StrZ(), Val: kvbuf.Fixed(8)},
		"strz-strz":   {Key: kvbuf.StrZ(), Val: kvbuf.StrZ()},
		"fixed-fixed": {Key: kvbuf.Fixed(6), Val: kvbuf.Fixed(8)},
	}
	for name, hint := range hints {
		t.Run(name, func(t *testing.T) {
			var stream [][2][]byte
			x := uint64(len(name))
			for i := 0; i < 3000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := words[(x>>33)%uint64(len(words))]
				if name == "fixed-fixed" {
					k = append(make([]byte, 0, 6+len(k)), k...)[:6]
				}
				v := []byte(fmt.Sprintf("%08d", i))
				if hint.Val.IsVarlen() || name == "strz-strz" {
					v = v[:1+i%8]
				}
				stream = append(stream, [2][]byte{k, v})
			}
			want := groupReference(stream)

			fill := func(in *kvbuf.KVC) *kvbuf.KVC {
				for _, kv := range stream {
					if err := in.Append(kv[0], kv[1]); err != nil {
						t.Fatal(err)
					}
				}
				return in
			}
			check := func(label string, kmv *kvbuf.KMVC, arena *mem.Arena, wantBytes int64) int64 {
				t.Helper()
				if got := dumpKMV(t, kmv); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: records differ from the reference grouping (%d vs %d records)", label, len(got), len(want))
				}
				n := kmv.Bytes()
				if wantBytes >= 0 && n != wantBytes {
					t.Fatalf("%s: KMVC stores %d bytes, serial in-memory convert %d", label, n, wantBytes)
				}
				kmv.Free()
				if arena.Used() != 0 {
					t.Fatalf("%s: arena holds %d bytes after Free", label, arena.Used())
				}
				return n
			}

			arena := mem.NewArena(0)
			kmv, err := kvbuf.Convert(fill(kvbuf.NewKVC(arena, pageSize, hint)), arena, pageSize, hint)
			if err != nil {
				t.Fatalf("Convert: %v", err)
			}
			bytes := check("Convert", kmv, arena, -1)

			capped := mem.NewArena(48 * pageSize)
			store := spill.NewStore(spill.Config{
				Arena: capped, FS: pfs.New(pfs.Config{Bandwidth: 1 << 20, Latency: 1e-3}),
				Clock: simtime.NewClock(), Name: t.Name(), Policy: spill.WhenNeeded,
			})
			kmv, err = kvbuf.ConvertOn(store, fill(kvbuf.NewKVCOn(store, capped, pageSize, hint)), capped, pageSize, hint)
			if err != nil {
				t.Fatalf("ConvertOn(store): %v", err)
			}
			if store.Stats().SpilledBytes == 0 {
				t.Fatalf("ConvertOn(store): nothing spilled in a %d-byte arena", capped.Capacity())
			}
			check("ConvertOn(store)", kmv, capped, bytes)

		})
	}
}
