package mimir_test

// TestShuffleAllocs pins the allocation behavior of the shuffle hot path
// with testing.AllocsPerRun:
//
//   - the codec fast paths (Encode into a reused buffer, Decode, Measure)
//     allocate NOTHING per KV — these run once per KV on the map and reduce
//     sides, so any per-call allocation multiplies by the dataset;
//   - container chunk ingestion (AppendChunk + Drain) amortizes to a small
//     constant per chunk (page-pool bookkeeping), not per KV;
//   - the TCP send path costs a small constant per FRAME (pooled-buffer
//     boxing, one Frame header on the receive side), independent of payload
//     size, in allocations and in bytes: the frame-sized buffers on both
//     sides, compressed or not, come back through the frame pool.
//
// The pins run only without the race detector: -race instruments every
// allocation and makes sync.Pool deliberately drop items, so AllocsPerRun
// measures the instrumentation, not the code (see raceEnabled).

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mimir"
	"mimir/internal/kvbuf"
)

func TestShuffleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun figures are meaningless under the race detector")
	}
	hint := shuffleHint()
	key := []byte("word00ffxxx")
	val := mimir.Uint64Bytes(1)
	enc, err := hint.Encode(nil, key, val)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("codec/encode", func(t *testing.T) {
		dst := make([]byte, 0, 64)
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := hint.Encode(dst[:0], key, val); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Encode into reused buffer: %v allocs/KV, want 0", n)
		}
	})

	t.Run("codec/decode", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if _, _, _, err := hint.Decode(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Decode: %v allocs/KV, want 0", n)
		}
	})

	t.Run("codec/measure", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := hint.Measure(enc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Measure: %v allocs/KV, want 0", n)
		}
	})

	t.Run("container/append-chunk", func(t *testing.T) {
		// A realistic receive chunk: several thousand KVs, a few pages worth.
		const chunkKVs = 4096
		var chunk []byte
		for i := 0; i < chunkKVs; i++ {
			chunk, err = hint.Encode(chunk, []byte(fmt.Sprintf("word%04x", i%shuffleVocab)), val)
			if err != nil {
				t.Fatal(err)
			}
		}
		arena := mimir.NewArena(0)
		kvc := kvbuf.NewKVC(arena, 64<<10, hint)
		sink := func(k, v []byte) error { return nil }
		// Warm the page pool so the measurement sees steady state.
		if _, err := kvc.AppendChunk(chunk); err != nil {
			t.Fatal(err)
		}
		if err := kvc.Drain(sink); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if _, err := kvc.AppendChunk(chunk); err != nil {
				t.Fatal(err)
			}
			if err := kvc.Drain(sink); err != nil {
				t.Fatal(err)
			}
		})
		// Page-pool round trips cost ~1 boxing alloc per page put plus the
		// pages-slice growth; with ~70KB across 2 pages that's a handful per
		// CHUNK and ~0 per KV.
		if n > 16 {
			t.Errorf("AppendChunk+Drain cycle: %v allocs/chunk, want <= 16", n)
		}
		if perKV := n / chunkKVs; perKV > 0.01 {
			t.Errorf("AppendChunk+Drain: %v allocs/KV, want <= 0.01", perKV)
		}
		t.Logf("AppendChunk+Drain: %.1f allocs per %d-KV chunk (%.5f/KV)", n, chunkKVs, n/chunkKVs)
	})

	// The frame round trip, plain and through a compressed mesh. Both count
	// allocations AND bytes: a fixed number of small objects per frame is
	// not enough — a received payload must go back into the pool class it
	// was drawn from, or every frame costs a fresh frame-sized buffer at a
	// constant allocation count.
	for _, compress := range []bool{false, true} {
		name := "tcp/send-frame"
		if compress {
			name += "-compressed"
		}
		t.Run(name, func(t *testing.T) {
			trs, err := shuffleMesh(2, compress)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, tr := range trs {
					tr.Close()
				}
			}()
			ep0, ep1 := trs[0].Endpoint(0), trs[1].Endpoint(1)
			recycler, _ := ep1.(interface{ Recycle(b []byte) })
			payload := make([]byte, 64<<10) // 64 KiB frame: per-KV share vanishes
			for i := range payload {
				payload[i] = byte(i)
			}
			roundTrip := func() {
				if err := ep0.Send(1, 7, payload, 0); err != nil {
					t.Fatal(err)
				}
				m, err := ep1.Recv(0, 7)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.Data) != len(payload) {
					t.Fatalf("got %d bytes, want %d", len(m.Data), len(payload))
				}
				if recycler != nil {
					recycler.Recycle(m.Data)
				}
			}
			roundTrip() // warm the frame pools
			// compress/flate's inflater rebuilds its Huffman tables on every
			// Reset: allocations inside the standard library that no pool
			// here can reach. On the compressed mesh both pins apply above
			// that floor, measured on the same payload.
			var floorAllocs, floorBytes float64
			if compress {
				floorAllocs, floorBytes = inflateFloor(t, payload)
			}
			n := testing.AllocsPerRun(100, roundTrip) - floorAllocs
			// One framed send costs pooled-buffer boxing on recycle, the
			// receive-side Frame header, the queue node and the mailbox
			// hand-off — each a fixed cost per frame, independent of the
			// 64 KiB payload.
			const maxPerFrame = 24
			if n > maxPerFrame {
				t.Errorf("TCP send/recv round trip: %v allocs/frame, want <= %d", n, maxPerFrame)
			}
			// Bytes per frame over 200 round trips, on one P as AllocsPerRun
			// runs (a second P keeps a per-P pool slot the other cannot
			// take from).
			const trips = 200
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			roundTrip()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < trips; i++ {
				roundTrip()
			}
			runtime.ReadMemStats(&after)
			perFrame := float64(after.TotalAlloc-before.TotalAlloc)/trips - floorBytes
			const maxBytesPerFrame = 1 << 10
			if perFrame > maxBytesPerFrame {
				t.Errorf("TCP send/recv round trip: %.0f bytes/frame allocated, want <= %d (a 64 KiB frame must reuse pooled buffers)", perFrame, maxBytesPerFrame)
			}
			t.Logf("TCP send/recv: %.1f allocs and %.0f bytes per 64KiB frame (above an inflate floor of %.1f allocs, %.0f bytes)",
				n, perFrame, floorAllocs, floorBytes)
		})
	}
}

// inflateFloor measures what compress/flate alone allocates to inflate
// payload as the transport deflates it (BestSpeed) with a reset, reused
// reader: allocations and bytes per inflate, on one P.
func inflateFloor(t *testing.T, payload []byte) (allocs, bytesPer float64) {
	t.Helper()
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	var br bytes.Reader
	fr := flate.NewReader(&br)
	out := make([]byte, len(payload))
	inflate := func() {
		br.Reset(comp.Bytes())
		if err := fr.(flate.Resetter).Reset(&br, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(fr, out); err != nil {
			t.Fatal(err)
		}
	}
	inflate()
	allocs = testing.AllocsPerRun(100, inflate)
	const runs = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		inflate()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}
