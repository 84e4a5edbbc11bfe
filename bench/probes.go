package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/partition"
	"mimir/internal/pfs"
	"mimir/internal/spill"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

// The unit-cost probes: workload-independent code, single goroutine, on
// wordcount-shaped data (8192 distinct keys of 8–16 bytes, 8-byte values).
// Each is the median of probeSlices timings over probeShare of --seconds. A
// probe runs in the traced run of the workloads whose time its unit cost
// explains (probeOn, the "moves" column of the README's interaction table)
// and reads 0 elsewhere, so each is measured in the process and the minute
// of the job it budgets, for long enough to be steady.
var probeUnits = map[string]string{
	"kvbuf.encode_hint_ns_per_kv":     "ns/kv",
	"kvbuf.encode_varlen_ns_per_kv":   "ns/kv",
	"kvbuf.decode_hint_ns_per_kv":     "ns/kv",
	"kvbuf.decode_varlen_ns_per_kv":   "ns/kv",
	"kvbuf.measure_mb_s":              "MB/s",
	"kvbuf.kvc_append_ns_per_kv":      "ns/kv",
	"kvbuf.append_chunk_mb_s":         "MB/s",
	"kvbuf.kvc_scan_ns_per_kv":        "ns/kv",
	"kvbuf.bucket_upsert_ns_per_kv":   "ns/kv",
	"kvbuf.convert_ns_per_kv":         "ns/kv",
	"kvbuf.convert_allocs_per_kv":     "allocs/kv",
	"mem.page_cycle_ns":               "ns",
	"spill.evict_mb_s":                "MB/s",
	"spill.restore_mb_s":              "MB/s",
	"pfs.write_mb_s":                  "MB/s",
	"pfs.read_mb_s":                   "MB/s",
	"partition.hash_dest_ns_per_kv":   "ns/kv",
	"partition.range_dest_ns_per_kv":  "ns/kv",
	"partition.sample_plan_ms":        "ms",
	"mpi.local_alltoallv_mb_s":        "MB/s",
	"mpi.tcp_allreduce_us":            "us",
	"transport.tcp_exchange_mb_s":     "MB/s",
	"transport.tcp_exchange_small_us": "us",
	"transport.frame_encode_mb_s":     "MB/s",
	"transport.frame_decode_mb_s":     "MB/s",
	"transport.flate_encode_mb_s":     "MB/s",
	"transport.flate_ratio":           "ratio",
	"workloads.textgen_mb_s":          "MB/s",
	"workloads.zipfgen_mb_s":          "MB/s",
	"workloads.wcmap_ns_per_kv":       "ns/kv",
}

const (
	probeSlices   = 5
	probeShare    = 0.05 // of --seconds, per probe
	probeKeys     = 8192
	probePage     = 64 << 10
	probeExchange = 1 << 20
)

// probeOn names, for each probe, the workloads whose traced run includes it.
// A probe with two metrics is keyed by its first.
var probeOn = map[string][]string{
	"kvbuf.encode_hint_ns_per_kv":     {"wc_uniform", "shuffle_tcp"},
	"kvbuf.encode_varlen_ns_per_kv":   {"wc_zipf_pr"},
	"kvbuf.decode_hint_ns_per_kv":     {"terasort"},
	"kvbuf.decode_varlen_ns_per_kv":   {"terasort"},
	"kvbuf.measure_mb_s":              {"wc_spill"},
	"kvbuf.kvc_append_ns_per_kv":      {"terasort"},
	"kvbuf.append_chunk_mb_s":         {"wc_uniform", "shuffle_tcp"},
	"kvbuf.kvc_scan_ns_per_kv":        {"shuffle_tcp", "shuffle_flate"},
	"kvbuf.bucket_upsert_ns_per_kv":   {"wc_zipf_pr", "pagerank"},
	"kvbuf.convert_ns_per_kv":         {"wc_uniform", "wc_spill"}, // and kvbuf.convert_allocs_per_kv
	"mem.page_cycle_ns":               {"pagerank", "mimird_small_jobs"},
	"spill.evict_mb_s":                {"wc_spill"}, // and spill.restore_mb_s
	"pfs.write_mb_s":                  {"wc_spill"},
	"pfs.read_mb_s":                   {"wc_spill"},
	"partition.hash_dest_ns_per_kv":   {"wc_uniform", "shuffle_tcp"},
	"partition.sample_plan_ms":        {"wc_zipf_pr", "terasort"}, // and partition.range_dest_ns_per_kv
	"mpi.local_alltoallv_mb_s":        {"mimird_small_jobs"},
	"mpi.tcp_allreduce_us":            {"pagerank"},
	"transport.tcp_exchange_mb_s":     {"shuffle_tcp"},
	"transport.tcp_exchange_small_us": {"pagerank"},
	"transport.frame_encode_mb_s":     {"shuffle_tcp", "shuffle_flate"},
	"transport.frame_decode_mb_s":     {"shuffle_tcp", "shuffle_flate"},
	"transport.flate_encode_mb_s":     {"shuffle_flate"}, // and transport.flate_ratio
	"workloads.textgen_mb_s":          {"wc_uniform", "mimird_small_jobs"},
	"workloads.zipfgen_mb_s":          {"wc_zipf_pr"},
	"workloads.wcmap_ns_per_kv":       {"wc_uniform", "mimird_small_jobs"},
}

// probeData is the shared input of the kvbuf and partition probes.
type probeData struct {
	keys [][]byte // the KV sequence: keys drawn from probeKeys distinct ones
	val  []byte
	hint kvbuf.Hint
	enc  []byte // every KV, hint-encoded
	encV []byte // every KV, varlen-encoded
}

func newProbeData(seed uint64, kvs int) *probeData {
	d := &probeData{val: core.Uint64Bytes(1), hint: workloads.WCHint()}
	vocab := vocabulary(probeKeys)
	state := seed
	for i := 0; i < kvs; i++ {
		state += 0x9E3779B97F4A7C15
		d.keys = append(d.keys, vocab[mix64(state)%probeKeys])
	}
	for _, k := range d.keys {
		d.enc, _ = d.hint.Encode(d.enc, k, d.val)
		d.encV, _ = kvbuf.DefaultHint().Encode(d.encV, k, d.val)
	}
	return d
}

// perOp times f (which performs ops operations per call) for about dur and
// returns the median seconds per operation over probeSlices slices.
func perOp(dur time.Duration, ops int, f func()) float64 {
	f() // warm-up
	slice := dur / probeSlices
	var samples []float64
	for s := 0; s < probeSlices; s++ {
		calls := 0
		t0 := time.Now()
		for {
			f()
			calls++
			if time.Since(t0) >= slice {
				break
			}
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(calls*ops))
	}
	return median(samples)
}

func mbPerSec(bytes int, secPerOp float64) float64 { return float64(bytes) / 1e6 / secPerOp }

// fakeComm lets the partitioners plan without a world: both "ranks"
// contributed the same sample.
type fakeComm struct{}

func (fakeComm) Rank() int                             { return 0 }
func (fakeComm) Size() int                             { return benchRanks }
func (fakeComm) Allgatherv(b []byte) ([][]byte, error) { return [][]byte{b, b}, nil }
func (fakeComm) Bcast(b []byte, _ int) ([]byte, error) { return b, nil }

var probeSink int

// runProbes runs workload's probes for about dur each and returns name →
// value for every probe metric, 0 for the ones not run. A probe whose layer
// fails reports 0 and says so on standard error.
func runProbes(workload string, dur time.Duration, seed uint64, probeKVs int) map[string]float64 {
	out := make(map[string]float64, len(probeUnits))
	for name := range probeUnits {
		out[name] = 0
	}
	on := func(name string) bool {
		for _, w := range probeOn[name] {
			if w == workload {
				return true
			}
		}
		return false
	}
	d := newProbeData(seed, probeKVs)
	fail := func(name string, err error) { fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", name, err) }

	// kvbuf codec.
	buf := make([]byte, 0, len(d.encV))
	encode := func(name string, h kvbuf.Hint) {
		if on(name) {
			out[name] = 1e9 * perOp(dur, probeKVs, func() {
				buf = buf[:0]
				for _, k := range d.keys {
					buf, _ = h.Encode(buf, k, d.val)
				}
			})
		}
	}
	decode := func(name string, h kvbuf.Hint, enc []byte) {
		if on(name) {
			out[name] = 1e9 * perOp(dur, probeKVs, func() {
				for pos := 0; pos < len(enc); {
					k, _, n, _ := h.Decode(enc[pos:])
					probeSink += len(k)
					pos += n
				}
			})
		}
	}
	encode("kvbuf.encode_hint_ns_per_kv", d.hint)
	encode("kvbuf.encode_varlen_ns_per_kv", kvbuf.DefaultHint())
	decode("kvbuf.decode_hint_ns_per_kv", d.hint, d.enc)
	decode("kvbuf.decode_varlen_ns_per_kv", kvbuf.DefaultHint(), d.encV)
	if on("kvbuf.measure_mb_s") {
		out["kvbuf.measure_mb_s"] = mbPerSec(len(d.enc), perOp(dur, 1, func() {
			for pos := 0; pos < len(d.enc); {
				n, _ := d.hint.Measure(d.enc[pos:])
				pos += n
			}
		}))
	}

	// kvbuf containers.
	arena := mem.NewArena(0)
	if on("kvbuf.kvc_append_ns_per_kv") {
		out["kvbuf.kvc_append_ns_per_kv"] = 1e9 * perOp(dur, probeKVs, func() {
			c := kvbuf.NewKVC(arena, probePage, d.hint)
			for _, k := range d.keys {
				c.Append(k, d.val)
			}
			c.Free()
		})
	}
	if on("kvbuf.append_chunk_mb_s") {
		out["kvbuf.append_chunk_mb_s"] = mbPerSec(len(d.enc), perOp(dur, 1, func() {
			c := kvbuf.NewKVC(arena, probePage, d.hint)
			c.AppendChunk(d.enc)
			c.Free()
		}))
	}
	if on("kvbuf.kvc_scan_ns_per_kv") {
		filled := kvbuf.NewKVC(arena, probePage, d.hint)
		filled.AppendChunk(d.enc)
		out["kvbuf.kvc_scan_ns_per_kv"] = 1e9 * perOp(dur, probeKVs, func() {
			filled.Scan(func(k, v []byte) error {
				probeSink += len(k)
				return nil
			})
		})
		filled.Free()
	}
	if on("kvbuf.bucket_upsert_ns_per_kv") {
		combine := func(existing, incoming []byte) ([]byte, error) {
			return workloads.WordCountCombine(nil, existing, incoming)
		}
		out["kvbuf.bucket_upsert_ns_per_kv"] = 1e9 * perOp(dur, probeKVs, func() {
			b, err := kvbuf.NewBucket(arena, probePage)
			if err != nil {
				return
			}
			for _, k := range d.keys {
				b.Upsert(k, d.val, combine)
			}
			b.Free()
		})
	}
	if on("kvbuf.convert_ns_per_kv") {
		// Convert consumes its input, so only the Convert call itself is timed.
		var convSec []float64
		var convAllocs []float64
		for deadline := time.Now().Add(dur); len(convSec) < probeSlices || time.Now().Before(deadline); {
			c := kvbuf.NewKVC(arena, probePage, d.hint)
			c.AppendChunk(d.enc)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			kmv, err := kvbuf.Convert(c, arena, probePage, d.hint)
			sec := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			if err != nil {
				fail("kvbuf.convert", err)
				break
			}
			kmv.Free()
			convSec = append(convSec, sec/float64(probeKVs))
			convAllocs = append(convAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(probeKVs))
		}
		out["kvbuf.convert_ns_per_kv"] = 1e9 * median(convSec)
		out["kvbuf.convert_allocs_per_kv"] = median(convAllocs)
	}

	if on("mem.page_cycle_ns") {
		out["mem.page_cycle_ns"] = 1e9 * perOp(dur, 1024, func() {
			for i := 0; i < 1024; i++ {
				p, err := arena.NewPage(probePage)
				if err != nil {
					return
				}
				p.Release()
			}
		})
	}

	// spill: 64 pages through a store capped at 16, then a sequential Pin
	// pass; the timed work is the page traffic the cap forces.
	if on("spill.evict_mb_s") {
		probeSpill(out, dur)
	}

	// pfs.
	page := make([]byte, probePage)
	fs := pfs.New(pfs.Config{})
	if on("pfs.write_mb_s") {
		out["pfs.write_mb_s"] = mbPerSec(64*probePage, perOp(dur, 1, func() {
			fs.Remove("probe")
			for i := 0; i < 64; i++ {
				fs.Append(nil, "probe", page)
			}
		}))
	}
	if on("pfs.read_mb_s") { // reads what the write probe left behind
		out["pfs.read_mb_s"] = mbPerSec(64*probePage, perOp(dur, 1, func() {
			for i := int64(0); i < 64; i++ {
				b, _ := fs.ReadAt(nil, "probe", i*probePage, probePage)
				probeSink += len(b)
			}
		}))
	}

	// partition.
	dest := func(a partition.Assignment) float64 {
		return 1e9 * perOp(dur, probeKVs, func() {
			for _, k := range d.keys {
				probeSink += a.Dest(k, 0)
			}
		})
	}
	if on("partition.hash_dest_ns_per_kv") {
		if a, err := (partition.HashPartitioner{}).Plan(fakeComm{}, nil, false); err != nil {
			fail("partition.hash", err)
		} else {
			out["partition.hash_dest_ns_per_kv"] = dest(a)
		}
	}
	if on("partition.sample_plan_ms") {
		sampler := &partition.SamplePartitioner{}
		sample := d.keys[:sampler.SampleCap()]
		var ranged partition.Assignment
		out["partition.sample_plan_ms"] = 1e3 * perOp(dur, 1, func() {
			a, err := sampler.Plan(fakeComm{}, sample, true)
			if err == nil {
				ranged = a
			}
		})
		if ranged != nil {
			out["partition.range_dest_ns_per_kv"] = dest(ranged)
		}
	}

	// mpi and transport collectives, on 2-rank worlds.
	big := make([]byte, probeExchange)
	if on("mpi.local_alltoallv_mb_s") {
		sec, err := probeWorld([]*mpi.World{localWorld(benchRanks)}, func(c *mpi.Comm) (float64, error) {
			return alltoallvLoop(c, dur, append([]byte(nil), big...))
		})
		if err != nil {
			fail("mpi.local_alltoallv", err)
		}
		out["mpi.local_alltoallv_mb_s"] = mbPerSec(probeExchange*benchRanks, sec)
	}
	tcpProbe := func(name string, f func(c *mpi.Comm) (float64, error)) float64 {
		worlds, err := tcpWorlds(benchRanks, false, nil)
		if err != nil {
			fail(name, err)
			return 0
		}
		defer closeWorlds(worlds)
		sec, err := probeWorld(worlds, f)
		if err != nil {
			fail(name, err)
		}
		return sec
	}
	if on("transport.tcp_exchange_mb_s") {
		out["transport.tcp_exchange_mb_s"] = mbPerSec(probeExchange*benchRanks, tcpProbe("transport.tcp_exchange", func(c *mpi.Comm) (float64, error) {
			return alltoallvLoop(c, dur, append([]byte(nil), big...))
		}))
	}
	if on("transport.tcp_exchange_small_us") {
		out["transport.tcp_exchange_small_us"] = 1e6 * tcpProbe("transport.tcp_exchange_small", func(c *mpi.Comm) (float64, error) {
			return alltoallvLoop(c, dur, make([]byte, 64))
		})
	}
	if on("mpi.tcp_allreduce_us") {
		out["mpi.tcp_allreduce_us"] = 1e6 * tcpProbe("mpi.tcp_allreduce", func(c *mpi.Comm) (float64, error) {
			// The max of the ranks' stop flags ends every rank's loop in
			// the same round.
			t0 := time.Now()
			rounds := 0
			for stop := int64(0); stop == 0; rounds++ {
				if c.Rank() == 0 && time.Since(t0) >= dur {
					stop = 1
				}
				all, err := c.AllreduceInt64([]int64{stop}, mpi.OpMax)
				if err != nil {
					return 0, err
				}
				stop = all[0]
			}
			return time.Since(t0).Seconds() / float64(rounds), nil
		})
	}

	// transport framing, on one 64 KiB shuffle payload.
	frame := &transport.Frame{Op: transport.OpExchange, Src: 1, Tag: 7, Seq: 42, Data: d.enc[:probePage]}
	wire := transport.AppendFrame(nil, frame)
	if on("transport.frame_encode_mb_s") {
		out["transport.frame_encode_mb_s"] = mbPerSec(probePage, perOp(dur, 1, func() {
			wire = transport.AppendFrame(wire[:0], frame)
		}))
	}
	if on("transport.frame_decode_mb_s") {
		out["transport.frame_decode_mb_s"] = mbPerSec(probePage, perOp(dur, 1, func() {
			f, _, err := transport.DecodeFrame(wire)
			if err != nil {
				fail("transport.frame_decode", err)
				return
			}
			probeSink += len(f.Data)
		}))
	}
	if on("transport.flate_encode_mb_s") {
		var packed []byte
		out["transport.flate_encode_mb_s"] = mbPerSec(probePage, perOp(dur, 1, func() {
			packed, _ = transport.AppendFrameCompressed(packed[:0], frame)
		}))
		out["transport.flate_ratio"] = float64(len(wire)) / float64(len(packed))
	}

	// workloads: generators against a no-op emit, the map against a null
	// emitter.
	const genBytes = 1 << 20
	noop := func(core.Record) error { return nil }
	if on("workloads.textgen_mb_s") {
		out["workloads.textgen_mb_s"] = mbPerSec(genBytes, perOp(dur, 1, func() {
			workloads.TextInput(nil, nil, workloads.Uniform, seed, genBytes, 0, 1)(noop)
		}))
	}
	if on("workloads.zipfgen_mb_s") {
		out["workloads.zipfgen_mb_s"] = mbPerSec(genBytes, perOp(dur, 1, func() {
			workloads.ZipfTextInput(nil, nil, workloads.ZipfConfig{Skew: zipfSkew}, seed, genBytes, 0, 1)(noop)
		}))
	}
	if on("workloads.wcmap_ns_per_kv") {
		var recs [][]byte
		workloads.TextInput(nil, nil, workloads.Uniform, seed, genBytes, 0, 1)(func(r core.Record) error {
			recs = append(recs, append([]byte(nil), r.Val...))
			return nil
		})
		var null nullEmitter
		for _, r := range recs {
			workloads.WordCountMap(core.Record{Val: r}, &null)
		}
		words := null.n
		out["workloads.wcmap_ns_per_kv"] = 1e9 * perOp(dur, words, func() {
			for _, r := range recs {
				workloads.WordCountMap(core.Record{Val: r}, &null)
			}
		})
	}
	return out
}

type nullEmitter struct{ n int }

func (e *nullEmitter) Emit(k, v []byte) error {
	e.n++
	return nil
}

func probeSpill(out map[string]float64, dur time.Duration) {
	const pages, resident = 64, 16
	var evictSec, restoreSec []float64
	for deadline := time.Now().Add(dur); len(evictSec) < probeSlices || time.Now().Before(deadline); {
		arena := mem.NewArena(resident * probePage)
		store := spill.NewStore(spill.Config{Arena: arena, FS: pfs.New(pfs.Config{}), Name: "probe", Watermark: 1})
		ids := make([]kvbuf.PageID, 0, pages)
		t0 := time.Now()
		for i := 0; i < pages; i++ {
			id, p, err := store.NewPage(probePage)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: probe spill: %v\n", err)
				return
			}
			p.Used = probePage
			store.Seal(id)
			ids = append(ids, id)
		}
		fill := time.Since(t0).Seconds()
		spilled := store.Stats().SpilledBytes
		t0 = time.Now()
		for _, id := range ids {
			if _, err := store.Pin(id); err != nil {
				fmt.Fprintf(os.Stderr, "bench: probe spill: %v\n", err)
				return
			}
			store.Unpin(id)
		}
		scan := time.Since(t0).Seconds()
		restored := store.Stats().RestoredBytes
		for _, id := range ids {
			store.Free(id)
		}
		if spilled == 0 || restored == 0 {
			fmt.Fprintln(os.Stderr, "bench: probe spill: the cap forced no page traffic")
			return
		}
		evictSec = append(evictSec, fill/float64(spilled))
		restoreSec = append(restoreSec, scan/float64(restored))
	}
	out["spill.evict_mb_s"] = 1 / median(evictSec) / 1e6
	out["spill.restore_mb_s"] = 1 / median(restoreSec) / 1e6
}

// probeWorld runs f on every rank of a 2-rank world (one Local world, or one
// TCP world per rank) and returns what rank 0 measured.
func probeWorld(worlds []*mpi.World, f func(c *mpi.Comm) (float64, error)) (float64, error) {
	var sec float64
	err := eachRank(worlds, func(_ int, w *mpi.World) error {
		return w.Run(func(c *mpi.Comm) error {
			s, err := f(c)
			if c.Rank() == 0 {
				sec = s
			}
			return err
		})
	})
	return sec, err
}

// alltoallvLoop exchanges payload with every rank for about dur and returns
// the seconds per round. Every rank runs the same number of rounds: rank 0
// decides when the time is up and tells the others through the exchanged
// byte.
func alltoallvLoop(c *mpi.Comm, dur time.Duration, payload []byte) (float64, error) {
	send := make([][]byte, c.Size())
	t0 := time.Now()
	for rounds := 1; ; rounds++ {
		stop := byte(0)
		if c.Rank() == 0 && time.Since(t0) >= dur {
			stop = 1
		}
		payload[0] = stop
		for i := range send {
			send[i] = payload
		}
		recv, err := c.Alltoallv(send)
		if err != nil {
			return 0, err
		}
		done := recv[0][0] == 1
		c.Recycle(recv)
		if done {
			return time.Since(t0).Seconds() / float64(rounds), nil
		}
	}
}
