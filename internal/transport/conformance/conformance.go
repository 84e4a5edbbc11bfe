// Package conformance is the cross-transport contract test: one table of
// point-to-point, collective, large-payload, and abort scenarios that every
// transport — Local, TCP, compressed TCP — must pass with byte-identical
// results, and on which a fault-injected TCP world must fail fast
// (FailStop). A transport that survives this suite is substitutable for any
// other as far as the runtime (internal/mpi) can observe, which is what
// lets the experiment harness validate on the local transport and deploy on
// TCP.
package conformance

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"mimir/internal/transport"
)

// WorldSize is the rank count every scenario runs at.
const WorldSize = 4

// World is one rank's view of a scenario run.
type World struct {
	T    transport.Transport
	Ep   transport.Endpoint
	Rank int
	Size int
}

// collect computes fn(0..n-1) in order and returns the results, stopping at
// the first error.
func collect(n int, fn func(i int) ([]byte, error)) ([][]byte, error) {
	outs := make([][]byte, n)
	for i := range outs {
		b, err := fn(i)
		if err != nil {
			return nil, err
		}
		outs[i] = b
	}
	return outs, nil
}

// Scenario is one SPMD contract check: Run executes on every rank and
// returns that rank's observable result bytes. Unless ExpectAbort is set,
// every rank must succeed and the concatenated results are the scenario's
// digest — compared byte-for-byte across transports by Digests.
type Scenario struct {
	Name        string
	ExpectAbort bool
	Run         func(w *World) ([]byte, error)
}

// pattern derives a deterministic payload from its coordinates, so every
// rank can independently compute what every other rank must have sent.
func pattern(tag, src, dst, n int) []byte {
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	x := uint64(tag)<<48 | uint64(src)<<32 | uint64(dst)<<16 | uint64(n)
	for i := range out {
		x += 0x9E3779B97F4A7C15
		z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i] = byte(z ^ (z >> 31))
	}
	return out
}

func checkPattern(got []byte, tag, src, dst, n int) error {
	if want := pattern(tag, src, dst, n); !bytes.Equal(got, want) {
		return fmt.Errorf("payload (tag %d, %d->%d): got %d bytes, want %d", tag, src, dst, len(got), n)
	}
	return nil
}

// Scenarios returns the conformance table.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "exchange-rounds", Run: scExchangeRounds},
		{Name: "exchange-barrier", Run: scExchangeBarrier},
		{Name: "exchange-ragged", Run: scExchangeRagged},
		{Name: "exchange-large", Run: scExchangeLarge},
		{Name: "p2p-ring", Run: scP2PRing},
		{Name: "p2p-gather-any", Run: scP2PGatherAny},
		{Name: "mux-jobs-interleaved", Run: scMuxInterleaved},
		{Name: "mux-abort-isolated", Run: scMuxAbortIsolated},
		{Name: "skewed-exchange", Run: scSkewedExchange},
		{Name: "abort-propagates", ExpectAbort: true, Run: scAbort},
	}
}

// jobStream is one job's worth of traffic on a transport channel: rounds of
// alltoall exchange plus ring point-to-point, every byte derived from the job
// id so two jobs sharing a mesh can never mistake each other's frames, ending
// in a barrier that drains the channel. Returns this rank's deterministic
// observable bytes.
func jobStream(w *World, ch transport.Transport, job int) ([]byte, error) {
	ep := ch.Endpoint(w.Rank)
	right := (w.Rank + 1) % w.Size
	left := (w.Rank + w.Size - 1) % w.Size
	var out []byte
	for round := 0; round < 3; round++ {
		round := round
		send, err := collect(w.Size, func(dst int) ([]byte, error) {
			return pattern(job*1000+round, w.Rank, dst, 96+32*round), nil
		})
		if err != nil {
			return nil, err
		}
		recv, _, err := ep.Exchange(send, 0)
		if err != nil {
			return nil, err
		}
		checked, err := collect(len(recv), func(src int) ([]byte, error) {
			if err := checkPattern(recv[src], job*1000+round, src, w.Rank, 96+32*round); err != nil {
				return nil, err
			}
			return recv[src], nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range checked {
			out = append(out, c...)
		}
		if err := ep.Send(right, round, pattern(job*2000+round, w.Rank, right, 56), 0); err != nil {
			return nil, err
		}
		m, err := ep.Recv(left, round)
		if err != nil {
			return nil, err
		}
		if err := checkPattern(m.Data, job*2000+round, left, w.Rank, 56); err != nil {
			return nil, err
		}
		out = append(out, m.Data...)
	}
	if _, _, err := ep.Exchange(nil, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// scMuxInterleaved is the concurrent-jobs contract: two independent job
// streams multiplex one mesh through per-job channels, running concurrently
// on every rank, and each stream's bytes are exactly what it would have seen
// alone. This is the scenario the mimird job service leans on.
func scMuxInterleaved(w *World) ([]byte, error) {
	mux, ok := w.T.(transport.Mux)
	if !ok {
		return nil, fmt.Errorf("transport %T cannot multiplex job channels", w.T)
	}
	chA, err := mux.Open(1)
	if err != nil {
		return nil, err
	}
	chB, err := mux.Open(2)
	if err != nil {
		return nil, err
	}
	var outA, outB []byte
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); outA, errA = jobStream(w, chA, 1) }()
	go func() { defer wg.Done(); outB, errB = jobStream(w, chB, 2) }()
	wg.Wait()
	if errA != nil {
		return nil, fmt.Errorf("job 1: %w", errA)
	}
	if errB != nil {
		return nil, fmt.Errorf("job 2: %w", errB)
	}
	// Channels are left for the transport's Close to reap: on shared
	// in-process meshes an early per-rank Close could race another rank's
	// traffic, and the contract under test is the streams' bytes, not
	// channel teardown.
	return append(outA, outB...), nil
}

// scMuxAbortIsolated is job-failure isolation: aborting one job's channel
// kills that job on every rank (ErrAborted, never a hang) while a concurrent
// job and the default channel sail through untouched. The abort fires before
// any job traffic so its control frames lead every connection, which
// mirrors how the job service sequences a scripted crash.
func scMuxAbortIsolated(w *World) ([]byte, error) {
	mux, ok := w.T.(transport.Mux)
	if !ok {
		return nil, fmt.Errorf("transport %T cannot multiplex job channels", w.T)
	}
	chA, err := mux.Open(3)
	if err != nil {
		return nil, err
	}
	chB, err := mux.Open(4)
	if err != nil {
		return nil, err
	}
	if w.Rank == w.Size-1 {
		chB.Abort(fmt.Errorf("%w: conformance: scripted job failure", transport.ErrAborted))
	}
	if _, _, err := chB.Endpoint(w.Rank).Exchange(nil, 0); !errors.Is(err, transport.ErrAborted) {
		return nil, fmt.Errorf("aborted job channel: err = %v, want ErrAborted", err)
	}
	out, err := jobStream(w, chA, 3)
	if err != nil {
		return nil, fmt.Errorf("surviving job: %w", err)
	}
	if _, _, err := w.Ep.Exchange(nil, 0); err != nil {
		return nil, fmt.Errorf("default channel after job abort: %w", err)
	}
	return out, nil
}

// scExchangeRounds runs several full alltoall rounds, verifies every cell
// against the pattern the SPMD contract demands, and checks tmax is the
// maximum clock reading across participants.
func scExchangeRounds(w *World) ([]byte, error) {
	var out []byte
	for round := 0; round < 4; round++ {
		round := round
		send, err := collect(w.Size, func(dst int) ([]byte, error) {
			return pattern(round, w.Rank, dst, 64+16*round), nil
		})
		if err != nil {
			return nil, err
		}
		now := float64(10*w.Rank + round)
		recv, tmax, err := w.Ep.Exchange(send, now)
		if err != nil {
			return nil, err
		}
		if want := float64(10*(w.Size-1) + round); tmax != want {
			return nil, fmt.Errorf("round %d: tmax %v, want %v", round, tmax, want)
		}
		checked, err := collect(len(recv), func(src int) ([]byte, error) {
			if err := checkPattern(recv[src], round, src, w.Rank, 64+16*round); err != nil {
				return nil, err
			}
			return recv[src], nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range checked {
			out = append(out, c...)
		}
	}
	return out, nil
}

// scExchangeBarrier runs a burst of contribution-free exchanges (pure
// barriers); the result is empty on every rank.
func scExchangeBarrier(w *World) ([]byte, error) {
	for i := 0; i < 8; i++ {
		if _, _, err := w.Ep.Exchange(nil, 0); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// scExchangeRagged mixes empty and non-empty cells in one exchange: empty
// contributions must arrive as empty, not shift or swallow neighbors.
func scExchangeRagged(w *World) ([]byte, error) {
	var out []byte
	for round := 0; round < 3; round++ {
		round := round
		send, err := collect(w.Size, func(dst int) ([]byte, error) {
			n := 32 * ((w.Rank + dst + round) % 3) // 0, 32, or 64 bytes
			return pattern(100+round, w.Rank, dst, n), nil
		})
		if err != nil {
			return nil, err
		}
		recv, _, err := w.Ep.Exchange(send, 0)
		if err != nil {
			return nil, err
		}
		checked, err := collect(len(recv), func(src int) ([]byte, error) {
			n := 32 * ((src + w.Rank + round) % 3)
			if err := checkPattern(recv[src], 100+round, src, w.Rank, n); err != nil {
				return nil, err
			}
			return recv[src], nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range checked {
			out = append(out, c...)
			out = append(out, '|')
		}
	}
	return out, nil
}

// scExchangeLarge moves payloads big enough to span many write chunks (and,
// under fault injection, to be cut mid-frame).
func scExchangeLarge(w *World) ([]byte, error) {
	const n = 384 << 10
	send, err := collect(w.Size, func(dst int) ([]byte, error) {
		return pattern(7, w.Rank, dst, n), nil
	})
	if err != nil {
		return nil, err
	}
	recv, _, err := w.Ep.Exchange(send, 0)
	if err != nil {
		return nil, err
	}
	checked, err := collect(len(recv), func(src int) ([]byte, error) {
		if err := checkPattern(recv[src], 7, src, w.Rank, n); err != nil {
			return nil, err
		}
		return recv[src], nil
	})
	if err != nil {
		return nil, err
	}
	sum := sha256.New()
	for _, c := range checked {
		sum.Write(c)
	}
	return sum.Sum(nil), nil
}

// scP2PRing circulates tagged messages around the rank ring and checks
// arrival order per (src, tag).
func scP2PRing(w *World) ([]byte, error) {
	right := (w.Rank + 1) % w.Size
	left := (w.Rank + w.Size - 1) % w.Size
	var out []byte
	payloads, err := collect(4, func(i int) ([]byte, error) {
		return pattern(200+i, w.Rank, right, 48), nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range payloads {
		if err := w.Ep.Send(right, i, p, 0); err != nil {
			return nil, err
		}
	}
	got := make([]transport.Message, 4)
	for i := range got {
		m, err := w.Ep.Recv(left, i)
		if err != nil {
			return nil, err
		}
		got[i] = m
	}
	checked, err := collect(len(got), func(i int) ([]byte, error) {
		m := got[i]
		if m.Src != left || m.Tag != i {
			return nil, fmt.Errorf("recv: got (src %d, tag %d), want (%d, %d)", m.Src, m.Tag, left, i)
		}
		if err := checkPattern(m.Data, 200+i, left, w.Rank, 48); err != nil {
			return nil, err
		}
		return m.Data, nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range checked {
		out = append(out, c...)
	}
	if _, _, err := w.Ep.Exchange(nil, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// scP2PGatherAny funnels one message per rank to rank 0 via the AnySource
// wildcard.
func scP2PGatherAny(w *World) ([]byte, error) {
	const tag = 9
	var out []byte
	if w.Rank != 0 {
		if err := w.Ep.Send(0, tag, pattern(300, w.Rank, 0, 40), 0); err != nil {
			return nil, err
		}
	} else {
		msgs := make([]transport.Message, 0, w.Size-1)
		for i := 1; i < w.Size; i++ {
			m, err := w.Ep.Recv(transport.AnySource, tag)
			if err != nil {
				return nil, err
			}
			msgs = append(msgs, m)
		}
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Src < msgs[j].Src })
		checked, err := collect(len(msgs), func(i int) ([]byte, error) {
			if err := checkPattern(msgs[i].Data, 300, msgs[i].Src, 0, 40); err != nil {
				return nil, err
			}
			return msgs[i].Data, nil
		})
		if err != nil {
			return nil, err
		}
		for _, c := range checked {
			out = append(out, c...)
		}
	}
	if _, _, err := w.Ep.Exchange(nil, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// scSkewedExchange is the sampling partitioner's traffic shape as a wire
// contract: an all-gather-shaped round (every rank's key sample to every
// rank), a broadcast-shaped round (rank 0's plan to everyone, all other
// cells empty), then skewed data rounds where one rank receives an order of
// magnitude more than its peers — the load imbalance a skewed keyspace
// produces before the planned ranges rebalance it. On the default faulted
// TCP build these are the mesh's first frames, so the injected delay, reset,
// partial write, and corruption land mid-sample-gather and mid-plan; the
// digest must still match the local transport byte for byte.
func scSkewedExchange(w *World) ([]byte, error) {
	var out []byte
	// Round 1: the sample all-gather (equal small cells, tag 7001).
	send, err := collect(w.Size, func(dst int) ([]byte, error) {
		return pattern(7001, w.Rank, dst, 48), nil
	})
	if err != nil {
		return nil, err
	}
	recv, _, err := w.Ep.Exchange(send, 0)
	if err != nil {
		return nil, err
	}
	for src := range recv {
		if err := checkPattern(recv[src], 7001, src, w.Rank, 48); err != nil {
			return nil, fmt.Errorf("sample gather: %w", err)
		}
		out = append(out, recv[src]...)
	}
	// Round 2: the plan broadcast — only rank 0 contributes (tag 7002).
	send, err = collect(w.Size, func(dst int) ([]byte, error) {
		if w.Rank != 0 {
			return nil, nil
		}
		return pattern(7002, 0, dst, 160), nil
	})
	if err != nil {
		return nil, err
	}
	recv, _, err = w.Ep.Exchange(send, 0)
	if err != nil {
		return nil, err
	}
	for src := range recv {
		n := 0
		if src == 0 {
			n = 160
		}
		if err := checkPattern(recv[src], 7002, src, w.Rank, n); err != nil {
			return nil, fmt.Errorf("plan broadcast: %w", err)
		}
		out = append(out, recv[src]...)
	}
	// Rounds 3..5: skewed exchanges — rank 0 is the hot destination.
	for round := 0; round < 3; round++ {
		round := round
		send, err = collect(w.Size, func(dst int) ([]byte, error) {
			n := 64
			if dst == 0 {
				n = 1024 + 256*round
			}
			return pattern(7100+round, w.Rank, dst, n), nil
		})
		if err != nil {
			return nil, err
		}
		recv, _, err = w.Ep.Exchange(send, 0)
		if err != nil {
			return nil, err
		}
		checked, err := collect(len(recv), func(src int) ([]byte, error) {
			n := 64
			if w.Rank == 0 {
				n = 1024 + 256*round
			}
			if err := checkPattern(recv[src], 7100+round, src, w.Rank, n); err != nil {
				return nil, err
			}
			return recv[src], nil
		})
		if err != nil {
			return nil, fmt.Errorf("skewed round %d: %w", round, err)
		}
		for _, c := range checked {
			out = append(out, c...)
		}
	}
	if _, _, err := w.Ep.Exchange(nil, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// scAbort has the last rank poison the world while the others sit in a
// collective; every rank must come back with ErrAborted, never hang.
func scAbort(w *World) ([]byte, error) {
	if w.Rank == w.Size-1 {
		w.T.Abort(fmt.Errorf("%w: conformance: scripted failure", transport.ErrAborted))
	}
	_, _, err := w.Ep.Exchange(nil, 0)
	if err == nil {
		return nil, errors.New("exchange succeeded after abort")
	}
	return nil, err
}

// Builder creates a fresh world of the given size: one Transport per
// simulated process, together hosting exactly ranks 0..size-1. The runner
// closes them.
type Builder func(t testing.TB, size int) []transport.Transport

// FailStopBound is how long a world a fault disrupted may take, from the
// start of its run to its last rank's return, to fail with ErrAborted on
// every rank. A fail-stop transport has nothing to wait out: the bound is
// far below every deadline a hang would run into.
const FailStopBound = 2 * time.Second

// Digests runs every scenario against the transports build produces and
// returns scenario → hex digest of the world's concatenated per-rank
// results. Two conforming transports return identical maps; Run compares
// them for you.
func Digests(t *testing.T, build Builder) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			out[sc.Name] = runScenario(t, sc, build)
		})
	}
	return out
}

func runScenario(t *testing.T, sc Scenario, build Builder) string {
	t.Helper()
	results, errs, _ := runWorld(t, "scenario "+sc.Name, build, sc.Run)
	return digest(t, sc, results, errs)
}

// digest checks a scenario's per-rank outcome and hashes it: "aborted" for
// an abort scenario (every rank must have ErrAborted), otherwise the hex
// SHA-256 of the ranks' length-prefixed results.
func digest(t *testing.T, sc Scenario, results [][]byte, errs []error) string {
	t.Helper()
	if sc.ExpectAbort {
		for rank, err := range errs {
			if !errors.Is(err, transport.ErrAborted) {
				t.Fatalf("rank %d: err = %v, want ErrAborted", rank, err)
			}
		}
		return "aborted"
	}
	sum := sha256.New()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		binary.Write(sum, binary.BigEndian, uint64(len(results[rank])))
		sum.Write(results[rank])
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// runWorld runs fn on every rank of a fresh world from build, fails the
// test if the world hangs, and closes it. It returns each rank's result
// and error, and the time from the start of the run until the last rank
// returned.
func runWorld(t *testing.T, label string, build Builder, fn func(w *World) ([]byte, error)) ([][]byte, []error, time.Duration) {
	t.Helper()
	trs := build(t, WorldSize)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	results := make([][]byte, WorldSize)
	errs := make([]error, WorldSize)
	done := make(chan int, WorldSize)
	started := 0
	start := time.Now()
	for _, tr := range trs {
		for _, rank := range tr.LocalRanks() {
			started++
			go func(tr transport.Transport, rank int) {
				w := &World{T: tr, Ep: tr.Endpoint(rank), Rank: rank, Size: WorldSize}
				results[rank], errs[rank] = fn(w)
				done <- rank
			}(tr, rank)
		}
	}
	if started != WorldSize {
		t.Fatalf("builder produced %d ranks, want %d", started, WorldSize)
	}
	watchdog := time.After(60 * time.Second)
	for i := 0; i < WorldSize; i++ {
		select {
		case <-done:
		case <-watchdog:
			t.Fatalf("%s: world hung (ranks finished: %d of %d)", label, i, WorldSize)
		}
	}
	return results, errs, time.Since(start)
}

// Run executes the full suite for a transport and asserts its digests are
// byte-identical to the reference (the local transport's).
func Run(t *testing.T, build Builder) {
	t.Helper()
	ref := Digests(t, LocalBuilder)
	got := Digests(t, build)
	for name, want := range ref {
		if got[name] != want {
			t.Errorf("scenario %s: digest %s, want %s (not byte-identical to the local run)",
				name, got[name], want)
		}
	}
}

// LocalBuilder builds the reference world on the in-process transport.
func LocalBuilder(t testing.TB, size int) []transport.Transport {
	return []transport.Transport{transport.NewLocal(size)}
}

// rankRef matches the rank numbers an abort cause names.
var rankRef = regexp.MustCompile(`rank (\d+)`)

// NamesPeer reports whether rank's error names another rank of a size-rank
// world: the peer whose link failed, or the peer whose abort it relayed.
func NamesPeer(err error, rank, size int) bool {
	for _, m := range rankRef.FindAllStringSubmatch(err.Error(), -1) {
		if r, _ := strconv.Atoi(m[1]); r != rank && r < size {
			return true
		}
	}
	return false
}

// checkFailStop asserts a disrupted world failed fast: every rank returned
// ErrAborted within FailStopBound, and (when namePeer is set) each error
// names a peer rank.
func checkFailStop(t *testing.T, label string, errs []error, took time.Duration, namePeer bool) {
	t.Helper()
	if took > FailStopBound {
		t.Errorf("%s: ranks took %v to fail, want at most %v", label, took, FailStopBound)
	}
	for rank, err := range errs {
		if !errors.Is(err, transport.ErrAborted) {
			t.Errorf("%s: rank %d: err = %v, want ErrAborted", label, rank, err)
		} else if namePeer && !NamesPeer(err, rank, len(errs)) {
			t.Errorf("%s: rank %d: %q names no peer rank", label, rank, err)
		}
	}
}

// FailStop is the fail-stop contract under a fault schedule, in two parts.
// First every scenario runs on a world from faulted; disrupted reports how
// many disruptive faults (resets, cuts, corruptions) have fired so far
// across all faulted worlds. A world the schedule disrupted must fail fast
// (checkFailStop; the abort scenario's scripted cause names no link, so it
// only has to abort), and one it missed must still match the local digest.
// Then the re-run: the whole table on fresh worlds from clean must be
// byte-identical to the local transport. FailStop returns how many worlds
// the schedule disrupted.
func FailStop(t *testing.T, faulted, clean Builder, disrupted func() uint64) int {
	t.Helper()
	hit := 0
	t.Run("faulted", func(t *testing.T) {
		for _, sc := range Scenarios() {
			sc := sc
			t.Run(sc.Name, func(t *testing.T) {
				before := disrupted()
				results, errs, took := runWorld(t, "scenario "+sc.Name, faulted, sc.Run)
				if disrupted() == before {
					if got, want := digest(t, sc, results, errs), runScenario(t, sc, LocalBuilder); got != want {
						t.Errorf("undisrupted world: digest %s, want %s", got, want)
					}
					return
				}
				hit++
				checkFailStop(t, "scenario "+sc.Name, errs, took, !sc.ExpectAbort)
			})
		}
	})
	t.Run("rerun", func(t *testing.T) { Run(t, clean) })
	return hit
}

// FailStopJobs is FailStop for concurrent jobs: job streams 11 and 12 run
// interleaved on one world from faulted, which, if the schedule disrupted
// it, must fail fast on every rank. Then the same interleaved streams on a
// fresh world from clean must match the local transport's bytes on every
// rank. It returns whether the faulted world was disrupted.
func FailStopJobs(t *testing.T, faulted, clean Builder, disrupted func() uint64) bool {
	t.Helper()
	jobs := []int{11, 12}
	before := disrupted()
	_, errs, took := jobStreams(t, faulted, jobs)
	hit := disrupted() > before
	if hit {
		checkFailStop(t, "concurrent jobs", errs, took, true)
	}
	want := runJobStreams(t, LocalBuilder, jobs)
	got := runJobStreams(t, clean, jobs)
	for _, job := range jobs {
		for rank := 0; rank < WorldSize; rank++ {
			if !bytes.Equal(got[job][rank], want[job][rank]) {
				t.Errorf("job %d rank %d: re-run bytes differ from the local run", job, rank)
			}
		}
	}
	return hit
}

// ConcurrentJobs is the multi-tenancy conformance check: it runs job streams
// 11 and 12 interleaved on one mesh, then each alone on a fresh mesh, and
// asserts every rank's bytes for each job are identical in both worlds —
// a job cannot observe its neighbors. This is the property that lets the
// mimird job service promise solo-identical results for concurrent
// submissions.
func ConcurrentJobs(t *testing.T, build Builder) {
	t.Helper()
	const jobA, jobB = 11, 12
	interleaved := runJobStreams(t, build, []int{jobA, jobB})
	soloA := runJobStreams(t, build, []int{jobA})
	soloB := runJobStreams(t, build, []int{jobB})
	for rank := 0; rank < WorldSize; rank++ {
		if !bytes.Equal(interleaved[jobA][rank], soloA[jobA][rank]) {
			t.Errorf("job %d rank %d: interleaved bytes differ from the solo run", jobA, rank)
		}
		if !bytes.Equal(interleaved[jobB][rank], soloB[jobB][rank]) {
			t.Errorf("job %d rank %d: interleaved bytes differ from the solo run", jobB, rank)
		}
	}
}

// runJobStreams runs the given job streams concurrently on every rank of a
// fresh mesh and returns job → per-rank observable bytes, failing the test
// if any rank fails.
func runJobStreams(t *testing.T, build Builder, jobs []int) map[int][][]byte {
	t.Helper()
	results, errs, _ := jobStreams(t, build, jobs)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return results
}

// jobStreams is runJobStreams returning each rank's error and the run's
// time instead of failing the test.
func jobStreams(t *testing.T, build Builder, jobs []int) (map[int][][]byte, []error, time.Duration) {
	t.Helper()
	results := make(map[int][][]byte, len(jobs))
	for _, job := range jobs {
		results[job] = make([][]byte, WorldSize)
	}
	_, errs, took := runWorld(t, fmt.Sprintf("concurrent jobs %v", jobs), build, func(w *World) ([]byte, error) {
		mux, ok := w.T.(transport.Mux)
		if !ok {
			return nil, fmt.Errorf("transport %T cannot multiplex job channels", w.T)
		}
		jerrs := make([]error, len(jobs))
		var wg sync.WaitGroup
		for ji, job := range jobs {
			ch, err := mux.Open(uint32(job))
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go func(ji, job int, ch transport.Transport) {
				defer wg.Done()
				results[job][w.Rank], jerrs[ji] = jobStream(w, ch, job)
			}(ji, job, ch)
		}
		wg.Wait()
		return nil, errors.Join(jerrs...)
	})
	return results, errs, took
}
