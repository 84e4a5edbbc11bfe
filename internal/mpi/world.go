// Package mpi is an MPI-like message-passing runtime. It is the substitute
// for MPICH in this reproduction (Go has no mature MPI bindings):
// collectives have true MPI semantics (all ranks participate, data is
// exchanged, the call synchronizes) and byte movement is delegated to a
// pluggable transport (internal/transport).
//
// With the default in-process transport, ranks are goroutines inside one OS
// process and every operation charges simulated network time from an
// alpha-beta cost model to the calling rank's clock; collective calls
// synchronize the participants' simulated clocks to the maximum, so barrier
// waits caused by load imbalance show up in measured execution time just as
// they do on a real machine. With the TCP transport, each rank is its own
// OS process, byte movement is real, and the ranks' clocks run on wall
// time — the same metrics, fed by the hardware instead of the model.
//
// The runtime supports the subset of MPI that MapReduce engines need:
// Barrier, Alltoallv, Allreduce, Allgather(v), Bcast, Gather(v), and
// tagged point-to-point Send/Recv.
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"mimir/internal/simtime"
	"mimir/internal/transport"
)

// ErrAborted is returned from every pending and subsequent operation after
// any rank aborts the world (typically because a rank's function returned an
// error, e.g. out-of-memory). With the TCP transport it is also what every
// surviving rank gets when a peer process dies.
var ErrAborted = transport.ErrAborted

// FaultStats counts a transport's link failures; see transport.FaultStats.
type FaultStats = transport.FaultStats

// Config describes a world.
type Config struct {
	// Size is the number of ranks. Must be >= 1 when Transport is nil;
	// otherwise it must be zero or match the transport's world size.
	Size int
	// Net is the network cost model used to charge simulated time (unused
	// by wall-clock transports).
	Net simtime.NetworkModel
	// Transport optionally supplies the byte-movement layer. nil means the
	// in-process transport with Size ranks.
	Transport transport.Transport
}

// World is a set of ranks that can communicate. Create one with NewWorld and
// execute an SPMD function on all local ranks with Run.
type World struct {
	tr     transport.Transport
	size   int
	wall   bool
	net    simtime.NetworkModel
	clocks []*simtime.Clock // indexed by rank; nil for ranks in other processes
	local  []int

	abortOnce sync.Once

	tracer Tracer
}

// NewWorld creates a world over cfg.Transport (default: in-process with
// cfg.Size ranks).
func NewWorld(cfg Config) *World {
	tr := cfg.Transport
	if tr == nil {
		if cfg.Size < 1 {
			panic(fmt.Sprintf("mpi: invalid world size %d", cfg.Size))
		}
		tr = transport.NewLocal(cfg.Size)
	} else if cfg.Size != 0 && cfg.Size != tr.Size() {
		panic(fmt.Sprintf("mpi: Config.Size %d does not match transport world size %d", cfg.Size, tr.Size()))
	}
	w := &World{
		tr:     tr,
		size:   tr.Size(),
		wall:   tr.Wall(),
		net:    cfg.Net,
		clocks: make([]*simtime.Clock, tr.Size()),
		local:  tr.LocalRanks(),
	}
	for _, r := range w.local {
		if w.wall {
			w.clocks[r] = simtime.NewWallClock()
		} else {
			w.clocks[r] = simtime.NewClock()
		}
	}
	return w
}

// Size returns the number of ranks across all processes.
func (w *World) Size() int { return w.size }

// LocalRanks returns the ranks hosted by this process (all of them for the
// in-process transport, exactly one for TCP).
func (w *World) LocalRanks() []int { return append([]int(nil), w.local...) }

// Clock returns the clock of the given rank, or nil for a rank hosted by
// another process. Read it only after Run returns (or from the owning rank).
func (w *World) Clock(rank int) *simtime.Clock { return w.clocks[rank] }

// MaxTime returns the maximum time across this process's ranks — simulated
// job execution time for the in-process transport (what the experiment
// harness reports), wall-clock seconds for TCP.
func (w *World) MaxTime() float64 {
	var max float64
	for _, c := range w.clocks {
		if c != nil && c.Now() > max {
			max = c.Now()
		}
	}
	return max
}

// Run executes f once per local rank, each on its own goroutine, and waits
// for all of them. If any rank returns a non-nil error the world is aborted:
// every rank blocked in (or later entering) a communication call — on every
// process — gets ErrAborted. Run returns the first original (non-ErrAborted)
// error hosted by this process, or nil; with the TCP transport, a remote
// failure surfaces here as ErrAborted and the root cause on the process
// that failed.
func (w *World) Run(f func(*Comm) error) error {
	errs := make([]error, len(w.local))
	var wg sync.WaitGroup
	for i, r := range w.local {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			err := f(&Comm{world: w, rank: rank, ep: w.tr.Endpoint(rank)})
			if err != nil {
				w.abort(err)
			}
			errs[i] = err
		}(i, r)
	}
	wg.Wait()
	// Prefer a root-cause error over the ErrAborted echoes from other ranks.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Close releases the transport (for TCP: announces a clean shutdown and
// closes the mesh). Call it when done with the world, after Run.
func (w *World) Close() error { return w.tr.Close() }

// FaultStats reports the transport's link-failure counter. ok is false for
// transports that do not track faults (e.g. the in-process transport).
// Safe to call concurrently with Run; the counter is monotonic.
func (w *World) FaultStats() (FaultStats, bool) {
	if fr, yes := w.tr.(transport.FaultReporter); yes {
		return fr.FaultStats(), true
	}
	return FaultStats{}, false
}

// Epoch reports the mesh incarnation the world's transport belongs to
// (internal/membership): 0 for fixed worlds and transports without epoch
// tracking. A job service stamps each job's result with the epoch it ran
// on, so clients can tell which world-size incarnation produced it.
func (w *World) Epoch() uint64 {
	if er, ok := w.tr.(transport.EpochReporter); ok {
		return er.Epoch()
	}
	return 0
}

// abort terminates all communication in the world with the given cause.
func (w *World) abort(cause error) {
	w.abortOnce.Do(func() {
		if errors.Is(cause, ErrAborted) {
			// Already an abort (an echo from another rank, or a transport
			// failure that aborted in place): propagate as-is.
			w.tr.Abort(cause)
			return
		}
		w.tr.Abort(fmt.Errorf("%w: %v", ErrAborted, cause))
	})
}

// Comm is one rank's handle to the world. A Comm is used by exactly one
// goroutine (the rank's) and is not safe for sharing.
type Comm struct {
	world *World
	rank  int
	ep    transport.Endpoint
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// Clock returns this rank's clock. Engines charge compute and I/O time to
// it; the runtime charges communication time (simulated or measured,
// depending on the transport).
func (c *Comm) Clock() *simtime.Clock { return c.world.clocks[c.rank] }

// Net returns the world's network model.
func (c *Comm) Net() simtime.NetworkModel { return c.world.net }

// Abort terminates the world with the given cause; all communication calls
// on all ranks (on every process) return ErrAborted from now on.
func (c *Comm) Abort(cause error) { c.world.abort(cause) }

// bufRecycler is the optional transport hook for returning received payload
// buffers to the buffer pool once the consumer has copied them
// out (the TCP transport implements it; in-process transports, whose receive
// buffers are plain garbage, do not).
type bufRecycler interface {
	Recycle(b []byte)
}

// Recycle hands the payload buffers of a completed Alltoallv/Ialltoallv
// receive back to the transport. Purely an optimization: buffers from
// transports without a pool are left to the GC. The caller must not touch
// the buffers afterwards — use it only once every slice of the receive set
// has been fully consumed.
func (c *Comm) Recycle(bufs [][]byte) {
	r, ok := c.ep.(bufRecycler)
	if !ok {
		return
	}
	for _, b := range bufs {
		if len(b) > 0 {
			r.Recycle(b)
		}
	}
}

// settle finishes a blocking communication operation on this rank's clock:
// a simulated clock synchronizes to the collective maximum and charges the
// alpha-beta cost, a wall clock records the measured span as Comm time.
func (c *Comm) settle(t0, tmax, simCost float64) {
	ck := c.Clock()
	if c.world.wall {
		ck.ObserveSpan(ck.Now()-t0, simtime.Comm)
		return
	}
	ck.SyncTo(tmax)
	ck.Advance(simCost, simtime.Comm)
}
