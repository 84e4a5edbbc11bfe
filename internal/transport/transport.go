// Package transport is the rank-to-rank byte movement layer of the MPI-like
// runtime (internal/mpi). The runtime's semantics — tagged point-to-point
// matching, collective synchronization, abort propagation — are defined one
// layer up in terms of two primitives this package provides: a tagged
// mailbox send/recv pair and a collective byte exchange (an Alltoallv of
// byte buffers that doubles as the rendezvous all collectives are built on).
//
// Two implementations exist:
//
//   - Local: every rank is a goroutine in this process, messages move
//     through shared memory, and operations complete in simulated time
//     (internal/simtime). This is the default and what the experiment
//     harness uses to reproduce the paper's figures.
//   - TCP: every rank is its own OS process and byte movement is real —
//     a full mesh of TCP connections with a length-prefixed wire codec,
//     established by a bootstrap rendezvous at rank 0. Operations take
//     wall-clock time, which feeds the existing metrics.
package transport

import "errors"

// ErrAborted is the sentinel wrapped by every error that terminates a
// world's communication: a rank returning an error, an explicit Abort, or
// (TCP) a peer process dying. internal/mpi re-exports it as mpi.ErrAborted.
var ErrAborted = errors.New("mpi: world aborted")

// FaultPolicy names how a transport responds to a link failure. TCP is
// fail-stop, so AbortOnFailure is the only value; the type stays because
// the benchmark's tracing wrapper forwards PolicyReporter.
type FaultPolicy int

// AbortOnFailure is fail-stop: the first failed operation on any link
// aborts the whole world. Recovery is a fresh mesh and a re-run.
const AbortOnFailure FaultPolicy = 0

// FaultStats counts a transport's link failures.
type FaultStats struct {
	// LinkFailures is the number of links this rank saw fail while the
	// world was healthy (reset, corrupted frame, stalled write, EOF without
	// a Bye). Each one aborted the world.
	LinkFailures uint64
}

// FaultReporter is implemented by transports that count link failures
// (TCP and its channel views); the runtime surfaces it through
// mpi.World.FaultStats.
type FaultReporter interface {
	FaultStats() FaultStats
}

// PolicyReporter reports a transport's FaultPolicy. Nothing in the runtime
// implements it any more; it stays because the benchmark's tracing wrapper
// forwards it.
type PolicyReporter interface {
	Policy() FaultPolicy
}

// FrameMarker is implemented by wrapped connections (fault injectors) that
// want to observe frame boundaries: the transport calls BeginFrame before
// writing each frame's bytes. Returning an error fails the write, which the
// transport treats exactly like a connection failure.
type FrameMarker interface {
	BeginFrame(op byte, size int) error
}

// Message is one delivered point-to-point payload.
type Message struct {
	Src, Tag int
	Data     []byte
	// Time is the sender's clock reading when the send completed. The local
	// transport uses it to order simulated clocks; the TCP transport carries
	// it for symmetry (receivers in wall-clock mode ignore it).
	Time float64
}

// Endpoint is one rank's attachment to a transport. An Endpoint is used by
// exactly one goroutine (the owning rank's) and is not safe for sharing.
type Endpoint interface {
	// Rank returns the rank this endpoint belongs to.
	Rank() int

	// Send delivers a copy of data to rank dst with the given tag. Send is
	// eager and buffered: it does not wait for a matching Recv, and data may
	// be reused as soon as it returns. now is the sender's clock reading,
	// carried to the receiver as Message.Time.
	Send(dst, tag int, data []byte, now float64) error

	// Recv blocks until a message matching (src, tag) arrives, in arrival
	// order, honoring the AnySource/AnyTag wildcards (-1).
	Recv(src, tag int) (Message, error)

	// TryRecv claims a matching message if one has already arrived.
	TryRecv(src, tag int) (Message, bool, error)

	// Exchange is the collective primitive: send[i] is delivered to rank i
	// and recv[i] holds what rank i sent here. All ranks must call Exchange
	// the same number of times in the same order (the SPMD contract). A nil
	// send means "contribute nothing" (a pure barrier). When Exchange
	// returns, every rank's send buffers have been copied out and may be
	// reused, and tmax is the maximum now across all participants.
	Exchange(send [][]byte, now float64) (recv [][]byte, tmax float64, err error)
}

// Mux is implemented by transports that can multiplex independent jobs over
// one standing world (wire v4): Open returns a Transport view bound to a
// channel — its own point-to-point matching, collective sequencing, and
// abort state over the shared links. Channel 0 is the transport's own
// default/control channel (the transport used directly IS that channel);
// opening the same non-zero channel twice returns the same view. Aborting a
// non-zero channel fails only that channel's operations on every rank — the
// underlying world and all other channels keep running — which is the
// job-failure isolation the long-lived job service (internal/jobsvc) builds
// on. Closing a channel view deregisters it locally and touches no peer.
// Both Local and TCP implement Mux.
type Mux interface {
	Open(job uint32) (Transport, error)
}

// EpochReporter is implemented by transports (and channel views) that
// belong to an epoch-versioned elastic world (internal/membership): Epoch
// returns the mesh incarnation this transport was built for. Transports
// without the method are epoch 0 — a fixed world that never resizes. The
// runtime surfaces it through mpi.World.Epoch so jobs can report which
// incarnation they ran on.
type EpochReporter interface {
	Epoch() uint64
}

// ErrReporter is implemented by transports and channel views that expose
// their abort cause without attempting an operation: nil while healthy. The
// job service uses it to tell a failed job (its channel poisoned) from a
// failed mesh (the transport itself poisoned).
type ErrReporter interface {
	Err() error
}

// Transport moves bytes between the ranks of one world. Implementations are
// safe for concurrent use by all local ranks.
type Transport interface {
	// Size returns the world size (total ranks across all processes).
	Size() int

	// LocalRanks returns the ranks hosted by this process, ascending. The
	// local transport hosts all of them; the TCP transport exactly one.
	LocalRanks() []int

	// Endpoint returns the endpoint of a local rank.
	Endpoint(rank int) Endpoint

	// Abort poisons the world with err: every pending and subsequent
	// operation on every rank — including, for the TCP transport, ranks in
	// other processes — fails with err (which should wrap ErrAborted).
	Abort(err error)

	// Wall reports whether operations take real time. The runtime charges
	// simulated alpha-beta costs when false and feeds wall-clock time to the
	// metrics when true.
	Wall() bool

	// Close releases the transport's resources. For the TCP transport this
	// announces a clean shutdown to peers (so closing the connections is not
	// mistaken for a crash) and must only be called after the local ranks
	// have finished communicating.
	Close() error
}
