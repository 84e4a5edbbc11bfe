package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mimir/internal/mem"
)

// TCPConfig describes one rank's attachment to a multi-process world.
type TCPConfig struct {
	// Addr is rank 0's bootstrap address: rank 0 listens on it, every other
	// rank dials it. For rank 0 a port of 0 picks a free port (read it back
	// with Bootstrap.Addr before starting the workers).
	Addr string
	// Rank is this process's rank in [0, Size).
	Rank int
	// Size is the world size (total processes).
	Size int
	// Epoch is the mesh incarnation this rank belongs to. Elastic
	// membership (internal/membership) rebuilds the mesh under a strictly
	// higher epoch on every world change; both sides of every connection —
	// bootstrap, mesh, and reconnect — must present the same epoch in the
	// wire-v5 handshake or the connection is rejected. Fixed-size worlds
	// that never resize leave it 0.
	Epoch uint64
	// Deadline bounds connection progress: the per-connection handshake and
	// every chunk of a frame write (a peer that cannot accept writeChunk
	// bytes for this long is treated as failed). 0 means 10 seconds.
	Deadline time.Duration
	// BootstrapTimeout bounds mesh establishment (dial retries, accepts,
	// the address table). 0 means 30 seconds.
	BootstrapTimeout time.Duration

	// Policy selects fail-stop (AbortOnFailure, the default) or
	// fail-recover (RetryTransient) behavior for link failures after the
	// mesh is up. Bootstrap failures are always fatal.
	Policy FaultPolicy
	// ReconnectWindow bounds how long a link may stay down under
	// RetryTransient before the peer is declared dead and the world aborts.
	// 0 means 10 seconds.
	ReconnectWindow time.Duration
	// BackoffBase shapes the reconnect dial backoff: the delay starts at
	// BackoffBase and doubles (with deterministic jitter) up to one second.
	// 0 means 20ms.
	BackoffBase time.Duration
	// MaxReplay caps the per-link replay buffer (unacknowledged sent
	// frames) under RetryTransient. A sender that exceeds it while the
	// link is up blocks until the peer's acks prune the buffer (flow
	// control); if no ack arrives within ReconnectWindow — or the link is
	// down when the cap is hit — the world aborts rather than growing the
	// buffer without bound. 0 means 64 MB.
	MaxReplay int64

	// Compress enables frame-level flate compression on this rank's
	// outgoing data frames (wire v3): a payload that shrinks under flate is
	// sent compressed, flagged by the compressedFlag bit on the op byte.
	// Compression is a per-frame, per-sender decision — receivers always
	// accept both forms, so ranks with different Compress settings
	// interoperate. The CRC-32C covers the compressed bytes (compress-
	// then-CRC) and the replay buffer stores the encoded frame, so fault
	// recovery replays exactly what was first sent.
	Compress bool

	// WrapConn, when non-nil, wraps every established mesh connection —
	// the fault-injection hook (internal/faultinject). It is applied after
	// the connection handshake, so injected faults target steady-state
	// frames, not the bootstrap.
	WrapConn func(peer int, c net.Conn) net.Conn
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.Deadline <= 0 {
		c.Deadline = 10 * time.Second
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 30 * time.Second
	}
	if c.ReconnectWindow <= 0 {
		c.ReconnectWindow = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 20 * time.Millisecond
	}
	if c.MaxReplay <= 0 {
		c.MaxReplay = 64 << 20
	}
	return c
}

func (c TCPConfig) validate() error {
	if c.Size < 1 {
		return fmt.Errorf("transport: invalid world size %d", c.Size)
	}
	if c.Rank < 0 || c.Rank >= c.Size {
		return fmt.Errorf("transport: rank %d out of range [0,%d)", c.Rank, c.Size)
	}
	if c.Addr == "" {
		return fmt.Errorf("transport: TCPConfig.Addr is required")
	}
	return nil
}

// writeChunk is the unit of a frame write for deadline purposes: the write
// deadline is re-armed before every chunk, so a slow-but-alive peer that
// keeps draining bytes never times out, while a peer that cannot accept one
// chunk within Deadline is declared failed. (A single whole-frame deadline
// would misdeclare a live peer dead on any Exchange payload larger than
// bandwidth*Deadline.)
const writeChunk = 128 << 10

// ackEvery is how many data frames a receiver lets accumulate before
// acknowledging them (OpAck), bounding the sender's replay buffer. Large
// frames reach the sender's MaxReplay byte cap long before ackEvery frames
// accumulate, so maybeAck also acks once the unacknowledged bytes pass a
// quarter of MaxReplay — whichever threshold trips first.
const ackEvery = 32

// backoffMax caps the reconnect dial backoff.
const backoffMax = time.Second

// TCP is the multi-process transport: this process hosts exactly one rank
// and a full mesh of TCP connections carries frames to every peer. Create
// it with NewTCP (or ListenTCP + Bootstrap.Accept on rank 0 when the
// bootstrap port is dynamic).
//
// Under Policy RetryTransient the mesh is self-healing: each side of a
// failed link closes it (so the other side notices), the higher rank
// re-dials the lower rank's listener with capped exponential backoff, the
// two sides exchange OpResume frames carrying how many data frames each has
// received, and the sender replays everything newer from its replay buffer.
// TCP's in-order delivery plus the cumulative frame counts make the resume
// idempotent: no frame is delivered twice or dropped, so the collective
// sequence numbers (and with them the SPMD order) survive any number of
// reconnects.
type TCP struct {
	cfg   TCPConfig
	rank  int
	size  int
	peers []*tcpPeer // peers[rank] == nil

	addrs []string     // mesh address table (reconnect targets); set before start
	ln    net.Listener // persistent listener for re-accepts (RetryTransient only)

	// Multiplexing channels (wire v4): frames demux to the channel named by
	// their Job header field. Channel 0 is the default — the TCP used
	// directly as a Transport/Endpoint is its own channel-0 view, so
	// single-job worlds never see the indirection. chmu guards chans; ch0 is
	// immutable after construction.
	ch0   *tcpChan
	chmu  sync.Mutex
	chans map[uint32]*tcpChan
	// chAborts records every locally-originated channel abort (job → cause).
	// Abort frames are control frames — never acked, never replayed — so a
	// link fault can swallow one; install re-asserts these on every fresh
	// connection to make job aborts durable. Guarded by chmu.
	chAborts map[uint32][]byte

	started atomic.Bool // mesh is up; link failures become recoverable

	mu       sync.Mutex
	abortErr error
	closing  bool

	readers sync.WaitGroup

	linkFailures   atomic.Uint64
	reconnects     atomic.Uint64
	dialRetries    atomic.Uint64
	replayedFrames atomic.Uint64
	replayedBytes  atomic.Uint64
}

// tcpPeer is one mesh link with serialized, deadline-bounded writes and
// (under RetryTransient) a replay buffer for reconnect recovery.
type tcpPeer struct {
	t    *TCP
	rank int

	// wmu serializes writers and guards the connection state: conn, gen,
	// down. It is held across chunked frame writes, so readers must never
	// block on it (acks use TryLock).
	wmu  sync.Mutex
	conn net.Conn
	gen  int // connection generation; bumped by every install
	// down marks an outage, from the failure linkDownLocked declares until
	// install brings a new connection up. Setting it starts recoverLink.
	down bool
	// readerDone is closed when the current generation's readLoop exits;
	// replaced by install alongside conn/gen. Guarded by wmu.
	readerDone chan struct{}

	// hdr is the header scratch for the zero-copy write path (headers and
	// bare-header ack frames are built here instead of a fresh allocation),
	// and vec/bufs back the net.Buffers writev of header+payload. All three
	// are guarded by wmu.
	hdr  [4 + frameHeaderLen]byte
	vec  [2][]byte
	bufs net.Buffers

	// rmu guards the replay ledger. It is only ever held briefly (no I/O),
	// so the ack path can take it without risking the distributed deadlock
	// that blocking readers on wmu would cause.
	rmu         sync.Mutex
	sentSeq     uint64   // data frames accepted for sending on this link
	ackedSeq    uint64   // data frames the peer confirmed (prefix of sentSeq)
	replay      [][]byte // encoded frames (ackedSeq, sentSeq], RetryTransient only
	replayBytes int64
	// replaying marks a reconnect replay in flight: install's snapshot
	// aliases the ledger's buffers, so pruneReplayLocked must not recycle
	// them to the buffer pool while it is set.
	replaying bool
	// sending is the ledger entry writeFrame is writing. The peer can ack
	// it before that write call returns, and only the writer's goroutine
	// may then recycle it, so an ack that prunes it sets sendingPruned
	// instead of recycling.
	sending       []byte
	sendingPruned bool

	recvSeq      atomic.Uint64 // data frames delivered from this peer
	recvBytes    atomic.Uint64 // encoded bytes of those frames (sender-side accounting mirror)
	lastAck      atomic.Uint64 // recvSeq value of the last OpAck we sent
	lastAckBytes atomic.Uint64 // recvBytes value of the last OpAck we sent

	bmu sync.Mutex
	bye bool // peer announced clean shutdown; EOF is not a death
}

func (p *tcpPeer) sawBye() bool {
	p.bmu.Lock()
	defer p.bmu.Unlock()
	return p.bye
}

func (p *tcpPeer) markBye() {
	p.bmu.Lock()
	p.bye = true
	p.bmu.Unlock()
}

// writeConnChunks writes buf to conn, re-arming the write deadline before
// every chunk so progress extends the deadline (see writeChunk).
func writeConnChunks(conn net.Conn, buf []byte, deadline time.Duration) error {
	for len(buf) > 0 {
		n := len(buf)
		if n > writeChunk {
			n = writeChunk
		}
		if err := conn.SetWriteDeadline(time.Now().Add(deadline)); err != nil {
			return err
		}
		if _, err := conn.Write(buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// beginFrameRaw announces a frame boundary to a fault-injecting conn
// wrapper. op must be the BASE opcode (CompressedFlag masked off — the
// injector's data-frame detection matches opcodes exactly) and size the
// frame's true encoded length, compressed payload included, so corruption
// and cut offsets land on real wire bytes.
func beginFrameRaw(conn net.Conn, op byte, size int) error {
	if fm, ok := conn.(FrameMarker); ok {
		return fm.BeginFrame(op, size)
	}
	return nil
}

// isData reports whether op is a data frame — counted, acknowledged, and
// replayed across reconnects. Control frames (abort, bye, acks, resumes)
// are link-local and never replayed.
func isData(op byte) bool { return op == OpP2P || op == OpExchange }

// writeConnVectored writes a frame as header+payload without gathering them
// into one buffer first: a single writev covers the header and the first
// payload chunk, the rest goes through writeConnChunks. The deadline is
// re-armed per chunk exactly as writeConnChunks does. Caller holds wmu
// (p.vec/p.bufs are write-path scratch).
func (p *tcpPeer) writeConnVectored(conn net.Conn, hdr, payload []byte, deadline time.Duration) error {
	n := len(payload)
	if n > writeChunk {
		n = writeChunk
	}
	if err := conn.SetWriteDeadline(time.Now().Add(deadline)); err != nil {
		return err
	}
	p.vec[0] = hdr
	p.bufs = p.vec[:1]
	if n > 0 {
		p.vec[1] = payload[:n:n]
		p.bufs = p.vec[:2]
	}
	_, err := p.bufs.WriteTo(conn)
	p.vec[0], p.vec[1], p.bufs = nil, nil, nil
	if err != nil {
		return err
	}
	return writeConnChunks(conn, payload[n:], deadline)
}

// writeFrame sends one frame on the link. Under RetryTransient a data frame
// is first appended to the replay buffer, so a write failure is not an
// error: the link is marked down, recovery starts, and the frame reaches
// the peer via replay. Under AbortOnFailure any failure is returned.
//
// The hot path is allocation-conscious: the payload is written straight from
// the caller's buffer via writev (no gather copy), compression scratch and
// replay entries come from the buffer pool (mem.GetBuf), and the header is
// built in per-peer scratch.
func (p *tcpPeer) writeFrame(f *Frame) error {
	t := p.t
	retry := t.cfg.Policy == RetryTransient && t.started.Load()

	// Sender-side per-frame compression decision (wire v3): only data
	// frames, only when the payload actually shrinks. scratch holds the
	// pooled compressed payload until the frame is sent or copied into the
	// replay ledger.
	op, payload := f.Op, f.Data
	var scratch []byte
	if t.cfg.Compress && isData(op) && len(payload) >= compressMinSize {
		out, ok := compressPayload(mem.GetBuf(4 + len(payload))[:0], payload)
		if ok {
			op |= CompressedFlag
			payload = out
			scratch = out
		} else {
			mem.PutBuf(out)
		}
	}
	defer func() {
		if scratch != nil {
			mem.PutBuf(scratch)
		}
	}()

	var buf []byte
	if retry && isData(f.Op) {
		// Owned encoded copy: may outlive the caller's Data. The replay
		// ledger owns buf from the append below until pruneReplayLocked
		// recycles it.
		buf = appendFrameHeaderRaw(mem.GetBuf(4 + frameHeaderLen + len(payload))[:0], op, f.Src, f.Job, f.Tag, f.Seq, f.Time, payload)
		buf = append(buf, payload...)
	}

	p.wmu.Lock()
	defer p.wmu.Unlock()
	if buf != nil {
		p.rmu.Lock()
		p.sentSeq++
		p.replay = append(p.replay, buf)
		p.replayBytes += int64(len(buf))
		p.sending = buf
		over := p.replayOverLocked()
		p.rmu.Unlock()
		defer p.doneSending(buf) // before wmu is released: install may replay buf next
		if over {
			if err := p.waitReplayRoom(); err != nil {
				return err
			}
		}
	}
	if p.down || p.conn == nil {
		if retry {
			return nil // data is in the replay buffer; control frames are best-effort
		}
		return fmt.Errorf("transport: connection to rank %d is down", p.rank)
	}
	err := beginFrameRaw(p.conn, f.Op, frameHeaderLen+len(payload))
	if err == nil {
		if buf != nil {
			err = writeConnChunks(p.conn, buf, t.cfg.Deadline)
		} else {
			hdr := appendFrameHeaderRaw(p.hdr[:0], op, f.Src, f.Job, f.Tag, f.Seq, f.Time, payload)
			err = p.writeConnVectored(p.conn, hdr, payload, t.cfg.Deadline)
		}
	}
	if err != nil {
		if retry {
			t.linkDownLocked(p, p.gen, err)
			return nil // recovery replays the frame
		}
		return err
	}
	return nil
}

// replayOverLocked reports whether the replay buffer is over the byte cap.
// A single pending frame is exempt: it has to be held for replay whatever
// its size, and capping it would turn one large Exchange payload into an
// abort. Caller holds p.rmu.
func (p *tcpPeer) replayOverLocked() bool {
	return p.replayBytes > p.t.cfg.MaxReplay && len(p.replay) > 1
}

// waitReplayRoom blocks a writer whose replay buffer passed MaxReplay until
// the peer's cumulative acks prune it back under the cap: on a healthy link
// acks keep arriving (the reader processes them under rmu alone), so this is
// flow control for a sender that outruns the ack round-trip, not a failure.
// A link that is down delivers no acks and cannot recover while the writer
// holds wmu, so that case fails immediately; a link that dies mid-wait fails
// when ReconnectWindow passes without room — the same bound a failed
// reconnect has. Called with wmu held.
func (p *tcpPeer) waitReplayRoom() error {
	t := p.t
	deadline := time.Now().Add(t.cfg.ReconnectWindow)
	for {
		p.rmu.Lock()
		over := p.replayOverLocked()
		bytes := p.replayBytes
		p.rmu.Unlock()
		if !over {
			return nil
		}
		if err := t.abortError(); err != nil {
			return err
		}
		if p.down || p.conn == nil {
			return fmt.Errorf("transport: replay buffer for rank %d exceeds %d bytes (%d unacknowledged) while the link is down",
				p.rank, t.cfg.MaxReplay, bytes)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: replay buffer for rank %d exceeds %d bytes (%d unacknowledged) and no ack arrived within %v",
				p.rank, t.cfg.MaxReplay, bytes, t.cfg.ReconnectWindow)
		}
		// Holding wmu starves the reader's maybeAck for this link (it only
		// TryLocks), so flush any ack we owe the peer ourselves — two ranks
		// mid-large-transfer would otherwise each park here waiting for acks
		// the other side can no longer send.
		if n := p.recvSeq.Load(); n > p.lastAck.Load() {
			if err := p.writeAckLocked(n); err == nil {
				p.lastAck.Store(n)
				p.lastAckBytes.Store(p.recvBytes.Load())
			} else {
				// The reader cannot declare the link down while we hold wmu;
				// do it here so the next loop iteration fails fast instead of
				// spinning out the whole window on a dead conn.
				t.linkDownLocked(p, p.gen, err)
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// exchQueue buffers one peer's collective contributions in arrival order.
// TCP preserves per-connection ordering (and replay preserves it across
// reconnects) and both sides follow the SPMD contract, so the head frame's
// sequence number must match the local call counter — a mismatch is a
// protocol violation.
type exchQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []*Frame
	aborted bool
	abortEr error
}

func newExchQueue() *exchQueue {
	e := &exchQueue{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

func (e *exchQueue) push(f *Frame) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.aborted {
		return
	}
	e.q = append(e.q, f)
	e.cond.Broadcast()
}

func (e *exchQueue) pop(wantSeq uint64) (*Frame, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.q) == 0 && !e.aborted {
		e.cond.Wait()
	}
	if e.aborted {
		return nil, e.abortEr
	}
	f := e.q[0]
	e.q = e.q[1:]
	if f.Seq != wantSeq {
		return nil, fmt.Errorf("%w: rank %d sent collective #%d where #%d was expected (SPMD order violated)",
			ErrAborted, f.Src, f.Seq, wantSeq)
	}
	return f, nil
}

func (e *exchQueue) abort(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.aborted {
		e.aborted = true
		e.abortEr = err
		e.q = nil
		e.cond.Broadcast()
	}
}

// tcpChan is one multiplexing channel of the mesh (wire v4): an independent
// job's view of the world, with its own point-to-point mailbox, collective
// queues and sequence counter, and its own abort state. All channels share
// the physical links — frames carry the channel id in the Job header field
// and the reader demuxes on it — so the link-level machinery (replay
// ledger, cumulative acks, reconnect recovery) is channel-agnostic: a
// reconnect replays every channel's frames in their original link order and
// the exactly-once guarantee holds per channel for free.
//
// Channel 0 is the default/control channel: TCP's own Transport/Endpoint
// methods are that channel, and an abort on it poisons the whole mesh. A
// non-zero channel's Abort poisons only that channel, on every process —
// the job-failure isolation the multi-tenant job service builds on.
type tcpChan struct {
	t   *TCP
	job uint32

	mbox *mailbox     // incoming point-to-point messages
	exq  []*exchQueue // per-source collective contributions; exq[rank] == nil
	seq  uint64       // this channel's collective call counter (owning goroutine only)

	mu       sync.Mutex
	abortErr error
}

func newTCPChan(t *TCP, job uint32) *tcpChan {
	c := &tcpChan{
		t:    t,
		job:  job,
		mbox: newMailbox(),
		exq:  make([]*exchQueue, t.size),
	}
	for i := range c.exq {
		if i != t.rank {
			c.exq[i] = newExchQueue()
		}
	}
	return c
}

// chanFor returns the channel for job, creating it on first use. Creation is
// get-or-create from both directions: Open may run before or after the
// first frame for the channel arrives (the reader creates it too, so early
// frames queue instead of dropping). A mesh-wide poison is inherited at
// creation, so a channel opened on a dead mesh is born poisoned.
func (t *TCP) chanFor(job uint32) *tcpChan {
	if job == 0 {
		return t.ch0
	}
	t.chmu.Lock()
	defer t.chmu.Unlock()
	c := t.chans[job]
	if c == nil {
		c = newTCPChan(t, job)
		if err := t.abortError(); err != nil {
			c.poison(err)
		}
		t.chans[job] = c
	}
	return c
}

// Open implements Mux: the Transport view of one multiplexing channel.
// Opening the same job twice returns the same channel. Channel 0 is the
// mesh's own default channel (t itself delegates to it).
func (t *TCP) Open(job uint32) (Transport, error) {
	if err := t.abortError(); err != nil {
		return nil, err
	}
	if t.isClosing() {
		return nil, fmt.Errorf("transport: world is closed")
	}
	return t.chanFor(job), nil
}

// Err implements ErrReporter: the mesh-wide abort cause, nil while the mesh
// is healthy. Job-channel aborts do not poison the mesh and are not
// reported here — use the channel view's own Err.
func (t *TCP) Err() error { return t.abortError() }

// abortError returns the channel's poison, falling back to the mesh's.
func (c *tcpChan) abortError() error {
	c.mu.Lock()
	err := c.abortErr
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.t.abortError()
}

// poison fails the channel's local pending and subsequent operations,
// without notifying peers.
func (c *tcpChan) poison(err error) bool {
	c.mu.Lock()
	if c.abortErr != nil {
		c.mu.Unlock()
		return false
	}
	c.abortErr = err
	c.mu.Unlock()
	c.mbox.abort(err)
	for _, q := range c.exq {
		if q != nil {
			q.abort(err)
		}
	}
	return true
}

// Abort poisons the channel and broadcasts the cause to every peer's view
// of it. On channel 0 this is the whole-mesh abort; on a job channel only
// that job fails — running jobs on other channels are untouched.
func (c *tcpChan) Abort(err error) {
	if c.job == 0 {
		c.t.Abort(err)
		return
	}
	if !c.poison(err) {
		return
	}
	cause := []byte(err.Error())
	c.t.chmu.Lock()
	if c.t.chAborts == nil {
		c.t.chAborts = make(map[uint32][]byte)
	}
	c.t.chAborts[c.job] = cause
	c.t.chmu.Unlock()
	// Best effort now; install re-asserts it on every reconnect.
	c.t.broadcast(&Frame{Op: OpAbort, Src: uint32(c.t.rank), Job: c.job, Data: cause})
}

// A channel is a full Transport/Endpoint view of the mesh, sharing the
// links and their fault machinery.
func (c *tcpChan) Size() int              { return c.t.size }
func (c *tcpChan) Epoch() uint64          { return c.t.cfg.Epoch }
func (c *tcpChan) LocalRanks() []int      { return []int{c.t.rank} }
func (c *tcpChan) Wall() bool             { return true }
func (c *tcpChan) Rank() int              { return c.t.rank }
func (c *tcpChan) Policy() FaultPolicy    { return c.t.Policy() }
func (c *tcpChan) FaultStats() FaultStats { return c.t.FaultStats() }
func (c *tcpChan) Recycle(b []byte)       { c.t.Recycle(b) }
func (c *tcpChan) Err() error             { return c.abortError() }

func (c *tcpChan) Endpoint(rank int) Endpoint {
	if rank != c.t.rank {
		panic(fmt.Sprintf("transport: rank %d is not local to this process (hosting %d)", rank, c.t.rank))
	}
	return c
}

// Close deregisters the channel locally: no wire traffic, no effect on
// peers or other channels. Frames still in flight for the job re-create the
// channel on arrival (get-or-create), where they sit unread until the id is
// reused — harmless for monotonically assigned job ids. Closing channel 0
// is a no-op; close the mesh with TCP.Close.
func (c *tcpChan) Close() error {
	if c.job == 0 {
		return nil
	}
	t := c.t
	t.chmu.Lock()
	if t.chans[c.job] == c {
		delete(t.chans, c.job)
	}
	t.chmu.Unlock()
	return nil
}

// Send implements Endpoint on this channel. A dead link fails the mesh, not
// just the channel: physical transport failure is world-scoped.
func (c *tcpChan) Send(dst, tag int, data []byte, now float64) error {
	t := c.t
	if err := c.abortError(); err != nil {
		return err
	}
	if dst < 0 || dst >= t.size {
		return fmt.Errorf("transport: send to rank %d of %d", dst, t.size)
	}
	if dst == t.rank {
		return c.mbox.put(Message{Src: t.rank, Tag: tag, Data: append([]byte(nil), data...), Time: now})
	}
	f := &Frame{Op: OpP2P, Src: uint32(t.rank), Job: c.job, Tag: int32(tag), Time: now, Data: data}
	if err := t.peers[dst].writeFrame(f); err != nil {
		err = fmt.Errorf("%w: write to rank %d: %v", ErrAborted, dst, err)
		t.Abort(err)
		return err
	}
	return nil
}

// Recv implements Endpoint on this channel.
func (c *tcpChan) Recv(src, tag int) (Message, error) {
	return c.mbox.get(src, tag)
}

// TryRecv implements Endpoint on this channel.
func (c *tcpChan) TryRecv(src, tag int) (Message, bool, error) {
	return c.mbox.tryGet(src, tag)
}

// Exchange implements Endpoint on this channel: scatter this rank's
// contributions over the mesh, then gather one contribution per peer for
// the same collective call. The SPMD contract holds per channel — each
// channel counts its own collective calls, so concurrent jobs on different
// channels need no cross-job ordering. A protocol violation aborts only
// this channel.
func (c *tcpChan) Exchange(send [][]byte, now float64) ([][]byte, float64, error) {
	t := c.t
	if err := c.abortError(); err != nil {
		return nil, 0, err
	}
	if send != nil && len(send) != t.size {
		return nil, 0, fmt.Errorf("transport: exchange send has %d entries, world size is %d", len(send), t.size)
	}
	seq := c.seq
	c.seq++
	for dst := 0; dst < t.size; dst++ {
		if dst == t.rank {
			continue
		}
		var payload []byte
		if send != nil {
			payload = send[dst]
		}
		f := &Frame{Op: OpExchange, Src: uint32(t.rank), Job: c.job, Seq: seq, Time: now, Data: payload}
		if err := t.peers[dst].writeFrame(f); err != nil {
			err = fmt.Errorf("%w: exchange write to rank %d: %v", ErrAborted, dst, err)
			t.Abort(err)
			return nil, 0, err
		}
	}
	recv := make([][]byte, t.size)
	if send != nil {
		recv[t.rank] = append(mem.GetBuf(len(send[t.rank]))[:0], send[t.rank]...)
	}
	tmax := now
	for src := 0; src < t.size; src++ {
		if src == t.rank {
			continue
		}
		f, err := c.exq[src].pop(seq)
		if err != nil {
			// A protocol violation is ours to announce; a poisoned queue
			// already carries the abort cause.
			if c.abortError() == nil {
				c.Abort(err)
			}
			return nil, 0, err
		}
		recv[src] = f.Data
		if f.Time > tmax {
			tmax = f.Time
		}
	}
	return recv, tmax, nil
}

// NewTCP attaches this process to a multi-process world: rank 0 listens on
// cfg.Addr and completes the bootstrap, every other rank dials it. NewTCP
// returns only once the full mesh is established and all ranks have passed
// an initial barrier, so a successful return means the whole world is up.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank == 0 {
		b, err := ListenTCP(cfg)
		if err != nil {
			return nil, err
		}
		return b.Accept()
	}
	return dialTCP(cfg)
}

func newTCPBase(cfg TCPConfig) *TCP {
	t := &TCP{
		cfg:   cfg,
		rank:  cfg.Rank,
		size:  cfg.Size,
		peers: make([]*tcpPeer, cfg.Size),
		chans: make(map[uint32]*tcpChan),
	}
	t.ch0 = newTCPChan(t, 0)
	t.chans[0] = t.ch0
	return t
}

// prepConn readies a mesh connection to rank once its handshake is done:
// Nagle off (frames are written whole, and acks must not wait behind a
// timer), then the fault-injection wrapper, if any.
func (t *TCP) prepConn(rank int, conn net.Conn) net.Conn {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if t.cfg.WrapConn != nil {
		conn = t.cfg.WrapConn(rank, conn)
	}
	return conn
}

func (t *TCP) addPeer(rank int, conn net.Conn) {
	t.peers[rank] = &tcpPeer{
		t:          t,
		rank:       rank,
		conn:       t.prepConn(rank, conn),
		gen:        1,
		readerDone: make(chan struct{}),
	}
}

// start launches the per-connection reader goroutines (and, under
// RetryTransient, the persistent re-accept loop) and runs the initial
// barrier that confirms every rank's mesh is complete.
func (t *TCP) start() (*TCP, error) {
	if t.cfg.Policy == RetryTransient {
		if tl, ok := t.ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Time{}) // clear the bootstrap deadline
		}
		t.readers.Add(1)
		go t.acceptLoop()
	} else {
		t.ln.Close()
		t.ln = nil
	}
	for _, p := range t.peers {
		if p != nil {
			t.readers.Add(1)
			go t.readLoop(p, p.conn, p.gen, p.readerDone)
		}
	}
	t.started.Store(true)
	if _, _, err := t.Exchange(nil, 0); err != nil {
		t.Close()
		return nil, fmt.Errorf("transport: initial barrier: %w", err)
	}
	return t, nil
}

// Bootstrap is rank 0's half-open world: the listener is bound (so the
// bootstrap address, including a dynamically chosen port, is known) but the
// workers have not joined yet. Complete it with Accept.
type Bootstrap struct {
	cfg TCPConfig
	ln  net.Listener
}

// ListenTCP binds rank 0's bootstrap listener. cfg.Rank must be 0.
func ListenTCP(cfg TCPConfig) (*Bootstrap, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank != 0 {
		return nil, fmt.Errorf("transport: ListenTCP on rank %d (only rank 0 listens)", cfg.Rank)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: bootstrap listen on %s: %w", cfg.Addr, err)
	}
	return &Bootstrap{cfg: cfg, ln: ln}, nil
}

// Addr returns the bound bootstrap address workers must dial.
func (b *Bootstrap) Addr() string { return b.ln.Addr().String() }

// Close abandons a bootstrap whose world will never be completed, releasing
// its listener. Only for bootstraps that are not going to be Accept-ed
// (Accept owns the listener's lifecycle once called).
func (b *Bootstrap) Close() error { return b.ln.Close() }

// Accept waits for every worker to register, distributes the address table,
// and returns rank 0's transport once the whole world is up. Under
// RetryTransient the listener stays open for the life of the transport to
// accept reconnecting peers; otherwise it is closed.
func (b *Bootstrap) Accept() (*TCP, error) {
	t := newTCPBase(b.cfg)
	t.ln = b.ln
	t.addrs = make([]string, b.cfg.Size)
	t.addrs[0] = b.Addr()
	err := t.acceptPeers(time.Now().Add(b.cfg.BootstrapTimeout), func(h hello) error {
		if h.Addr == "" {
			return fmt.Errorf("rank %d advertised no mesh address", h.Rank)
		}
		t.addrs[h.Rank] = h.Addr
		return nil
	})
	if err != nil {
		return t.abandon(err)
	}
	// Everyone registered; hand each worker the full table so workers can
	// mesh among themselves.
	table := encodeTable(t.addrs)
	for rank := 1; rank < t.size; rank++ {
		if err := t.peers[rank].writeFrame(&Frame{Op: OpTable, Src: 0, Data: table}); err != nil {
			return t.abandon(fmt.Errorf("transport: sending address table to rank %d: %w", rank, err))
		}
	}
	return t.start()
}

// errStaleEpoch marks a hello from another mesh incarnation.
var errStaleEpoch = errors.New("stale epoch")

// dialHello is the dialer's half of the handshake on every connection this
// rank opens (to the bootstrap, advertising addr; to a lower worker; on a
// reconnect): send our hello, then take the reply only from rank want of
// this world size and epoch, within the connection deadline.
func (t *TCP) dialHello(conn net.Conn, want int, addr string) error {
	conn.SetDeadline(time.Now().Add(t.cfg.Deadline))
	if err := writeHello(conn, hello{Rank: t.rank, Size: t.size, Epoch: t.cfg.Epoch, Addr: addr}); err != nil {
		return err
	}
	h, err := readHello(conn)
	if err != nil {
		return err
	}
	if h.Rank != want || h.Size != t.size || h.Epoch != t.cfg.Epoch {
		return fmt.Errorf("transport: reply from rank %d size %d epoch %d, want rank %d size %d epoch %d",
			h.Rank, h.Size, h.Epoch, want, t.size, t.cfg.Epoch)
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// acceptHello is the acceptor's half of the handshake on every connection
// this rank accepts (bootstrap, mesh, reconnect). A dialer joins this mesh
// incarnation only with our world size and epoch, from a rank above ours
// (the lower rank of a link listens), and only if admit, the site's own
// rule, takes it; then we reply, within the connection deadline. An error
// names the dialer; a stale epoch wraps errStaleEpoch.
func (t *TCP) acceptHello(conn net.Conn, admit func(hello) error) (hello, error) {
	conn.SetDeadline(time.Now().Add(t.cfg.Deadline))
	h, err := readHello(conn)
	switch {
	case err != nil:
	case h.Size != t.size:
		err = fmt.Errorf("rank %d dialed with world size %d, want %d", h.Rank, h.Size, t.size)
	case h.Epoch != t.cfg.Epoch:
		err = fmt.Errorf("%w: rank %d dialed from epoch %d, want %d", errStaleEpoch, h.Rank, h.Epoch, t.cfg.Epoch)
	case h.Rank <= t.rank || h.Rank >= t.size:
		err = fmt.Errorf("unexpected dial from rank %d", h.Rank)
	case admit != nil:
		err = admit(h)
	}
	if err == nil {
		err = writeHello(conn, hello{Rank: t.rank, Size: t.size, Epoch: t.cfg.Epoch})
	}
	if err != nil {
		return h, err
	}
	conn.SetDeadline(time.Time{})
	return h, nil
}

// acceptPeers is the accepting half of a bootstrap: on t.ln, before
// deadline, one connection from every rank above ours, each admitted by
// acceptHello plus admit and none twice. A bad hello fails the bootstrap —
// except on rank 0, whose address every epoch's workers dial: there a
// dialer from another epoch is a straggler of another mesh incarnation,
// dropped while accepting goes on. A failed accept names the ranks that
// never connected.
func (t *TCP) acceptPeers(deadline time.Time, admit func(hello) error) error {
	if tl, ok := t.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for {
		var missing []int
		for r := t.rank + 1; r < t.size; r++ {
			if t.peers[r] == nil {
				missing = append(missing, r)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: rank %d bootstrap accept, missing ranks %v: %w", t.rank, missing, err)
		}
		h, err := t.acceptHello(conn, func(h hello) error {
			if t.peers[h.Rank] != nil {
				return fmt.Errorf("rank %d connected twice", h.Rank)
			}
			if admit != nil {
				return admit(h)
			}
			return nil
		})
		if err != nil {
			conn.Close()
			if t.rank == 0 && errors.Is(err, errStaleEpoch) {
				continue
			}
			return fmt.Errorf("transport: rank %d bootstrap handshake: %w", t.rank, err)
		}
		t.addPeer(h.Rank, conn)
	}
}

// abandon tears down a bootstrap that failed: the listener and every
// connection made so far.
func (t *TCP) abandon(err error) (*TCP, error) {
	t.teardown()
	return nil, err
}

// dialTCP is the worker side: dial rank 0, advertise a mesh listener, wait
// for the address table, then complete the mesh (dial every lower worker
// rank, accept every higher one).
func dialTCP(cfg TCPConfig) (*TCP, error) {
	t := newTCPBase(cfg)
	deadline := time.Now().Add(cfg.BootstrapTimeout)

	conn0, err := dialRetry(cfg.Addr, deadline)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d dialing bootstrap %s: %w", cfg.Rank, cfg.Addr, err)
	}
	// The mesh listener binds the interface that reaches rank 0, so the
	// advertised address is routable for every peer that can reach rank 0.
	host, _, err := net.SplitHostPort(conn0.LocalAddr().String())
	if err == nil {
		t.ln, err = net.Listen("tcp", net.JoinHostPort(host, "0"))
	}
	if err != nil {
		conn0.Close()
		return nil, fmt.Errorf("transport: rank %d mesh listen: %w", cfg.Rank, err)
	}
	fail := func(err error) (*TCP, error) {
		conn0.Close()
		return t.abandon(err)
	}

	if err := t.dialHello(conn0, 0, t.ln.Addr().String()); err != nil {
		return fail(fmt.Errorf("transport: rank %d bootstrap handshake: %w", cfg.Rank, err))
	}
	// The table may take as long as the slowest rank's join, not one
	// write: bound it by the bootstrap deadline.
	conn0.SetDeadline(deadline)
	tf, err := ReadFrame(conn0)
	if err == nil && tf.Op != OpTable {
		err = fmt.Errorf("got op %d", tf.Op)
	}
	if err == nil {
		t.addrs, err = decodeTable(tf.Data)
	}
	if err == nil && len(t.addrs) != cfg.Size {
		err = fmt.Errorf("%d entries for %d ranks", len(t.addrs), cfg.Size)
	}
	if err != nil {
		return fail(fmt.Errorf("transport: rank %d reading address table: %w", cfg.Rank, err))
	}
	conn0.SetDeadline(time.Time{})
	t.addPeer(0, conn0)

	// Mesh: dial workers below, accept workers above.
	for r := 1; r < cfg.Rank; r++ {
		conn, err := dialRetry(t.addrs[r], deadline)
		if err == nil {
			if err = t.dialHello(conn, r, ""); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d mesh dial to rank %d at %s: %w", cfg.Rank, r, t.addrs[r], err))
		}
		t.addPeer(r, conn)
	}
	if err := t.acceptPeers(deadline, nil); err != nil {
		return fail(err)
	}
	return t.start()
}

// dialRetry dials addr until it succeeds or the deadline passes, retrying
// while the listener may not be up yet.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("timed out")
			}
			return nil, lastErr
		}
		d := net.Dialer{Timeout: remain}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
}

// Size returns the world size.
func (t *TCP) Size() int { return t.size }

// Epoch returns the mesh incarnation this transport belongs to (0 for
// fixed-size worlds); see TCPConfig.Epoch and the EpochReporter interface.
func (t *TCP) Epoch() uint64 { return t.cfg.Epoch }

// LocalRanks returns this process's single rank.
func (t *TCP) LocalRanks() []int { return []int{t.rank} }

// Endpoint returns the local rank's endpoint.
func (t *TCP) Endpoint(rank int) Endpoint {
	if rank != t.rank {
		panic(fmt.Sprintf("transport: rank %d is not local to this process (hosting %d)", rank, t.rank))
	}
	return t
}

// Wall reports true: TCP operations take real time.
func (t *TCP) Wall() bool { return true }

// Rank returns the local rank.
func (t *TCP) Rank() int { return t.rank }

// Policy returns the configured fault policy.
func (t *TCP) Policy() FaultPolicy { return t.cfg.Policy }

// FaultStats returns this transport's failure and recovery counters.
func (t *TCP) FaultStats() FaultStats {
	return FaultStats{
		LinkFailures:   t.linkFailures.Load(),
		Reconnects:     t.reconnects.Load(),
		DialRetries:    t.dialRetries.Load(),
		ReplayedFrames: t.replayedFrames.Load(),
		ReplayedBytes:  t.replayedBytes.Load(),
	}
}

func (t *TCP) abortError() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.abortErr
}

// poison fails all local pending and subsequent operations — on every
// channel — with err, without notifying peers. It also stops accepting
// reconnects. Channels created afterwards inherit the poison in chanFor.
func (t *TCP) poison(err error) bool {
	t.mu.Lock()
	if t.abortErr != nil {
		t.mu.Unlock()
		return false
	}
	t.abortErr = err
	ln := t.ln
	t.mu.Unlock()
	if ln != nil && t.cfg.Policy == RetryTransient {
		ln.Close()
	}
	t.chmu.Lock()
	chans := make([]*tcpChan, 0, len(t.chans))
	for _, c := range t.chans {
		chans = append(chans, c)
	}
	t.chmu.Unlock()
	for _, c := range chans {
		c.poison(err)
	}
	return true
}

// Abort poisons the local rank and broadcasts the cause to every peer, so
// their pending operations fail with ErrAborted instead of hanging.
func (t *TCP) Abort(err error) {
	if !t.poison(err) {
		return
	}
	// Best effort: the peers also see EOF when we close.
	t.broadcast(&Frame{Op: OpAbort, Src: uint32(t.rank), Data: []byte(err.Error())})
}

// broadcast writes a control frame to every peer, ignoring failures.
func (t *TCP) broadcast(f *Frame) {
	for _, p := range t.peers {
		if p != nil {
			p.writeFrame(f)
		}
	}
}

// Sever simulates this rank's sudden death (fault injection): local
// operations are poisoned and every connection and listener is torn down
// with no Bye and no abort broadcast, exactly what peers observe when the
// process is killed.
func (t *TCP) Sever(cause error) {
	t.poison(cause)
	t.teardown()
}

// teardown closes the listener and every link's current connection.
func (t *TCP) teardown() {
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range t.peers {
		if p != nil {
			p.wmu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.wmu.Unlock()
		}
	}
}

// linkDownLocked declares one connection generation failed. Caller must
// hold p.wmu. Stale generations (a racing writer and reader both reporting
// the same failure, or a failure on an already-replaced conn) and links
// already down are ignored. The conn is closed so the other side notices
// too, and recoverLink starts.
func (t *TCP) linkDownLocked(p *tcpPeer, gen int, cause error) {
	if p.gen != gen || p.down {
		return
	}
	p.down = true
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	t.linkFailures.Add(1)
	t.readers.Add(1)
	go t.recoverLink(p, time.Now().Add(t.cfg.ReconnectWindow), cause)
}

func (t *TCP) linkDown(p *tcpPeer, gen int, cause error) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	t.linkDownLocked(p, gen, cause)
}

// splitmix64 is the deterministic jitter source for reconnect backoff.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// recoverLink brings a failed link back up before deadline, or aborts the
// world. The higher rank re-dials the lower rank's listener with capped
// exponential backoff and deterministic jitter; the lower rank waits for
// that re-dial, which handleReaccept installs. Whichever side's window
// expires first aborts.
func (t *TCP) recoverLink(p *tcpPeer, deadline time.Time, cause error) {
	defer t.readers.Done()
	backoff := t.cfg.BackoffBase
	for attempt := 0; ; attempt++ {
		p.wmu.Lock()
		down := p.down
		p.wmu.Unlock()
		if !down || t.abortError() != nil || t.isClosing() {
			return
		}
		if time.Now().After(deadline) {
			t.Abort(fmt.Errorf("%w: link to rank %d not restored within %v: %v", ErrAborted, p.rank, t.cfg.ReconnectWindow, cause))
			return
		}
		if t.rank < p.rank {
			time.Sleep(25 * time.Millisecond)
			continue
		}
		if t.redialOnce(p) == nil {
			return
		}
		t.dialRetries.Add(1)
		jitter := time.Duration(splitmix64(uint64(t.rank)<<32|uint64(p.rank)<<16|uint64(attempt)) % uint64(backoff/2+1))
		time.Sleep(backoff + jitter)
		backoff = min(2*backoff, backoffMax)
	}
}

// redialOnce performs one reconnect attempt: dial, handshake, resume
// exchange, then install.
func (t *TCP) redialOnce(p *tcpPeer) error {
	conn, err := net.DialTimeout("tcp", t.addrs[p.rank], t.cfg.Deadline)
	if err != nil {
		return err
	}
	err = t.dialHello(conn, p.rank, "")
	var theirRecv uint64
	if err == nil {
		theirRecv, err = t.resume(p, conn, true)
	}
	if err != nil {
		conn.Close()
		return err
	}
	return t.install(p, conn, theirRecv)
}

// resume runs a reconnect's OpResume exchange: each side sends how many data
// frames it has received on the link, after quiescing the link's previous
// reader, and returns the peer's count. The dialer writes first and the
// acceptor replies, a fixed order so neither side can deadlock.
func (t *TCP) resume(p *tcpPeer, conn net.Conn, dialer bool) (uint64, error) {
	conn.SetDeadline(time.Now().Add(t.cfg.Deadline))
	readResume := func() (uint64, error) {
		f, err := ReadFrame(conn)
		if err == nil && f.Op != OpResume {
			err = fmt.Errorf("got op %d", f.Op)
		}
		if err != nil {
			return 0, err
		}
		return f.Seq, nil
	}
	var theirRecv uint64
	var err error
	if !dialer {
		theirRecv, err = readResume()
	}
	if err == nil {
		p.quiesce()
		err = WriteFrame(conn, &Frame{Op: OpResume, Src: uint32(t.rank), Seq: p.recvSeq.Load()})
	}
	if err == nil && dialer {
		theirRecv, err = readResume()
	}
	if err != nil {
		return 0, fmt.Errorf("transport: reconnect resume with rank %d: %w", p.rank, err)
	}
	conn.SetDeadline(time.Time{})
	return theirRecv, nil
}

// acceptLoop accepts reconnecting peers for the life of the transport
// (RetryTransient only). It exits when the listener is closed (abort or
// Close).
func (t *TCP) acceptLoop() {
	defer t.readers.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.readers.Add(1) // safe: our own count keeps the group non-zero
		go t.handleReaccept(conn)
	}
}

// handleReaccept validates one incoming reconnect (acceptor side: the lower
// rank) and re-establishes the link. A bad hello or resume only closes the
// connection: the mesh stays up and the link's own recovery goes on.
func (t *TCP) handleReaccept(conn net.Conn) {
	defer t.readers.Done()
	if t.abortError() != nil || t.isClosing() {
		conn.Close()
		return
	}
	h, err := t.acceptHello(conn, nil)
	var theirRecv uint64
	if err == nil {
		theirRecv, err = t.resume(t.peers[h.Rank], conn, false)
	}
	if err != nil {
		conn.Close()
		return
	}
	t.install(t.peers[h.Rank], conn, theirRecv)
}

// quiesce retires the peer's current connection generation: close the conn
// (if any) and wait for that generation's readLoop to drain its buffer and
// exit. Both reconnect paths call it before snapshotting recvSeq for the
// OpResume handshake — an old reader still delivering frames buffered in its
// bufio.Reader would otherwise increment recvSeq after the snapshot, making
// the peer replay frames that were in fact delivered, and the duplicates
// would break the exactly-once guarantee (spurious SPMD-order aborts for
// collectives, silent double delivery for p2p). Frames the close discards
// before the old reader consumed them are safe: they were never counted, so
// the resume asks the peer to replay them.
func (p *tcpPeer) quiesce() {
	p.wmu.Lock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	done := p.readerDone
	p.wmu.Unlock()
	// Wait without wmu: the exiting reader may need it (linkDown).
	if done != nil {
		<-done
	}
}

// install finishes a reconnect on either side: prune the replay buffer to
// what the peer confirmed receiving (theirRecv is an implicit cumulative
// ack), replay everything newer in order, then swap the connection in and
// start its reader. An incoming reconnect always replaces the current
// connection, even if this side has not yet noticed the old one die.
func (t *TCP) install(p *tcpPeer, conn net.Conn, theirRecv uint64) error {
	conn = t.prepConn(p.rank, conn)
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if t.abortError() != nil || t.isClosing() {
		conn.Close()
		return fmt.Errorf("transport: world is down")
	}
	p.rmu.Lock()
	if theirRecv < p.ackedSeq || theirRecv > p.sentSeq {
		p.rmu.Unlock()
		conn.Close()
		err := fmt.Errorf("%w: rank %d resumed at frame %d outside (%d, %d] — replay horizon lost",
			ErrAborted, p.rank, theirRecv, p.ackedSeq, p.sentSeq)
		t.Abort(err)
		return err
	}
	p.pruneReplayLocked(theirRecv)
	pending := append([][]byte(nil), p.replay...)
	// The snapshot aliases the ledger's buffers: block pool recycling until
	// the replay below is done with them (an ack arriving mid-replay may
	// prune entries the loop is still writing).
	p.replaying = len(pending) > 0
	p.rmu.Unlock()

	// Swap the connection in and start its reader BEFORE replaying: both
	// sides of the link replay at the same time, and if neither read while
	// writing, two replays larger than the socket buffers would deadlock.
	// The link stays marked down until the replay finishes, so regular
	// writers (who need wmu anyway) cannot interleave with it.
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	p.gen++
	gen := p.gen
	p.readerDone = make(chan struct{})
	t.readers.Add(1)
	go t.readLoop(p, conn, gen, p.readerDone)

	fail := func(err error) error {
		conn.Close()
		p.conn = nil
		p.doneReplaying()
		// If this side had not yet declared the link down (an incoming
		// reconnect replaced a conn we still believed healthy), declare
		// it now so the reconnect window is enforced; otherwise recovery
		// is already running and this is a no-op.
		t.linkDownLocked(p, gen, err)
		return err
	}

	for _, buf := range pending {
		// Op is the first header byte after the length prefix (flag bits
		// masked for the marker), and the prefix itself is the true
		// header+data size — the frame marker must see the real length, not
		// a bare-header placeholder.
		err := beginFrameRaw(conn, buf[4]&^CompressedFlag, int(binary.BigEndian.Uint32(buf)))
		if err == nil {
			err = writeConnChunks(conn, buf, t.cfg.Deadline)
		}
		if err != nil {
			return fail(fmt.Errorf("transport: replay to rank %d: %w", p.rank, err))
		}
		t.replayedFrames.Add(1)
		t.replayedBytes.Add(uint64(len(buf)))
	}
	p.doneReplaying()

	// Re-assert locally-originated channel aborts. An abort is a control
	// frame — never acked, never replayed — so the fault that forced this
	// reconnect may have swallowed one, and a peer that missed it would wait
	// on the dead job forever. Poisoning an already-poisoned channel is a
	// no-op, so duplicates are free.
	t.chmu.Lock()
	aborts := maps.Clone(t.chAborts)
	t.chmu.Unlock()
	for job, cause := range aborts {
		hdr := appendFrameHeaderRaw(p.hdr[:0], OpAbort, uint32(t.rank), job, 0, 0, 0, cause)
		err := beginFrameRaw(conn, OpAbort, frameHeaderLen+len(cause))
		if err == nil {
			err = p.writeConnVectored(conn, hdr, cause, t.cfg.Deadline)
		}
		if err != nil {
			return fail(fmt.Errorf("transport: re-assert abort of job %d to rank %d: %w", job, p.rank, err))
		}
	}

	p.down = false
	t.reconnects.Add(1)
	return nil
}

// doneReplaying re-enables pool recycling of pruned replay entries after
// install's replay loop no longer aliases the ledger.
func (p *tcpPeer) doneReplaying() {
	p.rmu.Lock()
	p.replaying = false
	p.rmu.Unlock()
}

// doneSending ends writeFrame's write of its ledger entry b, recycling b if
// an ack pruned it meanwhile.
func (p *tcpPeer) doneSending(b []byte) {
	p.rmu.Lock()
	if p.sendingPruned {
		mem.PutBuf(b)
	}
	p.sending, p.sendingPruned = nil, false
	p.rmu.Unlock()
}

// pruneReplayLocked drops replay entries the peer confirmed, recycling their
// buffers to the buffer pool. A cumulative ack only ever covers frames the
// peer fully received, but it can arrive before the write call that sent
// the frame returns, and nothing orders that call before this goroutine's
// recycle. So the entry writeFrame is still writing goes back to the pool
// from writeFrame (doneSending), and while a reconnect replay is in flight,
// whose snapshot aliases the ledger, nothing is recycled at all. Caller
// holds p.rmu. upTo is a cumulative data-frame count (never decreases).
func (p *tcpPeer) pruneReplayLocked(upTo uint64) {
	if upTo <= p.ackedSeq {
		return
	}
	drop := int(upTo - p.ackedSeq)
	if drop > len(p.replay) {
		drop = len(p.replay)
	}
	for _, b := range p.replay[:drop] {
		p.replayBytes -= int64(len(b))
		switch {
		case p.replaying:
		case p.sending != nil && &b[0] == &p.sending[0]:
			p.sendingPruned = true
		default:
			mem.PutBuf(b)
		}
	}
	n := copy(p.replay, p.replay[drop:])
	for i := n; i < len(p.replay); i++ {
		p.replay[i] = nil // drop tail refs so recycled buffers are not pinned
	}
	p.replay = p.replay[:n]
	p.ackedSeq = upTo
}

// handleAck processes a peer's cumulative OpAck.
func (p *tcpPeer) handleAck(upTo uint64) {
	p.rmu.Lock()
	p.pruneReplayLocked(upTo)
	p.rmu.Unlock()
}

// maybeAck sends a cumulative ack once enough unacknowledged data frames —
// by count (ackEvery) or by encoded bytes (a quarter of the sender's
// MaxReplay cap, so large frames are acknowledged long before the sender's
// replay buffer fills) — have arrived. It runs on the reader goroutine and
// must never block on the write lock (a reader parked on wmu while the
// local writer is stalled on a peer whose reader is symmetrically parked
// would distribute-deadlock), so it uses TryLock and simply retries at the
// next frame when the writer is busy. Ack loss is harmless: the counts are
// cumulative.
func (t *TCP) maybeAck(p *tcpPeer) {
	n := p.recvSeq.Load()
	b := p.recvBytes.Load()
	if n-p.lastAck.Load() < ackEvery && b-p.lastAckBytes.Load() < uint64(t.cfg.MaxReplay/4) {
		return
	}
	if !p.wmu.TryLock() {
		return
	}
	defer p.wmu.Unlock()
	if p.down || p.conn == nil {
		return
	}
	if p.writeAckLocked(n) == nil {
		p.lastAck.Store(n)
		p.lastAckBytes.Store(b)
	}
	// On error: the reader or writer on this conn notices the failure; the
	// ack retries after the reconnect.
}

// writeAckLocked sends a cumulative OpAck for the first n data frames,
// building the bare-header frame in the peer's header scratch (acks are on
// the per-frame hot path under RetryTransient, so they must not allocate).
// Caller holds wmu with a live conn.
func (p *tcpPeer) writeAckLocked(n uint64) error {
	buf := appendFrameHeaderRaw(p.hdr[:0], OpAck, uint32(p.t.rank), 0, 0, n, 0, nil)
	if err := beginFrameRaw(p.conn, OpAck, frameHeaderLen); err != nil {
		return err
	}
	return writeConnChunks(p.conn, buf, p.t.cfg.Deadline)
}

// frameScratch holds one frame's length prefix and header. The reader
// goroutine owns one for its lifetime: a stack array handed to io.ReadFull
// escapes, so a per-call array would cost an allocation per frame.
type frameScratch [4 + frameHeaderLen]byte

// readFramePooled is ReadFrame with the payload drawn from the buffer pool
// instead of a fresh allocation: the receive path is per-frame hot, and the
// consumer hands data buffers back via Recycle once the payload is copied
// out. The prefix and header go to hdr, the payload alone to
// mem.GetBuf(len), so a delivered f.Data is the whole pooled buffer at its
// full class capacity and Recycle files it back into the class it came
// from. Payloads above trustedLen keep readBody's chunked growth (a lying
// length prefix must not allocate its claim up front). The pooled payload
// is recycled here whenever the frame does not deliver it (compressed
// payloads inflate into a second pooled buffer, and decoding errors deliver
// nothing).
func readFramePooled(r io.Reader, hdr *frameScratch) (*Frame, error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n < frameHeaderLen {
		return nil, fmt.Errorf("%w: length %d below header size %d", ErrBadFrame, n, frameHeaderLen)
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: length %d exceeds limit %d", ErrBadFrame, n, MaxFrameSize)
	}
	truncated := func(err error) error {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: truncated frame body: %v", ErrBadFrame, err)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, truncated(err)
	}
	var payload []byte
	switch m := n - frameHeaderLen; {
	case m == 0:
	case m <= trustedLen:
		payload = mem.GetBuf(m)
		if _, err := io.ReadFull(r, payload); err != nil {
			mem.PutBuf(payload)
			return nil, truncated(err)
		}
	default:
		var err error
		if payload, err = readBody(r, m); err != nil {
			return nil, truncated(err)
		}
	}
	f, err := parseFrameParts(hdr[4:], payload)
	if err != nil {
		mem.PutBuf(payload)
		return nil, err
	}
	if len(payload) > 0 && (len(f.Data) == 0 || &f.Data[0] != &payload[0]) {
		mem.PutBuf(payload)
	}
	return f, nil
}

// Recycle returns a payload buffer delivered by Recv or Exchange to the
// buffer pool. Optional: an un-recycled buffer is simply garbage. The caller
// must not touch the buffer afterwards.
func (t *TCP) Recycle(b []byte) {
	if cap(b) > 0 {
		mem.PutBuf(b)
	}
}

// readLoop dispatches one connection generation's incoming frames until
// EOF, a decode failure, or abort. A connection failing before the peer
// announced a clean shutdown means the link failed: under AbortOnFailure
// the whole world aborts (a killed worker becomes ErrAborted everywhere
// instead of a hang); under RetryTransient the link enters recovery and
// this reader retires — install starts a new one for the next generation.
func (t *TCP) readLoop(p *tcpPeer, conn net.Conn, gen int, done chan struct{}) {
	defer t.readers.Done()
	defer close(done) // quiesce waits on this before a resume snapshot
	br := bufio.NewReaderSize(conn, 64<<10)
	hdr := new(frameScratch)
	for {
		f, err := readFramePooled(br, hdr)
		if err != nil {
			if p.sawBye() || t.isClosing() {
				return
			}
			if t.cfg.Policy == RetryTransient && t.started.Load() && t.abortError() == nil {
				t.linkDown(p, gen, fmt.Errorf("read from rank %d: %v", p.rank, err))
				return
			}
			t.Abort(fmt.Errorf("%w: connection to rank %d lost: %v", ErrAborted, p.rank, err))
			return
		}
		switch f.Op {
		case OpP2P:
			p.recvSeq.Add(1)
			p.recvBytes.Add(uint64(f.WireLen)) // encoded size, mirroring the sender's replay-byte ledger
			t.chanFor(f.Job).mbox.put(Message{Src: p.rank, Tag: int(f.Tag), Data: f.Data, Time: f.Time})
			if t.cfg.Policy == RetryTransient {
				t.maybeAck(p)
			}
		case OpExchange:
			p.recvSeq.Add(1)
			p.recvBytes.Add(uint64(f.WireLen))
			t.chanFor(f.Job).exq[p.rank].push(f)
			if t.cfg.Policy == RetryTransient {
				t.maybeAck(p)
			}
		case OpAck:
			p.handleAck(f.Seq)
		case OpAbort:
			// A channel-0 abort poisons the whole mesh; a job abort poisons
			// only that job's channel — other jobs keep running.
			cause := fmt.Errorf("%w: rank %d: %s", ErrAborted, p.rank, f.Data)
			if f.Job == 0 {
				t.poison(cause)
			} else {
				t.chanFor(f.Job).poison(cause)
			}
		case OpBye:
			p.markBye()
		default:
			t.Abort(fmt.Errorf("%w: rank %d sent unexpected op %d", ErrAborted, p.rank, f.Op))
			return
		}
	}
}

func (t *TCP) isClosing() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closing
}

// Send implements Endpoint on the default channel. Under AbortOnFailure a
// write that cannot make progress within the connection deadline aborts the
// world; under RetryTransient it triggers reconnect and replay instead.
func (t *TCP) Send(dst, tag int, data []byte, now float64) error {
	return t.ch0.Send(dst, tag, data, now)
}

// Recv implements Endpoint on the default channel.
func (t *TCP) Recv(src, tag int) (Message, error) {
	return t.ch0.Recv(src, tag)
}

// TryRecv implements Endpoint on the default channel.
func (t *TCP) TryRecv(src, tag int) (Message, bool, error) {
	return t.ch0.TryRecv(src, tag)
}

// Exchange implements Endpoint on the default channel: scatter this rank's
// contributions over the mesh, then gather one contribution per peer for
// the same collective call.
func (t *TCP) Exchange(send [][]byte, now float64) ([][]byte, float64, error) {
	return t.ch0.Exchange(send, now)
}

// Close announces a clean shutdown to every peer and tears the mesh down.
// Call it only after the local rank has finished communicating (after
// World.Run); peers that are still mid-operation with this rank would
// otherwise see the close as a death.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return nil
	}
	t.closing = true
	aborted := t.abortErr != nil
	t.mu.Unlock()

	if !aborted {
		t.broadcast(&Frame{Op: OpBye, Src: uint32(t.rank)})
	}
	t.teardown()
	t.readers.Wait()
	return nil
}
