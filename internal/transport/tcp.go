package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	// bootstrap and mesh — must present the same epoch in the handshake or
	// the connection is rejected. Fixed-size worlds that never resize leave
	// it 0.
	Epoch uint64
	// Deadline bounds connection progress: the per-connection handshake and
	// every chunk of a frame write (a peer that cannot accept writeChunk
	// bytes for this long is treated as failed). 0 means 10 seconds.
	Deadline time.Duration
	// BootstrapTimeout bounds mesh establishment (dial retries, accepts,
	// the address table). 0 means 30 seconds.
	BootstrapTimeout time.Duration

	// Compress enables frame-level flate compression on this rank's
	// outgoing data frames (wire v3): a payload that shrinks under flate is
	// sent compressed, flagged by the compressedFlag bit on the op byte.
	// Compression is a per-frame, per-sender decision — receivers always
	// accept both forms, so ranks with different Compress settings
	// interoperate. The CRC-32C covers the compressed bytes (compress-
	// then-CRC), so corruption is caught on the exact wire bytes.
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

// TCP is the multi-process transport: this process hosts exactly one rank
// and a full mesh of TCP connections carries frames to every peer. Create
// it with NewTCP (or ListenTCP + Bootstrap.Accept on rank 0 when the
// bootstrap port is dynamic).
//
// The mesh is fail-stop, as MPI is: any link failure after the mesh is up —
// a reset, a cut frame, a CRC mismatch, a write that misses its deadline, an
// EOF without a Bye — poisons the world with an ErrAborted that names the
// peer rank and the cause, on every rank. Recovery is a fresh mesh and a
// re-run (or a checkpointed resume), never a repair of the link.
type TCP struct {
	cfg   TCPConfig
	rank  int
	size  int
	peers []*tcpPeer // peers[rank] == nil

	ln net.Listener // bootstrap listener; closed once the mesh is up

	// Multiplexing channels (wire v4): frames demux to the channel named by
	// their Job header field. Channel 0 is the default — the TCP used
	// directly as a Transport/Endpoint is its own channel-0 view, so
	// single-job worlds never see the indirection. chmu guards chans; ch0 is
	// immutable after construction.
	ch0   *tcpChan
	chmu  sync.Mutex
	chans map[uint32]*tcpChan

	mu       sync.Mutex
	abortErr error
	closing  bool

	readers sync.WaitGroup

	linkFailures atomic.Uint64
}

// tcpPeer is one mesh link with serialized, deadline-bounded writes. conn
// is set once, before the mesh starts, and never replaced.
type tcpPeer struct {
	t      *TCP
	rank   int
	conn   net.Conn
	failed atomic.Bool // set by fail; the link's failure is counted once

	// wmu serializes writers. It is held across chunked frame writes, so
	// the reader never takes it.
	wmu sync.Mutex
	// hdr is the header scratch for the zero-copy write path (headers are
	// built here instead of a fresh allocation), and vec/bufs back the
	// net.Buffers writev of header+payload. All three are guarded by wmu.
	hdr  [4 + frameHeaderLen]byte
	vec  [2][]byte
	bufs net.Buffers

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

// isData reports whether op is a data frame, the only frames that may be
// compressed. Control frames (abort, bye, table) never are.
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

// writeFrame sends one frame on the link. A failed write closes the
// connection, so the peer's reader sees the failure at once instead of at
// its next deadline, and is returned for the caller to abort the world.
//
// The hot path is allocation-conscious: the payload is written straight from
// the caller's buffer via writev (no gather copy), compression scratch comes
// from the buffer pool (mem.GetBuf), and the header is built in per-peer
// scratch.
func (p *tcpPeer) writeFrame(f *Frame) error {
	t := p.t

	// Sender-side per-frame compression decision (wire v3): only data
	// frames, only when the payload actually shrinks. scratch holds the
	// pooled compressed payload until the frame is sent.
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

	p.wmu.Lock()
	defer p.wmu.Unlock()
	err := beginFrameRaw(p.conn, f.Op, frameHeaderLen+len(payload))
	if err == nil {
		hdr := appendFrameHeaderRaw(p.hdr[:0], op, f.Src, f.Job, f.Tag, f.Seq, f.Time, payload)
		err = p.writeConnVectored(p.conn, hdr, payload, t.cfg.Deadline)
	}
	if err != nil {
		p.fail()
	}
	return err
}

// fail declares the link dead: it closes the connection, so the peer's
// reader sees the failure at once instead of at its next deadline, and
// counts the failure once per link — and only while the world is healthy
// and open, since the links a poisoned or closing world loses afterwards
// are consequences, not causes.
func (p *tcpPeer) fail() {
	p.conn.Close()
	if p.failed.Swap(true) {
		return
	}
	t := p.t
	t.mu.Lock()
	if t.abortErr == nil && !t.closing {
		t.linkFailures.Add(1)
	}
	t.mu.Unlock()
}

// exchQueue buffers one peer's collective contributions in arrival order.
// TCP preserves per-connection ordering and both sides follow the SPMD
// contract, so the head frame's sequence number must match the local call
// counter — a mismatch is a protocol violation.
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
// and the reader demuxes on it — so a link failure is world-scoped: it
// poisons the mesh and with it every channel.
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
	// A link that cannot carry the abort has failed, and a failed link
	// aborts the whole mesh, this job's channel included.
	if werr := c.t.broadcast(&Frame{Op: OpAbort, Src: uint32(c.t.rank), Job: c.job, Data: []byte(err.Error())}); werr != nil {
		c.t.Abort(fmt.Errorf("%w: announcing the abort of job %d: %v", ErrAborted, c.job, werr))
	}
}

// A channel is a full Transport/Endpoint view of the mesh, sharing its
// links.
func (c *tcpChan) Size() int              { return c.t.size }
func (c *tcpChan) Epoch() uint64          { return c.t.cfg.Epoch }
func (c *tcpChan) LocalRanks() []int      { return []int{c.t.rank} }
func (c *tcpChan) Wall() bool             { return true }
func (c *tcpChan) Rank() int              { return c.t.rank }
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
// Nagle off (frames are written whole, and small collective frames must
// not wait behind a timer), then the fault-injection wrapper, if any.
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
	t.peers[rank] = &tcpPeer{t: t, rank: rank, conn: t.prepConn(rank, conn)}
}

// start closes the bootstrap listener, launches the per-connection reader
// goroutines and runs the initial barrier that confirms every rank's mesh
// is complete.
func (t *TCP) start() (*TCP, error) {
	t.ln.Close()
	t.ln = nil
	for _, p := range t.peers {
		if p != nil {
			t.readers.Add(1)
			go t.readLoop(p)
		}
	}
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
// and returns rank 0's transport once the whole world is up. The listener is
// closed then.
func (b *Bootstrap) Accept() (*TCP, error) {
	t := newTCPBase(b.cfg)
	t.ln = b.ln
	addrs := make([]string, b.cfg.Size)
	addrs[0] = b.Addr()
	err := t.acceptPeers(time.Now().Add(b.cfg.BootstrapTimeout), func(h hello) error {
		if h.Addr == "" {
			return fmt.Errorf("rank %d advertised no mesh address", h.Rank)
		}
		addrs[h.Rank] = h.Addr
		return nil
	})
	if err != nil {
		return t.abandon(err)
	}
	// Everyone registered; hand each worker the full table so workers can
	// mesh among themselves.
	table := encodeTable(addrs)
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
// rank opens (to the bootstrap, advertising addr; to a lower worker): send
// our hello, then take the reply only from rank want of this world size and
// epoch, within the connection deadline.
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
// this rank accepts (bootstrap, mesh). A dialer joins this mesh
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
	var addrs []string
	if err == nil {
		addrs, err = decodeTable(tf.Data)
	}
	if err == nil && len(addrs) != cfg.Size {
		err = fmt.Errorf("%d entries for %d ranks", len(addrs), cfg.Size)
	}
	if err != nil {
		return fail(fmt.Errorf("transport: rank %d reading address table: %w", cfg.Rank, err))
	}
	conn0.SetDeadline(time.Time{})
	t.addPeer(0, conn0)

	// Mesh: dial workers below, accept workers above.
	for r := 1; r < cfg.Rank; r++ {
		conn, err := dialRetry(addrs[r], deadline)
		if err == nil {
			if err = t.dialHello(conn, r, ""); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d mesh dial to rank %d at %s: %w", cfg.Rank, r, addrs[r], err))
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

// FaultStats returns this transport's failure counter.
func (t *TCP) FaultStats() FaultStats {
	return FaultStats{LinkFailures: t.linkFailures.Load()}
}

func (t *TCP) abortError() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.abortErr
}

// poison fails all local pending and subsequent operations — on every
// channel — with err, without notifying peers. Channels created afterwards
// inherit the poison in chanFor.
func (t *TCP) poison(err error) bool {
	t.mu.Lock()
	if t.abortErr != nil {
		t.mu.Unlock()
		return false
	}
	t.abortErr = err
	t.mu.Unlock()
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

// broadcast writes a control frame to every peer and returns the first
// write failure; it keeps writing to the other peers after one.
func (t *TCP) broadcast(f *Frame) error {
	var first error
	for _, p := range t.peers {
		if p != nil {
			if err := p.writeFrame(f); err != nil && first == nil {
				first = fmt.Errorf("write to rank %d: %v", p.rank, err)
			}
		}
	}
	return first
}

// Sever simulates this rank's sudden death (fault injection): local
// operations are poisoned and every connection and listener is torn down
// with no Bye and no abort broadcast, exactly what peers observe when the
// process is killed.
func (t *TCP) Sever(cause error) {
	t.poison(cause)
	t.teardown()
}

// teardown closes the listener (while bootstrapping) and every link. It
// takes no write lock: closing a conn is safe during a write, and it is
// what unblocks a writer stalled on a dead peer.
func (t *TCP) teardown() {
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
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
		return fmt.Errorf("%w: truncated frame body: %w", ErrBadFrame, err)
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

// readLoop dispatches the link's incoming frames until EOF, a decode
// failure, or abort. A connection failing before the peer announced a clean
// shutdown means the link failed, and the whole world aborts: a killed
// worker or a reset link becomes ErrAborted everywhere instead of a hang.
func (t *TCP) readLoop(p *tcpPeer) {
	defer t.readers.Done()
	br := bufio.NewReaderSize(p.conn, 64<<10)
	hdr := new(frameScratch)
	for {
		f, err := readFramePooled(br, hdr)
		if err != nil {
			// A connection this rank closed is reported by whoever closed
			// it: the writer that failed the link (or whose fault-injected
			// write closed it) aborts the world with the cause it saw, and
			// Close and Sever need no report.
			if p.sawBye() || t.isClosing() || errors.Is(err, net.ErrClosed) {
				return
			}
			p.fail()
			t.Abort(fmt.Errorf("%w: connection to rank %d lost: %v", ErrAborted, p.rank, err))
			return
		}
		switch f.Op {
		case OpP2P:
			t.chanFor(f.Job).mbox.put(Message{Src: p.rank, Tag: int(f.Tag), Data: f.Data, Time: f.Time})
		case OpExchange:
			t.chanFor(f.Job).exq[p.rank].push(f)
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

// Send implements Endpoint on the default channel. A write that cannot make
// progress within the connection deadline aborts the world.
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
