package transport

import (
	"fmt"
	"sync"
)

// Local is the in-process transport: every rank is a goroutine in this
// process and byte movement is memory copying. Collective exchanges go
// through a generation-counted rendezvous, which is also what synchronizes
// the ranks' simulated clocks (the runtime reads tmax from Exchange).
//
// Like TCP, Local is a Mux: Open returns per-job channel views with
// independent mailboxes, rendezvous, and abort state, mirroring the TCP
// frame demux so job-service code and conformance scenarios behave
// identically on both transports. The Local used directly is channel 0.
type Local struct {
	size int

	ch0   *localChan
	chmu  sync.Mutex
	chans map[uint32]*localChan

	mu       sync.Mutex
	abortErr error
}

// NewLocal creates an in-process transport for size ranks.
func NewLocal(size int) *Local {
	if size < 1 {
		panic(fmt.Sprintf("transport: invalid world size %d", size))
	}
	l := &Local{
		size:  size,
		chans: make(map[uint32]*localChan),
	}
	l.ch0 = newLocalChan(l, 0)
	l.chans[0] = l.ch0
	return l
}

// localChan is one multiplexing channel of the in-process world: its own
// rendezvous and per-rank mailboxes, so concurrent jobs synchronize
// independently. All ranks live in this process, so a local poison is
// already world-visible for the channel — no broadcast needed.
type localChan struct {
	l     *Local
	job   uint32
	rv    *rendezvous
	boxes []*mailbox

	mu       sync.Mutex
	abortErr error
}

func newLocalChan(l *Local, job uint32) *localChan {
	c := &localChan{
		l:     l,
		job:   job,
		rv:    newRendezvous(l.size),
		boxes: make([]*mailbox, l.size),
	}
	for i := range c.boxes {
		c.boxes[i] = newMailbox()
	}
	return c
}

// chanFor returns the channel for job, creating it on first use (mirroring
// TCP.chanFor: a world-wide poison is inherited at creation).
func (l *Local) chanFor(job uint32) *localChan {
	if job == 0 {
		return l.ch0
	}
	l.chmu.Lock()
	defer l.chmu.Unlock()
	c := l.chans[job]
	if c == nil {
		c = newLocalChan(l, job)
		if err := l.Err(); err != nil {
			c.poison(err)
		}
		l.chans[job] = c
	}
	return c
}

// Open implements Mux: the Transport view of one multiplexing channel.
func (l *Local) Open(job uint32) (Transport, error) {
	if err := l.Err(); err != nil {
		return nil, err
	}
	return l.chanFor(job), nil
}

// Err implements ErrReporter: the world-wide abort cause, nil while
// healthy.
func (l *Local) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.abortErr
}

// Size returns the number of ranks.
func (l *Local) Size() int { return l.size }

// LocalRanks returns all ranks: the local transport hosts the whole world.
func (l *Local) LocalRanks() []int {
	ranks := make([]int, l.size)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// Endpoint returns the endpoint of the given rank on the default channel.
func (l *Local) Endpoint(rank int) Endpoint {
	return l.ch0.Endpoint(rank)
}

// Abort poisons all pending and subsequent operations — on every channel —
// with err.
func (l *Local) Abort(err error) {
	l.mu.Lock()
	if l.abortErr != nil {
		l.mu.Unlock()
		return
	}
	l.abortErr = err
	l.mu.Unlock()
	l.chmu.Lock()
	chans := make([]*localChan, 0, len(l.chans))
	for _, c := range l.chans {
		chans = append(chans, c)
	}
	l.chmu.Unlock()
	for _, c := range chans {
		c.poison(err)
	}
}

// Wall reports false: the local transport runs in simulated time.
func (l *Local) Wall() bool { return false }

// Close is a no-op for the in-process transport.
func (l *Local) Close() error { return nil }

// poison fails the channel's pending and subsequent operations.
func (c *localChan) poison(err error) {
	c.mu.Lock()
	if c.abortErr != nil {
		c.mu.Unlock()
		return
	}
	c.abortErr = err
	c.mu.Unlock()
	c.rv.abort(err)
	for _, b := range c.boxes {
		b.abort(err)
	}
}

// Size returns the number of ranks.
func (c *localChan) Size() int { return c.l.size }

// LocalRanks returns all ranks, like the world's.
func (c *localChan) LocalRanks() []int { return c.l.LocalRanks() }

// Endpoint returns the endpoint of the given rank on this channel.
func (c *localChan) Endpoint(rank int) Endpoint {
	if rank < 0 || rank >= c.l.size {
		panic(fmt.Sprintf("transport: rank %d out of range [0,%d)", rank, c.l.size))
	}
	return &localEndpoint{c: c, rank: rank}
}

// Abort poisons this channel only — on channel 0, the whole world
// (matching TCP's channel semantics).
func (c *localChan) Abort(err error) {
	if c.job == 0 {
		c.l.Abort(err)
		return
	}
	c.poison(err)
}

// Wall reports false: simulated time.
func (c *localChan) Wall() bool { return false }

// Err implements ErrReporter for the channel: its own poison, falling back
// to the world's.
func (c *localChan) Err() error {
	c.mu.Lock()
	err := c.abortErr
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.l.Err()
}

// Close deregisters the channel (channel 0 is a no-op, like TCP).
func (c *localChan) Close() error {
	if c.job == 0 {
		return nil
	}
	c.l.chmu.Lock()
	if c.l.chans[c.job] == c {
		delete(c.l.chans, c.job)
	}
	c.l.chmu.Unlock()
	return nil
}

type localEndpoint struct {
	c    *localChan
	rank int
}

func (e *localEndpoint) Rank() int { return e.rank }

func (e *localEndpoint) Send(dst, tag int, data []byte, now float64) error {
	if dst < 0 || dst >= e.c.l.size {
		return fmt.Errorf("transport: send to rank %d of %d", dst, e.c.l.size)
	}
	return e.c.boxes[dst].put(Message{
		Src:  e.rank,
		Tag:  tag,
		Data: append([]byte(nil), data...),
		Time: now,
	})
}

func (e *localEndpoint) Recv(src, tag int) (Message, error) {
	return e.c.boxes[e.rank].get(src, tag)
}

func (e *localEndpoint) Exchange(send [][]byte, now float64) ([][]byte, float64, error) {
	if send != nil && len(send) != e.c.l.size {
		return nil, 0, fmt.Errorf("transport: exchange send has %d entries, world size is %d", len(send), e.c.l.size)
	}
	recv := make([][]byte, e.c.l.size)
	tmax, err := e.c.rv.exchange(e.rank, now, send, func(slots []contribution) {
		for src := 0; src < e.c.l.size; src++ {
			theirs := slots[src].send
			if theirs == nil {
				continue
			}
			recv[src] = append([]byte(nil), theirs[e.rank]...)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return recv, tmax, nil
}

// contribution is what a rank deposits at a collective rendezvous: its
// clock time (for synchronization) and its per-destination send buffers.
type contribution struct {
	t    float64
	send [][]byte
}

// rendezvous implements a reusable, generation-counted barrier with a
// per-rank slot array for data exchange. All ranks call exchange in the same
// order (the SPMD contract), so a single slot array double-gated by two
// barrier phases is sufficient:
//
//	phase A: every rank deposits its contribution, then waits;
//	         (all slots are now complete and frozen)
//	read:    every rank reads whatever slots it needs;
//	phase B: every rank waits again, after which slots may be overwritten.
//
// The second phase is what lets callers reuse their send buffers as soon as
// exchange returns: nobody leaves before every rank has copied what it needs.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	arrived int
	gen     uint64
	slots   []contribution
	aborted bool
	abortEr error
}

func newRendezvous(size int) *rendezvous {
	r := &rendezvous{size: size, slots: make([]contribution, size)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *rendezvous) abort(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.aborted {
		r.aborted = true
		r.abortEr = err
		r.cond.Broadcast()
	}
}

// arrive blocks until all ranks have arrived (one barrier phase).
func (r *rendezvous) arrive() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aborted {
		return r.abortEr
	}
	gen := r.gen
	r.arrived++
	if r.arrived == r.size {
		r.arrived = 0
		r.gen++
		r.cond.Broadcast()
		return nil
	}
	for r.gen == gen && !r.aborted {
		r.cond.Wait()
	}
	// A generation advance means every rank arrived and this phase
	// completed — even if another rank aborted the world immediately
	// afterwards. Only report the abort when the phase itself can no
	// longer complete.
	if r.gen == gen && r.aborted {
		return r.abortEr
	}
	return nil
}

// exchange deposits this rank's contribution, waits for everyone, invokes
// read with the complete frozen slot array, then waits again so slots can be
// reused. It returns the maximum clock time across all contributions, which
// the runtime uses to synchronize simulated clocks.
func (r *rendezvous) exchange(rank int, now float64, send [][]byte, read func(slots []contribution)) (tmax float64, err error) {
	r.mu.Lock()
	if r.aborted {
		err := r.abortEr
		r.mu.Unlock()
		return 0, err
	}
	r.slots[rank] = contribution{t: now, send: send}
	r.mu.Unlock()

	if err := r.arrive(); err != nil {
		return 0, err
	}
	for _, s := range r.slots {
		if s.t > tmax {
			tmax = s.t
		}
	}
	if read != nil {
		read(r.slots)
	}
	if err := r.arrive(); err != nil {
		return 0, err
	}
	return tmax, nil
}
