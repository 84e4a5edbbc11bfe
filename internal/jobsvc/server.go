package jobsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/membership"
	"mimir/internal/metrics"
	"mimir/internal/pfs"
)

// Config describes a Server.
type Config struct {
	// Mesh builds (and rebuilds) the standing mesh. Required.
	Mesh MeshFactory
	// MemBytes is the node admission arena capacity: the sum of the memory
	// floors of all concurrently running jobs never exceeds it. 0 admits
	// everything immediately.
	MemBytes int64
	// FS is the simulated parallel file system checkpointed jobs write to
	// and resizes repartition. Nil creates a private one.
	FS *pfs.FS
	// Secret is the join-token secret (membership.SecretLen bytes). Nil
	// draws a fresh one, which is right for every daemon that does not need
	// tokens to survive its own restart.
	Secret []byte
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server is the rank-0 side of the job service: it owns the standing mesh,
// the job queue, the membership coordinator, and the admin front door.
// Create one with NewServer, serve submitters with Serve (or drive Submit
// directly), stop with Shutdown.
//
// Elasticity: the server is the membership coordinator (rank 0 of every
// epoch). Resize, Leave, and the join admin op all funnel into one
// transition path that drains running jobs to the epoch barrier, plans the
// next epoch's seats, rebuilds or resizes the mesh, repartitions registered
// checkpoints to the new world size, and commits. Jobs submitted before or
// during a transition simply run on whichever epoch admits them — their
// done events say which.
type Server struct {
	cfg    Config
	arena  *mem.Arena
	secret []byte
	coord  *membership.Coordinator
	fs     *pfs.FS

	mu       sync.Mutex
	cond     *sync.Cond
	mesh     Mesh
	size     int
	epoch    uint64
	meshUp   bool
	running  int
	fatal    error
	closing  bool
	nextJob  uint32
	queue    []*job
	live     map[uint32]*job // the queued and running jobs
	history  []JobStatus     // every job's status line, job id i at index i-1
	respawns int
	ckpts    map[string]*ckptInfo
	// attach maps member -> its seat in the incarnation being built (or
	// just built); parked holds rejoin waiters that arrived before their
	// member's fate was decided.
	attach map[membership.MemberID]attachReply
	parked map[membership.MemberID][]chan attachReply

	// transMu serializes epoch transitions: one resize/respawn at a time,
	// and Shutdown waits for the one in flight.
	transMu sync.Mutex

	jobsWG    sync.WaitGroup
	schedDone chan struct{}
	shutOnce  sync.Once

	// ctlMu serializes control sends on the mesh's rank-0 channel-0
	// endpoint, which concurrent job dispatches would otherwise share.
	ctlMu sync.Mutex

	lnMu sync.Mutex
	ln   net.Listener
}

// ckptInfo tracks a registered checkpoint: the world size its files are
// partitioned for and the hint that decodes them.
type ckptInfo struct {
	hint kvbuf.Hint
	size int
}

// attachReply is one member's answer at a transition: its seat in the new
// incarnation (with a freshly minted member token), or retirement.
type attachReply struct {
	remesh *Remesh
	token  string
	retire bool
}

type job struct {
	id   uint32
	spec Spec
	// events streams this job's lifecycle to its submitter. At most four
	// events ever flow (queued, running, done|error) before the channel is
	// closed by whichever finalizer settles the job, so the buffer makes
	// every send non-blocking: a slow or vanished submitter cannot stall
	// the scheduler.
	events chan Event
}

// setState records a job's state on its status line. Callers hold s.mu.
func (s *Server) setState(id uint32, state, errText string) {
	s.history[id-1] = JobStatus{Job: id, State: state, Error: errText}
}

// settle sends a job's last event, closes its stream and forgets the job
// but for its status line: the submitter holds its own reference to the
// stream, and a long-running service must not keep one for every job it
// ever ran. Callers hold s.mu.
func (s *Server) settle(j *job, state, errText string, ev Event) {
	s.setState(j.id, state, errText)
	j.events <- ev
	close(j.events)
	delete(s.live, j.id)
}

// NewServer bootstraps epoch 1 — builds the initial mesh with every seat
// credentialed — and starts the scheduler. The factory's transport must
// host rank 0: the admin front door and the result gather both live there.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Mesh == nil {
		return nil, errors.New("jobsvc: Config.Mesh is required")
	}
	size := cfg.Mesh.Size()
	if size < 1 {
		return nil, fmt.Errorf("jobsvc: invalid mesh size %d", size)
	}
	secret := cfg.Secret
	if len(secret) != membership.SecretLen {
		var err error
		if secret, err = membership.NewSecret(); err != nil {
			return nil, err
		}
	}
	fs := cfg.FS
	if fs == nil {
		fs = pfs.New(pfs.Config{})
	}
	s := &Server{
		cfg:       cfg,
		arena:     mem.NewArena(cfg.MemBytes),
		secret:    secret,
		coord:     membership.NewCoordinator(),
		fs:        fs,
		live:      make(map[uint32]*job),
		ckpts:     make(map[string]*ckptInfo),
		parked:    make(map[membership.MemberID][]chan attachReply),
		schedDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)

	plan := s.coord.Bootstrap(size, cfg.Mesh.WorkerKind())
	m, err := cfg.Mesh.Build(MeshSpec{Size: size, Epoch: plan.View.Epoch, Workers: s.credsFor(plan.View)})
	if err != nil {
		return nil, err
	}
	if cerr := s.checkMesh(m, size); cerr != nil {
		return nil, cerr
	}
	view := s.coord.Commit(plan)
	s.mesh = m
	s.size = view.Size()
	s.epoch = view.Epoch
	s.meshUp = true
	go s.scheduler()
	return s, nil
}

// credsFor mints a member credential for every worker seat of a view.
func (s *Server) credsFor(v membership.View) map[int]WorkerCred {
	creds := make(map[int]WorkerCred, len(v.Members))
	for _, mb := range v.Members {
		if mb.Rank == 0 {
			continue
		}
		creds[mb.Rank] = WorkerCred{Member: mb.ID, Token: membership.Token(s.secret, mb.ID)}
	}
	return creds
}

func (s *Server) checkMesh(m Mesh, size int) error {
	lr := m.Transport.LocalRanks()
	if len(lr) == 0 || lr[0] != 0 {
		if m.Close != nil {
			m.Close()
		}
		return fmt.Errorf("jobsvc: mesh transport hosts ranks %v; the server needs rank 0", lr)
	}
	if got := m.Transport.Size(); got != size {
		if m.Close != nil {
			m.Close()
		}
		return fmt.Errorf("jobsvc: mesh has %d ranks, want %d", got, size)
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Size returns the current mesh's rank count.
func (s *Server) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Epoch returns the committed membership epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Respawns reports how many times the mesh has been rebuilt after a fatal
// fault. A service that has only ever run healthy jobs — however many
// elastic resizes it performed — reports 0.
func (s *Server) Respawns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.respawns
}

// JoinToken mints a generic join token an external worker can present to
// the join admin op (mimirctl join-token / mimir-worker -join-daemon).
func (s *Server) JoinToken() string { return membership.Token(s.secret, 0) }

// Members returns the committed membership view and the full event history.
func (s *Server) Members() (membership.View, []membership.Event) {
	return s.coord.View(), s.coord.Events()
}

// Submit queues a job and returns its id and event stream. The stream
// delivers queued → running → done|error and is then closed; the caller
// must drain it. Jobs run concurrently once admitted, so events of
// different jobs interleave arbitrarily while each job's own stream stays
// ordered.
func (s *Server) Submit(spec Spec) (uint32, <-chan Event, error) {
	spec.normalize()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := spec.validate(s.size, s.cfg.MemBytes); err != nil {
		return 0, nil, err
	}
	if s.closing {
		return 0, nil, errors.New("jobsvc: server is shutting down")
	}
	if s.fatal != nil {
		return 0, nil, fmt.Errorf("jobsvc: mesh is down for good: %w", s.fatal)
	}
	if spec.Checkpoint != "" {
		if len(s.mesh.Transport.LocalRanks()) != s.size {
			return 0, nil, errors.New("jobsvc: checkpointed jobs need a fully in-process mesh (worker processes cannot reach the server's file system)")
		}
		for _, j := range s.live {
			if j.spec.Checkpoint == spec.Checkpoint {
				return 0, nil, fmt.Errorf("jobsvc: checkpoint %q is in use by job %d", spec.Checkpoint, j.id)
			}
		}
	}
	s.nextJob++
	j := &job{id: s.nextJob, spec: spec, events: make(chan Event, 8)}
	s.live[j.id] = j
	s.history = append(s.history, JobStatus{Job: j.id, State: StateQueued})
	s.queue = append(s.queue, j)
	j.events <- Event{Event: EvQueued, Job: j.id}
	s.cond.Broadcast()
	return j.id, j.events, nil
}

// scheduler admits and dispatches queued jobs in FIFO order. Admission is
// strict head-of-line: the head job waits until the arena can reserve its
// memory floor, and jobs behind it wait their turn — a big job queued first
// is never starved by small jobs slipping past it. Dispatched jobs run
// concurrently; the scheduler immediately returns to the queue. During a
// transition meshUp is false, so queued jobs simply wait for the next epoch
// and run at its size.
func (s *Server) scheduler() {
	defer close(s.schedDone)
	for {
		s.mu.Lock()
		var j *job
		for {
			if s.fatal != nil || (s.closing && len(s.queue) == 0) {
				s.mu.Unlock()
				return
			}
			if len(s.queue) > 0 && s.meshUp {
				head := s.queue[0]
				if s.arena.TryGrab(head.spec.MemBytes) {
					j = head
					s.queue = s.queue[1:]
					break
				}
			}
			s.cond.Wait()
		}
		s.setState(j.id, StateRunning, "")
		m, epoch, size := s.mesh, s.epoch, s.size
		s.running++
		s.jobsWG.Add(1)
		s.mu.Unlock()
		j.events <- Event{Event: EvRunning, Job: j.id, Epoch: epoch, Size: size}
		go s.run(m, epoch, size, j)
	}
}

// run executes one admitted job to completion on the epoch's mesh and
// settles it. If the job died because the mesh died, a crash transition
// respawns the mesh (the dead member becomes an implicit leave).
func (s *Server) run(m Mesh, epoch uint64, size int, j *job) {
	defer s.jobsWG.Done()
	out, sum, err := s.dispatch(m, j)
	meshErr := meshError(m.Transport)

	s.mu.Lock()
	s.arena.Free(j.spec.MemBytes)
	s.running--
	if err == nil {
		if j.spec.Checkpoint != "" {
			// A resize decodes the files with the job's KV-hint to
			// repartition them. Submit validated the spec, so the mapping
			// cannot fail here.
			cfg, _ := j.spec.jobConfig(size)
			s.ckpts[j.spec.Checkpoint] = &ckptInfo{hint: cfg.KVHint(), size: size}
		}
		ev := Event{Event: EvDone, Job: j.id, Output: string(out), Epoch: epoch, Size: size}
		if sum != nil {
			ev.Metrics = sumJSON(sum)
		}
		s.settle(j, StateDone, "", ev)
	} else {
		s.settle(j, StateError, err.Error(), Event{Event: EvError, Job: j.id, Error: err.Error(), Epoch: epoch, Size: size})
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	if err != nil && meshErr != nil {
		s.logf("jobsvc: job %d died with the mesh (%v); transitioning", j.id, meshErr)
		s.transition(transOpts{from: epoch, target: size, crash: true, suspect: j.spec.Crash})
	} else if err != nil {
		s.logf("jobsvc: job %d failed: %v", j.id, err)
	}
}

// dispatch announces the job to every remote rank over channel 0, then runs
// rank 0's own share of it.
func (s *Server) dispatch(m Mesh, j *job) ([]byte, *metrics.Summary, error) {
	tr := m.Transport
	msg, err := ctrlJSON(ctrlMsg{Op: opStart, Job: j.id, Spec: &j.spec})
	if err != nil {
		return nil, nil, err
	}
	local := make(map[int]bool)
	for _, r := range tr.LocalRanks() {
		local[r] = true
	}
	ep := tr.Endpoint(0)
	s.ctlMu.Lock()
	for r := 1; r < tr.Size(); r++ {
		if local[r] {
			continue // in-process ranks run inside execJob below
		}
		if err := ep.Send(r, ctrlTag, msg, 0); err != nil {
			s.ctlMu.Unlock()
			return nil, nil, fmt.Errorf("jobsvc: job %d start broadcast: %w", j.id, err)
		}
	}
	s.ctlMu.Unlock()
	return execJob(tr, j.id, j.spec, nil, s.fs)
}

func sumJSON(sum *metrics.Summary) json.RawMessage {
	var buf []byte
	w := &sliceWriter{b: &buf}
	if err := sum.WriteJSON(w); err != nil {
		return nil
	}
	return json.RawMessage(buf)
}

type sliceWriter struct{ b *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// Resize transitions the mesh to target ranks, seating pending joiners and
// honoring leave requests along the way. It blocks through the epoch
// barrier (running jobs finish first) and returns the committed view.
// Resizing to the current size with nothing pending is a no-op.
func (s *Server) Resize(target int) (membership.View, error) {
	if err := s.transition(transOpts{target: target}); err != nil {
		return membership.View{}, err
	}
	return s.coord.View(), nil
}

// Leave retires a member at the next epoch barrier and transitions
// immediately, shrinking the world by one.
func (s *Server) Leave(id membership.MemberID) (membership.View, error) {
	if err := s.coord.RequestLeave(id); err != nil {
		return membership.View{}, err
	}
	s.mu.Lock()
	target := s.size - 1
	s.mu.Unlock()
	if err := s.transition(transOpts{target: target}); err != nil {
		return membership.View{}, err
	}
	return s.coord.View(), nil
}

// transOpts parameterizes one transition.
type transOpts struct {
	// from, when non-zero, is the epoch the caller observed dying: the
	// transition is skipped if the world has already moved past it. This is
	// what makes a crash during a resize respawn exactly once — the resize
	// and the crash race for the transition lock, the winner advances the
	// epoch, and the loser sees a world that already healed.
	from uint64
	// target is the next world size; < 0 means current size plus every
	// pending joiner.
	target int
	// crash marks a fault-driven transition: the old mesh is dead, members
	// are probed for liveness, and the respawn counter increments.
	crash bool
	// suspect is the rank the failing job implicates (Spec.Crash), the
	// liveness fallback for meshes that cannot probe processes.
	suspect int
}

// transition is the single path from one epoch to the next: drain to the
// barrier, plan seats, build the mesh (retrying failed attempts on fresh
// epochs), repartition checkpoints, commit.
func (s *Server) transition(o transOpts) error {
	s.transMu.Lock()
	defer s.transMu.Unlock()

	s.mu.Lock()
	if s.fatal != nil {
		err := s.fatal
		s.mu.Unlock()
		return fmt.Errorf("jobsvc: mesh is down for good: %w", err)
	}
	if s.closing {
		s.mu.Unlock()
		return errors.New("jobsvc: server is shutting down")
	}
	if o.from != 0 && o.from != s.epoch {
		// The incarnation the caller saw die is already history.
		s.mu.Unlock()
		return nil
	}
	target := o.target
	if target < 0 {
		target = s.size + len(s.coord.PendingJoins())
	}
	if target < 1 {
		s.mu.Unlock()
		return fmt.Errorf("jobsvc: cannot resize to %d ranks", target)
	}
	if !o.crash && target == s.size &&
		len(s.coord.PendingJoins()) == 0 && len(s.coord.LeaveRequests()) == 0 {
		s.mu.Unlock()
		return nil
	}
	// The epoch barrier: stop dispatching and wait out every running job.
	s.meshUp = false
	s.cond.Broadcast()
	for s.running > 0 && !s.closing {
		s.cond.Wait()
	}
	if s.closing {
		s.meshUp = true // the old mesh was never touched; let shutdown drain it
		s.cond.Broadcast()
		s.mu.Unlock()
		return errors.New("jobsvc: server is shutting down")
	}
	old := s.mesh
	oldSize := s.size
	s.mu.Unlock()

	graceful := !o.crash && meshError(old.Transport) == nil
	oldClosed := false
	var m Mesh
	var plan membership.Plan
	var err error
	const maxAttempts = 3
	for attempt := 0; ; attempt++ {
		plan, err = s.coord.Plan(target, s.aliveFn(old, o, attempt), s.cfg.Mesh.WorkerKind())
		if err != nil {
			break
		}
		m, err = s.buildMesh(old, plan, graceful && attempt == 0, &oldClosed)
		if err == nil {
			break
		}
		s.coord.Fail(plan, err.Error())
		s.logf("jobsvc: epoch %d build failed: %v", plan.View.Epoch, err)
		graceful = false // whatever state the old mesh was in, it is gone now
		oldClosed = true
		if attempt+1 >= maxAttempts {
			break
		}
	}
	if err != nil {
		s.fatalize(err)
		return err
	}

	s.rebalance(plan.View.Epoch, plan.View.Size())
	view := s.coord.Commit(plan)

	s.mu.Lock()
	s.mesh = m
	s.size = view.Size()
	s.epoch = view.Epoch
	s.meshUp = true
	if o.crash {
		s.respawns++
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	note := ""
	if o.crash {
		note = " (crash recovery)"
	}
	s.logf("jobsvc: epoch %d committed: %d -> %d ranks%s", view.Epoch, oldSize, view.Size(), note)
	return nil
}

// aliveFn is the liveness oracle a transition plans with. Graceful first
// attempts trust everyone; crash transitions and retries probe. Spawned
// members are probed through the mesh manager's process table; external
// joiners prove liveness by rejoining the admin socket (a live one's
// transport died with the mesh, so by the second attempt it has called
// back); in-process ranks fall back to the failing job's suspect rank.
func (s *Server) aliveFn(old Mesh, o transOpts, attempt int) func(membership.Member) bool {
	probe := o.crash || attempt > 0
	if o.crash && attempt == 0 && old.Alive != nil {
		s.awaitSpawned(old.Alive)
	}
	return func(mb membership.Member) bool {
		if mb.Rank == 0 {
			return true
		}
		if !probe {
			return true
		}
		if mb.Kind == membership.KindSpawned && old.Alive != nil {
			return old.Alive(mb.ID)
		}
		if mb.Kind == membership.KindJoined && attempt > 0 {
			return s.hasParked(mb.ID)
		}
		return mb.Rank != o.suspect
	}
}

// crashSettleGrace bounds how long a crash transition waits for every
// spawned worker's fate to show before it plans seats.
const crashSettleGrace = 2 * time.Second

// awaitSpawned holds a crash transition's plan until each spawned worker has
// either exited or parked a rejoin on the admin socket. The mesh sees a dead
// worker's connection drop a moment before the process is reaped, so a plan
// cast at once can seat the dead process as a survivor, and that epoch's
// bootstrap then waits out its whole accept deadline. Survivors rejoin as
// soon as their transport dies, so the wait is normally milliseconds; after
// crashSettleGrace the plan goes ahead on process liveness alone.
func (s *Server) awaitSpawned(alive func(membership.MemberID) bool) {
	deadline := time.Now().Add(crashSettleGrace)
	for _, mb := range s.coord.View().Members {
		if mb.Rank == 0 || mb.Kind != membership.KindSpawned {
			continue
		}
		for alive(mb.ID) && !s.hasParked(mb.ID) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func (s *Server) hasParked(id membership.MemberID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parked[id]) > 0
}

// buildMesh produces the mesh for a plan: an in-place Resize when the old
// mesh's manager supports it (worker processes carry over), a factory
// rebuild otherwise.
func (s *Server) buildMesh(old Mesh, plan membership.Plan, graceful bool, oldClosed *bool) (Mesh, error) {
	oldView := s.coord.View()
	oldRank := make(map[membership.MemberID]int, len(oldView.Members))
	for _, mb := range oldView.Members {
		oldRank[mb.ID] = mb.Rank
	}
	joined := make(map[membership.MemberID]bool, len(plan.Joined))
	for _, mb := range plan.Joined {
		joined[mb.ID] = true
	}
	spec := ResizeSpec{
		Size:      plan.View.Size(),
		Epoch:     plan.View.Epoch,
		Graceful:  graceful,
		Survivors: make(map[int]Seat),
		Retire:    make(map[int]membership.MemberID),
		Fresh:     make(map[int]WorkerCred),
		Notify:    func(addr string) { s.publishAttach(plan, addr) },
	}
	for _, mb := range plan.View.Members {
		switch {
		case mb.Rank == 0:
		case joined[mb.ID] && mb.Kind != membership.KindJoined:
			// A fresh seat the manager fills by forking.
			spec.Fresh[mb.Rank] = WorkerCred{Member: mb.ID, Token: membership.Token(s.secret, mb.ID)}
		case !joined[mb.ID]:
			spec.Survivors[oldRank[mb.ID]] = Seat{Rank: mb.Rank, Member: mb.ID}
		}
		// Joined members of KindJoined attach themselves through the admin
		// socket: publishAttach hands them their seat.
	}
	for _, mb := range plan.Retired {
		spec.Retire[oldRank[mb.ID]] = mb.ID
	}

	if old.Resize != nil {
		*oldClosed = true // Resize consumes the old incarnation, success or not
		return old.Resize(spec)
	}
	if !*oldClosed {
		*oldClosed = true
		if old.Close != nil {
			old.Close()
		}
	}
	m, err := s.cfg.Mesh.Build(MeshSpec{Size: spec.Size, Epoch: spec.Epoch, Workers: s.credsFor(plan.View)})
	if err != nil {
		return Mesh{}, err
	}
	if cerr := s.checkMesh(m, spec.Size); cerr != nil {
		return Mesh{}, cerr
	}
	return m, nil
}

// publishAttach records every member's fate for the incarnation being built
// and answers rejoin waiters already parked. Survivors' attachments are
// published even on graceful resizes: a survivor that missed its remesh
// directive recovers through the admin socket instead of being retired.
func (s *Server) publishAttach(plan membership.Plan, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attach = make(map[membership.MemberID]attachReply)
	for _, mb := range plan.View.Members {
		if mb.Rank == 0 {
			continue
		}
		s.attach[mb.ID] = attachReply{
			remesh: &Remesh{Addr: addr, Rank: mb.Rank, Size: plan.View.Size(), Epoch: plan.View.Epoch},
			token:  membership.Token(s.secret, mb.ID),
		}
	}
	for _, mb := range plan.Retired {
		s.attach[mb.ID] = attachReply{retire: true}
	}
	for _, mb := range plan.Lost {
		// A parked waiter for a member planned as lost is a process that
		// called back after the plan was cast: tell it to exit rather than
		// leave it hanging. If it was truly dead nobody reads the answer.
		s.attach[mb.ID] = attachReply{retire: true}
	}
	for id, waiters := range s.parked {
		if r, ok := s.attach[id]; ok {
			for _, ch := range waiters {
				ch <- r
			}
			delete(s.parked, id)
		}
	}
}

// rebalance repartitions every registered checkpoint to the new world size
// so jobs restoring from them keep working across resizes. Failures are
// logged, not fatal: a checkpoint that failed to repartition simply will
// not restore at the new size and its next job recomputes from scratch.
func (s *Server) rebalance(epoch uint64, newSize int) {
	s.mu.Lock()
	type item struct {
		name string
		info *ckptInfo
	}
	var items []item
	for name, info := range s.ckpts {
		if info.size != newSize {
			items = append(items, item{name, info})
		}
	}
	fs := s.fs
	s.mu.Unlock()
	for _, it := range items {
		ck := core.Checkpoint{FS: fs, Name: it.name}
		st, err := core.RepartitionCheckpoint(fs, nil, ck, it.info.hint, it.info.size, newSize, nil)
		if err != nil {
			s.logf("jobsvc: rebalancing checkpoint %q for epoch %d: %v", it.name, epoch, err)
			s.coord.RecordRebalance(epoch, fmt.Sprintf("%s: failed: %v", it.name, err))
			s.mu.Lock()
			delete(s.ckpts, it.name)
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		it.info.size = newSize
		s.mu.Unlock()
		detail := fmt.Sprintf("%s: %d -> %d ranks, %d records, %d of %d bytes moved",
			it.name, st.OldSize, st.NewSize, st.Records, st.BytesMoved, st.BytesIn)
		s.coord.RecordRebalance(epoch, detail)
		s.logf("jobsvc: rebalanced checkpoint %s", detail)
	}
}

// fatalize marks the mesh permanently down and fails the queue.
func (s *Server) fatalize(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fatal = err
	for _, j := range s.queue {
		s.settle(j, StateError, err.Error(),
			Event{Event: EvError, Job: j.id, Error: "jobsvc: mesh transition failed: " + err.Error()})
	}
	s.queue = nil
	// Parked rejoiners will never get a seat.
	for id, waiters := range s.parked {
		for _, ch := range waiters {
			ch <- attachReply{retire: true}
		}
		delete(s.parked, id)
	}
	s.cond.Broadcast()
	s.logf("jobsvc: mesh is down for good: %v", err)
}

// StatusSnapshot returns the current daemon-wide view.
func (s *Server) StatusSnapshot() *Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &Status{
		Size:        s.size,
		Epoch:       s.epoch,
		Respawns:    s.respawns,
		MemUsed:     s.arena.Used(),
		MemCapacity: s.cfg.MemBytes,
	}
	st.Jobs = append(st.Jobs, s.history...)
	return st
}

// Shutdown drains the service: no new submissions, queued jobs still run,
// running jobs finish, workers are told to exit, and the mesh is torn down.
// Blocks until all of that is done. Safe to call more than once and
// concurrently with Serve, whose listener it closes.
func (s *Server) Shutdown() {
	s.shutOnce.Do(s.shutdown)
}

func (s *Server) shutdown() {
	s.mu.Lock()
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.schedDone
	s.jobsWG.Wait()
	// Let an in-flight transition finish (new ones refuse while closing).
	s.transMu.Lock()
	defer s.transMu.Unlock()

	s.mu.Lock()
	m := s.mesh
	healthy := s.meshUp && s.fatal == nil && meshError(m.Transport) == nil
	for id, waiters := range s.parked {
		for _, ch := range waiters {
			ch <- attachReply{retire: true}
		}
		delete(s.parked, id)
	}
	s.mu.Unlock()
	if healthy {
		// Tell the workers this is a shutdown, not a crash, so they exit
		// their control loops cleanly. Best-effort: a worker that died
		// anyway is reaped by Mesh.Close.
		msg, _ := ctrlJSON(ctrlMsg{Op: opShutdown})
		local := make(map[int]bool)
		for _, r := range m.Transport.LocalRanks() {
			local[r] = true
		}
		ep := m.Transport.Endpoint(0)
		s.ctlMu.Lock()
		for r := 1; r < m.Transport.Size(); r++ {
			if !local[r] {
				ep.Send(r, ctrlTag, msg, 0)
			}
		}
		s.ctlMu.Unlock()
	}
	if m.Close != nil {
		m.Close()
	}
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	s.logf("jobsvc: shut down")
}

func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// Serve accepts admin connections until Shutdown closes the listener. Each
// connection carries one request; submit replies stream the job's events.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosing() {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) handleConn(conn net.Conn) {
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	var req Request
	if err := dec.Decode(&req); err != nil {
		enc.Encode(Event{Event: EvError, Error: "jobsvc: bad request: " + err.Error()})
		return
	}
	fail := func(err error) {
		enc.Encode(Event{Event: EvError, Error: err.Error()})
	}
	switch req.Op {
	case "submit":
		if req.Spec == nil {
			fail(errors.New("jobsvc: submit needs a spec"))
			return
		}
		_, events, err := s.Submit(*req.Spec)
		if err != nil {
			fail(err)
			return
		}
		for ev := range events {
			if enc.Encode(ev) != nil {
				return // submitter hung up; the job runs on regardless
			}
		}
	case "status":
		enc.Encode(Event{Event: EvStatus, Status: s.StatusSnapshot()})
	case "resize":
		view, err := s.Resize(req.Size)
		if err != nil {
			fail(err)
			return
		}
		enc.Encode(Event{Event: EvResized, Epoch: view.Epoch, Size: view.Size(), View: &view})
	case "members":
		view, history := s.Members()
		enc.Encode(Event{Event: EvMembers, Epoch: view.Epoch, Size: view.Size(), View: &view, History: history})
	case "join-token":
		enc.Encode(Event{Event: EvToken, Token: s.JoinToken()})
	case "join":
		s.handleJoin(enc, req)
	case "rejoin":
		s.handleRejoin(enc, req)
	case "leave":
		view, err := s.Leave(req.Member)
		if err != nil {
			fail(err)
			return
		}
		enc.Encode(Event{Event: EvResized, Epoch: view.Epoch, Size: view.Size(), View: &view})
	case "shutdown":
		s.Shutdown()
		enc.Encode(Event{Event: EvOK})
	default:
		fail(fmt.Errorf("jobsvc: unknown op %q", req.Op))
	}
}

// handleJoin admits an external worker: verify the generic join token, park
// the request, grow the world by one transition, and answer with the seat
// and a member token for future rejoins.
//
// The transition runs on its own goroutine, not inline: the new mesh only
// comes up once every rank dials its bootstrap — including the joiner, which
// is blocked on this very reply. Answering the moment the build publishes
// the seat is what breaks that cycle.
func (s *Server) handleJoin(enc *json.Encoder, req Request) {
	id, err := membership.VerifyToken(s.secret, req.Token)
	if err != nil || id != 0 {
		enc.Encode(Event{Event: EvError, Error: "jobsvc: join needs a valid generic join token"})
		return
	}
	s.mu.Lock()
	elastic := s.mesh.Resize != nil
	s.mu.Unlock()
	if !elastic {
		// Factory-rebuilt meshes (in-process worlds) fill every seat
		// themselves; there is no seat an external process could take.
		enc.Encode(Event{Event: EvError, Error: "jobsvc: this daemon's mesh cannot seat external joiners"})
		return
	}
	member := s.coord.AddPending(membership.KindJoined, req.Addr)
	ch := make(chan attachReply, 1)
	s.mu.Lock()
	s.parked[member] = append(s.parked[member], ch)
	s.mu.Unlock()
	transErr := make(chan error, 1)
	go func() { transErr <- s.transition(transOpts{target: -1}) }()
	select {
	case r := <-ch:
		if r.retire || r.remesh == nil {
			enc.Encode(Event{Event: EvError, Error: "jobsvc: join lost its seat in a concurrent transition"})
			return
		}
		enc.Encode(Event{Event: EvJoined, Member: member, Token: r.token, Remesh: r.remesh,
			Epoch: r.remesh.Epoch, Size: r.remesh.Size})
	case err := <-transErr:
		if err == nil {
			// A successful transition published the seat before it returned;
			// the select just raced the two ready channels.
			select {
			case r := <-ch:
				if r.remesh != nil && !r.retire {
					enc.Encode(Event{Event: EvJoined, Member: member, Token: r.token, Remesh: r.remesh,
						Epoch: r.remesh.Epoch, Size: r.remesh.Size})
					return
				}
			default:
			}
			err = errors.New("transition did not seat this joiner")
		}
		s.coord.DropPending(member)
		s.unpark(member, ch)
		enc.Encode(Event{Event: EvError, Error: "jobsvc: join: " + err.Error()})
	}
}

// unpark removes one waiter channel for a member.
func (s *Server) unpark(member membership.MemberID, ch chan attachReply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	waiters := s.parked[member]
	for i, w := range waiters {
		if w == ch {
			s.parked[member] = append(waiters[:i], waiters[i+1:]...)
			break
		}
	}
	if len(s.parked[member]) == 0 {
		delete(s.parked, member)
	}
}

// handleRejoin reattaches a known member after its incarnation died. If a
// transition already decided the member's fate the answer is immediate;
// otherwise the request parks until the next transition publishes seats —
// and if the mesh is dead with no transition running, the rejoin itself
// kicks one (the worker noticed the fault before a dispatched job did).
func (s *Server) handleRejoin(enc *json.Encoder, req Request) {
	id, err := membership.VerifyToken(s.secret, req.Token)
	if err != nil || id == 0 || id != req.Member {
		enc.Encode(Event{Event: EvError, Error: "jobsvc: rejoin needs the member's own token"})
		return
	}
	s.mu.Lock()
	healthy := s.meshUp && meshError(s.mesh.Transport) == nil
	// A published attachment answers immediately unless it describes the
	// incarnation the member just lost — a dead current epoch means the real
	// answer comes from the transition that is (or is about to be) running.
	if r, ok := s.attach[id]; ok && (r.retire || healthy || r.remesh.Epoch > s.epoch) {
		s.mu.Unlock()
		s.encodeAttach(enc, id, r)
		return
	}
	if !s.coord.HasMember(id) {
		hasPending := false
		for _, mb := range s.coord.PendingJoins() {
			if mb.ID == id {
				hasPending = true
				break
			}
		}
		if !hasPending {
			s.mu.Unlock()
			enc.Encode(Event{Event: EvRetired, Member: id})
			return
		}
	}
	ch := make(chan attachReply, 1)
	s.parked[id] = append(s.parked[id], ch)
	kick := s.meshUp && !healthy
	epoch, size := s.epoch, s.size
	s.mu.Unlock()
	if kick {
		// The worker noticed the fault before any dispatched job did.
		go s.transition(transOpts{from: epoch, target: size, crash: true})
	}
	select {
	case r := <-ch:
		s.unpark(id, ch)
		s.encodeAttach(enc, id, r)
	case <-time.After(2 * time.Minute):
		s.unpark(id, ch)
		enc.Encode(Event{Event: EvError, Error: "jobsvc: no transition seated this member in time"})
	}
}

func (s *Server) encodeAttach(enc *json.Encoder, id membership.MemberID, r attachReply) {
	if r.retire || r.remesh == nil {
		enc.Encode(Event{Event: EvRetired, Member: id})
		return
	}
	enc.Encode(Event{Event: EvRemesh, Member: id, Token: r.token, Remesh: r.remesh,
		Epoch: r.remesh.Epoch, Size: r.remesh.Size})
}
