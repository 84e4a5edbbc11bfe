// Package membership is the control-plane brain of an elastic Mimir
// service: who the ranks are, which epoch of the world they belong to, and
// how the world transitions from one epoch to the next when workers join,
// leave, or die.
//
// The design is deliberately gossip-free. Rank 0 (the process hosting the
// jobsvc server) is the coordinator and the single writer of the membership
// view; workers interact with it over the existing control plane (the admin
// socket for join/rejoin requests, channel 0 of the transport mux for remesh
// directives). Every view carries a monotonically increasing epoch, the wire
// handshake is epoch-stamped (wire v5), and a peer whose epoch does not
// match is rejected at the handshake — so two incarnations of the world can
// never exchange frames, however badly a transition was interrupted.
//
// The package is pure bookkeeping: it owns no sockets and spawns no
// processes. The jobsvc server drives it — Plan computes the next epoch's
// rank assignment from the coordinator's current state and the set of
// members still alive, the server builds the mesh for that plan, and Commit
// (or Fail) records the outcome. Keeping the state machine free of I/O is
// what makes every transition — grow, shrink, crash-as-implicit-leave,
// interrupted resize — unit-testable without a single connection.
package membership

import (
	"fmt"
	"sort"
	"sync"
)

// MemberID identifies one member for its whole life with the service,
// across any number of epochs and rank reassignments. IDs are assigned by
// the coordinator, start at 1 (the coordinator itself), and are never
// reused — a member that leaves and rejoins is a new member.
type MemberID uint64

// Member kinds.
const (
	// KindCoordinator is the rank-0 member hosting the job service.
	KindCoordinator = "coordinator"
	// KindSpawned is a worker process forked by the coordinator.
	KindSpawned = "spawned"
	// KindJoined is an external worker that dialed in with a Join request.
	KindJoined = "joined"
	// KindLocal is an in-process rank (goroutine worlds; no process).
	KindLocal = "local"
)

// Member is one participant of the world.
type Member struct {
	ID   MemberID `json:"id"`
	Rank int      `json:"rank"`
	Kind string   `json:"kind,omitempty"`
	// Addr is informational: the member's last known address (admin-visible
	// only; the transport's bootstrap handshake carries the live one).
	Addr string `json:"addr,omitempty"`
}

// View is one epoch's membership: a dense rank assignment. Members are
// ordered by rank, ranks run 0..len-1, and rank 0 is always the
// coordinator. Views are immutable once published.
type View struct {
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// Size returns the world size of the view.
func (v View) Size() int { return len(v.Members) }

// EventKind classifies membership events.
type EventKind string

const (
	// EvBootstrap is the initial epoch coming up.
	EvBootstrap EventKind = "bootstrap"
	// EvJoin is a member entering the world (spawned or dialed in).
	EvJoin EventKind = "join"
	// EvPendingJoin is an external worker parked until the next transition.
	EvPendingJoin EventKind = "pending-join"
	// EvLeave is a voluntary, drained departure.
	EvLeave EventKind = "leave"
	// EvImplicitLeave is a member found dead during a transition — a crash
	// treated exactly like a Leave that skipped the courtesy of asking.
	EvImplicitLeave EventKind = "implicit-leave"
	// EvEpoch is a committed transition to a new epoch.
	EvEpoch EventKind = "epoch"
	// EvFailed is a transition attempt that did not produce a mesh; the
	// next attempt plans a fresh epoch, so the failed one is never live.
	EvFailed EventKind = "failed"
	// EvRebalance records a checkpoint repartition during a transition.
	EvRebalance EventKind = "rebalance"
)

// Event is one line of the membership history.
type Event struct {
	Seq    int       `json:"seq"`
	Epoch  uint64    `json:"epoch"`
	Kind   EventKind `json:"kind"`
	Member MemberID  `json:"member,omitempty"`
	Rank   int       `json:"rank,omitempty"`
	Size   int       `json:"size,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Plan is one prospective transition: the next epoch's view with every seat
// assigned, plus what changed relative to the committed view. A plan is
// advisory until Commit; a failed attempt is recorded with Fail and the next
// Plan allocates a fresh epoch, so no two mesh-build attempts ever share an
// epoch number (the wire-v5 stale-epoch rejection depends on that).
type Plan struct {
	View View
	// Retired members leave at this barrier: their rank is above the new
	// size or they asked to leave. They get a retire directive and exit.
	Retired []Member
	// Lost members were found dead while planning: implicit leaves.
	Lost []Member
	// Joined members enter the world at this epoch — pending external
	// joiners that were given a seat plus fresh seats the mesh manager must
	// fill (forked workers, whose IDs are assigned here).
	Joined []Member
}

// Coordinator is the epoch-versioned membership state machine. All methods
// are safe for concurrent use; Plan/Commit/Fail must be serialized by the
// caller's transition lock (the jobsvc server holds one transition at a
// time by construction).
type Coordinator struct {
	mu      sync.Mutex
	view    View     // last committed view; Epoch 0 = never bootstrapped
	planned uint64   // highest epoch ever handed to a Plan
	nextID  MemberID // next member ID to assign
	pending []Member // external joiners waiting for a seat (rank -1)
	leaving map[MemberID]bool
	events  []Event
}

// NewCoordinator returns an empty coordinator: no members, epoch 0.
func NewCoordinator() *Coordinator {
	return &Coordinator{nextID: 1, leaving: make(map[MemberID]bool)}
}

func (c *Coordinator) logLocked(ev Event) {
	ev.Seq = len(c.events)
	c.events = append(c.events, ev)
}

// Bootstrap plans the initial epoch: the coordinator at rank 0 plus size-1
// workers of the given kind. Like any plan it must be Commit-ed (or Fail-ed)
// once the mesh build settles.
func (c *Coordinator) Bootstrap(size int, kind string) Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	epoch := c.epochForNextPlanLocked()
	v := View{Epoch: epoch}
	var joined []Member
	for r := 0; r < size; r++ {
		k := kind
		if r == 0 {
			k = KindCoordinator
		}
		m := Member{ID: c.nextID, Rank: r, Kind: k}
		c.nextID++
		v.Members = append(v.Members, m)
		joined = append(joined, m)
	}
	return Plan{View: v, Joined: joined}
}

func (c *Coordinator) epochForNextPlanLocked() uint64 {
	e := c.view.Epoch
	if c.planned > e {
		e = c.planned
	}
	e++
	c.planned = e
	return e
}

// View returns the last committed view (Epoch 0 before bootstrap).
func (c *Coordinator) View() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view
	v.Members = append([]Member(nil), c.view.Members...)
	return v
}

// Epoch returns the committed epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view.Epoch
}

// AddPending registers an external joiner: it holds no rank until a
// transition gives it a seat. Returns the assigned member ID.
func (c *Coordinator) AddPending(kind, addr string) MemberID {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Member{ID: c.nextID, Rank: -1, Kind: kind, Addr: addr}
	c.nextID++
	c.pending = append(c.pending, m)
	c.logLocked(Event{Epoch: c.view.Epoch, Kind: EvPendingJoin, Member: m.ID, Detail: addr})
	return m.ID
}

// DropPending removes a parked joiner that gave up before getting a seat.
func (c *Coordinator) DropPending(id MemberID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.pending {
		if m.ID == id {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// PendingJoins returns the parked joiners, oldest first.
func (c *Coordinator) PendingJoins() []Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Member(nil), c.pending...)
}

// RequestLeave marks a member for retirement at the next barrier (drain
// semantics: its running work finishes first, because transitions only
// happen between jobs). Unknown IDs are an error.
func (c *Coordinator) RequestLeave(id MemberID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.view.Members {
		if m.ID == id {
			if m.Rank == 0 {
				return fmt.Errorf("membership: the coordinator (member %d) cannot leave", id)
			}
			c.leaving[id] = true
			return nil
		}
	}
	return fmt.Errorf("membership: no member %d in epoch %d", id, c.view.Epoch)
}

// LeaveRequests returns the members marked for retirement at the next
// barrier, in member-ID order.
func (c *Coordinator) LeaveRequests() []MemberID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]MemberID, 0, len(c.leaving))
	for id := range c.leaving {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// HasMember reports whether id holds a seat in the committed view.
func (c *Coordinator) HasMember(id MemberID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.view.Members {
		if m.ID == id {
			return true
		}
	}
	return false
}

// Plan computes the next epoch's view for a target world size. alive
// reports whether a current member can still serve (a dead process is an
// implicit leave); the coordinator itself is always alive. Seat assignment
// is deterministic:
//
//  1. The coordinator keeps rank 0.
//  2. Surviving, non-leaving members keep their relative order (by old
//     rank) and fill ranks 1..; members beyond the target size retire.
//  3. Pending external joiners (oldest first) fill remaining seats.
//  4. Seats still empty are fresh members of newKind (the mesh manager
//     forks processes for them).
//
// Survivors therefore may shift DOWN in rank when members below them leave
// — ranks are epoch-scoped names, not identities; the member ID is the
// identity. Plan mutates no committed state: a failed build calls Fail and
// the next Plan starts from the same committed view (minus members that
// died in between).
func (c *Coordinator) Plan(target int, alive func(Member) bool, newKind string) (Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if target < 1 {
		return Plan{}, fmt.Errorf("membership: target world size %d < 1", target)
	}
	if c.view.Epoch == 0 {
		return Plan{}, fmt.Errorf("membership: Plan before Bootstrap")
	}
	p := Plan{View: View{Epoch: c.epochForNextPlanLocked()}}

	// Coordinator first, then surviving workers in old-rank order.
	var survivors []Member
	for _, m := range c.view.Members {
		switch {
		case m.Rank == 0:
			survivors = append(survivors, m) // the coordinator cannot die: it is running this code
		case alive != nil && !alive(m):
			p.Lost = append(p.Lost, m)
		case c.leaving[m.ID]:
			p.Retired = append(p.Retired, m)
		default:
			survivors = append(survivors, m)
		}
	}
	// Seats above the target retire (highest old ranks first, so shrink
	// retires the newest seats and the coordinator's neighbors survive).
	if len(survivors) > target {
		p.Retired = append(p.Retired, survivors[target:]...)
		survivors = survivors[:target]
	}
	for r, m := range survivors {
		m.Rank = r
		p.View.Members = append(p.View.Members, m)
	}
	// Pending joiners fill seats next, oldest first.
	pend := append([]Member(nil), c.pending...)
	for len(p.View.Members) < target && len(pend) > 0 {
		m := pend[0]
		pend = pend[1:]
		m.Rank = len(p.View.Members)
		p.View.Members = append(p.View.Members, m)
		p.Joined = append(p.Joined, m)
	}
	// Fresh seats for the mesh manager to fill.
	for len(p.View.Members) < target {
		m := Member{ID: c.nextID, Rank: len(p.View.Members), Kind: newKind}
		c.nextID++
		p.View.Members = append(p.View.Members, m)
		p.Joined = append(p.Joined, m)
	}
	return p, nil
}

// Commit finalizes a planned transition whose mesh is up, making its view
// the committed one and logging the member movements.
func (c *Coordinator) Commit(p Plan) View {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range p.Lost {
		c.logLocked(Event{Epoch: p.View.Epoch, Kind: EvImplicitLeave, Member: m.ID, Rank: m.Rank, Detail: "found dead at transition"})
	}
	for _, m := range p.Retired {
		c.logLocked(Event{Epoch: p.View.Epoch, Kind: EvLeave, Member: m.ID, Rank: m.Rank})
		delete(c.leaving, m.ID)
	}
	for _, m := range p.Joined {
		c.logLocked(Event{Epoch: p.View.Epoch, Kind: EvJoin, Member: m.ID, Rank: m.Rank, Detail: m.Kind})
	}
	kind := EvEpoch
	if c.view.Epoch == 0 {
		kind = EvBootstrap
	}
	c.logLocked(Event{Epoch: p.View.Epoch, Kind: kind, Size: p.View.Size()})
	c.view = p.View
	// Joined pending members now hold seats; drop them from the parked set.
	seated := make(map[MemberID]bool, len(p.Joined))
	for _, m := range p.Joined {
		seated[m.ID] = true
	}
	kept := c.pending[:0]
	for _, m := range c.pending {
		if !seated[m.ID] {
			kept = append(kept, m)
		}
	}
	c.pending = kept
	// Members that vanished (lost or retired) cannot linger in leaving.
	for _, m := range p.Lost {
		delete(c.leaving, m.ID)
	}
	return c.view
}

// Fail records a transition attempt that never produced a live mesh. The
// planned epoch is burned — the next Plan allocates a higher one — so a
// straggler from the failed attempt can never handshake into a later world.
func (c *Coordinator) Fail(p Plan, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logLocked(Event{Epoch: p.View.Epoch, Kind: EvFailed, Size: p.View.Size(), Detail: reason})
}

// RecordRebalance logs a checkpoint repartition performed for a transition.
func (c *Coordinator) RecordRebalance(epoch uint64, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logLocked(Event{Epoch: epoch, Kind: EvRebalance, Detail: detail})
}

// Events returns the membership history, oldest first.
func (c *Coordinator) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}
