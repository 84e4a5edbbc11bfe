// Package spill is Mimir's out-of-core store: page-granular eviction of
// the dynamic KV/KMV container pages to the simulated parallel file
// system. The paper deliberately ships no out-of-core path — when a
// dataset outgrows node memory the job fails with mem.ErrNoMemory (its
// missing data points) — and names one as future work. This package fills
// that gap while keeping the containers' dynamic-paged design: pages are
// still allocated on demand and sized exactly, but once a page is sealed
// (its container moved on to the next one) it becomes a candidate for
// eviction to the PFS, and container scans pin pages to stream them back.
//
// Because all spill traffic goes through internal/pfs, every evicted or
// restored byte is charged simulated I/O time under the shared-bandwidth
// model — so the Figure-1-style cliff appears honestly when Mimir goes
// out of core, just as it does for MR-MPI's static pages.
package spill

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

// Defaults for Config knobs left zero.
const (
	// DefaultWatermark is the fraction of arena capacity the store tries
	// to keep page usage under. The headroom above it is reserved for
	// allocations that cannot spill: send/receive buffers, hash buckets,
	// and container metadata.
	DefaultWatermark = 0.85
	// DefaultPrefetch is how many subsequent evicted pages a restore
	// brings back along with the requested one (sequential prefetch for
	// container scans).
	DefaultPrefetch = 2
)

// Policy selects when pages are written out.
type Policy int

const (
	// WhenNeeded evicts cold sealed pages only when an allocation would
	// push the arena past the watermark (MR-MPI's "spill when needed").
	WhenNeeded Policy = iota
	// Always additionally writes every page out the moment it is sealed
	// (MR-MPI's "spill always"): the write-behind happens eagerly, trading
	// I/O time for the lowest possible resident footprint.
	Always
)

// String returns the conventional name of the policy.
func (p Policy) String() string {
	if p == Always {
		return "spill-always"
	}
	return "spill-when-needed"
}

// Group coordinates the stores of the ranks that share one node arena.
// Memory pressure on a shared arena is a node-level condition: the rank
// that hits the watermark is rarely the rank holding the coldest pages, and
// a rank blocked in a collective still holds resident pages it will not
// touch for a while. A grouped store that runs out of its own evictable
// pages therefore evicts the globally coldest sealed page of any member,
// so one rank's allocation can push another rank's cold data out — exactly
// what a node-wide buffer pool would do.
//
// All methods of grouped stores serialize on the group's mutex, making
// them safe to call from the node's rank goroutines concurrently. The I/O
// time of a cross-store eviction is charged to the rank that needed the
// room (it is the one waiting), and so are its Stats counters.
//
// Grouped allocation also waits: when nothing is evictable but a peer rank
// holds pinned pages (it is mid-scan and will unpin), the allocating rank
// blocks until a peer releases memory rather than failing on a transient
// all-ranks-pinned spike. Only when waiting cannot help — no peer holds a
// pin, or every other member is asleep with no wake-up pending (mutual
// hold-and-wait) — does ErrNoMemory escape.
type Group struct {
	mu      sync.Mutex
	cond    *sync.Cond // signaled on Unpin/Seal/Free (memory may be available)
	tick    int64      // shared LRU clock, so lastUse is comparable across members
	seq     int64      // release-event counter; see waitForRoom
	waiters int
	stores  []*Store
}

// NewGroup creates an empty group; stores join via Config.Group.
func NewGroup() *Group {
	g := &Group{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// join adds s to the group's member list; idempotent. Callers hold g.mu.
func (g *Group) join(s *Store) {
	for _, m := range g.stores {
		if m == s {
			return
		}
	}
	g.stores = append(g.stores, s)
}

// remove drops s from the group's member list. Callers hold g.mu. A store
// leaves when its last page is freed: iterative workloads create one store
// per stage against a long-lived group, and dead members would both leak
// and — worse — inflate the peer count in waitForRoom until the mutual
// hold-and-wait detection could never fire.
func (g *Group) remove(s *Store) {
	for i, m := range g.stores {
		if m == s {
			g.stores = append(g.stores[:i], g.stores[i+1:]...)
			return
		}
	}
}

// Config configures a Store.
type Config struct {
	// Arena is the node memory pool the pages are charged to. Required.
	Arena *mem.Arena
	// FS is the parallel file system that receives evicted pages. Required.
	FS *pfs.FS
	// Clock is the owning rank's simulated clock, charged for all spill
	// I/O. May be nil in unit tests (no time is charged).
	Clock *simtime.Clock
	// Name prefixes the store's spill file (a unique suffix is always
	// appended, so concurrent and successive stores never collide).
	Name string
	// Policy selects eager (Always) or pressure-driven (WhenNeeded)
	// write-out.
	Policy Policy
	// Watermark overrides DefaultWatermark (fraction of arena capacity);
	// values outside (0, 1] use the default. Ignored for unlimited arenas,
	// which never spill under WhenNeeded.
	Watermark float64
	// Prefetch overrides DefaultPrefetch; negative disables prefetch.
	Prefetch int
	// Group, when set, enrolls the store in a node-level eviction group
	// (see Group). Stores of ranks sharing an Arena should share a Group.
	Group *Group
}

// Stats counts what a store did. All fields are cumulative.
type Stats struct {
	// SpilledBytes is the total bytes written to the spill file.
	SpilledBytes int64
	// RestoredBytes is the total bytes read back from the spill file.
	RestoredBytes int64
	// Evictions counts pages dropped from memory (whether or not a write
	// was needed).
	Evictions int64
	// CleanDrops counts evictions that skipped the write because the
	// page's spill copy was still valid (the write-behind dividend).
	CleanDrops int64
	// Restores counts pages brought back from the spill file.
	Restores int64
	// PrefetchHits counts pins satisfied by a page a previous restore
	// prefetched sequentially.
	PrefetchHits int64
	// IOSec is the simulated seconds charged for spill I/O.
	IOSec float64
}

// Add accumulates o into s (used to aggregate per-rank stores).
func (s *Stats) Add(o Stats) {
	s.SpilledBytes += o.SpilledBytes
	s.RestoredBytes += o.RestoredBytes
	s.Evictions += o.Evictions
	s.CleanDrops += o.CleanDrops
	s.Restores += o.Restores
	s.PrefetchHits += o.PrefetchHits
	s.IOSec += o.IOSec
}

// fileSeq makes every store's spill file unique even when stores share a
// FS and a Name (successive jobs of an iterative workload, many ranks).
var fileSeq atomic.Int64

// pstate is the store's bookkeeping for one registered page.
type pstate struct {
	page       *mem.Page
	size       int // allocation size (== len(Buf) when resident)
	off        int64
	spilledLen int
	pins       int
	lastUse    int64
	sealed     bool
	spilled    bool // a valid copy exists at off..off+spilledLen
	dirty      bool // resident bytes differ from the spill copy
	prefetched bool
	freed      bool
}

// Store owns one rank's out-of-core page set. It implements
// kvbuf.PageStore; see that interface for the calling contract. An
// ungrouped Store is confined to its rank's goroutine (like the rank's
// Clock); a grouped one may additionally have its cold pages evicted by
// peer stores under the group lock. A Store needs no explicit Close: when
// every registered page has been freed — including pages owned by a Job's
// Output, which can outlive the job — the spill file is removed.
type Store struct {
	cfg      Config
	name     string
	pages    []pstate
	live     int   // registered, not yet freed
	fileEnd  int64 // next append offset in the spill file
	tick     int64 // LRU clock
	waiting  bool  // parked in waitForRoom (grouped stores only)
	sleepSeq int64 // Group.seq observed when the store went to sleep
	stats    Stats
}

// NewStore creates a store over the given arena and file system.
func NewStore(cfg Config) *Store {
	if cfg.Arena == nil || cfg.FS == nil {
		panic("spill: Config.Arena and Config.FS are required")
	}
	if cfg.Watermark <= 0 || cfg.Watermark > 1 {
		cfg.Watermark = DefaultWatermark
	}
	if cfg.Prefetch == 0 {
		cfg.Prefetch = DefaultPrefetch
	}
	s := &Store{
		cfg:  cfg,
		name: fmt.Sprintf("%s.spill#%d", cfg.Name, fileSeq.Add(1)),
	}
	if g := cfg.Group; g != nil {
		g.mu.Lock()
		g.join(s)
		g.mu.Unlock()
	}
	return s
}

// lock serializes grouped stores on the group mutex; ungrouped stores are
// single-goroutine and need none. Returns the matching unlock.
func (s *Store) lock() func() {
	if g := s.cfg.Group; g != nil {
		g.mu.Lock()
		return g.mu.Unlock
	}
	return func() {}
}

// nextTick advances the LRU clock (the group's, when grouped, so that
// lastUse is comparable across member stores).
func (s *Store) nextTick() int64 {
	if g := s.cfg.Group; g != nil {
		g.tick++
		return g.tick
	}
	s.tick++
	return s.tick
}

// released wakes grouped waiters after an event that may have freed
// memory or made a page evictable. Every release advances the group's
// event counter, so waitForRoom can tell a waiter with a wake-up pending
// from one that will sleep forever. Callers hold the group mutex.
func (s *Store) released() {
	g := s.cfg.Group
	if g == nil {
		return
	}
	g.seq++
	if g.waiters > 0 {
		g.cond.Broadcast()
	}
}

// waitForRoom blocks a grouped store until a peer releases memory. It only
// waits when some peer currently holds a pinned page: pins are transient
// (a scan iteration, a record scatter), so a future Unpin or Free is
// guaranteed to broadcast. It reports false when waiting is futile — the
// store is ungrouped, no peer holds a pin, or every peer is hopelessly
// asleep (mutual hold-and-wait: each rank pins its record while
// allocating, so none will ever unpin) — in which case the node really is
// out of memory.
//
// "Hopelessly asleep" is exact, not a count: a peer parked in Wait with a
// release event pending (Group.seq advanced since it slept) will wake and
// make progress, so it is safe to sleep alongside it; only a peer whose
// sleepSeq still equals Group.seq can never be woken by anyone currently
// running. A bare waiter count would race with wake-ups in flight and
// declare OOM spuriously. The peer scan covers only the current member
// list — stores with registered pages (fully freed stores leave the
// group) — so dead generations of an iterative workload cannot mask the
// deadlock. Callers hold the group mutex, which Wait releases, so peer
// ranks keep running while this one sleeps.
func (s *Store) waitForRoom() bool {
	g := s.cfg.Group
	if g == nil {
		return false
	}
	peers, hopeless := 0, 0
	pinned := false
	for _, m := range g.stores {
		if m == s {
			continue
		}
		peers++
		if m.waiting && m.sleepSeq == g.seq {
			hopeless++
		}
		if pinned {
			continue
		}
		for i := range m.pages {
			if !m.pages[i].freed && m.pages[i].pins > 0 {
				pinned = true
				break
			}
		}
	}
	if !pinned || hopeless >= peers {
		return false
	}
	g.waiters++
	s.waiting = true
	s.sleepSeq = g.seq
	g.cond.Wait()
	s.waiting = false
	g.waiters--
	return true
}

// Name returns the store's spill file name on its FS.
func (s *Store) Name() string { return s.name }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	defer s.lock()()
	return s.stats
}

// NewPage allocates and registers a page, evicting cold pages as needed to
// respect the watermark and, failing that, to satisfy the allocation at
// all. Only when nothing evictable remains does ErrNoMemory escape.
func (s *Store) NewPage(size int) (kvbuf.PageID, *mem.Page, error) {
	defer s.lock()()
	if err := s.makeRoom(int64(size)); err != nil {
		return 0, nil, err
	}
	var p *mem.Page
	for {
		var err error
		p, err = s.cfg.Arena.NewPage(size)
		if err == nil {
			break
		}
		if ok, everr := s.evictOrWait(); everr != nil {
			return 0, nil, everr
		} else if !ok {
			return 0, nil, err
		}
	}
	s.pages = append(s.pages, pstate{page: p, size: size, lastUse: s.nextTick(), dirty: true})
	s.live++
	if g := s.cfg.Group; g != nil && s.live == 1 {
		g.join(s) // re-enroll a store that left when its last page was freed
	}
	return kvbuf.PageID(len(s.pages) - 1), p, nil
}

// Pin makes the page resident and protected from eviction.
func (s *Store) Pin(id kvbuf.PageID) (*mem.Page, error) {
	defer s.lock()()
	st := s.state(id)
	st.lastUse = s.nextTick()
	if !st.page.Resident() {
		if err := s.restore(st); err != nil {
			return nil, err
		}
		s.prefetchAfter(int(id))
	} else if st.prefetched {
		s.stats.PrefetchHits++
		st.prefetched = false
	}
	st.pins++
	return st.page, nil
}

// Unpin releases one pin.
func (s *Store) Unpin(id kvbuf.PageID) {
	defer s.lock()()
	st := s.state(id)
	if st.pins <= 0 {
		panic("spill: Unpin without matching Pin")
	}
	st.pins--
	if st.pins == 0 {
		s.released() // the page is evictable again; waiters can retry
	}
}

// Seal marks the page complete and evictable. Under the Always policy the
// page is written out (and dropped) immediately.
func (s *Store) Seal(id kvbuf.PageID) {
	defer s.lock()()
	st := s.state(id)
	st.sealed = true
	if s.cfg.Policy == Always && st.pins == 0 && st.page.Resident() {
		// A failed eager write leaves the page resident and sealed; the
		// next eviction that needs its room writes it again and reports
		// the error if the file system still fails.
		_ = s.evict(st)
	}
	s.released() // a new eviction candidate (or, under Always, free memory)
}

// MarkDirty invalidates the page's spill copy.
func (s *Store) MarkDirty(id kvbuf.PageID) {
	defer s.lock()()
	s.state(id).dirty = true
}

// Free unregisters the page. When the last registered page is freed the
// spill file is removed and the store leaves its group (it re-joins on its
// next allocation), so iterative workloads don't accumulate dead members.
func (s *Store) Free(id kvbuf.PageID) {
	defer s.lock()()
	st := s.state(id)
	if st.freed {
		return
	}
	st.page.Release() // returns the reservation if resident; no-op if evicted
	st.freed = true
	st.pins = 0
	s.live--
	s.released()
	if s.live == 0 {
		s.cfg.FS.Remove(s.name)
		s.pages = nil
		s.fileEnd = 0
		if g := s.cfg.Group; g != nil {
			g.remove(s)
		}
	}
}

// Reserve charges n non-page bytes to the arena, evicting pages for room.
func (s *Store) Reserve(n int64) error {
	defer s.lock()()
	if err := s.makeRoom(n); err != nil {
		return err
	}
	for !s.cfg.Arena.TryGrab(n) {
		if ok, err := s.evictOrWait(); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("%w: want %d bytes with nothing left to spill", mem.ErrNoMemory, n)
		}
	}
	return nil
}

// EvictAll forces every evictable page out (tests and fault injection),
// stopping at the first failed write.
func (s *Store) EvictAll() error {
	defer s.lock()()
	for i := range s.pages {
		st := &s.pages[i]
		if s.evictable(st) {
			if err := s.evict(st); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Store) state(id kvbuf.PageID) *pstate {
	st := &s.pages[id]
	if st.freed {
		panic(fmt.Sprintf("spill: use of freed page %d", id))
	}
	return st
}

func (s *Store) evictable(st *pstate) bool {
	return !st.freed && st.sealed && st.pins == 0 && st.page.Resident()
}

// makeRoom evicts coldest-first until usage+n fits under the watermark (or
// nothing evictable remains). Under WhenNeeded with an unlimited arena the
// watermark is 0 and this is a no-op — the store never spills. Only a
// failed spill write is an error.
func (s *Store) makeRoom(n int64) error {
	w := s.cfg.Arena.Watermark(s.cfg.Watermark)
	if w <= 0 {
		return nil
	}
	for s.cfg.Arena.Used()+n > w {
		if ok, err := s.evictOne(); !ok || err != nil {
			return err
		}
	}
	return nil
}

// coldest returns the store's least-recently-used evictable page, or nil.
func (s *Store) coldest() *pstate {
	var pick *pstate
	for i := range s.pages {
		st := &s.pages[i]
		if s.evictable(st) && (pick == nil || st.lastUse < pick.lastUse) {
			pick = st
		}
	}
	return pick
}

// evictOne drops the least-recently-used evictable page of this store —
// or, when it has none and belongs to a group, of the coldest peer store.
// Reports whether there was a page to evict, and the error if writing it
// out failed (the page then stays resident).
func (s *Store) evictOne() (bool, error) {
	if st := s.coldest(); st != nil {
		return true, s.evict(st)
	}
	g := s.cfg.Group
	if g == nil {
		return false, nil
	}
	var victim *Store
	var vp *pstate
	for _, m := range g.stores {
		if m == s {
			continue
		}
		if st := m.coldest(); st != nil && (vp == nil || st.lastUse < vp.lastUse) {
			victim, vp = m, st
		}
	}
	if vp == nil {
		return false, nil
	}
	return true, victim.evictBy(vp, s)
}

// evictOrWait makes room after the arena refused an allocation: it evicts
// one page or, with none evictable, waits for a peer to release memory. It
// reports false when neither is possible.
func (s *Store) evictOrWait() (bool, error) {
	if ok, err := s.evictOne(); ok || err != nil {
		return ok, err
	}
	return s.waitForRoom(), nil
}

// evict writes the page out if its spill copy is missing or stale
// (write-behind: a clean copy means the drop is free) and releases its
// memory. Used survives — see mem.Page.Evict.
func (s *Store) evict(st *pstate) error { return s.evictBy(st, s) }

// evictBy evicts s's page st on behalf of store `by` (s itself, or a group
// peer that needs the room). The spill write still goes to s's file at s's
// append offset, but the I/O time and the Stats counters are charged to
// `by`: its rank is the one doing — and waiting for — the work, and the
// owning rank may be blocked in a collective with its clock unsafe to
// touch. A failed write is a failed eviction: the page keeps its memory,
// its bytes and its dirty mark, so no stale copy is ever read back.
func (s *Store) evictBy(st *pstate, by *Store) error {
	if st.dirty || !st.spilled {
		data := st.page.Data()
		var err error
		if st.spilled && len(data) == st.spilledLen {
			// A dirty rewrite of an unchanged-size page goes back to its
			// slot in place — convert's pass-2 scatter redirties sealed KMV
			// pages constantly, and appending a fresh copy each time would
			// grow the spill file without bound.
			by.charged(func() { err = s.cfg.FS.WriteAt(by.cfg.Clock, s.name, st.off, data) })
		} else {
			// A failed Append leaves the file as it was, so fileEnd stays
			// its size.
			by.charged(func() { err = s.cfg.FS.Append(by.cfg.Clock, s.name, data) })
			if err == nil {
				st.off = s.fileEnd
				st.spilledLen = len(data)
				s.fileEnd += int64(len(data))
			}
		}
		if err != nil {
			return fmt.Errorf("spill: evicting a page: %w", err)
		}
		st.spilled = true
		st.dirty = false
		by.stats.SpilledBytes += int64(len(data))
	} else {
		by.stats.CleanDrops++
	}
	st.page.Evict()
	st.prefetched = false
	by.stats.Evictions++
	return nil
}

// restore brings an evicted page back, evicting colder pages if the arena
// is full.
func (s *Store) restore(st *pstate) error {
	if err := s.makeRoom(int64(st.size)); err != nil {
		return err
	}
	for {
		err := st.page.Restore(st.size)
		if err == nil {
			break
		}
		if ok, everr := s.evictOrWait(); everr != nil {
			return everr
		} else if !ok {
			return fmt.Errorf("spill: restoring page: %w", err)
		}
	}
	if err := s.readBack(st); err != nil {
		return fmt.Errorf("spill: reading back page: %w", err)
	}
	return nil
}

// readBack refills a page that has just been given a buffer from its spill
// copy, reading straight into the buffer, and counts the restore. On
// failure the page is evicted again.
func (s *Store) readBack(st *pstate) error {
	var err error
	s.charged(func() {
		err = s.cfg.FS.ReadInto(s.cfg.Clock, s.name, st.off, st.page.Buf[:st.spilledLen])
	})
	if err != nil {
		st.page.Evict()
		return err
	}
	st.page.Used = st.spilledLen
	s.stats.Restores++
	s.stats.RestoredBytes += int64(st.spilledLen)
	return nil
}

// prefetchAfter sequentially restores up to Prefetch evicted pages
// following page i, but only into free headroom under the watermark —
// prefetch never evicts, so scan readahead cannot double residency.
// Container pages are registered in append order, so id order is scan
// order.
func (s *Store) prefetchAfter(i int) {
	if s.cfg.Prefetch <= 0 {
		return
	}
	w := s.cfg.Arena.Watermark(s.cfg.Watermark)
	fetched := 0
	for j := i + 1; j < len(s.pages) && fetched < s.cfg.Prefetch; j++ {
		st := &s.pages[j]
		if st.freed || !st.sealed || st.page.Resident() {
			continue
		}
		if w > 0 && s.cfg.Arena.Used()+int64(st.size) > w {
			return
		}
		if err := st.page.Restore(st.size); err != nil {
			return
		}
		if s.readBack(st) != nil {
			return
		}
		st.prefetched = true
		st.lastUse = s.nextTick()
		fetched++
	}
}

// charged runs fn and attributes the simulated I/O time it advances to the
// store's IOSec counter.
func (s *Store) charged(fn func()) {
	if s.cfg.Clock == nil {
		fn()
		return
	}
	before := s.cfg.Clock.Spent(simtime.IO)
	fn()
	s.stats.IOSec += s.cfg.Clock.Spent(simtime.IO) - before
}

// Interface conformance.
var _ kvbuf.PageStore = (*Store)(nil)
