package spill

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mimir/internal/kvbuf"
	"mimir/internal/mem"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
)

func newTestStore(t *testing.T, capacity int64, policy Policy) (*Store, *mem.Arena, *pfs.FS, *simtime.Clock) {
	t.Helper()
	arena := mem.NewArena(capacity)
	fs := pfs.New(pfs.Config{Bandwidth: 1 << 20, Latency: 1e-3})
	clock := simtime.NewClock()
	s := NewStore(Config{Arena: arena, FS: fs, Clock: clock, Name: t.Name(), Policy: policy})
	return s, arena, fs, clock
}

// TestKVCRoundTripUnderPressure fills a store-backed KVC far past the
// arena capacity and checks every KV scans back intact, that spilling
// actually happened, and that Free returns the arena to empty and removes
// the spill file.
func TestKVCRoundTripUnderPressure(t *testing.T) {
	const pageSize = 256
	s, arena, fs, clock := newTestStore(t, 4*pageSize, WhenNeeded)
	kvc := kvbuf.NewKVCOn(s, arena, pageSize, kvbuf.DefaultHint())

	var want []string
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("value-%d", i*i))
		if err := kvc.Append(k, v); err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		want = append(want, string(k)+"="+string(v))
	}
	if arena.Used() > arena.Capacity() {
		t.Fatalf("arena over capacity: %d > %d", arena.Used(), arena.Capacity())
	}
	if s.Stats().SpilledBytes == 0 {
		t.Fatalf("500 KVs in a %d-byte arena spilled nothing", arena.Capacity())
	}

	var got []string
	err := kvc.Scan(func(k, v []byte) error {
		got = append(got, string(k)+"="+string(v))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d KVs, appended %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KV %d: got %q want %q", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.Restores == 0 {
		t.Fatalf("scan over spilled data restored nothing: %+v", st)
	}
	if st.IOSec <= 0 {
		t.Fatalf("spill I/O charged no simulated time (clock now %v)", clock.Now())
	}

	kvc.Free()
	if arena.Used() != 0 {
		t.Fatalf("arena holds %d bytes after Free", arena.Used())
	}
	if fs.Size(s.Name()) != 0 {
		t.Fatalf("spill file %q not removed after last Free", s.Name())
	}
}

// TestDrainReleasesPressure checks Drain consumes a mostly-spilled
// container page by page without ever exceeding the arena capacity, and
// leaves nothing behind.
func TestDrainReleasesPressure(t *testing.T) {
	const pageSize = 256
	s, arena, fs, _ := newTestStore(t, 4*pageSize, WhenNeeded)
	kvc := kvbuf.NewKVCOn(s, arena, pageSize, kvbuf.DefaultHint())
	for i := 0; i < 300; i++ {
		if err := kvc.Append([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := kvc.Drain(func(k, v []byte) error {
		n++
		if u := arena.Used(); u > arena.Capacity() {
			return fmt.Errorf("arena over capacity mid-drain: %d", u)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n != 300 {
		t.Fatalf("drained %d of 300 KVs", n)
	}
	if arena.Used() != 0 {
		t.Fatalf("arena holds %d bytes after Drain", arena.Used())
	}
	if fs.Size(s.Name()) != 0 {
		t.Fatalf("spill file survives a full Drain")
	}
}

// TestConvertUnderPressure runs the two-pass convert with both containers
// on a tight store and checks the grouped multiset is intact.
func TestConvertUnderPressure(t *testing.T) {
	// The arena must hold convert's non-spillable floor (index bucket +
	// record metadata + two append heads, ~2.5 KiB here) with the watermark
	// headroom, while input+output (~16 KiB) far exceed it — so the pass-1
	// scan, record reservation, and pass-2 scatter all run against spilled
	// pages.
	const pageSize = 256
	s, arena, _, _ := newTestStore(t, 24*pageSize, WhenNeeded)
	hint := kvbuf.DefaultHint()
	in := kvbuf.NewKVCOn(s, arena, pageSize, hint)
	want := map[string]int{}
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("key-%d", i%17)
		v := fmt.Sprintf("val-%08d", i)
		if err := in.Append([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k+"="+v]++
	}
	kmv, err := kvbuf.ConvertOn(s, in, arena, pageSize, hint)
	if err != nil {
		t.Fatalf("ConvertOn: %v", err)
	}
	if s.Stats().SpilledBytes == 0 {
		t.Fatalf("convert of %d bytes in a %d-byte arena spilled nothing", 800*20, arena.Capacity())
	}
	got := map[string]int{}
	keys := 0
	err = kmv.Scan(func(key []byte, vals *kvbuf.ValueIter) error {
		keys++
		for v, ok := vals.Next(); ok; v, ok = vals.Next() {
			got[string(key)+"="+string(v)]++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if keys != 17 {
		t.Fatalf("KMV has %d unique keys, want 17", keys)
	}
	for kv, n := range want {
		if got[kv] != n {
			t.Fatalf("KV %q: got %d copies, want %d", kv, got[kv], n)
		}
	}
	kmv.Free()
	if arena.Used() != 0 {
		t.Fatalf("arena holds %d bytes after Free", arena.Used())
	}
}

// TestSpillAlwaysWriteBehind: under the Always policy sealed pages go out
// eagerly even with a roomy arena, and re-evicting an untouched restored
// page skips the write (clean drop).
func TestSpillAlwaysWriteBehind(t *testing.T) {
	const pageSize = 256
	s, arena, _, _ := newTestStore(t, 64*pageSize, Always)
	kvc := kvbuf.NewKVCOn(s, arena, pageSize, kvbuf.DefaultHint())
	for i := 0; i < 200; i++ {
		if err := kvc.Append([]byte(fmt.Sprintf("k%05d", i)), []byte("vvvv")); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 || st.SpilledBytes == 0 {
		t.Fatalf("Always policy evicted nothing with sealed pages: %+v", st)
	}
	// Scan restores the pages; they come back clean.
	if err := kvc.Scan(func(k, v []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	spilledBefore := s.Stats().SpilledBytes
	if err := s.EvictAll(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.CleanDrops == 0 {
		t.Fatalf("re-evicting clean restored pages wrote them again: %+v", st)
	}
	if st.SpilledBytes != spilledBefore {
		t.Fatalf("clean drops still spilled bytes: %d -> %d", spilledBefore, st.SpilledBytes)
	}
	kvc.Free()
}

// TestSequentialPrefetch: a forced full eviction followed by an in-order
// scan should be served partly by readahead.
func TestSequentialPrefetch(t *testing.T) {
	const pageSize = 256
	s, arena, _, _ := newTestStore(t, 16*pageSize, WhenNeeded)
	kvc := kvbuf.NewKVCOn(s, arena, pageSize, kvbuf.DefaultHint())
	for i := 0; i < 400; i++ {
		if err := kvc.Append([]byte(fmt.Sprintf("k%05d", i)), []byte("vvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if err := kvc.Scan(func(k, v []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PrefetchHits == 0 {
		t.Fatalf("sequential scan over evicted pages had no prefetch hits: %+v", st)
	}
	kvc.Free()
}

// TestKMVCScatterDirty: values scattered into an already-spilled KMV record
// page must survive a later eviction (MarkDirty forces the rewrite).
func TestKMVCScatterDirty(t *testing.T) {
	const pageSize = 256
	s, arena, _, _ := newTestStore(t, 0, WhenNeeded) // unlimited; evict manually
	hint := kvbuf.DefaultHint()
	kmv := kvbuf.NewKMVCOn(s, arena, pageSize, hint)
	var ids []int
	for i := 0; i < 40; i++ {
		id, err := kmv.NewRecord([]byte(fmt.Sprintf("key-%02d", i)), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.EvictAll(); err != nil { // headers hit the file; records now spilled
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := kmv.AppendValue(id, []byte(fmt.Sprintf("%08d", i))); err != nil {
			t.Fatalf("AppendValue into spilled record: %v", err)
		}
	}
	if err := s.EvictAll(); err != nil { // dirty pages must be rewritten, not clean-dropped
		t.Fatal(err)
	}
	got := map[string]string{}
	err := kmv.Scan(func(key []byte, vals *kvbuf.ValueIter) error {
		v, _ := vals.Next()
		got[string(key)] = string(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		k := fmt.Sprintf("key-%02d", i)
		if got[k] != fmt.Sprintf("%08d", i) {
			t.Fatalf("record %q holds %q after dirty evict/restore", k, got[k])
		}
	}
	kmv.Free()
	if arena.Used() != 0 {
		t.Fatalf("arena holds %d bytes after Free", arena.Used())
	}
}

// TestWatermarkHeadroom: page allocations through the store keep usage at
// or under the watermark whenever there is anything left to evict.
func TestWatermarkHeadroom(t *testing.T) {
	const pageSize = 256
	arena := mem.NewArena(20 * pageSize)
	fs := pfs.New(pfs.Config{})
	s := NewStore(Config{Arena: arena, FS: fs, Name: t.Name(), Watermark: 0.5})
	kvc := kvbuf.NewKVCOn(s, arena, pageSize, kvbuf.DefaultHint())
	for i := 0; i < 1000; i++ {
		if err := kvc.Append([]byte(fmt.Sprintf("k%06d", i)), []byte("vv")); err != nil {
			t.Fatal(err)
		}
		// The append head may carry usage one page past the watermark, but
		// never beyond watermark + one page.
		if limit := arena.Watermark(0.5) + pageSize; arena.Used() > limit {
			t.Fatalf("usage %d exceeds watermark+page %d at append %d", arena.Used(), limit, i)
		}
	}
	kvc.Free()
}

// TestReserveEvicts: metadata reservations routed through the store evict
// pages instead of failing.
func TestReserveEvicts(t *testing.T) {
	const pageSize = 256
	s, arena, _, _ := newTestStore(t, 4*pageSize, WhenNeeded)
	kvc := kvbuf.NewKVCOn(s, arena, pageSize, kvbuf.DefaultHint())
	for i := 0; i < 64; i++ {
		if err := kvc.Append([]byte(fmt.Sprintf("k%05d", i)), []byte("vvvvvvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the arena to the brim with sealed pages resident, then demand
	// metadata: the store must evict to satisfy it.
	if err := s.Reserve(3 * pageSize); err != nil {
		t.Fatalf("Reserve with evictable pages failed: %v", err)
	}
	arena.Free(3 * pageSize)
	kvc.Free()
}

// TestGroupCrossStoreEviction: a grouped store with no evictable pages of
// its own evicts the globally coldest page of a peer. The spill write goes
// to the victim's file, but the I/O and counters are charged to the
// initiator — its rank is the one doing the work.
func TestGroupCrossStoreEviction(t *testing.T) {
	const pageSize = 256
	arena := mem.NewArena(4 * pageSize)
	fs := pfs.New(pfs.Config{Bandwidth: 1 << 20, Latency: 1e-3})
	g := NewGroup()
	sa := NewStore(Config{Arena: arena, FS: fs, Name: "a", Group: g, Watermark: 1})
	sb := NewStore(Config{Arena: arena, FS: fs, Name: "b", Group: g, Watermark: 1})

	// Rank A: three cold sealed pages with known contents.
	var aIDs []kvbuf.PageID
	for i := 0; i < 3; i++ {
		id, p, err := sa.NewPage(pageSize)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.Buf {
			p.Buf[j] = byte('a' + i)
		}
		p.Used = pageSize
		sa.Seal(id)
		aIDs = append(aIDs, id)
	}

	// Rank B: fill the rest, keep it unsealed so B has nothing of its own to
	// evict, then allocate once more. The only way to make room is A's pages.
	_, _, err := sb.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sb.NewPage(pageSize); err != nil {
		t.Fatalf("grouped NewPage with a peer's cold pages available: %v", err)
	}
	if got := sb.Stats(); got.Evictions != 1 || got.SpilledBytes != pageSize {
		t.Fatalf("initiator stats = %+v, want 1 eviction of %d bytes", got, pageSize)
	}
	if got := sa.Stats(); got.Evictions != 0 || got.SpilledBytes != 0 {
		t.Fatalf("victim charged for a peer's eviction: %+v", got)
	}
	if fs.Size(sa.Name()) != pageSize {
		t.Fatalf("victim file holds %d bytes, want %d (cross-eviction must write to the owner's file)", fs.Size(sa.Name()), pageSize)
	}

	// The shared LRU clock must have picked A's oldest page.
	p, err := sa.Pin(aIDs[0])
	if err != nil {
		t.Fatalf("restoring the cross-evicted page: %v", err)
	}
	for j := range p.Data() {
		if p.Data()[j] != 'a' {
			t.Fatalf("page byte %d = %q after cross-eviction round trip", j, p.Data()[j])
		}
	}
	sa.Unpin(aIDs[0])
}

// TestGroupWaitsForUnpin: when nothing is evictable but a peer holds a
// pin, a grouped allocation blocks until the peer unpins instead of
// failing — the transient all-ranks-pinned spike that a shared node arena
// produces under concurrent reduce scans.
func TestGroupWaitsForUnpin(t *testing.T) {
	const pageSize = 256
	arena := mem.NewArena(2 * pageSize)
	fs := pfs.New(pfs.Config{})
	g := NewGroup()
	sa := NewStore(Config{Arena: arena, FS: fs, Name: "a", Group: g, Watermark: 1})
	sb := NewStore(Config{Arena: arena, FS: fs, Name: "b", Group: g, Watermark: 1})

	a0, _, err := sa.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	sa.Seal(a0)
	if _, err := sa.Pin(a0); err != nil {
		t.Fatal(err)
	}
	b0, _, err := sb.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Pin(b0); err != nil {
		t.Fatal(err)
	}

	// The arena is full of pinned pages. B's next allocation must wait.
	done := make(chan error, 1)
	go func() {
		_, _, err := sb.NewPage(pageSize)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let B reach the wait
	// A second allocation while every other member is already waiting is
	// the mutual hold-and-wait: it must fail, not deadlock.
	if _, _, err := sa.NewPage(pageSize); !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("all-members-waiting allocation: %v, want ErrNoMemory", err)
	}
	sa.Unpin(a0) // a0 becomes evictable; the waiter must pick it up
	if err := <-done; err != nil {
		t.Fatalf("allocation after peer unpin: %v", err)
	}
	if got := sb.Stats(); got.Evictions != 1 {
		t.Fatalf("waiter stats = %+v, want the unpinned peer page evicted", got)
	}
}

// TestGroupDeadStoresLeave: stores from earlier stages of an iterative
// workload (all pages freed) must leave the group. Regression test: dead
// members used to linger in Group.stores, inflating the peer count so the
// mutual hold-and-wait check could never fire and every live rank hung in
// cond.Wait instead of getting ErrNoMemory.
func TestGroupDeadStoresLeave(t *testing.T) {
	const pageSize = 256
	arena := mem.NewArena(2 * pageSize)
	fs := pfs.New(pfs.Config{})
	g := NewGroup()

	// Three finished "stages": each store joins, allocates, and frees all
	// its pages.
	for i := 0; i < 3; i++ {
		s := NewStore(Config{Arena: arena, FS: fs, Name: "old", Group: g, Watermark: 1})
		id, _, err := s.NewPage(pageSize)
		if err != nil {
			t.Fatal(err)
		}
		s.Free(id)
	}
	g.mu.Lock()
	n := len(g.stores)
	g.mu.Unlock()
	if n != 0 {
		t.Fatalf("group holds %d members after all their pages were freed, want 0", n)
	}

	// Current stage: replay the mutual hold-and-wait of TestGroupWaitsForUnpin.
	sa := NewStore(Config{Arena: arena, FS: fs, Name: "a", Group: g, Watermark: 1})
	sb := NewStore(Config{Arena: arena, FS: fs, Name: "b", Group: g, Watermark: 1})
	a0, _, err := sa.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	sa.Seal(a0)
	if _, err := sa.Pin(a0); err != nil {
		t.Fatal(err)
	}
	b0, _, err := sb.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Pin(b0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := sb.NewPage(pageSize)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let B reach the wait
	// Every live peer is now waiting; with dead stores still counted this
	// allocation would join the wait forever instead of failing.
	errc := make(chan error, 1)
	go func() {
		_, _, err := sa.NewPage(pageSize)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, mem.ErrNoMemory) {
			t.Fatalf("all-live-members-waiting allocation: %v, want ErrNoMemory", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("allocation deadlocked: dead group members masked the mutual hold-and-wait")
	}
	sa.Unpin(a0)
	if err := <-done; err != nil {
		t.Fatalf("allocation after peer unpin: %v", err)
	}
}

// TestGroupRejoinAfterFree: a store that left the group on its last Free
// re-enrolls when it allocates again, so peers can once more evict its
// cold pages.
func TestGroupRejoinAfterFree(t *testing.T) {
	const pageSize = 256
	arena := mem.NewArena(2 * pageSize)
	fs := pfs.New(pfs.Config{})
	g := NewGroup()
	sa := NewStore(Config{Arena: arena, FS: fs, Name: "a", Group: g, Watermark: 1})
	sb := NewStore(Config{Arena: arena, FS: fs, Name: "b", Group: g, Watermark: 1})

	id, _, err := sa.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	sa.Free(id) // sa leaves the group

	// sa comes back with a cold sealed page...
	a0, _, err := sa.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	sa.Seal(a0)
	// ...which sb's allocations must be able to evict cross-store.
	if _, _, err := sb.NewPage(pageSize); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sb.NewPage(pageSize); err != nil {
		t.Fatalf("grouped NewPage with a re-joined peer's cold page available: %v", err)
	}
	if got := sb.Stats(); got.Evictions != 1 {
		t.Fatalf("initiator stats = %+v, want the re-joined peer's page evicted", got)
	}
}

// TestGroupNoPinFailsFast: with nothing evictable and no peer pin in
// flight there is no release to wait for (the peer may be blocked in a
// collective), so the allocation fails immediately.
func TestGroupNoPinFailsFast(t *testing.T) {
	const pageSize = 256
	arena := mem.NewArena(pageSize)
	fs := pfs.New(pfs.Config{})
	g := NewGroup()
	sa := NewStore(Config{Arena: arena, FS: fs, Name: "a", Group: g, Watermark: 1})
	sb := NewStore(Config{Arena: arena, FS: fs, Name: "b", Group: g, Watermark: 1})

	if _, _, err := sa.NewPage(pageSize); err != nil { // unsealed: not evictable
		t.Fatal(err)
	}
	if _, _, err := sb.NewPage(pageSize); !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("allocation with no evictable and no pinned peer: %v, want ErrNoMemory", err)
	}
}

// TestFailedSpillWriteKeepsPageResident: when the spill file cannot be
// written (here its directory does not exist), an eviction fails with an
// error naming the spill file, and the page stays resident with its bytes
// intact — eagerly under Always, on demand under pressure, and when forced.
// Once the file system works again the same page spills and restores.
func TestFailedSpillWriteKeepsPageResident(t *testing.T) {
	const pageSize = 256
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	arena := mem.NewArena(2 * pageSize)
	s := NewStore(Config{Arena: arena, FS: pfs.New(pfs.Config{}), Name: t.Name(), Policy: Always, Watermark: 1})
	id, p, err := s.NewPage(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("page"), pageSize/4)
	copy(p.Buf, want)
	p.Used = pageSize
	intact := func(when string) {
		t.Helper()
		if !p.Resident() || !bytes.Equal(p.Data(), want) {
			t.Fatalf("%s: page resident %v, bytes intact %v", when, p.Resident(), bytes.Equal(p.Data(), want))
		}
	}
	s.Seal(id) // Always writes it out at once, and fails
	intact("after a failed eager write")

	failed := func(call string, err error) {
		t.Helper()
		if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), s.Name()) {
			t.Fatalf("%s on an unwritable spill file: %v, want an error naming %q", call, err, s.Name())
		}
	}
	failed("EvictAll", s.EvictAll())
	intact("after a failed EvictAll")
	if _, _, err := s.NewPage(2 * pageSize); err == nil {
		t.Fatal("an allocation that needs the page's room succeeded with the page unwritable")
	} else {
		failed("NewPage under pressure", err)
	}
	intact("after a failed eviction under pressure")
	if st := s.Stats(); st.Evictions != 0 || st.SpilledBytes != 0 || st.IOSec != 0 {
		t.Fatalf("failed evictions were counted: %+v", st)
	}

	t.Setenv("TMPDIR", t.TempDir())
	if err := s.EvictAll(); err != nil {
		t.Fatalf("EvictAll once the file system works: %v", err)
	}
	if p.Resident() {
		t.Fatal("page still resident after a successful eviction")
	}
	got, err := s.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data(), want) {
		t.Fatal("page bytes differ after spilling and restoring")
	}
	s.Unpin(id)
	s.Free(id)
}

// TestOversizedRecord: a KV larger than the page size is rejected on a
// store too, with an error naming PageSize; it registers no page, and the
// container keeps spilling and restoring the KVs around it.
func TestOversizedRecord(t *testing.T) {
	const pageSize = 128
	s, arena, _, _ := newTestStore(t, 8*pageSize, WhenNeeded)
	kvc := kvbuf.NewKVCOn(s, arena, pageSize, kvbuf.DefaultHint())
	want := 0
	for i := 0; i < 64; i++ {
		if i == 32 {
			err := kvc.Append([]byte("big"), make([]byte, 4*pageSize))
			if err == nil || !strings.Contains(err.Error(), "PageSize 128") {
				t.Fatalf("oversized append: err = %v, want a PageSize error", err)
			}
		}
		if err := kvc.Append([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 40)); err != nil {
			t.Fatal(err)
		}
		want++
	}
	got := 0
	err := kvc.Scan(func(k, v []byte) error {
		if string(k) != fmt.Sprintf("k%04d", got) || len(v) != 40 {
			return fmt.Errorf("KV %d: key %q with %d value bytes", got, k, len(v))
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("scanned %d KVs, want %d", got, want)
	}
	if st := s.Stats(); st.SpilledBytes == 0 || st.Restores == 0 {
		t.Fatalf("no spill traffic: %+v", st)
	}
	kvc.Free()
	if arena.Used() != 0 {
		t.Fatalf("arena holds %d bytes after Free", arena.Used())
	}
}

// TestSpanningKMVRecord: a KMV record larger than the page spans ordinary
// pages, in memory and on a store alike, under every length mode — with its
// key and values crossing page boundaries. On the store, a hot key whose
// record is bigger than the whole arena still builds, spills and scans back
// intact.
func TestSpanningKMVRecord(t *testing.T) {
	const pageSize = 128
	hotKey := bytes.Repeat([]byte("k"), 200) // the header alone spans two pages
	value := func(mode string, i int) []byte {
		if mode == "fixed" {
			return []byte(fmt.Sprintf("%08d", i))
		}
		return bytes.Repeat([]byte{'a' + byte(i%26)}, i%37) // empty values too
	}
	for _, tc := range []struct {
		mode string
		hint kvbuf.Hint
	}{
		{"varlen", kvbuf.DefaultHint()},
		{"strz", kvbuf.Hint{Key: kvbuf.StrZ(), Val: kvbuf.StrZ()}},
		{"fixed", kvbuf.Hint{Key: kvbuf.Varlen(), Val: kvbuf.Fixed(8)}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			for _, onStore := range []bool{false, true} {
				name := "memory"
				if onStore {
					name = "store"
				}
				t.Run(name, func(t *testing.T) {
					arena := mem.NewArena(0)
					kmv := kvbuf.NewKMVC(arena, pageSize, tc.hint)
					var s *Store
					if onStore {
						s, arena, _, _ = newTestStore(t, 6*pageSize, WhenNeeded)
						kmv = kvbuf.NewKMVCOn(s, arena, pageSize, tc.hint)
					}
					const hotVals = 300
					keys := [][]byte{[]byte("before"), hotKey, []byte("after")}
					counts := []int{3, hotVals, 4}
					want := make([][][]byte, len(keys))
					for r := range keys {
						valBytes := 0
						for i := 0; i < counts[r]; i++ {
							v := value(tc.mode, r*1000+i)
							want[r] = append(want[r], v)
							valBytes += len(v)
						}
						if _, err := kmv.NewRecord(keys[r], counts[r], valBytes); err != nil {
							t.Fatalf("NewRecord %d: %v", r, err)
						}
					}
					// Pass 2 interleaves the records, as convert's scatter does.
					for i := 0; i < hotVals; i++ {
						for r := range keys {
							if i < counts[r] {
								if err := kmv.AppendValue(r, want[r][i]); err != nil {
									t.Fatalf("AppendValue(%d, #%d): %v", r, i, err)
								}
							}
						}
					}
					if onStore && kmv.Bytes() <= arena.Capacity() {
						t.Fatalf("records hold %d bytes, want more than the %d-byte arena", kmv.Bytes(), arena.Capacity())
					}
					r := 0
					err := kmv.Scan(func(key []byte, vals *kvbuf.ValueIter) error {
						if !bytes.Equal(key, keys[r]) {
							return fmt.Errorf("record %d: key %q, want %q", r, key, keys[r])
						}
						for pass := 0; pass < 2; pass++ { // Reset rewinds across pages
							i := 0
							for v, ok := vals.Next(); ok; v, ok = vals.Next() {
								if i >= len(want[r]) || !bytes.Equal(v, want[r][i]) {
									return fmt.Errorf("record %d value %d: %q, want %q", r, i, v, want[r][i])
								}
								i++
							}
							if i != counts[r] {
								return fmt.Errorf("record %d: %d values, want %d", r, i, counts[r])
							}
							vals.Reset()
						}
						if !bytes.Equal(key, keys[r]) {
							return fmt.Errorf("record %d: key changed to %q during the value scan", r, key)
						}
						r++
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if r != len(keys) {
						t.Fatalf("scanned %d records, want %d", r, len(keys))
					}
					if onStore {
						if st := s.Stats(); st.SpilledBytes == 0 || st.Restores == 0 {
							t.Fatalf("no spill traffic: %+v", st)
						}
					}
					kmv.Free()
					if arena.Used() != 0 {
						t.Fatalf("arena holds %d bytes after Free", arena.Used())
					}
				})
			}
		})
	}
}
