package kvbuf

import (
	"fmt"

	"mimir/internal/mem"
)

// pagedBuf is an append-only byte store built from fixed-size arena pages.
// Records appended with reserve never straddle page boundaries: an append
// that does not fit in the current page's remainder opens a new page, and a
// record larger than the page size gets a dedicated oversized page;
// reserveSpan lays such a record across a run of ordinary pages instead.
// This mirrors how the paper's containers "gradually allocate more memory
// to store the data" in fixed-size units to avoid fragmentation.
//
// With a PageStore attached, pages are registered for out-of-core eviction:
// the buffer seals the previous page whenever it opens a new one (the last
// page is the append head and must stay resident), and readers access
// sealed pages only through pinPage/unpinPage so the store can restore
// evicted pages on demand.
type pagedBuf struct {
	arena    *mem.Arena
	pageSize int
	pages    []*mem.Page
	store    PageStore // nil = purely in-memory
	ids      []PageID  // store registration per page (store mode only)
	// room, when set (and store is not), keeps the pages resident but
	// routes their arena charges through the store's Reserve so growth can
	// evict spillable pages for room. Hash buckets use this: they are
	// random-access on every operation and cannot spill themselves, yet
	// must not starve just because cold container pages fill the arena.
	room PageStore
}

// ref addresses a byte range inside a pagedBuf: page index in the high 32
// bits, offset in the low 32.
type ref uint64

func makeRef(page, off int) ref { return ref(uint64(page)<<32 | uint64(uint32(off))) }

func (r ref) page() int { return int(r >> 32) }
func (r ref) off() int  { return int(uint32(r)) }

func newPagedBuf(arena *mem.Arena, pageSize int) *pagedBuf {
	return newStorePagedBuf(nil, arena, pageSize)
}

func newStorePagedBuf(store PageStore, arena *mem.Arena, pageSize int) *pagedBuf {
	if pageSize <= 0 {
		panic(fmt.Sprintf("kvbuf: invalid page size %d", pageSize))
	}
	return &pagedBuf{arena: arena, pageSize: pageSize, store: store}
}

// newPage opens a new page of the given size, sealing the previous append
// head so it becomes evictable.
func (pb *pagedBuf) newPage(size int) (*mem.Page, error) {
	if pb.store == nil {
		var p *mem.Page
		if pb.room != nil {
			if err := pb.room.Reserve(int64(size)); err != nil {
				return nil, err
			}
			p = pb.arena.AdoptPage(size)
		} else {
			var err error
			p, err = pb.arena.NewPage(size)
			if err != nil {
				return nil, err
			}
		}
		pb.pages = append(pb.pages, p)
		return p, nil
	}
	id, p, err := pb.store.NewPage(size)
	if err != nil {
		return nil, err
	}
	if n := len(pb.pages); n > 0 {
		pb.store.Seal(pb.ids[n-1])
	}
	pb.pages = append(pb.pages, p)
	pb.ids = append(pb.ids, id)
	return p, nil
}

// reserve allocates n contiguous bytes and returns their ref. The bytes
// hold arbitrary stale data (pages are pooled) and must be fully written
// via at() before reading. The returned range is always
// on the last (unsealed, resident) page, so the caller may write it without
// pinning — but must do so before the next reserve.
func (pb *pagedBuf) reserve(n int) (ref, error) {
	if n > pb.pageSize {
		// Oversized record: dedicated page.
		p, err := pb.newPage(n)
		if err != nil {
			return 0, err
		}
		p.Used = n
		return makeRef(len(pb.pages)-1, 0), nil
	}
	if len(pb.pages) == 0 || pb.pages[len(pb.pages)-1].Remaining() < n {
		if _, err := pb.newPage(pb.pageSize); err != nil {
			return 0, err
		}
	}
	p := pb.pages[len(pb.pages)-1]
	off := p.Used
	p.Used += n
	return makeRef(len(pb.pages)-1, off), nil
}

// reserveSpan allocates n bytes as a run of consecutive pageSize pages,
// starting at offset 0 of a fresh page: byte i of the range lives on page
// r.page() + i/pageSize at offset i%pageSize, and the last page's remainder
// stays the append head. In store mode each page is sealed as the next one
// opens, so the run is never resident as a whole and its bytes are reached
// one page at a time through pinPage (see KMVC's spanning records).
func (pb *pagedBuf) reserveSpan(n int) (ref, error) {
	first := len(pb.pages)
	for left := n; left > 0; left -= pb.pageSize {
		p, err := pb.newPage(pb.pageSize)
		if err != nil {
			return 0, err
		}
		p.Used = min(left, pb.pageSize)
	}
	return makeRef(first, 0), nil
}

// append copies b into the buffer and returns its ref.
func (pb *pagedBuf) append(b []byte) (ref, error) {
	r, err := pb.reserve(len(b))
	if err != nil {
		return 0, err
	}
	copy(pb.at(r, len(b)), b)
	return r, nil
}

// at returns the n bytes addressed by r. In store mode it is valid only for
// the append head (the last page) or a page the caller holds pinned.
func (pb *pagedBuf) at(r ref, n int) []byte {
	p := pb.pages[r.page()]
	return p.Buf[r.off() : r.off()+n]
}

// headRoom returns the free bytes left in the append head page, or 0 when
// there is no head (the next reserve opens a fresh page).
func (pb *pagedBuf) headRoom() int {
	if len(pb.pages) == 0 {
		return 0
	}
	return pb.pages[len(pb.pages)-1].Remaining()
}

// numPages returns the page count.
func (pb *pagedBuf) numPages() int { return len(pb.pages) }

// pinPage makes page i resident and protected from eviction, returning it.
// Pair with unpinPage. Without a store this is a plain lookup.
func (pb *pagedBuf) pinPage(i int) (*mem.Page, error) {
	if pb.store == nil {
		return pb.pages[i], nil
	}
	return pb.store.Pin(pb.ids[i])
}

func (pb *pagedBuf) unpinPage(i int) {
	if pb.store != nil {
		pb.store.Unpin(pb.ids[i])
	}
}

// markDirty flags a (pinned) page whose bytes were modified after sealing,
// so a stale spill copy is never trusted.
func (pb *pagedBuf) markDirty(i int) {
	if pb.store != nil {
		pb.store.MarkDirty(pb.ids[i])
	}
}

// freePage releases page i (used by the drains to return memory early).
// Without a store a second release of the same page is a no-op, so free may
// follow a partial drain.
func (pb *pagedBuf) freePage(i int) {
	if pb.store != nil {
		pb.store.Free(pb.ids[i])
		return
	}
	pb.pages[i].Release()
}

// reserveMeta charges n non-page bytes to the arena, routing through the
// store (which can evict for room) when one is attached.
func (pb *pagedBuf) reserveMeta(n int64) error {
	if pb.store != nil {
		return pb.store.Reserve(n)
	}
	if pb.room != nil {
		return pb.room.Reserve(n)
	}
	return pb.arena.Alloc(n)
}

// clear forgets all pages without releasing them (Drain releases them one
// by one via freePage).
func (pb *pagedBuf) clear() {
	pb.pages = nil
	pb.ids = nil
}

// usedBytes returns the meaningful bytes stored (sum of page Used — which
// survives eviction, so this counts spilled data too).
func (pb *pagedBuf) usedBytes() int64 {
	var n int64
	for _, p := range pb.pages {
		n += int64(p.Used)
	}
	return n
}

// reservedBytes returns the arena reservation held (sum of resident page
// sizes; evicted pages hold no reservation).
func (pb *pagedBuf) reservedBytes() int64 {
	var n int64
	for _, p := range pb.pages {
		n += int64(len(p.Buf))
	}
	return n
}

// free releases all pages back to the arena (and the spill file).
func (pb *pagedBuf) free() {
	for i := range pb.pages {
		pb.freePage(i)
	}
	pb.clear()
}
