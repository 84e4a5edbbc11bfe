package mem

// Page is a fixed-size buffer charged to a node arena. Pages are the unit of
// allocation for both engines: MR-MPI statically allocates a handful of
// large pages per phase, while Mimir's KV containers allocate pages on
// demand and release them as data is consumed.
type Page struct {
	arena *Arena
	Buf   []byte
	// Used is the number of meaningful bytes at the front of Buf.
	Used int
}

// NewPage allocates a page of the given size from the arena. The returned
// page owns an arena reservation of exactly size bytes until Release. The
// buffer may be recycled from an earlier page, so bytes past Used are
// arbitrary — write a range before reading it.
func (a *Arena) NewPage(size int) (*Page, error) {
	if err := a.Alloc(int64(size)); err != nil {
		return nil, err
	}
	return &Page{arena: a, Buf: GetBuf(size)}, nil
}

// AdoptPage wraps size bytes the caller has already reserved on the arena
// (via Alloc/TryGrab, or a spill store's Reserve, which can evict for
// room) into a Page. The page owns the reservation from here on: its
// Release returns the bytes as usual. As with NewPage, the buffer is not
// zeroed.
func (a *Arena) AdoptPage(size int) *Page {
	return &Page{arena: a, Buf: GetBuf(size)}
}

// Remaining returns the unused capacity of the page.
func (p *Page) Remaining() int { return len(p.Buf) - p.Used }

// Append copies b into the page and advances Used. It panics if b does not
// fit; callers check Remaining first.
func (p *Page) Append(b []byte) {
	n := copy(p.Buf[p.Used:], b)
	if n != len(b) {
		panic("mem: page overflow")
	}
	p.Used += n
}

// Data returns the valid prefix of the page buffer.
func (p *Page) Data() []byte { return p.Buf[:p.Used] }

// Release returns the page's reservation to the arena. Release is
// idempotent, and safe on an evicted (non-resident) page.
func (p *Page) Release() {
	if p.arena != nil {
		p.arena.Free(int64(len(p.Buf)))
		p.arena = nil
		PutBuf(p.Buf)
		p.Buf = nil
		p.Used = 0
	}
}

// Evict drops the page's buffer and returns its reservation to the arena
// while keeping Used and the arena binding, so an out-of-core store can
// bring the page back with Restore at the same identity (pointers to the
// Page stay valid; only Buf goes away). It returns the bytes released;
// evicting a non-resident page is a no-op.
func (p *Page) Evict() int {
	if p.arena == nil || p.Buf == nil {
		return 0
	}
	n := len(p.Buf)
	p.arena.Free(int64(n))
	PutBuf(p.Buf)
	p.Buf = nil
	return n
}

// Resident reports whether the page currently holds a buffer.
func (p *Page) Resident() bool { return p.Buf != nil }

// Restore re-reserves size bytes for an evicted page and installs a buffer
// of arbitrary contents; the caller refills it from the spill copy before
// any read (readers only see Buf[:Used], which the refill covers). It fails
// with ErrNoMemory when the arena has no room (the store evicts and
// retries).
func (p *Page) Restore(size int) error {
	if p.arena == nil {
		panic("mem: Restore on a released page")
	}
	if p.Buf != nil {
		return nil
	}
	if err := p.arena.Alloc(int64(size)); err != nil {
		return err
	}
	p.Buf = GetBuf(size)
	return nil
}
