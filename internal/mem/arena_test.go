package mem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestArenaAllocFree(t *testing.T) {
	a := NewArena(100)
	if err := a.Alloc(60); err != nil {
		t.Fatalf("Alloc(60): %v", err)
	}
	if err := a.Alloc(50); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Alloc(50) over capacity: got %v, want ErrNoMemory", err)
	}
	if got := a.Used(); got != 60 {
		t.Errorf("Used = %d, want 60 (failed alloc must not charge)", got)
	}
	a.Free(60)
	if got := a.Used(); got != 0 {
		t.Errorf("Used = %d, want 0", got)
	}
	if got := a.Peak(); got != 60 {
		t.Errorf("Peak = %d, want 60", got)
	}
}

func TestArenaUnlimited(t *testing.T) {
	a := NewArena(0)
	if err := a.Alloc(1 << 40); err != nil {
		t.Fatalf("unlimited arena refused allocation: %v", err)
	}
	a.Free(1 << 40)
}

func TestArenaPeakTracking(t *testing.T) {
	a := NewArena(1000)
	for _, n := range []int64{100, 300, 200} {
		if err := a.Alloc(n); err != nil {
			t.Fatal(err)
		}
	}
	a.Free(300)
	if err := a.Alloc(50); err != nil {
		t.Fatal(err)
	}
	if got := a.Peak(); got != 600 {
		t.Errorf("Peak = %d, want 600", got)
	}
	a.ResetPeak()
	if got := a.Peak(); got != a.Used() {
		t.Errorf("Peak after reset = %d, want Used = %d", got, a.Used())
	}
}

func TestArenaFreeBelowZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Free below zero did not panic")
		}
	}()
	NewArena(10).Free(1)
}

func TestArenaNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Alloc did not panic")
		}
	}()
	NewArena(10).Alloc(-1)
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena(0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := a.Alloc(7); err != nil {
					t.Error(err)
					return
				}
				a.Free(7)
			}
		}()
	}
	wg.Wait()
	if got := a.Used(); got != 0 {
		t.Errorf("Used = %d after balanced concurrent alloc/free, want 0", got)
	}
}

// Property: any sequence of allocations within capacity keeps
// used = sum(allocs) and peak >= used at all times.
func TestArenaAccountingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewArena(0)
		var total int64
		var maxTotal int64
		for _, s := range sizes {
			n := int64(s)
			if err := a.Alloc(n); err != nil {
				return false
			}
			total += n
			if total > maxTotal {
				maxTotal = total
			}
			if a.Used() != total || a.Peak() != maxTotal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArenaTryGrab covers the non-erroring allocation path the spill
// store's watermark logic is built on: a refused grab charges nothing and
// moves neither Used nor Peak.
func TestArenaTryGrab(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		grabs    []int64
		ok       []bool
		used     int64
		peak     int64
	}{
		{"fits", 100, []int64{40, 60}, []bool{true, true}, 100, 100},
		{"exact-then-refused", 100, []int64{100, 1}, []bool{true, false}, 100, 100},
		{"refused-then-fits", 50, []int64{60, 50}, []bool{false, true}, 50, 50},
		{"unlimited", 0, []int64{1 << 40, 1 << 40}, []bool{true, true}, 2 << 40, 2 << 40},
		{"zero-grab", 10, []int64{0, 10, 0}, []bool{true, true, true}, 10, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(tc.capacity)
			for i, n := range tc.grabs {
				if got := a.TryGrab(n); got != tc.ok[i] {
					t.Fatalf("TryGrab(%d) #%d = %v, want %v", n, i, got, tc.ok[i])
				}
			}
			if a.Used() != tc.used {
				t.Errorf("Used = %d, want %d", a.Used(), tc.used)
			}
			if a.Peak() != tc.peak {
				t.Errorf("Peak = %d, want %d", a.Peak(), tc.peak)
			}
		})
	}
}

func TestArenaWatermark(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		frac     float64
		want     int64
	}{
		{"default", 1000, 0.85, 850},
		{"full", 1000, 1.0, 1000},
		{"clamped-high", 1000, 1.5, 1000},
		{"clamped-low", 1000, -0.5, 0},
		{"unlimited", 0, 0.85, 0},
		{"negative-capacity", -1, 0.85, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := NewArena(tc.capacity).Watermark(tc.frac); got != tc.want {
				t.Errorf("NewArena(%d).Watermark(%v) = %d, want %d",
					tc.capacity, tc.frac, got, tc.want)
			}
		})
	}
}

// TestArenaConcurrentTryGrab hammers a bounded arena from many goroutines:
// capacity must never be exceeded (checked via Peak, which is monotone),
// refused grabs must charge nothing, and a balanced grab/free sequence
// must end at zero.
func TestArenaConcurrentTryGrab(t *testing.T) {
	const capacity = 1000
	cases := []struct {
		name    string
		workers int
		grab    int64
	}{
		{"small-grabs", 16, 7},
		{"large-grabs", 8, 400},     // contended: at most 2 fit at once
		{"oversized-grabs", 4, 600}, // at most 1 fits at once
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena(capacity)
			var wg sync.WaitGroup
			for i := 0; i < tc.workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 500; j++ {
						if a.TryGrab(tc.grab) {
							a.Free(tc.grab)
						}
					}
				}()
			}
			wg.Wait()
			if got := a.Used(); got != 0 {
				t.Errorf("Used = %d after balanced concurrent TryGrab/Free, want 0", got)
			}
			if got := a.Peak(); got > capacity {
				t.Errorf("Peak = %d exceeds capacity %d", got, capacity)
			}
		})
	}
}

// TestPageEvictRestore exercises the spill subsystem's page primitives:
// Evict frees the reservation but keeps the logical length, Restore
// re-reserves and hands back a zeroed buffer of the same size.
func TestPageEvictRestore(t *testing.T) {
	a := NewArena(1024)
	p, err := a.NewPage(256)
	if err != nil {
		t.Fatal(err)
	}
	p.Append([]byte("payload"))
	if n := p.Evict(); n != 256 {
		t.Errorf("Evict returned %d, want 256", n)
	}
	if p.Resident() {
		t.Error("page still resident after Evict")
	}
	if got := a.Used(); got != 0 {
		t.Errorf("Used = %d after Evict, want 0", got)
	}
	if got := p.Used; got != 7 {
		t.Errorf("Used length = %d after Evict, want 7 (logical size must survive)", got)
	}
	if err := a.Alloc(1024); err != nil {
		t.Fatalf("arena did not regain evicted capacity: %v", err)
	}
	if err := p.Restore(256); err == nil {
		t.Error("Restore succeeded with the arena full")
	}
	a.Free(1024)
	if err := p.Restore(256); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !p.Resident() || len(p.Buf) != 256 {
		t.Fatalf("page not resident at size 256 after Restore")
	}
	if err := p.Restore(256); err != nil {
		t.Errorf("Restore of a resident page should be a no-op, got %v", err)
	}
	if got := a.Used(); got != 256 {
		t.Errorf("Used = %d after Restore, want 256", got)
	}
	p.Release()
	if got := a.Used(); got != 0 {
		t.Errorf("Used = %d after Release, want 0", got)
	}
}

// TestAdoptPage: a page wrapped around an existing reservation releases
// that reservation exactly once.
func TestAdoptPage(t *testing.T) {
	a := NewArena(100)
	if !a.TryGrab(64) {
		t.Fatal("TryGrab(64) refused in an empty 100-byte arena")
	}
	p := a.AdoptPage(64)
	if got := a.Used(); got != 64 {
		t.Errorf("Used = %d after AdoptPage, want 64 (no double charge)", got)
	}
	p.Append([]byte("data"))
	p.Release()
	p.Release() // idempotent
	if got := a.Used(); got != 0 {
		t.Errorf("Used = %d after Release, want 0", got)
	}
}

func TestPageLifecycle(t *testing.T) {
	a := NewArena(1024)
	p, err := a.NewPage(256)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Used(); got != 256 {
		t.Errorf("Used = %d after NewPage(256), want 256", got)
	}
	p.Append([]byte("hello"))
	if got := string(p.Data()); got != "hello" {
		t.Errorf("Data = %q, want %q", got, "hello")
	}
	if got := p.Remaining(); got != 251 {
		t.Errorf("Remaining = %d, want 251", got)
	}
	p.Release()
	p.Release() // idempotent
	if got := a.Used(); got != 0 {
		t.Errorf("Used = %d after Release, want 0", got)
	}
}

func TestPageOverflowPanics(t *testing.T) {
	a := NewArena(0)
	p, err := a.NewPage(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("page overflow did not panic")
		}
	}()
	p.Append([]byte("too long"))
}

func TestPageAllocFailure(t *testing.T) {
	a := NewArena(100)
	if _, err := a.NewPage(200); !errors.Is(err, ErrNoMemory) {
		t.Errorf("NewPage over capacity: got %v, want ErrNoMemory", err)
	}
	if got := a.Used(); got != 0 {
		t.Errorf("Used = %d after failed NewPage, want 0", got)
	}
}

// TestDebugScribble: with DebugPool on, a slice kept past its page's
// Release or Evict reads the scribble byte; with it off, the stale bytes are
// still there — which is exactly why a use-after-release goes unnoticed
// without it.
func TestDebugScribble(t *testing.T) {
	a := NewArena(0)
	fill := func(p *Page) []byte {
		for i := range p.Buf {
			p.Buf[i] = 7
		}
		return p.Buf
	}
	all := func(b []byte, want byte) bool {
		for _, c := range b {
			if c != want {
				return false
			}
		}
		return true
	}

	p, _ := a.NewPage(4096)
	kept := fill(p)
	p.Release()
	if !all(kept, 7) {
		t.Fatal("a release with scribbling off changed the bytes")
	}

	DebugPool(true)
	defer DebugPool(false)
	p, _ = a.NewPage(4096)
	kept = fill(p)
	p.Release()
	if !all(kept, scribbleByte) {
		t.Fatal("a released page was pooled unscribbled")
	}
	p, _ = a.NewPage(4096)
	p.Used = len(p.Buf)
	kept = fill(p)
	p.Evict()
	if !all(kept, scribbleByte) {
		t.Fatal("an evicted page was pooled unscribbled")
	}
	if a.Used() != 0 {
		t.Fatalf("arena holds %d bytes, want 0", a.Used())
	}
}
