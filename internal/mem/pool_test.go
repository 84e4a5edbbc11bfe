package mem

import (
	"strings"
	"testing"
)

// putPanics runs PutBuf(b) and reports the misuse panic it raised, or "" if
// it returned normally.
func putPanics(b []byte) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	PutBuf(b)
	return ""
}

// TestDebugPoolCatchesDoubleRecycle pins the misuse tracker's core promise:
// returning the same buffer to the pool twice panics at the second PutBuf —
// the call site of the bug — instead of silently handing one backing array
// to two future owners.
func TestDebugPoolCatchesDoubleRecycle(t *testing.T) {
	DebugPool(true)
	defer DebugPool(false)
	b := GetBuf(128)
	PutBuf(b)
	if msg := putPanics(b); !strings.Contains(msg, "recycled twice") {
		t.Fatalf("second PutBuf: panic %q, want a recycled-twice panic", msg)
	}
	// The tracker survives the panic in a consistent state: the buffer is
	// held once.
	if held := DebugPoolHeld(); held != 1 {
		t.Fatalf("tracker holds %d buffers after double put, want 1", held)
	}
}

// TestDebugPoolAcceptsInterleavedReuse is the negative control: the legal
// get → put → get → put cycle of one buffer never trips the tracker, nor does
// a buffer whose append outgrew its class.
func TestDebugPoolAcceptsInterleavedReuse(t *testing.T) {
	DebugPool(true)
	defer DebugPool(false)
	for i := 0; i < 3; i++ {
		b := GetBuf(256)[:0]
		b = append(b, make([]byte, 200+i*100)...)
		if msg := putPanics(b); msg != "" {
			t.Fatalf("cycle %d: legal PutBuf panicked: %s", i, msg)
		}
	}
}

// TestGetBufClasses: a buffer has the asked length and at least its class's
// capacity; no class is smaller than 64 bytes.
func TestGetBufClasses(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024}} {
		b := GetBuf(tc.n)
		if len(b) != tc.n || cap(b) < tc.cap {
			t.Errorf("GetBuf(%d): len %d cap %d, want len %d cap >= %d", tc.n, len(b), cap(b), tc.n, tc.cap)
		}
		PutBuf(b)
	}
}
