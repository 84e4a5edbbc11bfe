package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestCompressPayloadRoundTrip pins the compressed-payload envelope:
// [u32 rawLen][deflate stream], lossless, and refused when it does not
// shrink the payload.
func TestCompressPayloadRoundTrip(t *testing.T) {
	cases := [][]byte{
		bytes.Repeat([]byte("wordcount shuffles compress well "), 64),
		bytes.Repeat([]byte{0}, compressMinSize),
		[]byte("short but repetitive repetitive repetitive repetitive repetitive repetitive repetitive repetitive repetitive"),
	}
	for i, data := range cases {
		comp, ok := compressPayload(nil, data)
		if !ok {
			t.Fatalf("case %d: %d redundant bytes did not compress", i, len(data))
		}
		if len(comp) >= len(data) {
			t.Fatalf("case %d: compressed %d -> %d", i, len(data), len(comp))
		}
		raw, err := decompressPayload(comp)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(raw, data) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
	// Incompressible input (already-deflated bytes) must report !ok so the
	// sender keeps the raw payload.
	pre, _ := compressPayload(nil, bytes.Repeat([]byte("abc"), 2000))
	if _, ok := compressPayload(nil, pre[4:]); ok {
		t.Fatal("deflate output claimed to compress further")
	}
}

// TestTCPCompressedExchange is the basic smoke: a Compress=on mesh moving
// compressible and incompressible payloads delivers both intact (the latter
// travel uncompressed via the per-frame fallback).
func TestTCPCompressedExchange(t *testing.T) {
	const size = 2
	trs := startMeshCfg(t, size, func(rank int, cfg *TCPConfig) {
		cfg.Compress = true
	})
	incompressible := make([]byte, 4096)
	s := uint64(1)
	for i := range incompressible {
		s = s*6364136223846793005 + 1442695040888963407
		incompressible[i] = byte(s >> 56)
	}
	payloads := [][]byte{
		bytes.Repeat([]byte("compress me "), 512),
		incompressible,
		[]byte("tiny"), // below compressMinSize: always raw
	}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := trs[r].Endpoint(r)
			for round, p := range payloads {
				send := make([][]byte, size)
				for dst := range send {
					send[dst] = p
				}
				recv, _, err := ep.Exchange(send, 0)
				if err != nil {
					errs[r] = fmt.Errorf("round %d: %w", round, err)
					return
				}
				for src := range recv {
					if !bytes.Equal(recv[src], p) {
						errs[r] = fmt.Errorf("round %d: payload from %d damaged", round, src)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
