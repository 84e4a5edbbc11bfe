package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"mimir/internal/mpi"
	"mimir/internal/transport"
)

// tcpWorlds connects size single-rank worlds over loopback TCP, one per
// rank, as separate processes would be; the caller runs the same job on
// every world at once and closes them.
func tcpWorlds(t *testing.T, size int) []*mpi.World {
	t.Helper()
	cfg := func(rank int, addr string) transport.TCPConfig {
		return transport.TCPConfig{Addr: addr, Rank: rank, Size: size, BootstrapTimeout: 30 * time.Second}
	}
	b, err := transport.ListenTCP(cfg(0, "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]transport.Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = transport.NewTCP(cfg(r, b.Addr()))
		}(r)
	}
	trs[0], errs[0] = b.Accept()
	wg.Wait()
	worlds := make([]*mpi.World, size)
	for r, tr := range trs {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		worlds[r] = mpi.NewWorld(mpi.Config{Transport: tr})
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
	return worlds
}

// runOnTCP runs cfg on every rank of a loopback TCP mesh and returns rank
// 0's output.
func runOnTCP(t *testing.T, size int, cfg JobConfig) []byte {
	t.Helper()
	worlds := tcpWorlds(t, size)
	outs := make([][]byte, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func(r int, w *mpi.World) {
			defer wg.Done()
			outs[r], errs[r] = RunJob(w, cfg, nil)
		}(r, w)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if r > 0 && outs[r] != nil {
			t.Fatalf("rank %d returned %d output bytes; only rank 0's process holds the result", r, len(outs[r]))
		}
	}
	return outs[0]
}

// TestTeraSortOutputGolden pins terasort's canonical output to the bytes the
// driver produced when every rank still formatted its own hex lines and
// rank 0 gathered its own block too: same sha256 and length at 1, 7 and 8192
// rows, with the KV-hint on and off, on Local worlds of 1–4 ranks and on
// loopback TCP meshes of 2 and 3.
func TestTeraSortOutputGolden(t *testing.T) {
	for _, g := range []struct {
		rows   int64
		sha256 string
		length int
	}{
		{1, "67a8f864df4bd923a2c1081fcae1bdd91af01e2127a129c347a71de5583a74f9", 42},
		{7, "3d26a0e451c48928947630ed3d1432dd9d9a2e3d2c979bc2ac0f7c33a02de6f0", 294},
		{8192, "fe8d3e92a165b856e625c920993f2dbec0dba5787ca1922817ca8c6282c95f72", 344064},
	} {
		for _, hint := range []bool{true, false} {
			cfg := JobConfig{Kind: JobTeraSort, Rows: g.rows, Seed: 5, Hint: hint}
			check := func(where string, out []byte) {
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != g.sha256 || len(out) != g.length {
					t.Errorf("%d rows, hint %v, %s: %d bytes with sha256 %s, want %d bytes with %s",
						g.rows, hint, where, len(out), got, g.length, g.sha256)
				}
			}
			for size := 1; size <= 4; size++ {
				out, err := RunJob(testWorld(size), cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%d Local ranks", size), out)
			}
			for _, size := range []int{2, 3} {
				check(fmt.Sprintf("%d TCP ranks", size), runOnTCP(t, size, cfg))
			}
		}
	}
}
