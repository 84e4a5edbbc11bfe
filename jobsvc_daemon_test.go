package mimir_test

// Multi-process acceptance test for the mimird job service: a standing
// 4-OS-process rank mesh (this test binary re-executed as the daemon's
// worker ranks) sustains 20 concurrent submissions from 4 clients over the
// real admin socket, every output byte-identical to a solo in-process run,
// with zero mesh respawns — then a scripted worker crash fails only its own
// job, the daemon rebuilds the mesh exactly once, and the next job runs
// clean on the new incarnation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"mimir/internal/driver"
	"mimir/internal/jobsvc"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

const daemonRanks = 4

// runJobsvcWorker is the re-exec entry point for MIMIR_TEST_MODE=
// jobsvc-worker: join the daemon's mesh as the rank named by the
// environment and serve jobs — following the service across epochs via
// remesh directives and admin rejoins — until retired or shut down.
func runJobsvcWorker() {
	cfg, ok, err := transport.FromEnv()
	if !ok || err != nil {
		fmt.Fprintln(os.Stderr, "jobsvc worker bootstrap:", err)
		os.Exit(1)
	}
	if err := jobsvc.RunWorkerLoop(cfg, jobsvc.WorkerOptions{Exit: os.Exit}); err != nil {
		fmt.Fprintln(os.Stderr, "jobsvc worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// daemonSpec is the job every daemon-test submission runs, varied by seed.
func daemonSpec(seed uint64) jobsvc.Spec {
	return jobsvc.Spec{Bytes: 1 << 16, Dist: "uniform", Seed: seed, Hint: true, PR: true}
}

// daemonReference computes the solo ground truth for daemonSpec(seed) on a
// fresh in-process world of the daemon's size.
func daemonReference(t *testing.T, seed uint64) []byte {
	t.Helper()
	world := mpi.NewWorld(mpi.Config{
		Size: daemonRanks,
		Net:  simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9},
	})
	out, err := driver.RunJob(world, driver.JobConfig{
		Dist:       workloads.Uniform,
		TotalBytes: 1 << 16,
		Seed:       seed,
		Hint:       true,
		PR:         true,
	}, nil)
	if err != nil {
		t.Fatalf("reference seed %d: %v", seed, err)
	}
	if len(out) == 0 {
		t.Fatalf("reference seed %d produced no output", seed)
	}
	return out
}

// TestDaemonMultiProcess is the acceptance test for mimird's service model
// over real OS processes.
func TestDaemonMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process daemon test skipped in -short mode")
	}
	t.Setenv(testModeEnv, "jobsvc-worker") // inherited by the spawned ranks

	// Admin listener first: spawned workers get its address as their rejoin
	// rendezvous, so it must exist before the mesh comes up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s, err := jobsvc.NewServer(jobsvc.Config{
		Mesh: jobsvc.SpawnMesh(daemonRanks, addr, transport.SpawnOptions{}),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	// Phase 1: 20 submissions from 4 concurrent clients through the real
	// admin socket. Seeds repeat across clients on purpose — equal specs
	// must produce equal bytes no matter how the jobs interleave.
	const clients, jobsPerClient = 4, 5
	refs := make(map[uint64][]byte)
	for seed := uint64(0); seed < jobsPerClient; seed++ {
		refs[seed] = daemonReference(t, seed)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := jobsvc.Dial(addr)
			for i := 0; i < jobsPerClient; i++ {
				seed := uint64(i)
				res, err := cl.Submit(daemonSpec(seed), nil)
				if err != nil {
					errs[c] = fmt.Errorf("client %d job %d: %w", c, i, err)
					return
				}
				if !bytes.Equal(res.Output, refs[seed]) {
					errs[c] = fmt.Errorf("client %d job %d (id %d): output not byte-identical to solo reference (%d vs %d bytes)",
						c, i, res.Job, len(res.Output), len(refs[seed]))
					return
				}
				var doc struct {
					Series []struct {
						Name  string `json:"name"`
						Count int    `json:"count"`
					} `json:"series"`
				}
				if err := json.Unmarshal(res.Metrics, &doc); err != nil {
					errs[c] = fmt.Errorf("client %d job %d: bad metrics payload: %w", c, i, err)
					return
				}
				ranks := 0
				for _, se := range doc.Series {
					if se.Name == "rank-sec" {
						ranks = se.Count
					}
				}
				if ranks != daemonRanks {
					errs[c] = fmt.Errorf("client %d job %d: metrics cover %d ranks, want %d", c, i, ranks, daemonRanks)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("daemon did not settle 20 concurrent submissions in time")
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Respawns(); n != 0 {
		t.Fatalf("healthy phase respawned the mesh %d times, want 0", n)
	}

	// Phase 2: kill worker rank 2 mid-job. The affected job fails with a
	// clean error, the daemon rebuilds the mesh exactly once, and the next
	// job is again byte-identical on the fresh incarnation.
	crash := daemonSpec(1)
	crash.Crash = 2
	if _, err := jobsvc.Dial(addr).Submit(crash, nil); err == nil {
		t.Fatal("crash job reported success; want a clean failure")
	} else {
		t.Logf("crash job failed as intended: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Respawns() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("mesh not respawned after worker death (respawns = %d)", s.Respawns())
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, err := jobsvc.Dial(addr).Submit(daemonSpec(3), nil)
	if err != nil {
		t.Fatalf("post-respawn job: %v", err)
	}
	if !bytes.Equal(res.Output, refs[3]) {
		t.Fatal("post-respawn job output not byte-identical to solo reference")
	}
	if n := s.Respawns(); n != 1 {
		t.Fatalf("respawns = %d after recovery, want exactly 1", n)
	}

	// Drain: a client-visible shutdown closes the admin loop cleanly.
	if err := jobsvc.Dial(addr).Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after shutdown, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}

// TestDaemonMidIterationFault kills a worker OS process between PageRank
// rounds — after two rounds of rank exchanges have been shuffled and reduced
// on the standing mesh, not at job start. The crashed job fails with a clean
// error, the daemon rebuilds the process mesh exactly once, and resubmitting
// the same spec on the fresh incarnation reproduces the solo in-process run
// byte for byte: nothing the dead iteration half-did leaks into the answer.
func TestDaemonMidIterationFault(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process daemon test skipped in -short mode")
	}
	t.Setenv(testModeEnv, "jobsvc-worker")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s, err := jobsvc.NewServer(jobsvc.Config{
		Mesh: jobsvc.SpawnMesh(daemonRanks, addr, transport.SpawnOptions{}),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	// The solo ground truth, and a clean daemon run to anchor it before any
	// fault: PageRank at scale 8 iterates to convergence (well past round 3).
	spec := jobsvc.Spec{Job: driver.JobPageRank, Scale: 8, Seed: 17, Hint: true, PR: true}
	world := mpi.NewWorld(mpi.Config{
		Size: daemonRanks,
		Net:  simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9},
	})
	want, err := driver.RunJob(world, driver.JobConfig{
		Kind: driver.JobPageRank, Scale: 8, Seed: 17, Hint: true, PR: true,
	}, nil)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	res, err := jobsvc.Dial(addr).Submit(spec, nil)
	if err != nil {
		t.Fatalf("clean pagerank job: %v", err)
	}
	if !bytes.Equal(res.Output, want) {
		t.Fatalf("daemon pagerank output not byte-identical to solo reference (%d vs %d bytes)",
			len(res.Output), len(want))
	}

	// Kill worker rank 2 between rounds 2 and 3: the process exits at the
	// round barrier, mid-iteration, with earlier rounds' state live on the
	// mesh.
	crash := spec
	crash.Crash = 2
	crash.CrashRound = 3
	if _, err := jobsvc.Dial(addr).Submit(crash, nil); err == nil {
		t.Fatal("mid-iteration crash job reported success; want a clean failure")
	} else {
		t.Logf("mid-iteration crash failed as intended: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Respawns() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("mesh not respawned after mid-iteration worker death (respawns = %d)", s.Respawns())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The fresh incarnation re-runs the same spec from scratch.
	res, err = jobsvc.Dial(addr).Submit(spec, nil)
	if err != nil {
		t.Fatalf("post-respawn pagerank job: %v", err)
	}
	if !bytes.Equal(res.Output, want) {
		t.Fatal("post-respawn pagerank output not byte-identical to solo reference")
	}
	if n := s.Respawns(); n != 1 {
		t.Fatalf("respawns = %d after recovery, want exactly 1", n)
	}

	if err := jobsvc.Dial(addr).Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after shutdown, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}
