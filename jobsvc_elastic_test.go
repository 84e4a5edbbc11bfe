package mimir_test

// Multi-process chaos acceptance test for elastic membership: a standing
// 4-OS-process mimird mesh grows to 6 and shrinks to 3 via the admin socket
// without a restart, admits an external worker with a join token and drains
// it back out with a leave, and survives a scripted worker kill as an
// implicit leave — with every job's output byte-identical to a fixed-size
// run of the same world size, exactly one respawn, and the full membership
// history exported as an artifact (MIMIR_MEMBERSHIP_LOG).
//
// MIMIR_MEMBERSHIP_SEED varies which worker rank the kill targets; CI runs
// three fixed seeds.

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"mimir/internal/driver"
	"mimir/internal/jobsvc"
	"mimir/internal/membership"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

func elasticSpec(seed uint64) jobsvc.Spec {
	return jobsvc.Spec{Bytes: 1 << 16, Dist: "uniform", Seed: seed, Hint: true, PR: true}
}

// elasticReference is the fixed-size ground truth: elasticSpec(seed) on a
// fresh in-process world of the given size.
func elasticReference(t *testing.T, seed uint64, size int) []byte {
	t.Helper()
	world := mpi.NewWorld(mpi.Config{
		Size: size,
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
		t.Fatalf("reference seed %d size %d: %v", seed, size, err)
	}
	if len(out) == 0 {
		t.Fatalf("reference seed %d size %d produced no output", seed, size)
	}
	return out
}

func TestDaemonElasticChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process elastic chaos test skipped in -short mode")
	}
	t.Setenv(testModeEnv, "jobsvc-worker") // inherited by the forked ranks

	seed := uint64(42)
	if v := os.Getenv("MIMIR_MEMBERSHIP_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("MIMIR_MEMBERSHIP_SEED=%q: %v", v, err)
		}
		seed = n
	}
	// The kill always targets a forked worker that exists at every size this
	// test visits (the world never shrinks below 3 ranks).
	crashRank := 1 + int(seed%2)
	t.Logf("membership chaos seed %d: kill targets rank %d", seed, crashRank)

	// Admin listener first: forked workers rejoin through it after faults.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s, err := jobsvc.NewServer(jobsvc.Config{
		Mesh: jobsvc.SpawnMesh(4, addr, transport.SpawnOptions{}),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	cl := jobsvc.Dial(addr)

	submitAt := func(stage string, jobSeed uint64, wantSize int) {
		t.Helper()
		res, err := cl.Submit(elasticSpec(jobSeed), nil)
		if err != nil {
			t.Fatalf("%s: submit: %v", stage, err)
		}
		if res.Size != wantSize {
			t.Fatalf("%s: job ran at size %d, want %d", stage, res.Size, wantSize)
		}
		if !bytes.Equal(res.Output, elasticReference(t, jobSeed, wantSize)) {
			t.Fatalf("%s: output at size %d not byte-identical to the fixed-size run", stage, wantSize)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Stage 1: the bootstrap world works.
	submitAt("seed world", 1, 4)

	// Stage 2: grow 4 -> 6 without a restart; surviving workers carry over
	// via remesh directives, two fresh processes are forked.
	view, err := cl.Resize(6)
	if err != nil {
		t.Fatalf("grow to 6: %v", err)
	}
	if view.Size() != 6 {
		t.Fatalf("grow committed %d ranks, want 6", view.Size())
	}
	submitAt("grown to 6", 2, 6)

	// Stage 3: an external worker joins with a minted token -> 7 ranks.
	token, err := cl.JoinToken()
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		joinErr <- jobsvc.JoinDaemon(addr, token, transport.Options{}, jobsvc.WorkerOptions{Logf: t.Logf})
	}()
	waitFor("external join to commit", func() bool { return s.Size() == 7 })
	submitAt("external worker joined", 3, 7)

	// Stage 4: drain the joined worker back out with a voluntary leave.
	view, _, err = cl.Members()
	if err != nil {
		t.Fatal(err)
	}
	var joined membership.MemberID
	for _, mb := range view.Members {
		if mb.Kind == membership.KindJoined {
			joined = mb.ID
		}
	}
	if joined == 0 {
		t.Fatalf("no joined member in the committed view: %+v", view.Members)
	}
	view, err = cl.Leave(joined)
	if err != nil {
		t.Fatalf("leave member %d: %v", joined, err)
	}
	if view.Size() != 6 {
		t.Fatalf("leave committed %d ranks, want 6", view.Size())
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Fatalf("joined worker did not retire cleanly: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("joined worker still running after its leave committed")
	}
	submitAt("joined worker drained", 4, 6)

	// Stage 5: kill a forked worker mid-job. The job fails cleanly, the dead
	// member becomes an implicit leave, a replacement is forked (the size
	// holds), and exactly one respawn is counted.
	crash := elasticSpec(5)
	crash.Crash = crashRank
	if _, err := cl.Submit(crash, nil); err == nil {
		t.Fatal("crash job reported success; want a clean failure")
	} else {
		t.Logf("crash job failed as intended: %v", err)
	}
	waitFor("crash recovery", func() bool { return s.Respawns() == 1 })
	waitFor("mesh size restored", func() bool { return s.Size() == 6 })
	submitAt("respawned after kill", 6, 6)

	// Stage 6: shrink 6 -> 3.
	view, err = cl.Resize(3)
	if err != nil {
		t.Fatalf("shrink to 3: %v", err)
	}
	if view.Size() != 3 {
		t.Fatalf("shrink committed %d ranks, want 3", view.Size())
	}
	submitAt("shrunk to 3", 7, 3)

	// The ledger: six committed transitions (bootstrap, grow, join, leave,
	// crash, shrink) mean the epoch advanced at least to 6; exactly one
	// member was lost; the joined member both joined and left.
	view, hist, err := cl.Members()
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch < 6 {
		t.Fatalf("final epoch %d, want >= 6", view.Epoch)
	}
	implicit, joins, joinedLeft := 0, 0, false
	for _, ev := range hist {
		switch ev.Kind {
		case membership.EvImplicitLeave:
			implicit++
		case membership.EvLeave:
			// Shrinks retire members through the same leave path; the one we
			// must see by name is the drained external joiner.
			if ev.Member == joined {
				joinedLeft = true
			}
		case membership.EvPendingJoin:
			joins++
		}
	}
	if implicit != 1 {
		t.Fatalf("history records %d implicit leaves, want exactly 1 (the kill)", implicit)
	}
	if !joinedLeft {
		t.Fatalf("history has no leave for the drained external member %d", joined)
	}
	if joins != 1 {
		t.Fatalf("history records %d pending joins, want exactly 1", joins)
	}
	if n := s.Respawns(); n != 1 {
		t.Fatalf("respawns = %d at the end, want exactly 1", n)
	}

	// Event-log artifact for CI.
	if path := os.Getenv("MIMIR_MEMBERSHIP_LOG"); path != "" {
		doc := struct {
			Seed      uint64             `json:"seed"`
			CrashRank int                `json:"crash_rank"`
			Epoch     uint64             `json:"final_epoch"`
			Size      int                `json:"final_size"`
			Respawns  int                `json:"respawns"`
			History   []membership.Event `json:"history"`
		}{seed, crashRank, view.Epoch, view.Size(), s.Respawns(), hist}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("membership event log written to %s", path)
	}

	if err := cl.Shutdown(); err != nil {
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
