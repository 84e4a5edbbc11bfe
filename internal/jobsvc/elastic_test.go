package jobsvc

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"mimir/internal/driver"
	"mimir/internal/membership"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
)

// Elastic membership scenarios on in-process meshes: grow/shrink through
// the epoch barrier, crash-as-implicit-leave, checkpoint repartitioning
// across resizes, and the crash/resize race (the double-respawn guard).

// referenceAt computes the solo ground truth for spec on a fresh in-process
// world of the given size. Output is byte-identical per (spec, size): the
// corpus splits by rank, so different sizes count different corpora.
func referenceAt(t *testing.T, spec Spec, size int) []byte {
	t.Helper()
	spec.normalize()
	cfg, err := spec.jobConfig(size)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(mpi.Config{Size: size, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
	out, err := driver.RunJob(world, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("reference run produced no output")
	}
	return out
}

// runOne submits spec and drains it to a successful settle, returning the
// final event (output, epoch, size).
func runOne(t *testing.T, s *Server, spec Spec) Event {
	t.Helper()
	_, events, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := drain(t, events)
	if final.Event != EvDone {
		t.Fatalf("job settled as %s: %s", final.Event, final.Error)
	}
	return final
}

// TestServerResizeGrowShrink walks the mesh 4 -> 6 -> 3 through Resize,
// asserting each epoch's jobs are byte-identical to a fixed-size run of the
// same world size and that elasticity never counts as a respawn.
func TestServerResizeGrowShrink(t *testing.T) {
	for _, mesh := range []struct {
		name    string
		factory MeshFactory
	}{
		{"local", LocalMesh(testRanks)},
		{"tcp", tcpMesh(testRanks)},
	} {
		t.Run(mesh.name, func(t *testing.T) {
			s := newTestServer(t, mesh.factory, 0)
			epoch0 := s.Epoch()

			for i, target := range []int{6, 3} {
				view, err := s.Resize(target)
				if err != nil {
					t.Fatalf("resize to %d: %v", target, err)
				}
				if view.Size() != target || s.Size() != target {
					t.Fatalf("resize to %d left %d ranks (view %d)", target, s.Size(), view.Size())
				}
				if view.Epoch <= epoch0 {
					t.Fatalf("resize %d did not advance the epoch (%d -> %d)", target, epoch0, view.Epoch)
				}
				epoch0 = view.Epoch

				spec := testSpec(uint64(40 + i))
				final := runOne(t, s, spec)
				if final.Size != target || final.Epoch != view.Epoch {
					t.Fatalf("job ran at size %d epoch %d, want %d at %d",
						final.Size, final.Epoch, target, view.Epoch)
				}
				if !bytes.Equal([]byte(final.Output), referenceAt(t, spec, target)) {
					t.Fatalf("output at size %d differs from the fixed-size run", target)
				}
			}

			// Resizing to the current size with nothing pending is a no-op:
			// no epoch burned, no mesh rebuilt.
			view, err := s.Resize(3)
			if err != nil {
				t.Fatal(err)
			}
			if view.Epoch != epoch0 {
				t.Fatalf("no-op resize advanced the epoch %d -> %d", epoch0, view.Epoch)
			}
			if s.Respawns() != 0 {
				t.Fatalf("elastic resizes counted as %d respawns", s.Respawns())
			}
			if _, err := s.Resize(0); err == nil {
				t.Fatal("resize to 0 ranks accepted")
			}
		})
	}
}

// TestServerResizeDrainsToBarrier pins the epoch barrier: a resize issued
// while a job runs commits only after the job settles, and the job finishes
// on the epoch and size it was dispatched at.
func TestServerResizeDrainsToBarrier(t *testing.T) {
	s := newTestServer(t, LocalMesh(testRanks), 0)
	spec := testSpec(50)
	spec.Bytes = 1 << 18 // big enough that the resize genuinely overlaps it
	_, events, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range events {
		if ev.Event == EvRunning {
			if ev.Size != testRanks {
				t.Fatalf("job dispatched at size %d, want %d", ev.Size, testRanks)
			}
			break
		}
	}

	view, err := s.Resize(6)
	if err != nil {
		t.Fatal(err)
	}
	// The barrier settles the running job — its done event is buffered on
	// its stream — before the transition touches the mesh, so by the time
	// Resize returns the final event must already be waiting.
	select {
	case final := <-events:
		if final.Event != EvDone {
			t.Fatalf("job settled as %s: %s", final.Event, final.Error)
		}
		if final.Size != testRanks {
			t.Fatalf("job finished at size %d, want the pre-resize size %d", final.Size, testRanks)
		}
		if final.Epoch >= view.Epoch {
			t.Fatalf("job epoch %d not older than the resize epoch %d", final.Epoch, view.Epoch)
		}
		if !bytes.Equal([]byte(final.Output), referenceAt(t, spec, testRanks)) {
			t.Fatal("job that overlapped the resize lost byte-identity with its fixed-size run")
		}
	default:
		t.Fatal("Resize returned before the running job settled (epoch barrier broken)")
	}

	after := runOne(t, s, testSpec(51))
	if after.Size != 6 {
		t.Fatalf("post-resize job ran at size %d, want 6", after.Size)
	}
}

// TestServerLeaveRetiresMember drains a voluntary leave: the member is gone
// from the committed view, the world is one rank smaller, and the history
// records the leave.
func TestServerLeaveRetiresMember(t *testing.T) {
	s := newTestServer(t, LocalMesh(testRanks), 0)
	view, _ := s.Members()
	leaver := view.Members[len(view.Members)-1].ID

	got, err := s.Leave(leaver)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != testRanks-1 {
		t.Fatalf("world is %d ranks after leave, want %d", got.Size(), testRanks-1)
	}
	for _, mb := range got.Members {
		if mb.ID == leaver {
			t.Fatalf("member %d still seated after leaving", leaver)
		}
	}
	_, hist := s.Members()
	sawLeave := false
	for _, ev := range hist {
		if ev.Kind == membership.EvLeave && ev.Member == leaver {
			sawLeave = true
		}
	}
	if !sawLeave {
		t.Fatalf("history has no leave event for member %d: %+v", leaver, hist)
	}

	spec := testSpec(60)
	final := runOne(t, s, spec)
	if !bytes.Equal([]byte(final.Output), referenceAt(t, spec, testRanks-1)) {
		t.Fatal("post-leave output differs from the fixed-size run")
	}
	if s.Respawns() != 0 {
		t.Fatalf("voluntary leave counted as %d respawns", s.Respawns())
	}
}

// TestServerCrashIsImplicitLeave pins the membership view of a crash: the
// dead member is recorded as an implicit leave, a fresh member fills its
// seat (the world size holds), and exactly one respawn happens.
func TestServerCrashIsImplicitLeave(t *testing.T) {
	s := newTestServer(t, tcpMesh(testRanks), 0)
	before, _ := s.Members()
	suspect := membership.MemberID(0)
	for _, mb := range before.Members {
		if mb.Rank == 2 {
			suspect = mb.ID
		}
	}

	crash := testSpec(70)
	crash.Crash = 2
	_, events, err := s.Submit(crash)
	if err != nil {
		t.Fatal(err)
	}
	if final := drain(t, events); final.Event != EvError {
		t.Fatalf("crashed job settled as %s", final.Event)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Respawns() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("mesh not respawned (respawns = %d)", s.Respawns())
		}
		time.Sleep(10 * time.Millisecond)
	}

	after, hist := s.Members()
	if after.Size() != testRanks {
		t.Fatalf("crash shrank the world to %d ranks, want %d (implicit leave + replacement)",
			after.Size(), testRanks)
	}
	for _, mb := range after.Members {
		if mb.ID == suspect {
			t.Fatalf("crashed member %d still seated", suspect)
		}
	}
	sawImplicit := false
	for _, ev := range hist {
		if ev.Kind == membership.EvImplicitLeave && ev.Member == suspect {
			sawImplicit = true
		}
	}
	if !sawImplicit {
		t.Fatalf("history has no implicit-leave for member %d: %+v", suspect, hist)
	}

	spec := testSpec(71)
	final := runOne(t, s, spec)
	if !bytes.Equal([]byte(final.Output), referenceAt(t, spec, testRanks)) {
		t.Fatal("post-crash output differs from the fixed-size run")
	}
}

// TestServerCrashRacingResizeRespawnsOnce pins satellite invariant #1: a
// crash transition whose epoch has already been superseded is a no-op. The
// resize and the crash race for the transition lock; whichever wins heals
// the world and the loser must not respawn it again.
func TestServerCrashRacingResizeRespawnsOnce(t *testing.T) {
	s := newTestServer(t, LocalMesh(testRanks), 0)
	stale := s.Epoch()
	if _, err := s.Resize(6); err != nil {
		t.Fatal(err)
	}
	// The crash observed the old epoch dying; the world has moved on.
	if err := s.transition(transOpts{from: stale, target: testRanks, crash: true, suspect: 2}); err != nil {
		t.Fatal(err)
	}
	if s.Respawns() != 0 {
		t.Fatalf("stale crash transition respawned the healed mesh (%d respawns)", s.Respawns())
	}
	if s.Size() != 6 {
		t.Fatalf("stale crash transition resized the world to %d", s.Size())
	}
}

// TestServerCheckpointRebalanceAcrossResize drives the storage half of
// elasticity end-to-end: a checkpointed job's state survives a resize via
// repartitioning, and the restored run on the new world size reproduces the
// original output — even though a fresh compute at the new size would count
// a differently-split corpus.
func TestServerCheckpointRebalanceAcrossResize(t *testing.T) {
	s := newTestServer(t, LocalMesh(testRanks), 0)
	spec := testSpec(80)
	spec.Checkpoint = "wc-elastic"

	seed := runOne(t, s, spec)
	if seed.Size != testRanks {
		t.Fatalf("seed job ran at size %d", seed.Size)
	}

	view, err := s.Resize(6)
	if err != nil {
		t.Fatal(err)
	}
	_, hist := s.Members()
	sawRebalance := false
	for _, ev := range hist {
		if ev.Kind == membership.EvRebalance && ev.Epoch == view.Epoch {
			sawRebalance = true
		}
	}
	if !sawRebalance {
		t.Fatalf("resize did not record a rebalance for epoch %d: %+v", view.Epoch, hist)
	}

	restored := runOne(t, s, spec)
	if restored.Size != 6 {
		t.Fatalf("restored job ran at size %d, want 6", restored.Size)
	}
	if !bytes.Equal([]byte(restored.Output), []byte(seed.Output)) {
		t.Fatal("restored run after repartitioning is not byte-identical to the seed run")
	}
	// Sanity: the checkpoint really carried the old corpus — a fresh compute
	// at the new size counts different bytes.
	if bytes.Equal([]byte(restored.Output), referenceAt(t, spec, 6)) {
		t.Fatal("restored output equals a fresh size-6 run; the checkpoint was not restored")
	}
}

// TestServerCheckpointNeedsInProcessMesh pins the submit-time rejection:
// checkpointed jobs need every rank in the server's process (the simulated
// PFS is not shared with worker processes).
func TestServerCheckpointNeedsInProcessMesh(t *testing.T) {
	s := newTestServer(t, tcpMesh(testRanks), 0)
	spec := testSpec(90)
	spec.Checkpoint = "nope"
	if _, _, err := s.Submit(spec); err == nil {
		t.Fatal("checkpointed job accepted on a mesh with remote ranks")
	}
}

// TestServerJoinRejectedOnFactoryMesh pins the join-time rejection for
// meshes that rebuild from a factory and fill every seat themselves.
func TestServerJoinRejectedOnFactoryMesh(t *testing.T) {
	s := newTestServer(t, LocalMesh(testRanks), 0)
	ln := serveOnLoopback(t, s)
	cl := Dial(ln)
	token, err := cl.JoinToken()
	if err != nil {
		t.Fatal(err)
	}
	if token == "" {
		t.Fatal("empty join token")
	}
	var ev Event
	conn, dec, err := cl.request(Request{Op: "join", Token: token, Addr: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := dec.Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Event != EvError {
		t.Fatalf("join on a factory mesh answered %q, want an error", ev.Event)
	}
}

// serveOnLoopback starts Serve on a fresh loopback listener and returns its
// address; shutdown (via newTestServer's cleanup) closes it.
func serveOnLoopback(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	return ln.Addr().String()
}

// TestRejoinAfterFailedBuildIsRetired: a mesh build that publishes its
// seats and then fails must not leave them behind. Once the server has given
// up on the mesh, a survivor that rejoins is told to retire instead of being
// sent to the failed epoch's dead bootstrap address.
func TestRejoinAfterFailedBuildIsRetired(t *testing.T) {
	const deadAddr = "127.0.0.1:1"
	local := LocalMesh(testRanks)
	factory := NewMeshFactory(testRanks, membership.KindLocal, func(spec MeshSpec) (Mesh, error) {
		m, err := local.Build(spec)
		if err != nil {
			return m, err
		}
		m.Resize = func(rs ResizeSpec) (Mesh, error) {
			rs.Notify(deadAddr)
			return Mesh{}, errors.New("bootstrap never completed")
		}
		return m, nil
	})
	s := newTestServer(t, factory, 0)
	admin := serveOnLoopback(t, s)
	before, _ := s.Members()
	if _, err := s.Resize(testRanks - 1); err == nil {
		t.Fatal("resize succeeded on a mesh whose every build fails")
	}
	for _, mb := range before.Members {
		if mb.Rank == 0 {
			continue
		}
		ev, err := adminRequest(admin, Request{Op: "rejoin", Member: mb.ID, Token: membership.Token(s.secret, mb.ID)}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Event != EvRetired {
			t.Fatalf("member %d (rank %d) rejoined a dead server and got %q (remesh %+v); want %q",
				mb.ID, mb.Rank, ev.Event, ev.Remesh, EvRetired)
		}
	}
}
