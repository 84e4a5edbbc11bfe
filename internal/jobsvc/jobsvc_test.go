package jobsvc

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mimir/internal/driver"
	"mimir/internal/membership"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/simtime"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

const testRanks = 4

// reference computes the solo ground truth for spec: the same driver job on
// a fresh in-process world of the mesh's size.
func reference(t *testing.T, spec Spec) []byte {
	t.Helper()
	spec.normalize()
	cfg, err := spec.jobConfig(testRanks)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(mpi.Config{Size: testRanks, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
	out, err := driver.RunJob(world, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("reference run produced no output")
	}
	return out
}

func testSpec(seed uint64) Spec {
	return Spec{Bytes: 1 << 16, Seed: seed, Hint: true, PR: true}
}

// tcpMesh is a MeshFactory building an in-process TCP mesh: one *TCP per
// rank over real loopback sockets, with worker ranks running RunWorker
// control loops on their own goroutines — the full daemon control plane
// without forking processes. Every incarnation is rebuilt from scratch at
// the spec's size and epoch (goroutine workers are free, like LocalMesh).
func tcpMesh(size int) MeshFactory {
	return NewMeshFactory(size, membership.KindLocal, func(spec MeshSpec) (Mesh, error) {
		n := spec.Size
		if n == 0 {
			n = size
		}
		cfg := func(rank int, addr string) transport.TCPConfig {
			return transport.TCPConfig{
				Addr: addr, Rank: rank, Size: n, Epoch: spec.Epoch,
				BootstrapTimeout: 30 * time.Second,
			}
		}
		b, err := transport.ListenTCP(cfg(0, "127.0.0.1:0"))
		if err != nil {
			return Mesh{}, err
		}
		trs := make([]transport.Transport, n)
		errs := make([]error, n)
		var bwg sync.WaitGroup
		for r := 1; r < n; r++ {
			bwg.Add(1)
			go func(r int) {
				defer bwg.Done()
				trs[r], errs[r] = transport.NewTCP(cfg(r, b.Addr()))
			}(r)
		}
		trs[0], errs[0] = b.Accept()
		bwg.Wait()
		for _, err := range errs {
			if err != nil {
				return Mesh{}, err
			}
		}
		var wwg sync.WaitGroup
		for r := 1; r < n; r++ {
			wwg.Add(1)
			go func(r int) {
				defer wwg.Done()
				// Remesh directives and mesh death both end the incarnation;
				// either way this goroutine is done and Close reaps it.
				RunWorker(trs[r], r, WorkerOptions{})
				trs[r].Close()
			}(r)
		}
		return Mesh{Transport: trs[0], Close: func() {
			// Abort propagates to the worker ranks' transports, unblocking
			// their control loops; a plain Close would leave them parked in
			// recv forever (nobody sends shutdown directives to a mesh that
			// is being replaced).
			trs[0].Abort(fmt.Errorf("%w: jobsvc: mesh closed", transport.ErrAborted))
			trs[0].Close()
			wwg.Wait()
		}}, nil
	})
}

func newTestServer(t *testing.T, factory MeshFactory, memBytes int64) *Server {
	t.Helper()
	s, err := NewServer(Config{Mesh: factory, MemBytes: memBytes, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// drain consumes a job's event stream to settlement, asserting the
// per-job order queued → running → done|error, and returns the final event.
func drain(t *testing.T, events <-chan Event) Event {
	t.Helper()
	var seen []string
	var last Event
	timeout := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				want := []string{EvQueued, EvRunning, EvDone}
				if last.Event == EvError {
					want[2] = EvError
				}
				if strings.Join(seen, ",") != strings.Join(want, ",") {
					t.Fatalf("event order %v, want %v", seen, want)
				}
				return last
			}
			seen = append(seen, ev.Event)
			last = ev
		case <-timeout:
			t.Fatalf("job events stalled after %v", seen)
		}
	}
}

// TestServerRunsJobOnLocalMesh is the smallest end-to-end check: one job
// through the queue produces the solo run's bytes and a full metrics
// distribution.
func TestServerRunsJobOnLocalMesh(t *testing.T) {
	spec := testSpec(3)
	want := reference(t, spec)
	s := newTestServer(t, LocalMesh(testRanks), 0)
	_, events, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := drain(t, events)
	if final.Event != EvDone {
		t.Fatalf("job settled as %s: %s", final.Event, final.Error)
	}
	if !bytes.Equal([]byte(final.Output), want) {
		t.Fatalf("daemon output differs from solo run: %d vs %d bytes", len(final.Output), len(want))
	}
	sum := metrics.NewSummary()
	if err := sum.MergeJSON(bytes.NewReader(final.Metrics)); err != nil {
		t.Fatalf("metrics payload: %v", err)
	}
	if rs := sum.Get("rank-sec"); rs == nil || rs.Count != testRanks {
		t.Fatalf("metrics distribution does not cover all ranks: %+v", rs)
	}
	if s.Respawns() != 0 {
		t.Fatalf("healthy run respawned the mesh %d times", s.Respawns())
	}
}

// TestServerConcurrentSubmissions is the multi-tenant acceptance test on the
// in-process mesh: 20 jobs from 4 concurrent clients through the real admin
// socket, every output byte-identical to its solo run, zero respawns.
func TestServerConcurrentSubmissions(t *testing.T) {
	const clients, jobsPerClient = 4, 5
	specs := make([]Spec, clients*jobsPerClient)
	refs := make([][]byte, len(specs))
	for i := range specs {
		specs[i] = testSpec(uint64(100 + i))
		specs[i].MemBytes = 16 << 20
		refs[i] = reference(t, specs[i])
	}
	s := newTestServer(t, LocalMesh(testRanks), 256<<20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := Dial(ln.Addr().String())
			for k := 0; k < jobsPerClient; k++ {
				i := c*jobsPerClient + k
				res, err := cl.Submit(specs[i], nil)
				if err != nil {
					errs[i] = err
					continue
				}
				if !bytes.Equal(res.Output, refs[i]) {
					errs[i] = fmt.Errorf("job %d output differs from its solo run: %d vs %d bytes",
						res.Job, len(res.Output), len(refs[i]))
				}
			}
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submission %d: %v", i, err)
		}
	}
	st, err := Dial(ln.Addr().String()).Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Respawns != 0 {
		t.Fatalf("healthy service respawned the mesh %d times", st.Respawns)
	}
	if len(st.Jobs) != len(specs) {
		t.Fatalf("status lists %d jobs, want %d", len(st.Jobs), len(specs))
	}
	for _, js := range st.Jobs {
		if js.State != StateDone {
			t.Errorf("job %d settled as %s: %s", js.Job, js.State, js.Error)
		}
	}
	if err := Dial(ln.Addr().String()).Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServerAdmissionQueuesNotAborts pins the admission contract: a job
// whose memory floor does not fit alongside the running set waits in the
// queue and runs after the memory frees — it is neither rejected nor
// started into guaranteed OOM.
func TestServerAdmissionQueuesNotAborts(t *testing.T) {
	const cap = 32 << 20
	s := newTestServer(t, LocalMesh(testRanks), cap)

	hog := testSpec(1)
	hog.MemBytes = cap // admits alone, blocks everything behind it
	second := testSpec(2)
	second.MemBytes = cap

	_, hogEvents, err := s.Submit(hog)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the hog runs so the second job's admission really collides.
	for ev := range hogEvents {
		if ev.Event == EvRunning {
			break
		}
	}
	_, secondEvents, err := s.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	// The server settles a job — final event buffered on its stream — and
	// frees its memory floor in one critical section; only then can the
	// scheduler admit the head of the queue and emit its running event. So
	// at the moment the second job's running event is observed, the hog's
	// done event must already be waiting on its stream.
	sawRunning := false
	for ev := range secondEvents {
		switch ev.Event {
		case EvRunning:
			sawRunning = true
			select {
			case hev, ok := <-hogEvents:
				if !ok || hev.Event != EvDone {
					t.Fatalf("hog stream at second job's admission: %+v (open=%v), want %s", hev, ok, EvDone)
				}
			default:
				t.Fatal("second job admitted before the hog settled and freed its floor")
			}
		case EvError:
			t.Fatalf("queued job failed instead of waiting: %s", ev.Error)
		}
	}
	if !sawRunning {
		t.Fatal("second job settled without ever reporting running")
	}
	for range hogEvents {
		// drained; the stream closes right after its final event
	}

	// A floor that can never fit is refused up front, not queued forever.
	impossible := testSpec(3)
	impossible.MemBytes = cap + 1
	if _, _, err := s.Submit(impossible); err == nil {
		t.Fatal("a job floor above the arena capacity was accepted")
	}
}

// TestServerCrashRespawnsMesh drives the fatal-fault path on the in-process
// mesh: a scripted rank crash fails the running job with a clean error, the
// server rebuilds the mesh exactly once, and the next job runs correctly on
// the new incarnation.
func TestServerCrashRespawnsMesh(t *testing.T) {
	for _, mesh := range []struct {
		name    string
		factory MeshFactory
	}{
		{"local", LocalMesh(testRanks)},
		{"tcp", tcpMesh(testRanks)},
	} {
		t.Run(mesh.name, func(t *testing.T) {
			s := newTestServer(t, mesh.factory, 0)

			crash := testSpec(7)
			crash.Crash = 2
			_, events, err := s.Submit(crash)
			if err != nil {
				t.Fatal(err)
			}
			final := drain(t, events)
			if final.Event != EvError {
				t.Fatalf("crashed job settled as %s", final.Event)
			}
			if !strings.Contains(final.Error, "aborted") && !strings.Contains(final.Error, "crash") {
				t.Fatalf("crash error is not clean: %q", final.Error)
			}

			deadline := time.Now().Add(30 * time.Second)
			for s.Respawns() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("mesh not respawned (respawns = %d)", s.Respawns())
				}
				time.Sleep(10 * time.Millisecond)
			}

			after := testSpec(8)
			want := reference(t, after)
			_, events, err = s.Submit(after)
			if err != nil {
				t.Fatal(err)
			}
			final = drain(t, events)
			if final.Event != EvDone {
				t.Fatalf("job on respawned mesh settled as %s: %s", final.Event, final.Error)
			}
			if !bytes.Equal([]byte(final.Output), want) {
				t.Fatal("output on the respawned mesh differs from the solo run")
			}
			if s.Respawns() != 1 {
				t.Fatalf("respawns = %d after recovery, want exactly 1", s.Respawns())
			}
		})
	}
}

// TestServerTCPMeshConcurrentJobs runs the full control plane — start
// broadcasts, per-job channels over real sockets, metrics gathers — with
// interleaved jobs on the in-process TCP mesh.
func TestServerTCPMeshConcurrentJobs(t *testing.T) {
	const jobs = 6
	s := newTestServer(t, tcpMesh(testRanks), 0)
	specs := make([]Spec, jobs)
	refs := make([][]byte, jobs)
	for i := range specs {
		specs[i] = testSpec(uint64(500 + i))
		refs[i] = reference(t, specs[i])
	}
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, events, err := s.Submit(specs[i])
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			final := drain(t, events)
			if final.Event != EvDone {
				t.Errorf("job %d settled as %s: %s", i, final.Event, final.Error)
				return
			}
			if !bytes.Equal([]byte(final.Output), refs[i]) {
				t.Errorf("job %d output differs from its solo run", i)
			}
			sum := metrics.NewSummary()
			if err := sum.MergeJSON(bytes.NewReader(final.Metrics)); err != nil {
				t.Errorf("job %d metrics: %v", i, err)
			} else if rs := sum.Get("rank-sec"); rs == nil || rs.Count != testRanks {
				t.Errorf("job %d metrics cover %+v ranks, want %d", i, rs, testRanks)
			}
		}(i)
	}
	wg.Wait()
	if s.Respawns() != 0 {
		t.Fatalf("healthy concurrent jobs respawned the mesh %d times", s.Respawns())
	}
}

// TestSpecValidation pins the submit-time rejections.
func TestSpecValidation(t *testing.T) {
	s := newTestServer(t, LocalMesh(testRanks), 0)
	negSkew := -0.5
	bad := []Spec{
		{Dist: "zipf"},
		{MemBytes: -1},
		{Crash: testRanks}, // out of range
		{Zipf: &negSkew},
		{Contention: 1.5},
		{Partitioner: "range"},
		{Job: "sorting"},                            // unknown kind
		{Job: "pagerank", CrashRound: 2},            // crash_round without a crash rank
		{Crash: 2, CrashRound: 2},                   // wordcount has no rounds
		{Job: "terasort", Crash: 2, CrashRound: 2},  // single-stage job has no rounds
		{Job: "pagerank", Crash: 2, CrashRound: -1}, // negative round
		{Job: "pagerank", Checkpoint: "pr"},         // checkpoint is wordcount-only
	}
	for _, spec := range bad {
		if _, _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted, want rejection", spec)
		}
	}
	var _ = workloads.Uniform // keep the import honest if specs change
}

// mrcSpecs is one small spec per multi-round job kind, every optimization
// the kind supports switched on.
func mrcSpecs() []Spec {
	return []Spec{
		{Job: driver.JobTeraSort, Rows: 1 << 11, Seed: 4, Hint: true},
		{Job: driver.JobPageRank, Scale: 7, Seed: 4, Hint: true, PR: true},
		{Job: driver.JobKMeans, Points: 1 << 10, K: 4, Dims: 2, Seed: 4, Hint: true, PR: true},
		{Job: driver.JobBFS, Scale: 7, Seed: 4, Hint: true},
	}
}

// TestServerRunsMRCJobs submits every multi-round job kind through the full
// service path — queue, start broadcast, per-job mux channel, metrics gather
// — and holds each output against its solo run.
func TestServerRunsMRCJobs(t *testing.T) {
	s := newTestServer(t, tcpMesh(testRanks), 0)
	for _, spec := range mrcSpecs() {
		spec := spec
		t.Run(spec.Job, func(t *testing.T) {
			want := reference(t, spec)
			_, events, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			final := drain(t, events)
			if final.Event != EvDone {
				t.Fatalf("job settled as %s: %s", final.Event, final.Error)
			}
			if !bytes.Equal([]byte(final.Output), want) {
				t.Fatalf("daemon output differs from solo run: %d vs %d bytes", len(final.Output), len(want))
			}
			sum := metrics.NewSummary()
			if err := sum.MergeJSON(bytes.NewReader(final.Metrics)); err != nil {
				t.Fatal(err)
			} else if rs := sum.Get("rank-sec"); rs == nil || rs.Count != testRanks {
				t.Fatalf("metrics cover %+v ranks, want %d", rs, testRanks)
			}
		})
	}
	if s.Respawns() != 0 {
		t.Fatalf("healthy MRC jobs respawned the mesh %d times", s.Respawns())
	}
}

// TestServerMidIterationCrash kills a rank between PageRank rounds — after
// round CrashRound-1's exchange has been shuffled and reduced, not at job
// start — and checks the service's fault story holds mid-iteration: only the
// faulted job fails, the mesh respawns exactly once, and the clean resubmit
// on the new incarnation is byte-identical to the solo run.
func TestServerMidIterationCrash(t *testing.T) {
	for _, mesh := range []struct {
		name    string
		factory MeshFactory
	}{
		{"local", LocalMesh(testRanks)},
		{"tcp", tcpMesh(testRanks)},
	} {
		t.Run(mesh.name, func(t *testing.T) {
			spec := mrcSpecs()[1] // pagerank: iterates well past round 3
			want := reference(t, spec)
			s := newTestServer(t, mesh.factory, 0)

			crash := spec
			crash.Crash = 2
			crash.CrashRound = 3
			_, events, err := s.Submit(crash)
			if err != nil {
				t.Fatal(err)
			}
			final := drain(t, events)
			if final.Event != EvError {
				t.Fatalf("mid-iteration crash settled as %s", final.Event)
			}
			if !strings.Contains(final.Error, "aborted") && !strings.Contains(final.Error, "crash") {
				t.Fatalf("crash error is not clean: %q", final.Error)
			}
			t.Logf("crashed as intended: %s", final.Error)

			deadline := time.Now().Add(30 * time.Second)
			for s.Respawns() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("mesh not respawned (respawns = %d)", s.Respawns())
				}
				time.Sleep(10 * time.Millisecond)
			}

			_, events, err = s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			final = drain(t, events)
			if final.Event != EvDone {
				t.Fatalf("job on respawned mesh settled as %s: %s", final.Event, final.Error)
			}
			if !bytes.Equal([]byte(final.Output), want) {
				t.Fatal("output on the respawned mesh differs from the solo run")
			}
		})
	}
}

// TestServerZipfSamplePartitionerJob runs a zipf-skewed, sample-partitioned
// job through the full service path (queue, mux channel, collectives on the
// job channel) and checks its output matches both the solo run and a
// hash-partitioned job over the same corpus.
func TestServerZipfSamplePartitionerJob(t *testing.T) {
	skew := 1.1
	spec := Spec{Bytes: 1 << 16, Seed: 21, Hint: true, PR: true,
		Zipf: &skew, Contention: 0.1, Partitioner: "sample"}
	want := reference(t, spec)
	hashSpec := spec
	hashSpec.Partitioner = "hash"
	hashWant := reference(t, hashSpec)
	if !bytes.Equal(want, hashWant) {
		t.Fatal("sample and hash solo runs disagree on canonical output")
	}
	s := newTestServer(t, LocalMesh(testRanks), 0)
	_, events, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := drain(t, events)
	if final.Event != EvDone {
		t.Fatalf("job settled as %s: %s", final.Event, final.Error)
	}
	if !bytes.Equal([]byte(final.Output), want) {
		t.Fatalf("daemon output differs from solo run: %d vs %d bytes", len(final.Output), len(want))
	}
}

// TestSpecFieldsReachJobConfig is the drift guard for the wire form: every
// exported Spec field, set non-zero on its own, must change the JobConfig
// the mapper produces — or be one of the fields the service itself consumes
// (execJob's crash hooks and checkpoint file system). A field added to Spec
// and forgotten in jobConfig fails here, not in a benchmark six PRs later.
func TestSpecFieldsReachJobConfig(t *testing.T) {
	serviceOnly := map[string]bool{"Crash": true, "CrashRound": true, "Checkpoint": true}
	strs := map[string]string{"Job": driver.JobPageRank, "Dist": "wikipedia", "Partitioner": "sample"}
	base, err := Spec{}.jobConfig(testRanks)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if serviceOnly[f.Name] {
			continue
		}
		var spec Spec
		v := reflect.ValueOf(&spec).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			if strs[f.Name] == "" {
				t.Fatalf("Spec.%s: new string field; give the guard a valid value for it", f.Name)
			}
			v.SetString(strs[f.Name])
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(1 << 20)
		case reflect.Uint64:
			v.SetUint(1 << 20)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Ptr:
			skew := 1.5
			v.Set(reflect.ValueOf(&skew))
		default:
			t.Fatalf("Spec.%s: kind %s not handled by the guard", f.Name, v.Kind())
		}
		cfg, err := spec.jobConfig(testRanks)
		if err != nil {
			t.Fatalf("Spec.%s: %v", f.Name, err)
		}
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("Spec.%s does not reach driver.JobConfig: map it in jobConfig or list it as service-only", f.Name)
		}
	}
}
