package mimir_test

// Multi-process transport tests. TestMain doubles as the worker entry point:
// when the test binary finds the MIMIR_TCP_* environment it was re-executed
// by transport.SpawnLocal as a worker rank, joins the parent's world, runs
// the job named by MIMIR_TEST_MODE, and exits — so one `go test` process
// plus its forked copies form a real multi-OS-process world.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"mimir"
	"mimir/internal/driver"
	"mimir/internal/metrics"
	"mimir/internal/transport/conformance"
	"mimir/internal/workloads"
)

const testModeEnv = "MIMIR_TEST_MODE"

// tcpTestConfig is the corpus every process of the wordcount tests runs;
// parent and workers must agree on it.
var tcpTestConfig = driver.JobConfig{
	Dist:       workloads.Wikipedia,
	TotalBytes: 1 << 18,
	Seed:       7,
	Hint:       true,
	PR:         true,
}

func TestMain(m *testing.M) {
	// The jobsvc daemon worker joins the mesh raw — no World, no job — and
	// runs the control loop until the daemon shuts it down, so it must be
	// dispatched before TCPWorldFromEnv claims the bootstrap connection.
	if os.Getenv(testModeEnv) == "jobsvc-worker" {
		runJobsvcWorker()
		return
	}
	world, ok, err := mimir.TCPWorldFromEnv()
	if !ok {
		os.Exit(m.Run())
	}
	// Worker mode: this process is one rank of a test's world.
	mode := os.Getenv(testModeEnv)
	if err != nil {
		// A rank still in the mesh's initial barrier when a peer's link
		// fails aborts there: for a world meant to abort, that is the abort.
		if mode == "wordcount-abort" && errors.Is(err, mimir.ErrAborted) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "worker bootstrap:", err)
		os.Exit(1)
	}
	switch mode {
	case "wordcount":
		if _, err := driver.RunJob(world, tcpTestConfig, nil); err != nil {
			fmt.Fprintln(os.Stderr, "worker wordcount:", err)
			os.Exit(1)
		}
		world.Close()
		os.Exit(0)
	case "wordcount-abort":
		// A scheduled fault kills one rank mid-job; every rank — the killed
		// one and the survivors — must come back with ErrAborted.
		if _, err := driver.RunJob(world, tcpTestConfig, nil); errors.Is(err, mimir.ErrAborted) {
			os.Exit(0)
		} else {
			fmt.Fprintf(os.Stderr, "worker wordcount-abort: err = %v, want ErrAborted\n", err)
			os.Exit(1)
		}
	case "die":
		err := world.Run(func(c *mimir.Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 2 {
				// Simulate a crashed worker: no Bye, no connection teardown,
				// just gone — peers must detect it, not hang.
				os.Exit(3)
			}
			_, _, _, err := c.Recv(0, 999) // parked until the abort arrives
			return err
		})
		if errors.Is(err, mimir.ErrAborted) {
			os.Exit(0) // survivor saw the abort, as it should
		}
		fmt.Fprintln(os.Stderr, "worker die-mode:", err)
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "unknown %s=%q\n", testModeEnv, mode)
		os.Exit(1)
	}
}

// TestTCPWordCountMatchesInProcess is the acceptance test for the TCP
// transport: the same WordCount over 4 OS processes must produce output
// byte-identical to the 4-rank in-process run.
func TestTCPWordCountMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	const ranks = 4
	want, err := driver.RunJob(mimir.NewWorld(ranks), tcpTestConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("in-process run produced no output")
	}

	t.Setenv(testModeEnv, "wordcount")
	world, children, err := mimir.SpawnTCPWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.RunJob(world, tcpTestConfig, nil)
	if err != nil {
		children.Kill()
		t.Fatal(err)
	}
	if err := world.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := children.Wait(); err != nil {
		t.Fatalf("worker process failed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("multi-process output differs from in-process output: %d vs %d bytes", len(got), len(want))
	}
}

// TestTCPWordCountResetAbortsThenReruns is the fail-stop acceptance test: a
// 4-process TCP WordCount with a connection reset injected on every rank's
// links fails fast — rank 0 with an ErrAborted naming a peer rank, the
// workers with ErrAborted too — and its metrics count the link failure.
// Then the re-run on a fresh clean world is byte-identical to the
// fault-free in-process run.
func TestTCPWordCountResetAbortsThenReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	const ranks = 4
	want, err := driver.RunJob(mimir.NewWorld(ranks), tcpTestConfig, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Setenv(testModeEnv, "wordcount-abort")
	start := time.Now()
	world, children, err := mimir.SpawnTCPWorldOpts(ranks, mimir.TCPOptions{
		Faults: "seed:42,reset:all@frame1",
	})
	// A worker that finishes the mesh's initial barrier resets its links at
	// its first job frame, which can abort rank 0 while rank 0 is still in
	// that barrier: then the world never comes up, and that is the abort.
	sum := metrics.NewSummary()
	if err == nil {
		_, err = driver.RunJob(world, tcpTestConfig, sum)
	}
	took := time.Since(start)
	if world != nil {
		world.Close()
		if lf := sum.Get("net-link-failures"); lf == nil || lf.Max < 1 {
			t.Errorf("metrics count no link failure; the injected resets exercised nothing (series: %v)", sum.Names())
		}
		if werr := children.Wait(); werr != nil {
			t.Fatalf("worker did not see a clean abort: %v", werr)
		}
	}
	if took > conformance.FailStopBound {
		t.Errorf("faulted run took %v to fail, want at most %v", took, conformance.FailStopBound)
	}
	if !errors.Is(err, mimir.ErrAborted) || !conformance.NamesPeer(err, 0, ranks) {
		t.Errorf("rank 0: faulted run err = %v, want ErrAborted naming a peer rank", err)
	}

	t.Setenv(testModeEnv, "wordcount")
	world, children, err = mimir.SpawnTCPWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.RunJob(world, tcpTestConfig, nil)
	if err != nil {
		children.Kill()
		t.Fatal(err)
	}
	if err := world.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := children.Wait(); err != nil {
		t.Fatalf("worker process failed: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-run output differs from fault-free run: %d vs %d bytes", len(got), len(want))
	}
}

// TestTCPInjectedKillAbortsSurvivors schedules a permanent process death via
// the fault injector: rank 2 severs all links at its second collective round.
// The survivors must surface ErrAborted — quickly, not after the full
// bootstrap/I/O deadlines.
func TestTCPInjectedKillAbortsSurvivors(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	const ranks = 4
	t.Setenv(testModeEnv, "wordcount-abort")
	world, children, err := mimir.SpawnTCPWorldOpts(ranks, mimir.TCPOptions{
		Faults: "seed:42,kill:rank2@round1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer children.Kill()

	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := driver.RunJob(world, tcpTestConfig, nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, mimir.ErrAborted) {
			t.Fatalf("rank 0 got %v, want ErrAborted", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rank 0 still blocked 30s after the scheduled kill")
	}
	t.Logf("abort surfaced on rank 0 %v after launch", time.Since(start).Round(time.Millisecond))
	world.Close()
	// Every worker (the killed rank included) observed ErrAborted and
	// exited cleanly — the kill is injected, not an os.Exit.
	if err := children.Wait(); err != nil {
		t.Fatalf("worker did not see a clean abort: %v", err)
	}
}

// TestTCPWorkerDeathSurfacesErrAborted kills one worker process mid-job and
// asserts every surviving rank's pending communication fails with
// ErrAborted instead of hanging.
func TestTCPWorkerDeathSurfacesErrAborted(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	const ranks = 4
	t.Setenv(testModeEnv, "die")
	world, children, err := mimir.SpawnTCPWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer children.Kill()

	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		errc <- world.Run(func(c *mimir.Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			_, _, _, err := c.Recv(0, 999) // rank 2's death must release this
			return err
		})
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, mimir.ErrAborted) {
			t.Fatalf("rank 0 got %v, want ErrAborted", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rank 0 still blocked 30s after worker death")
	}
	t.Logf("abort surfaced on rank 0 %v after launch", time.Since(start).Round(time.Millisecond))

	// The dying rank exits 3; the survivors exit 0 having seen ErrAborted.
	err = children.Wait()
	if err == nil {
		t.Fatal("children.Wait: no error from the killed worker")
	}
}
