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
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker bootstrap:", err)
		os.Exit(1)
	}
	switch mode := os.Getenv(testModeEnv); mode {
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

// TestTCPWordCountSurvivesInjectedResets is the fail-recover acceptance
// test: a 4-process TCP WordCount with a connection reset injected on every
// rank's links must complete with output byte-identical to the fault-free
// in-process run, and the metrics summary must show the recovery happened
// (at least one reconnect).
func TestTCPWordCountSurvivesInjectedResets(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	const ranks = 4
	want, err := driver.RunJob(mimir.NewWorld(ranks), tcpTestConfig, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Setenv(testModeEnv, "wordcount")
	world, children, err := mimir.SpawnTCPWorldOpts(ranks, mimir.TCPOptions{
		Policy: mimir.RetryTransient,
		Faults: "seed:42,reset:all@frame1",
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := metrics.NewSummary()
	got, err := driver.RunJob(world, tcpTestConfig, sum)
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
		t.Fatalf("faulted run output differs from fault-free run: %d vs %d bytes", len(got), len(want))
	}
	rec := sum.Get("net-reconnects")
	if rec == nil || rec.Max < 1 {
		t.Fatalf("metrics report no reconnects; the injected resets exercised nothing (series: %v)", sum.Names())
	}
	lf := sum.Get("net-link-failures")
	t.Logf("recovered: %v link failures, %v reconnects, replayed %v frames",
		lf.Max, rec.Max, sum.Get("net-replayed-frames").Max)
}

// TestTCPInjectedKillAbortsSurvivors schedules a permanent process death via
// the fault injector: rank 2 severs all links at its second collective round.
// The survivors must give up after the reconnect window and surface
// ErrAborted — quickly, not after the full bootstrap/I/O deadlines.
func TestTCPInjectedKillAbortsSurvivors(t *testing.T) {
	if testing.Short() {
		t.Skip("forks processes")
	}
	const ranks = 4
	t.Setenv(testModeEnv, "wordcount-abort")
	world, children, err := mimir.SpawnTCPWorldOpts(ranks, mimir.TCPOptions{
		Policy:          mimir.RetryTransient,
		ReconnectWindow: 500 * time.Millisecond,
		Faults:          "seed:42,kill:rank2@round1",
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
