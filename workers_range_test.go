package mimir_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/jobsvc"
	"mimir/internal/mem"
	"mimir/internal/mpi"
	"mimir/internal/workloads"
)

// TestWorkersOutOfRange: a rank runs on one goroutine, so every place that
// still takes a Workers value accepts 0 and 1 and rejects anything larger
// with an error naming the field — never a silent downgrade to one
// goroutine. A rejected mimird submission settles as an error at submit and
// is never admitted as a job.
func TestWorkersOutOfRange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := jobsvc.NewServer(jobsvc.Config{Mesh: jobsvc.LocalMesh(2), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	go s.Serve(ln)
	client := jobsvc.Dial(ln.Addr().String())

	admitted := 0
	checks := []struct {
		name string
		bad  int
		run  func(workers int) error
	}{
		{"driver.JobConfig.Validate", 2, func(workers int) error {
			return driver.JobConfig{Workers: workers}.Validate()
		}},
		{"mimird submit", 4, func(workers int) error {
			var events []jobsvc.Event
			_, err := client.Submit(jobsvc.Spec{Bytes: 4 << 10, Workers: workers},
				func(ev jobsvc.Event) { events = append(events, ev) })
			if err == nil {
				admitted++
				return nil
			}
			if len(events) != 1 || events[0].Event != jobsvc.EvError || events[0].Job != 0 {
				t.Errorf("workers %d: events %+v, want one job-less %q at submit", workers, events, jobsvc.EvError)
			}
			return err
		}},
		{"core.Job.Run", 8, func(workers int) error {
			return mpi.NewWorld(mpi.Config{Size: 2}).Run(func(c *mpi.Comm) error {
				job := core.NewJob(c, core.Config{Arena: mem.NewArena(0), Workers: workers})
				input := core.SliceInput([]core.Record{{Val: []byte("a b a")}})
				out, err := job.Run(input, workloads.WordCountMap, workloads.WordCountReduce)
				if err != nil {
					return err
				}
				out.Free()
				return nil
			})
		}},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			for _, ok := range []int{0, 1} {
				if err := c.run(ok); err != nil {
					t.Errorf("Workers %d rejected: %v", ok, err)
				}
			}
			err := c.run(c.bad)
			if err == nil || !strings.Contains(err.Error(), "Workers") ||
				!strings.Contains(err.Error(), fmt.Sprint(c.bad)) {
				t.Errorf("Workers %d: err = %v, want an error naming Workers and the value", c.bad, err)
			}
		})
	}
	if jobs := s.StatusSnapshot().Jobs; len(jobs) != admitted || admitted != 2 {
		t.Errorf("daemon knows %d jobs, want the 2 accepted submissions only", len(jobs))
	}
}
