// Package jobsvc is the long-lived, multi-tenant job service over a standing
// rank mesh — the "mimird" control plane. Where every other entry point in
// this repository builds a world, runs exactly one job, and tears the world
// down, jobsvc keeps the rank mesh (the full TCP link mesh and its worker
// processes, or an in-process Local world) up across jobs: submitters hand
// job specs to a JSON-over-TCP front door on the process hosting rank 0,
// jobs queue behind a memory-admission gate, and admitted jobs run
// concurrently by multiplexing the one socket mesh through per-job transport
// channels (transport.Mux, wire v4). This is the paper's service model for
// large systems: the expensive resource — an established N^2 connection mesh
// and warmed-up processes — is paid for once and shared by many jobs.
//
// The moving parts:
//
//   - Server runs on the process hosting rank 0: admin socket, FIFO queue,
//     admission against a node memory arena, per-job dispatch and result
//     streaming, and mesh respawn after a fatal fault.
//   - RunWorker runs on every other rank: a control loop on channel 0 that
//     starts each announced job on its own channel, concurrently.
//   - Client is the thin submitter used by cmd/mimirctl and tests.
//
// Failure semantics: a job that fails by itself (out of its memory floor, a
// scripted crash confined to its channel) poisons only its channel — other
// running jobs and the mesh are untouched. A fault that kills the mesh (a
// worker process dying) fails every job running at that moment with a clean
// error, and the server then rebuilds the mesh from its factory; queued jobs
// wait out the respawn and run on the new mesh.
package jobsvc

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mimir/internal/core"
	"mimir/internal/driver"
	"mimir/internal/membership"
	"mimir/internal/metrics"
	"mimir/internal/mpi"
	"mimir/internal/pfs"
	"mimir/internal/simtime"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

// Spec describes one submitted job — any driver.RunJob kind over its
// deterministic synthetic corpus — plus the job's memory floor for
// admission.
type Spec struct {
	// Job selects the kind: "" or "wordcount" (default), "terasort",
	// "pagerank", "kmeans", "bfs", "octree" (see driver.JobKinds).
	Job string `json:"job,omitempty"`
	// Bytes is the total corpus size across all ranks (default 1 MiB;
	// wordcount only).
	Bytes int64 `json:"bytes,omitempty"`
	// Dist is the corpus distribution: "uniform" (default) or "wikipedia".
	Dist string `json:"dist,omitempty"`
	// Seed is the corpus seed; two jobs with equal (Bytes, Dist, Seed) on
	// equal-size meshes produce byte-identical output.
	Seed uint64 `json:"seed,omitempty"`
	// Engine options (see driver.JobConfig).
	Hint bool `json:"hint,omitempty"`
	PR   bool `json:"pr,omitempty"`
	CPS  bool `json:"cps,omitempty"`
	// Workers stays so existing submissions still decode: each rank runs
	// on one goroutine, so only 0 and 1 are admitted; any other value is
	// rejected at submit (see driver.JobConfig.Workers).
	Workers int `json:"workers,omitempty"`
	// MemBytes is the job's memory floor: the server admits the job only
	// once it can reserve this many bytes in the node arena, and each rank's
	// engine arena is capped at MemBytes divided by the world size — the job
	// cannot eat into memory promised to other jobs. 0 reserves nothing and
	// runs unlimited.
	MemBytes int64 `json:"mem_bytes,omitempty"`
	// Crash is a failure-injection hook for tests: the named rank (>= 1;
	// rank 0 hosts the server) dies when the job starts — a daemon worker
	// process exits without ceremony, an in-process rank aborts the mesh,
	// which is what its process death would have done. 0 means no crash.
	Crash int `json:"crash,omitempty"`
	// CrashRound moves the scripted crash to the top of the named round of
	// a multi-round job (pagerank, kmeans, bfs): rank Crash dies between
	// rounds CrashRound-1 and CrashRound, mid-iteration. Requires Crash.
	CrashRound int `json:"crash_round,omitempty"`
	// Checkpoint, when non-empty, names a post-shuffle checkpoint in the
	// server's file system: the first job with the name writes it, later
	// jobs with the same name restore from it (skipping input, map, and
	// aggregate), and elastic resizes repartition it so restore works at
	// the new world size. Only fully in-process meshes can run checkpointed
	// jobs — worker processes have no access to the server's simulated FS.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Zipf, when set, swaps the corpus for the parameterized zipf generator
	// at this skew exponent (s >= 0; Dist is then ignored). Contention
	// diverts that fraction of word draws onto the single hottest key.
	Zipf       *float64 `json:"zipf,omitempty"`
	Contention float64  `json:"contention,omitempty"`
	// Partitioner selects the key→rank strategy: "" or "hash" (FNV-1a,
	// the default) or "sample" (map-side sampling + weighted ranges; the
	// sample all-gather rides the job's own mux channel).
	Partitioner string `json:"partitioner,omitempty"`
	// MRC job parameters (see driver.JobConfig): terasort rows, graph
	// scale/edge factor, k-means geometry, and the iteration cap.
	Rows       int64 `json:"rows,omitempty"`
	Scale      int   `json:"scale,omitempty"`
	EdgeFactor int   `json:"edge_factor,omitempty"`
	Points     int64 `json:"points,omitempty"`
	K          int   `json:"k,omitempty"`
	Dims       int   `json:"dims,omitempty"`
	Rounds     int   `json:"rounds,omitempty"`
}

// normalize fills the defaults a zero field means.
func (s *Spec) normalize() {
	if s.Bytes <= 0 {
		s.Bytes = 1 << 20
	}
}

// jobConfig is the one mapping from the wire form onto the job driver, for a
// size-rank world. Crash, CrashRound and Checkpoint stay behind for execJob
// (crash hooks, the server's file system); TestSpecFieldsReachJobConfig
// fails when any other Spec field does not reach the JobConfig.
func (s Spec) jobConfig(size int) (driver.JobConfig, error) {
	dist, err := workloads.DistributionByName(s.Dist)
	if err != nil {
		return driver.JobConfig{}, err
	}
	cfg := driver.JobConfig{
		Kind:        s.Job,
		Seed:        s.Seed,
		Hint:        s.Hint,
		PR:          s.PR,
		CPS:         s.CPS,
		Workers:     s.Workers,
		MemBytes:    s.MemBytes / int64(size),
		Partitioner: s.Partitioner,
		Dist:        dist,
		TotalBytes:  s.Bytes,
		Contention:  s.Contention,
		Rows:        s.Rows,
		Scale:       s.Scale,
		EdgeFactor:  s.EdgeFactor,
		Points:      s.Points,
		K:           s.K,
		Dims:        s.Dims,
		MaxRounds:   s.Rounds,
	}
	if s.Zipf != nil {
		cfg.UseZipf = true
		cfg.ZipfSkew = *s.Zipf
	}
	return cfg, nil
}

// validate rejects specs that could never run on a size-rank mesh whose node
// arena holds memCap bytes: the job-level checks are driver.JobConfig's, the
// rest concern what only the service knows (admission, crash hooks, the
// checkpoint file system).
func (s Spec) validate(size int, memCap int64) error {
	cfg, err := s.jobConfig(size)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if s.MemBytes < 0 {
		return fmt.Errorf("jobsvc: negative mem_bytes %d", s.MemBytes)
	}
	if memCap > 0 && s.MemBytes > memCap {
		return fmt.Errorf("jobsvc: mem_bytes %d exceeds the node arena capacity %d; the job would queue forever", s.MemBytes, memCap)
	}
	if s.Crash != 0 && (s.Crash < 1 || s.Crash >= size) {
		return fmt.Errorf("jobsvc: crash rank %d out of range [1, %d)", s.Crash, size)
	}
	if s.CrashRound != 0 {
		if s.Crash == 0 {
			return fmt.Errorf("jobsvc: crash_round %d without a crash rank", s.CrashRound)
		}
		if s.CrashRound < 0 {
			return fmt.Errorf("jobsvc: negative crash_round %d", s.CrashRound)
		}
		if !cfg.Iterative() {
			return fmt.Errorf("jobsvc: crash_round needs an iterative job, not %q", s.Job)
		}
	}
	if s.Checkpoint != "" && s.Job != "" && s.Job != driver.JobWordCount {
		// The service's elastic resize repartitions the single checkpoint
		// name it tracked at job end; multi-round jobs write one checkpoint
		// per round, which that path cannot follow. Round checkpoints are
		// exercised at the driver level instead.
		return fmt.Errorf("jobsvc: checkpoint is wordcount-only; %q jobs manage per-round checkpoints outside the service", s.Job)
	}
	return nil
}

// Job states as reported in events and status listings.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateError   = "error"
)

// Event names on the admin protocol.
const (
	EvQueued  = "queued"
	EvRunning = "running"
	EvDone    = "done"
	EvError   = "error"
	EvStatus  = "status"
	EvOK      = "ok"
	// Elastic-membership events.
	EvResized = "resized" // a resize transition committed
	EvMembers = "members" // membership view + history reply
	EvToken   = "token"   // a minted join token
	EvJoined  = "joined"  // a join request got a seat (carries the remesh)
	EvRemesh  = "remesh"  // a rejoin request's attachment to the live epoch
	EvRetired = "retired" // the member no longer holds a seat: exit
)

// Request is one admin-socket request: a single JSON object, answered by a
// stream of Events (submit) or exactly one Event (everything else). The ops:
// "submit", "status", "shutdown", plus the elastic-membership family —
// "resize" (Size), "members", "join-token", "join" (Token, Addr), "rejoin"
// (Member, Token), and "leave" (Member).
type Request struct {
	Op     string              `json:"op"`
	Spec   *Spec               `json:"spec,omitempty"`
	Size   int                 `json:"size,omitempty"`
	Member membership.MemberID `json:"member,omitempty"`
	Token  string              `json:"token,omitempty"`
	Addr   string              `json:"addr,omitempty"`
}

// Event is one line of an admin-socket reply. A submit streams
// queued → running → done|error for its job; done carries the gathered
// output, the merged per-rank metrics distribution, and the epoch/size of
// the mesh incarnation the job ran on (output is byte-identical per size).
type Event struct {
	Event   string          `json:"event"`
	Job     uint32          `json:"job,omitempty"`
	Error   string          `json:"error,omitempty"`
	Output  string          `json:"output,omitempty"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Status  *Status         `json:"status,omitempty"`
	// Membership fields.
	Epoch   uint64              `json:"epoch,omitempty"`
	Size    int                 `json:"size,omitempty"`
	Member  membership.MemberID `json:"member,omitempty"`
	Token   string              `json:"token,omitempty"`
	Remesh  *Remesh             `json:"remesh,omitempty"`
	View    *membership.View    `json:"view,omitempty"`
	History []membership.Event  `json:"history,omitempty"`
}

// Status is the daemon-wide view returned by the status op.
type Status struct {
	// Size is the mesh's rank count.
	Size int `json:"size"`
	// Epoch is the committed membership epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Respawns counts mesh rebuilds after fatal faults; a healthy service
	// reports 0 however many jobs it has run. Elastic resizes are not
	// respawns — they advance the epoch without a fault.
	Respawns int `json:"respawns"`
	// MemUsed / MemCapacity describe the admission arena (reserved job
	// floors, not live engine pages). Capacity 0 means unlimited.
	MemUsed     int64 `json:"mem_used"`
	MemCapacity int64 `json:"mem_capacity"`
	// Jobs lists every job the server has seen, in submission order.
	Jobs []JobStatus `json:"jobs"`
}

// JobStatus is one job's line in a Status listing.
type JobStatus struct {
	Job   uint32 `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Control messages travel rank 0 → worker on channel 0 of the mesh, tagged
// ctrlTag. Channel 0 carries nothing else while the service runs: every job
// gets its own channel, so control can never be confused with job traffic.
const ctrlTag = 1

const (
	opStart    = "start"
	opShutdown = "shutdown"
	// opRemesh directs a worker to finish its running jobs, drop this mesh
	// incarnation, and join the next one at the carried seat (graceful
	// resize). opRetire directs it to finish and exit: its seat is gone.
	opRemesh = "remesh"
	opRetire = "retire"
)

type ctrlMsg struct {
	Op     string  `json:"op"`
	Job    uint32  `json:"job,omitempty"`
	Spec   *Spec   `json:"spec,omitempty"`
	Remesh *Remesh `json:"remesh,omitempty"`
}

func ctrlJSON(c ctrlMsg) ([]byte, error) { return json.Marshal(c) }

// Remesh is a worker's attachment to the next mesh incarnation: where to
// dial, which seat to take, and the epoch the handshake must carry. It
// travels either as an opRemesh control directive (graceful resize) or as
// the reply to an admin rejoin/join request (crash recovery, external
// joiners).
type Remesh struct {
	Addr  string `json:"addr"`
	Rank  int    `json:"rank"`
	Size  int    `json:"size"`
	Epoch uint64 `json:"epoch"`
}

// execJob runs one job on its own channel of the standing mesh. Every
// process hosting ranks of the mesh calls it with the same (id, spec) — the
// server for rank 0 (or all ranks on an in-process mesh), RunWorker for each
// worker rank. The returned output and merged metrics are non-nil only on
// the process hosting rank 0. exit, when non-nil, implements the Spec.Crash
// hook by terminating the process; without it a crash is simulated by
// aborting the mesh, which is exactly what the process death would do.
// fs is the server's checkpoint file system (nil on worker processes;
// Spec.Checkpoint is only admitted on fully in-process meshes).
func execJob(tr transport.Transport, id uint32, spec Spec, exit func(code int), fs *pfs.FS) ([]byte, *metrics.Summary, error) {
	// crash is the scripted death of rank Crash: everything it does is what
	// the process death would have done to the mesh.
	crash := func(when string) error {
		if exit != nil {
			exit(3)
		}
		err := fmt.Errorf("%w: jobsvc: rank %d crashed%s (scripted)", transport.ErrAborted, spec.Crash, when)
		tr.Abort(err)
		return err
	}
	if spec.Crash > 0 && spec.CrashRound == 0 {
		for _, r := range tr.LocalRanks() {
			if r == spec.Crash {
				return nil, nil, crash("")
			}
		}
	}
	mux, ok := tr.(transport.Mux)
	if !ok {
		return nil, nil, fmt.Errorf("jobsvc: transport %T cannot multiplex jobs", tr)
	}
	ch, err := mux.Open(id)
	if err != nil {
		return nil, nil, err
	}
	defer ch.Close()
	// Simulated (in-process) meshes need a network cost model or the clocks
	// jump to +Inf on the first charged byte; wall-clock transports ignore it.
	world := mpi.NewWorld(mpi.Config{
		Transport: ch,
		Net:       simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9},
	})
	cfg, err := spec.jobConfig(world.Size())
	if err != nil {
		return nil, nil, err
	}
	if spec.Checkpoint != "" && fs != nil {
		cfg.Checkpoint = &core.Checkpoint{FS: fs, Name: spec.Checkpoint}
	}
	if spec.CrashRound > 0 {
		// The mid-iteration crash: rank Crash reaches the top of round
		// CrashRound and dies there — after the earlier rounds' exchanges,
		// before this one's.
		cfg.OnRound = func(rank, round int) error {
			if rank != spec.Crash || round != spec.CrashRound {
				return nil
			}
			return crash(fmt.Sprintf(" at round %d", round))
		}
	}
	sum := metrics.NewSummary()
	out, err := driver.RunJob(world, cfg, sum)
	if err != nil {
		return nil, nil, err
	}
	merged, err := gatherMetrics(world, sum)
	if err != nil {
		return nil, nil, err
	}
	return out, merged, nil
}

// gatherMetrics folds every rank's summary into one distribution at rank 0.
// When the world lives in one process the per-rank samples already share a
// summary; across processes each rank contributes its serialized summary
// through a Gatherv on the job's channel — the metrics ride the same
// exactly-once transport the job data did.
func gatherMetrics(world *mpi.World, sum *metrics.Summary) (*metrics.Summary, error) {
	if len(world.LocalRanks()) == world.Size() {
		return sum, nil
	}
	var merged *metrics.Summary
	err := world.Run(func(c *mpi.Comm) error {
		var buf bytes.Buffer
		if err := sum.WriteJSON(&buf); err != nil {
			return err
		}
		parts, err := c.Gatherv(buf.Bytes(), 0)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		merged = metrics.NewSummary()
		for _, p := range parts {
			if err := merged.MergeJSON(bytes.NewReader(p)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// meshError reports the transport's abort cause, nil while healthy or when
// the transport cannot say (no ErrReporter).
func meshError(tr transport.Transport) error {
	if er, ok := tr.(transport.ErrReporter); ok {
		return er.Err()
	}
	return nil
}
