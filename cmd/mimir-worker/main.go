// Command mimir-worker runs one distributed job — WordCount by default, or
// any -job kind (terasort, pagerank, kmeans, bfs, octree) — over its
// deterministic synthetic corpus, with each MPI rank in its own OS process
// connected by the TCP transport — the multi-process counterpart of the
// in-process worlds every other command uses.
//
// Launch modes:
//
//	mimir-worker -spawn 4              # become rank 0, fork 3 local workers
//	mimir-worker -join H:P -rank R -size N   # join an explicit rendezvous
//	mimir-worker -listen :9000 -size N       # be rank 0 of that rendezvous
//	mimir-worker -inproc 4             # in-process reference run (no TCP)
//
// Processes re-executed by -spawn find their world through the MIMIR_TCP_*
// environment automatically. The canonical output (one sorted line per
// record; see driver.RunJob for the per-kind formats) goes to rank 0's
// stdout and is byte-identical across launch modes for the same job
// parameters, which is what the CI smoke tests assert.
//
// -metrics FILE writes the per-rank distribution summary (phase times,
// shuffle bytes, total time) as JSON; "-" means stdout. Worker processes
// append ".rankN" to the file name.
//
// Daemon mode (mimird) keeps the rank mesh standing across jobs instead of
// running one job and exiting:
//
//	mimir-worker -daemon -spawn 4 -admin 127.0.0.1:7077
//	mimir-worker -daemon -inproc 4 -admin 127.0.0.1:7077
//
// Rank 0 serves the JSON-over-TCP admin front door on -admin; submit jobs
// with cmd/mimirctl. -mem caps the node admission arena (the sum of the
// memory floors of concurrently running jobs). Spawned daemon workers run
// the jobsvc control loop instead of a single job and live until the daemon
// shuts down. SIGINT/SIGTERM drains: queued jobs still run, then the mesh
// comes down.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mimir"
	"mimir/internal/driver"
	"mimir/internal/jobsvc"
	"mimir/internal/metrics"
	"mimir/internal/transport"
	"mimir/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mimir-worker: ")
	var (
		spawn   = flag.Int("spawn", 0, "become rank 0 of an n-process world, forking n-1 local workers")
		join    = flag.String("join", "", "address of rank 0's bootstrap listener to join")
		listen  = flag.String("listen", "", "listen address for rank 0 of an explicit rendezvous")
		rank    = flag.Int("rank", 0, "this process's rank (with -join)")
		size    = flag.Int("size", 0, "world size (with -join / -listen)")
		inproc  = flag.Int("inproc", 0, "run n in-process ranks instead of TCP (reference mode)")
		timeout = flag.Duration("timeout", 30*time.Second, "bootstrap rendezvous timeout")

		daemon     = flag.Bool("daemon", false, "run as the mimird job service: keep the mesh standing and accept job submissions")
		admin      = flag.String("admin", "127.0.0.1:7077", "with -daemon: admin front-door listen address for mimirctl")
		mem        = flag.Int64("mem", 0, "with -daemon: node admission arena capacity in bytes (0 = unlimited)")
		joinDaemon = flag.String("join-daemon", "", "with -daemon: join a running daemon at this admin address as an elastic worker instead of hosting one")
		joinToken  = flag.String("join-token", "", "with -join-daemon: the join token (mimirctl join-token)")

		faults   = flag.String("faults", "", "deterministic fault-injection spec, e.g. seed:42,kill:rank2@round3")
		compress = flag.Bool("compress", false, "compress TCP wire frames (flate, per frame); trades CPU for bytes on the wire")

		job        = flag.String("job", "", "job kind: wordcount (default), terasort, pagerank, kmeans, bfs, or octree")
		rows       = flag.Int64("rows", 0, "terasort: total rows across all ranks (0 = default)")
		scale      = flag.Int("scale", 0, "pagerank/bfs: log2 of the vertex count (0 = default)")
		edgeFactor = flag.Int("edgefactor", 0, "pagerank/bfs: edges per vertex (0 = default)")
		points     = flag.Int64("points", 0, "kmeans, octree: total points across all ranks (0 = default)")
		kArg       = flag.Int("k", 0, "kmeans: cluster count (0 = default)")
		dims       = flag.Int("dims", 0, "kmeans: point dimensionality (0 = default)")
		rounds     = flag.Int("rounds", 0, "iterative jobs: max rounds (0 = workload default)")

		bytes      = flag.Int64("bytes", 1<<20, "total corpus bytes across all ranks")
		distArg    = flag.String("dist", "uniform", "corpus distribution: uniform or wikipedia")
		zipf       = flag.Float64("zipf", -1, "use the zipf corpus with this exponent instead of -dist (>= 0 enables; 0 = uniform draw, 1.1 = heavy skew)")
		contention = flag.Float64("contention", 0, "with -zipf: probability mass diverted to the hottest word (0..1)")
		partArg    = flag.String("partitioner", "", "key->rank strategy: hash (default) or sample (sampled weighted ranges)")
		seed       = flag.Uint64("seed", 42, "corpus seed")
		hint       = flag.Bool("hint", true, "use the KV-hint")
		pr         = flag.Bool("pr", true, "use partial reduction")
		cps        = flag.Bool("cps", false, "use KV compression")
		mpath      = flag.String("metrics", "", "write per-rank distribution JSON to this file (- = stdout)")
	)
	flag.Parse()
	// A malformed MIMIR_TCP_* variable kills the launch here, not later in a
	// forked child that inherited it.
	if _, err := mimir.TCPOptionsFromEnv(); err != nil {
		log.Fatal(err)
	}

	dist, err := workloads.DistributionByName(*distArg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := driver.JobConfig{
		Kind:        *job,
		Dist:        dist,
		TotalBytes:  *bytes,
		Contention:  *contention,
		Seed:        *seed,
		Hint:        *hint,
		PR:          *pr,
		CPS:         *cps,
		Partitioner: *partArg,
		Rows:        *rows,
		Scale:       *scale,
		EdgeFactor:  *edgeFactor,
		Points:      *points,
		K:           *kArg,
		Dims:        *dims,
		MaxRounds:   *rounds,
	}
	if *zipf >= 0 {
		cfg.UseZipf = true
		cfg.ZipfSkew = *zipf
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	opts := mimir.TCPOptions{
		Deadline: *timeout,
		Faults:   *faults,
		Compress: *compress,
	}

	// Daemon workers come first: a -daemon -spawn child re-executes with the
	// same flags, so -daemon plus the MIMIR_TCP_* environment means "be a
	// standing worker rank", not "run one job".
	if *daemon {
		if cfg, ok, err := transport.FromEnv(); ok {
			if err != nil {
				log.Fatal(err)
			}
			runDaemonWorker(cfg)
			return
		}
		if *joinDaemon != "" {
			if err := jobsvc.JoinDaemon(*joinDaemon, *joinToken, opts,
				jobsvc.WorkerOptions{Exit: os.Exit, Logf: log.Printf}); err != nil {
				log.Fatal(err)
			}
			return
		}
		runDaemon(*admin, *mem, *spawn, *inproc, transport.SpawnOptions{Options: opts})
		return
	}

	// A process re-executed by -spawn joins the parent's world via the
	// environment, whatever flags it was copied with — including the
	// parent's fault-injection spec.
	if world, ok, err := mimir.TCPWorldFromEnv(); ok {
		if err != nil {
			log.Fatal(err)
		}
		runJob(world, cfg, *mpath)
		return
	}

	switch {
	case *spawn > 0:
		world, children, err := mimir.SpawnTCPWorldOpts(*spawn, opts)
		if err != nil {
			log.Fatal(err)
		}
		runJob(world, cfg, *mpath)
		if err := children.Wait(); err != nil {
			log.Fatalf("worker failed: %v", err)
		}
	case *listen != "":
		if *size < 2 {
			log.Fatal("-listen needs -size >= 2")
		}
		world, err := mimir.NewTCPWorldOpts(*listen, 0, *size, opts)
		if err != nil {
			log.Fatal(err)
		}
		runJob(world, cfg, *mpath)
	case *join != "":
		if *size < 2 || *rank < 1 {
			log.Fatal("-join needs -rank >= 1 and -size >= 2")
		}
		world, err := mimir.NewTCPWorldOpts(*join, *rank, *size, opts)
		if err != nil {
			log.Fatal(err)
		}
		runJob(world, cfg, *mpath)
	case *inproc > 0:
		runJob(mimir.NewWorld(*inproc), cfg, *mpath)
	default:
		fmt.Fprintln(os.Stderr, "one of -spawn, -join, -listen, or -inproc is required")
		flag.Usage()
		os.Exit(2)
	}
}

// runJob executes the configured job on world, prints the gathered
// canonical result on the process hosting rank 0, and closes the world.
func runJob(world *mimir.World, cfg driver.JobConfig, mpath string) {
	sum := metrics.NewSummary()
	out, err := driver.RunJob(world, cfg, sum)
	if err != nil {
		world.Close()
		log.Fatal(err)
	}
	if out != nil {
		os.Stdout.Write(out)
	}
	if mpath != "" {
		writeMetrics(world, sum, mpath)
	}
	if err := world.Close(); err != nil {
		log.Fatal(err)
	}
}

// runDaemonWorker is the life of a spawned daemon worker rank: dial into the
// standing mesh and serve the jobsvc control loop, following the service
// across epochs (resizes, crash recoveries) until it is retired or the
// daemon shuts the mesh down. Spec.Crash terminates the process for real
// (os.Exit), which is the fault the daemon's crash-transition path exists
// for.
func runDaemonWorker(cfg transport.TCPConfig) {
	if err := jobsvc.RunWorkerLoop(cfg, jobsvc.WorkerOptions{Exit: os.Exit, Logf: log.Printf}); err != nil {
		log.Fatal(err)
	}
}

// runDaemon is rank 0's daemon life: build the standing mesh, serve the
// admin front door, drain on SIGINT/SIGTERM. The admin listener binds
// before the mesh comes up so spawned workers know where to rejoin after a
// fault.
func runDaemon(admin string, mem int64, spawn, inproc int, sopts transport.SpawnOptions) {
	ln, err := net.Listen("tcp", admin)
	if err != nil {
		log.Fatal(err)
	}
	var factory jobsvc.MeshFactory
	switch {
	case spawn > 0:
		factory = jobsvc.SpawnMesh(spawn, ln.Addr().String(), sopts)
	case inproc > 0:
		factory = jobsvc.LocalMesh(inproc)
	default:
		log.Fatal("-daemon needs -spawn n (process mesh) or -inproc n (in-process mesh)")
	}
	srv, err := jobsvc.NewServer(jobsvc.Config{Mesh: factory, MemBytes: mem, Logf: log.Printf})
	if err != nil {
		log.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Print("draining (signal)")
		srv.Shutdown()
	}()
	log.Printf("mimird: %d ranks standing, admin on %s", srv.Size(), ln.Addr())
	if err := srv.Serve(ln); err != nil {
		srv.Shutdown()
		log.Fatal(err)
	}
	srv.Shutdown()
}

func writeMetrics(world *mimir.World, sum *metrics.Summary, mpath string) {
	if mpath == "-" {
		if err := sum.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	// One file per process: workers suffix their rank so a shared working
	// directory (the -spawn case) is not a write race.
	if r := world.LocalRanks(); len(r) == 1 && r[0] != 0 {
		mpath = fmt.Sprintf("%s.rank%d", mpath, r[0])
	}
	f, err := os.Create(mpath)
	if err != nil {
		log.Fatal(err)
	}
	if err := sum.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
