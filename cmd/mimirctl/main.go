// Command mimirctl is the thin client for a running mimird daemon
// (mimir-worker -daemon): it submits jobs to the standing rank mesh, streams
// their lifecycle, and fetches daemon status.
//
//	mimirctl -addr 127.0.0.1:7077 submit -bytes 1048576 -dist uniform -seed 42
//	mimirctl -addr 127.0.0.1:7077 submit -job pagerank -scale 10 -seed 7
//	mimirctl -addr 127.0.0.1:7077 submit -job terasort -rows 100000
//	mimirctl -addr 127.0.0.1:7077 status
//	mimirctl -addr 127.0.0.1:7077 shutdown
//
// Elastic membership verbs drive the daemon's resize path — the mesh grows
// or shrinks at the next epoch barrier, without a restart and without
// touching queued jobs:
//
//	mimirctl grow 6          # resize the standing mesh up to 6 ranks
//	mimirctl shrink 3        # resize it down to 3 ranks
//	mimirctl members         # committed view + full membership history
//	mimirctl join-token      # mint the token an external worker joins with
//	mimirctl leave 5         # retire member id 5 at the next barrier
//
// submit blocks until the job settles: lifecycle events (queued, running) go
// to stderr, the counted output goes to stdout (or -o FILE), and -metrics
// FILE saves the job's merged per-rank distribution JSON. The exit status is
// non-zero when the job fails — including when a worker rank dies mid-job —
// while the daemon itself stays up for the next submission.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"mimir/internal/jobsvc"
	"mimir/internal/membership"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mimirctl: ")
	addr := flag.String("addr", "127.0.0.1:7077", "mimird admin address")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mimirctl [-addr HOST:PORT] submit|status|grow|shrink|members|join-token|leave|shutdown [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	cl := jobsvc.Dial(*addr)
	switch flag.Arg(0) {
	case "submit":
		submit(cl, flag.Args()[1:])
	case "status":
		status(cl)
	case "grow":
		resize(cl, flag.Arg(1), +1)
	case "shrink":
		resize(cl, flag.Arg(1), -1)
	case "members":
		members(cl)
	case "join-token":
		token, err := cl.JoinToken()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(token)
	case "leave":
		leave(cl, flag.Arg(1))
	case "shutdown":
		if err := cl.Shutdown(); err != nil {
			log.Fatal(err)
		}
		log.Print("daemon drained and shut down")
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// resize drives grow/shrink: both are the same admin op; dir only sanity-
// checks the direction against the daemon's current size so "grow 3" on a
// 6-rank mesh fails loudly instead of silently shrinking.
func resize(cl *jobsvc.Client, arg string, dir int) {
	target, err := strconv.Atoi(arg)
	if err != nil || target < 1 {
		log.Fatalf("grow/shrink need a target rank count, got %q", arg)
	}
	if st, err := cl.Status(); err == nil {
		if dir > 0 && target < st.Size {
			log.Fatalf("grow %d would shrink the %d-rank mesh; use shrink", target, st.Size)
		}
		if dir < 0 && target > st.Size {
			log.Fatalf("shrink %d would grow the %d-rank mesh; use grow", target, st.Size)
		}
	}
	view, err := cl.Resize(target)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("epoch %d committed: mesh is %d ranks", view.Epoch, view.Size())
	printView(view)
}

func members(cl *jobsvc.Client) {
	view, history, err := cl.Members()
	if err != nil {
		log.Fatal(err)
	}
	printView(view)
	for _, ev := range history {
		line := fmt.Sprintf("%4d  epoch %-3d %-14s", ev.Seq, ev.Epoch, ev.Kind)
		if ev.Member != 0 {
			line += fmt.Sprintf(" member %d", ev.Member)
		}
		if ev.Size != 0 {
			line += fmt.Sprintf(" size %d", ev.Size)
		}
		if ev.Detail != "" {
			line += "  " + ev.Detail
		}
		fmt.Println(line)
	}
}

func leave(cl *jobsvc.Client, arg string) {
	id, err := strconv.ParseUint(arg, 10, 64)
	if err != nil || id == 0 {
		log.Fatalf("leave needs a member id, got %q", arg)
	}
	view, err := cl.Leave(membership.MemberID(id))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("member %d retired; epoch %d committed: mesh is %d ranks", id, view.Epoch, view.Size())
	printView(view)
}

func printView(view *membership.View) {
	for _, mb := range view.Members {
		kind := mb.Kind
		if kind == "" {
			kind = "?"
		}
		fmt.Printf("rank %-3d member %-4d %s\n", mb.Rank, mb.ID, kind)
	}
}

func submit(cl *jobsvc.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var spec jobsvc.Spec
	fs.StringVar(&spec.Job, "job", "", "job kind: wordcount (default), terasort, pagerank, kmeans, bfs, or octree")
	fs.Int64Var(&spec.Bytes, "bytes", 1<<20, "total corpus bytes across all ranks (wordcount)")
	fs.StringVar(&spec.Dist, "dist", "uniform", "corpus distribution: uniform or wikipedia")
	fs.Uint64Var(&spec.Seed, "seed", 42, "corpus seed")
	fs.BoolVar(&spec.Hint, "hint", true, "use the KV-hint")
	fs.BoolVar(&spec.PR, "pr", true, "use partial reduction")
	fs.BoolVar(&spec.CPS, "cps", false, "use KV compression")
	fs.Int64Var(&spec.MemBytes, "mem", 0, "job memory floor in bytes: admitted only once the daemon can reserve this much (0 = no reservation)")
	fs.IntVar(&spec.Crash, "crash", 0, "fault-injection: this worker rank dies when the job starts (tests only)")
	fs.IntVar(&spec.CrashRound, "crash-round", 0, "fault-injection: with -crash, the rank dies at the top of this round of an iterative job instead of at job start")
	fs.Int64Var(&spec.Rows, "rows", 0, "terasort: total rows across all ranks (0 = default)")
	fs.IntVar(&spec.Scale, "scale", 0, "pagerank/bfs: log2 of the vertex count (0 = default)")
	fs.IntVar(&spec.EdgeFactor, "edgefactor", 0, "pagerank/bfs: edges per vertex (0 = default)")
	fs.Int64Var(&spec.Points, "points", 0, "kmeans, octree: total points across all ranks (0 = default)")
	fs.IntVar(&spec.K, "k", 0, "kmeans: cluster count (0 = default)")
	fs.IntVar(&spec.Dims, "dims", 0, "kmeans: point dimensionality (0 = default)")
	fs.IntVar(&spec.Rounds, "rounds", 0, "iterative jobs: max rounds (0 = workload default)")
	opath := fs.String("o", "", "write the counted output to this file instead of stdout")
	mpath := fs.String("metrics", "", "write the job's merged per-rank metrics JSON to this file (- = stdout)")
	fs.Parse(args)

	res, err := cl.Submit(spec, func(ev jobsvc.Event) {
		if ev.Event == jobsvc.EvQueued || ev.Event == jobsvc.EvRunning {
			log.Printf("job %d %s", ev.Job, ev.Event)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("job %d done (%d output bytes)", res.Job, len(res.Output))
	if *opath != "" {
		if err := os.WriteFile(*opath, res.Output, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		os.Stdout.Write(res.Output)
	}
	if *mpath != "" && len(res.Metrics) > 0 {
		if *mpath == "-" {
			os.Stdout.Write(append([]byte(nil), res.Metrics...))
			fmt.Println()
		} else if err := os.WriteFile(*mpath, res.Metrics, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

func status(cl *jobsvc.Client) {
	st, err := cl.Status()
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
