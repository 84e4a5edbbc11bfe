#!/usr/bin/env python3
"""Checks that the benchmark agrees with itself on this host.

Run from the repository root:

    python3 bench/selfcheck.py [--runs 10] [--workload NAME ...]

For every workload it runs BENCHMARK.json's command `--runs` times with
--trace 0, each time with another seed, and prints each end-to-end metric's
median and its spread: the distance between the first and third quartile as a
share of the median. A spread above the metric's bound fails the check
(setup_s is reported but not held to it). It then runs --trace 1 twice on one
seed and fails if a count that must repeat exactly differs, and holds the
full-size numbers to what each workload was chosen for (README, "Workloads").
"""
import argparse
import json
import statistics
import subprocess
import sys

EXACT = [
    "core.shuffled_bytes",
    "spill.spilled_bytes",
    "spill.evictions",
    "transport.exchange_calls",
]


SPILL_CAP = 6 << 20  # wc_spill's arena cap per rank (fullSizes.spillCap in workloads.go)


def chosen_for(name, e2e, layer):
    """What workload `name` must show at full size: (claim, holds) pairs.

    e2e maps each workload run so far to its end-to-end medians, layer is this
    workload's traced run.
    """
    job = layer["trace.traced_job_s"]
    phases = ["core.map_s", "core.aggregate_s", "core.convert_s", "core.reduce_s"]
    checks = [("trace.overhead_frac is reported", "trace.overhead_frac" in layer)]
    if name == "wc_uniform":
        checks.append(("core.convert_s >= 35% of job_s", layer["core.convert_s"] >= 0.35 * job))
    if name == "wc_spill":
        checks.append(("spill.spilled_bytes > 0", layer["spill.spilled_bytes"] > 0))
        checks.append(("peak_arena_bytes < the cap on both ranks", e2e[name]["peak_arena_bytes"] < 2 * SPILL_CAP))
    else:
        checks.append(("spill.evictions == 0", layer["spill.evictions"] == 0))
    if name in ("wc_zipf_pr", "shuffle_tcp", "shuffle_flate", "terasort", "pagerank"):
        checks.append(("core.convert_s == 0", layer["core.convert_s"] == 0))
    if name == "shuffle_tcp":
        # Measured, the two overlapping shares tie (README): the exchange must
        # at least not fall behind the send-buffer insert that feeds it.
        checks.append(("transport.exchange_s >= 80% of the largest engine phase",
                       layer["transport.exchange_s"] >= 0.8 * max(layer[p] for p in phases)))
    if name == "shuffle_flate":
        checks.append(("job_s > shuffle_tcp's", e2e[name]["job_s"] > e2e.get("shuffle_tcp", {"job_s": 0})["job_s"]))
    if name == "terasort":
        checks.append(("driver.outside_engine_s >= 50% of job_s", layer["driver.outside_engine_s"] >= 0.5 * job))
    return checks


def run(spec, workload, seed, trace, seconds=None):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds or spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} jobs failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = []
    e2e = {}
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        runs = [run(spec, name, 101 + 7 * i, 0) for i in range(args.runs)]
        print(name)
        e2e[name] = {}
        for metric, bound in bounds.items():
            vals = [r[metric] for r in runs]
            q = statistics.quantiles(vals, n=4)
            med = e2e[name][metric] = statistics.median(vals)
            spread = (q[2] - q[0]) / med
            flag = ""
            if metric != "setup_s" and spread > bound:
                flag = "  <-- above its bound"
                bad.append(f"{name} {metric}")
            print(f"  {metric:18s} median {med:12.6g}  spread {spread:6.3f}  bound {bound}{flag}")
        a, b = run(spec, name, 101, 1), run(spec, name, 101, 1)
        for metric in EXACT:
            if a[metric] != b[metric]:
                bad.append(f"{name} {metric}")
                print(f"  {metric}: {a[metric]} then {b[metric]}  <-- must repeat exactly")
        # The arena peak is an end-to-end metric: two short runs on one seed.
        p, q = (run(spec, name, 101, 0, seconds=1)["peak_arena_bytes"] for _ in range(2))
        if p != q:
            bad.append(f"{name} peak_arena_bytes")
            print(f"  peak_arena_bytes: {p} then {q}  <-- must repeat exactly")
        for claim, holds in chosen_for(name, e2e, a):
            if not holds:
                bad.append(f"{name}: {claim}")
                print(f"  {claim}  <-- does not hold")
    if bad:
        sys.exit("selfcheck failed: " + ", ".join(bad))
    print("selfcheck passed")


if __name__ == "__main__":
    main()
