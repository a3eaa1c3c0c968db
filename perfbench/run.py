"""gcvx benchmark: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload {laws,tensor,polytope}
        --seed N --seconds S --trace {0,1}

Run from the root of a gcvx checkout; gcvx is imported from `src/`.  Each
pass runs in a fresh `perfbench/worker.py` process, one at a time, so no
memo outlives a pass and peak RSS belongs to it.  First a warm-up process
compiles the sources and SETUP_PROBES processes measure set-up alone;
`setup_s` is the median over them and the passes.  Passes start while the
run is expected to end within S seconds of its start (at least one runs).

Every timing is adjusted to a reference CPU speed by calibration work run
next to it (cpuspeed.py), because the speed of the shared host the
benchmark was built on swings by up to 1.8x in phases that can outlast a
run.  `verdict_s` is the median pass; each job's latency is its median
over the passes, and `job_ms_p50` and `job_ms_tail` are taken over those.

--trace 0 prints the end-to-end metrics; --trace 1 alternates plain and
traced passes and prints the per-layer metrics of the fastest traced one
(per-layer times are not adjusted).  Every metric is printed by name and
unit, then the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import cpuspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("laws", "tensor", "polytope")
SETUP_PROBES = 10
TAIL_BEYOND = 10           # the tail has at least this many samples above it
TIME_LIMIT_S = 170         # the whole run, so that it ends within 180 s

END_TO_END_UNITS = {
    "verdict_s": "s", "checks_per_s": "1/s", "job_ms_p50": "ms",
    "job_ms_tail": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


def tail(latencies: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND samples above it, or
    the maximum of a smaller sample."""
    ordered = sorted(latencies)
    return ordered[max(-1, len(ordered) - TAIL_BEYOND - 1)]


class Runner:
    def __init__(self, workload: str, seed: int, root: str):
        self.workload, self.seed = workload, seed
        self.workdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        self.outdir = os.path.join(root, ".perfbench_out")
        self.start = time.monotonic()
        self.crashes: list[str] = []

    def spawn(self, setup_only=False, traced=False) -> dict | None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", self.workdir]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            os.makedirs(self.outdir, exist_ok=True)
            cmd += ["--spans", os.path.join(
                self.outdir, f"{self.workload}-seed{self.seed}-spans.json")]
        env = dict(os.environ, PYTHONHASHSEED="0")
        left = TIME_LIMIT_S - (time.monotonic() - self.start)
        before = cpuspeed.slowdown(cpuspeed.slice_s(cpuspeed.SETUP_UNITS),
                                   cpuspeed.SETUP_UNITS)
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--started-at", repr(started)],
                                  stdout=subprocess.PIPE, env=env,
                                  timeout=max(left, 1), check=False, text=True)
        except subprocess.TimeoutExpired:
            self.crashes.append("a pass ran past the time limit")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.crashes.append(f"worker exited {proc.returncode}")
            return None
        result = json.loads(lines[-1])
        result["setup_raw_s"] = result["setup_s"]
        result["setup_s"] = cpuspeed.adjust(
            result["setup_s"], (before + result["setup_slowdown"]) / 2)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def median_jobs(passes: list[dict]) -> list[float]:
    """Each job's median latency over the passes (every pass runs the same
    jobs)."""
    return [statistics.median(times)
            for times in zip(*(r["latencies_ms"] for r in passes))]


def measure(args, root: str) -> tuple[dict, dict]:
    run = Runner(args.workload, args.seed, root)
    try:
        run.spawn(setup_only=True)          # compiles the sources
        setups = []
        for _ in range(SETUP_PROBES):
            probe = run.spawn(setup_only=True)
            if probe:
                setups.append(probe)
        plain, traced = [], []
        window = time.monotonic()
        while True:
            trace_next = bool(args.trace) and len(traced) < len(plain)
            result = run.spawn(traced=trace_next)
            if result is None:
                break
            (traced if trace_next else plain).append(result)
            setups.append(result)
            per_pass = (time.monotonic() - window) / (len(plain) + len(traced))
            if args.trace and not traced:
                continue
            if run.elapsed() + per_pass > min(args.seconds, TIME_LIMIT_S):
                break
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        parent = os.path.dirname(run.workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    passes = plain + traced
    totals = {
        "attempted": sum(r["attempted"] for r in passes) + len(run.crashes),
        "failed": sum(r["failed"] for r in passes) + len(run.crashes),
        "errors": run.crashes + [e for r in passes for e in r["errors"]],
    }
    if not plain or (args.trace and not traced):
        totals["failed"] = max(totals["failed"], 1)
        return totals, {}

    def median(key, runs=plain):
        return statistics.median(r[key] for r in runs)

    print(f"{args.workload}: {len(plain)} plain passes; unadjusted medians: "
          f"pass {median('verdict_raw_s'):.4g} s, "
          f"set-up {median('setup_raw_s', setups):.4g} s; "
          f"median CPU slowdown {median('slowdown'):.3g}")
    if not args.trace:
        jobs = median_jobs(plain)
        metrics = {
            "verdict_s": median("verdict_s"),
            "checks_per_s": statistics.median(
                r["checked"] / r["verdict_s"] for r in plain),
            "job_ms_p50": statistics.median(jobs),
            "job_ms_tail": tail(jobs),
            "peak_rss_mb": max(r["rss_mb"] for r in plain),
            "setup_s": median("setup_s", setups),
        }
        return totals, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    best = min(traced, key=lambda r: r["verdict_s"])
    metrics = dict(best["layers"])
    metrics["trace_overhead_ratio"] = \
        median("verdict_s", traced) / median("verdict_s")
    absent = sorted({n for r in traced for n in r["absent"]})
    if absent:
        print("absent targets: " + ", ".join(absent))
    return totals, {k: (v, layer_unit(k)) for k, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gcvx", "__init__.py")):
        print("error: run from the root of a gcvx checkout (no src/gcvx here)",
              file=sys.stderr)
        return 2

    totals, metrics = measure(args, root)
    attempted = max(totals["attempted"], 1)
    failed = totals["failed"]
    for message in totals["errors"][:10]:
        print(f"error: {message}")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
