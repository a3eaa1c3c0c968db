"""Self-test: the benchmark's gate can fail, and its inputs are seeded.

    python3 perfbench/selftest.py

Run from the root of a gcvx checkout.  Prints one PASS/FAIL line per check
and exits 1 if any check fails.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.abspath("src"), HERE]

from gcvx import convex as cvx  # noqa: E402
from gcvx import giry  # noqa: E402
from gcvx.measurable import FinMeasSpace  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def check(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))


def corrupted_mu(original):
    """The multiplication with two masses swapped once the support has more
    than one measure (the corruption of acceptance criterion 11)."""
    def mu(PP):
        good = original(PP)
        if len(PP.support) > 1:
            m = list(good.mass)
            m[0], m[-1] = m[-1], m[0]
            return giry.FinDist(good.space, tuple(m))
        return good
    return mu


def tampered_hull_member(original):
    """Answer every membership question the wrong way round."""
    def hull_member(A, p):
        ok, _cert = original(A, p)
        if ok:
            return False, (tuple(0 for _ in range(A.dim)), 0)
        n = len(A.generators)
        return True, tuple(Fraction(1, n) for _ in range(n))
    return hull_member


def run_patched(module, attr, replacement, workload, inputs) -> dict:
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        return workloads.run_pass(workload, inputs)
    finally:
        setattr(module, attr, original)


def main() -> int:
    # the gate can fail
    good_mu = giry.mu
    out = run_patched(giry, "mu", corrupted_mu(good_mu),
                      "laws", workloads.LAW_SUITES[:1])
    check("corrupted mu makes the giry-monad suite of laws fail",
          out["failed"] > 0,
          f"{out['failed']} of {out['attempted']} failed")

    queries = workloads.make_inputs("polytope", 0, "")
    out = run_patched(cvx, "hull_member", tampered_hull_member(cvx.hull_member),
                      "polytope", queries)
    check("tampered hull_member makes polytope fail", out["failed"] > 0,
          f"{out['failed']} of {out['attempted']} failed")

    for workload, inputs in (
            ("tensor", []), ("polytope", []),
            ("laws", [dict(workloads.LAW_SUITES[0], config={"maxPoints": 0})])):
        out = workloads.run_pass(workload, inputs)
        check(f"an empty {workload} pass fails", out["failed"] > 0,
              "; ".join(out["errors"]))

    # untouched code passes a small slice of each request stream
    queries = workloads.make_inputs("polytope", 0, "")
    out = workloads.run_pass("polytope", queries[:40])
    check("unmodified polytope slice passes",
          out["failed"] == 0 and out["checked"] == 40, "; ".join(out["errors"]))
    check("every job of the slice has a latency at the reference CPU speed",
          len(out["latencies_ms"]) == 40 and out["slowdown"] > 0
          and 0 < out["verdict_s"] and all(t > 0 for t in out["latencies_ms"]),
          f"slowdown {out['slowdown']:.3g}")

    # seeded inputs
    for name, make in (("tensor", workloads.tensor_requests),
                       ("polytope", workloads.polytope_queries)):
        def dump(seed):
            return json.dumps(make(seed), default=str).encode()
        check(f"{name} inputs repeat byte for byte under one seed",
              dump(7) == dump(7))
        check(f"{name} inputs differ under another seed", dump(7) != dump(8))

    # tracing reports a vanished target as absent and restores everything
    tracer = layertrace.Tracer()
    tracer.install(layertrace.TARGETS + (
        ("gcvx.giry", "no_such_function", "giry.no_such_function", True, None),))
    wrapped = giry.mu is not good_mu
    point = FinMeasSpace.discrete(("a",))
    giry.mu(giry.DistOverDists.of(point, [(1, giry.dirac(point, "a"))]))
    tracer.uninstall()
    metrics = tracer.metrics()
    check("a vanished target reads as absent, not zero",
          metrics["giry.no_such_function.calls"] is None
          and metrics["giry.mu.calls"] == 1 and wrapped)
    check("uninstall restores the traced functions", giry.mu is good_mu)

    # without the program next to it the benchmark refuses to run
    scratch = tempfile.mkdtemp(dir=os.path.abspath("."), prefix=".perfbench_st")
    try:
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "laws",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=60,
            check=False)
    finally:
        shutil.rmtree(scratch)
    check("without src/gcvx the benchmark exits non-zero and prints no result",
          proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"exit {proc.returncode}")

    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
