"""One benchmark pass in a fresh process, as a `gcvx` invocation pays.

    python3 perfbench/worker.py --workload W --seed N --started-at T
        --workdir DIR [--spans FILE] [--setup-only]

T is the parent's `time.monotonic()` just before it started this process,
so `setup_s` covers interpreter start, importing gcvx and making the
inputs; a calibration slice right after it gives `setup_slowdown` (see
cpuspeed.py).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace the pass; write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import gcvx
    if not os.path.abspath(gcvx.__file__).startswith(src + os.sep):
        print(f"gcvx was imported from {gcvx.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.started_at
    import cpuspeed
    out = {"setup_s": setup_s, "setup_slowdown": cpuspeed.slowdown(
        cpuspeed.slice_s(cpuspeed.SETUP_UNITS), cpuspeed.SETUP_UNITS)}
    if not args.setup_only:
        tracer = None
        if args.spans:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        out.update(workloads.run_pass(args.workload, inputs))
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.metrics()
            out["absent"] = tracer.absent
            tracer.write_spans(args.spans)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
