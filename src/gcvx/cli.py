"""Command-line workbench: run law suites and inspect counterexamples.

`main` can be called repeatedly in one process: it builds its parser
once, on the first call, and each call parses and runs only its own
request.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .jsonio import dump_json, load_json, space_from_json, space_to_json
from .kernel import CapacityError, DomainError
from .smcc import product_space, tensor_space
from .suites import SUITE_NAMES, explain, run_suite

USAGE_EXIT = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcvx",
        description="Exact-arithmetic law suites for measures and convex "
                    "spaces at finite scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUITE_NAMES:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="seed for sampled instances")
        p.add_argument("--json", dest="json_out", help="write the report here")
        p.add_argument("--max-size", type=int,
                       help="size bound for exhaustive families")
        p.add_argument("--max-points", type=int,
                       help="carrier-size bound for measurable spaces")
        p.add_argument("--samples", type=int,
                       help="sample count for sampled suites")
    t = sub.add_parser("tensor", help="compare tensor and product "
                       "sigma-algebras on two spaces")
    t.add_argument("--left", required=True, help="JSON file for the left space")
    t.add_argument("--right", required=True,
                   help="JSON file for the right space")
    t.add_argument("--json", dest="json_out")
    e = sub.add_parser("explain", help="re-run a suite and trace one instance")
    e.add_argument("--suite", required=True, choices=SUITE_NAMES)
    e.add_argument("--instance", required=True)
    e.add_argument("--law")
    e.add_argument("--config", help="JSON config file (must match the "
                   "original run)")
    e.add_argument("--seed", type=int)
    return parser


def _suite_config(args) -> dict:
    config = {}
    if getattr(args, "config", None):
        config = load_json(args.config)
        if not isinstance(config, dict):
            raise DomainError("a config file must hold a JSON object")
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "max_size", None) is not None:
        config["maxSize"] = args.max_size
    if getattr(args, "max_points", None) is not None:
        config["maxPoints"] = args.max_points
    if getattr(args, "samples", None) is not None:
        config["samples"] = args.samples
    return config


def _emit(report, json_out) -> int:
    data = report.to_json()
    if json_out:
        dump_json(data, json_out)
    print(f"suite {data['suite']}: {data['passed']}/{data['instances']} "
          f"passed, {len(data['failures'])} failure(s)")
    for f in data["failures"]:
        tag = " [expected erratum]" if f["erratumExpected"] else ""
        print(f"  FAIL {f['law']} @ {f['instance']}{tag}: {f['witness']}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        if args.command == "tensor":
            left = space_from_json(load_json(args.left))
            right = space_from_json(load_json(args.right))
            T = tensor_space(left, right)
            P = product_space(left, right)
            data = {
                "tensorSigma": space_to_json(T)["sigma"],
                "productSigma": space_to_json(P)["sigma"],
                "strictlyLarger": P.sigma < T.sigma,
            }
            if args.json_out:
                dump_json(data, args.json_out)
            print(json.dumps(data))
            return 0
        if args.command == "explain":
            report = run_suite(args.suite, _suite_config(args))
            print(explain(report, args.instance, args.law))
            return 0
        report = run_suite(args.command, _suite_config(args))
        return _emit(report, args.json_out)
    except (CapacityError, DomainError, KeyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
