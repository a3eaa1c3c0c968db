"""Command-line workbench: run law suites and inspect counterexamples.

`main` can be called repeatedly in one process: it builds its parser
once, on the first call, and each call parses and runs only its own
request.  An argument a subcommand does not take is reported by that
subcommand's parser, with its usage line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .jsonio import dump_json, load_json, sigma_text, space_from_json, witness_text
from .kernel import CapacityError, DomainError
from .smcc import product_space, tensor_space
from .suites import SUITE_NAMES, SUITES, explain, run_suite

USAGE_EXIT = 2


# the command-line flag of each config key that has one, with its help;
# maxSupport is set only in a config file
_FLAGS = {
    "maxPoints": ("--max-points", "carrier-size bound for measurable spaces"),
    "maxSize": ("--max-size", "size bound for exhaustive families"),
    "samples": ("--samples", "sample count for sampled suites"),
    "seed": ("--seed", "seed for sampled instances"),
}


def _add_flag(parser, key: str, note: str = "") -> None:
    flag, text = _FLAGS[key]
    parser.add_argument(flag, dest=key, type=int, metavar="N", help=text + note)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcvx",
        description="Exact-arithmetic law suites for measures and convex "
                    "spaces at finite scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_runner, defaults) in SUITES.items():
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--json", dest="json_out", help="write the report here")
        for key, default in defaults.items():
            if key in _FLAGS:
                _add_flag(p, key, f" (default {default})")
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
    _add_flag(e, "seed")
    for p in sub.choices.values():  # each reports its own bad arguments
        p.set_defaults(command_parser=p)
    return parser


def _suite_config(args) -> dict:
    config = {}
    if args.config:
        config = load_json(args.config)
        if not isinstance(config, dict):
            raise DomainError("a config file must hold a JSON object")
    for key in _FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _emit(report, json_out) -> int:
    data = report.to_json()
    if json_out:
        dump_json(data, json_out)
    print(f"suite {data['suite']}: {data['passed']}/{data['instances']} "
          f"passed, {len(data['failures'])} failure(s)")
    for f in data["failures"]:
        tag = " [expected erratum]" if f["erratumExpected"] else ""
        print(f"  FAIL {f['law']} @ {f['instance']}{tag}: "
              f"{witness_text(f['witness'])}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.command_parser.error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        if args.command == "tensor":
            left = space_from_json(load_json(args.left))
            right = space_from_json(load_json(args.right))
            T = tensor_space(left, right)
            P = product_space(left, right)
            product_sigma = sigma_text(P)
            tensor_sigma = product_sigma if T == P else sigma_text(T)
            larger = json.dumps(T != P and P.sigma < T.sigma)
            line = ('{"tensorSigma": ' + tensor_sigma + ', "productSigma": '
                    + product_sigma + ', "strictlyLarger": ' + larger + '}')
            if args.json_out:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            print(line)
            return 0
        if args.command == "explain":
            report = run_suite(args.suite, _suite_config(args))
            print(explain(report, args.instance, args.law))
            return 0
        report = run_suite(args.command, _suite_config(args))
        return _emit(report, args.json_out)
    except (CapacityError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
