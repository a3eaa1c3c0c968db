"""JSON input and output: measurable spaces, report files and witnesses.

Sigma-algebras travel as lists of subsets given by point names (or as
generators); rationals in reports and witnesses as canonical "p/q"
strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .kernel import rat_str
from .measurable import FinMeasSpace, generate_sigma, mask_of


def space_to_json(X: FinMeasSpace) -> dict:
    return {
        "points": list(X.points),
        "sigma": [list(X.subset_names(m)) for m in sorted(X.sigma)],
    }


def space_from_json(data: dict) -> FinMeasSpace:
    points = tuple(data["points"])
    if "generators" in data:
        gens = [mask_of(points, g) for g in data["generators"]]
        return generate_sigma(points, gens)
    if "sigma" in data:
        sigma = frozenset(mask_of(points, s) for s in data["sigma"])
        return FinMeasSpace(points, sigma)
    return FinMeasSpace.discrete(points)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def json_default(obj):
    """Encode witness payloads: rationals as "p/q", sets as sorted lists."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    return repr(obj)


def dump_json(data, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")
