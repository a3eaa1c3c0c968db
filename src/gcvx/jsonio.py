"""JSON input and output: measurable spaces, report files and witnesses.

A space travels as its point names plus either its generators or its
sigma-algebra, written out as the member list (the derived view of the
atoms); without either it is discrete.  `space_to_json` writes that
list with one table lookup per member and run of 8 positions.
Rationals in reports and witnesses travel as canonical "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .kernel import DomainError, rat_str
from .measurable import FinMeasSpace, generate_sigma, mask_of, space_from_members


def space_to_json(X: FinMeasSpace) -> dict:
    """The points and the member list of X, members in mask order.

    Member names are read in runs of 8 positions: for each run, a table
    maps every 8-bit piece that occurs in some member to the names it
    selects, so a member costs one lookup per run and the tables hold at
    most one entry per member."""
    points = X.points
    members = sorted(X.sigma)
    sigma = [[]] * len(members)
    for s in range(0, len(points), 8):
        run = points[s:s + 8]
        table = {piece: [p for i, p in enumerate(run) if piece >> i & 1]
                 for piece in {m >> s & 255 for m in members}}
        sigma = [names + table[m >> s & 255] for names, m in zip(sigma, members)]
    return {"points": list(points), "sigma": sigma}


def _names(value) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DomainError(f"expected a list of point names, not {value!r}")
    return value


def space_from_json(data) -> FinMeasSpace:
    if not isinstance(data, dict):
        raise DomainError("a space must be a JSON object")
    if "points" not in data:
        raise DomainError("a space must list its points")
    points = tuple(_names(data["points"]))
    for key, build in (("generators", generate_sigma), ("sigma", space_from_members)):
        if key in data:
            if not isinstance(data[key], list):
                raise DomainError(f"{key} must be a list of subsets")
            return build(points, [mask_of(points, _names(s)) for s in data[key]])
    return FinMeasSpace.discrete(points)


def load_json(path: str):
    """The JSON value in a file; text that is not UTF-8 JSON is a
    DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DomainError(f"{path} does not hold JSON: {exc}") from None


def json_default(obj):
    """Encode witness payloads: rationals as "p/q", sets as sorted lists."""
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    return repr(obj)


def witness_text(witness) -> str:
    """A witness as one line of the same JSON the report file holds."""
    return json.dumps(witness, sort_keys=True, default=json_default)


def dump_json(data, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")
