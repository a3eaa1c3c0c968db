"""JSON input and output: measurable spaces, report files and witnesses.

A space travels as its point names plus either its generators or its
sigma-algebra, written out as the member list (the derived view of the
atoms); without either it is discrete, and any other key is an error.
`sigma_text` writes that list straight to JSON text, the same text
`json.dumps` makes of the nested list: each point name is encoded once,
and a member costs one table lookup per run of positions, a run being
as wide as the space has atoms, at most 8, so that no table outgrows
the member list.
Rationals in reports and witnesses travel as canonical "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .kernel import DomainError, rat_str
from .measurable import FinMeasSpace, generate_sigma, masks_of, space_from_members


def sigma_text(X: FinMeasSpace) -> str:
    """The JSON text of the member list of X: members in mask order,
    each the names of its points in carrier order.

    The text is `json.dumps` of that nested list, with its default
    separators.  Names are read in runs of min(max(atoms, 1), 8)
    positions.  Each run's table is built by doubling: from the empty
    entry, each name of the run is appended to every entry so far, so
    entry k holds the names of the bits set in k, at one concatenation
    per entry.  A member costs one lookup per run, and since the width
    is at most the number of atoms, a table holds at most one entry per
    member.  Every name carries its leading ", ", cut once per member."""
    names = [", " + json.dumps(p) for p in X.points]
    members = X.members
    width = min(max(len(X.atoms), 1), 8)
    piece = (1 << width) - 1
    texts = [""] * len(members)
    for s in range(0, len(names), width):
        table = [""]
        for p in names[s:s + width]:
            table += [t + p for t in table]
        texts = [a + table[m >> s & piece] for a, m in zip(texts, members)]
    return "[[" + "], [".join([t[2:] for t in texts]) + "]]"


def _names(value) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DomainError(f"expected a list of point names, not {value!r}")
    return value


_SPACE_KEYS = {"points", "generators", "sigma"}


def space_from_json(data) -> FinMeasSpace:
    if not isinstance(data, dict):
        raise DomainError("a space must be a JSON object")
    if "points" not in data:
        raise DomainError("a space must list its points")
    unknown = data.keys() - _SPACE_KEYS
    if unknown:
        raise DomainError(f"a space has no key {min(unknown)!r}")
    if "generators" in data and "sigma" in data:
        raise DomainError("a space gives generators or sigma, not both")
    points = tuple(_names(data["points"]))
    for key, build in (("generators", generate_sigma), ("sigma", space_from_members)):
        if key in data:
            if not isinstance(data[key], list):
                raise DomainError(f"{key} must be a list of subsets")
            return build(points, masks_of(points, map(_names, data[key])))
    return FinMeasSpace.discrete(points)


def load_json(path: str):
    """The JSON value in a file; text that is not UTF-8 JSON is a
    DomainError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
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
