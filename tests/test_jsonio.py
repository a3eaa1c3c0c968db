import json
from fractions import Fraction

import pytest

from gcvx import jsonio
from gcvx.kernel import DomainError
from gcvx.measurable import FinMeasSpace
from gcvx.smcc import product_space
from gcvx.suites import all_sigma_spaces


def names_reference(X):
    return [list(X.subset_names(m)) for m in sorted(X.sigma)]


def space_data(X):
    """X as the JSON object `space_from_json` reads, its member list
    parsed back from the writer's text."""
    return {"points": list(X.points), "sigma": json.loads(jsonio.sigma_text(X))}


# names are read in runs of 8 positions: no run on the empty carrier, one
# on every space of up to 4 points, two on a discrete 16-point carrier
# (65,536 members) and three on a 20-point one whose four atoms
# interleave across positions 0-19
POINTS = tuple(f"p{i}" for i in range(20))
WIDE = [FinMeasSpace.discrete(POINTS[:16]),
        FinMeasSpace(POINTS, tuple(sum(1 << i for i in range(k, 20, 4))
                                   for k in range(4)))]
SMALL = [S for n in range(5) for S in all_sigma_spaces(tuple("abcd"[:n]))]

# names JSON must escape: a quote, a backslash, a non-ASCII letter and
# control characters, and pair labels whose components `pair_name` quotes
ODD = [FinMeasSpace.discrete(('"', "\\", "\u00e9", "\x07", "tab\there")),
       product_space(FinMeasSpace.discrete(("a,b", 'c"d', "(e)")),
                     FinMeasSpace.discrete(("\u00e9", "x\\y")))]


def test_space_roundtrip():
    X = FinMeasSpace(("a", "b", "c"), (0b001, 0b110))
    data = space_data(X)
    assert data["points"] == ["a", "b", "c"]
    assert ["a"] in data["sigma"]
    assert jsonio.space_from_json(data) == X
    assert len(SMALL) == 24 and SMALL[0].points == ()
    for S in SMALL + WIDE + ODD:
        data = space_data(S)
        assert data == {"points": list(S.points), "sigma": names_reference(S)}
        assert jsonio.space_from_json(data) == S
    assert jsonio.sigma_text(SMALL[0]) == "[[]]"
    assert [len(space_data(W)["sigma"]) for W in WIDE] == [65536, 16]


def test_sigma_text_is_json_dumps_of_the_member_list():
    for S in SMALL + WIDE + ODD:
        assert jsonio.sigma_text(S) == json.dumps(names_reference(S))
    # every odd name is one that quoting it as '"' + name + '"' gets wrong
    odd = [p for S in ODD for p in S.points]
    assert len(odd) == 11
    assert all(json.dumps(p) != '"' + p + '"' for p in odd)


def test_space_from_generators_and_default_powerset():
    got = jsonio.space_from_json(
        {"points": ["a", "b", "c"], "generators": [["a"]]})
    assert got.sigma == frozenset({0, 0b001, 0b110, 0b111})
    assert jsonio.space_from_json({"points": ["a", "b"]}).sigma == \
        frozenset(range(4))


def test_dump_encodes_fractions_and_sets(tmp_path):
    out = tmp_path / "r.json"
    jsonio.dump_json({"w": Fraction(1, 3), "s": frozenset({"b", "a"})},
                     str(out))
    data = json.loads(out.read_text())
    assert data == {"w": "1/3", "s": ["a", "b"]}


def test_load_json_reads_utf8_json_only(tmp_path):
    path = tmp_path / "space.json"
    path.write_bytes('{"points": ["\u00e9", "x"]}'.encode("utf-8"))
    assert jsonio.load_json(str(path)) == {"points": ["\u00e9", "x"]}
    # bytes that are not UTF-8, JSON in another encoding, a UTF-8 byte
    # order mark and text that is not JSON
    for data in (b"\xff{}", '{"points": []}'.encode("utf-16"),
                 "\ufeff{}".encode("utf-8"), b"not json", b""):
        path.write_bytes(data)
        with pytest.raises(DomainError, match="does not hold JSON"):
            jsonio.load_json(str(path))
