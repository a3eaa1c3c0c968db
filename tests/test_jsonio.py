import json
from fractions import Fraction

from gcvx import jsonio
from gcvx.measurable import FinMeasSpace
from gcvx.suites import all_sigma_spaces


def names_reference(X):
    return [list(X.subset_names(m)) for m in sorted(X.sigma)]


def test_space_roundtrip():
    X = FinMeasSpace(("a", "b", "c"), (0b001, 0b110))
    data = jsonio.space_to_json(X)
    assert data["points"] == ["a", "b", "c"]
    assert ["a"] in data["sigma"]
    assert jsonio.space_from_json(data) == X
    # names are read in runs of 8 positions: no run on the empty carrier,
    # one on every space of up to 4 points, two on a discrete 16-point
    # carrier (65,536 members) and three on a 20-point one whose four
    # atoms interleave across positions 0-19
    points = tuple(f"p{i}" for i in range(20))
    wide = [FinMeasSpace.discrete(points[:16]),
            FinMeasSpace(points, tuple(sum(1 << i for i in range(k, 20, 4))
                                       for k in range(4)))]
    small = [S for n in range(5) for S in all_sigma_spaces(tuple("abcd"[:n]))]
    assert len(small) == 24 and small[0].points == ()
    for S in small + wide:
        data = jsonio.space_to_json(S)
        assert data == {"points": list(S.points), "sigma": names_reference(S)}
        assert jsonio.space_from_json(data) == S
    assert jsonio.space_to_json(small[0]) == {"points": [], "sigma": [[]]}
    assert [len(jsonio.space_to_json(W)["sigma"]) for W in wide] == [65536, 16]


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
