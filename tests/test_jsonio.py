import json
from fractions import Fraction

from gcvx import jsonio
from gcvx.measurable import FinMeasSpace


def test_space_roundtrip():
    X = FinMeasSpace(("a", "b", "c"), (0b001, 0b110))
    data = jsonio.space_to_json(X)
    assert data["points"] == ["a", "b", "c"]
    assert ["a"] in data["sigma"]
    assert jsonio.space_from_json(data) == X
    # a wide carrier: four atoms interleaved across positions 0-19
    points = tuple(f"p{i}" for i in range(20))
    W = FinMeasSpace(points, tuple(sum(1 << i for i in range(k, 20, 4))
                                   for k in range(4)))
    data = jsonio.space_to_json(W)
    assert data["sigma"] == [list(W.subset_names(m)) for m in sorted(W.sigma)]
    assert len(data["sigma"]) == 16
    assert jsonio.space_from_json(data) == W


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
