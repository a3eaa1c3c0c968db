import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import smcc, suites
from gcvx.kernel import CapacityError, DomainError, ONE, ZERO, rat, rat_str, step_integrate
from gcvx.measurable import (FinMeasSpace, MeasFn, coinduced_sigma, enumerate_meas_fns,
                             generate_sigma, measurable_maps)
from gcvx.suites import all_sigma_spaces, run_suite

HALF = Fraction(1, 2)


def two_discrete():
    return FinMeasSpace.discrete(("a", "b"))


def test_tensor_of_discrete_spaces_is_discrete():
    X, Y = two_discrete(), FinMeasSpace.discrete(("x", "y"))
    T = smcc.tensor_space(X, Y)
    assert len(T.sigma) == 16
    assert T.points == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")


def test_tensor_is_product_on_small_spaces():
    # the coinduced tensor has exactly the rectangles of atoms as atoms,
    # on every pair of spaces on at most 4 points
    spaces = [X for n in (1, 2, 3, 4) for X in all_sigma_spaces(tuple("abcd"[:n]))]
    assert len(spaces) ** 2 == 529
    for X in spaces:
        for Y in spaces:
            T, P = smcc.tensor_space(X, Y), smcc.product_space(X, Y)
            assert T.atoms == P.atoms
            assert T == P


def literal_tensor(X, Y):
    # the definition: coinduce from the graph of every measurable map in
    # both directions
    ny = len(Y.points)
    family = [(X, tuple(i * ny + j for i, j in enumerate(f)))
              for f in measurable_maps(X, Y)]
    family += [(Y, tuple(i * ny + j for j, i in enumerate(g)))
               for g in measurable_maps(Y, X)]
    return coinduced_sigma(smcc.product_points(X, Y), family)


def random_space(rng, n):
    # at most k atoms, k drawn first so that coarse partitions are common
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    atoms = {}
    for i, k in enumerate(labels):
        atoms[k] = atoms.get(k, 0) | 1 << i
    return FinMeasSpace(tuple(f"p{i}" for i in range(n)), atoms.values())


def test_tensor_from_graph_pieces_matches_the_definition():
    spaces = [X for n in range(5) for X in all_sigma_spaces(tuple("abcd"[:n]))]
    assert len(spaces) ** 2 == 576
    for X in spaces:
        for Y in spaces:
            assert smcc.tensor_space(X, Y) == literal_tensor(X, Y)
    # seeded pairs up to the 16-point guard, atoms of every size
    rng = random.Random(20)
    sizes = [(n, m) for n in range(1, 17) for m in range(1, 17)
             if 4 < n * m <= smcc.TENSOR_POINT_GUARD]
    for n, m in sizes + rng.choices(sizes, k=40):
        X, Y = random_space(rng, n), random_space(rng, m)
        assert smcc.tensor_space(X, Y) == literal_tensor(X, Y)


def test_product_points_escape_each_name_once(monkeypatch):
    X = FinMeasSpace.discrete(("a", "b,c", "(d)", 'e"f'))
    Y = FinMeasSpace.discrete(("x", ")", '"'))
    want = [smcc.pair_name(x, y) for x in X.points for y in Y.points]
    assert want[5] == '("b,c","\\"")'
    calls = []
    component = smcc._component
    monkeypatch.setattr(smcc, "_component",
                        lambda name: calls.append(name) or component(name))
    assert list(smcc.product_points(X, Y)) == want
    assert sorted(calls) == sorted(X.points + Y.points)


def test_tensor_space_builds_one_space(monkeypatch):
    # the graph masks go straight to the join: no one-atom source space
    # per atom and no checked family entry per graph
    X = FinMeasSpace.trivial(("a", "b", "c", "d"))
    Y = FinMeasSpace.trivial(("x", "y", "z"))
    built = []
    post_init = FinMeasSpace.__post_init__
    monkeypatch.setattr(FinMeasSpace, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    T = smcc.tensor_space(X, Y)
    assert built == [T]
    assert T.atoms == ((1 << 12) - 1,)


def test_product_space_is_generated_by_rectangles():
    spaces = [X for n in (1, 2, 3) for X in all_sigma_spaces(("a", "b", "c")[:n])]
    for X in spaces:
        for Y in spaces:
            ny = len(Y.points)
            rects = [sum(v << i * ny for i in range(len(X.points)) if u >> i & 1)
                     for u in X.sigma for v in Y.sigma]
            want = generate_sigma(smcc.product_points(X, Y), rects)
            assert smcc.product_space(X, Y).sigma == want.sigma


def test_tensor_guard():
    big = FinMeasSpace.trivial(tuple(f"p{i}" for i in range(5)))
    with pytest.raises(CapacityError):
        smcc.tensor_space(big, FinMeasSpace.trivial(("x", "y", "z", "w")))


def test_product_has_no_tensor_guard():
    # the product and the maps built on it run past the 16 points that
    # bound the coinduced tensor
    X, Y = FinMeasSpace.discrete(("a", "b", "c")), FinMeasSpace.discrete(("0", "1"))
    Z = FinMeasSpace.discrete(tuple("uvwxyz"))
    F = smcc.function_space(X, Y)
    assert len(smcc.product_space(X, Z).points) == 18
    with pytest.raises(CapacityError):
        smcc.tensor_space(X, Z)
    ev = smcc.eval_map(X, Y, F)
    assert len(ev.dom.points) == 24 and len(ev.dom.atoms) == 24
    with pytest.raises(CapacityError):
        smcc.tensor_space(X, F.carrier)
    f = MeasFn(smcc.product_space(X, Z), Y, tuple(i % 2 for i in range(18)))
    g = smcc.curry(f, X, Z, Y)
    assert [F.elements[k] for k in g.image] == [f.image[k::6] for k in range(6)]
    assert smcc.uncurry(g, X, Z, Y).image == f.image


def test_function_space_elements_and_sigma():
    X = two_discrete()
    Y = FinMeasSpace.discrete(("0", "1"))
    F = smcc.function_space(X, Y)
    assert len(F.elements) == 4
    assert len(F.carrier.sigma) == 16  # evaluations separate all four maps
    # 27 maps between discrete 3-point spaces: the space is built, and
    # only its 2^27 member set is over capacity
    X = FinMeasSpace.discrete(("a", "b", "c"))
    F = smcc.function_space(X, X)
    assert len(F.elements) == len(F.carrier.atoms) == 27
    with pytest.raises(CapacityError):
        F.carrier.sigma


def comma_discrete():
    # product names are labels: a comma inside a point name must not matter
    return FinMeasSpace.discrete(("a,b", "c"))


def test_eval_map_is_measurable():
    Y = FinMeasSpace.discrete(("0", "1"))
    X = two_discrete()
    ev = smcc.eval_map(X, Y, smcc.function_space(X, Y))
    # spot check: ev at (a, f) where f maps a -> 1; the map's label "1,0"
    # holds a comma, so it is quoted inside the pair's label
    by_label = dict(zip(ev.dom.points, ev.mapping))
    assert by_label['(a,"1,0")'] == "1"
    assert by_label['(b,"1,0")'] == "0"
    for X in (two_discrete(), comma_discrete()):
        F = smcc.function_space(X, Y)
        ev = smcc.eval_map(X, Y, F)
        nf = len(F.elements)
        for k, f in enumerate(F.elements):
            # (x_i, f_k) is point i*|F| + k of the tensor, and f(x_i) = f[i]
            for i, j in enumerate(f):
                assert ev.image[i * nf + k] == j
                pair = smcc.pair_name(X.points[i], F.carrier.points[k])
                assert ev.dom.points[i * nf + k] == pair


def test_curry_uncurry_roundtrip_exhaustive():
    Z = FinMeasSpace.discrete(("u", "v"))
    Y = FinMeasSpace.discrete(("0", "1"))
    for X in (two_discrete(), comma_discrete()):
        F = smcc.function_space(X, Y)
        T = smcc.tensor_space(X, Z)
        outer = enumerate_meas_fns(T, Y)
        inner = enumerate_meas_fns(Z, F.carrier)
        assert len(outer) == len(inner) == 16
        nz = len(Z.points)
        for f in outer:
            g = smcc.curry(f, X, Z, Y)
            assert smcc.uncurry(g, X, Z, Y).image == f.image
            # the section at each z is f restricted to the pairs (x, z),
            # points i*|Z| + k of the tensor
            for k in range(nz):
                assert F.elements[g.image[k]] == f.image[k::nz]
                assert g.mapping[k] == ",".join(f.mapping[k::nz])
        for g in inner:
            f = smcc.uncurry(g, X, Z, Y)
            assert smcc.curry(f, X, Z, Y).image == g.image


def test_curry_rejects_a_map_off_the_tensor():
    X, Z = two_discrete(), FinMeasSpace.discrete(("u", "v"))
    Y = FinMeasSpace.discrete(("0", "1"))
    W = FinMeasSpace.discrete(("p", "q", "r", "s"))
    with pytest.raises(DomainError):
        smcc.curry(MeasFn(W, Y, (0, 1, 0, 1)), X, Z, Y)


def test_labels_stay_distinct_when_names_hold_delimiters():
    # (a, "b,c") and ("a,b", c) would both read "(a,b,c)" unquoted
    X = FinMeasSpace.discrete(("a", "a,b"))
    Y = FinMeasSpace.discrete(("b,c", "c"))
    T = smcc.tensor_space(X, Y)
    assert T.points == ('(a,"b,c")', "(a,c)", '("a,b","b,c")', '("a,b",c)')
    assert len(T.sigma) == 16
    # the maps (a, "b,c") and ("a,b", c) would both read "a,b,c" unquoted
    F = smcc.function_space(FinMeasSpace.discrete(("p", "q")),
                            FinMeasSpace.discrete(("a", "a,b", "b,c", "c")))
    assert len(F.elements) == len(set(F.carrier.points)) == 16
    assert 'a,"b,c"' in F.carrier.points and '"a,b",c' in F.carrier.points


# ---------------------------------------------------------------------------
# interval maps


def test_down_map_is_lower_indicator():
    f = smcc.down_map(HALF)
    assert f(ZERO) == ONE
    assert f(Fraction(1, 4)) == ONE
    assert f(Fraction(3, 4)) == ZERO
    assert smcc.down_map(ONE)(ONE) == ONE
    assert smcc.down_map(ZERO)(HALF) == ZERO


def test_down_and_ge_agree_off_the_diagonal():
    grid = [Fraction(k, 8) for k in range(9)]
    for u in grid:
        f = smcc.down_map(u)
        for v in grid:
            if v == u:
                continue  # the single boundary point differs by design
            assert f(v) == (ONE if v <= u else ZERO)


@given(st.fractions(min_value=0, max_value=1, max_denominator=1000))
def test_integral_of_down_map_recovers_level(u):
    assert step_integrate(smcc.down_map(u)) == u


def test_lebesgue_section_report():
    rep = run_suite("lebesgue", {"samples": 3})
    assert rep.ok and rep.instances == 3
    # one instance per sampled level, its detail the level as "p/q"
    assert sorted(rep.instance_index) == ["u0", "u1", "u2"]
    assert all(ZERO <= rat(u) <= ONE for u in rep.instance_index.values())


def test_lebesgue_detects_broken_integrator(monkeypatch):
    monkeypatch.setattr(suites, "step_integrate",
                        lambda f: step_integrate(f) + Fraction(1, 100))
    rep = run_suite("lebesgue", {"samples": 1})
    assert not rep.ok
    [failure] = rep.failures
    level = rep.instance_index["u0"]
    assert failure.law == "lebesgue.section"
    assert failure.witness == (level, rat_str(rat(level) + Fraction(1, 100)))
