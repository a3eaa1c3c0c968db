from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import smcc
from gcvx.kernel import CapacityError, DomainError, ONE, ZERO, step_integrate
from gcvx.measurable import FinMeasSpace, MeasFn, enumerate_meas_fns, generate_sigma
from gcvx.suites import all_sigma_spaces

HALF = Fraction(1, 2)


def two_discrete():
    return FinMeasSpace.discrete(("a", "b"))


def two_trivial():
    return FinMeasSpace.trivial(("x", "y"))


def test_tensor_of_discrete_spaces_is_discrete():
    X, Y = two_discrete(), FinMeasSpace.discrete(("x", "y"))
    T = smcc.tensor_space(X, Y)
    assert len(T.sigma) == 16
    assert T.points == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")


def test_product_contained_in_tensor():
    X = two_discrete()
    Y = two_trivial()
    T = smcc.tensor_space(X, Y)
    P = smcc.product_space(X, Y)
    assert P.sigma <= T.sigma


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


def test_function_space_elements_and_sigma():
    X = two_discrete()
    Y = FinMeasSpace.discrete(("0", "1"))
    F = smcc.function_space(X, Y)
    assert len(F.elements) == 4
    assert len(F.carrier.sigma) == 16  # evaluations separate all four maps


def comma_discrete():
    # product names are labels: a comma inside a point name must not matter
    return FinMeasSpace.discrete(("a,b", "c"))


def test_eval_map_is_measurable():
    Y = FinMeasSpace.discrete(("0", "1"))
    X = two_discrete()
    ev = smcc.eval_map(X, Y, smcc.function_space(X, Y))
    # spot check: ev at (a, f) where f maps a -> 1; the map's label "1,0"
    # holds a comma, so it is quoted inside the pair's label
    assert ev('(a,"1,0")') == "1"
    assert ev('(b,"1,0")') == "0"
    for X in (two_discrete(), comma_discrete()):
        F = smcc.function_space(X, Y)
        ev = smcc.eval_map(X, Y, F)
        for f in F.elements:
            mapping = tuple(Y.points[j] for j in f)
            for x, y in zip(X.points, mapping):
                assert ev(smcc.pair_name(x, ",".join(mapping))) == y


def test_curry_uncurry_roundtrip_exhaustive():
    Z = FinMeasSpace.discrete(("u", "v"))
    Y = FinMeasSpace.discrete(("0", "1"))
    for X in (two_discrete(), comma_discrete()):
        F = smcc.function_space(X, Y)
        T = smcc.tensor_space(X, Z)
        outer = enumerate_meas_fns(T, Y)
        inner = enumerate_meas_fns(Z, F.carrier)
        assert len(outer) == len(inner) == 16
        for f in outer:
            g = smcc.curry(f, X, Z, Y)
            assert smcc.uncurry(g, X, Z, Y).mapping == f.mapping
            # the section at each z is f restricted to the pairs (x, z)
            for z in Z.points:
                section = tuple(f(smcc.pair_name(x, z)) for x in X.points)
                assert g(z) == ",".join(section)
        for g in inner:
            f = smcc.uncurry(g, X, Z, Y)
            assert smcc.curry(f, X, Z, Y).mapping == g.mapping


def test_curry_rejects_a_map_off_the_tensor():
    X, Z = two_discrete(), FinMeasSpace.discrete(("u", "v"))
    Y = FinMeasSpace.discrete(("0", "1"))
    W = FinMeasSpace.discrete(("p", "q", "r", "s"))
    with pytest.raises(DomainError):
        smcc.curry(MeasFn(W, Y, ("0", "1", "0", "1")), X, Z, Y)


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
    chk = smcc.lebesgue_section_check([ZERO, Fraction(1, 3), ONE])
    assert chk["passed"]
    assert len(chk["entries"]) == 3


def test_lebesgue_detects_broken_integrator():
    bad = lambda f: step_integrate(f) + Fraction(1, 100)
    chk = smcc.lebesgue_section_check([HALF], integrator=bad)
    assert not chk["passed"]
