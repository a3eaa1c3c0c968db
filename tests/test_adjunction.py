from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import adjunction as adj
from gcvx.convex import (
    GeomCvx,
    SemiCvx,
    geom_spanning_functionals,
    two_space,
)
from gcvx.giry import FinDist, dirac, two_level_dists
from gcvx.kernel import DomainError, ONE, ZERO
from gcvx.measurable import FinMeasSpace, MeasFn, is_separated

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def chain3():
    return SemiCvx.of(
        ("a", "b", "c"),
        (("a", "a", "a"), ("a", "b", "b"), ("a", "b", "c")))


def test_sigma_functor_on_the_classifier():
    two = two_space()
    sa = adj.sigma_functor(two)
    assert sa.space.sigma == frozenset({0, 0b01, 0b10, 0b11})
    assert is_separated(sa.space) == (True, None)


def test_sigma_functor_separates_all_small_semilattices():
    from gcvx.convex import enumerate_semilattices
    for n in (1, 2, 3):
        for A in enumerate_semilattices(n):
            assert is_separated(adj.sigma_functor(A).space)[0]


def test_counit_meet_of_support():
    A = chain3()
    sa = adj.sigma_functor(A)
    P = FinDist(sa.space, (ZERO, HALF, HALF))
    assert adj.counit(A, P) == "b"
    assert adj.counit(A, dirac(sa.space, "c")) == "c"


def test_counit_barycenter():
    seg = GeomCvx.of(1, ((0,), (1,)))
    assert adj.counit(seg, [(HALF, (ZERO,)), (HALF, (ONE,))]) == (HALF,)


def test_adjunct_roundtrip_and_meet_formula():
    A = chain3()
    sa = adj.sigma_functor(A)
    X = FinMeasSpace.discrete(("x", "y"))
    f = MeasFn(X, sa.space, ("a", "c"))
    g = adj.adjunct(f, A)
    assert g(dirac(X, "x")) == "a"
    P = FinDist(X, (HALF, HALF))
    assert g(P) == "a"  # meet of {a, c}
    assert adj.adjunct_inverse(g, X, sa).mapping == f.mapping


def test_triangle_identities():
    X = FinMeasSpace.discrete(("x", "y"))
    rep = adj.triangle_check(X, semilattices=[chain3(), two_space()])
    assert rep.ok and rep.instances > 0


def test_mu_is_the_barycenter_counit():
    X = FinMeasSpace.discrete(("x", "y"))
    for PP in two_level_dists(X)[:25]:
        assert adj.mu_matches_counit(X, PP)


def test_unit_generator_measurability():
    for X in (FinMeasSpace.discrete(("x", "y")),
              FinMeasSpace.trivial(("x", "y", "z"))):
        assert adj.unit_generator_measurability(X).ok


# ---------------------------------------------------------------------------
# telescoping


def test_telescope_hand_example():
    out = adj.telescope(["1/4", "3/4"], [{"u"}, {"v"}])
    assert out == [(QUARTER, frozenset({"u", "v"})),
                   (HALF, frozenset({"v"})),
                   (QUARTER, frozenset())]


def test_telescope_validation():
    with pytest.raises(DomainError):
        adj.telescope(["3/4", "1/4"], [{"u"}, {"v"}])  # not ascending
    with pytest.raises(DomainError):
        adj.telescope(["1/4", "1/2"], [{"u"}, {"u"}])  # not disjoint
    with pytest.raises(DomainError):
        adj.telescope(["1/4"], [{"u"}, {"v"}])  # arity mismatch


@st.composite
def simple_functions(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    coeffs = sorted(draw(st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=24),
        min_size=n, max_size=n)))
    blocks = [{f"s{i}_{j}" for j in range(draw(st.integers(1, 3)))}
              for i in range(n)]
    return coeffs, blocks


@given(simple_functions())
def test_telescope_is_convex_and_pointwise_exact(fn):
    coeffs, blocks = fn
    out = adj.telescope(coeffs, blocks)
    weights = [w for w, _ in out]
    assert all(w >= 0 for w in weights)
    assert sum(weights, ZERO) == ONE
    assert out[-1][1] == frozenset()
    for c, block in zip(coeffs, blocks):
        for x in block:
            assert adj.telescope_pointwise(out, x) == c


# ---------------------------------------------------------------------------
# evaluation identity


def test_eval_hull_identity():
    sq = GeomCvx.of(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    fns = geom_spanning_functionals(sq)
    rep = adj.eval_hull_identity(
        sq, (HALF, QUARTER, QUARTER), ((0, 0), (1, 0), (1, 1)), fns)
    assert rep["passed"]


# ---------------------------------------------------------------------------
# algebras


def test_convex_to_algebra_laws_and_roundtrip():
    A = chain3()
    alg = adj.convex_to_algebra(A)
    assert adj.algebra_law_report(alg).ok
    rt = adj.roundtrip_check(A)
    assert rt["passed"]
    assert rt["recovered"].meet_table == A.meet_table


def test_algebra_to_convex_rejects_weight_dependence():
    X = FinMeasSpace.discrete(("a", "b"))

    def crooked(P):
        # picks a point by comparing mass to an interior threshold, which
        # makes the induced binary operation depend on the weight
        return "a" if P.mass[0] >= Fraction(2, 3) else "b"

    alg = adj.GiryAlgebra(X, crooked)
    with pytest.raises(DomainError):
        adj.algebra_to_convex(alg)


def test_corrupted_structure_map_fails_laws():
    A = chain3()
    good = adj.convex_to_algebra(A)

    def twisted(P):
        out = good.h(P)
        return "c" if out == "a" else out

    rep = adj.algebra_law_report(adj.GiryAlgebra(good.space, twisted))
    assert not rep.ok


def test_free_algebra_realizes_the_simplex():
    X = FinMeasSpace.discrete(("a", "b"))
    free = adj.free_algebra_to_convex(X)
    assert free["kind"] == "geom"
    assert free["theta"]["a"] == (ONE, ZERO)
    for PP in two_level_dists(X)[:10]:
        from gcvx.giry import mu
        assert free["q"](PP) == mu(PP).mass
