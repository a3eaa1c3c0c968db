import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import convex as cvx
from gcvx.kernel import DomainError, ONE, ZERO

HALF = Fraction(1, 2)


def square():
    return cvx.GeomCvx.of(2, ((0, 0), (1, 0), (0, 1), (1, 1)))


def chain2():
    # a < b
    return cvx.SemiCvx.of(("a", "b"), (("a", "a"), ("a", "b")))


def chain3():
    # a < b < c
    return cvx.SemiCvx.of(
        ("a", "b", "c"),
        (("a", "a", "a"), ("a", "b", "b"), ("a", "b", "c")))


def vee():
    # p = r meet s, r and s incomparable
    return cvx.SemiCvx.of(
        ("p", "r", "s"),
        (("p", "p", "p"), ("p", "r", "p"), ("p", "p", "s")))


# ---------------------------------------------------------------------------
# carriers


def test_semicvx_rejects_non_semilattices():
    with pytest.raises(DomainError):
        cvx.SemiCvx.of(("a", "b"), (("b", "a"), ("a", "b")))  # not idempotent
    with pytest.raises(DomainError):
        cvx.SemiCvx.of(("a", "b"), (("a", "a"), ("b", "b")))  # not commutative


def test_two_space_interior_mixes_hit_zero():
    two = cvx.two_space()
    for alpha in (Fraction(1, 4), HALF, Fraction(3, 4)):
        assert cvx.convex_combine(two, "0", "1", alpha) == "0"
    assert cvx.convex_combine(two, "0", "1", ZERO) == "0"
    assert cvx.convex_combine(two, "0", "1", ONE) == "1"


def test_leq_and_meet_all():
    A = chain3()
    assert A.leq("a", "c") and not A.leq("c", "a")
    assert A.meet_all(("c", "b", "c")) == "b"
    with pytest.raises(DomainError):
        A.meet_all(())


# ---------------------------------------------------------------------------
# hull membership


def test_hull_member_inside_and_outside():
    sq = square()
    ok, weights = cvx.hull_member(sq, (HALF, HALF))
    assert ok
    assert sum(weights, ZERO) == ONE
    recon = [sum(w * g[d] for w, g in zip(weights, sq.generators))
             for d in range(2)]
    assert tuple(recon) == (HALF, HALF)
    ok, cert = cvx.hull_member(sq, (2, 0))
    assert not ok
    c, t = cert
    # the certificate separates: c.g <= t for all generators, c.p > t
    for g in sq.generators:
        assert sum(ci * gi for ci, gi in zip(c, g)) <= t
    assert sum(ci * pi for ci, pi in zip(c, (2, 0))) > t


def test_require_member_skips_the_lp_for_generators(monkeypatch):
    sq = square()

    def no_lp(*args, **kwargs):
        raise AssertionError("a generator needs no LP")

    monkeypatch.setattr(cvx.exactlp, "solve_eq_nonneg", no_lp)
    for g in sq.generators:
        sq.require_member(g)
    assert cvx.convex_combine(sq, (0, 0), (1, 1), HALF) == (HALF, HALF)


def test_require_member_names_point_and_functional_as_p_over_q():
    with pytest.raises(DomainError) as exc:
        square().require_member((Fraction(3, 2), ZERO))
    msg = str(exc.value)
    assert "Fraction" not in msg
    assert msg.startswith("point (3/2, 0/1) is outside the hull; "
                          "separating functional c = (")


def test_combine_many_geometric():
    sq = square()
    p = cvx.combine_many(sq, (HALF, Fraction(1, 4), Fraction(1, 4)),
                         ((0, 0), (1, 0), (1, 1)))
    assert p == (HALF, Fraction(1, 4))


@given(st.fractions(min_value=0, max_value=1, max_denominator=8))
def test_geometric_combine_matches_coordinates(alpha):
    sq = square()
    got = cvx.convex_combine(sq, (0, 0), (1, 1), alpha)
    assert got == (alpha, alpha)


def test_combine_semilattice_weight_independent():
    A = vee()
    for alpha in (Fraction(1, 8), HALF, Fraction(7, 8)):
        assert cvx.convex_combine(A, "r", "s", alpha) == "p"
    assert cvx.combine_many(A, (HALF, HALF, ZERO), ("r", "s", "p")) == "p"
    assert cvx.combine_many(A, (ONE, ZERO, ZERO), ("r", "s", "p")) == "r"


# ---------------------------------------------------------------------------
# interval endomorphisms


def test_endo_region_and_composition():
    e = cvx.EndoI.of("1/2", "1/4")
    assert cvx.endo_apply(e, HALF) == HALF
    with pytest.raises(DomainError):
        cvx.EndoI.of(2, 0)  # leaves [0,1]
    with pytest.raises(DomainError):
        cvx.EndoI.of("1/2", "3/4")  # s + t > 1
    e1 = cvx.EndoI.of("-1/2", "3/4")
    e2 = cvx.EndoI.of("1/2", "1/4")
    comp = cvx.endo_compose(e1, e2)
    for x in (ZERO, Fraction(1, 3), ONE):
        assert cvx.endo_apply(comp, x) == cvx.endo_apply(e1, cvx.endo_apply(e2, x))


# ---------------------------------------------------------------------------
# Boolean subobjects


def test_halfspace_boolean_and_contains():
    sq = square()
    S = cvx.HalfspaceSplit(sq, (ONE, ZERO), HALF, upper_closed=True)
    assert S.contains((HALF, ZERO))
    assert not S.contains((Fraction(1, 4), ZERO))
    assert cvx.is_boolean_subobject(S) == (True, None)


def test_chain_singleton_bottom_is_boolean_but_not_filter():
    A = chain2()
    S = cvx.SemiSubset(A, frozenset({"a"}))
    assert cvx.is_boolean_subobject(S)[0]
    ok, witness = cvx.chi_is_affine(S)
    assert not ok and witness is not None
    uni = cvx.boolean_union_identity(A, S)
    assert not uni["passed"]  # generated subobjects overshoot: up(a) = {a,b}
    assert uni["union"] == ["a", "b"]
    assert uni["chi_affine"] is False


def test_filters_satisfy_union_identity():
    for A in (chain3(), vee()):
        for S in cvx.all_boolean_subobjects(A):
            if cvx.chi_is_affine(S)[0]:
                assert cvx.boolean_union_identity(A, S)["passed"]


def test_generated_subobject_is_up_set():
    A = chain3()
    assert cvx.generated_subobject(A, "b") == frozenset({"b", "c"})
    assert cvx.generated_subobject(A, "a") == frozenset({"a", "b", "c"})


def test_semilattice_intersection_can_fail():
    A = vee()
    S1 = cvx.SemiSubset(A, frozenset({"p", "r"}))
    S2 = cvx.SemiSubset(A, frozenset({"p", "s"}))
    assert cvx.is_boolean_subobject(S1)[0]
    assert cvx.is_boolean_subobject(S2)[0]
    chk = cvx.boolean_intersection_check(A, S1, S2)
    assert not chk["passed"]
    assert chk["intersection"] == ["p"]


def test_lshape_intersection_fails_in_dimension_two():
    sq = square()
    S1 = cvx.HalfspaceSplit(sq, (ONE, ZERO), HALF, upper_closed=True)
    S2 = cvx.HalfspaceSplit(sq, (ZERO, ONE), HALF, upper_closed=True)
    chk = cvx.boolean_intersection_check(sq, S1, S2)
    assert not chk["passed"]
    x, y, alpha = chk["witness"]
    mid = tuple((ONE - alpha) * u + alpha * v for u, v in zip(x, y))
    inside = lambda p: S1.contains(p) and S2.contains(p)
    assert inside(x) == inside(y) != inside(mid)


# ---------------------------------------------------------------------------
# affine maps and double duals


def test_semi_to_interval_maps_are_constant():
    A = chain2()
    maps = cvx.affine_semi_to_interval_maps(A, (ZERO, HALF, ONE))
    assert len(maps) == 3
    for m in maps:
        assert m.apply("a") == m.apply("b")
    with pytest.raises(DomainError):
        cvx.SemiToI(A, (ZERO, ONE))  # non-constant cannot be affine


def test_semi_to_semi_preserves_meets():
    A, B = chain2(), chain3()
    f = cvx.SemiToSemi(A, B, ("a", "c"))
    assert f.apply("a") == "a"
    with pytest.raises(DomainError):
        cvx.SemiToSemi(vee(), chain3(), ("c", "a", "b"))


def test_geom_functionals_and_separation():
    sq = square()
    half = cvx.separate_points(sq, (0, 0), (1, 1))
    assert half.contains((1, 1)) and not half.contains((0, 0))
    fns = cvx.geom_spanning_functionals(sq)
    for a, b in itertools.combinations(sq.generators, 2):
        assert any(m.apply(a) != m.apply(b) for m in fns)
    assert cvx.injectivity_check(sq)["injective"]


def test_two_space_double_dual_collapses():
    two = cvx.two_space()
    res = cvx.injectivity_check(two)
    assert not res["injective"]
    assert res["witness"] == ("0", "1")
    for m in cvx.affine_semi_to_interval_maps(two, (ZERO, HALF, ONE)):
        assert m.apply("0") == m.apply("1")


# ---------------------------------------------------------------------------
# enumeration


def brute_meet_tables(n):
    """Reference count of meet-semilattice structures: fill the upper
    triangle arbitrarily and keep the associative ones."""
    names = tuple("abcde"[:n])
    pairs = list(itertools.combinations(range(n), 2))
    found = set()
    for choice in itertools.product(range(n), repeat=len(pairs)):
        table = [[i if i == j else None for j in range(n)] for i in range(n)]
        for (i, j), m in zip(pairs, choice):
            table[i][j] = table[j][i] = m
        try:
            cvx.SemiCvx(names, tuple(tuple(r) for r in table))
        except DomainError:
            continue
        found.add(tuple(tuple(r) for r in table))
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_semilattices_matches_brute_force(n):
    got = {L.meet_table for L in cvx.enumerate_semilattices(n)}
    assert got == brute_meet_tables(n)


def test_enumerate_semilattice_counts_frozen():
    # labelled meet-semilattice counts, frozen from the brute-force oracle
    assert [len(cvx.enumerate_semilattices(n)) for n in (1, 2, 3, 4)] == \
        [1, 2, 9, 76]
