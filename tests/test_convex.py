import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import adjunction as adj, convex as cvx, exactlp
from gcvx.adjunction import eval_hull_identity
from gcvx.kernel import DomainError, ONE, ZERO, int_row, rat_str
from test_exactlp import counted_pivots

HALF = Fraction(1, 2)


def square():
    return cvx.GeomCvx.of(2, ((0, 0), (1, 0), (0, 1), (1, 1)))


def chain2():
    # a < b, at positions 0 and 1
    return cvx.SemiCvx(("a", "b"), ((0, 0), (0, 1)))


def chain3():
    # a < b < c
    return cvx.SemiCvx(("a", "b", "c"), ((0, 0, 0), (0, 1, 1), (0, 1, 2)))


def vee():
    # p = r meet s, r and s incomparable
    return cvx.SemiCvx(("p", "r", "s"), ((0, 0, 0), (0, 1, 0), (0, 0, 2)))


# ---------------------------------------------------------------------------
# carriers


def test_semicvx_rejects_non_semilattices():
    with pytest.raises(DomainError):
        cvx.SemiCvx(("a", "b"), ((1, 0), (0, 1)))  # not idempotent
    with pytest.raises(DomainError):
        cvx.SemiCvx(("a", "b"), ((0, 0), (1, 1)))  # not commutative
    for entry in (2, -1, "a"):  # not a position of the carrier
        with pytest.raises(DomainError):
            cvx.SemiCvx(("a", "b"), ((0, entry), (entry, 1)))


def test_two_space_interior_mixes_hit_zero():
    two = cvx.two_space()
    for alpha in (Fraction(1, 4), HALF, Fraction(3, 4)):
        assert cvx.convex_combine(two, 0, 1, alpha) == 0
    assert cvx.convex_combine(two, 0, 1, ZERO) == 0
    assert cvx.convex_combine(two, 0, 1, ONE) == 1
    with pytest.raises(DomainError):
        cvx.convex_combine(two, 0, 2, HALF)  # not a position


def test_leq_and_meet_all():
    A = chain3()
    assert A.leq(0, 2) and not A.leq(2, 0)
    assert A.meet_all((2, 1, 2)) == 1
    assert A.meet_all(x for x in (2, 1, 2)) == 1
    for empty in ((), (x for x in ())):
        with pytest.raises(DomainError, match="empty family"):
            A.meet_all(empty)
    # a negative index would wrap and one past the end would index out
    for items in ([2, -1], [0, 5], [5]):
        with pytest.raises(DomainError, match="not a position"):
            A.meet_all(items)


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
    monkeypatch.setattr(cvx.exactlp, "solve_int_rows", no_lp)
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
        assert cvx.convex_combine(A, 1, 2, alpha) == 0
    assert cvx.combine_many(A, (HALF, HALF, ZERO), (1, 2, 0)) == 0
    assert cvx.combine_many(A, (ONE, ZERO, ZERO), (1, 2, 0)) == 1
    for bad in (-1, 3):  # a negative position must not wrap around
        with pytest.raises(DomainError):
            cvx.combine_many(A, (HALF, HALF), (1, bad))


@pytest.mark.parametrize("space", ("geometric", "semilattice"))
def test_combine_many_needs_one_weight_per_point(space):
    # zip dropped what was left over: two weights on one point gave a
    # point of total weight 1/2, (1/2,) on the unit interval and 1 on a
    # chain, and one weight on two points gave (0,)
    if space == "geometric":
        A, one, two = cvx.unit_interval(), ((1,),), ((0,), (1,))
    else:
        A, one, two = vee(), (1,), (1, 2)
    for weights, points in (((HALF, HALF), one), ((ONE,), two)):
        with pytest.raises(DomainError):
            cvx.combine_many(A, weights, points)


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
    S = cvx.HalfspaceSplit(sq, (ONE, ZERO), HALF)
    assert S.contains((HALF, ZERO))
    assert not S.contains((Fraction(1, 4), ZERO))
    assert cvx.is_boolean_subobject(S) == (True, None)


def test_chain_singleton_bottom_is_boolean_but_not_filter():
    A = chain2()
    S = cvx.SemiSubset(A, 0b01)
    for bad in (0b100, -1, True, 1.0):  # not a mask over A's two elements
        with pytest.raises(DomainError):
            cvx.SemiSubset(A, bad)
    assert cvx.is_boolean_subobject(S)[0]
    ok, witness = cvx.chi_is_affine(S)
    assert not ok and witness is not None
    ok, union = cvx.boolean_union_identity(A, S)
    assert not ok  # generated subobjects overshoot: up(a) = {a,b}
    assert union == ("a", "b")


def test_filters_satisfy_union_identity():
    for A in (chain3(), vee()):
        for S in cvx.all_boolean_subobjects(A):
            if cvx.chi_is_affine(S)[0]:
                assert cvx.boolean_union_identity(A, S) == (True, None)


def test_generated_subobject_is_up_set():
    A = chain3()
    assert cvx.generated_subobject(A, 1) == 0b110
    assert cvx.generated_subobject(A, 0) == 0b111


def test_semilattice_intersection_can_fail():
    A = vee()
    S1 = cvx.SemiSubset(A, 0b011)  # {p, r}
    S2 = cvx.SemiSubset(A, 0b101)  # {p, s}
    assert cvx.is_boolean_subobject(S1)[0]
    assert cvx.is_boolean_subobject(S2)[0]
    ok, witness = cvx.boolean_intersection_check(A, S1, S2)
    assert not ok
    # the intersection {p} is not Boolean: its complement {r, s} meets to p
    assert witness == ("r", "s", HALF)


def test_lshape_intersection_fails_in_dimension_two():
    sq = square()
    S1 = cvx.HalfspaceSplit(sq, (ONE, ZERO), HALF)
    S2 = cvx.HalfspaceSplit(sq, (ZERO, ONE), HALF)
    ok, (x, y, alpha) = cvx.boolean_intersection_check(sq, S1, S2)
    assert not ok
    mid = tuple((ONE - alpha) * u + alpha * v for u, v in zip(x, y))
    inside = lambda p: S1.contains(p) and S2.contains(p)
    assert inside(x) == inside(y) != inside(mid)


def test_halfspace_split_is_probed_like_an_intersection(monkeypatch):
    # a split is Boolean because both its sides are convex, and the check
    # probes that: with the upper quadrant as its side, the split fails
    # at the L-shape's witness
    sq = square()
    S = cvx.HalfspaceSplit(sq, (ONE, ZERO), HALF)
    assert cvx.is_boolean_subobject(S) == (True, None)
    monkeypatch.setattr(cvx.HalfspaceSplit, "contains",
                        lambda self, p: p[0] >= HALF and p[1] >= HALF)
    assert cvx.is_boolean_subobject(S) == \
        (False, ((ONE, ZERO), (ZERO, ONE), HALF))


# ---------------------------------------------------------------------------
# affine maps and double duals


def test_semi_to_interval_maps_are_constant():
    A = chain2()
    maps = cvx.affine_semi_to_interval_maps(A, (ZERO, HALF, ONE))
    assert len(maps) == 3
    for m in maps:
        assert m.apply(0) == m.apply(1)
    with pytest.raises(DomainError):
        cvx.SemiToI(A, (ZERO, ONE))  # non-constant cannot be affine


def test_geom_functionals_and_separation():
    sq = square()
    half = cvx.separate_points(sq, (0, 0), (1, 1))
    assert half.contains((1, 1)) and not half.contains((0, 0))
    fns = cvx.geom_spanning_functionals(sq)
    for a, b in itertools.combinations(sq.generators, 2):
        assert any(m.apply(a) != m.apply(b) for m in fns)
    assert cvx.injectivity_check(sq) == (True, None)


WRONG_DIMENSIONS = {
    "apply-too-long": lambda sq: cvx.GeomToI(sq, (HALF, HALF), ZERO).apply((1, 1, 1)),
    "apply-too-short": lambda sq: cvx.GeomToI(sq, (HALF, HALF), ZERO).apply((1,)),
    "contains-too-short":
        lambda sq: cvx.separate_points(sq, (0, 0), (1, 0)).contains((1,)),
    "functional-too-short": lambda sq: cvx.GeomToI(sq, (HALF,), ZERO),
    "normal-too-short": lambda sq: cvx.HalfspaceSplit(sq, (ONE,), HALF),
    "apply-num-too-short":
        lambda sq: cvx.GeomToI(sq, (HALF, HALF), ZERO).apply_num((1,), 1),
}


@pytest.mark.parametrize("case", sorted(WRONG_DIMENSIONS))
def test_wrong_dimensions_raise_instead_of_truncating(case):
    with pytest.raises(DomainError, match="dimension mismatch"):
        WRONG_DIMENSIONS[case](square())


def test_functional_error_names_the_generator_as_rationals():
    # the same p/q form as a point outside the hull, not a Fraction repr
    with pytest.raises(DomainError) as err:
        cvx.GeomToI(square(), (1, 1), 0)
    assert str(err.value) == "functional leaves [0,1] on generator (1/1, 1/1)"


@pytest.mark.parametrize("coord", ["1/2", 0.5, True, False])
def test_geomcvx_rejects_coordinates_that_are_not_rationals(coord):
    # True.numerator is 1, so a bool would pass the integer rows unnoticed
    with pytest.raises(DomainError, match="is not an int or a Fraction"):
        cvx.GeomCvx(1, ((coord,), (1,)))
    assert cvx.GeomCvx.of(1, (("1/2",), (1,))).generators == ((HALF,), (ONE,))


NOT_RATIONAL = {"true": True, "false": False, "float": 0.5, "string": "1/2"}

AFFINE_FORM_ENTRIES = {
    "functional-c": lambda x: cvx.GeomToI(cvx.unit_interval(), (x,), ZERO),
    "functional-t": lambda x: cvx.GeomToI(cvx.unit_interval(), (ZERO,), x),
    "normal": lambda x: cvx.HalfspaceSplit(cvx.unit_interval(), (x,), ZERO),
    "threshold": lambda x: cvx.HalfspaceSplit(cvx.unit_interval(), (ONE,), x),
}


@pytest.mark.parametrize("value", sorted(NOT_RATIONAL))
@pytest.mark.parametrize("entry", sorted(AFFINE_FORM_ENTRIES))
def test_affine_forms_reject_entries_that_are_not_rationals(entry, value):
    with pytest.raises(DomainError, match="is not an int or a Fraction"):
        AFFINE_FORM_ENTRIES[entry](NOT_RATIONAL[value])


def test_geomcvx_of_rejects_bool_coordinates():
    # True and False read as 1 and 0 built the unit interval
    with pytest.raises(DomainError):
        cvx.GeomCvx.of(1, [(True,), (False,)])


_coords = st.fractions(min_value=-2, max_value=2, max_denominator=9)


@st.composite
def affine_forms(draw):
    """A polytope, an affine form (c, t) on it and a point, over mixed
    denominators; t is shifted so that the form often fits in [0, 1]."""
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[_coords] * dim)
    gens = draw(st.lists(vec, max_size=5))
    c = draw(vec)
    lowest = min((sum((ci * gi for ci, gi in zip(c, g)), ZERO) for g in gens),
                 default=ZERO)
    shift = draw(st.fractions(min_value=Fraction(-1, 2),
                              max_value=Fraction(3, 2), max_denominator=9))
    return gens, c, shift - lowest, draw(vec)


@given(affine_forms())
def test_affine_forms_match_a_fraction_oracle(case):
    gens, c, t, p = case
    A = cvx.GeomCvx(len(c), tuple(gens))

    def oracle(q):
        return sum((ci * qi for ci, qi in zip(c, q)), ZERO) + t

    S = cvx.HalfspaceSplit(A, c, -t)
    assert S.contains(p) == (oracle(p) >= 0)
    if not all(ZERO <= oracle(g) <= ONE for g in gens):
        with pytest.raises(DomainError):
            cvx.GeomToI(A, c, t)
        return
    m = cvx.GeomToI(A, c, t)
    for q in (p, *gens):
        got = m.apply(q)
        assert type(got) is Fraction and got == oracle(q)


def test_two_space_double_dual_collapses():
    two = cvx.two_space()
    injective, pair = cvx.injectivity_check(two)
    assert not injective
    assert pair == ("0", "1")  # labels
    for m in cvx.affine_semi_to_interval_maps(two, (ZERO, HALF, ONE)):
        assert m.apply(0) == m.apply(1)


# ---------------------------------------------------------------------------
# seeded geometric corpus: a behaviour gate for functionals and separation

GEOM_CORPUS_SIZE = 400
GEOM_CORPUS_DIGEST = "a903d4ad1817c0861c3828d09aa15450331621ca8646f335affc244d0035a779"


def _coord(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-6, 9), rng.choice((1, 2, 3, 4, 5, 7, 8, 9, 16)))


def geom_corpus():
    """Seeded polytopes in dimension 1-4 over mixed denominators.

    Some generator lists repeat a generator, some add a point on the line
    through two others; each polytope comes with a convex combination of
    generators and a pair of distinct generators to separate."""
    rng = random.Random("geom-corpus")
    corpus = []
    for _ in range(GEOM_CORPUS_SIZE):
        dim = rng.randint(1, 4)
        gens = [tuple(_coord(rng) for _ in range(dim))
                for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        if len(gens) > 1 and rng.random() < 0.3:
            g, h = rng.sample(gens, 2)
            a = Fraction(rng.randint(-2, 5), rng.choice((2, 3, 4)))
            gens.append(tuple((1 - a) * x + a * y for x, y in zip(g, h)))
        A = cvx.GeomCvx(dim, tuple(gens))
        k = rng.randint(1, 4)
        raw = [rng.randint(1, 9) for _ in range(k)]
        weights = [Fraction(r, sum(raw)) for r in raw]
        points = [rng.choice(gens) for _ in range(k)]
        distinct = list(dict.fromkeys(gens))
        pair = tuple(rng.sample(distinct, 2)) if len(distinct) > 1 else None
        corpus.append((A, weights, points, pair))
    return corpus


def _vec(v):
    return [rat_str(Fraction(x)) for x in v]


def test_geom_corpus_outputs_are_pinned():
    results = []
    for A, weights, points, pair in geom_corpus():
        fns = cvx.geom_spanning_functionals(A)
        identity = eval_hull_identity(A, weights, points, fns)
        assert identity["passed"]
        entry = {"fns": [[_vec(m.c), rat_str(m.t)] for m in fns],
                 "point": list(identity["point"])}
        if pair is not None:
            S = cvx.separate_points(A, *pair)
            entry["split"] = [_vec(S.normal), rat_str(S.threshold)]
        results.append(entry)
    assert sum("split" in e for e in results) >= GEOM_CORPUS_SIZE // 2
    blob = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GEOM_CORPUS_DIGEST


def test_spanning_family_is_built_once_per_polytope(monkeypatch):
    built = []
    check = cvx.GeomToI.__post_init__

    def counted(m):
        built.append(m)
        check(m)

    monkeypatch.setattr(cvx.GeomToI, "__post_init__", counted)
    A = cvx.GeomCvx.of(3, ((0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 2, 0)))
    first = cvx.geom_spanning_functionals(A)
    assert len(built) == len(first) == 4  # 0, 1, x_0 and x_1; x_2 is fixed
    second = cvx.geom_spanning_functionals(A)
    assert len(built) == 4
    assert second == first and second is not first
    second.clear()
    assert cvx.geom_spanning_functionals(A) == first


# ---------------------------------------------------------------------------
# combinations in dimension 3-6: the integer route against Fraction routes


def dyadic_combinations():
    """Seeded polytopes in dimension 3-6 with coordinates k/16 in [0, 1],
    each with positive dyadic weights on 2-4 points: generators and one
    midpoint of two generators, which is not a generator in general."""
    rng = random.Random("dyadic-combinations")
    cases = []
    for dim in range(3, 7):
        for count in (2, 3, 5, 8, 13):
            gens = []
            while len(gens) < count:
                g = tuple(Fraction(rng.randint(0, 16), 16) for _ in range(dim))
                if g not in gens:
                    gens.append(g)
            g, h = rng.sample(gens, 2)
            k = rng.randint(2, 4)
            points = [rng.choice(gens) for _ in range(k - 1)]
            points.insert(rng.randrange(k), tuple((x + y) / 2
                                                  for x, y in zip(g, h)))
            cuts = sorted(rng.sample(range(1, 16), k - 1))
            weights = [Fraction(b - a, 16)
                       for a, b in zip([0, *cuts], [*cuts, 16])]
            cases.append((cvx.GeomCvx(dim, tuple(gens)), weights, points))
    return cases


def combination_disagreements(A, weights, points) -> set[str]:
    """The routes whose combination differs from a plain Fraction sum:
    `combine_many` on integer numerators, and a chain of `convex_combine`
    on Fractions, which folds in one point at a time."""
    oracle = tuple(sum((w * p[d] for w, p in zip(weights, points)), ZERO)
                   for d in range(A.dim))
    chain, mass = points[0], weights[0]
    for w, p in zip(weights[1:], points[1:]):
        mass += w
        chain = cvx.convex_combine(A, chain, p, w / mass)
    routes = {"combine_many": cvx.combine_many(A, weights, points),
              "convex_combine": chain}
    return {name for name, got in routes.items() if got != oracle}


def test_combinations_in_dimension_three_to_six_agree():
    cases = dyadic_combinations()
    assert {A.dim for A, _, _ in cases} == {3, 4, 5, 6}
    for A, weights, points in cases:
        assert combination_disagreements(A, weights, points) == set()
        got = cvx.combine_many(A, weights, points)
        assert all(type(x) is Fraction for x in got)
        identity = eval_hull_identity(A, weights, points,
                                      cvx.geom_spanning_functionals(A))
        assert identity["passed"]
        assert identity["point"] == tuple(rat_str(x) for x in got)


def test_combine_many_wrong_from_dimension_three_is_caught(monkeypatch):
    right = cvx.combine_many

    def wrong(A, weights, points):
        p = right(A, weights, points)
        if isinstance(A, cvx.GeomCvx) and A.dim >= 3:
            p = tuple(x + Fraction(1, 64) for x in p)
        return p

    # adjunction imported the name, so it is patched there too
    monkeypatch.setattr(cvx, "combine_many", wrong)
    monkeypatch.setattr(adj, "combine_many", wrong)
    assert cvx.combine_many(square(), (HALF, HALF), ((0, 0), (1, 1))) \
        == (HALF, HALF)
    for A, weights, points in dyadic_combinations():
        assert combination_disagreements(A, weights, points) \
            == {"combine_many"}
        assert not eval_hull_identity(
            A, weights, points, cvx.geom_spanning_functionals(A))["passed"]


# ---------------------------------------------------------------------------
# seeded hull-membership corpus: a behaviour gate for hull_member

HULL_CORPUS_SIZE = 840
HULL_CORPUS_DIGEST = "9fdf805cde97ecec40e7469618dc8a2fb80a7e6f27e083225b634bf55736498e"


def _hull_generators(rng, dim, count, shape):
    """`count` generators in Q^dim: scattered, on one line, or on one
    plane through a random base point."""
    if shape == "scattered":
        return [tuple(_coord(rng) for _ in range(dim)) for _ in range(count)]
    base = [_coord(rng) for _ in range(dim)]
    dirs = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            for _ in range(1 if shape == "collinear" else 2)]
    gens = []
    for _ in range(count):
        steps = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
                 for _ in dirs]
        gens.append(tuple(x + sum((s * d[i] for s, d in zip(steps, dirs)),
                                  Fraction(0))
                          for i, x in enumerate(base)))
    return gens


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _mix_with(weights, gens, dim):
    return tuple(_dot(weights, [g[i] for g in gens]) for i in range(dim))


def _mix(rng, gens, dim):
    raw = [rng.randint(1, 9) for _ in gens]
    return _mix_with([Fraction(r, sum(raw)) for r in raw], gens, dim)


def hull_corpus():
    """Seeded (hull, point) pairs in dimension 0-6 with 0-16 generators.

    Generators are scattered over mixed denominators, collinear or
    coplanar.  Each hull is asked about a mix of all its generators, a
    mix of the generators that maximize a random small functional c (a
    point on that face), the same point pushed a little along c (outside)
    and a random point."""
    rng = random.Random("hull-member-corpus")
    corpus = []
    for k in range(HULL_CORPUS_SIZE // 4):
        dim = k % 7
        count = 0 if k % 10 == 0 else rng.randint(1, 16)
        shape = ("scattered", "collinear", "coplanar")[(k // 7) % 3]
        A = cvx.GeomCvx.of(dim, _hull_generators(rng, dim, count, shape))
        gens = A.generators
        c = [Fraction(rng.randint(-1, 2)) for _ in range(dim)]
        if dim and not any(c):
            c[rng.randrange(dim)] = Fraction(1)
        push = Fraction(1, rng.choice((1, 3, 7, 64)))
        if gens:
            top = max(_dot(c, g) for g in gens)
            face = [g for g in gens if _dot(c, g) == top]
            on_face = _mix(rng, face, dim)
            inside = _mix(rng, gens, dim)
        else:
            on_face = inside = tuple(_coord(rng) for _ in range(dim))
        outside = tuple(x + push * a for x, a in zip(on_face, c))
        loose = tuple(_coord(rng) for _ in range(dim))
        corpus.extend((A, p) for p in (inside, on_face, outside, loose))
    return corpus


def hull_answer_faults(A, p, ok, answer) -> set[str]:
    """What is wrong with a `hull_member` answer on its own terms:
    "weights" unless they are barycentric and reproduce p, "normal"
    unless c.g <= t for every generator g while c.p > t."""
    if ok:
        if (sum(answer, ZERO) == ONE and min(answer) >= 0
                and p == _mix_with(answer, A.generators, A.dim)):
            return set()
        return {"weights"}
    c, t = answer
    if all(_dot(c, g) <= t for g in A.generators) and _dot(c, p) > t:
        return set()
    return {"normal"}


def test_hull_corpus_answers_are_pinned():
    results, inside, outside = [], 0, 0
    for A, p in hull_corpus():
        ok, answer = cvx.hull_member(A, p)
        assert not hull_answer_faults(A, p, ok, answer), (A, p)
        if ok:
            inside += 1
            results.append(["in", _vec(answer)])
        else:
            outside += 1
            c, t = answer
            results.append(["out", _vec(c), rat_str(t)])
    assert min(inside, outside) >= HULL_CORPUS_SIZE // 5, (inside, outside)
    blob = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == HULL_CORPUS_DIGEST


def test_hull_corpus_pivot_count_is_pinned(monkeypatch):
    # membership has no objective, so phase 1 ends at a zero artificial
    # sum; running on to Bland's optimum and the drive-out made 2,594
    pivots = counted_pivots(monkeypatch)
    for A, p in hull_corpus():
        cvx.hull_member(A, p)
    assert len(pivots) == 2174


def reference_hull_member(A, p):
    """Hull membership through `exactlp.solve_eq_nonneg` on Fraction
    rows: one row per coordinate, then a row of ones."""
    n, dim = len(A.generators), A.dim
    rows = [[g[d] for g in A.generators] for d in range(dim)] + [[ONE] * n]
    res = exactlp.solve_eq_nonneg(rows, list(p) + [ONE])
    if res["status"] == exactlp.FEASIBLE:
        return True, tuple(res["x"])
    y = res["farkas"]
    return False, (tuple(y[:dim]), -y[dim])


def test_hull_member_answers_as_the_fraction_rows_do():
    for A, p in hull_corpus():
        assert cvx.hull_member(A, p) == reference_hull_member(A, p), (A, p)


def test_hull_rows_need_the_common_scale_on_the_point():
    # a hull_member whose right-hand side drops the factor L // Q asks
    # about p * Q / L; that is p only when the generators' denominator D
    # divides the point's Q, and the own-terms check must catch the rest
    def unscaled(A, p):
        n = len(A.generators)
        P, Q = int_row(p)
        L = math.lcm(A.generator_den, Q)
        columns = zip(*A.generator_rows) if n else [()] * A.dim
        rows = [[v * (L // A.generator_den) for v in col] + [x]
                for col, x in zip(columns, P)]
        rows.append([L] * (n + 1))
        res = exactlp.solve_int_rows(rows, n)
        if res["status"] == exactlp.FEASIBLE:
            return True, tuple(res["x"])
        y = res["farkas"]
        return False, (tuple(y[:A.dim]), -y[A.dim])

    faults, scaled_points = set(), 0
    for A, p in hull_corpus():
        found = hull_answer_faults(A, p, *unscaled(A, p))
        if int_row(p)[1] % A.generator_den:
            scaled_points += 1
            faults |= found
        else:
            assert not found, (A, p)
    assert scaled_points >= HULL_CORPUS_SIZE // 4
    assert faults == {"weights", "normal"}


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
