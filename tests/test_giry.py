import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import giry
from gcvx.convex import EndoI, SemiCvx, two_space
from gcvx.giry import (
    DistOverDists,
    FinDist,
    MeasurabilityError,
    dirac,
    flatten_oracle,
    flatten_outer,
    grid_dists,
    integrate,
    map_unit,
    measure_to_functional,
    mix_dists,
    monad_law_report,
    mu,
    pushforward,
    two_level_dists,
    unit_outer,
    wa_check,
    functional_to_measure,
)
from gcvx.kernel import DomainError, ONE, ZERO
from gcvx.measurable import FinMeasSpace, MeasFn, enumerate_meas_fns
from gcvx.suites import all_sigma_spaces

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def disc(n):
    return FinMeasSpace.discrete(tuple("abc"[:n]))


def test_findist_validation():
    X = disc(2)
    with pytest.raises(DomainError):
        FinDist(X, (HALF,))  # wrong arity
    with pytest.raises(DomainError):
        FinDist(X, (HALF, QUARTER))  # does not sum to 1
    with pytest.raises(DomainError):
        FinDist(X, (Fraction(3, 2), Fraction(-1, 2)))  # negative mass


def test_integer_form_is_canonical():
    X = disc(3)
    P = FinDist(X, (QUARTER, HALF, QUARTER))
    Q = FinDist(X, (6, 12, 6), 24)  # not reduced
    assert P == Q
    assert hash(P) == hash(Q)
    assert P.mass == Q.mass == (QUARTER, HALF, QUARTER)
    assert (Q.num, Q.den) == ((1, 2, 1), 4)
    assert FinDist(X, (0, 3, 0), 3) == dirac(X, "b")


def test_integer_form_validation():
    X = disc(2)
    for num, den in (((1,), 1),            # wrong arity
                     ((3, -1), 2),         # negative numerator
                     ((1, 1), 3),          # does not sum to den
                     ((0, 0), 0),          # zero denominator
                     ((-1, -1), -2),       # negative denominator
                     ((HALF, HALF), 1)):   # not integers
        with pytest.raises(DomainError):
            FinDist(X, num, den)


def random_measure(rng, X):
    den = rng.randrange(1, 13)
    first = rng.randrange(den + 1)
    second = rng.randrange(den - first + 1)
    return FinDist(X, (first, second, den - first - second), den)


def test_support_order_is_that_of_the_fraction_tuples():
    def fraction_tuple(q):
        return tuple(Fraction(n, q.den) for n in q.num)

    rng = random.Random(2017)
    X = disc(3)
    for _ in range(300):
        qs = [random_measure(rng, X) for _ in range(rng.randrange(1, 6))]
        raw = [rng.randrange(1, 10) for _ in qs]
        PP = DistOverDists.of(X, [(Fraction(r, sum(raw)), q)
                                  for r, q in zip(raw, qs)])
        assert list(PP.support) == sorted(set(qs), key=fraction_tuple)
        assert mu(PP) == flatten_oracle(PP)
        other = DistOverDists.of(X, [(ONE, random_measure(rng, X))])
        outer = flatten_outer(((HALF, PP), (HALF, other)))
        assert list(outer.support) == \
            sorted(set(qs) | set(other.support), key=fraction_tuple)


def test_measure_of_sets_and_non_measurable_rejection():
    X = FinMeasSpace(("a", "b", "c"), (0b001, 0b110))
    P = FinDist(X, (QUARTER, Fraction(3, 4)))
    assert P.measure(0b001) == QUARTER
    assert P.measure(0b111) == ONE
    with pytest.raises(DomainError):
        P.measure(0b010)


def test_dirac_and_pushforward():
    X = disc(3)
    Y = disc(2)
    f = MeasFn(X, Y, ("a", "a", "b"))
    P = FinDist(X, (HALF, QUARTER, QUARTER))
    Q = pushforward(f, P)
    assert Q.mass == (Fraction(3, 4), QUARTER)
    assert pushforward(f, dirac(X, "b")) == dirac(Y, "a")


def small_spaces():
    return [X for n in (1, 2, 3) for X in all_sigma_spaces(("a", "b", "c")[:n])]


def test_pushforward_matches_preimage_definition():
    spaces = small_spaces()
    checked = 0
    for X in spaces:
        dists = grid_dists(X)
        for Y in spaces:
            for f in enumerate_meas_fns(X, Y):
                for P in dists:
                    Q = pushforward(f, P)
                    for V in Y.sigma:
                        pre = 0
                        for i, q in enumerate(f.mapping):
                            if V >> Y.points.index(q) & 1:
                                pre |= 1 << i
                        assert Q.measure(V) == P.measure(pre)
                        checked += 1
    assert checked > 10000


def test_mu_matches_weighted_sum_of_measures():
    for X in small_spaces():
        for PP in two_level_dists(X, max_support=2):
            M = mu(PP)
            for U in X.sigma:
                assert M.measure(U) == sum(
                    (w * q.measure(U) for q, w in zip(PP.support, PP.weights)),
                    ZERO)


def test_integrate_checks_atom_constancy():
    X = FinMeasSpace(("a", "b", "c"), (0b001, 0b110))
    P = FinDist(X, (HALF, HALF))
    assert integrate(P, {"a": ONE, "b": ZERO, "c": ZERO}) == HALF
    with pytest.raises(MeasurabilityError):
        integrate(P, {"a": ONE, "b": ZERO, "c": ONE})
    with pytest.raises(DomainError):
        integrate(P, lambda p: Fraction(2))


def test_dist_over_dists_merges_and_sorts():
    X = disc(2)
    P = dirac(X, "a")
    PP = DistOverDists.of(X, [(HALF, P), (QUARTER, P),
                              (QUARTER, dirac(X, "b"))])
    assert PP.support == (dirac(X, "b"), P)
    assert PP.weights == (QUARTER, Fraction(3, 4))


def test_dist_over_dists_integer_form_is_canonical():
    X = disc(2)
    P, Q = dirac(X, "a"), FinDist(X, (HALF, HALF))
    PP = DistOverDists(X, (P, Q), (QUARTER, Fraction(3, 4)))
    QQ = DistOverDists(X, (P, Q), (3, 9), 12)  # not reduced
    assert PP == QQ
    assert hash(PP) == hash(QQ)
    assert PP.weights == QQ.weights == (QUARTER, Fraction(3, 4))
    assert (QQ.wnum, QQ.wden) == ((1, 3), 4)


def test_dist_over_dists_integer_form_validation():
    X = disc(2)
    P, Q = dirac(X, "a"), dirac(X, "b")
    for weights, den in (((0, 2), 2),          # non-positive weight
                         ((-1, 3), 2),         # negative weight
                         ((1, 1), 3),          # does not sum to den
                         ((0, 0), 0),          # zero denominator
                         ((-1, -1), -2),       # negative denominator
                         ((1,), 1),            # length mismatch
                         ((HALF, HALF), 1),    # not integers
                         ((1.0, 1.0), 2)):     # not integers
        with pytest.raises(DomainError):
            DistOverDists(X, (P, Q), weights, den)


def test_of_with_integer_weights_matches_fractions():
    rng = random.Random(1982)
    X = disc(3)
    for _ in range(300):
        qs = [random_measure(rng, X) for _ in range(rng.randrange(1, 7))]
        raw = [rng.randrange(1, 10) for _ in qs]
        by_int = DistOverDists.of(X, zip(raw, qs), sum(raw))
        by_frac = DistOverDists.of(X, [(Fraction(r, sum(raw)), q)
                                       for r, q in zip(raw, qs)])
        assert by_int == by_frac
        assert by_int.support == by_frac.support
        assert by_int.weights == by_frac.weights


def test_mu_agrees_with_hand_computation():
    X = disc(2)
    P = FinDist(X, (HALF, HALF))
    Q = dirac(X, "a")
    PP = DistOverDists.of(X, [(HALF, P), (HALF, Q)])
    assert mu(PP).mass == (Fraction(3, 4), QUARTER)
    assert flatten_oracle(PP) == mu(PP)


def test_unit_laws_by_hand():
    X = disc(2)
    P = FinDist(X, (QUARTER, Fraction(3, 4)))
    assert mu(unit_outer(P)) == P
    assert mu(map_unit(P)) == P


def test_monad_law_report_all_green():
    X = disc(2)
    f = MeasFn(X, X, ("b", "a"))
    rep = monad_law_report(X, naturality_maps=[f])
    assert rep.ok
    assert rep.instances > 100


def test_monad_law_report_catches_corrupted_mu():
    X = disc(2)

    def bad_mu(PP):
        good = mu(PP)
        if len(PP.support) > 1:
            m = list(good.mass)
            m[0], m[-1] = m[-1], m[0]
            return FinDist(good.space, tuple(m))
        return good

    rep = monad_law_report(X, mu_fn=bad_mu)
    assert not rep.ok
    assert any(f.law == "mu.flatten-oracle" for f in rep.unexpected_failures)


@given(st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_mix_dists_is_coordinatewise(alpha):
    X = disc(2)
    P, Q = dirac(X, "a"), dirac(X, "b")
    M = mix_dists(P, Q, alpha)
    assert M.mass == (ONE - alpha, alpha)


# ---------------------------------------------------------------------------
# weakly averaging functionals


def test_wa_functional_constants_and_equivariance():
    two = two_space()
    F = giry.WAFunctional(two, ((HALF, "0"), (HALF, "1")))
    endos = [EndoI.of(HALF, QUARTER), EndoI.of(-HALF, Fraction(3, 4))]
    fns = [lambda a: ONE if a == "1" else ZERO]
    chk = wa_check(F, endos, fns)
    assert chk["passed"]


def test_wa_check_detects_unnormalized_weights():
    two = two_space()
    # the constructor rejects these weights, so bypass it
    bad = object.__new__(giry.WAFunctional)
    object.__setattr__(bad, "base", two)
    object.__setattr__(bad, "terms", ((HALF, "0"), (QUARTER, "1")))
    chk = wa_check(bad, [], [])
    assert not chk["passed"]


def test_measure_functional_roundtrip():
    A = SemiCvx.of(("a", "b"), (("a", "a"), ("a", "b")))
    space = FinMeasSpace.discrete(("a", "b"))
    P = FinDist(space, (QUARTER, Fraction(3, 4)))
    F = measure_to_functional(P, A)
    assert functional_to_measure(F, space) == P
    # the functional evaluates indicators to the measure of the set
    chi_b = lambda x: ONE if x == "b" else ZERO
    assert F.apply(chi_b) == Fraction(3, 4)
