import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import kernel
from gcvx.convex import SemiCvx, SemiSubset, combine_many, convex_combine
from gcvx.giry import WAFunctional, functional_to_measure
from gcvx.kernel import (
    DomainError,
    ONE,
    StepFn,
    ZERO,
    rat,
    rat_str,
    step_integrate,
)
from gcvx.measurable import (FinMeasSpace, MeasFn, coinduced_sigma,
                             induced_sigma, is_measurable)


def frac(max_den=12):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_den)


def test_rat_parses_ints_fractions_and_strings():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(2, 4)) == Fraction(1, 2)
    assert rat("5/10") == Fraction(1, 2)
    for bad in (0.5, None, "abc", "1/0", True, False):
        with pytest.raises(DomainError):
            rat(bad)


@given(frac())
def test_rat_str_roundtrip(q):
    assert rat(rat_str(q)) == q


def test_stepfn_validation():
    with pytest.raises(DomainError):
        StepFn((ZERO,), (), ZERO)  # must run from 0 to 1
    with pytest.raises(DomainError):
        StepFn((ZERO, Fraction(1, 2), Fraction(1, 2), ONE),
               (ZERO, ZERO, ZERO), ZERO)  # strictly increasing
    with pytest.raises(DomainError):
        StepFn((ZERO, ONE), (Fraction(3, 2),), ZERO)  # value outside [0,1]


@pytest.mark.parametrize("breakpoints, values", [
    ((0, 1), (0, 1)),  # two values for one piece
    ((), ()),  # no breakpoints at all
    ((0, "1/2", 1), (1,)),  # one value for two pieces
])
def test_stepfn_of_needs_one_value_per_piece(breakpoints, values):
    with pytest.raises(DomainError, match="need exactly one value per piece"):
        StepFn.of(breakpoints, values, 0)


def test_stepfn_of_merges_equal_adjacent_pieces():
    f = StepFn.of((0, "1/4", "1/2", 1), ("1/3", "1/3", 0), 0)
    assert f.breakpoints == (ZERO, Fraction(1, 2), ONE)
    assert f.values == (Fraction(1, 3), ZERO)


def test_stepfn_pieces_are_right_open():
    f = StepFn.of((0, "1/2", 1), (1, 0), "1/4")
    assert f(ZERO) == ONE
    assert f(Fraction(1, 2)) == ZERO
    assert f(Fraction(99, 100)) == ZERO
    assert f(ONE) == Fraction(1, 4)


def test_integrate_ignores_the_point_one():
    f = StepFn.of((0, "1/2", 1), (1, 0), 1)
    assert step_integrate(f) == Fraction(1, 2)
    assert step_integrate(StepFn.constant("2/3")) == Fraction(2, 3)


@given(frac(6), frac(6), frac(6), frac(6), frac(6))
def test_integral_is_affine_in_mixtures(b, u1, u2, v, alpha):
    # two-piece functions with a shared interior breakpoint when possible
    cuts = sorted({ZERO, b, ONE})
    f = StepFn.of(cuts, [u1, u2][: len(cuts) - 1], ZERO)
    g = StepFn.constant(v)
    # the pointwise mix (1-alpha)*f + alpha*g, piece by piece
    mix = lambda x: (ONE - alpha) * f(x) + alpha * g(x)
    pieces = sorted(set(f.breakpoints) | set(g.breakpoints))
    mixed = StepFn.of(pieces, [mix(lo) for lo in pieces[:-1]], mix(ONE))
    assert step_integrate(mixed) == \
        (ONE - alpha) * step_integrate(f) + alpha * step_integrate(g)


def seeded_step_fns(seed=97, per_count=12):
    """Seeded step functions of 4 to 8 pieces: breakpoints over
    denominators up to 48 and twelfths as values, adjacent values
    distinct so that no pieces merge."""
    rng = random.Random(seed)
    fns = []
    for pieces in range(4, 9):
        for _ in range(per_count):
            den = rng.randrange(pieces, 49)
            cuts = sorted(rng.sample(range(1, den), pieces - 1))
            values = [rng.randrange(13)]
            while len(values) < pieces:
                v = rng.randrange(13)
                if v != values[-1]:
                    values.append(v)
            fns.append(StepFn.of([0, *(Fraction(c, den) for c in cuts), 1],
                                 [Fraction(v, 12) for v in values],
                                 Fraction(rng.randrange(13), 12)))
    return fns


def integral_disagreements(integrate) -> list[int]:
    """The piece counts of the seeded step functions on which `integrate`
    differs from the sum of f(left end) * width over the pieces."""
    out = []
    for f in seeded_step_fns():
        bps = f.breakpoints
        by_pieces = sum((f(lo) * (hi - lo) for lo, hi in zip(bps, bps[1:])),
                        ZERO)
        if integrate(f) != by_pieces:
            out.append(len(f.values))
    return out


def test_integral_matches_the_pieces_from_four_to_eight():
    assert {len(f.values) for f in seeded_step_fns()} == set(range(4, 9))
    assert integral_disagreements(step_integrate) == []


def test_step_integrate_sums_value_times_width_past_three_pieces():
    # looked up in gcvx.kernel on every call, so a patched library
    # function is the one checked; expected values are worked by hand
    f = StepFn.of([0, "1/5", "2/5", "3/5", "4/5", 1], [1, 0, "1/2", "1/4", 1], 0)
    assert len(f.values) == 5
    assert kernel.step_integrate(f) == Fraction(11, 20)  # (1 + 0 + 1/2 + 1/4 + 1) / 5
    # the staircase of n pieces k/n on [k/n, (k+1)/n): sum_k k / n^2
    for n in range(4, 10):
        stairs = StepFn.of([Fraction(k, n) for k in range(n + 1)],
                           [Fraction(k, n) for k in range(n)], ONE)
        assert len(stairs.values) == n
        assert kernel.step_integrate(stairs) == Fraction(n - 1, 2 * n)


def test_integral_wrong_past_three_pieces_is_caught():
    def crooked(f):
        extra = Fraction(1, 97) if len(f.values) > 3 else ZERO
        return step_integrate(f) + extra
    assert set(integral_disagreements(crooked)) == set(range(4, 9))


# ---------------------------------------------------------------------------
# the position rule and the weighting rule


X2 = FinMeasSpace.discrete(("a", "b"))
CHAIN2 = SemiCvx(("a", "b"), ((0, 0), (0, 1)))
POINT = SemiCvx(("a",), ((0,),))

# every entry point that takes positions, with the value v in one
# position slot of a two-point carrier
POSITION_ENTRIES = {
    "MeasFn": lambda v: MeasFn(X2, X2, (0, v)),
    "coinduced_sigma": lambda v: coinduced_sigma(X2.points, [(X2, (0, v))]),
    "induced_sigma": lambda v: induced_sigma(X2.points, [((0, v), X2)]),
    "is_measurable": lambda v: is_measurable((0, v), X2, X2),
    "meet-table": lambda v: SemiCvx(("a", "b"), ((0, 0), (0, v))),
    # a mask of a one-point carrier is a position among its two subsets
    "SemiSubset": lambda v: SemiSubset(POINT, v),
    "convex_combine": lambda v: convex_combine(CHAIN2, v, 1, ONE),
    "combine_many": lambda v: combine_many(CHAIN2, (ONE,), (v,)),
    "meet_all": lambda v: CHAIN2.meet_all([v]),
    "functional_to_measure": lambda v: functional_to_measure(
        WAFunctional((0, v), (1, 1), 2), X2),
}

# a position is an int, not a bool, in range(2); 1.0 and True equal 1
NOT_POSITIONS = {"float": 1.0, "bool": True, "negative": -1, "past-end": 2,
                 "label": "b"}


@pytest.mark.parametrize("value", sorted(NOT_POSITIONS))
@pytest.mark.parametrize("entry", sorted(POSITION_ENTRIES))
def test_every_entry_point_rejects_what_is_not_a_position(entry, value):
    POSITION_ENTRIES[entry](1)  # the slot takes a position
    with pytest.raises(DomainError):
        POSITION_ENTRIES[entry](NOT_POSITIONS[value])


# (points, num, den) that are not a positive weighting
BAD_WEIGHTINGS = {
    "zero-weight": ((0, 1), (0, 1), 1),
    "negative-weight": ((0, 1), (-1, 2), 1),
    "wrong-sum": ((0, 1), (1, 1), 3),
    "bool-numerator": ((0, 1), (True, True), 2),
    "fraction-numerator": ((0, 1), (Fraction(1, 2), Fraction(1, 2)), 1),
    "length-mismatch": ((0, 1), (1,), 1),
}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHTINGS))
def test_wa_functional_rejects_what_is_not_a_weighting(case):
    # a weighting comes back reduced, as a measure's masses do
    assert WAFunctional((0, 1), (2, 2), 4) == WAFunctional((0, 1), (1, 1), 2)
    with pytest.raises(DomainError):
        WAFunctional(*BAD_WEIGHTINGS[case])
