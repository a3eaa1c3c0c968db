from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx.kernel import (
    DomainError,
    ONE,
    StepFn,
    ZERO,
    rat,
    rat_str,
    step_integrate,
)


def frac(max_den=12):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_den)


def test_rat_parses_ints_fractions_and_strings():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(2, 4)) == Fraction(1, 2)
    assert rat("5/10") == Fraction(1, 2)
    with pytest.raises(DomainError):
        rat(0.5)


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
