"""Exact rational scalars and step functions on the unit interval.

Every quantity in this library is a `fractions.Fraction`; there is no
floating point anywhere.  Step functions are right-open on their pieces,
with a separate value recorded for the point 1, so that maps which
distinguish [0,1) from {1} can be represented faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """An enumeration would exceed the library's explicit size guards."""


def rat(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a "p/q" string;
    anything else, "abc", "1/0" and the bools included, is a DomainError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Canonical "p/q" form (denominator positive, gcd 1)."""
    return f"{q.numerator}/{q.denominator}"


def int_row(values) -> tuple[list[int], int]:
    """Fractions as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def int_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of Fractions as integer numerators over one least common
    denominator of all their entries."""
    den = lcm(*(v.denominator for row in rows for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row)
                 for row in rows), den


def prob_row(values, den, name: str,
             positive: bool = False) -> tuple[tuple[int, ...], int]:
    """A probability vector, checked where it enters, as reduced integers:
    `values` are integer numerators over `den`, or, with `den` None, the
    entries themselves as rationals.  All must be ints, not bools; the
    denominator must be positive and the numerators must sum to it and
    be nonnegative, or positive with `positive`.  `name` names the
    entries in the `DomainError` for a row that breaks a rule."""
    if den is None:
        values, den = int_row([rat(v) for v in values])
    values = tuple(values)
    if den.__class__ is not int or any(v.__class__ is not int
                                       for v in values):
        raise DomainError(f"{name} must be integer numerators over an "
                          f"integer denominator")
    if den <= 0:
        raise DomainError(f"the denominator of the {name} must be positive")
    if sum(values) != den:
        raise DomainError(f"{name} must sum to exactly 1")
    if min(values) < positive:
        raise DomainError(f"{name} must be "
                          f"{'positive' if positive else 'nonnegative'}")
    return reduce_row(values, den)


def reduce_row(values, den: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators and their positive denominator divided by their
    gcd, unchecked: the end of `prob_row`, and all that a row valid by
    construction needs."""
    g = gcd(den, *values)
    if g > 1:
        return tuple([v // g for v in values]), den // g
    return tuple(values), den


def check_positions(values, n: int) -> None:
    """Each value must be a position among n points: an int, not a bool,
    in range(n).  A float, a bool, a label, a negative index or one past
    the end is a `DomainError`."""
    for v in values:
        if v.__class__ is not int or not 0 <= v < n:
            raise DomainError(f"{v!r} is not a position in range({n})")


def check_unit(q: Fraction, name: str = "value") -> Fraction:
    """q, checked to be a point of the unit interval [0, 1]; the one such
    rule, so a value outside is the same `DomainError` everywhere."""
    if not (ZERO <= q <= ONE):
        raise DomainError(f"{name} = {q} is outside [0, 1]")
    return q


@dataclass(frozen=True)
class StepFn:
    """A step function on [0,1].

    `breakpoints` are strictly increasing with first 0 and last 1; piece i
    has the constant value `values[i]` on [breakpoints[i], breakpoints[i+1]).
    `value_at_one` is the value at the single point 1.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    value_at_one: Fraction

    def __post_init__(self):
        bps, vals = self.breakpoints, self.values
        if len(bps) < 2 or bps[0] != ZERO or bps[-1] != ONE:
            raise DomainError("breakpoints must run from 0 to 1")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if len(vals) != len(bps) - 1:
            raise DomainError("need exactly one value per piece")
        for v in vals:
            check_unit(v, "piece value")
        check_unit(self.value_at_one, "value at 1")

    @classmethod
    def of(cls, breakpoints, values, value_at_one) -> "StepFn":
        """Build a canonical StepFn, merging adjacent pieces of equal value."""
        bps = [rat(b) for b in breakpoints]
        vals = [rat(v) for v in values]
        if len(vals) != len(bps) - 1:
            raise DomainError("need exactly one value per piece")
        merged_b = [bps[0]]
        merged_v = []
        for i, v in enumerate(vals):
            if merged_v and merged_v[-1] == v:
                merged_b[-1] = bps[i + 1]
            else:
                merged_v.append(v)
                merged_b.append(bps[i + 1])
        return cls(tuple(merged_b), tuple(merged_v), rat(value_at_one))

    @classmethod
    def constant(cls, v) -> "StepFn":
        v = rat(v)
        return cls.of((ZERO, ONE), (v,), v)

    def __call__(self, x: Fraction) -> Fraction:
        x = rat(x)
        check_unit(x, "argument")
        if x == ONE:
            return self.value_at_one
        for i in range(len(self.values)):
            if self.breakpoints[i] <= x < self.breakpoints[i + 1]:
                return self.values[i]
        raise AssertionError("unreachable: breakpoints cover [0,1]")


def step_integrate(f: StepFn) -> Fraction:
    """Exact Lebesgue integral of a step function; the point 1 has measure 0."""
    total = ZERO
    for i, v in enumerate(f.values):
        total += v * (f.breakpoints[i + 1] - f.breakpoints[i])
    return total
