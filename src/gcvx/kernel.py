"""Exact rational scalars and step functions on the unit interval.

Every quantity in this library is a `fractions.Fraction`; there is no
floating point anywhere.  Step functions are right-open on their pieces,
with a separate value recorded for the point 1, so that maps which
distinguish [0,1) from {1} can be represented faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """An enumeration would exceed the library's explicit size guards."""


def rat(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a "p/q" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise DomainError(f"cannot interpret {value!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Canonical "p/q" form (denominator positive, gcd 1)."""
    return f"{q.numerator}/{q.denominator}"


def int_row(values) -> tuple[list[int], int]:
    """Fractions as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def check_unit(q: Fraction, name: str = "value") -> Fraction:
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
