"""Monoidal structure of finite measurable spaces.

Tensor and product sigma-algebras on cartesian products, function spaces
with the evaluation-induced sigma-algebra, currying, and the threshold /
lower-indicator maps on the unit interval together with the section
property of Lebesgue integration on step functions.

Product and function-space points are positions: the pair (x_i, y_j) of
X x Y is point i*|Y| + j, and the j-th measurable map is point j of the
function space.  Their names, "(x,y)" and the comma-joined mapping, are
labels that nothing parses, so point names may contain any character.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .kernel import CapacityError, DomainError, ONE, ZERO, StepFn, rat, rat_str, step_integrate
from .measurable import (
    FinMeasSpace,
    MeasFn,
    coinduced_sigma,
    enumerate_meas_fns,
    induced_sigma,
)

TENSOR_POINT_GUARD = 16


def pair_name(x: str, y: str) -> str:
    return f"({x},{y})"


def product_points(X: FinMeasSpace, Y: FinMeasSpace) -> tuple[str, ...]:
    return tuple(pair_name(x, y) for x, y in itertools.product(X.points, Y.points))


@dataclass(frozen=True)
class TensorSpace:
    left: FinMeasSpace
    right: FinMeasSpace
    carrier: FinMeasSpace


@dataclass(frozen=True)
class FnSpace:
    base: FinMeasSpace
    target: FinMeasSpace
    elements: tuple[MeasFn, ...]
    carrier: FinMeasSpace
    # position of each element, keyed by its mapping
    position: dict[tuple[str, ...], int] = field(repr=False, compare=False)


def _check_tensor_guard(X, Y):
    if len(X.points) * len(Y.points) > TENSOR_POINT_GUARD:
        raise CapacityError("product carrier exceeds the tensor guard")


def tensor_space(X: FinMeasSpace, Y: FinMeasSpace, graphs: str = "all") -> TensorSpace:
    """The largest sigma-algebra making all graph maps measurable.

    With graphs="all" the family contains the graph of every measurable
    cross map in both directions; graphs="constant" restricts to graphs
    of constant maps (a strictly weaker condition, kept for comparison).
    """
    _check_tensor_guard(X, Y)
    if graphs not in ("all", "constant"):
        raise DomainError(f"unknown graph family {graphs!r}")
    carrier = product_points(X, Y)
    family = []
    for f in enumerate_meas_fns(X, Y):
        if graphs == "constant" and len(set(f.mapping)) > 1:
            continue
        family.append((X, {x: pair_name(x, f(x)) for x in X.points}))
    for g in enumerate_meas_fns(Y, X):
        if graphs == "constant" and len(set(g.mapping)) > 1:
            continue
        family.append((Y, {y: pair_name(g(y), y) for y in Y.points}))
    return TensorSpace(X, Y, coinduced_sigma(carrier, family))


def product_space(X: FinMeasSpace, Y: FinMeasSpace) -> FinMeasSpace:
    """The sigma-algebra generated by measurable rectangles; its atoms
    are the rectangles u x v of atoms."""
    _check_tensor_guard(X, Y)
    ny = len(Y.points)
    atoms = []
    for u in X.atoms:
        for v in Y.atoms:
            m = 0
            for i in range(len(X.points)):
                if u >> i & 1:
                    m |= v << i * ny
            atoms.append(m)
    return FinMeasSpace(product_points(X, Y), atoms)


def function_space(X: FinMeasSpace, Y: FinMeasSpace) -> FnSpace:
    """The measurable functions X -> Y with the evaluation-induced sigma."""
    elements = tuple(enumerate_meas_fns(X, Y))
    names = tuple(",".join(f.mapping) for f in elements)
    family = []
    for i in range(len(X.points)):
        mapping = {name: f.mapping[i] for name, f in zip(names, elements)}
        family.append((mapping, Y))
    carrier = induced_sigma(names, family)
    position = {f.mapping: j for j, f in enumerate(elements)}
    return FnSpace(X, Y, elements, carrier, position)


def eval_map(X: FinMeasSpace, Y: FinMeasSpace) -> MeasFn:
    """(x, f) -> f(x) on the tensor of X with the function space.

    MeasFn raises DomainError if it is not measurable, which would be a
    library bug.
    """
    F = function_space(X, Y)
    T = tensor_space(X, F.carrier)
    mapping = tuple(f.mapping[i] for i in range(len(X.points))
                    for f in F.elements)
    return MeasFn(T.carrier, Y, mapping)


def curry(f: MeasFn, X: FinMeasSpace, Z: FinMeasSpace, Y: FinMeasSpace,
          F: FnSpace = None, T: TensorSpace = None) -> MeasFn:
    """Transpose a map on the tensor of X and Z into a map Z -> Y^X.

    Precomputed function and tensor spaces avoid rebuilding per call.
    """
    if F is None:
        F = function_space(X, Y)
    if T is None:
        T = tensor_space(X, Z)
    if f.dom != T.carrier:
        raise DomainError("map is not defined on the tensor of X and Z")
    nz = len(Z.points)
    mapping = []
    for k, z in enumerate(Z.points):
        j = F.position.get(f.mapping[k::nz])
        if j is None:
            raise RuntimeError(
                f"section at {z!r} is not a measurable element of the "
                f"function space")
        mapping.append(F.carrier.points[j])
    return MeasFn(Z, F.carrier, tuple(mapping))


def uncurry(g: MeasFn, X: FinMeasSpace, Z: FinMeasSpace, Y: FinMeasSpace,
            F: FnSpace = None, T: TensorSpace = None) -> MeasFn:
    """Inverse transpose: a map Z -> Y^X becomes a map on the tensor.

    Precomputed function and tensor spaces avoid rebuilding per call.
    """
    if F is None:
        F = function_space(X, Y)
    if T is None:
        T = tensor_space(X, Z)
    sections = [F.elements[F.carrier.points.index(q)].mapping
                for q in g.mapping]
    mapping = tuple(s[i] for i in range(len(X.points)) for s in sections)
    return MeasFn(T.carrier, Y, mapping)


# ---------------------------------------------------------------------------
# threshold and lower-indicator maps on the interval


def ge_map(u, v) -> int:
    """1 iff v <= u (non-strict at the boundary), else 0."""
    u, v = rat(u), rat(v)
    if not (ZERO <= u <= ONE) or not (ZERO <= v <= ONE):
        raise DomainError("arguments must lie in [0, 1]")
    return 1 if v <= u else 0


def down_map(u) -> StepFn:
    """The indicator of [0, u] as a step function.

    Pieces are right-open, so the single interior point u itself carries
    the value of the following piece; this differs from the closed
    indicator on a set of measure zero and is invisible to integration.
    """
    u = rat(u)
    if not (ZERO <= u <= ONE):
        raise DomainError("argument must lie in [0, 1]")
    if u == ONE:
        return StepFn.constant(ONE)
    if u == ZERO:
        return StepFn.constant(ZERO)
    return StepFn.of((ZERO, u, ONE), (ONE, ZERO), ZERO)


def lebesgue_section_check(samples, functional_values=(), integrator=step_integrate) -> dict:
    """Verify that integrating the lower indicator returns its level.

    `samples` are levels u; `functional_values` are values attributed to a
    probability functional, checked through the identical section
    property.  Failures are report entries, never exceptions.
    """
    entries = []
    for kind, vals in (("sample", samples), ("functional", functional_values)):
        for v in vals:
            v = rat(v)
            got = integrator(down_map(v))
            entries.append({
                "kind": kind,
                "level": rat_str(v),
                "integral": rat_str(got),
                "passed": got == v,
            })
    return {"passed": all(e["passed"] for e in entries), "entries": entries}
