"""Monoidal structure of finite measurable spaces.

Tensor and product sigma-algebras on cartesian products, function spaces
with the evaluation-induced sigma-algebra, currying, and the
lower-indicator map on the unit interval together with the section
property of Lebesgue integration on step functions.

A measurable map is the tuple of its codomain positions
(`measurable_maps`), so hom-sets are lists of position tuples.  The pair
(x_i, y_j) is point i*|Y| + j of X x Y, and the k-th map X -> Y is point
k of the function space.  curry(f)[k] is the position of the section
f[k::|Z|] and uncurry(g)[i*|Z| + k] is value i of the map at g[k];
`curry`/`uncurry` are their checked `MeasFn` views.  Names are labels
that nothing parses, "(x,y)" for a pair and the comma-joined values for
a map, with a component holding , ( ) or " JSON-quoted: plain components
hold no delimiter and quoted ones delimit themselves, so distinct points
get distinct labels.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .kernel import CapacityError, DomainError, ONE, ZERO, StepFn, rat, rat_str, step_integrate
from .measurable import FinMeasSpace, MeasFn, coinduced_sigma, induced_sigma, measurable_maps

TENSOR_POINT_GUARD = 16


def _component(name: str) -> str:
    return json.dumps(name) if any(c in name for c in ',()"') else name


def pair_name(x: str, y: str) -> str:
    return f"({_component(x)},{_component(y)})"


def product_points(X: FinMeasSpace, Y: FinMeasSpace) -> tuple[str, ...]:
    return tuple(pair_name(x, y) for x, y in itertools.product(X.points, Y.points))


@dataclass(frozen=True)
class FnSpace:
    elements: tuple[tuple[int, ...], ...]  # measurable maps, as positions
    carrier: FinMeasSpace  # point k is elements[k]
    position: dict[tuple[int, ...], int] = field(repr=False, compare=False)  # k by element


def _check_tensor_guard(X, Y):
    if len(X.points) * len(Y.points) > TENSOR_POINT_GUARD:
        raise CapacityError("product carrier exceeds the tensor guard")


def tensor_space(X: FinMeasSpace, Y: FinMeasSpace) -> FinMeasSpace:
    """The largest sigma-algebra on X x Y making the graph of every
    measurable cross map, in both directions, measurable."""
    _check_tensor_guard(X, Y)
    ny = len(Y.points)
    family = [(X, tuple(i * ny + j for i, j in enumerate(f)))
              for f in measurable_maps(X, Y)]
    family += [(Y, tuple(i * ny + j for j, i in enumerate(g)))
               for g in measurable_maps(Y, X)]
    return coinduced_sigma(product_points(X, Y), family)


def product_space(X: FinMeasSpace, Y: FinMeasSpace) -> FinMeasSpace:
    """The sigma-algebra generated by measurable rectangles; its atoms
    are the rectangles u x v of atoms."""
    _check_tensor_guard(X, Y)
    ny = len(Y.points)
    atoms = [sum(v << i * ny for i in range(len(X.points)) if u >> i & 1)
             for u in X.atoms for v in Y.atoms]
    return FinMeasSpace(product_points(X, Y), atoms)


def function_space(X: FinMeasSpace, Y: FinMeasSpace) -> FnSpace:
    """The measurable functions X -> Y with the evaluation-induced sigma."""
    elements = tuple(measurable_maps(X, Y))
    names = tuple(",".join(_component(Y.points[j]) for j in f) for f in elements)
    family = [(tuple(f[i] for f in elements), Y) for i in range(len(X.points))]
    position = {f: k for k, f in enumerate(elements)}
    return FnSpace(elements, induced_sigma(names, family), position)


def eval_map(X: FinMeasSpace, Y: FinMeasSpace, F: FnSpace) -> MeasFn:
    """(x, f) -> f(x) on the tensor of X with F = function_space(X, Y);
    MeasFn raises DomainError if it is not measurable, which would be a
    bug."""
    mapping = tuple(Y.points[f[i]] for i in range(len(X.points))
                    for f in F.elements)
    return MeasFn(tensor_space(X, F.carrier), Y, mapping)


def curry_positions(f: tuple[int, ...], F: FnSpace, nz: int) -> tuple:
    """Transpose a map on X (x) Z into a map Z -> Y^X: value k is the
    position of the section f[k::nz], None if that is not measurable."""
    return tuple([F.position.get(f[k::nz]) for k in range(nz)])


def uncurry_positions(g: tuple[int, ...], F: FnSpace) -> tuple[int, ...]:
    """Inverse transpose: position i*|Z| + k of the result is value i of
    the map at function-space position g[k]."""
    return tuple(itertools.chain.from_iterable(zip(*[F.elements[j] for j in g])))


def curry(f: MeasFn, X: FinMeasSpace, Z: FinMeasSpace, Y: FinMeasSpace) -> MeasFn:
    """Transpose a map on the tensor of X and Z into a map Z -> Y^X."""
    if f.dom != tensor_space(X, Z):
        raise DomainError("map is not defined on the tensor of X and Z")
    F = function_space(X, Y)
    g = curry_positions(tuple(map(f.cod.points.index, f.mapping)), F, len(Z.points))
    if None in g:
        raise DomainError(f"section at {Z.points[g.index(None)]!r} is not measurable")
    return MeasFn(Z, F.carrier, tuple(F.carrier.points[j] for j in g))


def uncurry(g: MeasFn, X: FinMeasSpace, Z: FinMeasSpace, Y: FinMeasSpace) -> MeasFn:
    """Inverse transpose: a map Z -> Y^X becomes a map on the tensor."""
    F = function_space(X, Y)
    if g.cod != F.carrier:
        raise DomainError("map does not land in the function space of X and Y")
    f = uncurry_positions(tuple(map(F.carrier.points.index, g.mapping)), F)
    return MeasFn(tensor_space(X, Z), Y, tuple(Y.points[j] for j in f))


# ---------------------------------------------------------------------------
# the lower-indicator map on the interval


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


def lebesgue_section_check(samples, integrator=step_integrate) -> dict:
    """Verify that integrating the lower indicator returns its level.

    `samples` are levels u.  Failures are report entries, never
    exceptions.
    """
    entries = []
    for v in samples:
        v = rat(v)
        got = integrator(down_map(v))
        entries.append({
            "level": rat_str(v),
            "integral": rat_str(got),
            "passed": got == v,
        })
    return {"passed": all(e["passed"] for e in entries), "entries": entries}
