"""Monoidal structure of finite measurable spaces.

The monoidal product X (x) Y is `product_space`, whose atoms are the
rectangles of atoms; on finite spaces it equals the tensor sigma-algebra,
which `tensor_space` builds by its definition, the coinduced one: the
graph of each map from an atom into an atom is a mask, and `join_sigma`
joins those masks through its point-to-block table.  The `smcc` suite
checks it against the product.  Also function spaces with the
evaluation-induced sigma-algebra, currying, and the lower-indicator map
on the unit interval, whose step-function integral is its level (the
section property the `lebesgue` suite checks).

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

from .kernel import CapacityError, DomainError, ONE, ZERO, StepFn, check_unit, rat
from .measurable import FinMeasSpace, MeasFn, induced_sigma, join_sigma, measurable_maps

TENSOR_POINT_GUARD = 16


def _component(name: str) -> str:
    return json.dumps(name) if any(c in name for c in ',()"') else name


def pair_name(x: str, y: str) -> str:
    return f"({_component(x)},{_component(y)})"


def product_points(X: FinMeasSpace, Y: FinMeasSpace) -> tuple[str, ...]:
    """`pair_name` of every pair, in carrier order, escaping each name once."""
    ys = [_component(y) for y in Y.points]
    return tuple([f"({x},{y})" for x in map(_component, X.points) for y in ys])


@dataclass(frozen=True)
class FnSpace:
    elements: tuple[tuple[int, ...], ...]  # measurable maps, as positions
    carrier: FinMeasSpace  # point k is elements[k]
    position: dict[tuple[int, ...], int] = field(repr=False, compare=False)  # k by element


def tensor_space(X: FinMeasSpace, Y: FinMeasSpace) -> FinMeasSpace:
    """The largest sigma-algebra on X x Y making the graph of every
    measurable cross map, in both directions, measurable.

    The graph x -> (x, f(x)) of a measurable f: X -> Y sends an atom a
    to {(i, f(i)) : i in a}, and coinduction joins the points of each
    such image.  As f ranges over the measurable maps, f restricted to a
    ranges over every map from a into a single atom b of Y, independently
    for each atom.  So the images are exactly the graphs of the maps
    g: a -> b, and `join_sigma` joins one mask per such g, sum over a, b
    of |b|^|a| masks rather than the product over a of the sum over b of
    |b|^|a| maps; likewise for maps Y -> X.  An atom of one point has a
    one-point image, which joins nothing, so its graphs are skipped.
    A graph already inside one block costs one test of the block table.

    This is the definition, kept to be checked against `product_space`,
    which it equals; the carrier is still bounded by TENSOR_POINT_GUARD."""
    if len(X.points) * len(Y.points) > TENSOR_POINT_GUARD:
        raise CapacityError("product carrier exceeds the tensor guard")
    ny = len(Y.points)
    graphs = _graph_masks(X, Y, ny, 1) + _graph_masks(Y, X, 1, ny)
    return join_sigma(product_points(X, Y), graphs)


def _graph_masks(A: FinMeasSpace, B: FinMeasSpace, a_step: int, b_step: int) -> list[int]:
    """The graph of every map g from an atom of A with two or more points
    into an atom of B, as a mask: one bit per point of the atom, chosen
    among the points of B's atom; (A_i, B_j) is carrier position
    i*a_step + j*b_step."""
    masks = []
    for a in A.atoms:
        if a & (a - 1):
            dom = [i * a_step for i in range(len(A.points)) if a >> i & 1]
            for b in B.atoms:
                cod = [j * b_step for j in range(len(B.points)) if b >> j & 1]
                choices = [[1 << (i + j) for j in cod] for i in dom]
                masks += map(sum, itertools.product(*choices))
    return masks


def product_space(X: FinMeasSpace, Y: FinMeasSpace) -> FinMeasSpace:
    """The sigma-algebra generated by measurable rectangles; its atoms
    are the rectangles u x v of atoms.  It is the tensor X (x) Y.

    Proof on finite spaces.  The graph x -> (x, f(x)) of a measurable
    f: X -> Y pulls a rectangle u x v back to u & f^-1(v), which is
    measurable, and likewise for maps Y -> X, so every rectangle is in
    the tensor.  Conversely, the graphs of the constant maps pull a
    tensor-measurable S back to its sections, which are therefore
    measurable.  If (x, y) is in S and x', y' share an atom with x, y,
    then the section of S at y holds x, so x', and the section at x'
    holds y, so y': S is a union of atom rectangles."""
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
    image = tuple(f[i] for i in range(len(X.points)) for f in F.elements)
    return MeasFn(product_space(X, F.carrier), Y, image)


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
    if f.dom != product_space(X, Z):
        raise DomainError("map is not defined on the tensor of X and Z")
    if f.cod != Y:
        raise DomainError("map does not land in Y")
    F = function_space(X, Y)
    g = curry_positions(f.image, F, len(Z.points))
    if None in g:
        raise DomainError(f"section at {Z.points[g.index(None)]!r} is not measurable")
    return MeasFn(Z, F.carrier, g)


def uncurry(g: MeasFn, X: FinMeasSpace, Z: FinMeasSpace, Y: FinMeasSpace) -> MeasFn:
    """Inverse transpose: a map Z -> Y^X becomes a map on the tensor."""
    F = function_space(X, Y)
    if g.cod != F.carrier:
        raise DomainError("map does not land in the function space of X and Y")
    return MeasFn(product_space(X, Z), Y, uncurry_positions(g.image, F))


# ---------------------------------------------------------------------------
# the lower-indicator map on the interval


def down_map(u) -> StepFn:
    """The indicator of [0, u] as a step function.

    Pieces are right-open, so the single interior point u itself carries
    the value of the following piece; this differs from the closed
    indicator on a set of measure zero and is invisible to integration.
    """
    u = check_unit(rat(u), "argument")
    if u == ONE:
        return StepFn.constant(ONE)
    if u == ZERO:
        return StepFn.constant(ZERO)
    return StepFn.of((ZERO, u, ONE), (ONE, ZERO), ZERO)
