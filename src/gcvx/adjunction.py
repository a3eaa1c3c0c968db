"""The two-sided bridge between measures and convex structure.

Builds the measurable space generated by the Boolean subobjects of a
semilattice, the counit extracting a point from a measure (threshold map
on the classifier, meet of the support in general, barycenter on
polytopes), adjunct transposition, triangle identities, the telescoping
decomposition of simple functions, and the algebra <-> convex-space
round trip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .convex import (
    MIX_GRID,
    GeomCvx,
    SemiCvx,
    _coords,
    all_boolean_subobjects,
    combine_many,
    free_convex,
)
from .giry import (
    DistOverDists,
    FinDist,
    atom_dirac,
    grid_dists,
    map_unit,
    mix_dists,
    mu,
    pushforward,
)
from .kernel import (DomainError, ONE, ZERO, check_unit, int_row, int_rows,
                     rat, rat_str)
from .measurable import FinMeasSpace, MeasFn, generate_sigma
from .reports import LawReport


def sigma_functor(A: SemiCvx) -> FinMeasSpace:
    """The measurable space on the elements of A whose sigma-algebra is
    generated by all Boolean subobjects of A."""
    return generate_sigma(A.elements, [S.mask for S in all_boolean_subobjects(A)])


def counit(A, P):
    """Extract the point of A represented by the measure P.

    For a semilattice, P is a FinDist on the generated space and the
    result is the meet of the positions in the atoms carrying positive
    mass; a measure on any other carrier is a `DomainError`.  For a
    polytope, P is an iterable of (weight, point) pairs and the result
    is the barycenter.
    """
    if isinstance(A, SemiCvx):
        points = P.space.points
        # the generated space shares the tuple of A's labels
        if points is not A.elements and tuple(points) != tuple(A.elements):
            raise DomainError("measure does not live on the carrier of A")
        mask = 0
        for a, n in zip(P.space.atoms, P.num):
            if n:
                mask |= a
        return A.meet_all(i for i in range(len(points)) if mask >> i & 1)
    if isinstance(A, GeomCvx):
        pairs = list(P)
        weights = [rat(w) for w, _ in pairs]
        return combine_many(A, weights, [p for _, p in pairs])
    raise DomainError(f"unknown convex space {A!r}")


def adjunct(f: MeasFn, A: SemiCvx) -> Callable[[FinDist], int]:
    """Transpose a measurable map into the generated space of A to an
    affine map on measures: push forward, then take the counit."""
    def g(P: FinDist) -> int:
        return counit(A, pushforward(f, P))
    return g


def adjunct_inverse(g, X: FinMeasSpace, space: FinMeasSpace) -> MeasFn:
    """Transpose an affine map on measures back by precomposing with the
    unit x -> dirac(x); `space` is the generated space of the map's
    semilattice."""
    return MeasFn(X, space,
                  tuple(g(atom_dirac(X, k)) for k in X.point_atom))


def triangle_check(X: FinMeasSpace, semilattices=()) -> LawReport:
    """Both triangle identities, checked pointwise with exact equality.

    The measure-side triangle runs over a spanning family of grid
    measures on X, each instance recorded with its measure as detail;
    the convex-side triangle runs over the points of every supplied
    semilattice, and a pass there is only counted.
    """
    rep = LawReport("adjunction")
    for i, P in enumerate(grid_dists(X)):
        # the counit at the free algebra of measures is the multiplication
        got = mu(map_unit(P))
        rep.record(got == P, "triangle.measure-side", f"P{i}",
                   witness=lambda: (got.describe(), P.describe()),
                   detail=P.describe())
    passes = 0
    for j, A in enumerate(semilattices):
        sa = sigma_functor(A)
        for a, k in enumerate(sa.point_atom):
            got = counit(A, atom_dirac(sa, k))
            if got == a:
                passes += 1
            else:
                rep.record(False, "triangle.convex-side",
                           f"A{j}-{A.elements[a]}",
                           witness=A.elements[got])
    rep.count(passes)
    return rep


def mu_matches_counit(X: FinMeasSpace, PP: DistOverDists) -> bool:
    """The multiplication agrees with the barycenter counit on the
    simplex of measures."""
    simplex = free_convex(len(X.atoms))  # one coordinate per atom
    bary = counit(simplex, [(w, q.mass) for q, w in zip(PP.support, PP.weights)])
    return FinDist(X, tuple(bary)) == mu(PP)


# ---------------------------------------------------------------------------
# telescoping decomposition


def telescope(coefficients, blocks):
    """Rewrite a simple function as a genuine convex sum of indicators.

    `coefficients` are ascending values in [0,1], one per block;
    `blocks` partition the carrier (any hashable elements).  The output
    pairs (weight, set) have nonnegative weights summing to exactly one,
    ending with the weight on the empty set.
    """
    coeffs = [check_unit(rat(c), "coefficient") for c in coefficients]
    sets = [frozenset(b) for b in blocks]
    if len(coeffs) != len(sets) or not coeffs:
        raise DomainError("need one coefficient per block")
    if any(c2 < c1 for c1, c2 in zip(coeffs, coeffs[1:])):
        raise DomainError("coefficients must be sorted ascending")
    for s1, s2 in itertools.combinations(sets, 2):
        if s1 & s2:
            raise DomainError("blocks must be pairwise disjoint")
    out = []
    prev = ZERO
    for i, c in enumerate(coeffs):
        tail = frozenset().union(*sets[i:])
        out.append((c - prev, tail))
        prev = c
    out.append((ONE - coeffs[-1], frozenset()))
    return out


def telescope_pointwise(decomposition, x) -> Fraction:
    """Evaluate a telescoped simple function at a carrier element."""
    return sum((w for w, s in decomposition if x in s), ZERO)


# ---------------------------------------------------------------------------
# evaluation representation


def eval_hull_identity(A: GeomCvx, weights, points, spanning_fns) -> dict:
    """Check that a convex combination of evaluations is the evaluation
    at the combined point, on a spanning family of functionals.

    The one law check that returns a dict, {"passed", "point"}: the
    benchmark's polytope workload reads both keys.  With the weights as
    w_i / W, and the points P_i and the combination C over one common
    denominator Q, each functional m compares two integers:
    sum_i w_i m(P_i / Q) and W m(C / Q), both scaled by m's apply_num.
    As in `combine_many`, a point of weight zero is not read; the points
    of positive weight are checked to lie in A there, once, and read
    here by `_coords`."""
    weights = [rat(w) for w in weights]
    combined = combine_many(A, weights, points)
    support = [(w, _coords(p, A.dim)) for w, p in zip(weights, points) if w]
    wnum, W = int_row([w for w, _ in support])
    (*rows, C), Q = int_rows([*(p for _, p in support), combined])
    passed = all(
        sum(w * m.apply_num(P, Q) for w, P in zip(wnum, rows))
        == W * m.apply_num(C, Q) for m in spanning_fns)
    return {"passed": passed, "point": tuple(rat_str(c) for c in combined)}


# ---------------------------------------------------------------------------
# algebras and the round trip


@dataclass(frozen=True)
class GiryAlgebra:
    """A structure map collapsing measures on a finite space to points,
    each given as its position in space.points."""

    space: FinMeasSpace
    h: Callable[[FinDist], int]

    def map_h(self, PP: DistOverDists) -> FinDist:
        """The functor applied to h: measures-of-measures to measures."""
        atom = self.space.point_atom
        num = [0] * len(self.space.atoms)
        for q, w in zip(PP.support, PP.wnum):
            num[atom[self.h(q)]] += w
        return FinDist(self.space, num, PP.wden)


def convex_to_algebra(A: SemiCvx) -> GiryAlgebra:
    """The algebra structure on the generated space: the counit itself."""
    sa = sigma_functor(A)
    return GiryAlgebra(sa, lambda P: counit(A, P))


def algebra_law_report(alg: GiryAlgebra) -> LawReport:
    """Unit and multiplication laws on diracs, grid mixtures of diracs,
    and nested two-level mixtures.  Two points agree when they share an
    atom."""
    rep = LawReport("algebra")
    X = alg.space
    atom, names = X.point_atom, X.points
    diracs = [atom_dirac(X, k) for k in atom]
    for x, P in enumerate(diracs):
        got = alg.h(P)
        rep.record(atom[got] == atom[x], "algebra.unit", f"delta-{names[x]}",
                   witness=lambda: names[got], detail=P.describe())
    test_measures = list(dict.fromkeys(diracs))
    for P, Q in itertools.combinations(dict.fromkeys(diracs), 2):
        for a in MIX_GRID:
            test_measures.append(mix_dists(P, Q, a))
    test_measures = list(dict.fromkeys(test_measures))
    nested = []
    for P, Q in itertools.combinations(test_measures, 2):
        for a in MIX_GRID:
            nested.append(DistOverDists.of(X, [(ONE - a, P), (a, Q)]))
    for P in test_measures:
        nested.append(DistOverDists.of(X, [(ONE, P)]))
    for i, PP in enumerate(nested):
        lhs = alg.h(alg.map_h(PP))
        rhs = alg.h(mu(PP))
        rep.record(atom[lhs] == atom[rhs], "algebra.multiplication",
                   f"PP{i}", witness=lambda: (names[lhs], names[rhs]),
                   detail=PP.describe())
    return rep


def algebra_to_convex(alg: GiryAlgebra):
    """Recover the convex space carried by an algebra's structure map.

    The induced combination x +_a y = h((1-a) dirac x + a dirac y) is
    probed on MIX_GRID; on a finite carrier a lawful algebra is weight
    independent in the interior, yielding a meet-semilattice.  Weight
    dependence means the structure map was not an algebra and is
    reported as an axiom failure.  Returns (space, theta), where `theta`
    maps each point's label to the label of h at its dirac.
    """
    X = alg.space
    names = X.points
    diracs = [atom_dirac(X, k) for k in X.point_atom]
    table = []
    for x, P in enumerate(diracs):
        row = []
        for y, Q in enumerate(diracs):
            vals = {alg.h(mix_dists(P, Q, a)) for a in MIX_GRID}
            if len(vals) != 1:
                raise DomainError(
                    f"induced combination of ({names[x]}, {names[y]}) is weight "
                    f"dependent: {[names[v] for v in sorted(vals)]}; the "
                    f"structure map is not an algebra")
            row.append(vals.pop())
        table.append(tuple(row))
    space = SemiCvx(names, tuple(table))  # raises if the axioms fail
    theta = {x: names[alg.h(P)] for x, P in zip(names, diracs)}
    return space, theta


def roundtrip_check(A: SemiCvx):
    """convex_to_algebra then algebra_to_convex should recover A:
    (ok, theta), with theta as in algebra_to_convex."""
    back, theta = algebra_to_convex(convex_to_algebra(A))
    bijection = sorted(theta.values()) == sorted(A.elements) and \
        len(set(theta.values())) == len(A.elements)
    same_meet = back.elements == A.elements and \
        back.meet_table == A.meet_table
    return bijection and same_meet, theta
