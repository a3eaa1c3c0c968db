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
from math import lcm
from typing import Callable

from .convex import (
    GeomCvx,
    SemiCvx,
    all_boolean_subobjects,
    combine_many,
)
from .giry import (
    DistOverDists,
    FinDist,
    P_as_convex,
    dirac,
    grid_dists,
    map_unit,
    mix_dists,
    mu,
    pushforward,
)
from .kernel import DomainError, ONE, ZERO, rat, rat_str
from .measurable import FinMeasSpace, MeasFn, generate_sigma
from .reports import LawReport

MIX_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


@dataclass(frozen=True)
class SigmaOfA:
    """A semilattice together with its generated measurable space."""

    base: SemiCvx
    space: FinMeasSpace


def sigma_functor(A: SemiCvx) -> SigmaOfA:
    """Generate the sigma-algebra from all Boolean subobjects of A."""
    subs = all_boolean_subobjects(A)
    gens = [frozenset(S.members) for S in subs]
    space = generate_sigma(A.elements, gens)
    return SigmaOfA(A, space)


def counit(A, P):
    """Extract the point of A represented by the measure P.

    For a semilattice, P is a FinDist on the generated space and the
    result is the meet of everything carrying positive mass; for a
    polytope, P is an iterable of (weight, point) pairs and the result is
    the barycenter.
    """
    if isinstance(A, SemiCvx):
        carriers = []
        for a, n in zip(P.space.atoms, P.num):
            if n:
                carriers.extend(P.space.subset_names(a))
        return A.meet_all(carriers)
    if isinstance(A, GeomCvx):
        pairs = list(P)
        weights = [rat(w) for w, _ in pairs]
        return combine_many(A, weights, [p for _, p in pairs])
    raise DomainError(f"unknown convex space {A!r}")


def adjunct(f: MeasFn, A: SemiCvx) -> Callable[[FinDist], str]:
    """Transpose a measurable map into the generated space of A to an
    affine map on measures: push forward, then take the counit."""
    def g(P: FinDist) -> str:
        return counit(A, pushforward(f, P))
    return g


def adjunct_inverse(g, X: FinMeasSpace, sigma_a: SigmaOfA) -> MeasFn:
    """Transpose an affine map on measures back by precomposing with the
    unit x -> dirac(x)."""
    mapping = tuple(g(dirac(X, x)) for x in X.points)
    return MeasFn(X, sigma_a.space, mapping)


def triangle_check(X: FinMeasSpace, semilattices=()) -> LawReport:
    """Both triangle identities, checked pointwise with exact equality.

    The measure-side triangle runs over a spanning family of grid
    measures on X; the convex-side triangle runs over the points of every
    supplied semilattice.
    """
    rep = LawReport("adjunction")
    for i, P in enumerate(grid_dists(X)):
        PP = map_unit(P)
        # counit at the simplex of measures is the barycenter, here over
        # the weight denominator times the lcm of the measures'
        D = lcm(*(q.den for q in PP.support))
        bar = [0] * len(X.atoms)
        for q, w in zip(PP.support, PP.wnum):
            scale = w * (D // q.den)
            for k, n in enumerate(q.num):
                bar[k] += scale * n
        got = FinDist(X, bar, PP.wden * D)
        rep.record(got == P, "triangle.measure-side", f"P{i}",
                   witness=lambda: (got.describe(), P.describe()),
                   detail=P.describe())
    for j, A in enumerate(semilattices):
        sa = sigma_functor(A)
        for a in A.elements:
            got = counit(A, dirac(sa.space, a))
            rep.record(got == a, "triangle.convex-side", f"A{j}-{a}",
                       witness=got)
    return rep


def mu_matches_counit(X: FinMeasSpace, PP: DistOverDists) -> bool:
    """The multiplication agrees with the barycenter counit on the
    simplex of measures."""
    simplex = P_as_convex(X)
    bary = counit(simplex, [(w, q.mass) for q, w in zip(PP.support, PP.weights)])
    return FinDist(X, tuple(bary)) == mu(PP)


def unit_generator_measurability(X: FinMeasSpace) -> LawReport:
    """The unit is measurable at generator level: preimages of the sets
    {P : P(U) >= t} under x -> dirac(x) land in the sigma-algebra."""
    rep = LawReport("adjunction")
    for u in sorted(X.sigma):
        for t in MIX_GRID:
            pre = 0
            for i, x in enumerate(X.points):
                if dirac(X, x).measure(u) >= t:
                    pre |= 1 << i
            rep.record(pre in X.sigma, "unit.generator-measurable",
                       f"U{u}-t{rat_str(rat(t))}",
                       witness=X.subset_names(pre))
    return rep


# ---------------------------------------------------------------------------
# telescoping decomposition


def telescope(coefficients, blocks):
    """Rewrite a simple function as a genuine convex sum of indicators.

    `coefficients` are ascending values in [0,1], one per block;
    `blocks` partition the carrier (any hashable elements).  The output
    pairs (weight, set) have nonnegative weights summing to exactly one,
    ending with the weight on the empty set.
    """
    coeffs = [rat(c) for c in coefficients]
    sets = [frozenset(b) for b in blocks]
    if len(coeffs) != len(sets) or not coeffs:
        raise DomainError("need one coefficient per block")
    if any(c2 < c1 for c1, c2 in zip(coeffs, coeffs[1:])):
        raise DomainError("coefficients must be sorted ascending")
    for c in coeffs:
        if not (ZERO <= c <= ONE):
            raise DomainError("coefficients must lie in [0, 1]")
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
    at the combined point, on a spanning family of functionals."""
    weights = [rat(w) for w in weights]
    combined = combine_many(A, weights, points)
    entries = []
    for i, m in enumerate(spanning_fns):
        lhs = sum((w * m.apply(p) for w, p in zip(weights, points)), ZERO)
        rhs = m.apply(combined)
        entries.append({"fn": i, "passed": lhs == rhs,
                        "lhs": rat_str(lhs), "rhs": rat_str(rhs)})
    return {"passed": all(e["passed"] for e in entries),
            "point": tuple(rat_str(c) for c in combined),
            "entries": entries}


# ---------------------------------------------------------------------------
# algebras and the round trip


@dataclass(frozen=True)
class GiryAlgebra:
    """A structure map collapsing measures on a finite space to points."""

    space: FinMeasSpace
    h: Callable[[FinDist], str]

    def map_h(self, PP: DistOverDists) -> FinDist:
        """The functor applied to h: measures-of-measures to measures."""
        index = self.space.atom_index
        num = [0] * len(self.space.atoms)
        for q, w in zip(PP.support, PP.wnum):
            num[index[self.h(q)]] += w
        return FinDist(self.space, num, PP.wden)


def convex_to_algebra(A: SemiCvx) -> GiryAlgebra:
    """The algebra structure on the generated space: the counit itself."""
    sa = sigma_functor(A)
    return GiryAlgebra(sa.space, lambda P: counit(A, P))


def algebra_law_report(alg: GiryAlgebra) -> LawReport:
    """Unit and multiplication laws on diracs, grid mixtures of diracs,
    and nested two-level mixtures."""
    rep = LawReport("algebra")
    X = alg.space
    diracs = [dirac(X, x) for x in X.points]
    for x, P in zip(X.points, diracs):
        got = alg.h(P)
        rep.record(X.atom_of(got) == X.atom_of(x), "algebra.unit", f"delta-{x}",
                   witness=got, detail=P.describe())
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
        rep.record(X.atom_of(lhs) == X.atom_of(rhs), "algebra.multiplication",
                   f"PP{i}", witness=(lhs, rhs), detail=PP.describe())
    return rep


def algebra_to_convex(alg: GiryAlgebra) -> dict:
    """Recover the convex space carried by an algebra's structure map.

    The induced combination x +_a y = h((1-a) dirac x + a dirac y) is
    probed on MIX_GRID; on a finite carrier a lawful algebra is weight
    independent in the interior, yielding a meet-semilattice.  Weight
    dependence means the structure map was not an algebra and is
    reported as an axiom failure.
    """
    X = alg.space
    points = X.points
    mixes = {}
    for x, y in itertools.product(points, points):
        vals = {alg.h(mix_dists(dirac(X, x), dirac(X, y), a)) for a in MIX_GRID}
        if len(vals) != 1:
            raise DomainError(
                f"induced combination of ({x}, {y}) is weight dependent: "
                f"{sorted(vals)}; the structure map is not an algebra")
        mixes[(x, y)] = vals.pop()
    index = {p: i for i, p in enumerate(points)}
    table = tuple(tuple(index[mixes[(x, y)]] for y in points) for x in points)
    space = SemiCvx(points, table)  # raises if the axioms fail
    theta = {x: alg.h(dirac(X, x)) for x in points}
    return {"kind": "semi", "space": space, "q": alg.h, "theta": theta}


def free_algebra_to_convex(X: FinMeasSpace) -> dict:
    """The free algebra on X (measures with the multiplication as
    structure map) realized as the simplex of measures."""
    simplex = P_as_convex(X)

    def q(PP: DistOverDists):
        return mu(PP).mass

    theta = {x: dirac(X, x).mass for x in X.points}
    return {"kind": "geom", "space": simplex, "q": q, "theta": theta}


def roundtrip_check(A: SemiCvx) -> dict:
    """convex_to_algebra then algebra_to_convex should recover A."""
    alg = convex_to_algebra(A)
    got = algebra_to_convex(alg)
    back = got["space"]
    theta = got["theta"]
    bijection = sorted(theta.values()) == sorted(A.elements) and \
        len(set(theta.values())) == len(A.elements)
    same_meet = back.elements == A.elements and \
        back.meet_table == A.meet_table
    return {"passed": bijection and same_meet, "theta": theta,
            "recovered": back}
