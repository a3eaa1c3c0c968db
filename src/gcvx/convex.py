"""Convex spaces in two executable families, with affine maps and
Boolean subobjects.

Geometric spaces are rational polytopes given by generator lists;
discrete spaces are finite meet-semilattices, where every interior
convex combination collapses to the meet.  The two-element semilattice
plays the role of the classifier for Boolean subobjects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import exactlp
from .kernel import CapacityError, DomainError, ONE, ZERO, rat, rat_str

Point = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# carriers


@dataclass(frozen=True)
class GeomCvx:
    """The convex hull of finitely many rational points in Q^dim.

    The generator list may be empty (the empty convex space); duplicates
    are removed by `of`.
    """

    dim: int
    generators: tuple[Point, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.dim:
                raise DomainError("generator dimension mismatch")

    @classmethod
    def of(cls, dim, generators) -> "GeomCvx":
        seen = []
        for g in generators:
            p = tuple(rat(x) for x in g)
            if p not in seen:
                seen.append(p)
        return cls(int(dim), tuple(seen))

    def require_member(self, p: Point) -> None:
        if p in self.generators:
            return  # a generator lies in its own hull
        ok, cert = hull_member(self, p)
        if not ok:
            c, t = cert
            raise DomainError(
                f"point {_vec_str(rat(x) for x in p)} is outside the hull; "
                f"separating functional c = {_vec_str(c)}, t = {rat_str(t)}")


def _vec_str(v) -> str:
    return "(" + ", ".join(rat_str(x) for x in v) + ")"


@dataclass(frozen=True)
class SemiCvx:
    """A finite meet-semilattice viewed as a convex space.

    a +_alpha b is a at alpha = 0, b at alpha = 1, and meet(a, b) for any
    interior alpha.
    """

    elements: tuple[str, ...]
    meet_table: tuple[tuple[int, ...], ...]  # indices into elements

    def __post_init__(self):
        n = len(self.elements)
        t = self.meet_table
        if len(t) != n or any(len(row) != n for row in t):
            raise DomainError("meet table shape mismatch")
        for i in range(n):
            if t[i][i] != i:
                raise DomainError("meet must be idempotent")
            for j in range(n):
                if t[i][j] != t[j][i]:
                    raise DomainError("meet must be commutative")
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise DomainError("meet must be associative")

    @classmethod
    def of(cls, elements, meet_names) -> "SemiCvx":
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        table = tuple(tuple(index[v] for v in row) for row in meet_names)
        return cls(elements, table)

    def index(self, a: str) -> int:
        try:
            return self.elements.index(a)
        except ValueError:
            raise DomainError(f"{a!r} is not an element of the carrier")

    def meet(self, a: str, b: str) -> str:
        return self.elements[self.meet_table[self.index(a)][self.index(b)]]

    def meet_all(self, items) -> str:
        items = list(items)
        if not items:
            raise DomainError("meet of an empty family")
        acc = items[0]
        for x in items[1:]:
            acc = self.meet(acc, x)
        return acc

    def leq(self, a: str, b: str) -> bool:
        return self.meet(a, b) == a


def two_space() -> SemiCvx:
    """The two-element classifier: interior mixes of 0 and 1 give 0."""
    return SemiCvx.of(("0", "1"), (("0", "0"), ("0", "1")))


def free_convex(n: int) -> GeomCvx:
    """Free convex space on n generators: the standard simplex in Q^n."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    gens = []
    for i in range(n):
        gens.append(tuple(ONE if j == i else ZERO for j in range(n)))
    return GeomCvx.of(n, gens)


def unit_interval() -> GeomCvx:
    """The unit interval, presented in one dimension."""
    return GeomCvx.of(1, ((ZERO,), (ONE,)))


# ---------------------------------------------------------------------------
# hull membership and combinations


def hull_member(A: GeomCvx, p):
    """Exact hull membership.

    Returns (True, weights) with barycentric weights over A.generators, or
    (False, (c, t)) with c.g <= t < c.p for every generator g.
    """
    p = tuple(rat(x) for x in p)
    if len(p) != A.dim:
        raise DomainError("point dimension mismatch")
    n = len(A.generators)
    rows = [[g[d] for g in A.generators] for d in range(A.dim)]
    rows.append([ONE] * n)
    rhs = list(p) + [ONE]
    res = exactlp.solve_eq_nonneg(rows, rhs)
    if res["status"] == exactlp.FEASIBLE:
        return True, tuple(res["x"])
    y = res["farkas"]  # y.cols <= 0, y.rhs > 0
    return False, (tuple(y[:A.dim]), -y[A.dim])


def convex_combine(A, a, b, alpha):
    """The binary operation a +_alpha b = (1-alpha) a + alpha b."""
    alpha = rat(alpha)
    if not (ZERO <= alpha <= ONE):
        raise DomainError(f"weight {alpha} outside [0, 1]")
    if isinstance(A, GeomCvx):
        a = tuple(rat(x) for x in a)
        b = tuple(rat(x) for x in b)
        A.require_member(a)
        A.require_member(b)
        return tuple((ONE - alpha) * x + alpha * y for x, y in zip(a, b))
    if isinstance(A, SemiCvx):
        A.index(a), A.index(b)
        if alpha == ZERO:
            return a
        if alpha == ONE:
            return b
        return A.meet(a, b)
    raise DomainError(f"unknown convex space {A!r}")


def combine_many(A, weights, points):
    """Evaluate a finite convex sum with weights summing to one."""
    weights = [rat(w) for w in weights]
    if sum(weights) != ONE or any(w < 0 for w in weights):
        raise DomainError("weights must be nonnegative and sum to 1")
    support = [(w, p) for w, p in zip(weights, points) if w > 0]
    if isinstance(A, GeomCvx):
        for _, p in support:
            A.require_member(tuple(rat(x) for x in p))
        out = [ZERO] * A.dim
        for w, p in support:
            for d in range(A.dim):
                out[d] += w * rat(p[d])
        return tuple(out)
    if isinstance(A, SemiCvx):
        if len(support) == 1:
            return support[0][1]
        return A.meet_all(p for _, p in support)
    raise DomainError(f"unknown convex space {A!r}")


# ---------------------------------------------------------------------------
# interval endomorphisms


@dataclass(frozen=True)
class EndoI:
    """The affine endomorphism alpha -> s*alpha + t of the unit interval."""

    s: Fraction
    t: Fraction

    def __post_init__(self):
        if not (-ONE <= self.s <= ONE) or not (ZERO <= self.t <= ONE):
            raise DomainError("parameters outside the legal region")
        if not (ZERO <= self.s + self.t <= ONE):
            raise DomainError("s + t must lie in [0, 1]")

    @classmethod
    def of(cls, s, t) -> "EndoI":
        return cls(rat(s), rat(t))


def endo_apply(e: EndoI, alpha) -> Fraction:
    alpha = rat(alpha)
    if not (ZERO <= alpha <= ONE):
        raise DomainError(f"argument {alpha} outside [0, 1]")
    return e.s * alpha + e.t


def endo_compose(e1: EndoI, e2: EndoI) -> EndoI:
    # (e1 . e2)(a) = s1*(s2*a + t2) + t1; closure follows from e1, e2
    # mapping [0,1] into itself, and is re-validated by the constructor
    return EndoI(e1.s * e2.s, e1.s * e2.t + e1.t)


# ---------------------------------------------------------------------------
# Boolean subobjects


@dataclass(frozen=True)
class HalfspaceSplit:
    """A closed/open halfspace pair on a geometric carrier.

    The subset is {x : normal.x >= threshold} when upper_closed, else
    {x : normal.x > threshold}; the complement is the opposite open/closed
    side.  Both sides are convex by construction.
    """

    space: GeomCvx
    normal: tuple[Fraction, ...]
    threshold: Fraction
    upper_closed: bool = True

    def contains(self, p) -> bool:
        v = sum(c * rat(x) for c, x in zip(self.normal, p))
        return v >= self.threshold if self.upper_closed else v > self.threshold


@dataclass(frozen=True)
class SemiSubset:
    """A subset of a semilattice carrier, as a candidate Boolean subobject."""

    space: SemiCvx
    members: frozenset[str]

    def __post_init__(self):
        for a in self.members:
            self.space.index(a)

    def contains(self, a) -> bool:
        return a in self.members


def is_boolean_subobject(S):
    """Check that S and its complement are closed under convex combination.

    Returns (True, None) or (False, (x, y, alpha)) with a violating triple.
    For halfspace splits both sides are convex by construction, so the
    check only validates well-formedness.
    """
    if isinstance(S, HalfspaceSplit):
        if len(S.normal) != S.space.dim:
            raise DomainError("normal dimension mismatch")
        return True, None
    A = S.space
    inside = sorted(S.members, key=A.index)
    outside = [e for e in A.elements if e not in S.members]
    half = Fraction(1, 2)
    for side in (inside, outside):
        for x, y in itertools.combinations_with_replacement(side, 2):
            if (A.meet(x, y) in S.members) != (x in S.members):
                return False, (x, y, half)
    return True, None


def chi_is_affine(S: SemiSubset):
    """Whether the indicator of S is affine into the two-element classifier.

    Affinity demands chi(x meet y) = chi(x) meet chi(y), i.e. S must be a
    filter (meet-closed and up-closed); this is strictly stronger than the
    complementary-pair condition and is reported, never assumed.
    """
    A = S.space
    for x, y in itertools.combinations_with_replacement(A.elements, 2):
        lhs = ONE if A.meet(x, y) in S.members else ZERO
        rhs = min(ONE if x in S.members else ZERO,
                  ONE if y in S.members else ZERO)
        if lhs != rhs:
            return False, (x, y, Fraction(1, 2))
    return True, None


def generated_subobject(A: SemiCvx, a: str) -> frozenset[str]:
    """All b that can carry positive weight in a decomposition of a.

    On a semilattice this is the principal up-set of a.
    """
    A.index(a)
    return frozenset(b for b in A.elements if A.meet(a, b) == a)


def _geom_probe_points(A: GeomCvx):
    pts = list(A.generators)
    mixes = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for g, h in itertools.combinations(A.generators, 2):
        for alpha in mixes:
            pts.append(tuple((ONE - alpha) * x + alpha * y
                             for x, y in zip(g, h)))
    return pts


def boolean_intersection_check(A, S1, S2) -> dict:
    """Report whether the intersection of two Boolean subobjects is Boolean.

    This is a report, not an assertion: complement convexity of the
    intersection can genuinely fail (see the two-dimensional L-shape).
    """
    if isinstance(A, SemiCvx):
        inter = SemiSubset(A, S1.members & S2.members)
        ok, witness = is_boolean_subobject(inter)
        return {"passed": ok, "witness": witness,
                "intersection": sorted(inter.members, key=A.index)}
    # geometric: probe both-sides convexity of the intersection predicate
    def member(p):
        return S1.contains(p) and S2.contains(p)
    probes = _geom_probe_points(A)
    mixes = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for x, y in itertools.combinations(probes, 2):
        if member(x) != member(y):
            continue
        side = member(x)
        for alpha in mixes:
            z = tuple((ONE - a_) * u + a_ * v
                      for u, v, a_ in zip(x, y, [alpha] * len(x)))
            if member(z) != side:
                return {"passed": False, "witness": (x, y, alpha)}
    return {"passed": True, "witness": None}


def boolean_union_identity(A: SemiCvx, S: SemiSubset) -> dict:
    """Report whether the union of generated subobjects over S returns S.

    The identity is a theorem for subobjects whose indicator is affine
    (filters); for merely complementary pairs it can fail, so the result
    carries the affinity flag alongside the verdict.
    """
    union: set[str] = set()
    for a in sorted(S.members, key=A.index):
        union |= generated_subobject(A, a)
    affine, _ = chi_is_affine(S)
    return {
        "passed": union == set(S.members),
        "union": sorted(union, key=A.index),
        "chi_affine": affine,
    }


# ---------------------------------------------------------------------------
# affine maps


@dataclass(frozen=True)
class SemiToSemi:
    dom: SemiCvx
    cod: SemiCvx
    table: tuple[str, ...]  # image of each dom element, in dom order

    def __post_init__(self):
        for x, y in itertools.combinations_with_replacement(self.dom.elements, 2):
            if self.apply(self.dom.meet(x, y)) != \
                    self.cod.meet(self.apply(x), self.apply(y)):
                raise DomainError(f"map does not preserve meets at ({x}, {y})")

    def apply(self, a: str) -> str:
        return self.table[self.dom.index(a)]


@dataclass(frozen=True)
class GeomToI:
    """The affine functional p -> c.p + t into the unit interval."""

    dom: GeomCvx
    c: tuple[Fraction, ...]
    t: Fraction

    def __post_init__(self):
        for g in self.dom.generators:
            v = self.apply(g)
            if not (ZERO <= v <= ONE):
                raise DomainError(f"functional leaves [0,1] on generator {g}")

    def apply(self, p) -> Fraction:
        p = tuple(rat(x) for x in p)
        return sum(ci * x for ci, x in zip(self.c, p)) + self.t


@dataclass(frozen=True)
class SemiToI:
    """An affine map from a semilattice into the interval.

    Interior combinations in the domain are weight-independent while they
    are weighted in the interval, which forces every such map to be
    constant; the constructor enforces exactly the affinity equations.
    """

    dom: SemiCvx
    table: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for x, y in itertools.combinations(self.dom.elements, 2):
            vx, vy = self.apply(x), self.apply(y)
            vm = self.apply(self.dom.meet(x, y))
            for alpha in alphas:
                if vm != (ONE - alpha) * vx + alpha * vy:
                    raise DomainError(
                        f"not affine at ({x}, {y}, {alpha})")

    def apply(self, a: str) -> Fraction:
        return self.table[self.dom.index(a)]


def affine_semi_to_interval_maps(A: SemiCvx, values) -> list[SemiToI]:
    """All affine maps from A into the interval taking values in `values`.

    For |A| > 1 these are exactly the constant maps; the enumeration
    filters candidate tables through the SemiToI validator.
    """
    out = []
    values = [rat(v) for v in values]
    if len(A.elements) == 1:
        return [SemiToI(A, (v,)) for v in values]
    for v in values:
        out.append(SemiToI(A, tuple(v for _ in A.elements)))
    return out


# ---------------------------------------------------------------------------
# separation and double dualization


def separate_points(A: GeomCvx, a, b) -> HalfspaceSplit:
    """A halfspace split containing b on its closed side but not a."""
    a = tuple(rat(x) for x in a)
    b = tuple(rat(x) for x in b)
    if a == b:
        raise DomainError("cannot separate a point from itself")
    A.require_member(a)
    A.require_member(b)
    c = tuple(y - x for x, y in zip(a, b))
    t = sum(ci * y for ci, y in zip(c, b))
    return HalfspaceSplit(A, c, t, upper_closed=True)


def geom_spanning_functionals(A: GeomCvx) -> list[GeomToI]:
    """Coordinate functionals rescaled into [0,1], plus the constants.

    Equality of two affine functionals on this family implies equality on
    the whole hull.
    """
    fns = [GeomToI(A, tuple(ZERO for _ in range(A.dim)), ZERO),
           GeomToI(A, tuple(ZERO for _ in range(A.dim)), ONE)]
    for d in range(A.dim):
        vals = [g[d] for g in A.generators]
        if not vals:
            continue
        lo, hi = min(vals), max(vals)
        if lo == hi:
            continue
        scale = ONE / (hi - lo)
        c = tuple(scale if j == d else ZERO for j in range(A.dim))
        fns.append(GeomToI(A, c, -lo * scale))
    return fns


def injectivity_check(A) -> dict:
    """Search for distinct points with equal evaluation functionals.

    Geometric carriers are separated by rescaled coordinate functionals;
    on semilattices every affine map into the interval is constant, so
    evaluations collapse and the check reports the witnessing pair.  The
    semilattice maps are the constants 0, 1/2 and 1.
    """
    if isinstance(A, GeomCvx):
        fns = geom_spanning_functionals(A)
        for a, b in itertools.combinations(A.generators, 2):
            if all(m.apply(a) == m.apply(b) for m in fns):
                return {"injective": False, "witness": (a, b)}
        return {"injective": True, "witness": None}
    fns = affine_semi_to_interval_maps(A, (ZERO, Fraction(1, 2), ONE))
    for a, b in itertools.combinations(A.elements, 2):
        if all(m.apply(a) == m.apply(b) for m in fns):
            return {"injective": False, "witness": (a, b)}
    return {"injective": True, "witness": None}


# ---------------------------------------------------------------------------
# semilattice enumeration


def all_boolean_subobjects(A: SemiCvx) -> list[SemiSubset]:
    n = len(A.elements)
    if n > 16:
        raise CapacityError("too many subsets to scan")
    out = []
    for mask in range(1 << n):
        members = frozenset(A.elements[i] for i in range(n) if mask >> i & 1)
        S = SemiSubset(A, members)
        ok, _ = is_boolean_subobject(S)
        if ok:
            out.append(S)
    return out


def enumerate_semilattices(n: int) -> list[SemiCvx]:
    """All meet-semilattices on the n elements a, b, c, ...

    Enumerates partial orders by orienting each unordered pair three ways
    and filtering for transitivity, then keeps those where every pair has
    a greatest lower bound.
    """
    names = tuple(chr(ord("a") + i) for i in range(n))
    if n == 0:
        return []
    if n > 6:
        raise CapacityError("semilattice enumeration limited to 6 elements")
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for orient in itertools.product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]  # up[i] = {j : i <= j}
        for (i, j), o in zip(pairs, orient):
            if o == 1:
                up[i] |= 1 << j
            elif o == 2:
                up[j] |= 1 << i
        if not all(
            all(up[j] & ~up[i] == 0
                for j in range(n) if up[i] >> j & 1)
            for i in range(n)
        ):
            continue
        down = [0] * n
        for i in range(n):
            for j in range(n):
                if up[j] >> i & 1:
                    down[i] |= 1 << j
        table = []
        ok = True
        for i in range(n):
            row = []
            for j in range(n):
                lower = down[i] & down[j]
                meet = -1
                for k in range(n):
                    if lower >> k & 1 and lower & ~down[k] == 0:
                        meet = k
                        break
                if meet < 0:
                    ok = False
                    break
                row.append(meet)
            if not ok:
                break
            table.append(tuple(row))
        if ok:
            out.append(SemiCvx(names, tuple(table)))
    return out
