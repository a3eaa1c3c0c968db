"""Convex spaces in two executable families, with affine maps and
Boolean subobjects.

Geometric spaces are rational polytopes given by generator lists;
discrete spaces are finite meet-semilattices, where every interior
convex combination collapses to the meet.  The two-element semilattice
plays the role of the classifier for Boolean subobjects.  A subset of a
semilattice is an int mask over its elements, as in `gcvx.measurable`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import exactlp
from .kernel import (CapacityError, DomainError, ONE, ZERO, check_positions,
                     check_unit, int_row, int_rows, prob_row, rat, rat_str)
from .measurable import names_of

Point = tuple[Fraction, ...]

# the interior weights at which convex combinations are probed
MIX_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


# ---------------------------------------------------------------------------
# carriers


@dataclass(frozen=True)
class GeomCvx:
    """The convex hull of finitely many rational points in Q^dim.

    The generator list may be empty (the empty convex space); duplicates
    are removed by `of`, which also parses "p/q" strings.  Coordinates
    are ints or Fractions, cached as integer numerators over one common
    denominator: generator_rows[i] / generator_den is generator i.
    """

    dim: int
    generators: tuple[Point, ...]
    generator_rows: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)
    generator_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim.__class__ is not int or self.dim < 0:
            raise DomainError(f"dimension {self.dim!r} is not an int >= 0")
        for g in self.generators:
            if len(g) != self.dim:
                raise DomainError("generator dimension mismatch")
            _require_rationals(g, "coordinate")
        rows, den = int_rows(self.generators)
        object.__setattr__(self, "generator_rows", rows)
        object.__setattr__(self, "generator_den", den)

    @cached_property
    def spanning_family(self) -> tuple[GeomToI, ...]:
        """The two constants 0 and 1, then each coordinate that varies
        over the generators, rescaled so that its range is [0, 1]; built
        and validated once per polytope.

        Equality of two affine functionals on this family implies
        equality on the whole hull."""
        zero = (ZERO,) * self.dim
        fns = [GeomToI(self, zero, ZERO), GeomToI(self, zero, ONE)]
        D = self.generator_den
        for d, column in enumerate(zip(*self.generator_rows)):
            # x_d -> (x_d - lo / D) / ((hi - lo) / D) on integer numerators
            lo, hi = min(column), max(column)
            if lo == hi:
                continue
            c = zero[:d] + (Fraction(D, hi - lo),) + zero[d + 1:]
            fns.append(GeomToI(self, c, Fraction(-lo, hi - lo)))
        return tuple(fns)

    @classmethod
    def of(cls, dim, generators) -> "GeomCvx":
        # each point once, at its first place
        seen = dict.fromkeys(tuple(rat(x) for x in g) for g in generators)
        return cls(dim, tuple(seen))

    def require_member(self, p) -> Point:
        """p read by `_coords`, checked to lie in the hull and returned;
        a point outside is a `DomainError` naming a separating
        functional."""
        p = _coords(p, self.dim)
        if p in self.generators:
            return p  # a generator lies in its own hull
        ok, cert = hull_member(self, p)
        if not ok:
            c, t = cert
            raise DomainError(
                f"point {_vec_str(p)} is outside the hull; "
                f"separating functional c = {_vec_str(c)}, t = {rat_str(t)}")
        return p


def _coords(p, dim: int) -> Point:
    """A point of Q^dim, each coordinate read by `rat`; a point of
    another dimension is a `DomainError`."""
    p = tuple([rat(x) for x in p])
    if len(p) != dim:
        raise DomainError("point dimension mismatch")
    return p


def _vec_str(v) -> str:
    return "(" + ", ".join(rat_str(x) for x in v) + ")"


def _require_rationals(values, name: str) -> None:
    """Each value must be an int that is not a bool, or a Fraction."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise DomainError(f"{name} {x!r} is not an int or a Fraction")


def _sparse_row(c, t) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The affine form (c, t) as integer numerators over one denominator:
    the (index, numerator) of each nonzero entry of c, the numerator of t,
    and the denominator."""
    _require_rationals((*c, t), "coefficient")
    nums, den = int_row((*c, t))
    return tuple((i, n) for i, n in enumerate(nums[:-1]) if n), nums[-1], den


def _form_num(row, P, Q: int) -> int:
    """A `_sparse_row` form at the point P / Q times its denominator and Q,
    for integer numerators P over a positive Q: values over one Q compare
    as integers."""
    terms, t_num, _ = row
    return sum(n * P[i] for i, n in terms) + t_num * Q


@dataclass(frozen=True)
class SemiCvx:
    """A finite meet-semilattice viewed as a convex space.

    An element is a position into `meet_table`; `elements` holds their
    labels, read only for output.  a +_alpha b is a at alpha = 0, b at
    alpha = 1, and meet(a, b) for any interior alpha.
    """

    elements: tuple[str, ...]
    meet_table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.elements)
        t = self.meet_table
        if len(t) != n or any(len(row) != n for row in t):
            raise DomainError("meet table shape mismatch")
        check_positions((v for row in t for v in row), n)
        for i in range(n):
            if t[i][i] != i:
                raise DomainError("meet must be idempotent")
            for j in range(n):
                if t[i][j] != t[j][i]:
                    raise DomainError("meet must be commutative")
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise DomainError("meet must be associative")

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def meet_all(self, items) -> int:
        """The meet of a nonempty family of positions; an empty family,
        or an item that is not a position of the carrier, is a
        `DomainError`."""
        items = tuple(items)
        if not items:
            raise DomainError("meet of an empty family")
        check_positions(items, len(self.elements))
        table = self.meet_table
        acc = items[0]
        for x in items:
            acc = table[acc][x]
        return acc

    def leq(self, a: int, b: int) -> bool:
        return self.meet_table[a][b] == a


def two_space() -> SemiCvx:
    """The two-element classifier: interior mixes of 0 and 1 give 0."""
    return SemiCvx(("0", "1"), ((0, 0), (0, 1)))


def free_convex(n: int) -> GeomCvx:
    """Free convex space on n generators: the standard simplex in Q^n."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    return GeomCvx.of(n, [tuple(ONE if j == i else ZERO for j in range(n))
                          for i in range(n)])


def unit_interval() -> GeomCvx:
    """The unit interval, presented in one dimension."""
    return GeomCvx.of(1, ((ZERO,), (ONE,)))


# ---------------------------------------------------------------------------
# hull membership and combinations


def hull_member(A: GeomCvx, p):
    """Exact hull membership.

    Returns (True, weights) with barycentric weights over A.generators, or
    (False, (c, t)) with c.g <= t < c.p for every generator g.

    The LP asks for weights x >= 0 with sum x_i g_i = p and sum x_i = 1,
    on integer rows built from A.generator_rows over D = A.generator_den
    and the numerators P of p over Q: with L = lcm(D, Q), coordinate row
    d is column d of generator_rows times L // D with right-hand side
    P[d] * (L // Q), and the last row is all L.  Every row is the
    Fraction row times the same L, so `exactlp.solve_int_rows` returns
    what `exactlp.solve_eq_nonneg` does on the Fraction rows.
    """
    p = _coords(p, A.dim)
    n = len(A.generators)
    P, Q = int_row(p)
    L = lcm(A.generator_den, Q)
    k, s = L // A.generator_den, L // Q
    columns = zip(*A.generator_rows) if n else [()] * A.dim
    rows = [[v * k for v in col] + [x * s] for col, x in zip(columns, P)]
    rows.append([L] * (n + 1))
    res = exactlp.solve_int_rows(rows, n)
    if res["status"] == exactlp.FEASIBLE:
        return True, tuple(res["x"])
    y = res["farkas"]  # y.cols <= 0, y.rhs > 0
    return False, (tuple(y[:A.dim]), -y[A.dim])


def _mix(x: Point, y: Point, alpha: Fraction) -> Point:
    """(1 - alpha) x + alpha y, coordinate by coordinate."""
    return tuple((ONE - alpha) * u + alpha * v for u, v in zip(x, y))


def convex_combine(A, a, b, alpha):
    """The binary operation a +_alpha b = (1-alpha) a + alpha b."""
    alpha = check_unit(rat(alpha), "weight")
    if isinstance(A, GeomCvx):
        return _mix(A.require_member(a), A.require_member(b), alpha)
    if isinstance(A, SemiCvx):
        check_positions((a, b), len(A.elements))
        if alpha == ZERO:
            return a
        if alpha == ONE:
            return b
        return A.meet(a, b)
    raise DomainError(f"unknown convex space {A!r}")


def combine_many(A, weights, points):
    """Evaluate a finite convex sum with weights summing to one, one
    weight per point; the points of zero weight are not read."""
    weights, W = prob_row(weights, None, "weights")
    points = tuple(points)
    if len(points) != len(weights):
        raise DomainError(f"{len(weights)} weights for {len(points)} points")
    support = [(w, p) for w, p in zip(weights, points) if w]
    if isinstance(A, GeomCvx):
        # sum_i (w_i / W) (P_i / Q) over integer numerators w_i and P_i
        wnum = [w for w, _ in support]
        rows, Q = int_rows([A.require_member(p) for _, p in support])
        return tuple(Fraction(sum(w * x for w, x in zip(wnum, column)), W * Q)
                     for column in zip(*rows))
    if isinstance(A, SemiCvx):
        return A.meet_all(p for _, p in support)
    raise DomainError(f"unknown convex space {A!r}")


# ---------------------------------------------------------------------------
# Boolean subobjects


@dataclass(frozen=True)
class HalfspaceSplit:
    """A closed/open halfspace pair on a geometric carrier.

    The subset is the closed side {x : normal.x >= threshold}, and its
    complement the open side {x : normal.x < threshold}.  Both sides are
    convex by construction.
    """

    space: GeomCvx
    normal: tuple[Fraction, ...]
    threshold: Fraction
    row: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.normal) != self.space.dim:
            raise DomainError("normal dimension mismatch")
        # the form normal.x - threshold, whose sign is the side
        terms, t_num, den = _sparse_row(self.normal, self.threshold)
        object.__setattr__(self, "row", (terms, -t_num, den))

    def contains(self, p) -> bool:
        P, Q = int_row(_coords(p, self.space.dim))
        return _form_num(self.row, P, Q) >= 0


@dataclass(frozen=True)
class SemiSubset:
    """A candidate Boolean subobject: a mask over `space.elements`, checked
    as a position among the 2^n subsets of the n-point carrier."""

    space: SemiCvx
    mask: int

    def __post_init__(self):
        check_positions((self.mask,), 1 << len(self.space.elements))

    def contains(self, a) -> bool:
        return self.mask >> a & 1 == 1


def is_boolean_subobject(S):
    """Check that S and its complement are closed under convex combination.

    Returns (True, None) or (False, (x, y, alpha)) with a violating triple,
    x and y as labels on a semilattice and points on a polytope.  A
    halfspace split is probed as `boolean_intersection_check` probes an
    intersection.
    """
    if isinstance(S, HalfspaceSplit):
        return _probe_both_sides(S.space, S.contains)
    A, mask = S.space, S.mask
    for bit in (1, 0):
        side = [e for e in range(len(A.elements)) if mask >> e & 1 == bit]
        for x, y in itertools.combinations_with_replacement(side, 2):
            if mask >> A.meet(x, y) & 1 != bit:
                return False, (A.elements[x], A.elements[y], Fraction(1, 2))
    return True, None


def chi_is_affine(S: SemiSubset):
    """Whether the indicator of S is affine into the two-element classifier.

    Affinity demands chi(x meet y) = chi(x) meet chi(y), i.e. S must be a
    filter (meet-closed and up-closed); this is strictly stronger than the
    complementary-pair condition and is reported, never assumed.
    """
    A, mask = S.space, S.mask
    for x, y in itertools.combinations_with_replacement(range(len(A.elements)), 2):
        if mask >> A.meet(x, y) & 1 != mask >> x & mask >> y & 1:
            return False, (A.elements[x], A.elements[y], Fraction(1, 2))
    return True, None


def generated_subobject(A: SemiCvx, a: int) -> int:
    """The mask of all b that can carry positive weight in a decomposition
    of a: b with meet(b, c) = a for some c, whose meet-table row holds a.

    On a semilattice this is the principal up-set of a.
    """
    return sum(1 << b for b, row in enumerate(A.meet_table) if a in row)


def _probe_both_sides(A: GeomCvx, member):
    """Whether `member` and its complement are closed under combination,
    probed on A's generators and their mixtures: (True, None) or (False,
    (x, y, alpha)) with x, y on one side and their mixture on the other."""
    probes = list(A.generators)
    for g, h in itertools.combinations(A.generators, 2):
        for alpha in MIX_GRID:
            probes.append(_mix(g, h, alpha))
    for x, y in itertools.combinations(probes, 2):
        side = member(x)
        if member(y) != side:
            continue
        for alpha in MIX_GRID:
            if member(_mix(x, y, alpha)) != side:
                return False, (x, y, alpha)
    return True, None


def boolean_intersection_check(A, S1, S2):
    """Whether the intersection of two Boolean subobjects is Boolean:
    (True, None) or (False, (x, y, alpha)) with a violating triple.

    This is a report, not an assertion: complement convexity of the
    intersection can genuinely fail (see the two-dimensional L-shape).
    """
    if isinstance(A, SemiCvx):
        return is_boolean_subobject(SemiSubset(A, S1.mask & S2.mask))
    return _probe_both_sides(A, lambda p: S1.contains(p) and S2.contains(p))


def boolean_union_identity(A: SemiCvx, S: SemiSubset):
    """Whether the union of generated subobjects over S returns S:
    (True, None) or (False, the union as labels).

    The identity is a theorem for subobjects whose indicator is affine
    (filters); for merely complementary pairs it can fail.
    """
    union = 0
    for a in range(len(A.elements)):
        if S.mask >> a & 1:
            union |= generated_subobject(A, a)
    return (True, None) if union == S.mask else (False, names_of(A.elements, union))


# ---------------------------------------------------------------------------
# affine maps


@dataclass(frozen=True)
class GeomToI:
    """The affine functional p -> c.p + t into the unit interval.

    (c, t) is cached as one integer row (see _sparse_row), so validation
    and evaluation multiply integers: apply builds one Fraction at the
    end, and apply_num none."""

    dom: GeomCvx
    c: tuple[Fraction, ...]
    t: Fraction
    row: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.c) != self.dom.dim:
            raise DomainError("functional dimension mismatch")
        terms, t_num, den = row = _sparse_row(self.c, self.t)
        object.__setattr__(self, "row", row)
        # for g = G / D: c.g + t = (C.G + t_num D) / (den D) lies in [0, 1];
        # C.G is summed one column of generator_rows at a time
        D = self.dom.generator_den
        lo, hi = -t_num * D, (den - t_num) * D
        rows = self.dom.generator_rows
        values = [0] * len(rows)
        for i, n in terms:
            values = [v + n * G[i] for v, G in zip(values, rows)]
        for g, v in zip(self.dom.generators, values):
            if not lo <= v <= hi:
                raise DomainError("functional leaves [0,1] on generator "
                                  f"{_vec_str(g)}")

    def apply(self, p) -> Fraction:
        P, Q = int_row(_coords(p, self.dom.dim))
        return Fraction(_form_num(self.row, P, Q), self.row[2] * Q)

    def apply_num(self, P, Q: int) -> int:
        """apply(P / Q) times den * Q, for integer numerators P over a
        positive Q and den the denominator of row (see `_form_num`)."""
        if len(P) != self.dom.dim:
            raise DomainError("point dimension mismatch")
        return _form_num(self.row, P, Q)


def compose(e: GeomToI, m: GeomToI) -> GeomToI:
    """e after m, the action of End(I) on the maps m: A -> I, built and
    checked as a `GeomToI` on A: e(x) = s x + t gives (s c).p + s t_m + t.
    An e whose domain is not `unit_interval()` is a `DomainError`."""
    if e.dom != unit_interval():
        raise DomainError("e is not an endomorphism of the unit interval")
    (s,), t = e.c, e.t
    return GeomToI(m.dom, tuple(s * x for x in m.c), s * m.t + t)


@dataclass(frozen=True)
class SemiToI:
    """An affine map from a semilattice into the interval.

    Interior combinations in the domain are weight-independent while they
    are weighted in the interval, which forces every such map to be
    constant; the constructor enforces exactly the affinity equations.
    """

    dom: SemiCvx
    table: tuple[Fraction, ...]  # value at each dom position

    def __post_init__(self):
        for x, y in itertools.combinations(range(len(self.dom.elements)), 2):
            vx, vy = self.table[x], self.table[y]
            vm = self.table[self.dom.meet(x, y)]
            for alpha in MIX_GRID:
                if vm != (ONE - alpha) * vx + alpha * vy:
                    raise DomainError(f"not affine at ({self.dom.elements[x]}, "
                                      f"{self.dom.elements[y]}, {alpha})")

    def apply(self, a: int) -> Fraction:
        return self.table[a]


def affine_semi_to_interval_maps(A: SemiCvx, values) -> list[SemiToI]:
    """All affine maps from A into the interval taking values in `values`:
    every table over `values` that `SemiToI` accepts, in lexicographic
    order.  On a semilattice these are exactly the constant maps."""
    values = [rat(v) for v in values]
    maps = []
    for table in itertools.product(values, repeat=len(A.elements)):
        try:
            maps.append(SemiToI(A, table))
        except DomainError:
            pass
    return maps


# ---------------------------------------------------------------------------
# separation and double dualization


def separate_points(A: GeomCvx, a, b) -> HalfspaceSplit:
    """A halfspace split containing b on its closed side but not a."""
    a, b = A.require_member(a), A.require_member(b)
    if a == b:
        raise DomainError("cannot separate a point from itself")
    c = tuple(y - x for x, y in zip(a, b))
    t = sum(ci * y for ci, y in zip(c, b))
    return HalfspaceSplit(A, c, t)


def geom_spanning_functionals(A: GeomCvx) -> list[GeomToI]:
    """A.spanning_family as a new list on every call."""
    return list(A.spanning_family)


def injectivity_check(A):
    """Search for distinct points with equal evaluation functionals:
    (True, None) when evaluation is injective, else (False, the pair).

    Geometric carriers are separated by rescaled coordinate functionals;
    on semilattices every affine map into the interval is constant, so
    evaluations collapse and the check reports the witnessing pair.  The
    semilattice maps are the affine maps with values 0, 1/2 and 1.
    """
    if isinstance(A, GeomCvx):
        points = labels = A.generators
        fns = geom_spanning_functionals(A)
    else:
        points, labels = range(len(A.elements)), A.elements
        fns = affine_semi_to_interval_maps(A, (ZERO, Fraction(1, 2), ONE))
    for i, j in itertools.combinations(range(len(points)), 2):
        if all(m.apply(points[i]) == m.apply(points[j]) for m in fns):
            return False, (labels[i], labels[j])
    return True, None


# ---------------------------------------------------------------------------
# semilattice enumeration


def all_boolean_subobjects(A: SemiCvx) -> list[SemiSubset]:
    n = len(A.elements)
    if n > 16:
        raise CapacityError("too many subsets to scan")
    out = []
    for mask in range(1 << n):
        S = SemiSubset(A, mask)
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
