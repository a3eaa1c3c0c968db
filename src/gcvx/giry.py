"""Finitely-supported probability measures and the measure monad.

Measures live on the atoms of their sigma-algebra, not on points: on a
non-separated space distinct point weightings induce the same measure,
and atom masses make equality decidable and canonical.  On a finite space
the measures form a rational simplex, and a measure is a point of it held
exactly: one integer numerator per atom over one positive denominator,
reduced by their gcd, so equal measures have equal integers.  `mass` is
the same point as Fractions, for output and for the API.  A row is
checked where it enters: by `kernel.prob_row` in the public constructors,
and on the inputs of `DistOverDists.of`, `flatten_outer` and `map_mu`.
The measures the monad computes are valid by construction, so they are
only reduced (`kernel.reduce_row`).  The monad acts
linearly on these vectors, in integer arithmetic: pushforward adds each
domain atom's numerator into the codomain atom it lands in
(`MeasFn.atom_map`), and the multiplication is the weighted sum of the
support's vectors over the least common denominator.  Distributions over
distributions carry their finite support explicitly with a powerset
sigma-algebra, which is all the multiplication ever reads, and hold
their weights in the same integer form (`wnum` over `wden`, `weights`
the Fraction view); `flatten_oracle` alone reads the Fraction views, so
it stays an independent route to the multiplication.  A three-level
measure is a tuple of (outer weight, distribution over distributions)
pairs, and `flatten_outer` and `map_mu` take its weights as integer
numerators over a `den`, or as rationals with `den` left out.  A measure
caches its hash, as its space does, because supports, merges and
pushforward tables key on measures, and its `describe` text, because
reports describe the same support measures many times.

The monad-law report computes each instance-independent value once: the
flattening of each two-level measure serves the flatten oracle, the
inner multiplications of associativity and the right side of
multiplication naturality, and each support measure is pushed forward
once per naturality map.  The associativity sides get their outer
weights as integer numerators over one denominator, so the three-level
path makes no Fraction.  `mu` runs once per distinct side a law
constructs: a side is known by a packed integer key before it is built,
and the memos live for one space, shared by all of its naturality maps.
Every instance still gets its own verdict; this is sound only because
`mu` is pure, so a `mu` patched in by a self-check must be pure too.  A
pass with no detail is only counted: an instance is named, and its
witness built, only when its check fails or it carries a detail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter

from .convex import MIX_GRID, GeomCvx, SemiCvx, free_convex
from .kernel import (DomainError, ONE, ZERO, check_positions, int_row,
                     prob_row, rat, rat_str, reduce_row)
from .measurable import FinMeasSpace, MeasFn, mask_of
from .reports import LawReport

DEFAULT_GRID = (ZERO, *MIX_GRID, ONE)


@dataclass(frozen=True, init=False)
class FinDist:
    """A probability measure on the sigma-algebra atoms: numerator `num[k]`
    over the denominator `den` is the mass of atom k.  The numerators and
    the denominator share no factor, so equal measures have equal fields."""

    space: FinMeasSpace
    num: tuple[int, ...]
    den: int

    def __init__(self, space: FinMeasSpace, num, den: int | None = None):
        """`num` holds integer numerators over `den`; with `den` left out
        it holds the masses themselves as rationals."""
        num = tuple(num)
        if len(num) != len(space.atoms):
            raise DomainError("need exactly one mass per atom")
        num, den = prob_row(num, den, "masses")
        # frozen: the fields go into the instance dict in one step
        self.__dict__.update(space=space, num=num, den=den)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of (space, num, den), computed once."""
        return hash((self.space, self.num, self.den))

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        """The atom masses as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def measure(self, mask: int) -> Fraction:
        """The mass of a measurable set.  The atoms meeting the set cover
        exactly it when it is a union of atoms, and no other mask (one
        that splits an atom or has points off the carrier).  Read from
        the atoms alone, so it works where `sigma` is past capacity."""
        total = covered = 0
        for a, n in zip(self.space.atoms, self.num):
            if a & mask:
                total += n
                covered |= a
        if covered != mask:
            raise DomainError("set is not measurable")
        return Fraction(total, self.den)

    def describe(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        """The text of `describe`, built once: reports describe the same
        support measures many times."""
        parts = []
        for a, m in zip(self.space.atoms, self.mass):
            names = "|".join(self.space.subset_names(a))
            parts.append(f"{names}:{rat_str(m)}")
        return "{" + ", ".join(parts) + "}"


def _fin_dist(space: FinMeasSpace, num, den: int) -> FinDist:
    """The measure of a row valid by construction (nonnegative ints, one
    per atom, summing to the positive `den`), reduced and not checked."""
    P = object.__new__(FinDist)
    fields = P.__dict__
    fields["space"] = space
    fields["num"], fields["den"] = reduce_row(num, den)
    return P


def atom_dirac(X: FinMeasSpace, k: int) -> FinDist:
    """Unit mass on atom k; the dirac at point i is atom_dirac(X,
    X.point_atom[i])."""
    num = [0] * len(X.atoms)
    num[k] = 1
    return _fin_dist(X, num, 1)


def dirac(X: FinMeasSpace, x: str) -> FinDist:
    """Unit mass on the atom containing the point named x."""
    return atom_dirac(X, X.point_atom[mask_of(X.points, (x,)).bit_length() - 1])


def pushforward(f: MeasFn, P: FinDist) -> FinDist:
    """The image measure: (f_* P)(V) = P(f^-1(V))."""
    if P.space is not f.dom and P.space != f.dom:
        raise DomainError("measure does not live on the map's domain")
    num = [0] * len(f.cod.atoms)
    for k, n in zip(f.atom_map, P.num):
        num[k] += n
    return _fin_dist(f.cod, num, P.den)


# ---------------------------------------------------------------------------
# distributions over distributions


@dataclass(frozen=True, init=False)
class DistOverDists:
    """A finitely-supported distribution whose points are measures.

    The carrier is the support itself with the powerset sigma-algebra.
    Weight `wnum[i]` over `wden` belongs to `support[i]`, in the reduced
    integer form of `FinDist`, so equal distributions have equal fields.
    """

    base: FinMeasSpace
    support: tuple[FinDist, ...]
    wnum: tuple[int, ...]
    wden: int

    def __init__(self, base: FinMeasSpace, support, weights,
                 den: int | None = None):
        """`weights` holds integer numerators over `den`; with `den` left
        out it holds the weights themselves as rationals."""
        support, weights = tuple(support), tuple(weights)
        if len(support) != len(weights) or not support:
            raise DomainError("support and weights must align and be nonempty")
        if len(set(support)) != len(support):
            raise DomainError("support elements must be distinct")
        weights, den = prob_row(weights, den, "weights", positive=True)
        for q in support:
            # the support usually shares the base object itself, and the
            # identity test skips the field-by-field comparison
            if q.space is not base and q.space != base:
                raise DomainError("mixed base spaces in support")
        self.__dict__.update(base=base, support=support, wnum=weights,
                             wden=den)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """The weights as Fractions."""
        return tuple(Fraction(w, self.wden) for w in self.wnum)

    @classmethod
    def of(cls, base, pairs, den: int | None = None) -> "DistOverDists":
        """Build from (weight, measure) pairs, merging duplicate measures;
        with `den` the weights are integer numerators over it, a positive
        int they sum to.  A zero weight drops, and a negative one is
        rejected even where merging would cancel it."""
        if den is None:
            pairs = list(pairs)
            nums, den = int_row([rat(w) for w, _ in pairs])
            pairs = zip(nums, (q for _, q in pairs))
        acc: dict[FinDist, int] = {}
        for w, q in pairs:
            if _is_negative(w):
                raise DomainError("weights must be nonnegative")
            if w:
                acc[q] = acc.get(q, 0) + w
        _check_total(sum(acc.values()), den)
        for q in acc:
            if q.space is not base and q.space != base:
                raise DomainError("mixed base spaces in support")
        support = _by_mass(acc)
        return _dist_over_dists(base, support, [acc[q] for q in support], den)

    def describe(self) -> str:
        parts = [f"{rat_str(w)}@{q.describe()}"
                 for q, w in zip(self.support, self.weights)]
        return "[" + "; ".join(parts) + "]"


def _dist_over_dists(base: FinMeasSpace, support: tuple[FinDist, ...],
                     wnum, wden: int) -> DistOverDists:
    """Weight `wnum[i]` over `wden` on the measure `support[i]` on `base`:
    distinct measures, positive ints summing to `wden` > 0, reduced and
    not checked."""
    PP = object.__new__(DistOverDists)
    fields = PP.__dict__
    fields["base"], fields["support"] = base, support
    fields["wnum"], fields["wden"] = reduce_row(wnum, wden)
    return PP


def _is_negative(w) -> bool:
    """Whether the integer numerator w is negative; a weight that is not
    an int (a bool, a float, a Fraction, a string or None) is a
    `DomainError`."""
    if w.__class__ is not int:
        raise DomainError(f"cannot interpret {w!r} as an integer weight")
    return w < 0


def _check_total(total: int, den) -> None:
    """Weights summing to `total` must sum to `den`, a positive int."""
    if den.__class__ is not int or den <= 0:
        raise DomainError("the weights' denominator must be a positive int")
    if total != den:
        raise DomainError("weights must sum to exactly 1")


_num = attrgetter("num")


def _by_mass(measures) -> tuple[FinDist, ...]:
    """Measures in the order of their `mass` tuples.  Where they share
    one denominator the numerators compare as the Fractions do, so they
    are the key; otherwise the key is the numerators scaled to the lcm
    of the denominators."""
    if len(measures) == 1:
        return tuple(measures)
    dens = {q.den for q in measures}
    if len(dens) == 1:
        return tuple(sorted(measures, key=_num))
    den = lcm(*dens)
    return tuple(sorted(
        measures, key=lambda q: tuple([n * (den // q.den) for n in q.num])))


def mu(PP: DistOverDists) -> FinDist:
    """Monad multiplication: mu(PP)(U) integrates ev_U over the support,
    so each atom's mass is the weighted sum of the support's masses there.
    Over wden * D, with D the lcm of the support's denominators, support
    element i contributes wnum_i * D / d_i per unit of its numerators:
    one pass per support measure adds its row, so scaled, to the total."""
    D = lcm(*[q.den for q in PP.support])
    rows = zip(PP.wnum, PP.support)
    w, q = next(rows)
    scale = w * (D // q.den)
    num = [scale * n for n in q.num]
    for w, q in rows:
        scale = w * (D // q.den)
        num = [t + scale * n for t, n in zip(num, q.num)]
    return _fin_dist(PP.base, num, PP.wden * D)


def flatten_oracle(PP: DistOverDists) -> FinDist:
    """Independent route to the multiplication: scale and regroup the
    support's atom-mass lists as formal weighted terms."""
    terms: list[tuple[int, Fraction]] = []
    for q, w in zip(PP.support, PP.weights):
        for a, m in zip(q.space.atoms, q.mass):
            terms.append((a, w * m))
    acc: dict[int, Fraction] = {}
    for a, wm in terms:
        acc[a] = acc.get(a, ZERO) + wm
    return FinDist(PP.base, tuple(acc.get(a, ZERO) for a in PP.base.atoms))


def unit_outer(P: FinDist) -> DistOverDists:
    """The dirac at P, one level up."""
    return _dist_over_dists(P.space, (P,), (1,), 1)


def map_unit(P: FinDist) -> DistOverDists:
    """Push P forward along x -> dirac(x); constant on atoms, so the
    resulting support is one dirac per atom with positive mass."""
    acc = {atom_dirac(P.space, k): n for k, n in enumerate(P.num) if n}
    support = _by_mass(acc)
    return _dist_over_dists(P.space, support, [acc[q] for q in support], P.den)


def push_outer(f: MeasFn, PP: DistOverDists) -> DistOverDists:
    """Apply the monad's functor action to a distribution of measures."""
    return _push_outer(f.cod, lambda q: pushforward(f, q), PP)


def _push_outer(cod: FinMeasSpace, image, PP: DistOverDists) -> DistOverDists:
    """P(f)(PP), with `image(q)` the pushforward of the support measure q:
    each weight moves to its measure's image, and equal images merge."""
    return DistOverDists.of(
        cod, [(w, image(q)) for q, w in zip(PP.support, PP.wnum)], PP.wden)


# a three-level measure: (outer weight, middle level) pairs, the weights
# rationals or, where a `den` is given, integer numerators over it
ThreeLevel = tuple[tuple[Fraction | int, DistOverDists], ...]


def flatten_outer(PPP: ThreeLevel, den: int | None = None) -> DistOverDists:
    """Multiplication applied at the outer two levels of a three-level
    measure (the support stays at the middle level).  The outer weights
    are integer numerators over `den`, or rationals with `den` left out.
    With the outer weights as a_j over A and D the lcm of the middle
    denominators, the measure q gets a_j * v * D / wden_j from each
    middle weight v over wden_j, all over A * D, merged in one pass over
    the terms.  A term of outer weight zero drops and a negative outer
    weight is rejected as it is read, as in `DistOverDists.of` and so in
    `map_mu`; the base of each middle level of positive weight must be
    that of the first."""
    if not PPP:
        raise DomainError("a three-level measure needs a nonempty support")
    if den is None:
        outer, den = int_row([rat(w) for w, _ in PPP])
        PPP = [(a, PP) for a, (_, PP) in zip(outer, PPP)]
    base = PPP[0][1].base
    D = 1
    for _, PP in PPP:
        D = lcm(D, PP.wden)
    acc: dict[FinDist, int] = {}
    get = acc.get
    total = 0
    for a, PP in PPP:
        if _is_negative(a):
            raise DomainError("outer weights must be nonnegative")
        if a:
            if PP.base is not base and PP.base != base:
                raise DomainError("mixed base spaces in support")
            total += a
            scale = a * (D // PP.wden)
            for q, v in zip(PP.support, PP.wnum):
                acc[q] = get(q, 0) + scale * v
    _check_total(total, den)
    support = _by_mass(acc)
    return _dist_over_dists(base, support, [acc[q] for q in support], den * D)


def map_mu(PPP: ThreeLevel, mu_fn=mu,
           den: int | None = None) -> DistOverDists:
    """Push a three-level measure down along the multiplication; the
    weights, integer numerators over `den` or rationals with `den` left
    out, are checked and merged by `DistOverDists.of`."""
    if not PPP:
        raise DomainError("a three-level measure needs a nonempty support")
    return DistOverDists.of(PPP[0][1].base,
                            [(w, mu_fn(PP)) for w, PP in PPP], den)


# ---------------------------------------------------------------------------
# measures as a convex space


def P_as_convex(X: FinMeasSpace) -> GeomCvx:
    """The simplex of measures on X, one coordinate per atom."""
    return free_convex(len(X.atoms))


def mix_dists(P: FinDist, Q: FinDist, alpha) -> FinDist:
    """(1 - alpha) P + alpha Q for alpha in [0, 1], over alpha's
    denominator times the lcm of the two measures' denominators."""
    alpha = rat(alpha)
    if not ZERO <= alpha <= ONE:
        raise DomainError("the weight must lie in [0, 1]")
    if P.space is not Q.space and P.space != Q.space:
        raise DomainError("cannot mix measures on different spaces")
    a, b = alpha.numerator, alpha.denominator
    den = lcm(P.den, Q.den)
    sp, sq = (b - a) * (den // P.den), a * (den // Q.den)
    return _fin_dist(
        P.space, [sp * p + sq * q for p, q in zip(P.num, Q.num)], b * den)


# ---------------------------------------------------------------------------
# weakly averaging functionals


@dataclass(frozen=True)
class WAFunctional:
    """A convex combination of evaluation maps: weight `num[i]` over
    `den` on the point at position `points[i]`, in the reduced integer
    form of `FinDist`, every weight positive.

    Acting on a function m of positions gives sum_i num[i] m(points[i])
    over den; constants go to themselves because the weights sum to one.
    """

    points: tuple[int, ...]
    num: tuple[int, ...]
    den: int

    def __post_init__(self):
        if len(self.points) != len(self.num):
            raise DomainError("need exactly one weight per point")
        num, den = prob_row(self.num, self.den, "weights", positive=True)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def values(self, m) -> tuple[list[int], int]:
        """m at the points, as integer numerators over one denominator."""
        return int_row([rat(m(a)) for a in self.points])

    def apply(self, m) -> Fraction:
        vs, vden = self.values(m)
        return Fraction(sum(w * v for w, v in zip(self.num, vs)),
                        self.den * vden)


def wa_check(F: WAFunctional, endos, test_fns):
    """Verify that the constants 0, 1/2 and 1 map to themselves, and
    scaling equivariance.

    For each interval endomorphism <s,t> and test function m the identity
    F(s*m + t) = s*F(m) + t must hold exactly.  Returns (True, None) or
    (False, failures), one entry per failing identity in check order.
    """
    failures = []
    for c in (ZERO, Fraction(1, 2), ONE):
        got = F.apply(lambda _a, c=c: c)
        if got != c:
            failures.append({"law": "constant", "value": rat_str(c),
                             "passed": False, "got": rat_str(got)})
    ws, wden = F.num, F.den
    values = [F.values(m) for m in test_fns]
    # each average F(m) = sum_i w_i v_i once, over wden * vden
    averages = [sum([w * v for w, v in zip(ws, vs)]) for vs, _ in values]
    for e in endos:
        # s = p/q and t = r/u; with m = v/vden at the term points, both
        # sides are numerators over wden * q * u * vden
        p, q = e.s.numerator, e.s.denominator
        r, u = e.t.numerator, e.t.denominator
        pu, rq = p * u, r * q
        for i, ((vs, vden), avg) in enumerate(zip(values, averages)):
            shift = rq * vden
            # F(s*m + t): transform pointwise, then average
            lhs = sum([w * (pu * v + shift) for w, v in zip(ws, vs)])
            # s*F(m) + t: average, then transform
            rhs = pu * avg + shift * wden
            if lhs != rhs:
                failures.append({"law": "equivariance",
                                 "endo": (rat_str(e.s), rat_str(e.t)),
                                 "fn": i, "passed": False})
    return (False, failures) if failures else (True, None)


def measure_to_functional(P: FinDist, A: SemiCvx) -> WAFunctional:
    """phi: a measure on the generated space of A becomes the weakly
    averaging functional evaluating indicators at support points: the
    mass of each atom that carries some, at the lowest position of the
    atom."""
    if tuple(P.space.points) != tuple(A.elements):
        raise DomainError("measure does not live on the carrier of A")
    points, num = zip(*[((a & -a).bit_length() - 1, n)
                        for a, n in zip(P.space.atoms, P.num) if n])
    return WAFunctional(points, num, P.den)


def functional_to_measure(F: WAFunctional, space: FinMeasSpace) -> FinDist:
    """phi inverse: read the measure back off the evaluation points,
    which must be positions of `space`."""
    check_positions(F.points, len(space.points))
    atom = space.point_atom
    num = [0] * len(space.atoms)
    for a, w in zip(F.points, F.num):
        num[atom[a]] += w
    return _fin_dist(space, num, F.den)


# ---------------------------------------------------------------------------
# monad-law checking


def grid_dists(X: FinMeasSpace) -> list[FinDist]:
    """All measures on X whose atom masses come from DEFAULT_GRID."""
    nums, den = int_row(DEFAULT_GRID)
    return [_fin_dist(X, combo, den)
            for combo in itertools.product(nums, repeat=len(X.atoms))
            if sum(combo) == den]


def grid_weightings(n: int) -> list[tuple[Fraction, ...]]:
    """Strictly positive grid weight vectors of length n summing to one."""
    pos = [g for g in DEFAULT_GRID if g > 0]
    return [c for c in itertools.product(pos, repeat=n) if sum(c, ZERO) == ONE]


def two_level_dists(X: FinMeasSpace, max_support: int = 3) -> list[DistOverDists]:
    """All grid-weighted distributions over grid measures on X, with
    support size up to `max_support`."""
    inner = grid_dists(X)
    out = []
    for size in range(1, max_support + 1):
        weightings = [int_row(ws) for ws in grid_weightings(size)]
        for support in itertools.combinations(inner, size):
            for ws, den in weightings:
                out.append(_dist_over_dists(X, support, ws, den))
    return out


def monad_law_report(X: FinMeasSpace, max_support: int = 3,
                     naturality_maps=()) -> LawReport:
    """Check the monad laws with exact equality on grid-valued measures.

    Unit laws and the flatten oracle run over every two-level grid
    measure; associativity runs over three-level measures with outer
    support up to two drawn from the first 25 of the two-level family.
    `naturality_maps` is a list of MeasFn out of X checked for unit and
    multiplication naturality.  The unit-left and flatten-oracle
    instances carry their input as a detail and are recorded pass or
    fail; every other law counts its passes in one integer, handed to
    `LawReport.count` at the end, and names an instance and builds its
    witness thunk only when the check fails.

    Work that does not depend on the instance is done once.  Each
    two-level measure is flattened by `mu` once, and that flattening is
    the left side of the flatten oracle, the inner multiplication of
    `map_mu` in associativity and, pushed forward once per distinct
    flattening, the right side of multiplication naturality.  Each
    support measure is pushed forward once per naturality map, and P(f)
    is built from those images.  The diracs of X, and of each codomain,
    are built once for unit naturality.  The three-level measures of
    associativity carry their outer weights as integer numerators over
    one denominator G, the form `flatten_outer` and `map_mu` take with
    `den=G`.

    `mu` runs once per distinct side that a law constructs.  Equal sides
    are found by key, without building them; a key packs the side's
    weights, as numerators over one denominator, into one integer with
    one digit per place a weight can go: P(f)(PP) by the weight it moves
    to each distinct image of a support measure, numbered across every
    map of the space; `flatten_outer(PPP)` by the weight it puts on each
    support measure; `map_mu(PPP)` by the weight it moves to each
    distinct flattening.  A side is built, and `mu` applied to it, only
    the first time its key appears.  The memos live for one space and
    are shared by all of its maps, and every instance still gets its own
    verdict.  Sharing is sound only because `mu` is pure, so a
    `mu` patched in by a self-check must be pure too: equal inputs,
    equal results.  A `max_support` below 1 is a `DomainError`, as it
    would leave the flatten oracle and associativity with no instances.
    """
    if max_support < 1:
        raise DomainError("max_support must be at least 1; a bound below 1 "
                          "leaves laws with no instances")
    rep = LawReport("giry-monad")
    # passing instances with no detail, handed to the report at the end
    passes = 0
    dists = grid_dists(X)
    for i, P in enumerate(dists):
        got = mu(unit_outer(P))
        rep.record(got == P, "mu.unit-left", f"P{i}", witness=got.describe,
                   detail=P.describe())
        got = mu(map_unit(P))
        if got == P:
            passes += 1
        else:
            rep.record(False, "mu.unit-right", f"P{i}", witness=got.describe)
    two_level = two_level_dists(X, max_support)
    flat = [mu(PP) for PP in two_level]
    for i, (PP, lhs) in enumerate(zip(two_level, flat)):
        rhs = flatten_oracle(PP)
        rep.record(lhs == rhs, "mu.flatten-oracle", f"PP{i}",
                   witness=lambda: (lhs.describe(), rhs.describe()),
                   detail=PP.describe())
    supports = dict.fromkeys(q for PP in two_level for q in PP.support)
    support_pos = {q: k for k, q in enumerate(supports)}
    # each two-level measure as (support position, weight) pairs, the
    # weights as numerators over one denominator L for the whole space
    L = lcm(*(PP.wden for PP in two_level))
    terms = [[(support_pos[q], w * (L // PP.wden))
              for q, w in zip(PP.support, PP.wnum)] for PP in two_level]
    prefix = two_level[:25]
    flat_of = dict(zip(prefix, flat))
    # each two-level measure's flattening as a slot among the distinct ones
    flat_slots: dict[FinDist, int] = {}
    slot_of = [flat_slots.setdefault(P, len(flat_slots)) for P in flat]
    # an outer weight is a numerator a over G; with a_j on PP_j the support
    # measure at position p gets sum_j a_j * (its weight in PP_j over L)
    # over G * L in flatten_outer(PPP), and the flattening in slot s gets
    # the sum of the a_j whose PP_j flattens to it in map_mu(PPP).  These
    # sums are the digits of the two keys, base G * L + 1 and base G + 1:
    # the digits of a side sum to G * L or to G, so none carries, and equal
    # keys are exactly equal sides
    pair_weights = grid_weightings(2)
    G = lcm(*(w.denominator for ws in pair_weights for w in ws))
    pair_weights = [(int(wa * G), int(wb * G)) for wa, wb in pair_weights]
    outer_base = G * L + 1
    outer_digits = [sum(w * outer_base ** p for p, w in pairs)
                    for pairs in terms[:25]]
    inner_digits = [(G + 1) ** s for s in slot_of[:25]]
    # (numerator, prefix position) pairs, made one at a time: the
    # flattenings above stay alive to the end, and a list of all triples
    # would sit beside them
    triples = itertools.chain(
        (((G, a),) for a in range(len(prefix))),
        (((wa, a), (wb, b))
         for a, b in itertools.combinations(range(len(prefix)), 2)
         for wa, wb in pair_weights))
    outer_mu: dict[int, FinDist] = {}
    inner_mu: dict[int, FinDist] = {}
    for i, outer_terms in enumerate(triples):
        outer_key = inner_key = 0
        for w, a in outer_terms:
            outer_key += w * outer_digits[a]
            inner_key += w * inner_digits[a]
        lhs = outer_mu.get(outer_key)
        rhs = inner_mu.get(inner_key)
        if lhs is None or rhs is None:
            PPP = tuple((w, prefix[a]) for w, a in outer_terms)
            if lhs is None:
                lhs = outer_mu[outer_key] = mu(flatten_outer(PPP, den=G))
            if rhs is None:
                rhs = inner_mu[inner_key] = mu(
                    map_mu(PPP, mu_fn=flat_of.__getitem__, den=G))
        if lhs == rhs:
            passes += 1
        else:
            rep.record(False, "mu.associativity", f"PPP{i}",
                       witness=lambda: (lhs.describe(), rhs.describe()))
    # the k-th distinct image of a support measure, across every map, is
    # the digit (L + 1)^k, so that P(f)(PP) is the number whose digit for
    # each image is the weight it gets; the weights of a measure sum to L,
    # so no digit carries.  Images on different codomains are different
    # measures, so their P(f)(PP) never share a key
    image_slots: dict[FinDist, int] = {}
    lhs_of: dict[int, FinDist] = {}
    # the diracs of X, and of each codomain, built once
    diracs = [atom_dirac(X, k) for k in range(len(X.atoms))]
    cod_diracs: dict[FinMeasSpace, list[FinDist]] = {}
    for j, f in enumerate(naturality_maps):
        cod = cod_diracs.get(f.cod)
        if cod is None:
            cod = cod_diracs[f.cod] = [atom_dirac(f.cod, k)
                                       for k in range(len(f.cod.atoms))]
        for x, k, y in zip(X.points, X.point_atom, f.image):
            lhs = pushforward(f, diracs[k])
            rhs = cod[f.cod.point_atom[y]]
            if lhs == rhs:
                passes += 1
            else:
                rep.record(False, "eta.naturality", f"nat-eta-f{j}-{x}",
                           witness=lambda: (lhs.describe(), rhs.describe()))
        image = {q: pushforward(f, q) for q in supports}
        digit = [(L + 1) ** image_slots.setdefault(Q, len(image_slots))
                 for Q in image.values()]
        pushed = [pushforward(f, P) for P in flat_slots]
        for i, (PP, pairs, flat_slot) in enumerate(
                zip(two_level, terms, slot_of)):
            key = 0
            for p, w in pairs:
                key += w * digit[p]
            lhs = lhs_of.get(key)
            if lhs is None:
                lhs = lhs_of[key] = mu(_push_outer(f.cod, image.__getitem__,
                                                   PP))
            rhs = pushed[flat_slot]
            if lhs == rhs:
                passes += 1
            else:
                rep.record(False, "mu.naturality", f"nat-mu-f{j}-PP{i}",
                           witness=lambda: (lhs.describe(), rhs.describe()))
    rep.count(passes)
    return rep
