"""Finitely-supported probability measures and the measure monad.

Measures live on the atoms of their sigma-algebra, not on points: on a
non-separated space distinct point weightings induce the same measure,
and atom masses make equality decidable and canonical.  On a finite space
the measures form a rational simplex, and a measure is a point of it held
exactly: one integer numerator per atom over one positive denominator,
reduced by their gcd, so equal measures have equal integers.  `mass` is
the same point as Fractions, for output and for the API.  The monad acts
linearly on these vectors, in integer arithmetic: pushforward adds each
domain atom's numerator into the codomain atom it lands in
(`MeasFn.atom_map`), and the multiplication is the weighted sum of the
support's vectors over the least common denominator.  Distributions over
distributions carry their finite support explicitly with a powerset
sigma-algebra, which is all the multiplication ever reads, and hold
their weights in the same integer form (`wnum` over `wden`, `weights`
the Fraction view); `flatten_oracle` alone reads the Fraction views, so
it stays an independent route to the multiplication.  The monad-law
report builds a counterexample witness only when its check fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .convex import GeomCvx, SemiCvx, free_convex
from .kernel import DomainError, ONE, ZERO, int_row, rat, rat_str
from .measurable import FinMeasSpace, MeasFn
from .reports import LawReport

DEFAULT_GRID = (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)


class MeasurabilityError(DomainError):
    """An integrand is not constant on the atoms of its space."""


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
        if den is None:
            num, den = int_row([rat(m) for m in num])
        num = tuple(num)
        if len(num) != len(space.atoms):
            raise DomainError("need exactly one mass per atom")
        try:
            g = gcd(den, *num)
        except TypeError:
            raise DomainError("numerators and denominator must be "
                              "integers") from None
        if den <= 0:
            raise DomainError("the denominator must be positive")
        if sum(num) != den:
            raise DomainError("masses must sum to exactly 1")
        if min(num) < 0:
            raise DomainError("masses must be nonnegative")
        if g > 1:
            num = tuple(n // g for n in num)
            den //= g
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @cached_property
    def mass(self) -> tuple[Fraction, ...]:
        """The atom masses as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def measure(self, mask: int) -> Fraction:
        if mask not in self.space.sigma:
            raise DomainError("set is not measurable")
        return sum((m for a, m in zip(self.space.atoms, self.mass)
                    if a & ~mask == 0), ZERO)

    def describe(self) -> str:
        parts = []
        for a, m in zip(self.space.atoms, self.mass):
            names = "|".join(self.space.subset_names(a))
            parts.append(f"{names}:{rat_str(m)}")
        return "{" + ", ".join(parts) + "}"


def dirac(X: FinMeasSpace, x: str) -> FinDist:
    """Unit mass on the atom containing x."""
    k = X.atom_index.get(x)
    if k is None:
        raise DomainError(f"unknown point {x!r}")
    num = [0] * len(X.atoms)
    num[k] = 1
    return FinDist(X, num, 1)


def pushforward(f: MeasFn, P: FinDist) -> FinDist:
    """The image measure: (f_* P)(V) = P(f^-1(V))."""
    if P.space != f.dom:
        raise DomainError("measure does not live on the map's domain")
    num = [0] * len(f.cod.atoms)
    for k, n in zip(f.atom_map, P.num):
        num[k] += n
    return FinDist(f.cod, num, P.den)


def _atom_values(P: FinDist, f) -> list[Fraction]:
    """Resolve an integrand to one value per atom, checking measurability."""
    atoms = P.space.atoms
    if callable(f):
        f = {p: f(p) for p in P.space.points}
    if all(isinstance(k, int) for k in f):
        return [rat(f[a]) for a in atoms]
    vals = []
    for a in atoms:
        pts = P.space.subset_names(a)
        got = {rat(f[p]) for p in pts}
        if len(got) != 1:
            raise MeasurabilityError(
                f"integrand is not constant on the atom {pts}")
        vals.append(got.pop())
    return vals


def integrate(P: FinDist, f) -> Fraction:
    """Exact integral of an atom-constant function with values in [0,1].

    `f` may be keyed by atom mask or by point (checked for atom
    constancy), or be a callable on points.
    """
    vals = _atom_values(P, f)
    for v in vals:
        if not (ZERO <= v <= ONE):
            raise DomainError("integrand values must lie in [0, 1]")
    return sum((m * v for m, v in zip(P.mass, vals)), ZERO)


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
        if den is None:
            weights, den = int_row([rat(w) for w in weights])
        support, weights = tuple(support), tuple(weights)
        if len(support) != len(weights) or not support:
            raise DomainError("support and weights must align and be nonempty")
        if len(set(support)) != len(support):
            raise DomainError("support elements must be distinct")
        try:
            g = gcd(den, *weights)
        except TypeError:
            raise DomainError("weight numerators and denominator must be "
                              "integers") from None
        if den <= 0:
            raise DomainError("the weight denominator must be positive")
        if min(weights) <= 0:
            raise DomainError("weights must be positive")
        if sum(weights) != den:
            raise DomainError("weights must sum to 1")
        for q in support:
            if q.space != base:
                raise DomainError("mixed base spaces in support")
        if g > 1:
            weights = tuple(w // g for w in weights)
            den //= g
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "wnum", weights)
        object.__setattr__(self, "wden", den)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """The weights as Fractions."""
        return tuple(Fraction(w, self.wden) for w in self.wnum)

    @classmethod
    def of(cls, base, pairs, den: int | None = None) -> "DistOverDists":
        """Build from (weight, measure) pairs, merging duplicate measures;
        with `den` the weights are integer numerators over it."""
        if den is None:
            pairs = list(pairs)
            nums, den = int_row([rat(w) for w, _ in pairs])
            pairs = zip(nums, (q for _, q in pairs))
        acc: dict[FinDist, int] = {}
        for w, q in pairs:
            if w:
                acc[q] = acc[q] + w if q in acc else w
        support = _by_mass(acc)
        return cls(base, support, [acc[q] for q in support], den)

    def describe(self) -> str:
        parts = [f"{rat_str(w)}@{q.describe()}"
                 for q, w in zip(self.support, self.weights)]
        return "[" + "; ".join(parts) + "]"


def _by_mass(measures) -> tuple[FinDist, ...]:
    """Measures in the order of their `mass` tuples: numerators scaled to
    one common denominator compare exactly as the Fractions do."""
    den = lcm(*(q.den for q in measures))
    return tuple(sorted(measures,
                        key=lambda q: [n * (den // q.den) for n in q.num]))


def mu(PP: DistOverDists) -> FinDist:
    """Monad multiplication: mu(PP)(U) integrates ev_U over the support,
    so each atom's mass is the weighted sum of the support's masses there.
    Over wden * D, with D the lcm of the support's denominators, support
    element i contributes wnum_i * D / d_i per unit of its numerators."""
    D = lcm(*(q.den for q in PP.support))
    scales = [w * (D // q.den) for w, q in zip(PP.wnum, PP.support)]
    columns = zip(*(q.num for q in PP.support))
    return FinDist(PP.base,
                   [sum(s * n for s, n in zip(scales, col)) for col in columns],
                   PP.wden * D)


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
    return DistOverDists(P.space, (P,), (1,), 1)


def map_unit(P: FinDist) -> DistOverDists:
    """Push P forward along x -> dirac(x); constant on atoms, so the
    resulting support is one dirac per atom with positive mass."""
    pairs = []
    for a, n in zip(P.space.atoms, P.num):
        if n:
            rep = P.space.subset_names(a)[0]
            pairs.append((n, dirac(P.space, rep)))
    return DistOverDists.of(P.space, pairs, P.den)


def push_outer(f: MeasFn, PP: DistOverDists) -> DistOverDists:
    """Apply the monad's functor action to a distribution of measures."""
    return DistOverDists.of(
        f.cod, [(w, pushforward(f, q)) for q, w in zip(PP.support, PP.wnum)],
        PP.wden)


ThreeLevel = tuple[tuple[Fraction, DistOverDists], ...]


def flatten_outer(PPP: ThreeLevel) -> DistOverDists:
    """Multiplication applied at the outer two levels of a three-level
    measure (the support stays at the middle level).  With the outer
    weights as a_j over A and D the lcm of the middle denominators, the
    measure q gets a_j * v * D / wden_j from each middle weight v over
    wden_j, all over A * D."""
    base = PPP[0][1].base
    outer, A = int_row([rat(w) for w, _ in PPP])
    D = lcm(*(PP.wden for _, PP in PPP))
    acc: dict[FinDist, int] = {}
    for a, (_, PP) in zip(outer, PPP):
        scale = a * (D // PP.wden)
        for q, v in zip(PP.support, PP.wnum):
            acc[q] = acc.get(q, 0) + scale * v
    support = _by_mass(acc)
    return DistOverDists(base, support, [acc[q] for q in support], A * D)


def map_mu(PPP: ThreeLevel, mu_fn=mu) -> DistOverDists:
    """Push a three-level measure down along the multiplication."""
    base = PPP[0][1].base
    return DistOverDists.of(base, [(w, mu_fn(PP)) for w, PP in PPP])


# ---------------------------------------------------------------------------
# measures as a convex space


def P_as_convex(X: FinMeasSpace) -> GeomCvx:
    """The simplex of measures on X, one coordinate per atom."""
    return free_convex(len(X.atoms))


def mix_dists(P: FinDist, Q: FinDist, alpha) -> FinDist:
    """(1 - alpha) P + alpha Q, over alpha's denominator times the lcm of
    the two measures' denominators."""
    alpha = rat(alpha)
    if P.space != Q.space:
        raise DomainError("cannot mix measures on different spaces")
    a, b = alpha.numerator, alpha.denominator
    den = lcm(P.den, Q.den)
    sp, sq = (b - a) * (den // P.den), a * (den // Q.den)
    return FinDist(P.space, [sp * p + sq * q for p, q in zip(P.num, Q.num)],
                   b * den)


# ---------------------------------------------------------------------------
# weakly averaging functionals


@dataclass(frozen=True)
class WAFunctional:
    """A convex combination of evaluation maps over a convex space.

    Acting on a function m (anything with .apply or callable) gives
    sum_i w_i m(a_i); constants go to themselves because the weights sum
    to one.
    """

    base: object
    terms: tuple[tuple[Fraction, object], ...]

    def __post_init__(self):
        ws, den = self.weight_row
        if any(w <= 0 for w in ws):
            raise DomainError("weights must be positive")
        if sum(ws) != den:
            raise DomainError("weights must sum to exactly 1")

    @cached_property
    def weight_row(self) -> tuple[list[int], int]:
        """The weights as integer numerators over one denominator."""
        return int_row([rat(w) for w, _ in self.terms])

    def values(self, m) -> tuple[list[int], int]:
        """m at the term points, as integer numerators over one
        denominator."""
        call = m.apply if hasattr(m, "apply") else m
        return int_row([rat(call(a)) for _, a in self.terms])

    def apply(self, m) -> Fraction:
        ws, wden = self.weight_row
        vs, vden = self.values(m)
        return Fraction(sum(w * v for w, v in zip(ws, vs)), wden * vden)


def wa_check(F: WAFunctional, endos, test_fns) -> dict:
    """Verify that the constants 0, 1/2 and 1 map to themselves, and
    scaling equivariance.

    For each interval endomorphism <s,t> and test function m the identity
    F(s*m + t) = s*F(m) + t must hold exactly.
    """
    entries = []
    for c in (ZERO, Fraction(1, 2), ONE):
        got = F.apply(lambda _a, c=c: c)
        entries.append({"law": "constant", "value": rat_str(c),
                        "passed": got == c, "got": rat_str(got)})
    ws, wden = F.weight_row
    values = [F.values(m) for m in test_fns]
    for e in endos:
        # s = p/q and t = r/u; with m = v/vden at the term points, both
        # sides are numerators over wden * q * u * vden
        p, q = e.s.numerator, e.s.denominator
        r, u = e.t.numerator, e.t.denominator
        for i, (vs, vden) in enumerate(values):
            # F(s*m + t): transform pointwise, then average
            lhs = sum(w * (p * u * v + r * q * vden) for w, v in zip(ws, vs))
            # s*F(m) + t: average, then transform
            rhs = p * u * sum(w * v for w, v in zip(ws, vs)) + r * q * wden * vden
            entries.append({
                "law": "equivariance",
                "endo": (rat_str(e.s), rat_str(e.t)),
                "fn": i,
                "passed": lhs == rhs,
            })
    return {"passed": all(x["passed"] for x in entries), "entries": entries}


def measure_to_functional(P: FinDist, A: SemiCvx) -> WAFunctional:
    """phi: a measure on the generated space of A becomes the weakly
    averaging functional evaluating indicators at support points."""
    if tuple(P.space.points) != tuple(A.elements):
        raise DomainError("measure does not live on the carrier of A")
    terms = []
    for a, m in zip(P.space.atoms, P.mass):
        if m > 0:
            terms.append((m, P.space.subset_names(a)[0]))
    return WAFunctional(A, tuple(terms))


def functional_to_measure(F: WAFunctional, space: FinMeasSpace) -> FinDist:
    """phi inverse: read the measure back off the evaluation terms."""
    index = space.atom_index
    ws, den = F.weight_row
    num = [0] * len(space.atoms)
    for w, (_, a) in zip(ws, F.terms):
        num[index[a]] += w
    return FinDist(space, num, den)


# ---------------------------------------------------------------------------
# monad-law checking


def grid_dists(X: FinMeasSpace) -> list[FinDist]:
    """All measures on X whose atom masses come from DEFAULT_GRID."""
    nums, den = int_row(DEFAULT_GRID)
    return [FinDist(X, combo, den)
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
        for support in itertools.combinations(inner, size):
            for ws in grid_weightings(size):
                out.append(DistOverDists(X, support, ws))
    return out


def monad_law_report(X: FinMeasSpace, max_support: int = 3, mu_fn=mu,
                     naturality_maps=(), instance_prefix: str = "") -> LawReport:
    """Check the monad laws with exact equality on grid-valued measures.

    Unit laws and the flatten oracle run over every two-level grid
    measure; associativity runs over three-level measures with outer
    support up to two drawn from the first 25 of the two-level family.
    `naturality_maps` is a list of MeasFn out of X checked for unit and
    multiplication naturality.  `mu_fn` exists so harness self-tests can
    inject a corrupted multiplication.  Witnesses are thunks, formatted
    only for a failing instance.
    """
    rep = LawReport("giry-monad")
    pre = instance_prefix
    dists = grid_dists(X)
    for i, P in enumerate(dists):
        inst = f"{pre}P{i}"
        got = mu_fn(unit_outer(P))
        rep.record(got == P, "mu.unit-left", inst, witness=got.describe,
                   detail=P.describe())
        got = mu_fn(map_unit(P))
        rep.record(got == P, "mu.unit-right", inst, witness=got.describe)
    two_level = two_level_dists(X, max_support)
    for i, PP in enumerate(two_level):
        inst = f"{pre}PP{i}"
        lhs = mu_fn(PP)
        rhs = flatten_oracle(PP)
        rep.record(lhs == rhs, "mu.flatten-oracle", inst,
                   witness=lambda: (lhs.describe(), rhs.describe()),
                   detail=PP.describe())
    prefix = two_level[:25]
    triples = [((ONE, PP),) for PP in prefix]
    pair_weights = grid_weightings(2)
    for PPa, PPb in itertools.combinations(prefix, 2):
        for w in pair_weights:
            triples.append(((w[0], PPa), (w[1], PPb)))
    for i, PPP in enumerate(triples):
        inst = f"{pre}PPP{i}"
        lhs = mu_fn(flatten_outer(PPP))
        rhs = mu_fn(map_mu(PPP, mu_fn=mu_fn))
        rep.record(lhs == rhs, "mu.associativity", inst,
                   witness=lambda: (lhs.describe(), rhs.describe()))
    for j, f in enumerate(naturality_maps):
        for x in X.points:
            inst = f"{pre}nat-eta-f{j}-{x}"
            lhs = pushforward(f, dirac(X, x))
            rhs = dirac(f.cod, f(x))
            rep.record(lhs == rhs, "eta.naturality", inst,
                       witness=lambda: (lhs.describe(), rhs.describe()))
        for i, PP in enumerate(two_level):
            inst = f"{pre}nat-mu-f{j}-PP{i}"
            lhs = mu_fn(push_outer(f, PP))
            rhs = pushforward(f, mu_fn(PP))
            rep.record(lhs == rhs, "mu.naturality", inst,
                       witness=lambda: (lhs.describe(), rhs.describe()))
    return rep
