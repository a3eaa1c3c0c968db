"""Named law suites with deterministic, order-normalized reports.

Every suite is exhaustive over a size-bounded family of instances
(controlled through the config dict) except where a sample count and
seed are part of the config; reports therefore reproduce byte-for-byte.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import adjunction as adj
from . import convex as cvx
from . import giry, smcc
from .convex import MIX_GRID
from .jsonio import witness_text
from .kernel import DomainError, ONE, ZERO, rat_str, step_integrate
from .measurable import (FinMeasSpace, enumerate_meas_fns, is_separated,
                         measurable_maps, names_of)
from .reports import LawReport

def _partitions(n: int):
    """All set partitions of the positions range(n), each a list of block
    masks, in a deterministic order."""
    if not n:
        yield []
        return
    bit = 1 << (n - 1)
    for part in _partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] | bit] + part[i + 1:]
        yield [bit] + part


def all_sigma_spaces(points) -> list[FinMeasSpace]:
    """Every sigma-algebra on the carrier, one per set partition of its
    positions."""
    points = tuple(points)
    spaces = [FinMeasSpace(points, part)
              for part in _partitions(len(points))]
    return sorted(spaces, key=lambda s: s.members)


def _point_names(n: int) -> tuple[str, ...]:
    return tuple(chr(ord("a") + i) for i in range(n))


def _suite_spaces(max_points: int) -> list[tuple[str, FinMeasSpace]]:
    out = []
    for n in range(1, max_points + 1):
        for k, X in enumerate(all_sigma_spaces(_point_names(n))):
            out.append((f"n{n}s{k}", X))
    return out


def _semilattices(max_size: int) -> list[cvx.SemiCvx]:
    """Every semilattice on 1 to max_size elements, smallest first."""
    return [A for n in range(1, max_size + 1)
            for A in cvx.enumerate_semilattices(n)]


# ---------------------------------------------------------------------------
# individual suites


def _suite_giry(config) -> LawReport:
    rep = LawReport("giry-monad")
    for tag, X in _suite_spaces(config["maxPoints"]):
        nats = list(enumerate_meas_fns(X, X))
        rep.merge(giry.monad_law_report(X, config["maxSupport"],
                                        naturality_maps=nats),
                  prefix=f"{tag}-")
    return rep


def _suite_adjunction(config) -> LawReport:
    rep = LawReport("adjunction")
    # passing instances, none with a detail, handed to the report at the end
    passes = 0
    lattices = _semilattices(config["maxSize"])
    # sigma(A) once per semilattice, for every n and the phi round trip
    sigmas = [adj.sigma_functor(A) for A in lattices]
    endos = [cvx.GeomToI(cvx.unit_interval(), (s,), t)
             for s, t in ((1, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 4)),
                          (-Fraction(1, 2), Fraction(3, 4)), (0, Fraction(1, 2)))]
    for n in range(1, config["maxPoints"] + 1):
        X = FinMeasSpace.discrete(_point_names(n))
        rep.merge(adj.triangle_check(X))
        dists = giry.grid_dists(X)
        supports = [[x for x, k in enumerate(X.point_atom) if P.num[k]]
                    for P in dists]
        for j, (A, sa) in enumerate(zip(lattices, sigmas)):
            homs = enumerate_meas_fns(X, sa)
            seen_diracs = set()
            for k, f in enumerate(homs):
                g = adj.adjunct(f, A)
                back = adj.adjunct_inverse(g, X, sa)
                if back.image == f.image:
                    passes += 1
                else:
                    rep.record(False, "adjunct.roundtrip", f"X{n}-A{j}-f{k}",
                               witness=(f.mapping, back.mapping))
                seen_diracs.add(back.image)  # g at every dirac
                for i, (P, support) in enumerate(zip(dists, supports)):
                    expect = A.meet_all(f.image[x] for x in support)
                    got = g(P)
                    if got == expect:
                        passes += 1
                    else:
                        rep.record(False, "adjunct.meet-of-support",
                                   f"X{n}-A{j}-f{k}-P{i}",
                                   witness=(A.elements[got], A.elements[expect]))
            if len(seen_diracs) == len(homs):
                passes += 1
            else:
                rep.record(False, "adjunct.injective", f"X{n}-A{j}",
                           witness=len(seen_diracs))
    for j, (A, sa) in enumerate(zip(lattices, sigmas)):
        sub = adj.triangle_check(FinMeasSpace.discrete(("a",)),
                                 semilattices=[A])
        rep.merge(sub)
        # phi round trip: measures <-> weakly averaging functionals
        masks = [S.mask for S in cvx.all_boolean_subobjects(A)]
        for i, P in enumerate(giry.grid_dists(sa)):
            F = giry.measure_to_functional(P, A)
            back = giry.functional_to_measure(F, sa)
            if back == P:
                passes += 1
            else:
                rep.record(False, "phi.roundtrip", f"A{j}-P{i}",
                           witness=(back.describe(), P.describe()))
            ok, failures = giry.wa_check(F, endos, masks)
            if ok:
                passes += 1
            else:
                rep.record(False, "phi.weakly-averaging", f"A{j}-P{i}",
                           witness=failures)
    rep.count(passes)
    return rep


def _suite_algebra(config) -> LawReport:
    rep = LawReport("algebra-roundtrip")
    for n in range(1, config["maxSize"] + 1):
        for j, A in enumerate(cvx.enumerate_semilattices(n)):
            rep.merge(adj.algebra_law_report(adj.convex_to_algebra(A)),
                      prefix=f"n{n}L{j}-")
            try:
                ok, theta = adj.roundtrip_check(A)
                rep.record(ok, "roundtrip.isomorphism", f"n{n}L{j}",
                           witness=theta)
            except DomainError as exc:
                rep.record(False, "roundtrip.isomorphism", f"n{n}L{j}",
                           witness=str(exc))
    X = FinMeasSpace.discrete(("a", "b"))
    for i, PP in enumerate(giry.two_level_dists(X)[:40]):
        rep.record(adj.mu_matches_counit(X, PP), "roundtrip.free-barycenter",
                   f"free-PP{i}", witness=PP.describe)
    return rep


def _suite_convex(config) -> LawReport:
    rep = LawReport("convex-axioms")
    lattices = _semilattices(config["maxSize"])
    geoms = [cvx.unit_interval(), cvx.free_convex(2),
             cvx.GeomCvx.of(2, (("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")))]
    for j, A in enumerate(lattices):
        names = A.elements
        points = range(len(names))
        for a, b in itertools.product(points, repeat=2):
            inst = f"L{j}-{names[a]}{names[b]}"
            rep.record(cvx.convex_combine(A, a, b, ZERO) == a,
                       "axiom.left-unit", inst)
            rep.record(cvx.convex_combine(A, a, b, ONE) == b,
                       "axiom.right-unit", inst)
            for al in MIX_GRID:
                lhs = cvx.convex_combine(A, a, b, al)
                rhs = cvx.convex_combine(A, b, a, ONE - al)
                rep.record(lhs == rhs, "axiom.commutation", inst,
                           witness=lambda: (names[lhs], names[rhs]))
                rep.record(cvx.convex_combine(A, a, a, al) == a,
                           "axiom.idempotence", inst)
            for c in points:
                for al, be in itertools.product(MIX_GRID, repeat=2):
                    lhs = cvx.convex_combine(
                        A, cvx.convex_combine(A, a, b, al), c, be)
                    w_a = (ONE - al) * (ONE - be)
                    w_b = al * (ONE - be)
                    rhs = cvx.combine_many(A, (w_a, w_b, be), (a, b, c))
                    rep.record(lhs == rhs, "axiom.barycentric", f"{inst}{names[c]}",
                               witness=lambda: (names[lhs], names[rhs]))
        sep, pair = is_separated(adj.sigma_functor(A))
        rep.record(sep, "separation.sigma-of-A", f"L{j}", witness=pair)
    for j, G in enumerate(geoms):
        gens = G.generators
        for a, b in itertools.combinations(gens, 2):
            inst = f"G{j}-{gens.index(a)}{gens.index(b)}"
            for al in MIX_GRID:
                m = cvx.convex_combine(G, a, b, al)
                ok, _cert = cvx.hull_member(G, m)
                rep.record(ok, "axiom.closure", inst, witness=m)
            half = cvx.separate_points(G, a, b)
            rep.record(half.contains(b) and not half.contains(a),
                       "separation.witness", inst,
                       witness=(half.normal, half.threshold))
    interval = cvx.unit_interval()
    for s1, t1 in ((1, 0), (-Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))):
        for s2, t2 in ((0, 1), (Fraction(1, 2), 0), (-Fraction(1, 4), Fraction(3, 4))):
            e1 = cvx.GeomToI(interval, (s1,), t1)
            e2 = cvx.GeomToI(interval, (s2,), t2)
            comp = cvx.compose(e1, e2)
            inst = f"endo-{rat_str(s1)},{rat_str(t1)}-{rat_str(s2)},{rat_str(t2)}"
            ok = all(comp.apply((al,)) == e1.apply((e2.apply((al,)),))
                     for al in giry.DEFAULT_GRID)
            rep.record(ok, "endo.composition", inst)
    return rep


def _suite_boolean(config) -> LawReport:
    rep = LawReport("boolean-subobjects")
    for j, A in enumerate(_semilattices(config["maxSize"])):
        subs = cvx.all_boolean_subobjects(A)
        is_filter = [cvx.chi_is_affine(S)[0] for S in subs]
        for k, S in enumerate(subs):
            ok, wit = cvx.is_boolean_subobject(S)
            rep.record(ok, "boolean.verified", f"L{j}-S{k}", witness=wit,
                       detail=names_of(A.elements, S.mask))
            if is_filter[k]:
                ok, union = cvx.boolean_union_identity(A, S)
                rep.record(ok, "boolean.union-of-generated",
                           f"L{j}-S{k}", witness=union)
        filters = [S for S, f in zip(subs, is_filter) if f]
        for k1, k2 in itertools.combinations(range(len(filters)), 2):
            ok, wit = cvx.boolean_intersection_check(A, filters[k1], filters[k2])
            rep.record(ok, "boolean.filter-intersection",
                       f"L{j}-F{k1}F{k2}", witness=wit)
        for a, name in enumerate(A.elements):
            gen = cvx.generated_subobject(A, a)
            up = sum(1 << b for b in range(len(A.elements)) if A.leq(a, b))
            rep.record(gen == up, "boolean.generated-is-upset", f"L{j}-{name}",
                       witness=lambda: (names_of(A.elements, gen),
                                        names_of(A.elements, up)))
    return rep


def _curry_uncurry_failure(outer, inner, F, nz):
    """The first map on which curry and uncurry fail to be inverse
    bijections between the hom-sets, with the check it fails, or None.

    Only `outer` is walked: if the hom-sets have one size, and on every f
    in `outer` curry lands in `inner` and uncurry undoes it, then curry is
    an injection between finite sets of one size, so a bijection, and
    uncurry is its inverse."""
    if len(outer) != len(inner):
        return {"check": "the hom-sets have one size",
                "sizes": (len(outer), len(inner))}
    inner_set = set(inner)
    for f in outer:
        g = smcc.curry_positions(f, F, nz)
        if g not in inner_set:
            return {"check": "curry lands in the hom-set", "map": f}
        if smcc.uncurry_positions(g, F) != f:
            return {"check": "uncurry after curry is the identity", "map": f}
    return None


def _suite_smcc(config) -> LawReport:
    rep = LawReport("smcc")
    spaces = _suite_spaces(config["maxPoints"])
    # one product per pair of spaces, for the tensor check of (X, Y) and
    # the outer hom-sets of every (X, Z)
    products = {(ta, tb): smcc.product_space(X, Y)
                for (ta, X), (tb, Y) in itertools.product(spaces, spaces)}
    for (ta, X), (tb, Y) in itertools.product(spaces, spaces):
        inst = f"{ta}x{tb}"
        T, Pr = smcc.tensor_space(X, Y), products[ta, tb]
        rep.record(T.atoms == Pr.atoms, "smcc.tensor-is-product", inst,
                   witness=lambda: ([T.subset_names(a) for a in T.atoms],
                                    [Pr.subset_names(a) for a in Pr.atoms]))
        F = smcc.function_space(X, Y)
        try:
            smcc.eval_map(X, Y, F)
            rep.record(True, "smcc.eval-measurable", inst)
        except DomainError as exc:
            rep.record(False, "smcc.eval-measurable", inst, witness=str(exc))
        for tc, Z in spaces:
            cinst = f"{inst}-{tc}"
            outer = measurable_maps(products[ta, tc], Y)
            inner = measurable_maps(Z, F.carrier)
            rep.record(len(outer) == len(inner), "smcc.hom-count", cinst,
                       witness=(len(outer), len(inner)))
            failure = _curry_uncurry_failure(outer, inner, F, len(Z.points))
            rep.record(failure is None, "smcc.curry-uncurry-inverse", cinst,
                       witness=failure)
    return rep


def _suite_lebesgue(config) -> LawReport:
    rep = LawReport("lebesgue")
    rng = random.Random(config["seed"])
    levels = []
    for _ in range(config["samples"]):
        den = rng.randrange(1, 1000)
        levels.append(Fraction(rng.randrange(0, den + 1), den))
    for i, u in enumerate(levels):
        got = step_integrate(smcc.down_map(u))
        rep.record(got == u, "lebesgue.section", f"u{i}",
                   witness=lambda: (rat_str(u), rat_str(got)),
                   detail=rat_str(u))
    return rep


def lshape_counterexample():
    """Two Boolean halfspace subobjects of the square whose intersection
    has a non-convex complement."""
    square = cvx.GeomCvx.of(2, (("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")))
    half = Fraction(1, 2)
    S1 = cvx.HalfspaceSplit(square, (ONE, ZERO), half)
    S2 = cvx.HalfspaceSplit(square, (ZERO, ONE), half)
    return square, S1, S2


def _suite_errata(config) -> LawReport:
    rep = LawReport("errata")
    square, S1, S2 = lshape_counterexample()
    for S, k in ((S1, 1), (S2, 2)):
        ok, wit = cvx.is_boolean_subobject(S)
        rep.record(ok, "errata.halfspace-boolean", f"S{k}", witness=wit)
    ok, wit = cvx.boolean_intersection_check(square, S1, S2)
    rep.record(ok, "errata.pi-system-closure", "lshape",
               witness=wit, erratum_expected=True,
               detail={"S1": "x>=1/2", "S2": "y>=1/2",
                       "claim": "intersection of Boolean subobjects is Boolean"})
    two = cvx.two_space()
    maps = cvx.affine_semi_to_interval_maps(two, giry.DEFAULT_GRID)
    rep.record(all(m.apply(0) == m.apply(1) for m in maps),
               "errata.two-affine-maps-constant", "collapse",
               witness=lambda: [(rat_str(m.apply(0)), rat_str(m.apply(1)))
                                for m in maps])
    injective, pair = cvx.injectivity_check(two)
    rep.record(not injective, "errata.double-dual-not-injective",
               "collapse", witness=pair)
    rep.record(injective, "errata.double-dual-injective-claim",
               "collapse", witness=pair, erratum_expected=True,
               detail={"space": "two-point classifier",
                       "claim": "evaluation into the double dual is injective"})
    return rep


# each suite's runner and the config keys it reads, with their defaults;
# run_suite rejects any other key, any value that is not an int, and a
# bound (any key but seed) below 1
SUITES = {
    "giry-monad": (_suite_giry, {"maxPoints": 2, "maxSupport": 3}),
    "adjunction": (_suite_adjunction, {"maxPoints": 3, "maxSize": 3}),
    "algebra-roundtrip": (_suite_algebra, {"maxSize": 4}),
    "convex-axioms": (_suite_convex, {"maxSize": 4}),
    "boolean-subobjects": (_suite_boolean, {"maxSize": 4}),
    "smcc": (_suite_smcc, {"maxPoints": 2}),
    "lebesgue": (_suite_lebesgue, {"samples": 100, "seed": 0}),
    "errata": (_suite_errata, {}),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, config=None) -> LawReport:
    """Run one suite on its JSON `config`, over the suite's defaults."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    runner, defaults = SUITES[name]
    config = dict(config or {})
    unknown = [k for k in config if k not in defaults]
    if unknown:
        raise DomainError(f"unknown config key(s) {unknown}; suite {name!r} "
                          f"reads {list(defaults) or 'no keys'}")
    untyped = [k for k, v in config.items()
               if not isinstance(v, int) or isinstance(v, bool)]
    if untyped:
        raise DomainError(f"config value(s) of {untyped} must be integers")
    low = [k for k, v in config.items() if k != "seed" and v < 1]
    if low:
        raise DomainError(f"config value(s) of {low} must be at least 1; "
                          f"a bound below 1 leaves laws with no instances")
    rep = runner({**defaults, **config})
    if rep.instances == 0:
        raise DomainError(f"suite {name!r} checked no instances; a run that "
                          f"checks nothing is not a pass")
    return rep


def explain(report: LawReport, instance: str, law: str = None) -> str:
    """A step-by-step account of one instance from a report."""
    hits = [f for f in report.failures if f.instance == instance
            and (law is None or f.law == law)]
    known = instance in report.instance_index or hits
    if not known:
        raise DomainError(f"unknown instance reference {instance!r}")
    lines = [f"suite: {report.suite}", f"instance: {instance}"]
    if instance in report.instance_index:
        lines.append(f"input: {witness_text(report.instance_index[instance])}")
    if not hits:
        lines.append("evaluation: both sides computed; exact equality holds")
        lines.append("verdict: pass")
    for f in hits:
        lines.append(f"law: {f.law}")
        lines.append(f"witness: {witness_text(f.witness)}")
        lines.append("evaluation: both sides computed; values differ at the "
                     "witness above")
        verdict = "expected failure (documented erratum)" if \
            f.erratum_expected else "FAIL"
        lines.append(f"verdict: {verdict}")
    return "\n".join(lines)
