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
from .adjunction import MIX_GRID
from .kernel import CapacityError, DomainError, ONE, ZERO, rat, rat_str, step_integrate
from .measurable import (FinMeasSpace, enumerate_meas_fns, is_separated, mask_of,
                         measurable_maps)
from .reports import LawReport

SUITE_NAMES = (
    "giry-monad", "adjunction", "algebra-roundtrip", "convex-axioms",
    "boolean-subobjects", "smcc", "lebesgue", "errata",
)

# every key a suite reads from its config, each an int; run_suite
# rejects any other key, any value that is not an int, and a bound (any
# key but seed) below 1
CONFIG_KEYS = ("maxPoints", "maxSupport", "maxSize", "samples", "seed")


def _partitions(items):
    """All set partitions of a sequence, deterministic order."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def all_sigma_spaces(points) -> list[FinMeasSpace]:
    """Every sigma-algebra on the carrier, one per set partition."""
    points = tuple(points)
    spaces = [FinMeasSpace(points, [mask_of(points, b) for b in part])
              for part in _partitions(points)]
    return sorted(spaces, key=lambda s: sorted(s.sigma))


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


def _suite_giry(config, mu_fn) -> LawReport:
    rep = LawReport("giry-monad")
    max_points = config.get("maxPoints", 2)
    max_support = config.get("maxSupport", 3)
    mu_fn = mu_fn or giry.mu
    for tag, X in _suite_spaces(max_points):
        nats = list(enumerate_meas_fns(X, X))
        rep.merge(giry.monad_law_report(
            X, max_support=max_support, mu_fn=mu_fn,
            naturality_maps=nats, instance_prefix=f"{tag}-"))
    return rep


def _indicator_fns(A: cvx.SemiCvx):
    fns = []
    for S in cvx.all_boolean_subobjects(A):
        fns.append(lambda a, S=S: ONE if S.contains(a) else ZERO)
    return fns


def _suite_adjunction(config) -> LawReport:
    rep = LawReport("adjunction")
    max_points = config.get("maxPoints", 3)
    lattices = _semilattices(config.get("maxSize", 3))
    endos = [cvx.EndoI.of(s, t)
             for s, t in ((1, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 4)),
                          (-Fraction(1, 2), Fraction(3, 4)), (0, Fraction(1, 2)))]
    for n in range(1, max_points + 1):
        X = FinMeasSpace.discrete(_point_names(n))
        rep.merge(adj.triangle_check(X))
        dists = giry.grid_dists(X)
        atom = X.atom_index
        for j, A in enumerate(lattices):
            sa = adj.sigma_functor(A)
            homs = enumerate_meas_fns(X, sa.space)
            seen_diracs = set()
            for k, f in enumerate(homs):
                g = adj.adjunct(f, A)
                back = adj.adjunct_inverse(g, X, sa)
                rep.record(back.mapping == f.mapping, "adjunct.roundtrip",
                           f"X{n}-A{j}-f{k}", witness=(f.mapping, back.mapping))
                dirac_profile = tuple(g(giry.dirac(X, x)) for x in X.points)
                seen_diracs.add(dirac_profile)
                for i, P in enumerate(dists):
                    support = [x for x in X.points if P.num[atom[x]]]
                    expect = A.meet_all(f(x) for x in support)
                    got = g(P)
                    rep.record(got == expect, "adjunct.meet-of-support",
                               f"X{n}-A{j}-f{k}-P{i}", witness=(got, expect))
            rep.record(len(seen_diracs) == len(homs), "adjunct.injective",
                       f"X{n}-A{j}", witness=len(seen_diracs))
    for j, A in enumerate(lattices):
        sub = adj.triangle_check(FinMeasSpace.discrete(("a",)),
                                 semilattices=[A])
        rep.merge(sub)
        # phi round trip: measures <-> weakly averaging functionals
        sa = adj.sigma_functor(A)
        fns = _indicator_fns(A)
        for i, P in enumerate(giry.grid_dists(sa.space)):
            F = giry.measure_to_functional(P, A)
            back = giry.functional_to_measure(F, sa.space)
            rep.record(back == P, "phi.roundtrip", f"A{j}-P{i}",
                       witness=lambda: (back.describe(), P.describe()))
            chk = giry.wa_check(F, endos, fns)
            rep.record(chk["passed"], "phi.weakly-averaging", f"A{j}-P{i}",
                       witness=lambda: [e for e in chk["entries"]
                                        if not e["passed"]])
    return rep


def _suite_algebra(config, h_twist) -> LawReport:
    rep = LawReport("algebra-roundtrip")
    max_elems = config.get("maxSize", 4)
    for n in range(1, max_elems + 1):
        for j, A in enumerate(cvx.enumerate_semilattices(n)):
            alg = adj.convex_to_algebra(A)
            if h_twist is not None:
                alg = adj.GiryAlgebra(alg.space, h_twist(alg.h))
            sub = adj.algebra_law_report(alg)
            for f in sub.failures:
                f.instance = f"n{n}L{j}-{f.instance}"
            rep.merge(sub)
            try:
                rt = adj.roundtrip_check(A)
                rep.record(rt["passed"], "roundtrip.isomorphism", f"n{n}L{j}",
                           witness=rt["theta"])
            except DomainError as exc:
                rep.record(False, "roundtrip.isomorphism", f"n{n}L{j}",
                           witness=str(exc))
    X = FinMeasSpace.discrete(("a", "b"))
    free = adj.free_algebra_to_convex(X)
    for i, PP in enumerate(giry.two_level_dists(X)[:40]):
        ok = adj.mu_matches_counit(X, PP)
        bary = free["q"](PP)
        rep.record(ok and bary == giry.mu(PP).mass, "roundtrip.free-barycenter",
                   f"free-PP{i}", witness=PP.describe)
    return rep


def _suite_convex(config) -> LawReport:
    rep = LawReport("convex-axioms")
    lattices = _semilattices(config.get("maxSize", 4))
    geoms = [cvx.unit_interval(), cvx.free_convex(2),
             cvx.GeomCvx.of(2, (("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")))]
    for j, A in enumerate(lattices):
        for a, b in itertools.product(A.elements, repeat=2):
            inst = f"L{j}-{a}{b}"
            rep.record(cvx.convex_combine(A, a, b, ZERO) == a,
                       "axiom.left-unit", inst)
            rep.record(cvx.convex_combine(A, a, b, ONE) == b,
                       "axiom.right-unit", inst)
            for al in MIX_GRID:
                lhs = cvx.convex_combine(A, a, b, al)
                rhs = cvx.convex_combine(A, b, a, ONE - al)
                rep.record(lhs == rhs, "axiom.commutation", inst,
                           witness=(lhs, rhs))
                rep.record(cvx.convex_combine(A, a, a, al) == a,
                           "axiom.idempotence", inst)
            for c in A.elements:
                for al, be in itertools.product(MIX_GRID, repeat=2):
                    lhs = cvx.convex_combine(
                        A, cvx.convex_combine(A, a, b, al), c, be)
                    w_a = (ONE - al) * (ONE - be)
                    w_b = al * (ONE - be)
                    rhs = cvx.combine_many(A, (w_a, w_b, be), (a, b, c))
                    rep.record(lhs == rhs, "axiom.barycentric", f"{inst}{c}",
                               witness=(lhs, rhs))
        sep, pair = is_separated(adj.sigma_functor(A).space)
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
    for s1, t1 in ((1, 0), (-Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 2))):
        for s2, t2 in ((0, 1), (Fraction(1, 2), 0), (-Fraction(1, 4), Fraction(3, 4))):
            e1, e2 = cvx.EndoI.of(s1, t1), cvx.EndoI.of(s2, t2)
            comp = cvx.endo_compose(e1, e2)
            inst = f"endo-{rat_str(rat(s1))},{rat_str(rat(t1))}-{rat_str(rat(s2))},{rat_str(rat(t2))}"
            ok = all(cvx.endo_apply(comp, al) ==
                     cvx.endo_apply(e1, cvx.endo_apply(e2, al))
                     for al in (ZERO, *MIX_GRID, ONE))
            rep.record(ok, "endo.composition", inst)
    return rep


def _suite_boolean(config) -> LawReport:
    rep = LawReport("boolean-subobjects")
    for j, A in enumerate(_semilattices(config.get("maxSize", 4))):
        subs = cvx.all_boolean_subobjects(A)
        for k, S in enumerate(subs):
            ok, wit = cvx.is_boolean_subobject(S)
            rep.record(ok, "boolean.verified", f"L{j}-S{k}", witness=wit,
                       detail=sorted(S.members))
            if cvx.chi_is_affine(S)[0]:
                uni = cvx.boolean_union_identity(A, S)
                rep.record(uni["passed"], "boolean.union-of-generated",
                           f"L{j}-S{k}", witness=uni["union"])
        filters = [S for S in subs if cvx.chi_is_affine(S)[0]]
        for k1, k2 in itertools.combinations(range(len(filters)), 2):
            chk = cvx.boolean_intersection_check(A, filters[k1], filters[k2])
            rep.record(chk["passed"], "boolean.filter-intersection",
                       f"L{j}-F{k1}F{k2}", witness=chk["witness"])
        for a in A.elements:
            gen = cvx.generated_subobject(A, a)
            up = frozenset(b for b in A.elements if A.leq(a, b))
            rep.record(gen == up, "boolean.generated-is-upset", f"L{j}-{a}",
                       witness=lambda: (sorted(gen), sorted(up)))
    return rep


def _curry_uncurry_failure(outer, inner, F, nz):
    """The first map on which curry and uncurry fail to be inverse
    bijections between the hom-sets, with the check it fails, or None."""
    outer_set, inner_set = set(outer), set(inner)
    for f in outer:
        g = smcc.curry_positions(f, F, nz)
        if g not in inner_set:
            return {"check": "curry lands in the hom-set", "map": f}
        if smcc.uncurry_positions(g, F) != f:
            return {"check": "uncurry after curry is the identity", "map": f}
    for g in inner:
        f = smcc.uncurry_positions(g, F)
        if f not in outer_set:
            return {"check": "uncurry lands in the hom-set", "map": g}
        if smcc.curry_positions(f, F, nz) != g:
            return {"check": "curry after uncurry is the identity", "map": g}
    return None


def _or_none(build, *args):
    """build(*args), or None past a capacity guard."""
    try:
        return build(*args)
    except CapacityError:
        return None


def _suite_smcc(config) -> LawReport:
    rep = LawReport("smcc")
    max_points = config.get("maxPoints", 2)
    spaces = _suite_spaces(max_points)
    # one tensor per pair of spaces, for the product check of (X, Y) and
    # the outer hom-sets of every (X, Z)
    tensors = {(ta, tb): _or_none(smcc.tensor_space, X, Y)
               for (ta, X), (tb, Y) in itertools.product(spaces, spaces)}
    for (ta, X), (tb, Y) in itertools.product(spaces, spaces):
        inst = f"{ta}x{tb}"
        T = tensors[ta, tb]
        Pr = None if T is None else _or_none(smcc.product_space, X, Y)
        if Pr is None:
            rep.record(True, "smcc.skipped-guard", inst, detail="capacity")
            continue
        rep.record(Pr.sigma <= T.sigma, "smcc.product-in-tensor",
                   inst, witness=len(Pr.sigma) - len(T.sigma))
        F = _or_none(smcc.function_space, X, Y)
        try:
            if F is None or _or_none(smcc.eval_map, X, Y, F) is None:
                rep.record(True, "smcc.skipped-guard", f"{inst}-eval",
                           detail="capacity")
            else:
                rep.record(True, "smcc.eval-measurable", inst)
        except DomainError as exc:
            rep.record(False, "smcc.eval-measurable", inst, witness=str(exc))
        for tc, Z in spaces:
            cinst = f"{inst}-{tc}"
            XZ = None if F is None else tensors[ta, tc]
            outer = None if XZ is None else _or_none(measurable_maps, XZ, Y)
            inner = None if outer is None else \
                _or_none(measurable_maps, Z, F.carrier)
            if inner is None:
                rep.record(True, "smcc.skipped-guard", cinst,
                           detail="capacity")
                continue
            rep.record(len(outer) == len(inner), "smcc.hom-count", cinst,
                       witness=(len(outer), len(inner)))
            failure = _curry_uncurry_failure(outer, inner, F, len(Z.points))
            rep.record(failure is None, "smcc.curry-uncurry-inverse", cinst,
                       witness=failure)
    return rep


def _suite_lebesgue(config, integrator) -> LawReport:
    rep = LawReport("lebesgue")
    samples = config.get("samples", 100)
    seed = config.get("seed", 0)
    rng = random.Random(seed)
    levels = []
    for _ in range(samples):
        den = rng.randrange(1, 1000)
        levels.append(Fraction(rng.randrange(0, den + 1), den))
    chk = smcc.lebesgue_section_check(levels,
                                      integrator=integrator or step_integrate)
    for i, e in enumerate(chk["entries"]):
        rep.record(e["passed"], "lebesgue.section", f"u{i}",
                   witness=(e["level"], e["integral"]), detail=e["level"])
    return rep


def lshape_counterexample():
    """Two Boolean halfspace subobjects of the square whose intersection
    has a non-convex complement."""
    square = cvx.GeomCvx.of(2, (("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")))
    half = Fraction(1, 2)
    S1 = cvx.HalfspaceSplit(square, (ONE, ZERO), half, upper_closed=True)
    S2 = cvx.HalfspaceSplit(square, (ZERO, ONE), half, upper_closed=True)
    return square, S1, S2


def _suite_errata(config) -> LawReport:
    rep = LawReport("errata")
    square, S1, S2 = lshape_counterexample()
    for S, k in ((S1, 1), (S2, 2)):
        ok, wit = cvx.is_boolean_subobject(S)
        rep.record(ok, "errata.halfspace-boolean", f"S{k}", witness=wit)
    chk = cvx.boolean_intersection_check(square, S1, S2)
    rep.record(chk["passed"], "errata.pi-system-closure", "lshape",
               witness=chk["witness"], erratum_expected=True,
               detail={"S1": "x>=1/2", "S2": "y>=1/2",
                       "claim": "intersection of Boolean subobjects is Boolean"})
    two = cvx.two_space()
    maps = cvx.affine_semi_to_interval_maps(
        two, (ZERO, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE))
    rep.record(all(m.apply("0") == m.apply("1") for m in maps),
               "errata.two-affine-maps-constant", "collapse",
               witness=lambda: [(rat_str(m.apply("0")), rat_str(m.apply("1")))
                                for m in maps])
    inj = cvx.injectivity_check(two)
    rep.record(not inj["injective"], "errata.double-dual-not-injective",
               "collapse", witness=inj["witness"])
    rep.record(inj["injective"], "errata.double-dual-injective-claim",
               "collapse", witness=inj["witness"], erratum_expected=True,
               detail={"space": "two-point classifier",
                       "claim": "evaluation into the double dual is injective"})
    return rep


_RUNNERS = {
    "giry-monad": _suite_giry,
    "adjunction": _suite_adjunction,
    "algebra-roundtrip": _suite_algebra,
    "convex-axioms": _suite_convex,
    "boolean-subobjects": _suite_boolean,
    "smcc": _suite_smcc,
    "lebesgue": _suite_lebesgue,
    "errata": _suite_errata,
}


def run_suite(name: str, config=None, *, mu_fn=None, integrator=None,
              structure_map_twist=None) -> LawReport:
    """Run one suite on its JSON `config`.  The keyword arguments are
    mutation hooks, None for the library's own: `mu_fn` in giry-monad,
    `integrator` in lebesgue, `structure_map_twist` in algebra-roundtrip."""
    if name not in _RUNNERS:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    config = dict(config or {})
    unknown = [k for k in config if k not in CONFIG_KEYS]
    if unknown:
        raise DomainError(f"unknown config key(s) {unknown}; "
                          f"choose from {CONFIG_KEYS}")
    untyped = [k for k, v in config.items()
               if not isinstance(v, int) or isinstance(v, bool)]
    if untyped:
        raise DomainError(f"config value(s) of {untyped} must be integers")
    low = [k for k, v in config.items() if k != "seed" and v < 1]
    if low:
        raise DomainError(f"config value(s) of {low} must be at least 1; "
                          f"a bound below 1 leaves laws with no instances")
    hooks = {"giry-monad": (mu_fn,), "lebesgue": (integrator,),
             "algebra-roundtrip": (structure_map_twist,)}
    rep = _RUNNERS[name](config, *hooks.get(name, ()))
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
        lines.append(f"input: {report.instance_index[instance]}")
    if not hits:
        lines.append("evaluation: both sides computed; exact equality holds")
        lines.append("verdict: pass")
    for f in hits:
        lines.append(f"law: {f.law}")
        lines.append(f"witness: {f.witness}")
        lines.append("evaluation: both sides computed; values differ at the "
                     "witness above")
        verdict = "expected failure (documented erratum)" if \
            f.erratum_expected else "FAIL"
        lines.append(f"verdict: {verdict}")
    return "\n".join(lines)
