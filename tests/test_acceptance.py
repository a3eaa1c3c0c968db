"""Top-level acceptance gate: one test (and one printed verdict line) per
criterion.  Everything is exact rational arithmetic; no tolerances."""

import itertools
import random
from fractions import Fraction

from gcvx import adjunction as adj
from gcvx import convex as cvx
from gcvx.cli import main as cli_main
from gcvx import giry, suites
from gcvx.kernel import ONE, ZERO, step_integrate
from gcvx.measurable import generate_sigma, is_separated
from gcvx.smcc import down_map
from gcvx.suites import all_sigma_spaces, explain, run_suite
from test_suites import (report_digest, shifted_integral, swapped_mu,
                         twisted_structure_map)

# SHA-256 of the canonical report at each suite's acceptance config, as in
# test_suites.SMALL: a refactor that keeps them keeps the reports
# byte-identical at full scale
ACCEPTANCE_DIGESTS = {
    "giry-monad": "7484e93bdc85397313e40f5cc8bf75b6125369815cb1927a29675006e2f5369a",
    "smcc": "5956c873fd5983c2cff11d1ce58adc7c70db9530d3e3478b3f2bb0c5f87cc9e0",
    "adjunction": "94476556bee4f23905de71cb6e458f8a646fe9a4e8fdd2e3fe573e94ecda4123",
}


def verdict(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_monad_laws_exhaustive_to_three_points():
    rep = run_suite("giry-monad", {"maxPoints": 3})
    assert report_digest(rep) == ACCEPTANCE_DIGESTS["giry-monad"]
    verdict(1, rep.ok and rep.instances > 10000,
            f"monad laws, naturality and flatten oracle on all sigma-algebras "
            f"over <=3 points ({rep.instances} instances, "
            f"{len(rep.unexpected_failures)} failures)")


def test_criterion_02_generate_sigma_matches_brute_force():
    checked = 0
    ok = True
    for n in (1, 2, 3, 4):
        points = tuple("pqrs"[:n])
        n_subsets = 1 << n
        # reference sigma-algebras as bitmasks over the subset lattice,
        # derived from set partitions (verified against the raw closure
        # filter in the measurable-space tests)
        algebra_masks = []
        for sp in all_sigma_spaces(points):
            m = 0
            for u in sp.sigma:
                m |= 1 << u
            algebra_masks.append(m)
        for fam in range(1 << n_subsets):
            least = None
            for am in algebra_masks:
                if fam & ~am == 0:
                    least = am if least is None else least & am
            gens = [u for u in range(n_subsets) if fam >> u & 1]
            got = 0
            for u in generate_sigma(points, gens).sigma:
                got |= 1 << u
            checked += 1
            if got != least:
                ok = False
                break
    verdict(2, ok, f"generate_sigma equals the least containing "
                   f"sigma-algebra for all {checked} generator families "
                   f"on <=4 points")


def test_criterion_03_smcc_suite_checks_every_pair():
    rep = run_suite("smcc", {"maxPoints": 3})
    assert report_digest(rep) == ACCEPTANCE_DIGESTS["smcc"]
    verdict(3, rep.ok and rep.instances > 500,
            f"tensor equals product, eval measurability and curry/uncurry "
            f"bijections on all space pairs <=3 points, none skipped "
            f"({rep.instances} instances)")


def test_criterion_04_telescoping_thousand_random_simple_functions():
    rng = random.Random(11)
    ok = True
    for _ in range(1000):
        n = rng.randrange(1, 7)
        coeffs = sorted(Fraction(rng.randrange(0, 25), 24) for _ in range(n))
        blocks, next_id = [], 0
        for _i in range(n):
            size = rng.randrange(1, 4)
            blocks.append({f"x{j}" for j in range(next_id, next_id + size)})
            next_id += size
        out = adj.telescope(coeffs, blocks)
        weights = [w for w, _ in out]
        if any(w < 0 for w in weights) or sum(weights, ZERO) != ONE:
            ok = False
            break
        for c, block in zip(coeffs, blocks):
            if any(adj.telescope_pointwise(out, x) != c for x in block):
                ok = False
                break
        if not ok:
            break
    verdict(4, ok, "1000 random simple functions decompose into exact "
                   "convex sums of indicators, pointwise equal")


def test_criterion_05_evaluation_representation_on_random_polytopes():
    rng = random.Random(13)
    ok = True
    for _ in range(500):
        dim = rng.randrange(1, 4)
        gens = {tuple(Fraction(rng.randrange(0, 9), 8) for _ in range(dim))
                for _ in range(rng.randrange(2, 6))}
        A = cvx.GeomCvx.of(dim, sorted(gens))
        k = rng.randrange(1, 6)
        points = [A.generators[rng.randrange(len(A.generators))]
                  for _ in range(k)]
        raw = [rng.randrange(1, 9) for _ in range(k)]
        total = sum(raw)
        weights = [Fraction(r, total) for r in raw]
        fns = cvx.geom_spanning_functionals(A)
        if not adj.eval_hull_identity(A, weights, points, fns)["passed"]:
            ok = False
            break
    verdict(5, ok, "500 random convex combinations satisfy "
                   "sum(a_i ev_{p_i}) = ev at the combined point on the "
                   "spanning functionals")


def test_criterion_06_adjunction_triangles_and_bijection():
    rep = run_suite("adjunction", {"maxPoints": 3, "maxSize": 4})
    assert report_digest(rep) == ACCEPTANCE_DIGESTS["adjunction"]
    verdict(6, rep.ok and rep.instances > 1000,
            f"triangle identities and adjunct bijection for all discrete "
            f"X <=3 points and all semilattices <=4 elements "
            f"({rep.instances} instances)")


def test_criterion_07_algebra_convex_roundtrip_to_five_elements():
    ok = True
    count = 0
    for n in range(1, 6):
        for A in cvx.enumerate_semilattices(n):
            count += 1
            passed, theta = adj.roundtrip_check(A)
            bijective = sorted(theta.values()) == sorted(A.elements)
            if not (passed and bijective):
                ok = False
                break
        if not ok:
            break
    verdict(7, ok, f"convex_to_algebra then algebra_to_convex recovers all "
                   f"{count} meet-semilattices <=5 elements with bijective "
                   f"theta")


def test_criterion_08_separation():
    ok = True
    count = 0
    for n in range(1, 6):
        for A in cvx.enumerate_semilattices(n):
            count += 1
            if not is_separated(adj.sigma_functor(A))[0]:
                ok = False
    rng = random.Random(17)
    geoms = [cvx.unit_interval(), cvx.free_convex(3),
             cvx.GeomCvx.of(2, ((0, 0), (2, 0), (0, 2), (1, 1)))]
    pairs = 0
    for A in geoms:
        for a, b in itertools.combinations(A.generators, 2):
            half = cvx.separate_points(A, a, b)
            pairs += 1
            if half.contains(a) or not half.contains(b):
                ok = False
    verdict(8, ok, f"generated sigma-algebra separates all {count} "
                   f"semilattices <=5 elements; halfspace witnesses split "
                   f"{pairs} geometric point pairs")


def test_criterion_09_lebesgue_section():
    grid = [Fraction(k, 1000) for k in range(1001)]
    rng = random.Random(19)
    randoms = []
    for _ in range(1000):
        den = rng.randrange(1, 10000)
        randoms.append(Fraction(rng.randrange(0, den + 1), den))
    ok = all(step_integrate(down_map(u)) == u for u in grid + randoms)
    verdict(9, ok,
            "step_integrate(down_map(u)) = u exactly on the k/1000 grid "
            "and 1000 random rationals")


def test_criterion_10_errata_reproduced_without_failing_the_process(capsys):
    rep = run_suite("errata")
    laws = {f.law for f in rep.failures}
    reproduced = laws == {"errata.pi-system-closure",
                          "errata.double-dual-injective-claim"} and \
        all(f.erratum_expected for f in rep.failures)
    traces = explain(rep, "lshape") + explain(rep, "collapse")
    exit_code = cli_main(["errata"])
    capsys.readouterr()
    verdict(10, rep.ok and reproduced and exit_code == 0 and
            "expected failure" in traces,
            "L-shape intersection and double-dual collapse reproduced, "
            "flagged as expected errata, exit code 0")


def test_criterion_11_mutation_self_check(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(giry, "mu", swapped_mu(giry.mu))
        giry_detects = not run_suite("giry-monad", {"maxPoints": 2}).ok

    with monkeypatch.context() as patch:
        patch.setattr(suites, "step_integrate",
                      shifted_integral(suites.step_integrate))
        lebesgue_detects = not run_suite("lebesgue", {"samples": 10}).ok

    with monkeypatch.context() as patch:
        patch.setattr(adj, "convex_to_algebra",
                      twisted_structure_map(adj.convex_to_algebra))
        algebra_detects = not run_suite("algebra-roundtrip", {"maxSize": 2}).ok

    verdict(11, giry_detects and lebesgue_detects and algebra_detects,
            "corrupted multiplication, integrator and structure map are "
            "each caught by their suites")
