import hashlib
import json

import pytest

from gcvx import adjunction as adj
from gcvx import cli, giry, smcc, suites
from gcvx import convex as cvx
from gcvx import exactlp, jsonio, kernel
from gcvx.kernel import CapacityError, DomainError, ZERO, rat
from gcvx.measurable import FinMeasSpace
from gcvx.reports import LawReport
from gcvx.suites import SUITE_NAMES, all_sigma_spaces, explain, run_suite

# config and the SHA-256 of the canonical report; a refactor that keeps
# the digests keeps every report byte-identical
SMALL = {
    "giry-monad": ({"maxPoints": 2},
                   "1df5fff21c3ebb2fca4461b7b4caf240ade9d0bb37a77342b20a14eb142596c7"),
    "adjunction": ({"maxPoints": 2, "maxSize": 2},
                   "028c71027f81072b3f63c8fd04410ae44f42ee80dbbc5c9c3d74370dd4c2fc7a"),
    "algebra-roundtrip": ({"maxSize": 3},
                          "3f5e90f66fa2a0a16c953da0c3733906c13877663eb43f5710f02f06ef9bea24"),
    "convex-axioms": ({"maxSize": 3},
                      "eb15da6d87ed5351426f898ca1a4dda68201f9b7791e71015fe20f4124a7d064"),
    "boolean-subobjects": ({"maxSize": 3},
                           "8d83cb64c906e81ba23a85e0a2160c616cb3042abfcd6a196d3fda3c93f82325"),
    "smcc": ({"maxPoints": 2},
             "530a89838474abbbd834d0e6e0e9774a57198ec5c1c994a10bf8a4d723bf8808"),
    "lebesgue": ({"samples": 20, "seed": 5},
                 "b161bdc844a14ebc9ed9e84c8e13711830eac07209af5236e612c95dcea06cd2"),
    "errata": ({},
               "ede58ae206e6c9695676ecc2025d36bf18ddc259c74ec976eed2bc9875703315"),
}


def report_digest(rep) -> str:
    canonical = json.dumps(rep.to_json(), sort_keys=True,
                           default=jsonio.json_default)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_all_sigma_spaces_counts_are_partition_numbers():
    assert [len(all_sigma_spaces(tuple("abcd"[:n]))) for n in (1, 2, 3, 4)] \
        == [1, 2, 5, 15]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_suite_runs_clean(name):
    config, digest = SMALL[name]
    rep = run_suite(name, config)
    assert rep.ok
    assert rep.instances > 0
    assert rep.passed + len(rep.failures) == rep.instances
    assert report_digest(rep) == digest


class RecordingConfig(dict):
    """A config that notes every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_runner_reads_exactly_its_declared_keys(name):
    runner, defaults = suites.SUITES[name]
    config = RecordingConfig({**defaults, **SMALL[name][0]})
    runner(config)
    assert config.read == set(defaults)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nonsense")


def test_reports_are_deterministic():
    for name in ("lebesgue", "errata", "boolean-subobjects"):
        config, _ = SMALL[name]
        a = run_suite(name, config).to_json()
        b = run_suite(name, config).to_json()
        assert a == b


def test_errata_failures_are_expected_only():
    rep = run_suite("errata")
    assert rep.ok  # expected-erratum failures do not fail the process
    laws = {f.law for f in rep.failures}
    assert laws == {"errata.pi-system-closure",
                    "errata.double-dual-injective-claim"}
    assert all(f.erratum_expected for f in rep.failures)


def test_explain_traces_pass_fail_and_unknown():
    rep = run_suite("errata")
    trace = explain(rep, "lshape")
    assert "witness" in trace and "expected failure" in trace
    ok_trace = explain(rep, "collapse", law="errata.double-dual-injective-claim")
    assert "expected failure" in ok_trace
    with pytest.raises(DomainError):
        explain(rep, "no-such-instance")


def test_lebesgue_seed_changes_samples_not_verdict():
    a = run_suite("lebesgue", {"samples": 10, "seed": 1}).to_json()
    b = run_suite("lebesgue", {"samples": 10, "seed": 2}).to_json()
    assert a["passed"] == b["passed"] == 10
    assert a["instanceIndex"] != b["instanceIndex"]


# Each corruption below takes the original library function and returns
# a broken one; a self-check patches it in where its suite looks it up.


def swapped_mu(real):
    """A multiplication that swaps the first and last atom masses whenever
    the support has more than one measure (criterion 11's mutation)."""
    def crooked(PP):
        good = real(PP)
        if len(PP.support) > 1:
            m = list(good.mass)
            m[0], m[-1] = m[-1], m[0]
            return giry.FinDist(good.space, tuple(m))
        return good
    return crooked


def first_point_counit(real):
    """A counit that returns the position of the first point carrying
    mass instead of the meet of the support."""
    def crooked(A, P):
        if isinstance(A, cvx.SemiCvx):
            first = next(a for a, n in zip(P.space.atoms, P.num) if n)
            return (first & -first).bit_length() - 1
        return real(A, P)
    return crooked


def twisted_structure_map(real):
    """The algebra of a semilattice with a structure map that sends every
    measure on two or more atoms to the last atom, or to the first when
    the true value is already in the last."""
    def crooked_algebra(A):
        alg = real(A)

        def h(P):
            out = alg.h(P)
            atoms = P.space.atoms
            if len(atoms) > 1:
                last = (atoms[-1] & -atoms[-1]).bit_length() - 1
                return last if out != last else \
                    (atoms[0] & -atoms[0]).bit_length() - 1
            return out
        return adj.GiryAlgebra(alg.space, h)
    return crooked_algebra


def quarter_rejecting_hull(real):
    """A hull test that wrongly rejects every point with a quarter
    coordinate."""
    def crooked(A, p):
        ok, cert = real(A, p)
        if ok and any(rat(x).denominator == 4 for x in p):
            return False, (tuple(ZERO for _ in p), ZERO)
        return ok, cert
    return crooked


def generator_dropping_subobject(real):
    """A generated subobject that drops its own generator."""
    return lambda A, a: real(A, a) & ~(1 << a)


def section_swapping_curry(real):
    """A curry that swaps the first two sections."""
    def crooked(f, F, nz):
        g = real(f, F, nz)
        return g[1::-1] + g[2:] if nz > 1 else g
    return crooked


def shifted_integral(real):
    """A step-function integral that is 1/7 too large."""
    return lambda f: real(f) + rat("1/7")


def accept_every_table(real):
    """A `SemiToI` check that accepts every table, affine or not."""
    return lambda self: None


# per suite: the owner and name of the library function its run looks
# up, the corruption, a small config, and the exact set of laws that must
# fail unexpectedly; a suite with no entry fails the test below
SELF_CHECKS = {
    "giry-monad": (giry, "mu", swapped_mu, {"maxPoints": 2},
                   {"mu.flatten-oracle", "mu.associativity",
                    "mu.unit-right"}),
    "adjunction": (adj, "counit", first_point_counit,
                   {"maxPoints": 2, "maxSize": 3},
                   {"adjunct.meet-of-support"}),
    "algebra-roundtrip": (adj, "convex_to_algebra", twisted_structure_map,
                          {"maxSize": 2},
                          {"algebra.unit", "algebra.multiplication",
                           "roundtrip.isomorphism"}),
    "convex-axioms": (cvx, "hull_member", quarter_rejecting_hull,
                      {"maxSize": 3}, {"axiom.closure"}),
    "boolean-subobjects": (cvx, "generated_subobject",
                           generator_dropping_subobject, {"maxSize": 3},
                           {"boolean.generated-is-upset",
                            "boolean.union-of-generated"}),
    "smcc": (smcc, "curry_positions", section_swapping_curry,
             {"maxPoints": 2}, {"smcc.curry-uncurry-inverse"}),
    "lebesgue": (suites, "step_integrate", shifted_integral,
                 {"samples": 10}, {"lebesgue.section"}),
    "errata": (cvx.SemiToI, "__post_init__", accept_every_table, {},
               {"errata.two-affine-maps-constant",
                "errata.double-dual-not-injective"}),
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_has_a_self_check(name, monkeypatch, tmp_path, capsys):
    # the corrupted suite fails exactly its laws, and the CLI reports each
    # as a recorded failure with exit 1 and no traceback
    owner, attr, corrupt, config, laws = SELF_CHECKS[name]
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    rep = run_suite(name, config)
    assert {f.law for f in rep.unexpected_failures} == laws
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([name, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert all(f"FAIL {law} @" in out for law in laws)
    assert "Traceback" not in err


def test_smcc_mutation_self_check(monkeypatch, capsys):
    # a curry that swaps the first two sections must make the inverse
    # law fail, as a recorded failure with exit 1 and no traceback
    monkeypatch.setattr(smcc, "curry_positions",
                        section_swapping_curry(smcc.curry_positions))
    rep = run_suite("smcc", {"maxPoints": 2})
    assert not rep.ok
    assert {f.law for f in rep.failures} == {"smcc.curry-uncurry-inverse"}
    for f in rep.failures:
        assert f.witness["check"] in ("uncurry after curry is the identity",
                                      "curry lands in the hom-set")
        assert isinstance(f.witness["map"], tuple)
    assert cli.main(["smcc", "--max-points", "2"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL smcc.curry-uncurry-inverse" in out
    assert "Traceback" not in err


def test_smcc_tensor_mutation_self_check(monkeypatch, capsys):
    # a tensor that is the discrete space on the product carrier must
    # make the tensor-is-product law fail, and nothing else
    monkeypatch.setattr(smcc, "tensor_space",
                        lambda X, Y: FinMeasSpace.discrete(smcc.product_points(X, Y)))
    rep = run_suite("smcc", {"maxPoints": 2})
    assert not rep.ok
    assert {f.law for f in rep.failures} == {"smcc.tensor-is-product"}
    assert cli.main(["smcc", "--max-points", "2"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL smcc.tensor-is-product" in out
    assert "Traceback" not in err


def test_smcc_capacity_error_is_usage_error(monkeypatch, capsys):
    # a hom-set past the capacity ends the run with exit 2; it is never
    # recorded as a passing instance
    def over_capacity(X, Y):
        raise CapacityError("function enumeration exceeds capacity")

    monkeypatch.setattr(suites, "measurable_maps", over_capacity)
    with pytest.raises(CapacityError):
        run_suite("smcc", {"maxPoints": 2})
    assert cli.main(["smcc", "--max-points", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_boolean_subobjects_mutation_self_check(monkeypatch, capsys):
    # a generated subobject that drops its own generator must make the
    # up-set law and the union identity over filters fail
    monkeypatch.setattr(cvx, "generated_subobject",
                        generator_dropping_subobject(cvx.generated_subobject))
    rep = run_suite("boolean-subobjects", {"maxSize": 3})
    assert (rep.instances, len(rep.failures)) == (213, 64)
    laws = [f.law for f in rep.failures]
    assert laws.count("boolean.generated-is-upset") == 32
    assert laws.count("boolean.union-of-generated") == 32
    assert cli.main(["boolean-subobjects", "--max-size", "3"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL boolean.generated-is-upset" in out
    assert "Traceback" not in err


# SHA-256 of the canonical report of two mutated runs, with the number of
# failures: the SMALL digests cover passing reports only, so these pin the
# failure witnesses themselves
FAILURE_DIGESTS = {
    "giry-monad": (845, "720dd6c4a952a021ca965b51b0ca74d1fdfbbc9ff918b2827107eccceea37c6f"),
    "adjunction": (96, "ceda3b0993d3b171232d7116fa2e22be6dde344d73645fb641e2f0d729abc7c3"),
}


def test_failure_witnesses_are_pinned(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(giry, "mu", swapped_mu(giry.mu))
        rep = run_suite("giry-monad", {"maxPoints": 2})
    assert (len(rep.failures), report_digest(rep)) == \
        FAILURE_DIGESTS["giry-monad"]
    monkeypatch.setattr(adj, "counit", first_point_counit(adj.counit))
    rep = run_suite("adjunction", {"maxPoints": 2, "maxSize": 3})
    assert (len(rep.failures), report_digest(rep)) == \
        FAILURE_DIGESTS["adjunction"]


# The mutated multiplication at three points and support two: unlike
# maxPoints 2, it fails every law whose sides run through a shared
# flattening (`mu.naturality`, `mu.associativity`, `mu.flatten-oracle`),
# so the pin covers each place the report reuses a value
MUTATED_GIRY_3_2 = (
    {"mu.naturality": 6412, "mu.associativity": 3732,
     "mu.flatten-oracle": 404, "mu.unit-right": 18},
    "a0bb599ae5afa570ee8817e1793492f504b6d1a1be2cd201c5314893af27e0dd",
)


def test_mutated_giry_monad_at_three_points_is_pinned(monkeypatch):
    monkeypatch.setattr(giry, "mu", swapped_mu(giry.mu))
    rep = run_suite("giry-monad", {"maxPoints": 3, "maxSupport": 2})
    counts: dict[str, int] = {}
    for f in rep.failures:
        counts[f.law] = counts.get(f.law, 0) + 1
    assert (counts, report_digest(rep)) == MUTATED_GIRY_3_2


# The crooked counit at the `laws` config, three points and semilattices
# up to three elements: the (2, 3) digest above names no failure on three
# points, so this pins the `X3-…` failure names and witnesses as well
MUTATED_ADJUNCTION_3_3 = (
    {"adjunct.meet-of-support": 1338},
    "adad0e743c83f80a2f682e7ac4e8db2a7d50036d059879ab6d2a02b7c181512c",
)


def swapped_outer_weights(real):
    """A `flatten_outer` that puts each outer weight on the other middle
    level of a two-term three-level measure whose weights differ."""
    def crooked(PPP, *args, **kw):
        if len(PPP) == 2 and PPP[0][0] != PPP[1][0]:
            (wa, PPa), (wb, PPb) = PPP
            PPP = ((wb, PPa), (wa, PPb))
        return real(PPP, *args, **kw)
    return crooked


def test_mutated_flatten_outer_fails_associativity_alone(monkeypatch):
    # only the left side of associativity runs through flatten_outer, so
    # associativity alone fails, and only on two-term measures
    monkeypatch.setattr(giry, "flatten_outer",
                        swapped_outer_weights(giry.flatten_outer))
    rep = run_suite("giry-monad", {"maxPoints": 2, "maxSupport": 2})
    counts: dict[str, int] = {}
    for f in rep.failures:
        counts[f.law] = counts.get(f.law, 0) + 1
    assert (rep.instances, counts) == (1140, {"mu.associativity": 578})


def test_mutated_adjunction_at_three_points_is_pinned(monkeypatch):
    monkeypatch.setattr(adj, "counit", first_point_counit(adj.counit))
    rep = run_suite("adjunction", {"maxPoints": 3, "maxSize": 3})
    counts: dict[str, int] = {}
    for f in rep.failures:
        counts[f.law] = counts.get(f.law, 0) + 1
    assert (counts, report_digest(rep)) == MUTATED_ADJUNCTION_3_3
    assert any(f.instance.startswith("X3-") for f in rep.failures)


# At the `laws` configs a pass with no detail is only counted: `record`
# sees the instances that carry a detail and nothing else, and the
# measures are described only for those details
PASSES_RECORDED = {
    "giry-monad": ({"maxPoints": 3, "maxSupport": 2}, 16148,
                   {"mu.unit-left": 38, "mu.flatten-oracle": 473},
                   {"FinDist": 946, "DistOverDists": 473}),
    "adjunction": ({"maxPoints": 3, "maxSize": 3}, 5157,
                   {"triangle.measure-side": 33},
                   {"FinDist": 33, "DistOverDists": 0}),
}


@pytest.mark.parametrize("name", sorted(PASSES_RECORDED))
def test_a_pass_costs_a_count(name, monkeypatch):
    config, instances, recorded, described = PASSES_RECORDED[name]
    laws: dict[str, int] = {}
    calls = {"FinDist": 0, "DistOverDists": 0}
    real_record = LawReport.record

    def record(self, passed, law, instance, witness=None, **kw):
        assert kw.get("detail") is not None
        laws[law] = laws.get(law, 0) + 1
        real_record(self, passed, law, instance, witness=witness, **kw)
    monkeypatch.setattr(LawReport, "record", record)
    for cls in (giry.FinDist, giry.DistOverDists):
        def describe(self, real=cls.describe, key=cls.__name__):
            calls[key] += 1
            return real(self)
        monkeypatch.setattr(cls, "describe", describe)
    rep = run_suite(name, config)
    assert rep.ok
    assert (rep.instances, laws, calls) == (instances, recorded, described)


def test_three_level_weights_stay_integers(monkeypatch):
    # the associativity sides get their outer weights as integers, so
    # int_row runs where Fractions come in (the grid and the flatten
    # oracle), not once per side; a measure's text is built once, so the
    # atom names of the flatten-oracle details are read once per
    # distinct support measure
    calls = {"int_row": 0, "subset_names": 0}

    def counted(owner, attr, key):
        real = getattr(owner, attr)

        def counting(*args):
            calls[key] += 1
            return real(*args)
        monkeypatch.setattr(owner, attr, counting)
    for module in (kernel, giry, cvx, adj, exactlp):
        counted(module, "int_row", "int_row")
    counted(FinMeasSpace, "subset_names", "subset_names")
    rep = run_suite("giry-monad", {"maxPoints": 3, "maxSupport": 2})
    assert rep.ok and rep.instances == 16148
    assert calls == {"int_row": 521, "subset_names": 176}


@pytest.mark.parametrize("name, config, checked", [
    ("giry-monad", {"maxPoints": 3, "maxSupport": 2}, 473),
    ("adjunction", {"maxPoints": 3, "maxSize": 3}, 146),
])
def test_rows_are_checked_where_they_enter(name, config, checked,
                                           monkeypatch):
    # the monad builds its own results reduced, not re-checked, so
    # prob_row runs where a row enters from outside the monad: the
    # Fraction masses of the flatten oracle (giry-monad) and the weakly
    # averaging functionals of phi (adjunction)
    calls = []
    real = kernel.prob_row

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)
    for module in (kernel, giry, cvx):
        monkeypatch.setattr(module, "prob_row", counting)
    rep = run_suite(name, config)
    assert rep.ok
    assert len(calls) == checked


def test_sigma_is_built_once_per_semilattice(monkeypatch):
    # the suite builds sigma(A) once for every n and the phi round trip,
    # and triangle_check builds its own: 12 + 12 for the 12 semilattices
    calls = []
    real = adj.sigma_functor

    def counting(A):
        calls.append(A)
        return real(A)
    monkeypatch.setattr(adj, "sigma_functor", counting)
    rep = run_suite("adjunction", {"maxPoints": 3, "maxSize": 3})
    assert rep.ok and rep.instances == 5157
    assert len(calls) == 24


def test_injective_reads_the_transposes_once(monkeypatch):
    # `adjunct.injective` reads the values at the diracs off the inverse
    # transpose, which has already computed them, so the counit runs
    # once, not twice, at each dirac for each map
    calls = []
    real = adj.counit

    def counting(A, P):
        calls.append(A)
        return real(A, P)
    monkeypatch.setattr(adj, "counit", counting)
    rep = run_suite("adjunction", {"maxPoints": 3, "maxSize": 3})
    assert rep.ok and rep.instances == 5157
    assert len(calls) == 5406
