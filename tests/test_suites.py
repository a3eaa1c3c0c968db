import hashlib
import json

import pytest

from gcvx import adjunction as adj
from gcvx import cli, giry, smcc
from gcvx import convex as cvx
from gcvx import jsonio
from gcvx.kernel import DomainError, ZERO, rat
from gcvx.suites import all_sigma_spaces, explain, run_suite

# config and the SHA-256 of the canonical report; a refactor that keeps
# the digests keeps every report byte-identical
SMALL = {
    "giry-monad": ({"maxPoints": 2},
                   "1df5fff21c3ebb2fca4461b7b4caf240ade9d0bb37a77342b20a14eb142596c7"),
    "adjunction": ({"maxPoints": 2, "maxSize": 2},
                   "028c71027f81072b3f63c8fd04410ae44f42ee80dbbc5c9c3d74370dd4c2fc7a"),
    "algebra-roundtrip": ({"maxSize": 3},
                          "71fac015426358453ebfe17762ce6565d5b7eeb8aa81640ede7983b14307b779"),
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


def test_convex_axioms_mutation_self_check(monkeypatch):
    # a hull test that wrongly rejects every point with a quarter
    # coordinate must make the closure axiom fail
    real = cvx.hull_member

    def crooked(A, p):
        ok, cert = real(A, p)
        if ok and any(rat(x).denominator == 4 for x in p):
            return False, (tuple(ZERO for _ in p), ZERO)
        return ok, cert

    monkeypatch.setattr(cvx, "hull_member", crooked)
    rep = run_suite("convex-axioms", {"maxSize": 3})
    assert not rep.ok
    assert {f.law for f in rep.failures} == {"axiom.closure"}


def test_smcc_mutation_self_check(monkeypatch, capsys):
    # a curry that swaps the first two sections must make the inverse
    # law fail, as a recorded failure with exit 1 and no traceback
    real = smcc.curry_positions

    def crooked(f, F, nz):
        g = real(f, F, nz)
        return g[1::-1] + g[2:] if nz > 1 else g

    monkeypatch.setattr(smcc, "curry_positions", crooked)
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


def test_boolean_subobjects_mutation_self_check(monkeypatch, capsys):
    # a generated subobject that drops its own generator must make the
    # up-set law and the union identity over filters fail
    real = cvx.generated_subobject
    monkeypatch.setattr(cvx, "generated_subobject",
                        lambda A, a: real(A, a) - {a})
    rep = run_suite("boolean-subobjects", {"maxSize": 3})
    assert (rep.instances, len(rep.failures)) == (213, 64)
    laws = [f.law for f in rep.failures]
    assert laws.count("boolean.generated-is-upset") == 32
    assert laws.count("boolean.union-of-generated") == 32
    assert cli.main(["boolean-subobjects", "--max-size", "3"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL boolean.generated-is-upset" in out
    assert "Traceback" not in err


def first_point_counit(real):
    """A counit that returns the first point carrying mass instead of the
    meet of the support."""
    def crooked(A, P):
        if isinstance(A, cvx.SemiCvx):
            first = next(a for a, n in zip(P.space.atoms, P.num) if n)
            return P.space.subset_names(first)[0]
        return real(A, P)
    return crooked


def swapped_mu(PP):
    """A multiplication that swaps the first and last atom masses whenever
    the support has more than one measure (criterion 11's mutation)."""
    good = giry.mu(PP)
    if len(PP.support) > 1:
        m = list(good.mass)
        m[0], m[-1] = m[-1], m[0]
        return giry.FinDist(good.space, tuple(m))
    return good


def test_adjunction_mutation_self_check(monkeypatch, capsys):
    # the first-point counit must make the meet-of-support law fail
    monkeypatch.setattr(adj, "counit", first_point_counit(adj.counit))
    rep = run_suite("adjunction", {"maxPoints": 2, "maxSize": 3})
    assert not rep.ok
    assert {f.law for f in rep.failures} == {"adjunct.meet-of-support"}
    assert cli.main(["adjunction", "--max-points", "2", "--max-size", "3"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL adjunct.meet-of-support" in out
    assert "Traceback" not in err


# SHA-256 of the canonical report of two mutated runs, with the number of
# failures: the SMALL digests cover passing reports only, so these pin the
# failure witnesses themselves
FAILURE_DIGESTS = {
    "giry-monad": (845, "720dd6c4a952a021ca965b51b0ca74d1fdfbbc9ff918b2827107eccceea37c6f"),
    "adjunction": (96, "ceda3b0993d3b171232d7116fa2e22be6dde344d73645fb641e2f0d729abc7c3"),
}


def test_failure_witnesses_are_pinned(monkeypatch):
    rep = run_suite("giry-monad", {"maxPoints": 2}, mu_fn=swapped_mu)
    assert (len(rep.failures), report_digest(rep)) == \
        FAILURE_DIGESTS["giry-monad"]
    monkeypatch.setattr(adj, "counit", first_point_counit(adj.counit))
    rep = run_suite("adjunction", {"maxPoints": 2, "maxSize": 3})
    assert (len(rep.failures), report_digest(rep)) == \
        FAILURE_DIGESTS["adjunction"]
