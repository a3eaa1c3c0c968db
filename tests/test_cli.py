import json


from gcvx.cli import main


def test_suite_run_exits_zero(capsys):
    assert main(["lebesgue", "--samples", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "5/5 passed" in out


def test_errata_failures_do_not_fail_the_process(capsys):
    assert main(["errata"]) == 0
    out = capsys.readouterr().out
    assert "expected erratum" in out


def test_json_report_written(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["errata", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "errata"
    assert data["passed"] + len(data["failures"]) == data["instances"]
    assert all(f["erratumExpected"] for f in data["failures"])
    capsys.readouterr()


def test_unknown_suite_is_usage_error(capsys):
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    assert main(["lebesgue", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_tensor_subcommand(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text('{"points": ["a", "b"]}')
    right.write_text('{"points": ["x", "y"], "sigma": [[], ["x", "y"]]}')
    out = tmp_path / "tensor.json"
    assert main(["tensor", "--left", str(left), "--right", str(right),
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"tensorSigma", "productSigma", "strictlyLarger"}
    for member in data["productSigma"]:
        assert member in data["tensorSigma"]
    capsys.readouterr()


def test_explain_subcommand(capsys):
    assert main(["explain", "--suite", "errata", "--instance", "lshape"]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out
    assert main(["explain", "--suite", "errata",
                 "--instance", "not-a-ref"]) == 2
    capsys.readouterr()


def test_tensor_over_capacity_is_usage_error(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text('{"points": ["a", "b", "c", "d", "e"]}')
    right.write_text('{"points": ["v", "w", "x", "y", "z"]}')
    assert main(["tensor", "--left", str(left), "--right", str(right)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_run_that_checks_nothing_is_usage_error(capsys):
    assert main(["smcc", "--max-points", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no instances" in err


def test_detected_failure_exits_one(capsys):
    # a real (non-erratum) failure must fail the process; simulate by
    # running a suite whose config injects a corrupted integrator
    from gcvx.kernel import step_integrate
    from gcvx.suites import run_suite
    bad = lambda f: step_integrate(f) * 0
    rep = run_suite("lebesgue", {"samples": 3, "integrator": bad})
    assert not rep.ok
    from gcvx.cli import _emit
    assert _emit(rep, None) == 1
    capsys.readouterr()
