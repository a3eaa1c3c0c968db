import argparse
import hashlib
import json

import pytest

from gcvx.cli import main
from gcvx.jsonio import space_to_json
from gcvx.suites import all_sigma_spaces

# SHA-256 over the exit code and stdout of every `gcvx tensor` run in
# test_tensor_output_is_pinned; a refactor of the measurable layer that
# keeps it keeps the tensor command's output byte-identical
TENSOR_DIGEST = "0efdb2d66081122b56466cc6f5f59fe6370bf03e75427bf07dd2bc3b24475fe1"


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
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")  # not a JSON object
    assert main(["lebesgue", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["errata", "--config", "{dir}"],
    ["errata", "--json", "{dir}"],
    ["tensor", "--left", "{dir}", "--right", "{dir}"],
], ids=["config", "json", "tensor-left"])
def test_directory_path_is_usage_error(tmp_path, capsys, argv):
    # a directory where a file is expected raises IsADirectoryError, an
    # OSError; it must read as bad input, not as a law failure (exit 1)
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_space_file_is_usage_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"points": ["a"]}')
    bad = tmp_path / "bad.json"
    for text in ('["a", "b"]', '{"points": [["a"], "b"]}',
                 '{"points": ["a"], "sigma": [5]}',
                 '{"points": ["a"], "generators": "a"}'):
        bad.write_text(text)
        assert main(["tensor", "--left", str(bad), "--right", str(good)]) == 2
        assert main(["tensor", "--left", str(good), "--right", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 8 and all(line.startswith("error: ") for line in err)


def test_mutation_hooks_are_not_config_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    for suite, hook in (("giry-monad", "mu_fn"), ("lebesgue", "integrator"),
                        ("algebra-roundtrip", "structure_map_twist")):
        config.write_text(f'{{"{hook}": 1, "samples": 3}}')
        assert main([suite, "--config", str(config), "--max-points", "1",
                     "--max-size", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key") and hook in err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"sampels": 3}')
    assert main(["lebesgue", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown config key") \
        and "sampels" in captured.err
    config.write_text('{"samples": 3}')
    assert main(["lebesgue", "--config", str(config)]) == 0
    assert "3/3 passed" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["2.7", "true", '"2"'])
def test_non_integer_config_value_is_usage_error(tmp_path, capsys, value):
    config = tmp_path / "config.json"
    config.write_text(f'{{"maxPoints": {value}}}')
    assert main(["smcc", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config value") \
        and "maxPoints" in captured.err


@pytest.mark.parametrize("suite, config", [
    ("giry-monad", {"maxPoints": 1, "maxSupport": 0}),
    ("giry-monad", {"maxPoints": 1, "maxSupport": -3}),
    ("convex-axioms", {"maxSize": 0}),
    ("algebra-roundtrip", {"maxSize": 0}),
    ("adjunction", {"maxPoints": 1, "maxSize": 0}),
    ("lebesgue", {"samples": 0}),
])
def test_config_bound_below_one_is_usage_error(tmp_path, capsys, suite,
                                               config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([suite, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    low = [k for k, v in config.items() if v < 1]
    assert captured.out == ""
    assert captured.err.startswith(f"error: config value(s) of {low} "
                                   f"must be at least 1")


def test_negative_seed_is_accepted(capsys):
    assert main(["lebesgue", "--samples", "2", "--seed", "-7"]) == 0
    assert "2/2 passed" in capsys.readouterr().out


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    main(["lebesgue", "--samples", "1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["lebesgue", "--samples", "1"]) == 0
    assert built == []
    capsys.readouterr()


def test_repeated_calls_stay_independent(capsys):
    assert main(["--bogus"]) == 2
    capsys.readouterr()
    assert main(["lebesgue", "--samples", "2"]) == 0
    assert "suite lebesgue: 2/2 passed" in capsys.readouterr().out
    assert main(["lebesgue"]) == 0
    assert "suite lebesgue: 100/100 passed" in capsys.readouterr().out


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
    # running a suite with a corrupted integrator
    from gcvx.kernel import step_integrate
    from gcvx.suites import run_suite
    bad = lambda f: step_integrate(f) * 0
    rep = run_suite("lebesgue", {"samples": 3}, integrator=bad)
    assert not rep.ok
    from gcvx.cli import _emit
    assert _emit(rep, None) == 1
    capsys.readouterr()


def test_tensor_output_is_pinned(tmp_path, capsys):
    files = []
    for n in (1, 2, 3):
        for k, X in enumerate(all_sigma_spaces(tuple("abc"[:n]))):
            files.append((f"s{n}-{k}.json", space_to_json(X)))
    pairs = [(a, b) for a, _ in files for b, _ in files]
    files.append(("generators.json", {"points": ["p", "q", "r", "s"],
                                      "generators": [["p", "q"], ["q"]]}))
    files.append(("discrete.json", {"points": ["x", "y"]}))
    pairs += [("generators.json", "discrete.json"),
              ("discrete.json", "generators.json")]
    for name, data in files:
        (tmp_path / name).write_text(json.dumps(data))
    digest = hashlib.sha256()
    for a, b in pairs:
        code = main(["tensor", "--left", str(tmp_path / a),
                     "--right", str(tmp_path / b)])
        digest.update(f"{a} {b} {code}\n{capsys.readouterr().out}".encode())
    assert len(pairs) == 66
    assert digest.hexdigest() == TENSOR_DIGEST
