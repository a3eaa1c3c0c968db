"""The `laws` workload in perfbench/ checks two suite reports against
recorded instance counts and digests; this runs the same checks in the
test suite, so a changed report shows here and not only in a benchmark
run.  The workload module is loaded read-only from its file."""

import importlib.util
from pathlib import Path

import pytest

from gcvx.suites import run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling cpuspeed.py as a top-level module
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location(
            "workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("index", [0, 1])
def test_law_suite_reports_match_the_workload_digests(workloads, index):
    spec = workloads.LAW_SUITES[index]
    data = run_suite(spec["suite"], spec["config"]).to_json()
    assert data["instances"] == spec["instances"]
    assert workloads.report_digest(data) == spec["digest"]
