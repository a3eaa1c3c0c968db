"""The per-layer tracer in perfbench/ names gcvx functions by module and
attribute; a rename in gcvx would silently turn its metrics absent."""

import importlib
import importlib.util
from pathlib import Path

from gcvx.measurable import generate_sigma

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    targets = load_layertrace().TARGETS
    assert targets
    for modname, attr, name, _hot, _observe in targets:
        owner = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # a method must be defined on its own class, as the tracer wraps it
        found = owner.__dict__.get(leaf) if path else getattr(owner, leaf, None)
        assert callable(found), name


def test_generate_sigma_result_exposes_members():
    # the members_out counter reads len(result.sigma)
    assert len(generate_sigma(("a", "b", "c"), [("a",)]).sigma) == 4
