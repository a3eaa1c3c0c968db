import pytest

from gcvx.reports import LawReport


def test_witness_thunk_runs_only_on_failure():
    calls = []

    def raising():
        raise AssertionError("a passing check must not build its witness")

    def witness():
        calls.append(1)
        return ("lhs", "rhs")

    rep = LawReport("demo")
    rep.record(True, "law", "i0", witness=raising)
    rep.record(False, "law", "i1", witness=witness)
    assert calls == [1]
    assert rep.instances == 2 and rep.passed == 1
    assert rep.failures[0].witness == ("lhs", "rhs")
    with pytest.raises(AssertionError):
        rep.record(False, "law", "i2", witness=raising)



def test_count_adds_passes_without_names():
    rep = LawReport("demo")
    rep.count(3)
    rep.record(False, "law", "i0", witness="w")
    rep.record(True, "law", "i1", detail="input")
    assert (rep.instances, rep.passed) == (5, 4)
    assert [f.instance for f in rep.failures] == ["i0"]
    assert rep.instance_index == {"i1": "input"}
