"""Law-check reports with reproducible counterexample witnesses.

A pass with no detail is a count: a loop adds up its passing instances
in an integer and hands the total to `LawReport.count`, without naming
any of them.  `LawReport.record` is for an instance that failed or that
carries a `detail`; only such an instance has a name in the report.  A
witness is only read when its check fails, so `record` takes it either
as a value or as a zero-argument callable that it calls once, on
failure.  A `detail` is stored under the instance name, pass or fail,
and stays a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class Failure:
    law: str
    instance: str
    witness: object
    erratum_expected: bool = False

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "instance": self.instance,
            "witness": self.witness,
            "erratumExpected": self.erratum_expected,
        }


@dataclass
class LawReport:
    suite: str
    instances: int = 0
    failures: list[Failure] = field(default_factory=list)
    instance_index: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return self.instances - len(self.failures)

    @property
    def unexpected_failures(self) -> list[Failure]:
        return [f for f in self.failures if not f.erratum_expected]

    @property
    def ok(self) -> bool:
        return not self.unexpected_failures

    def count(self, n: int) -> None:
        """Add n passing instances that carry no detail.  A pass is only
        a count; `record` is for a failure or an instance with a detail."""
        self.instances += n

    def record(self, passed: bool, law: str, instance: str, witness=None,
               erratum_expected: bool = False, detail=None) -> None:
        self.instances += 1
        if detail is not None:
            self.instance_index[instance] = detail
        if not passed:
            if callable(witness):
                witness = witness()
            self.failures.append(
                Failure(law, instance, witness, erratum_expected))

    def merge(self, other: "LawReport", prefix: str = "") -> None:
        """Add the checks of `other`, with `prefix` in front of each of its
        instance names, in the failures and the index alike."""
        self.instances += other.instances
        self.failures.extend(replace(f, instance=prefix + f.instance)
                             for f in other.failures)
        self.instance_index.update((prefix + k, v)
                                   for k, v in other.instance_index.items())

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "passed": self.passed,
            "failures": sorted(
                (f.to_json() for f in self.failures),
                key=lambda d: (d["law"], d["instance"])),
            "instanceIndex": {k: self.instance_index[k]
                              for k in sorted(self.instance_index)},
        }
