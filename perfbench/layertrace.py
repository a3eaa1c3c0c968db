"""Per-layer tracing from outside the program.

`Tracer.install` wraps the gcvx functions in TARGETS wherever gcvx binds
them: the defining module, every other gcvx module that imported the name
(suites import by name), and any gcvx function default that holds it.
Methods and constructors are wrapped on their class.  Each call adds to
its name's count, total time and self time (total minus the time of the
wrapped calls it made).  Calls of names that are not `hot` also keep a
span (id, parent id, name, start, end) in memory, up to SPAN_CAP, which
`write_spans` writes out after the pass.  A target that no longer exists is
listed in `absent`, so its metrics read as absent rather than zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPAN_CAP = 20000


def _count_len(key):
    def observe(counters, args, result):
        counters[key] = counters.get(key, 0) + len(result)
    return observe


def _count_members(key):
    def observe(counters, args, result):
        counters[key] = counters.get(key, 0) + len(result.sigma)
    return observe


def _distinct_first_arg(key):
    def observe(counters, args, result):
        counters.setdefault(key, set()).add(args[0])
    return observe


def _count_infeasible(counters, args, result):
    if result.get("status") == "infeasible":
        counters["exactlp.solve_eq_nonneg.infeasible"] = \
            counters.get("exactlp.solve_eq_nonneg.infeasible", 0) + 1


# (module, attribute, metric name, hot, observer): `hot` names keep no
# spans, only counts and times; an observer fills the work counters.
TARGETS = (
    ("gcvx.measurable", "FinMeasSpace.__init__", "measurable.FinMeasSpace", True, None),
    ("gcvx.measurable", "MeasFn.__init__", "measurable.MeasFn", True, None),
    ("gcvx.measurable", "enumerate_meas_fns", "measurable.enumerate_meas_fns", False,
     _count_len("measurable.enumerate_meas_fns.maps_out")),
    ("gcvx.measurable", "coinduced_sigma", "measurable.coinduced_sigma", False, None),
    ("gcvx.measurable", "induced_sigma", "measurable.induced_sigma", False, None),
    ("gcvx.measurable", "generate_sigma", "measurable.generate_sigma", False,
     _count_members("measurable.generate_sigma.members_out")),
    ("gcvx.measurable", "is_separated", "measurable.is_separated", False, None),
    ("gcvx.giry", "FinDist.__init__", "giry.FinDist", True, None),
    ("gcvx.giry", "FinDist.measure", "giry.FinDist.measure", True, None),
    ("gcvx.giry", "FinDist.describe", "giry.describe", True, None),
    ("gcvx.giry", "DistOverDists.__init__", "giry.DistOverDists", True, None),
    ("gcvx.giry", "DistOverDists.describe", "giry.describe", True, None),
    ("gcvx.giry", "dirac", "giry.dirac", True, None),
    ("gcvx.giry", "mu", "giry.mu", True, None),
    ("gcvx.giry", "flatten_oracle", "giry.flatten_oracle", True, None),
    ("gcvx.giry", "pushforward", "giry.pushforward", True, None),
    ("gcvx.giry", "grid_dists", "giry.grid_dists", False,
     _distinct_first_arg("giry.grid_dists.distinct")),
    ("gcvx.giry", "two_level_dists", "giry.two_level_dists", False, None),
    ("gcvx.giry", "map_unit", "giry.map_unit", True, None),
    ("gcvx.giry", "push_outer", "giry.push_outer", True, None),
    ("gcvx.giry", "flatten_outer", "giry.flatten_outer", True, None),
    ("gcvx.giry", "map_mu", "giry.map_mu", True, None),
    ("gcvx.giry", "monad_law_report", "giry.monad_law_report", False, None),
    ("gcvx.giry", "measure_to_functional", "giry.measure_to_functional", True, None),
    ("gcvx.giry", "functional_to_measure", "giry.functional_to_measure", True, None),
    ("gcvx.giry", "wa_check", "giry.wa_check", True, None),
    ("gcvx.smcc", "tensor_space", "smcc.tensor_space", False, None),
    ("gcvx.smcc", "product_space", "smcc.product_space", False, None),
    ("gcvx.exactlp", "solve_eq_nonneg", "exactlp.solve_eq_nonneg", False,
     _count_infeasible),
    ("gcvx.convex", "SemiCvx.__init__", "convex.SemiCvx", True, None),
    ("gcvx.convex", "hull_member", "convex.hull_member", False, None),
    ("gcvx.convex", "combine_many", "convex.combine_many", False, None),
    ("gcvx.convex", "separate_points", "convex.separate_points", False, None),
    ("gcvx.convex", "geom_spanning_functionals", "convex.geom_spanning_functionals",
     False, None),
    ("gcvx.convex", "enumerate_semilattices", "convex.enumerate_semilattices",
     False, None),
    ("gcvx.convex", "all_boolean_subobjects", "convex.all_boolean_subobjects",
     False, None),
    ("gcvx.adjunction", "sigma_functor", "adjunction.sigma_functor", False,
     _distinct_first_arg("adjunction.sigma_functor.distinct")),
    ("gcvx.adjunction", "counit", "adjunction.counit", True, None),
    ("gcvx.adjunction", "adjunct_inverse", "adjunction.adjunct_inverse", True, None),
    ("gcvx.adjunction", "triangle_check", "adjunction.triangle_check", False, None),
    ("gcvx.adjunction", "eval_hull_identity", "adjunction.eval_hull_identity",
     False, None),
    ("gcvx.reports", "LawReport.record", "reports.record", True, None),
    ("gcvx.reports", "LawReport.merge", "reports.merge", False, None),
    ("gcvx.reports", "LawReport.to_json", "reports.to_json", False, None),
    ("gcvx.jsonio", "load_json", "jsonio.load_json", False, None),
    ("gcvx.jsonio", "space_from_json", "jsonio.space_from_json", False, None),
    ("gcvx.cli", "main", "cli.main", False, None),
    ("gcvx.suites", "run_suite", "suites.run_suite", False, None),
)

LAYERS = ("measurable", "giry", "smcc", "exactlp", "convex", "adjunction",
          "reports", "jsonio", "cli", "suites")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, object] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack = [[0, None]]                # frames: [child_ns, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, name, fn, hot, observe):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            span_id = None
            if not hot:
                span_id = self._next_id
                self._next_id += 1
            frame = [0, span_id if span_id is not None else parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if span_id is not None and len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, t0, t1))
            if observe is not None:
                observe(self.counters, args, result)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gcvx" or n.startswith("gcvx.")]
        functions = list(_gcvx_functions(modules))
        wrappers = {}                            # id(original) -> wrapper
        found = set()
        for modname, attr, name, hot, observe in targets:
            self.stats.setdefault(name, [0, 0, 0])
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                continue
            found.add(name)
            wrapper = self.wrap(name, original, hot, observe)
            wrappers[id(original)] = wrapper
            if path:
                self._set(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self.absent = sorted(set(self.stats) - found)
        for fn in functions:
            defaults = fn.__defaults__
            if defaults and any(id(d) in wrappers for d in defaults):
                self._set(fn, "__defaults__",
                          tuple(wrappers.get(id(d), d) for d in defaults))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of one pass; None marks an absent target."""
        out: dict[str, float | None] = {}
        for name, (calls, _total, self_ns) in self.stats.items():
            gone = name in self.absent
            out[f"{name}.calls"] = None if gone else calls
            out[f"{name}.self_s"] = None if gone else self_ns / 1e9
        c = self.counters

        def count(key, fn_name):
            return None if fn_name in self.absent else c.get(key, 0)

        def ratio(num, den_name):
            den = self.stats[den_name][0]
            if den_name in self.absent:
                return None
            return num / den if den else 0.0

        out["measurable.enumerate_meas_fns.maps_out"] = count(
            "measurable.enumerate_meas_fns.maps_out",
            "measurable.enumerate_meas_fns")
        out["measurable.generate_sigma.members_out"] = count(
            "measurable.generate_sigma.members_out", "measurable.generate_sigma")
        out["giry.grid_dists.distinct_ratio"] = ratio(
            len(c.get("giry.grid_dists.distinct", ())), "giry.grid_dists")
        out["adjunction.sigma_functor.distinct_ratio"] = ratio(
            len(c.get("adjunction.sigma_functor.distinct", ())),
            "adjunction.sigma_functor")
        out["exactlp.solve_eq_nonneg.infeasible_ratio"] = ratio(
            c.get("exactlp.solve_eq_nonneg.infeasible", 0),
            "exactlp.solve_eq_nonneg")
        total = sum(s[2] for s in self.stats.values())
        for layer in LAYERS:
            own = sum(s[2] for n, s in self.stats.items()
                      if n.split(".", 1)[0] == layer)
            out[f"layer.{layer}.self_s"] = own / 1e9
            out[f"layer.{layer}.share"] = own / total if total else 0.0
        out["traced.self_s"] = total / 1e9
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans, "absent": self.absent,
                       "stats": self.stats}, fh)
            fh.write("\n")


def _gcvx_functions(modules):
    seen = set()
    for mod in modules:
        for value in vars(mod).values():
            members = [value]
            if isinstance(value, type) and value.__module__.startswith("gcvx"):
                members = list(vars(value).values())
            for fn in members:
                if isinstance(fn, (classmethod, staticmethod)):
                    fn = fn.__func__
                if (getattr(fn, "__module__", "") or "").startswith("gcvx") \
                        and hasattr(fn, "__defaults__") and id(fn) not in seen:
                    seen.add(id(fn))
                    yield fn
