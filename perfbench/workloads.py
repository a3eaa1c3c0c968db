"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

A pass is the unit a user waits for: the law suite runs (`laws`) or one
stream of requests (`tensor`, `polytope`).  Inputs are made before the
clock starts.  Every output is checked here, independently of the code
that produced it, and each failed check, digest mismatch or exception
counts against the pass.

The module drives gcvx only through its stable surfaces: `run_suite` and
its report, `cli.main`, and the public functions the acceptance and
convex tests call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time
from fractions import Fraction

from gcvx import adjunction as adj
from gcvx import cli
from gcvx import convex as cvx
from gcvx import suites

import cpuspeed

# laws: one pass runs both suites below, each one job.  giry-monad is
# mu-heavy (mu, flatten_oracle, FinDist.measure, describe strings);
# adjunction is pushforward- and grid-heavy (grid_dists rebuilt per hom,
# counit, semilattice and Boolean-subobject enumeration).  At maxSize 4 the
# adjunction suite is dominated by giry.wa_check instead, or takes 22 s.
# Both are exhaustive, so the seed is unused.  `instances` and `digest` were
# taken at the commit that introduced the benchmark; the digest covers only
# the report fields named in DIGEST_FIELDS, so fields a later report format
# adds do not read as failures.
LAW_SUITES = (
    {
        "suite": "giry-monad",
        "config": {"maxPoints": 3, "maxSupport": 2},
        "instances": 16148,
        "digest": "66b873db67bf869c27c04b166c6a25471efa7359d0102c2cb8833fc1c90d77da",
    },
    {
        "suite": "adjunction",
        "config": {"maxPoints": 3, "maxSize": 3},
        "instances": 5157,
        "digest": "bc7c0916e73455b32984537d75116b16e4cf6df7926a6bd18b1fc7bced4cce04",
    },
)
DIGEST_FIELDS = ("instances", "passed", "failures", "instanceIndex")

# tensor: TENSOR_DRAWS random space pairs for every pair of partition shapes
# on 1-4 points whose product carrier has at most TENSOR_CARRIER_CAP points,
# and one pair when both factors are discrete (a discrete space has one
# sigma-algebra, so a second draw would only relabel it).  A 4x4 pair costs
# minutes at the seed commit, which is why the cap is 12.  With two draws
# the eleventh-slowest request of a pass falls among the twelve 3x4 pairs
# with a discrete left and a non-discrete right factor, whose costs are
# close, rather than on the edge between two cost classes.
PARTITION_SHAPES = {
    1: ((1,),),
    2: ((1, 1), (2,)),
    3: ((1, 1, 1), (2, 1), (3,)),
    4: ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)),
}
TENSOR_CARRIER_CAP = 12
TENSOR_DRAWS = 2

# polytope: per pass, POLYTOPE_DRAWS random dyadic polytopes for every
# dimension and generator count below, each with these queries.  Fixed
# strata keep the mix of LP sizes the same from seed to seed.
POLYTOPE_DIMS = (1, 2, 3, 4, 5, 6)
POLYTOPE_GEN_COUNTS = (2, 4, 6, 8, 10, 12, 14, 16)
POLYTOPE_DRAWS = 2
POLYTOPE_COMBINE_SIZES = (2, 3)  # one in-hull combination of each size
POLYTOPE_MEMBER_PROBES = 2
POLYTOPE_SEPARATIONS = 1
DYADIC_DEN = 16

# Units of calibration work (cpuspeed.py) run before each job: a few per
# cent of a pass on the request streams, about 60 ms around each suite.
LAWS_CAL_UNITS = 250
TENSOR_CAL_UNITS = 6
POLYTOPE_CAL_UNITS = 2


# ---------------------------------------------------------------------------
# helpers


def _canon(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    return repr(obj)


def report_digest(data: dict) -> str:
    """SHA-256 over the stable fields of a report's `to_json()`."""
    core = {k: data[k] for k in DIGEST_FIELDS}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"),
                      default=_canon)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Pass:
    """Tallies one pass: job latencies, checked / attempted / failed, and
    the calibration slices run between jobs (see cpuspeed.py)."""

    def __init__(self, cal_units: int):
        self.cal_units = cal_units
        self.cal_s: list[float] = []
        self.segments_s: list[float] = []
        self.latencies_ms: list[float] = []
        self.checked = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._mark = 0.0

    def calibrate(self) -> None:
        """Run a calibration slice; the time since the previous slice is one
        job's segment (the job and its checks)."""
        now = time.perf_counter()
        if self.cal_s:
            self.segments_s.append(now - self._mark)
        self.cal_s.append(cpuspeed.slice_s(self.cal_units))
        self._mark = time.perf_counter()

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def to_json(self) -> dict:
        """`verdict_s` and `latencies_ms` at the reference CPU speed: each
        job's segment and latency adjusted by the slowdown next to it."""
        self.calibrate()
        factors = cpuspeed.job_factors(self.cal_s, self.cal_units)
        verdict_raw_s = sum(self.segments_s)
        verdict_s = sum(cpuspeed.adjust(t, f)
                        for t, f in zip(self.segments_s, factors))
        slowdown = cpuspeed.slowdown(sum(self.cal_s),
                                     self.cal_units * len(self.cal_s))
        return {"verdict_s": verdict_s, "verdict_raw_s": verdict_raw_s,
                "slowdown": slowdown,
                "latencies_ms": [cpuspeed.adjust(t, f) for t, f in
                                 zip(self.latencies_ms, factors)],
                "checked": self.checked, "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors}


def _labels(rng: random.Random, n: int) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        name = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz")
                       for _ in range(rng.randrange(1, 4)))
        if name not in out:
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# inputs


def _space_json(rng: random.Random, shape) -> dict:
    """A random sigma-algebra whose atoms have the given sizes, in one of
    the JSON forms `gcvx tensor` accepts."""
    points = _labels(rng, sum(shape))
    order = points[:]
    rng.shuffle(order)
    blocks, i = [], 0
    for size in shape:
        blocks.append(order[i:i + size])
        i += size
    forms = ["sigma", "generators"]
    if all(size == 1 for size in shape):
        forms.append("discrete")
    form = rng.choice(forms)
    if form == "discrete":
        return {"points": points}
    if form == "generators":
        gens = [b[:] for b in blocks]
        rng.shuffle(gens)
        return {"points": points, "generators": gens}
    sigma = []
    for r in range(len(blocks) + 1):
        for combo in itertools.combinations(blocks, r):
            member = [p for b in combo for p in b]
            rng.shuffle(member)
            sigma.append(member)
    rng.shuffle(sigma)
    return {"points": points, "sigma": sigma}


def tensor_requests(seed: int) -> list[tuple[dict, dict]]:
    """TENSOR_DRAWS (left, right) space pairs per pair of partition shapes
    (one if both are discrete), drawn at random within each shape and put
    in a seeded order."""
    rng = random.Random(f"tensor:{seed}")
    pairs = []
    for n, m in itertools.product(PARTITION_SHAPES, repeat=2):
        if n * m > TENSOR_CARRIER_CAP:
            continue
        for a, b in itertools.product(PARTITION_SHAPES[n], PARTITION_SHAPES[m]):
            discrete = max(a) == 1 and max(b) == 1
            for _ in range(1 if discrete else TENSOR_DRAWS):
                pairs.append((_space_json(rng, a), _space_json(rng, b)))
    rng.shuffle(pairs)
    return pairs


def _dyadic_point(rng: random.Random, dim: int, lo: int, hi: int):
    return tuple(Fraction(rng.randrange(lo, hi + 1), DYADIC_DEN)
                 for _ in range(dim))


def _dyadic_weights(rng: random.Random, k: int) -> list[Fraction]:
    """k positive dyadic weights summing to one."""
    cuts = sorted(rng.sample(range(1, DYADIC_DEN), k - 1))
    bounds = [0] + cuts + [DYADIC_DEN]
    return [Fraction(b - a, DYADIC_DEN) for a, b in zip(bounds, bounds[1:])]


def polytope_queries(seed: int) -> list[dict]:
    """Random dyadic polytopes, stratified over dimension and generator
    count, each with in-hull combinations, random membership probes and
    generator separations, put in a seeded order."""
    rng = random.Random(f"polytope:{seed}")
    queries = []
    strata = itertools.product(POLYTOPE_DIMS, POLYTOPE_GEN_COUNTS,
                               range(POLYTOPE_DRAWS))
    for dim, count, _ in strata:
        gens: list[tuple] = []
        while len(gens) < count:
            g = _dyadic_point(rng, dim, 0, DYADIC_DEN)
            if g not in gens:
                gens.append(g)
        for k in POLYTOPE_COMBINE_SIZES:
            k = min(k, count)
            weights = _dyadic_weights(rng, k)
            points = [gens[i] for i in rng.sample(range(count), k)]
            expect = tuple(
                sum((w * p[d] for w, p in zip(weights, points)), Fraction(0))
                for d in range(dim))
            queries.append({"kind": "combine", "dim": dim, "gens": gens,
                            "weights": weights, "points": points,
                            "expect": expect})
        for _ in range(POLYTOPE_MEMBER_PROBES):
            point = _dyadic_point(rng, dim, -DYADIC_DEN // 4,
                                  DYADIC_DEN + DYADIC_DEN // 4)
            queries.append({"kind": "member", "dim": dim, "gens": gens,
                            "point": point})
        for _ in range(POLYTOPE_SEPARATIONS):
            i, j = rng.sample(range(count), 2)
            queries.append({"kind": "separate", "dim": dim, "gens": gens,
                            "a": gens[i], "b": gens[j]})
    rng.shuffle(queries)
    return queries


def make_inputs(workload: str, seed: int, workdir: str):
    """Everything a pass needs, made before timing starts."""
    if workload == "laws":
        return LAW_SUITES
    if workload == "tensor":
        os.makedirs(workdir, exist_ok=True)
        argvs = []
        for i, (left, right) in enumerate(tensor_requests(seed)):
            paths = []
            for side, data in (("L", left), ("R", right)):
                path = os.path.join(workdir, f"t{i}{side}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                paths.append(path)
            argvs.append(["tensor", "--left", paths[0], "--right", paths[1]])
        return argvs
    if workload == "polytope":
        queries = polytope_queries(seed)
        spaces: dict[tuple, cvx.GeomCvx] = {}
        for q in queries:
            key = (q["dim"], tuple(q["gens"]))
            if key not in spaces:
                spaces[key] = cvx.GeomCvx.of(q["dim"], q["gens"])
            q["space"] = spaces[key]
        return queries
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# passes and checks


def _run_laws_pass(specs) -> dict:
    tally = Pass(LAWS_CAL_UNITS)
    for spec in specs:
        tally.calibrate()
        tally.attempted += spec["instances"]
        t0 = time.perf_counter()
        try:
            report = suites.run_suite(spec["suite"], spec["config"])
            tally.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            data = report.to_json()
        except Exception as exc:  # a crashed suite loses every check in it
            if len(tally.latencies_ms) < len(tally.cal_s):
                tally.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            tally.fail(f"{spec['suite']} raised {exc!r}", spec["instances"])
            continue
        tally.checked += data["instances"]
        unexpected = [f for f in data["failures"] if not f["erratumExpected"]]
        if unexpected:
            first = unexpected[0]
            tally.fail(f"{spec['suite']}: {len(unexpected)} unexpected "
                       f"failures, first {first['law']} @ {first['instance']}",
                       len(unexpected))
        if data["instances"] != spec["instances"]:
            tally.fail(f"{spec['suite']}: {data['instances']} instances, "
                       f"expected {spec['instances']}")
        if report_digest(data) != spec["digest"]:
            tally.fail(f"{spec['suite']}: report digest differs from the "
                       f"recorded one")
    return tally.to_json()


def _check_tensor(out: str) -> str | None:
    """None if the `gcvx tensor` output is right, else what is wrong."""
    data = json.loads(out)
    tensor = {frozenset(s) for s in data["tensorSigma"]}
    product = {frozenset(s) for s in data["productSigma"]}
    if not product <= tensor:
        return "product sigma is not contained in the tensor sigma"
    for family in (tensor, product):
        size = len(family)
        if size < 2 or size & (size - 1):
            return f"a sigma-algebra of {size} members"
    if data["strictlyLarger"] != (product < tensor):
        return "strictlyLarger disagrees with the two sigma-algebras"
    return None


def _product_atoms(argv) -> int:
    """Atoms of the product sigma-algebra: the products of the factors'
    atoms, counted from the request files alone."""
    total = 1
    for path in (argv[2], argv[4]):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        points = data["points"]
        family = data.get("sigma", data.get("generators"))
        if family is None:
            total *= len(points)
            continue
        profiles = {tuple(p in set(m) for m in family) for p in points}
        total *= len(profiles)
    return total


def _run_tensor_pass(argvs) -> dict:
    tally = Pass(TENSOR_CAL_UNITS)
    expected = [_product_atoms(argv) for argv in argvs]
    for argv, atoms in zip(argvs, expected):
        tally.calibrate()
        tally.attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:
            tally.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            tally.fail(f"tensor {argv[2]} raised {exc!r}")
            continue
        tally.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        if code != 0:
            tally.fail(f"tensor {argv[2]} exited {code}")
            continue
        try:
            problem = _check_tensor(buf.getvalue())
            if problem is None and \
                    len(json.loads(buf.getvalue())["productSigma"]) != 1 << atoms:
                problem = f"product sigma should have 2^{atoms} members"
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            tally.fail(f"tensor {argv[2]}: {problem}")
        else:
            tally.checked += 1
    return tally.to_json()


def _dot(c, p) -> Fraction:
    return sum((ci * pi for ci, pi in zip(c, p)), Fraction(0))


def check_membership(gens, p, ok, cert) -> str | None:
    """Check a `hull_member` answer on its own terms: barycentric weights
    are nonnegative, sum to one and reproduce p; a Farkas normal (c, t)
    has c.g <= t for every generator g and t < c.p."""
    if ok:
        w = list(cert)
        if len(w) != len(gens) or any(x < 0 for x in w) or sum(w) != 1:
            return "barycentric weights are not a probability vector"
        combo = tuple(sum((wi * g[d] for wi, g in zip(w, gens)), Fraction(0))
                      for d in range(len(p)))
        if combo != tuple(p):
            return "barycentric weights do not reproduce the point"
        return None
    c, t = cert
    if any(_dot(c, g) > t for g in gens):
        return "Farkas normal does not bound every generator"
    if not t < _dot(c, p):
        return "Farkas normal does not cut off the point"
    return None


def _polytope_call(q):
    """The gcvx calls of one polytope query; this is what is timed."""
    A = q["space"]
    if q["kind"] == "combine":
        fns = cvx.geom_spanning_functionals(A)
        identity = adj.eval_hull_identity(A, q["weights"], q["points"], fns)
        return identity, cvx.hull_member(A, q["expect"])
    if q["kind"] == "member":
        return cvx.hull_member(A, q["point"])
    return cvx.separate_points(A, q["a"], q["b"])


def _polytope_check(q, out) -> str | None:
    gens = q["space"].generators
    if q["kind"] == "combine":
        identity, (ok, cert) = out
        if not identity["passed"]:
            return "evaluation is not affine on the combination"
        if tuple(Fraction(x) for x in identity["point"]) != q["expect"]:
            return "combined point differs from the weighted sum"
        if not ok:
            return "a convex combination of generators is outside the hull"
        return check_membership(gens, q["expect"], ok, cert)
    if q["kind"] == "member":
        ok, cert = out
        return check_membership(gens, q["point"], ok, cert)
    if not (out.contains(q["b"]) and not out.contains(q["a"])):
        return "the halfspace does not separate the two generators"
    return None


def _run_polytope_pass(queries) -> dict:
    tally = Pass(POLYTOPE_CAL_UNITS)
    for q in queries:
        tally.calibrate()
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = _polytope_call(q)
        except Exception as exc:
            tally.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            tally.fail(f"{q['kind']} in dimension {q['dim']} raised {exc!r}")
            continue
        tally.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        try:
            problem = _polytope_check(q, out)
        except (ValueError, TypeError) as exc:
            problem = f"unreadable answer: {exc!r}"
        if problem:
            tally.fail(f"{q['kind']} in dimension {q['dim']}: {problem}")
        else:
            tally.checked += 1
    return tally.to_json()


def run_pass(workload: str, inputs) -> dict:
    """Run one timed pass and check its outputs.

    `verdict_s` runs from inputs ready to the last checked output, less
    the calibration slices, at the reference CPU speed; a pass that checked
    nothing counts as failed."""
    if workload == "laws":
        out = _run_laws_pass(inputs)
    elif workload == "tensor":
        out = _run_tensor_pass(inputs)
    elif workload == "polytope":
        out = _run_polytope_pass(inputs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if out["checked"] == 0 and out["failed"] == 0:
        out["attempted"] = max(out["attempted"], 1)
        out["failed"] = out["attempted"]
        out["errors"].append("the pass checked nothing")
    return out
