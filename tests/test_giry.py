import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcvx import giry
from gcvx.convex import EndoI, SemiCvx
from gcvx.giry import (
    DistOverDists,
    FinDist,
    dirac,
    flatten_oracle,
    flatten_outer,
    grid_dists,
    grid_weightings,
    map_mu,
    map_unit,
    measure_to_functional,
    mix_dists,
    monad_law_report,
    mu,
    push_outer,
    pushforward,
    two_level_dists,
    unit_outer,
    wa_check,
    functional_to_measure,
)
from gcvx.kernel import DomainError, ONE, ZERO
from gcvx.measurable import FinMeasSpace, MeasFn, enumerate_meas_fns
from gcvx.reports import LawReport
from gcvx.suites import all_sigma_spaces, run_suite
from test_suites import swapped_mu

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def disc(n):
    return FinMeasSpace.discrete(tuple("abc"[:n]))


def test_findist_validation():
    X = disc(2)
    with pytest.raises(DomainError):
        FinDist(X, (HALF,))  # wrong arity
    with pytest.raises(DomainError):
        FinDist(X, (HALF, QUARTER))  # does not sum to 1
    with pytest.raises(DomainError):
        FinDist(X, (Fraction(3, 2), Fraction(-1, 2)))  # negative mass


def test_integer_form_is_canonical():
    X = disc(3)
    P = FinDist(X, (QUARTER, HALF, QUARTER))
    Q = FinDist(X, (6, 12, 6), 24)  # not reduced
    assert P == Q
    assert hash(P) == hash(Q)
    assert P.mass == Q.mass == (QUARTER, HALF, QUARTER)
    assert (Q.num, Q.den) == ((1, 2, 1), 4)
    assert FinDist(X, (0, 3, 0), 3) == dirac(X, "b")


def test_integer_form_validation():
    X = disc(2)
    for num, den in (((1,), 1),            # wrong arity
                     ((3, -1), 2),         # negative numerator
                     ((1, 1), 3),          # does not sum to den
                     ((0, 0), 0),          # zero denominator
                     ((-1, -1), -2),       # negative denominator
                     ((HALF, HALF), 1)):   # not integers
        with pytest.raises(DomainError):
            FinDist(X, num, den)


def random_measure(rng, X):
    den = rng.randrange(1, 13)
    first = rng.randrange(den + 1)
    second = rng.randrange(den - first + 1)
    return FinDist(X, (first, second, den - first - second), den)


def test_cached_hash_agrees_across_constructions():
    # rational masses, integer numerators and a mu / pushforward result
    X = disc(3)
    by_mass = FinDist(X, (QUARTER, HALF, QUARTER))
    by_ints = FinDist(X, (2, 4, 2), 8)
    by_mu = mu(DistOverDists.of(X, [(QUARTER, dirac(X, "a")),
                                    (HALF, dirac(X, "b")),
                                    (QUARTER, dirac(X, "c"))]))
    by_push = pushforward(MeasFn(X, X, (1, 0, 2)),
                          FinDist(X, (HALF, QUARTER, QUARTER)))
    ways = [by_mass, by_ints, by_mu, by_push]
    assert len({hash(P) for P in ways}) == 1
    for P in ways:
        table = {Q: i for i, Q in enumerate(ways) if Q is not P}
        assert P in table and len(table) == 1
    # the cache is not a field: equality, fields and repr are as before
    assert [f.name for f in dataclasses.fields(FinDist)] == \
        ["space", "num", "den"]
    assert repr(by_mu) == repr(FinDist(X, (1, 2, 1), 4))
    assert "_hash" not in repr(by_mu)


def test_empty_three_level_measure_is_a_domain_error_for_flatten_outer():
    with pytest.raises(DomainError, match="nonempty"):
        flatten_outer(())


def test_empty_three_level_measure_is_a_domain_error_for_map_mu():
    with pytest.raises(DomainError, match="nonempty"):
        map_mu(())


def test_zero_outer_weight_drops_on_both_sides_of_associativity():
    X = disc(2)
    PPa = DistOverDists.of(X, [(HALF, dirac(X, "a")), (HALF, dirac(X, "b"))])
    PPb = unit_outer(FinDist(X, (QUARTER, 1 - QUARTER)))  # not in PPa
    PPP = ((ONE, PPa), (ZERO, PPb))
    assert flatten_outer(PPP) == PPa
    assert map_mu(PPP) == unit_outer(mu(PPa))
    assert mu(flatten_outer(PPP)) == mu(map_mu(PPP))
    # the same weights as integer numerators over a den
    PPP = ((3, PPa), (0, PPb))
    assert flatten_outer(PPP, den=3) == PPa
    assert map_mu(PPP, den=3) == unit_outer(mu(PPa))


def test_negative_outer_weight_is_a_domain_error_even_when_it_merges():
    X = disc(2)
    PP = unit_outer(FinDist(X, (QUARTER, 1 - QUARTER)))
    PPP = ((-ONE, PP), (2 * ONE, PP))  # merges to weight 1 on PP
    with pytest.raises(DomainError, match="nonnegative"):
        flatten_outer(PPP)
    with pytest.raises(DomainError, match="nonnegative"):
        map_mu(PPP)
    PPP = ((-1, PP), (2, PP))  # the same, as numerators over 1
    for entry in (flatten_outer, map_mu):
        with pytest.raises(DomainError, match="nonnegative"):
            entry(PPP, den=1)


def test_support_order_is_that_of_the_fraction_tuples():
    def fraction_tuple(q):
        return tuple(Fraction(n, q.den) for n in q.num)

    rng = random.Random(2017)
    X = disc(3)
    for _ in range(300):
        qs = [random_measure(rng, X) for _ in range(rng.randrange(1, 6))]
        raw = [rng.randrange(1, 10) for _ in qs]
        PP = DistOverDists.of(X, [(Fraction(r, sum(raw)), q)
                                  for r, q in zip(raw, qs)])
        assert list(PP.support) == sorted(set(qs), key=fraction_tuple)
        assert mu(PP) == flatten_oracle(PP)
        other = DistOverDists.of(X, [(ONE, random_measure(rng, X))])
        outer = flatten_outer(((HALF, PP), (HALF, other)))
        assert list(outer.support) == \
            sorted(set(qs) | set(other.support), key=fraction_tuple)


def test_by_mass_order_over_equal_and_mixed_denominators():
    # a seeded corpus of sets of 1 to 6 measures, some on one shared
    # denominator and some on several, with zero numerators in both
    def mass(q):
        return q.mass

    rng = random.Random(27)
    X = disc(3)
    seen = {"equal": 0, "mixed": 0, "unsorted equal": 0, "zero": 0}
    for _ in range(400):
        # a prime shared denominator reduces only on a dirac
        shared = rng.choice((5, 7, 11)) if rng.random() < 0.5 else None
        qs = []
        for _ in range(rng.randrange(1, 7)):
            den = shared or rng.randrange(1, 13)
            first = rng.randrange(den + 1)
            second = rng.randrange(den - first + 1)
            qs.append(FinDist(X, (first, second, den - first - second), den))
        qs = list(dict.fromkeys(qs))
        PP = DistOverDists.of(X, [(1, q) for q in qs], den=len(qs))
        assert list(PP.support) == sorted(PP.support, key=mass)
        if len(qs) > 1:
            equal = len({q.den for q in qs}) == 1
            seen["equal" if equal else "mixed"] += 1
            if equal and qs != sorted(qs, key=mass):
                seen["unsorted equal"] += 1
        seen["zero"] += any(0 in q.num for q in qs)
    # both branches of the sort key, in an order they must change
    assert min(seen.values()) >= 20, seen


def test_push_outer_moves_each_weight_to_its_image_and_merges():
    X, Y = disc(3), disc(2)
    f = MeasFn(X, Y, (0, 0, 1))  # a, b -> a and c -> b
    PP = DistOverDists.of(X, [(QUARTER, dirac(X, "a")),
                              (QUARTER, dirac(X, "b")),
                              (HALF, FinDist(X, (ZERO, HALF, HALF)))])
    assert push_outer(f, PP) == DistOverDists.of(
        Y, [(HALF, dirac(Y, "a")), (HALF, FinDist(Y, (HALF, HALF)))])
    assert mu(push_outer(f, PP)) == pushforward(f, mu(PP))


def test_measure_of_sets_and_non_measurable_rejection():
    X = FinMeasSpace(("a", "b", "c"), (0b001, 0b110))
    P = FinDist(X, (QUARTER, Fraction(3, 4)))
    assert P.measure(0b001) == QUARTER
    assert P.measure(0b111) == ONE
    with pytest.raises(DomainError):
        P.measure(0b010)
    with pytest.raises(DomainError):
        P.measure(0b1001)  # a point off the carrier


def test_measure_reads_the_atoms_past_sigma_capacity():
    X = FinMeasSpace.discrete(tuple(f"x{i}" for i in range(21)))
    P = FinDist(X, [1, 2, 3] + [0] * 18, 6)
    assert P.measure(0b1) == Fraction(1, 6)
    assert P.measure(0b110) == Fraction(5, 6)
    assert P.measure((1 << 21) - 1) == ONE
    with pytest.raises(DomainError):
        P.measure(1 << 21)
    Y = FinMeasSpace(X.points, (0b11,) + tuple(1 << i for i in range(2, 21)))
    Q = FinDist(Y, [1] + [0] * 19, 1)
    assert Q.measure(0b11) == ONE
    with pytest.raises(DomainError):
        Q.measure(0b1)  # splits the atom {x0, x1}


def test_dirac_and_pushforward():
    X = disc(3)
    Y = disc(2)
    f = MeasFn(X, Y, (0, 0, 1))  # a, b -> a and c -> b
    P = FinDist(X, (HALF, QUARTER, QUARTER))
    Q = pushforward(f, P)
    assert Q.mass == (Fraction(3, 4), QUARTER)
    assert pushforward(f, dirac(X, "b")) == dirac(Y, "a")
    assert dirac(X, "c") == giry.atom_dirac(X, 2)
    with pytest.raises(DomainError):
        dirac(X, "z")


def test_space_checks_accept_equal_copies_and_reject_other_spaces():
    X, X_copy, Y = disc(3), disc(3), disc(2)
    assert X_copy is not X and X_copy == X
    f = MeasFn(X, Y, (0, 0, 1))
    P = FinDist(X_copy, (HALF, QUARTER, QUARTER))
    assert pushforward(f, P) == FinDist(Y, (Fraction(3, 4), QUARTER))
    assert mix_dists(dirac(X, "a"), dirac(X_copy, "c"), HALF) == \
        FinDist(X, (HALF, ZERO, HALF))
    with pytest.raises(DomainError):
        pushforward(f, dirac(Y, "a"))
    with pytest.raises(DomainError):
        mix_dists(dirac(X, "a"), dirac(Y, "a"), HALF)
    # three-level measures: the base spaces are checked on the inputs
    a, c = dirac(X, "a"), dirac(X_copy, "c")
    PP, PP_copy, PP_other = unit_outer(a), unit_outer(c), unit_outer(
        dirac(Y, "a"))
    halves = DistOverDists(X, (c, a), (1, 1), 2)  # support in mass order
    assert DistOverDists.of(X, [(1, a), (1, c)], 2) == halves
    PPP = ((1, PP), (1, PP_copy))
    assert flatten_outer(PPP, den=2) == halves
    assert map_mu(PPP, den=2) == halves
    with pytest.raises(DomainError):
        DistOverDists.of(X, [(1, a), (1, dirac(Y, "a"))], 2)
    for PPP in (((1, PP), (1, PP_other)), ((1, PP_other), (1, PP_copy))):
        for entry in (flatten_outer, map_mu):
            with pytest.raises(DomainError):
                entry(PPP, den=2)


def small_spaces():
    return [X for n in (1, 2, 3) for X in all_sigma_spaces(("a", "b", "c")[:n])]


def test_pushforward_matches_preimage_definition():
    spaces = small_spaces()
    checked = 0
    for X in spaces:
        dists = grid_dists(X)
        for Y in spaces:
            for f in enumerate_meas_fns(X, Y):
                for P in dists:
                    Q = pushforward(f, P)
                    for V in Y.sigma:
                        pre = 0
                        for i, j in enumerate(f.image):
                            if V >> j & 1:
                                pre |= 1 << i
                        assert Q.measure(V) == P.measure(pre)
                        checked += 1
    assert checked > 10000


def seeded_pushforwards(seed=4099, per_count=40):
    """Seeded (map, measure) pairs onto codomains of 4 to 6 atoms: the
    codomain's 4 to 8 points are split into that many atoms, the domain
    is a seeded partition of 1 to 6 points, each domain atom lands in one
    codomain atom and each point on a point of it."""
    rng = random.Random(seed)

    def partition(n, k):
        labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(labels)
        atoms = [0] * k
        for i, a in enumerate(labels):
            atoms[a] |= 1 << i
        return FinMeasSpace(tuple(f"p{i}" for i in range(n)), atoms)

    cases = []
    for k in range(4, 7):
        for _ in range(per_count):
            Y = partition(rng.randrange(k, 9), k)
            n = rng.randrange(1, 7)
            X = partition(n, rng.randrange(1, n + 1))
            blocks = [[j for j in range(len(Y.points)) if b >> j & 1]
                      for b in Y.atoms]
            lands = [rng.choice(blocks) for _ in X.atoms]
            image = tuple(rng.choice(lands[a]) for a in X.point_atom)
            P = sparse_measure(rng, X, rng.randrange(1, 65))
            cases.append((MeasFn(X, Y, image), P))
    return cases


def pushforward_disagreements(push) -> list[int]:
    """The codomain atom counts of the seeded cases where `push` and the
    measure of each preimage differ on some measurable set."""
    out = []
    for f, P in seeded_pushforwards():
        Q = push(f, P)
        for V in f.cod.members:
            pre = sum(1 << i for i, j in enumerate(f.image) if V >> j & 1)
            if Q.measure(V) != P.measure(pre):
                out.append(len(f.cod.atoms))
                break
    return out


def test_pushforward_onto_four_to_six_atoms_matches_preimages():
    cases = seeded_pushforwards()
    assert {len(f.cod.atoms) for f, _ in cases} == {4, 5, 6}
    assert any(len(f.dom.atoms) < len(f.dom.points) for f, _ in cases)
    assert pushforward_disagreements(pushforward) == []


def test_pushforward_wrong_from_four_atoms_is_caught():
    # swaps the masses of the third and fourth codomain atom
    def crooked(f, P):
        good = pushforward(f, P)
        num = list(good.num)
        num[2], num[3] = num[3], num[2]
        return FinDist(good.space, num, good.den)
    assert pushforward_disagreements(crooked)


def test_mu_matches_weighted_sum_of_measures():
    for X in small_spaces():
        for PP in two_level_dists(X, max_support=2):
            M = mu(PP)
            for U in X.sigma:
                assert M.measure(U) == sum(
                    (w * q.measure(U) for q, w in zip(PP.support, PP.weights)),
                    ZERO)


def sparse_measure(rng, X, den):
    """A measure on X over `den` whose mass sits on a random nonempty
    subset of the atoms, so that many numerators are zero."""
    live = rng.sample(range(len(X.atoms)), rng.randrange(1, len(X.atoms) + 1))
    cuts = sorted(rng.randrange(den + 1) for _ in live[1:])
    num = [0] * len(X.atoms)
    for k, lo, hi in zip(live, [0, *cuts], [*cuts, den]):
        num[k] = hi - lo
    return FinDist(X, num, den)


def wide_two_level_cases(seed=23, per_size=60):
    """Seeded two-level measures on 1 to 6 atoms, discrete or with the
    first two points in one atom, with 1 to 6 support measures over
    denominators up to 64 and weights over denominators up to 64."""
    rng = random.Random(seed)
    cases = []
    for n in range(1, 7):
        names = tuple("abcdefg"[:n + 1])
        merged = [0b11] + [1 << i for i in range(2, n + 1)]
        spaces = (FinMeasSpace.discrete(names[:n]),
                  FinMeasSpace(names, merged))
        for _ in range(per_size):
            X = rng.choice(spaces)
            qs = [sparse_measure(rng, X, rng.randrange(1, 65))
                  for _ in range(rng.randrange(1, 7))]
            raw = [rng.randrange(1, 65) for _ in qs]
            cases.append(DistOverDists.of(X, zip(raw, qs), sum(raw)))
    return cases


def mu_disagreements(mu_fn, cases) -> list[int]:
    """The atom counts of the cases where `mu_fn` and the flatten oracle
    differ."""
    return [len(PP.base.atoms) for PP in cases
            if mu_fn(PP) != flatten_oracle(PP)]


def test_mu_matches_the_oracle_past_three_atoms():
    cases = wide_two_level_cases()
    assert {len(PP.base.atoms) for PP in cases} == set(range(1, 7))
    assert {len(PP.support) for PP in cases} == set(range(1, 7))
    assert any(0 in q.num for PP in cases for q in PP.support)
    # denominators that share no factor meet in one support
    assert any(math.gcd(q.den, r.den) == 1 and 1 < q.den < r.den
               for PP in cases
               for q, r in itertools.combinations(PP.support, 2))
    assert max(q.den for PP in cases for q in PP.support) > 32
    assert mu_disagreements(mu, cases) == []


def test_mu_wrong_from_four_atoms_is_caught():
    # swaps the masses of the third and fourth atom: right on up to three
    # atoms, where the other checks of `mu` look
    def crooked(PP):
        good = mu(PP)
        if len(good.num) < 4:
            return good
        num = list(good.num)
        num[2], num[3] = num[3], num[2]
        return FinDist(good.space, num, good.den)
    wrong = mu_disagreements(crooked, wide_two_level_cases())
    assert wrong and min(wrong) == 4


def assert_canonical(R):
    """R holds exactly the fields the checked constructor makes of its
    own row, so it is reduced, and that row is nonnegative and sums to
    its denominator; the support of a distribution over distributions is
    checked too."""
    if isinstance(R, FinDist):
        row, den = R.num, R.den
        again = FinDist(R.space, R.num, R.den)
        assert (again.space, again.num, again.den) == (R.space, row, den)
    else:
        row, den = R.wnum, R.wden
        again = DistOverDists(R.base, R.support, R.wnum, R.wden)
        assert (again.base, again.support, again.wnum, again.wden) == \
            (R.base, R.support, row, den)
        for q in R.support:
            assert_canonical(q)
    assert min(row) >= 0 and sum(row) == den


def built_results():
    """Seeded results of every builder that skips the row checks, on the
    small spaces and on spaces of 4 to 6 atoms."""
    rng = random.Random(3)
    alphas = (ZERO, QUARTER, Fraction(1, 3), HALF, Fraction(5, 6), ONE)
    for X in small_spaces():
        dists = grid_dists(X)
        two = two_level_dists(X, max_support=2)
        yield from dists
        yield from two
        for Y in small_spaces():
            for f in enumerate_meas_fns(X, Y):
                yield pushforward(f, rng.choice(dists))
                yield push_outer(f, rng.choice(two))
        for PP in two:
            yield mu(PP)
            yield map_unit(mu(PP))
            yield mix_dists(rng.choice(dists), rng.choice(dists),
                            rng.choice(alphas))
    for f, P in seeded_pushforwards():
        yield pushforward(f, P)
        yield map_unit(P)
        Q = sparse_measure(rng, P.space, rng.randrange(1, 65))
        yield mix_dists(P, Q, rng.choice(alphas))
        w = (rng.randrange(1, 9), rng.randrange(1, 9))
        PP = DistOverDists.of(P.space, zip(w, (P, Q)), sum(w))
        yield PP
        yield push_outer(f, PP)
    for PP in wide_two_level_cases():
        yield PP
        yield mu(PP)
    for PPP, den in three_level_cases():
        yield flatten_outer(PPP, den=den)
        yield map_mu(PPP, den=den)


def test_built_results_are_in_canonical_form():
    results = list(built_results())
    assert len(results) > 2000
    assert {len(R.space.atoms) for R in results
            if isinstance(R, FinDist)} >= set(range(1, 7))
    for R in results:
        assert_canonical(R)


def three_level_cases(seed=1982, count=300, min_support=1):
    """Seeded three-level measures over the two-level corpus above, those
    of at least `min_support` measures: 1 to 4 middle levels on one base,
    repeats allowed, each with an integer outer weight, some of them
    zero, over their positive sum."""
    rng = random.Random(seed)
    by_base: dict = {}
    for PP in wide_two_level_cases():
        if len(PP.support) >= min_support:
            by_base.setdefault(PP.base, []).append(PP)
    groups = list(by_base.values())
    cases = []
    while len(cases) < count:
        middle = rng.choices(rng.choice(groups), k=rng.randrange(1, 5))
        raw = [rng.randrange(0, 9) for _ in middle]
        if sum(raw):
            cases.append((tuple(zip(raw, middle)), sum(raw)))
    return cases


def test_integer_outer_weights_match_fractions():
    cases = three_level_cases()
    assert any(0 in (w for w, _ in PPP) for PPP, _ in cases)
    assert any(len({PP for _, PP in PPP}) < len(PPP) for PPP, _ in cases)
    for PPP, den in cases:
        by_frac = tuple((Fraction(w, den), PP) for w, PP in PPP)
        assert flatten_outer(PPP, den=den) == flatten_outer(by_frac)
        assert map_mu(PPP, den=den) == map_mu(by_frac)


def flatten_disagreements(flatten, cases) -> int:
    """How many cases `flatten` gets wrong against the definition in
    Fractions: measure q weighs the sum over the middle levels of the
    outer weight times q's weight there."""
    wrong = 0
    for PPP, den in cases:
        ref: dict = {}
        for a, PP in PPP:
            for q, w in zip(PP.support, PP.weights):
                if a:  # a zero outer weight leaves no term
                    ref[q] = ref.get(q, ZERO) + Fraction(a, den) * w
        got = flatten(PPP, den=den)
        if got.base != PPP[0][1].base or \
                dict(zip(got.support, got.weights)) != ref:
            wrong += 1
    return wrong


def test_flatten_outer_on_middle_levels_of_three_measures():
    cases = three_level_cases(seed=7, count=200, min_support=3)
    assert {len(PP.support) for PPP, _ in cases for _, PP in PPP} == \
        {3, 4, 5, 6}
    assert any(len(PPP) > 1 for PPP, _ in cases)
    assert flatten_disagreements(flatten_outer, cases) == 0


def test_flatten_outer_wrong_past_two_middle_measures_is_caught():
    # swaps the first two result weights; every case has a middle level
    # of 3 or more measures
    def crooked(PPP, den):
        good = flatten_outer(PPP, den=den)
        w = list(good.wnum)
        w[0], w[1] = w[1], w[0]
        return DistOverDists(good.base, good.support, w, good.wden)
    assert flatten_disagreements(
        crooked, three_level_cases(seed=7, count=200, min_support=3))


@pytest.mark.parametrize("weights, den", [
    ((1, 1), 0),       # zero denominator
    ((0, 0), 0),       # zero denominator, every term dropped
    ((1, 1), -2),      # negative denominator
    ((1, 1), 3),       # does not sum to den
    ((1, 2), 2),       # does not sum to den
])
def test_integer_outer_weights_need_a_positive_den_they_sum_to(weights, den):
    X = disc(2)
    PPP = tuple(zip(weights, (unit_outer(dirac(X, "a")),
                              unit_outer(dirac(X, "b")))))
    for entry in (flatten_outer, map_mu):
        with pytest.raises(DomainError):
            entry(PPP, den=den)


BOOL_ROWS = {
    "FinDist-num": lambda X, P, Q: FinDist(X, (True, False), 1),
    "FinDist-den": lambda X, P, Q: FinDist(X, (1, 0), True),
    "DistOverDists-weights": lambda X, P, Q: DistOverDists(
        X, (P, Q), (True, True), 2),
    "DistOverDists-den": lambda X, P, Q: DistOverDists(X, (P,), (1,), True),
    "of-den": lambda X, P, Q: DistOverDists.of(X, [(1, P)], True),
    "map_mu-den": lambda X, P, Q: map_mu(((1, unit_outer(P)),), den=True),
    "flatten_outer-den": lambda X, P, Q: flatten_outer(
        ((1, unit_outer(P)),), den=True),
    "WAFunctional-den": lambda X, P, Q: giry.WAFunctional((0,), (1,), True),
}


@pytest.mark.parametrize("entry", sorted(BOOL_ROWS))
def test_a_bool_is_no_integer_at_any_row_entry(entry):
    X = disc(2)
    with pytest.raises(DomainError):
        BOOL_ROWS[entry](X, dirac(X, "a"), dirac(X, "b"))


@pytest.mark.parametrize("weight", ["1", None, 1.0, HALF, True])
def test_a_weight_over_a_den_must_be_an_int(weight):
    X = disc(2)
    a, b = dirac(X, "a"), dirac(X, "b")
    with pytest.raises(DomainError, match="integer weight"):
        DistOverDists.of(X, [(weight, a), (1, b)], 2)
    PPP = ((weight, unit_outer(a)), (1, unit_outer(b)))
    for entry in (flatten_outer, map_mu):
        with pytest.raises(DomainError, match="integer weight"):
            entry(PPP, den=2)


def test_dist_over_dists_merges_and_sorts():
    X = disc(2)
    P = dirac(X, "a")
    PP = DistOverDists.of(X, [(HALF, P), (QUARTER, P),
                              (QUARTER, dirac(X, "b"))])
    assert PP.support == (dirac(X, "b"), P)
    assert PP.weights == (QUARTER, Fraction(3, 4))


def test_dist_over_dists_integer_form_is_canonical():
    X = disc(2)
    P, Q = dirac(X, "a"), FinDist(X, (HALF, HALF))
    PP = DistOverDists(X, (P, Q), (QUARTER, Fraction(3, 4)))
    QQ = DistOverDists(X, (P, Q), (3, 9), 12)  # not reduced
    assert PP == QQ
    assert hash(PP) == hash(QQ)
    assert PP.weights == QQ.weights == (QUARTER, Fraction(3, 4))
    assert (QQ.wnum, QQ.wden) == ((1, 3), 4)


def test_dist_over_dists_integer_form_validation():
    X = disc(2)
    P, Q = dirac(X, "a"), dirac(X, "b")
    for weights, den in (((0, 2), 2),          # non-positive weight
                         ((-1, 3), 2),         # negative weight
                         ((1, 1), 3),          # does not sum to den
                         ((0, 0), 0),          # zero denominator
                         ((-1, -1), -2),       # negative denominator
                         ((1,), 1),            # length mismatch
                         ((HALF, HALF), 1),    # not integers
                         ((1.0, 1.0), 2)):     # not integers
        with pytest.raises(DomainError):
            DistOverDists(X, (P, Q), weights, den)


def test_of_with_integer_weights_matches_fractions():
    rng = random.Random(1982)
    X = disc(3)
    for _ in range(300):
        qs = [random_measure(rng, X) for _ in range(rng.randrange(1, 7))]
        raw = [rng.randrange(1, 10) for _ in qs]
        by_int = DistOverDists.of(X, zip(raw, qs), sum(raw))
        by_frac = DistOverDists.of(X, [(Fraction(r, sum(raw)), q)
                                       for r, q in zip(raw, qs)])
        assert by_int == by_frac
        assert by_int.support == by_frac.support
        assert by_int.weights == by_frac.weights


def test_mu_agrees_with_hand_computation():
    X = disc(2)
    P = FinDist(X, (HALF, HALF))
    Q = dirac(X, "a")
    PP = DistOverDists.of(X, [(HALF, P), (HALF, Q)])
    assert mu(PP).mass == (Fraction(3, 4), QUARTER)
    assert flatten_oracle(PP) == mu(PP)


def test_unit_laws_by_hand():
    X = disc(2)
    P = FinDist(X, (QUARTER, Fraction(3, 4)))
    assert mu(unit_outer(P)) == P
    assert mu(map_unit(P)) == P


def test_monad_law_report_all_green():
    X = disc(2)
    f = MeasFn(X, X, (1, 0))  # the swap
    rep = monad_law_report(X, naturality_maps=[f])
    assert rep.ok
    assert rep.instances > 100


@pytest.mark.parametrize("max_support", [0, -1])
def test_monad_law_report_rejects_support_bound_below_one(max_support):
    # a bound below 1 would drop the flatten oracle and associativity
    # without a word, as run_suite already refuses
    with pytest.raises(DomainError, match="at least 1"):
        monad_law_report(disc(2), max_support)


def test_monad_law_report_catches_corrupted_mu(monkeypatch):
    X = disc(2)
    monkeypatch.setattr(giry, "mu", swapped_mu(giry.mu))
    rep = monad_law_report(X)
    assert not rep.ok
    assert any(f.law == "mu.flatten-oracle" for f in rep.unexpected_failures)


def counted_mu(monkeypatch) -> list:
    """Patch `giry.mu` with a counter; the list collects its inputs."""
    inputs, real = [], giry.mu

    def counting(PP):
        inputs.append(PP)
        return real(PP)
    monkeypatch.setattr(giry, "mu", counting)
    return inputs


def test_monad_law_report_multiplies_each_distinct_side_once(monkeypatch):
    # 76 unit sides, 473 flattenings, 3382 distinct flatten_outer(PPP) and
    # 1741 distinct map_mu(PPP) results, and 473 distinct P(f)(PP) across
    # the maps of each space: one multiplication each, for 16,148 instances
    inputs = counted_mu(monkeypatch)
    rep = run_suite("giry-monad", {"maxPoints": 3, "maxSupport": 2})
    assert (rep.instances, len(inputs)) == (16148, 6145)


def test_maps_share_naturality_sides(monkeypatch):
    X = disc(3)
    const = MeasFn(X, X, (2, 2, 2))
    inputs = counted_mu(monkeypatch)
    monad_law_report(X, max_support=2, naturality_maps=[const])
    n = len(inputs)
    monad_law_report(X, max_support=2, naturality_maps=[const, const])
    # the second copy of the map builds only sides the first one built
    assert len(inputs) == 2 * n
    # a multiplication that is wrong on the shared side fails the
    # instances of both maps, each under its own name
    real = giry.mu
    monkeypatch.setattr(giry, "mu", lambda PP: (
        dirac(X, "a") if PP == unit_outer(dirac(X, "c")) else real(PP)))
    rep = monad_law_report(X, max_support=2, naturality_maps=[const, const])
    failed = [f.instance for f in rep.failures if f.law == "mu.naturality"]
    n_PP = len(two_level_dists(X, 2))
    assert failed == [f"nat-mu-f{j}-PP{i}"
                      for j in (0, 1) for i in range(n_PP)]


def test_associativity_keys_are_exact(monkeypatch):
    # on disc(3) with maxSupport 2 a multiplication that tells its inputs
    # apart shows which sides each of the 925 associativity instances got:
    # the report keys a side by a packed integer and builds it only for a
    # new key, so a key that merged two sides would hand a triple another
    # triple's side, and one that split a side would build it twice
    X = disc(3)
    prefix = two_level_dists(X, 2)[:25]
    triples = [((ONE, PP),) for PP in prefix] + [
        ((wa, PPa), (wb, PPb))
        for PPa, PPb in itertools.combinations(prefix, 2)
        for wa, wb in grid_weightings(2)]
    assert len(triples) == 925
    tag_of, input_of = {}, {}

    def tagged(PP):
        if PP not in tag_of:
            n = len(tag_of)
            tag_of[PP] = FinDist(X, (1, n, 10**6 - 1 - n), 10**6)
            input_of[tag_of[PP].describe()] = PP
        return tag_of[PP]
    built = {"outer": [], "inner": []}

    def spy(side, real):
        # the report hands the outer weights as numerators over `den`;
        # recorded as Fractions, they compare with the triples above
        def wrapped(PPP, den=None, **kw):
            built[side].append(PPP if den is None else tuple(
                (Fraction(w, den), PP) for w, PP in PPP))
            return real(PPP, den=den, **kw)
        return wrapped
    sides, real_record = [], LawReport.record

    def record(self, passed, law, instance, witness=None, **kw):
        if law == "mu.associativity":
            sides.append(tuple(input_of[d] for d in witness()))
        real_record(self, passed, law, instance, witness=witness, **kw)
    monkeypatch.setattr(giry, "mu", tagged)
    monkeypatch.setattr(giry, "flatten_outer", spy("outer", flatten_outer))
    monkeypatch.setattr(giry, "map_mu", spy("inner", map_mu))
    monkeypatch.setattr(LawReport, "record", record)
    monad_law_report(X, max_support=2)
    outer = [flatten_outer(T) for T in triples]
    inner = [map_mu(T, mu_fn=tag_of.__getitem__) for T in triples]
    assert sides == list(zip(outer, inner))

    def first_triples(values):
        first = {}
        for T, v in zip(triples, values):
            first.setdefault(v, T)
        return list(first.values())
    assert built["outer"] == first_triples(outer)
    assert built["inner"] == first_triples(inner)
    # the real multiplication flattens some prefix measures alike, so more
    # map_mu(PPP) sides coincide
    monkeypatch.setattr(giry, "mu", mu)
    monkeypatch.setattr(LawReport, "record", real_record)
    built["inner"].clear()
    monad_law_report(X, max_support=2)
    assert built["inner"] == first_triples([map_mu(T) for T in triples])


def test_shared_naturality_side_keeps_every_instance(monkeypatch):
    X = disc(3)
    const = MeasFn(X, X, (2, 2, 2))  # every support measure goes to c
    inputs = counted_mu(monkeypatch)
    alone = monad_law_report(X, max_support=2)
    n = len(inputs)
    rep = monad_law_report(X, max_support=2, naturality_maps=[const])
    PPs = two_level_dists(X, 2)
    # one multiplication, of the dirac at the dirac at c, serves every PP
    assert inputs[2 * n:] == [unit_outer(dirac(X, "c"))]
    assert rep.instances == alone.instances + len(X.points) + len(PPs)
    # a multiplication that is wrong on that one side fails every
    # instance, each under its own name
    real = giry.mu
    monkeypatch.setattr(giry, "mu", lambda PP: (
        dirac(X, "a") if PP == unit_outer(dirac(X, "c")) else real(PP)))
    rep = monad_law_report(X, max_support=2, naturality_maps=[const])
    failed = [f.instance for f in rep.failures if f.law == "mu.naturality"]
    assert failed == [f"nat-mu-f0-PP{i}" for i in range(len(PPs))]


def test_shared_naturality_sides_keep_their_own_verdicts(monkeypatch):
    # a, b -> a and c -> b: some P(f)(PP) are shared by measures whose
    # flattenings the crooked multiplication gets wrong and right
    X = disc(3)
    f = MeasFn(X, X, (0, 0, 1))
    monkeypatch.setattr(giry, "mu", swapped_mu(giry.mu))
    rep = monad_law_report(X, max_support=2, naturality_maps=[f])
    failed = {x.instance for x in rep.failures if x.law == "mu.naturality"}
    verdicts: dict = {}
    for i, PP in enumerate(two_level_dists(X, 2)):
        ok = giry.mu(push_outer(f, PP)) == pushforward(f, giry.mu(PP))
        verdicts.setdefault(push_outer(f, PP), {})[f"nat-mu-f0-PP{i}"] = ok
    assert any(len(set(v.values())) == 2 for v in verdicts.values())
    assert failed == {i for v in verdicts.values()
                      for i, ok in v.items() if not ok}


@given(st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_mix_dists_is_coordinatewise(alpha):
    X = disc(2)
    P, Q = dirac(X, "a"), dirac(X, "b")
    M = mix_dists(P, Q, alpha)
    assert M.mass == (ONE - alpha, alpha)


@pytest.mark.parametrize("alpha", [2, -QUARTER, Fraction(5, 4)])
def test_mix_dists_rejects_weights_outside_the_unit_interval(alpha):
    X = disc(2)
    # alpha = 2 would give the measure (0, 1), which is nonnegative
    P, Q = FinDist(X, (HALF, HALF)), FinDist(X, (QUARTER, 1 - QUARTER))
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        mix_dists(P, Q, alpha)


# ---------------------------------------------------------------------------
# weakly averaging functionals


def test_wa_functional_constants_and_equivariance():
    F = giry.WAFunctional((0, 1), (1, 1), 2)
    endos = [EndoI.of(HALF, QUARTER), EndoI.of(-HALF, Fraction(3, 4))]
    fns = [lambda a: ONE if a == 1 else ZERO]
    assert wa_check(F, endos, fns) == (True, None)


def test_wa_check_detects_unnormalized_weights():
    # the constructor rejects these weights, so bypass it
    bad = object.__new__(giry.WAFunctional)
    object.__setattr__(bad, "points", (0, 1))
    object.__setattr__(bad, "num", (2, 1))
    object.__setattr__(bad, "den", 4)
    endos = [EndoI.of(s, t) for s, t in ((1, 0), (HALF, 0), (HALF, QUARTER),
                                         (-HALF, Fraction(3, 4)), (0, HALF))]
    fns = [lambda a: ONE if a == 1 else ZERO]
    ok, failures = wa_check(bad, endos, fns)
    assert not ok
    # weights summing to 3/4 scale every nonzero constant by 3/4, and
    # F(s*m + t) = s*F(m) + 3t/4, so every endomorphism with t != 0 fails
    assert failures == [
        {"law": "constant", "value": "1/2", "passed": False, "got": "3/8"},
        {"law": "constant", "value": "1/1", "passed": False, "got": "3/4"},
        {"law": "equivariance", "endo": ("1/2", "1/4"), "fn": 0,
         "passed": False},
        {"law": "equivariance", "endo": ("-1/2", "3/4"), "fn": 0,
         "passed": False},
        {"law": "equivariance", "endo": ("0/1", "1/2"), "fn": 0,
         "passed": False},
    ]


def test_measure_functional_roundtrip():
    A = SemiCvx(("a", "b"), ((0, 0), (0, 1)))
    space = FinMeasSpace.discrete(("a", "b"))
    P = FinDist(space, (QUARTER, Fraction(3, 4)))
    F = measure_to_functional(P, A)
    assert (F.points, F.num, F.den) == ((0, 1), (1, 3), 4)
    assert functional_to_measure(F, space) == P
    # the functional evaluates indicators to the measure of the set
    chi_b = lambda x: ONE if x == 1 else ZERO
    assert F.apply(chi_b) == Fraction(3, 4)
