import itertools
import random

import pytest

from gcvx.kernel import CapacityError, DomainError
from gcvx.measurable import (
    FinMeasSpace,
    MeasFn,
    coinduced_sigma,
    enumerate_meas_fns,
    generate_sigma,
    induced_sigma,
    is_measurable,
    is_separated,
    mask_of,
    measurable_maps,
    space_from_members,
)
from gcvx.suites import all_sigma_spaces

PTS3 = ("a", "b", "c")


def brute_sigma_algebras(n):
    """All families over an n-point carrier closed under complement and
    union -- the reference definition, with no shortcuts."""
    full = (1 << n) - 1
    subsets = range(1 << n)
    out = []
    for picks in itertools.product((0, 1), repeat=1 << n):
        fam = {u for u, take in zip(subsets, picks) if take}
        if 0 not in fam or full not in fam:
            continue
        if any(full & ~u not in fam for u in fam):
            continue
        if any(u | v not in fam for u in fam for v in fam):
            continue
        out.append(frozenset(fam))
    return out


def brute_least_sigma(n, gens, algebras):
    acc = None
    for fam in algebras:
        if all(g in fam for g in gens):
            acc = fam if acc is None else acc & fam
    return acc


def test_sigma_algebra_counts_match_partition_counts():
    # sigma-algebras on n points correspond to set partitions
    assert len(brute_sigma_algebras(1)) == 1
    assert len(brute_sigma_algebras(2)) == 2
    assert len(brute_sigma_algebras(3)) == 5


def test_space_validation_rejects_non_algebras():
    with pytest.raises(DomainError):
        space_from_members(PTS3, {0b111})  # missing empty set
    with pytest.raises(DomainError):
        space_from_members(PTS3, {0, 0b001, 0b111})  # no complement
    with pytest.raises(DomainError):
        space_from_members(PTS3, {0, 0b001, 0b010, 0b110, 0b101, 0b111})
    with pytest.raises(DomainError):
        space_from_members(PTS3, {0, 0b1000, 0b111})  # outside the carrier
    assert space_from_members(PTS3, {0, 0b001, 0b110, 0b111}).atoms == \
        (0b001, 0b110)
    for atoms in ((0, 0b001, 0b110),         # empty atom
                  (0b011, 0b110),            # overlapping atoms
                  (0b001, 0b010),            # not covering the carrier
                  (0b001, 0b010, 0b1100)):   # reaching outside it
        with pytest.raises(DomainError):
            FinMeasSpace(PTS3, atoms)


def test_atoms_are_the_partition_blocks():
    X = FinMeasSpace(PTS3, (0b001, 0b110))
    assert X.atoms == (0b001, 0b110)
    assert X.sigma == frozenset({0, 0b001, 0b110, 0b111})
    # stored ordered by lowest point: equal algebras are equal values
    Y = FinMeasSpace(PTS3, [0b110, 0b001])
    assert Y == X and hash(Y) == hash(X) and Y.atoms == X.atoms
    assert X.atom_of("a") == 0b001
    assert X.atom_of("b") == 0b110
    assert FinMeasSpace.discrete(PTS3).atoms == (0b001, 0b010, 0b100)
    assert FinMeasSpace.trivial(PTS3).atoms == (0b111,)


def test_spaces_built_separately_compare_and_hash_equal():
    built = [FinMeasSpace(PTS3, (0b001, 0b010, 0b100)),
             FinMeasSpace(PTS3, [0b100, 0b001, 0b010]),
             FinMeasSpace.discrete(PTS3),
             generate_sigma(PTS3, [("a",), ("b",)])]
    for X in built:
        assert X == built[0] and hash(X) == hash(built[0])
        assert X.__dict__["_hash"] == hash(X)  # computed once, then kept
    assert len(set(built)) == 1
    coarser = FinMeasSpace(PTS3, (0b001, 0b110))
    assert coarser != built[0] and len(set(built) | {coarser}) == 2


def test_generate_sigma_small_oracle():
    X = generate_sigma(PTS3, [("a",)])
    assert X.sigma == frozenset({0, 0b001, 0b110, 0b111})
    Y = generate_sigma(PTS3, [("a",), ("b",)])
    assert Y.sigma == frozenset(range(8))


def test_generate_sigma_matches_brute_force_on_random_families():
    rng = random.Random(7)
    for n in (2, 3, 4):
        algebras = brute_sigma_algebras(n)
        points = tuple("pqrs"[:n])
        for _ in range(30):
            gens = [rng.randrange(1 << n) for _ in range(rng.randrange(4))]
            got = generate_sigma(points, gens)
            want = brute_least_sigma(n, gens, algebras)
            assert got.sigma == want


def test_generate_sigma_capacity_guard():
    points = tuple(f"p{i}" for i in range(24))
    gens = [(p,) for p in points]
    with pytest.raises(CapacityError):
        generate_sigma(points, [mask_of(points, g) for g in gens])


def test_measurability_definition_and_witness():
    X = FinMeasSpace(PTS3, (0b011, 0b100))
    Y = FinMeasSpace.discrete(("0", "1"))
    ok, wit = is_measurable({"a": "0", "b": "0", "c": "1"}, X, Y)
    assert ok and wit is None
    ok, wit = is_measurable({"a": "0", "b": "1", "c": "1"}, X, Y)
    assert not ok
    # the witness set really does have a non-measurable preimage
    pre = 0
    mapping = {"a": "0", "b": "1", "c": "1"}
    for i, p in enumerate(X.points):
        if wit >> Y.points.index(mapping[p]) & 1:
            pre |= 1 << i
    assert pre not in X.sigma


def test_measfn_composition_and_identity():
    X = FinMeasSpace.discrete(("a", "b"))
    Y = FinMeasSpace.discrete(("0", "1"))
    f = MeasFn(X, Y, ("0", "1"))
    assert MeasFn(Y, Y, ("1", "0"))("0") == "1"
    assert MeasFn.identity(X)("a") == "a"
    assert f.atom_map == (0, 1)


def test_map_capacity_counts_measurable_maps():
    pts21 = tuple(f"p{i}" for i in range(21))
    two = FinMeasSpace.discrete(("0", "1"))
    # 2^21 maps, of which only the 2 constant ones are measurable
    assert measurable_maps(FinMeasSpace.trivial(pts21), two) == \
        [(0,) * 21, (1,) * 21]
    # atoms of 10 and 11 points: 2 * 2 measurable maps
    halves = FinMeasSpace(pts21, ((1 << 10) - 1, ((1 << 21) - 1) ^ ((1 << 10) - 1)))
    assert len(measurable_maps(halves, two)) == 4
    # discrete on 21 points exceeds the atom capacity itself; on 20 points
    # into 3 there are 3^20 measurable maps
    with pytest.raises(CapacityError):
        FinMeasSpace.discrete(pts21)
    X = FinMeasSpace.discrete(pts21[:20])
    with pytest.raises(CapacityError):
        measurable_maps(X, FinMeasSpace.discrete(("0", "1", "2")))


def test_enumerate_meas_fns_agrees_with_preimage_definition():
    X = FinMeasSpace(PTS3, (0b001, 0b110))
    Y = FinMeasSpace.discrete(("0", "1"))
    assert len(enumerate_meas_fns(X, Y)) == 4  # constant on the {b, c} atom
    spaces = [X for n in (1, 2, 3) for X in all_sigma_spaces(PTS3[:n])]
    candidates = 0
    for X, Y in itertools.product(spaces, spaces):
        fast = {f.mapping for f in enumerate_meas_fns(X, Y)}
        slow = set()
        for combo in itertools.product(Y.points, repeat=len(X.points)):
            candidates += 1
            ok, wit = is_measurable(dict(zip(X.points, combo)), X, Y)
            if ok:
                slow.add(combo)
                assert MeasFn(X, Y, combo).mapping == combo
            else:
                # rejected with the preimage scan's own witness
                with pytest.raises(DomainError) as exc:
                    MeasFn(X, Y, combo)
                assert str(exc.value) == (
                    f"map is not measurable; witness set "
                    f"{Y.subset_names(wit)}")
        assert fast == slow
        # the position enumerator, read as names, is the same list
        assert [tuple(Y.points[j] for j in m) for m in measurable_maps(X, Y)] \
            == [f.mapping for f in enumerate_meas_fns(X, Y)]
    assert candidates == 888


def test_points_must_be_distinct():
    with pytest.raises(DomainError):
        FinMeasSpace(("a", "a"), (0b01, 0b10))
    with pytest.raises(DomainError):
        FinMeasSpace.discrete(("a", "b", "a"))


def test_measfn_mapping_length_must_match_domain():
    X = FinMeasSpace.discrete(("a", "b"))
    Y = FinMeasSpace.discrete(("0", "1"))
    with pytest.raises(DomainError):
        MeasFn(X, Y, ("0",))
    with pytest.raises(DomainError):
        MeasFn(X, Y, ("0", "1", "1"))


def coinduced_by_definition(carrier, family):
    """Every subset of the carrier whose preimage under every family map
    is measurable in the map's source."""
    sigma = set()
    for u in range(1 << len(carrier)):
        keep = True
        for src, mapping in family:
            pre = 0
            for i, q in enumerate(mapping):
                if u >> q & 1:
                    pre |= 1 << i
            keep = keep and pre in src.sigma
        if keep:
            sigma.add(u)
    return frozenset(sigma)


def test_coinduced_sigma_matches_definition_on_random_families():
    rng = random.Random(11)
    sources = [space_from_members(tuple("xyz"[:k]), fam)
               for k in (1, 2, 3) for fam in brute_sigma_algebras(k)]
    for _ in range(200):
        carrier = tuple("pqrs"[:rng.randrange(1, 5)])
        family = []
        for _ in range(rng.randrange(4)):
            src = rng.choice(sources)
            family.append((src, tuple(rng.randrange(len(carrier))
                                      for _ in src.points)))
        got = coinduced_sigma(carrier, family)
        assert got.sigma == coinduced_by_definition(carrier, family)


def test_coinduced_is_largest_making_family_measurable():
    Z = FinMeasSpace.discrete(("x", "y"))
    carrier = ("u", "v", "w")
    fam = [(Z, (0, 1))]  # x -> u, y -> v
    C = coinduced_sigma(carrier, fam)
    # every member has measurable preimage, and any strictly larger
    # sigma-algebra breaks that
    for u in C.sigma:
        pre = 0
        for i, q in enumerate(fam[0][1]):
            if u >> q & 1:
                pre |= 1 << i
        assert pre in Z.sigma
    for extra in range(8):
        if extra in C.sigma:
            continue
        pre = 0
        for i, q in enumerate(fam[0][1]):
            if extra >> q & 1:
                pre |= 1 << i
        bigger_is_valid = pre in Z.sigma
        if bigger_is_valid:
            # adding this set alone must fail sigma-algebra closure
            with pytest.raises(DomainError):
                space_from_members(carrier, C.sigma | {extra})


def test_induced_sigma_matches_definition_on_random_families():
    # the definition: generated by the preimage of every target member
    rng = random.Random(13)
    targets = [X for k in (1, 2, 3) for X in all_sigma_spaces(tuple("xyz"[:k]))]
    for _ in range(200):
        carrier = tuple("pqrs"[:rng.randrange(1, 5)])
        family = []
        for _ in range(rng.randrange(4)):
            target = rng.choice(targets)
            family.append((tuple(rng.randrange(len(target.points))
                                 for _ in carrier), target))
        preimages = [sum(1 << i for i, j in enumerate(mapping) if v >> j & 1)
                     for mapping, target in family for v in target.sigma]
        assert induced_sigma(carrier, family).sigma == \
            generate_sigma(carrier, preimages).sigma


def test_family_maps_must_fit_their_spaces():
    Y = FinMeasSpace.discrete(("0", "1"))
    carrier = ("u", "v", "w")
    for bad in ((0, 3), (0, -1), (0,), (0, 1, 2)):
        with pytest.raises(DomainError):
            coinduced_sigma(carrier, [(Y, bad)])
    for bad in ((0, 0, 2), (0, -1, 1), (0, 1)):
        with pytest.raises(DomainError):
            induced_sigma(carrier, [(bad, Y)])


def test_induced_is_smallest_making_family_measurable():
    Y = FinMeasSpace.discrete(("0", "1"))
    carrier = ("u", "v", "w")
    fam = [((0, 0, 1), Y)]  # u -> 0, v -> 0, w -> 1
    I = induced_sigma(carrier, fam)
    assert I.sigma == frozenset({0, 0b011, 0b100, 0b111})


def test_separation():
    assert is_separated(FinMeasSpace.discrete(PTS3)) == (True, None)
    ok, pair = is_separated(FinMeasSpace.trivial(PTS3))
    assert not ok and pair == ("a", "b")


def test_is_separated_matches_a_pair_scan():
    checked = 0
    for n in (1, 2, 3, 4):
        for X in all_sigma_spaces(tuple("abcd"[:n])):
            want = (True, None)
            for i, j in itertools.combinations(range(n), 2):
                if all((u >> i & 1) == (u >> j & 1) for u in X.sigma):
                    want = (False, (X.points[i], X.points[j]))
                    break
            assert is_separated(X) == want
            checked += 1
    assert checked == 23
