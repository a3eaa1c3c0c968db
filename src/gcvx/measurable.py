"""Finite measurable spaces and sigma-algebra machinery.

Subsets of a carrier are bitmasks over the (fixed, input-order) point
list.  On a finite carrier a sigma-algebra is exactly a partition, so a
`FinMeasSpace` stores its atoms, the blocks of the partition, and nothing
else; the members, every union of atoms, are a derived view for output
and for the reference oracles: `members` lists them in mask order and
`sigma` is their set.  Generation, induction and coinduction only have
to find the atoms, with no closure loop and no scan over members or
subsets; coinduction joins images through a point-to-block table
(`join_sigma`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .kernel import CapacityError, DomainError, check_positions

SIGMA_CAPACITY = 2**20
MAX_ATOMS = 20


def masks_of(points: tuple[str, ...], subsets) -> list[int]:
    """The mask of each subset of point names, through one name index; a
    subset that is a string or not iterable is a `DomainError`."""
    index = {p: 1 << i for i, p in enumerate(points)}
    masks = []
    for subset in subsets:
        if isinstance(subset, str) or not hasattr(subset, "__iter__"):
            raise DomainError(f"subset {subset!r} is not a set of point names")
        m = 0
        for p in subset:
            if p not in index:
                raise DomainError(f"point {p!r} is not in the carrier")
            m |= index[p]
        masks.append(m)
    return masks


def mask_of(points: tuple[str, ...], subset) -> int:
    return masks_of(points, (subset,))[0]


def names_of(points: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(p for i, p in enumerate(points) if mask >> i & 1)


@dataclass(frozen=True)
class FinMeasSpace:
    """A carrier and the atoms of its sigma-algebra: nonempty, disjoint
    masks covering it, stored ordered by lowest point so that equal
    sigma-algebras compare and hash equal."""

    points: tuple[str, ...]
    atoms: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise DomainError("point names must be distinct")
        atoms = tuple(sorted(self.atoms, key=lambda m: m & -m))
        covered = 0
        for a in atoms:
            if a <= 0 or a & covered:
                raise DomainError("atoms must be nonempty and disjoint")
            covered |= a
        if covered != (1 << len(self.points)) - 1:
            raise DomainError("atoms must cover exactly the carrier")
        object.__setattr__(self, "atoms", atoms)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of (points, atoms), computed once: measures and their
        supports hash their space on every lookup."""
        return hash((self.points, self.atoms))

    @classmethod
    def discrete(cls, points) -> "FinMeasSpace":
        points = tuple(points)
        return cls(points, [1 << i for i in range(len(points))])

    @classmethod
    def trivial(cls, points) -> "FinMeasSpace":
        points = tuple(points)
        return cls(points, ((1 << len(points)) - 1,) if points else ())

    @cached_property
    def members(self) -> tuple[int, ...]:
        """Every measurable set, in mask order: all unions of the atoms,
        2^|atoms| of them, so more than MAX_ATOMS atoms is a
        CapacityError.  Disjoint masks order by their highest point, so
        each atom in increasing order exceeds the union of those before
        it, and doubling the list over them keeps it sorted."""
        if len(self.atoms) > MAX_ATOMS:
            raise CapacityError("sigma-algebra exceeds capacity")
        members = [0]
        for a in sorted(self.atoms):
            members += [u | a for u in members]
        return tuple(members)

    @cached_property
    def sigma(self) -> frozenset[int]:
        """`members` as a set, for membership tests."""
        return frozenset(self.members)

    @cached_property
    def point_atom(self) -> tuple[int, ...]:
        """Position in atoms of the atom holding each point, by position."""
        return tuple(next(k for k, a in enumerate(self.atoms) if a >> i & 1)
                     for i in range(len(self.points)))

    def subset_names(self, mask: int) -> tuple[str, ...]:
        return names_of(self.points, mask)


def generate_sigma(points, generators) -> FinMeasSpace:
    """Least sigma-algebra on `points` containing every generator, each a
    mask whose class is `int` or a collection of point names.

    Its atoms are the membership classes: points lying in exactly the
    same generators.
    """
    points = tuple(points)
    masks = [g if g.__class__ is int else mask_of(points, g) for g in generators]
    full = (1 << len(points)) - 1
    for m in masks:
        if m & ~full:
            raise DomainError("generator is not a subset of the carrier")
    return _space_of_classes(points, [tuple(m >> i & 1 for m in masks)
                                      for i in range(len(points))])


def _space_of_classes(points: tuple[str, ...], keys) -> FinMeasSpace:
    """The space whose atoms are the classes of points with equal keys."""
    classes: dict[tuple[int, ...], int] = {}
    for i, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | (1 << i)
    return FinMeasSpace(points, classes.values())


def space_from_members(points, members) -> FinMeasSpace:
    """The space whose sigma-algebra is exactly the masks `members`: the
    one they generate, which holds them all, if it has as many members."""
    members = set(members)
    space = generate_sigma(points, members)
    if len(members) != 1 << len(space.atoms):
        raise DomainError("sigma is not closed under complement/union")
    return space


def _check_map(mapping, n_from: int, n_to: int) -> None:
    """A map is a sequence of n_from positions in range(n_to)."""
    if not hasattr(mapping, "__len__") or len(mapping) != n_from:
        raise DomainError(f"a map needs {n_from} positions in range({n_to})")
    check_positions(mapping, n_to)


def join_sigma(points, images) -> FinMeasSpace:
    """Largest sigma-algebra on `points` that splits no mask in `images`.

    Its atoms are the classes the images join.  `block` maps each point
    to the mask of its block so far, so an image inside the block of its
    lowest point costs one test, and a join relabels the points of the
    merged block (the set-union table of Tarjan, JACM 22, 1975).  No image yields the
    powerset.  An image that is not an int is a `DomainError` (a bool
    still reads as the mask 0 or 1)."""
    points = tuple(points)
    full = (1 << len(points)) - 1
    block = [1 << i for i in range(len(points))]
    try:
        for img in images:
            if img & ~full:
                raise DomainError("image is not a subset of the carrier")
            if not img:
                continue
            joined = block[(img & -img).bit_length() - 1]
            rest = img & ~joined
            if not rest:
                continue
            while rest:
                b = block[(rest & -rest).bit_length() - 1]
                joined |= b
                rest &= ~b
            for i in range(len(points)):
                if joined >> i & 1:
                    block[i] = joined
    except TypeError:  # a non-int image fails its first bit operation
        raise DomainError("an image is not an int mask") from None
    return FinMeasSpace(points, set(block))


def coinduced_sigma(points, family) -> FinMeasSpace:
    """Largest sigma-algebra on `points` making every family map measurable.

    `family` is a list of (source_space, mapping) with mapping a tuple
    giving, for each source point, a carrier position.  An empty family
    yields the powerset.  A set is measurable for a map exactly when it
    splits the image of no source atom, so this is `join_sigma` of those
    images.
    """
    points = tuple(points)
    images = []
    for src, mapping in family:
        _check_map(mapping, len(src.points), len(points))
        atom_images = [0] * len(src.atoms)
        for k, q in zip(src.point_atom, mapping):
            atom_images[k] |= 1 << q
        images += atom_images
    return join_sigma(points, images)


def induced_sigma(points, family) -> FinMeasSpace:
    """Smallest sigma-algebra on `points` making every family map measurable.

    `family` is a list of (mapping, target_space) with mapping a tuple
    giving, for each carrier point, a target position.  The atoms are the
    classes of points whose images share a target atom under every map.
    """
    points = tuple(points)
    keys = [()] * len(points)
    for mapping, target in family:
        _check_map(mapping, len(points), len(target.points))
        t_atom = target.point_atom
        keys = [key + (t_atom[j],) for key, j in zip(keys, mapping)]
    return _space_of_classes(points, keys)


@dataclass(frozen=True)
class MeasFn:
    """A measurable function between finite measurable spaces.

    `image` lists the codomain position of each domain point, aligned
    with dom.points, and `mapping` is the same list as codomain labels;
    `atom_map` lists, for each atom of dom, the position of the codomain
    atom it lands in.
    """

    dom: FinMeasSpace
    cod: FinMeasSpace
    image: tuple[int, ...]
    atom_map: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_map(self.image, len(self.dom.points), len(self.cod.points))
        # measurable exactly when each domain atom lands in one codomain atom
        cod_atom = self.cod.point_atom
        landing: dict[int, int] = {}
        for k, j in zip(self.dom.point_atom, self.image):
            if landing.setdefault(k, cod_atom[j]) != cod_atom[j]:
                names = self.cod.subset_names(self._split_witness())
                raise DomainError(f"map is not measurable; witness set {names}")
        object.__setattr__(self, "atom_map",
                           tuple(landing[k] for k in range(len(landing))))

    def _split_witness(self) -> int:
        """The least codomain atom (as a mask) whose preimage splits a domain
        atom: `is_measurable`'s witness, found without the member sets."""
        hit: dict[int, set[int]] = {}
        for k, j in zip(self.dom.point_atom, self.image):
            hit.setdefault(k, set()).add(self.cod.atoms[self.cod.point_atom[j]])
        return min(b for atoms in hit.values() if len(atoms) > 1 for b in atoms)

    @property
    def mapping(self) -> tuple[str, ...]:
        """The codomain label of each domain point."""
        return tuple(self.cod.points[j] for j in self.image)

    @classmethod
    def identity(cls, space: FinMeasSpace) -> "MeasFn":
        return cls(space, space, tuple(range(len(space.points))))


def is_measurable(image, dom: FinMeasSpace, cod: FinMeasSpace):
    """Check measurability by preimages; on failure return a witness
    codomain set.

    `image` lists the codomain position of each domain point.  Returns
    (True, None) or (False, witness_mask) where the witness's preimage is
    not in dom.sigma.  This is the definition, kept as the reference
    oracle for `MeasFn` (test and witness) and `measurable_maps`.
    """
    _check_map(image, len(dom.points), len(cod.points))
    for u in cod.members:
        pre = 0
        for i, j in enumerate(image):
            if u >> j & 1:
                pre |= 1 << i
        if pre not in dom.sigma:
            return False, u
    return True, None


def measurable_maps(X: FinMeasSpace, Y: FinMeasSpace) -> list[tuple[int, ...]]:
    """Every measurable map X -> Y as the tuple of its codomain positions,
    in lexicographic order.

    A map is measurable exactly when each atom of X lands inside a single
    atom of Y, so the maps are, for each choice of a Y atom per X atom,
    every choice of a point of it per point; the equivalence with the
    preimage definition is covered by tests.  There are as many as the
    product over X atoms a of the sum over Y atoms b of |b|^|a|, and that
    count is what the capacity bounds.
    """
    count = 1
    for a in X.atoms:
        count *= sum(b.bit_count() ** a.bit_count() for b in Y.atoms)
    if count > SIGMA_CAPACITY:
        raise CapacityError("function enumeration exceeds capacity")
    blocks = [[j for j in range(len(Y.points)) if b >> j & 1] for b in Y.atoms]
    out = []
    for assignment in itertools.product(blocks, repeat=len(X.atoms)):
        out.extend(itertools.product(*(assignment[k] for k in X.point_atom)))
    out.sort()
    return out


def enumerate_meas_fns(X: FinMeasSpace, Y: FinMeasSpace) -> list[MeasFn]:
    """`measurable_maps` as checked `MeasFn`s, in the same order."""
    return [MeasFn(X, Y, m) for m in measurable_maps(X, Y)]


def is_separated(X: FinMeasSpace):
    """True iff every pair of distinct points is split by some sigma member.

    Returns (True, None) or (False, (p, q)) with an inseparable pair: the
    two lowest points of the first atom with more than one point, which is
    the first inseparable pair in lexicographic order.
    """
    for a in X.atoms:
        if a & (a - 1):
            return False, X.subset_names(a)[:2]
    return True, None
