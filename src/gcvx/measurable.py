"""Finite measurable spaces and sigma-algebra machinery.

Subsets of a carrier are bitmasks over the (fixed, input-order) point
list.  On a finite carrier a sigma-algebra is exactly a partition, so a
`FinMeasSpace` stores its atoms, the blocks of the partition, and nothing
else; the member set `sigma`, every union of atoms, is a derived view for
output and for the reference oracles.  Generation, induction and
coinduction only have to find the atoms, with no closure loop and no scan
over members or subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .kernel import CapacityError, DomainError

SIGMA_CAPACITY = 2**20
MAX_ATOMS = 20


def mask_of(points: tuple[str, ...], subset) -> int:
    m = 0
    index = {p: i for i, p in enumerate(points)}
    for p in subset:
        if p not in index:
            raise DomainError(f"point {p!r} is not in the carrier")
        m |= 1 << index[p]
    return m


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
        if len(atoms) > MAX_ATOMS:
            raise CapacityError("sigma-algebra exceeds capacity")
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
    def sigma(self) -> frozenset[int]:
        """Every measurable set: all unions of the atoms."""
        members = [0]
        for a in self.atoms:
            members += [u | a for u in members]
        return frozenset(members)

    @cached_property
    def point_atom(self) -> tuple[int, ...]:
        """Position in atoms of the atom holding each point, by position."""
        return tuple(next(k for k, a in enumerate(self.atoms) if a >> i & 1)
                     for i in range(len(self.points)))

    @cached_property
    def atom_index(self) -> dict[str, int]:
        """Position in atoms of the atom holding each point, by name."""
        return dict(zip(self.points, self.point_atom))

    def atom_of(self, point: str) -> int:
        k = self.atom_index.get(point)
        if k is None:
            raise DomainError(f"point {point!r} not found")
        return self.atoms[k]

    def subset_names(self, mask: int) -> tuple[str, ...]:
        return names_of(self.points, mask)


def generate_sigma(points, generators) -> FinMeasSpace:
    """Least sigma-algebra on `points` containing every generator.

    Its atoms are the membership classes: points lying in exactly the
    same generators.
    """
    points = tuple(points)
    masks = [mask_of(points, g) if not isinstance(g, int) else g for g in generators]
    full = (1 << len(points)) - 1
    for m in masks:
        if m & ~full:
            raise DomainError("generator is not a subset of the carrier")
    classes: dict[tuple[int, ...], int] = {}
    for i in range(len(points)):
        key = tuple(m >> i & 1 for m in masks)
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


def _check_positions(mapping, n_from, n_to):
    if len(mapping) != n_from or mapping and not 0 <= min(mapping) <= max(mapping) < n_to:
        raise DomainError(f"a family map needs {n_from} positions in range({n_to})")


def coinduced_sigma(points, family) -> FinMeasSpace:
    """Largest sigma-algebra on `points` making every family map measurable.

    `family` is a list of (source_space, mapping) with mapping a tuple
    giving, for each source point, a carrier position.  An empty family
    yields the powerset.  A set is measurable for a map exactly when it
    splits the image of no source atom, so the atoms are the classes those
    images join.
    """
    points = tuple(points)
    blocks = [1 << i for i in range(len(points))]
    for src, mapping in family:
        _check_positions(mapping, len(src.points), len(points))
        images = [0] * len(src.atoms)
        for k, q in zip(src.point_atom, mapping):
            images[k] |= 1 << q
        for img in images:
            if img & (img - 1):  # an image of one point joins nothing
                joined = 0
                for b in blocks:
                    if b & img:
                        joined |= b
                blocks = [b for b in blocks if not b & img] + [joined]
    return FinMeasSpace(points, blocks)


def induced_sigma(points, family) -> FinMeasSpace:
    """Smallest sigma-algebra on `points` making every family map measurable.

    `family` is a list of (mapping, target_space) with mapping a tuple
    giving, for each carrier point, a target position.  The atoms are the
    classes of points whose images share a target atom under every map.
    """
    points = tuple(points)
    keys = [()] * len(points)
    for mapping, target in family:
        _check_positions(mapping, len(points), len(target.points))
        t_atom = target.point_atom
        keys = [key + (t_atom[j],) for key, j in zip(keys, mapping)]
    classes: dict[tuple[int, ...], int] = {}
    for i, key in enumerate(keys):
        classes[key] = classes.get(key, 0) | (1 << i)
    return FinMeasSpace(points, classes.values())


@dataclass(frozen=True)
class MeasFn:
    """A measurable function between finite measurable spaces.

    `mapping` lists the codomain point for each domain point, aligned with
    dom.points; `atom_map` lists, for each atom of dom, the position of
    the codomain atom it lands in.
    """

    dom: FinMeasSpace
    cod: FinMeasSpace
    mapping: tuple[str, ...]
    atom_map: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.mapping) != len(self.dom.points):
            raise DomainError(f"mapping has {len(self.mapping)} values for "
                              f"{len(self.dom.points)} domain points")
        # measurable exactly when each domain atom lands in one codomain
        # atom; the preimage scan only runs to name a witness
        dom_atom, cod_atom = self.dom.atom_index, self.cod.atom_index
        landing: dict[int, int] = {}
        for p, q in zip(self.dom.points, self.mapping):
            if q not in cod_atom:
                raise DomainError(f"image {q!r} not in codomain")
            if landing.setdefault(dom_atom[p], cod_atom[q]) != cod_atom[q]:
                _, witness = is_measurable(dict(zip(self.dom.points, self.mapping)),
                                           self.dom, self.cod)
                names = self.cod.subset_names(witness)
                raise DomainError(f"map is not measurable; witness set {names}")
        object.__setattr__(self, "atom_map",
                           tuple(landing[k] for k in range(len(landing))))

    def __call__(self, p: str) -> str:
        return self.mapping[self.dom.points.index(p)]

    @classmethod
    def identity(cls, space: FinMeasSpace) -> "MeasFn":
        return cls(space, space, space.points)


def is_measurable(mapping, dom: FinMeasSpace, cod: FinMeasSpace):
    """Check measurability; on failure return a witness codomain set.

    `mapping` is a dict from domain point to codomain point.  Returns
    (True, None) or (False, witness_mask) where the witness's preimage is
    not in dom.sigma.
    """
    cindex = {p: i for i, p in enumerate(cod.points)}
    img = []
    for p in dom.points:
        q = mapping[p]
        if q not in cindex:
            raise DomainError(f"image {q!r} not in codomain")
        img.append(cindex[q])
    for u in sorted(cod.sigma):
        pre = 0
        for i, j in enumerate(img):
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
    """`measurable_maps` as checked `MeasFn`s, in lexicographic mapping order."""
    out = [MeasFn(X, Y, tuple(Y.points[j] for j in m))
           for m in measurable_maps(X, Y)]
    out.sort(key=lambda f: f.mapping)
    return out


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
