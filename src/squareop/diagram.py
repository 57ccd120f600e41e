"""Crisp Aristotelian diagrams: logical relations, isomorphisms, infomorphisms.

A diagram is a fragment of a finite Boolean algebra.  Every ordered pair of
elements is classified into one of seven logical relations; the first three
are implication relations, the next three opposition relations:

====  =============================  =====================================
kind  name                           holds when
====  =============================  =====================================
BI    bi-implication                 x = y
LI    left implication               x < y
RI    right implication              y < x
CD    contradictories                x ∧ y = 0 and x ∨ y = 1
C     contraries                     x ∧ y = 0 and x ∨ y ≠ 1
SC    subcontraries                  x ∧ y ≠ 0 and x ∨ y = 1
Un    unconnectedness                none of the above
====  =============================  =====================================

The clauses are tested in exactly this order and the first match wins.  For
contingent elements (neither 0 nor 1) the clauses are mutually exclusive, so
the order only matters at the bounds (e.g. x = 0, y = 1 satisfies both the
LI and CD conditions and classifies as LI).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from .algebra import AlgebraMismatchError, BooleanAlgebra, Element, element_label

if TYPE_CHECKING:
    from .fuzzydiagram import FuzzyAristotelianDiagram

MAX_ISO_FRAGMENT = 10


class RelationKind(enum.Enum):
    BI = "BI"
    LI = "LI"
    RI = "RI"
    CD = "CD"
    C = "C"
    SC = "SC"
    UN = "Un"

    def __str__(self) -> str:
        return self.value


IMPLICATION_KINDS = frozenset({RelationKind.BI, RelationKind.LI, RelationKind.RI})
OPPOSITION_KINDS = frozenset({RelationKind.CD, RelationKind.C, RelationKind.SC})

#: Generating pairs of the informativity order (less informative first).
INFORMATIVITY_COVERS: tuple[tuple[RelationKind, RelationKind], ...] = (
    (RelationKind.UN, RelationKind.LI),
    (RelationKind.UN, RelationKind.RI),
    (RelationKind.UN, RelationKind.C),
    (RelationKind.UN, RelationKind.SC),
    (RelationKind.LI, RelationKind.BI),
    (RelationKind.RI, RelationKind.BI),
    (RelationKind.C, RelationKind.CD),
    (RelationKind.SC, RelationKind.CD),
)


#: The informativity order as a set of (less, more informative) pairs: the
#: reflexive pairs, the covers, and the two pairs they imply by transitivity.
_INFORMATIVITY_ORDER = frozenset(
    {(r, r) for r in RelationKind}
    | set(INFORMATIVITY_COVERS)
    | {(RelationKind.UN, RelationKind.BI), (RelationKind.UN, RelationKind.CD)}
)


def informativity_order() -> frozenset[tuple[RelationKind, RelationKind]]:
    """Reflexive-transitive closure of the generating informativity pairs."""
    return _INFORMATIVITY_ORDER


def informativity_leq(r: RelationKind, s: RelationKind) -> bool:
    """True iff relation ``s`` is at least as informative as ``r``."""
    return (r, s) in _INFORMATIVITY_ORDER


def _kind_table(
    points: Sequence[int],
    leq: Callable[[int, int], bool],
    meet_bottom: Callable[[int, int], bool],
    join_top: Callable[[int, int], bool],
) -> tuple[tuple[RelationKind, ...], ...]:
    """The seven-clause kind of every ordered pair of ``points``.

    This is the one classifier behind crisp and fuzzy diagrams: points are
    ids of lattice elements (equal ids, equal elements), ``leq`` is the
    lattice order on them, and the other two predicates say whether a pair's
    meet is the bottom and its join the top.
    """

    def kind(x: int, y: int) -> RelationKind:
        if x == y:
            return RelationKind.BI
        if leq(x, y):
            return RelationKind.LI
        if leq(y, x):
            return RelationKind.RI
        meet_is_bottom = meet_bottom(x, y)
        join_is_top = join_top(x, y)
        if meet_is_bottom and join_is_top:
            return RelationKind.CD
        if meet_is_bottom:
            return RelationKind.C
        if join_is_top:
            return RelationKind.SC
        return RelationKind.UN

    return tuple(tuple(kind(x, y) for y in points) for x in points)


def _bitmask_kind_table(points: Sequence[int], mask: int) -> tuple[tuple[RelationKind, ...], ...]:
    """Kind table of bitmask elements of the powerset algebra with top ``mask``."""
    return _kind_table(
        points,
        lambda x, y: x & y == x,
        lambda x, y: x & y == 0,
        lambda x, y: x | y == mask,
    )


def classify(x: Element, y: Element) -> RelationKind:
    """Classify the logical relation between two elements of one algebra."""
    x._require_same_algebra(y)
    return _bitmask_kind_table((x.bits, y.bits), x.algebra.mask)[0][1]


@dataclass(frozen=True)
class Diagram:
    """A fragment of a Boolean algebra with display labels."""

    algebra: BooleanAlgebra
    fragment: tuple[Element, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.fragment, tuple):
            object.__setattr__(self, "fragment", tuple(self.fragment))
        if not self.fragment:
            raise ValueError("fragment must not be empty")
        for e in self.fragment:
            if e.algebra != self.algebra:
                raise AlgebraMismatchError("fragment element does not belong to the diagram algebra")
        if len({e.bits for e in self.fragment}) != len(self.fragment):
            raise ValueError("fragment elements must be distinct")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(element_label(e) for e in self.fragment))
        elif not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.fragment):
            raise ValueError("labels must align with the fragment")

    @property
    def all_contingent(self) -> bool:
        """Whether every fragment element avoids both bounds 0 and 1."""
        return all(e.is_contingent for e in self.fragment)

    @cached_property
    def kind_table(self) -> tuple[tuple[RelationKind, ...], ...]:
        """The seven-clause kind of every fragment pair; the diagonal is BI."""
        bits = tuple(e.bits for e in self.fragment)
        return _bitmask_kind_table(bits, self.algebra.mask)

    def __len__(self) -> int:
        return len(self.fragment)


def relation_table(
    d: Diagram | FuzzyAristotelianDiagram,
) -> tuple[tuple[RelationKind, ...], ...]:
    """Square matrix of relation kinds over the fragment; diagonal is BI."""
    return d.kind_table


def canonical_square() -> Diagram:
    """The traditional square of opposition, with existential import.

    The three atoms are the mutually exclusive situations "every S is P",
    "some but not all S are P" and "no S is P".  Each of the four forms is
    the set of situations that makes it true.
    """
    algebra = BooleanAlgebra(("all", "some", "none"))
    a = algebra.from_atoms(["all"])
    e = algebra.from_atoms(["none"])
    i = algebra.from_atoms(["all", "some"])
    o = algebra.from_atoms(["some", "none"])
    return Diagram(
        algebra,
        (a, e, i, o),
        ("Every S is P", "No S is P", "Some S is P", "Some S is not P"),
    )


@dataclass(frozen=True)
class DiagramMap:
    """A total function between diagram fragments, as target indices.

    Maps, isomorphisms and infomorphisms read only a diagram's ``fragment``
    and ``kind_table``, so they serve crisp and fuzzy diagrams alike.
    """

    source: Diagram | FuzzyAristotelianDiagram
    target: Diagram | FuzzyAristotelianDiagram
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.mapping, tuple):
            object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.source.fragment):
            raise ValueError("mapping must be total on the source fragment")
        for j in self.mapping:
            if not 0 <= j < len(self.target.fragment):
                raise ValueError(f"mapping target index {j} out of range")

    @property
    def is_bijection(self) -> bool:
        return len(self.source.fragment) == len(self.target.fragment) and len(
            set(self.mapping)
        ) == len(self.mapping)

    @classmethod
    def identity(cls, d: Diagram | FuzzyAristotelianDiagram) -> "DiagramMap":
        return cls(d, d, tuple(range(len(d.fragment))))


def compose_maps(first: DiagramMap, second: DiagramMap) -> DiagramMap:
    """The composite map applying ``first`` then ``second``."""
    if first.target != second.source:
        raise ValueError("maps are not composable: first.target differs from second.source")
    return DiagramMap(first.source, second.target, tuple(second.mapping[j] for j in first.mapping))


def check_iso(m: DiagramMap) -> bool:
    """Whether a bijective map preserves every relation kind exactly."""
    if not m.is_bijection:
        raise ValueError("check_iso requires a bijective mapping")
    source, target, f = m.source.kind_table, m.target.kind_table, m.mapping
    return all(
        kind == target[f[i]][f[j]] for i, row in enumerate(source) for j, kind in enumerate(row)
    )


def find_isos(
    d1: Diagram | FuzzyAristotelianDiagram, d2: Diagram | FuzzyAristotelianDiagram
) -> list[DiagramMap]:
    """All relation-preserving bijections between two fragments.

    Backtracking search with relation-compatibility pruning; results are in
    lexicographic order of the mapping tuples, so output is deterministic.
    Fragments of different sizes have no bijections; fragments larger than
    10 are refused (factorial blowup).
    """
    n = len(d1.fragment)
    if n != len(d2.fragment):
        return []
    if n > MAX_ISO_FRAGMENT:
        raise ValueError(f"fragments larger than {MAX_ISO_FRAGMENT} are refused")
    t1 = d1.kind_table
    t2 = d2.kind_table
    found: list[DiagramMap] = []
    assigned: list[int] = []
    used = [False] * n

    def place(i: int) -> None:
        if i == n:
            found.append(DiagramMap(d1, d2, tuple(assigned)))
            return
        for j in range(n):
            if used[j]:
                continue
            if any(
                t1[k][i] != t2[assigned[k]][j] or t1[i][k] != t2[j][assigned[k]]
                for k in range(i)
            ):
                continue
            assigned.append(j)
            used[j] = True
            place(i + 1)
            used[j] = False
            assigned.pop()

    place(0)
    return found


def check_infomorphism(m: DiagramMap) -> bool:
    """Whether the map never loses informativity on any fragment pair."""
    source, target, f = m.source.kind_table, m.target.kind_table, m.mapping
    return all(
        informativity_leq(kind, target[f[i]][f[j]])
        for i, row in enumerate(source)
        for j, kind in enumerate(row)
    )
