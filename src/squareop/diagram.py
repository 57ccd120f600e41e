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

The fragment and label rules of every diagram, crisp or fuzzy, live here,
in ``_check_fragment`` and ``_check_aligned``; the constructors and the
JSON readers call them.
"""

from __future__ import annotations

import enum
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

from ._record import record
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

    # Enum's own value, __hash__ and __str__ run Python code on every read;
    # members are singletons compared by identity, so plain attribute
    # access and the identity hash give the same answers at C speed.
    value = property(operator.attrgetter("_value_"))
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self._value_


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


def _kind_table(masks: Sequence[int], top: int) -> tuple[tuple[RelationKind, ...], ...]:
    """The seven-clause kind of every ordered pair of ``masks``.

    This is the one classifier behind crisp and fuzzy diagrams.  Each point
    is a set of atoms as a bitmask and ``top`` is the set of all atoms, so
    meet is ``&``, join is ``|`` and bottom is 0.  Crisp diagrams pass their
    element bits and the algebra's mask.  A fuzzy diagram's certified
    Boolean algebra embeds in the powerset of its join-irreducibles
    (Birkhoff), so it passes each element's mask of join-irreducibles below
    it and the mask of all of them.

    The table is bit-sliced.  The points are transposed once into one n-bit
    column per distinct atom column (bit i set iff point i holds the atom).
    For row x, the up-set {y : x <= y} is the AND of the columns x holds and
    the down-set the complement of the OR of the others; the meet-zero set
    is the complement of the OR of x's columns and the join-top set the AND
    of the others, empty when some atom lies in no point.  The BI, LI, RI,
    CD, C and SC sets follow from these in clause order, and only their set
    bits are written into a row of UN.  BI means equal masks, so duplicate
    points are BI to each other.
    """
    BI, LI, RI, CD, C, SC, UN = RelationKind
    n = len(masks)
    everything = (1 << n) - 1
    width = top.bit_length()
    # one binary string per point, last point first and a sentinel 1 on top,
    # so character k of every string is atom width - k
    strings = [format(x | 1 << width, "b") for x in reversed(masks)]
    columns = {
        int("".join(bits), 2)
        for atom, bits in zip(range(width, -1, -1), zip(*strings))
        if top >> atom & 1
    }
    table = []
    for i in range(n):
        up = join_top = everything
        held = other = 0
        for column in columns:
            if column >> i & 1:
                up &= column
                held |= column
            else:
                other |= column
                join_top &= column
        down = everything ^ other
        bi = up & down
        rest = everything ^ (up | down)
        meet_zero = rest & ~held
        cd = meet_zero & join_top
        row = [UN] * n
        for kind, bits in (
            (BI, bi),
            (LI, up ^ bi),
            (RI, down ^ bi),
            (CD, cd),
            (C, meet_zero ^ cd),
            (SC, (rest & join_top) ^ cd),
        ):
            while bits:
                low = bits & -bits
                row[low.bit_length() - 1] = kind
                bits ^= low
        table.append(tuple(row))
    return tuple(table)


def classify(x: Element, y: Element) -> RelationKind:
    """Classify the logical relation between two elements of one algebra."""
    x._require_same_algebra(y)
    return _kind_table((x.bits, y.bits), x.algebra.mask)[0][1]


def _check_fragment(fragment: Sequence, keys: Sequence) -> None:
    """``fragment`` is not empty, and its elements' ``keys`` are distinct."""
    if not fragment:
        raise ValueError("fragment must not be empty")
    if len(set(keys)) != len(fragment):
        raise ValueError("fragment elements must be distinct")


def _check_aligned(labels: Sequence[str], fragment: Sequence) -> None:
    """Explicit ``labels``, if any, name the ``fragment`` one to one."""
    if labels and len(labels) != len(fragment):
        raise ValueError("labels must align with the fragment")


@record
class Diagram:
    """A fragment of a Boolean algebra with display labels.

    Without ``labels``, each element's canonical label (``{a,c}``) is its
    label, computed on first read; the value is the same either way.
    """

    algebra: BooleanAlgebra
    fragment: tuple[Element, ...]
    labels: tuple[str, ...]

    def __init__(
        self, algebra: BooleanAlgebra, fragment: tuple[Element, ...], labels: tuple[str, ...] = ()
    ) -> None:
        fragment = tuple(fragment)
        for e in fragment:
            if e.algebra != algebra:
                raise AlgebraMismatchError("fragment element does not belong to the diagram algebra")
        _check_fragment(fragment, [e.bits for e in fragment])
        if labels:
            labels = tuple(labels)
            _check_aligned(labels, fragment)
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "fragment", fragment)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(element_label(e) for e in self.fragment)

    @property
    def all_contingent(self) -> bool:
        """Whether every fragment element avoids both bounds 0 and 1."""
        return all(e.is_contingent for e in self.fragment)

    @cached_property
    def kind_table(self) -> tuple[tuple[RelationKind, ...], ...]:
        """The seven-clause kind of every fragment pair; the diagonal is BI."""
        return _kind_table([e.bits for e in self.fragment], self.algebra.mask)

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


@record
class DiagramMap:
    """A total function between diagram fragments, as target indices.

    Maps, isomorphisms and infomorphisms read only a diagram's ``fragment``
    and ``kind_table``, so they serve crisp and fuzzy diagrams alike.
    """

    source: Diagram | FuzzyAristotelianDiagram
    target: Diagram | FuzzyAristotelianDiagram
    mapping: tuple[int, ...]

    def __init__(
        self,
        source: Diagram | FuzzyAristotelianDiagram,
        target: Diagram | FuzzyAristotelianDiagram,
        mapping: tuple[int, ...],
    ) -> None:
        try:
            indices = tuple(map(operator.index, mapping))
        except TypeError:
            raise ValueError(f"mapping target indices must be integers, got {mapping!r}") from None
        if len(indices) != len(source.fragment):
            raise ValueError(
                f"mapping must list {len(source.fragment)} target indices, got {len(indices)}"
            )
        for j in indices:
            if not 0 <= j < len(target.fragment):
                raise ValueError(f"mapping target index {j} out of range")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", indices)

    @property
    def is_bijection(self) -> bool:
        return len(self.source.fragment) == len(self.target.fragment) and len(
            set(self.mapping)
        ) == len(self.mapping)

    @classmethod
    def identity(cls, d: Diagram | FuzzyAristotelianDiagram) -> "DiagramMap":
        return cls._trusted(d, d, tuple(range(len(d.fragment))))


def compose_maps(first: DiagramMap, second: DiagramMap) -> DiagramMap:
    """The composite map applying ``first`` then ``second``."""
    if first.target is not second.source and first.target != second.source:
        raise ValueError("maps are not composable: first.target differs from second.source")
    # total and in range by construction: every entry is one of second's
    return DiagramMap._trusted(
        first.source, second.target, tuple([second.mapping[j] for j in first.mapping])
    )


def check_iso(m: DiagramMap) -> bool:
    """Whether a bijective map preserves every relation kind exactly."""
    if not m.is_bijection:
        raise ValueError("check_iso requires a bijective mapping")
    source, target, f = m.source.kind_table, m.target.kind_table, m.mapping
    return all(
        kind == target[f[i]][f[j]] for i, row in enumerate(source) for j, kind in enumerate(row)
    )


#: Small integer code of each kind, so the search indexes lists, not enum hashes.
_KIND_CODE = {kind: code for code, kind in enumerate(RelationKind)}
_KIND_COUNT = len(RelationKind)


def _pair_codes(table: Sequence[Sequence[RelationKind]]) -> list[list[int]]:
    """Cell (i, p) of a kind table as one code for the kinds of (i, p) and (p, i)."""
    codes = [[_KIND_CODE[kind] for kind in row] for row in table]
    return [
        [_KIND_COUNT * a + b for a, b in zip(row, col)] for row, col in zip(codes, zip(*codes))
    ]


def _iso_problem(
    t1: Sequence[Sequence[RelationKind]], t2: Sequence[Sequence[RelationKind]]
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The search input for isomorphisms from kind table ``t1`` onto ``t2``.

    Returns the pair codes of ``t1``; for each target j, the bitmask of the
    other targets q whose cell (j, q) has each pair code; and each
    position's start candidates: the targets with the same diagonal cell and
    the same multiset of pair codes in their row, a refinement invariant
    that every isomorphism preserves.
    """
    c1, c2 = _pair_codes(t1), _pair_codes(t2)
    reach = []
    for j, row in enumerate(c2):
        masks = [0] * _KIND_COUNT**2
        for q, code in enumerate(row):
            if q != j:
                masks[code] |= 1 << q
        reach.append(masks)
    signatures = [(row[j], sorted(row)) for j, row in enumerate(c2)]
    start = []
    for i, row in enumerate(c1):
        signature = (row[i], sorted(row))
        start.append(sum(1 << j for j, other in enumerate(signatures) if other == signature))
    return c1, reach, start


def _iso_solutions(
    codes: list[list[int]], reach: list[list[int]], candidates: list[int]
) -> Iterator[tuple[int, ...]]:
    """Every code-preserving bijection with position i sent into ``candidates[i]``.

    Forward checking: positions are filled in order, each with its remaining
    candidates in increasing order, so solutions come lexicographically.
    Sending i to j intersects the candidate set of every later position p
    with ``reach[j][codes[i][p]]``, which also removes j itself; an empty
    set prunes the branch at once.  The depth-first walk keeps its own
    stack: ``later[i]`` holds the candidate sets of positions after i and
    ``untried[i]`` the candidates of i not yet tried.
    """
    n = len(codes)
    rows = [row[i + 1 :] for i, row in enumerate(codes)]
    assigned = [0] * n
    later = [candidates[1:]] + [[]] * (n - 1)
    untried = [candidates[0]] + [0] * (n - 1)
    i = 0
    while i >= 0:
        bits = untried[i]
        if not bits:
            i -= 1
            continue
        low = bits & -bits
        untried[i] = bits ^ low
        j = assigned[i] = low.bit_length() - 1
        if i == n - 1:
            yield tuple(assigned)
            continue
        masks = reach[j]
        rest = [c & masks[code] for c, code in zip(later[i], rows[i])]
        if 0 in rest:
            continue
        i += 1
        untried[i] = rest[0]
        later[i] = rest[1:]


def iter_isos(
    d1: Diagram | FuzzyAristotelianDiagram, d2: Diagram | FuzzyAristotelianDiagram
) -> Iterator[DiagramMap]:
    """The isomorphisms of :func:`find_isos`, lazily and in the same order."""
    n = len(d1.fragment)
    if n != len(d2.fragment):
        return iter(())
    if n > MAX_ISO_FRAGMENT:
        raise ValueError(f"fragments larger than {MAX_ISO_FRAGMENT} are refused")
    solutions = _iso_solutions(*_iso_problem(d1.kind_table, d2.kind_table))
    return (DiagramMap._trusted(d1, d2, mapping) for mapping in solutions)


def find_isos(
    d1: Diagram | FuzzyAristotelianDiagram, d2: Diagram | FuzzyAristotelianDiagram
) -> list[DiagramMap]:
    """All relation-preserving bijections between two fragments.

    A depth-first search over bitmask candidate sets.  Each position starts
    from the targets whose kind row and column hold the same multiset of
    kinds (a refinement invariant); each assignment narrows the candidates
    of every later position through precomputed per-target masks (forward
    checking), and an empty candidate set prunes at once.  Results are in
    lexicographic order of the mapping tuples, so output is deterministic.
    Fragments of different sizes have no bijections; fragments larger than
    10 are refused (factorial blowup).
    """
    return list(iter_isos(d1, d2))


def count_isos(
    d1: Diagram | FuzzyAristotelianDiagram, d2: Diagram | FuzzyAristotelianDiagram
) -> int:
    """The number of isomorphisms from ``d1`` to ``d2``, without listing them.

    It is 0 or |Aut(d2)|: composing one isomorphism with each automorphism
    of ``d2`` gives each isomorphism once.  |Aut(d2)| is the product of the
    orbit sizes along the stabilizer chain (orbit-stabilizer): the orbit of
    position k under the automorphisms fixing 0..k-1 holds each j for which
    one search, with 0..k-1 pinned to themselves and k pinned to j, finds a
    first solution.  Sizes are refused as in :func:`find_isos`.
    """
    if next(iter_isos(d1, d2), None) is None:
        return 0
    codes, reach, pinned = _iso_problem(d2.kind_table, d2.kind_table)
    count = 1
    for k, bits in enumerate(pinned):
        orbit = 0
        while bits:
            low = bits & -bits
            bits ^= low
            pinned[k] = low
            orbit += next(_iso_solutions(codes, reach, pinned), None) is not None
        pinned[k] = 1 << k
        count *= orbit
    return count


def check_infomorphism(m: DiagramMap) -> bool:
    """Whether the map never loses informativity on any fragment pair."""
    return _keeps_informativity(m.source.kind_table, m.target.kind_table, m.mapping)


def _keeps_informativity(
    source: Sequence[Sequence[RelationKind]],
    target: Sequence[Sequence[RelationKind]],
    f: Sequence[int],
) -> bool:
    """Whether every kind of ``source`` is at most as informative as the kind
    of ``target`` at the pair of rows ``f`` sends it to."""
    return all(
        informativity_leq(kind, target[f[i]][f[j]])
        for i, row in enumerate(source)
        for j, kind in enumerate(row)
    )
