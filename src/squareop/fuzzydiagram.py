"""Fuzzy Aristotelian diagrams over intuitionistic fuzzy Boolean algebras.

Classification of fragment pairs runs the same seven-clause scheme as the
crisp theory, but in the crisp order derived from the fuzzy one; the degrees
of the witnessing order edge ride along as a confidence annotation.  This is
deliberately conservative: no graded variants of the opposition relations
are invented, and embedding a crisp diagram reproduces the crisp
classification exactly with all annotations (1, 0).

Witnessing edges per kind (R is the fuzzy order, neg the unique complement):

* BI: the diagonal edge (x, y) with x = y
* LI: the edge (x, y); RI: the edge (y, x)
* CD: the edge (x, neg y), a diagonal edge since x = neg y
* C:  the edge (x, neg y); SC: the edge (neg y, x)
* Un: no witnessing edge; annotated (1, 0) by convention, since nothing
  hedges the verdict

Bi-implication additionally gets a tolerance-based reading: x and y count as
fuzzily bi-implied when the membership and nonmembership degrees of the
order edge differ by at most the diagram tolerance (default 1/100).

A fuzzy fragment obeys the rules of ``diagram`` and lies in the carrier:
``_check_fuzzy_fragment`` states that once, for the constructor and the
JSON reader.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from typing import Iterator, Mapping, NamedTuple, Sequence

from ._record import record
from .algebra import LawCheck, element_label
from .degrees import FULL, IFPair, degree
from .diagram import (
    Diagram,
    DiagramMap,
    RelationKind,
    _check_aligned,
    _check_fragment,
    canonical_square,
    check_infomorphism,
    compose_maps,
    relation_table,
)
from .iflattice import IFLattice, LawViolationError, powerset_lattice

DEFAULT_TOLERANCE = Fraction(1, 100)


def _check_fuzzy_fragment(fragment: tuple[str, ...], carrier: tuple[str, ...]) -> None:
    """Every diagram's fragment rules, keyed by label, and carrier membership."""
    _check_fragment(fragment, fragment)
    for x in fragment:
        if x not in carrier:
            raise ValueError(f"fragment element {x!r} is not in the carrier")


@record
class FuzzyAristotelianDiagram:
    """A fragment of a certified fuzzy Boolean algebra."""

    lattice: IFLattice
    fragment: tuple[str, ...]
    labels: tuple[str, ...]
    tolerance: Fraction

    def __init__(
        self,
        lattice: IFLattice,
        fragment: tuple[str, ...],
        labels: tuple[str, ...] = (),
        tolerance: Fraction = DEFAULT_TOLERANCE,
    ) -> None:
        fragment = tuple(fragment)
        tolerance = degree(tolerance)
        _check_fuzzy_fragment(fragment, lattice.carrier)
        if not lattice.is_if_boolean_algebra:
            raise ValueError("the underlying lattice is not a fuzzy Boolean algebra")
        labels = tuple(labels) if labels else fragment
        _check_aligned(labels, fragment)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "fragment", fragment)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tolerance", tolerance)

    def _require_member(self, x: str) -> None:
        if x not in self.fragment:
            raise ValueError(f"{x!r} is not a fragment element")

    @cached_property
    def kind_table(self) -> tuple[tuple[RelationKind, ...], ...]:
        """The seven-clause kind of every fragment pair, in the derived order.

        The kinds depend on the derived crisp order alone, never on the
        degrees, so this slices the carrier-wide table that every lattice
        with the same derived order shares.
        """
        table = self.lattice._structure.kind_table
        index = tuple(map(self.lattice.index, self.fragment))
        return tuple(tuple(map(table[i].__getitem__, index)) for i in index)

    @cached_property
    def _classifications(self) -> tuple[tuple[FuzzyClassification, ...], ...]:
        """Every fragment pair's kind with the degrees of its witnessing edge."""
        lat = self.lattice
        pair, neg = lat.order.pair, lat._structure.neg
        index = tuple(map(lat.index, self.fragment))
        table = []
        for x, kinds in zip(index, self.kind_table):
            row = []
            for y, kind in zip(index, kinds):
                if kind is RelationKind.BI or kind is RelationKind.LI:
                    edge = pair(x, y)
                elif kind is RelationKind.RI:
                    edge = pair(y, x)
                elif kind is RelationKind.CD or kind is RelationKind.C:
                    edge = pair(x, neg[y])
                elif kind is RelationKind.SC:
                    edge = pair(neg[y], x)
                else:
                    edge = FULL
                row.append(FuzzyClassification(kind, edge))
            table.append(tuple(row))
        return tuple(table)

    def __len__(self) -> int:
        return len(self.fragment)


class FuzzyClassification(NamedTuple):
    kind: RelationKind
    annotation: IFPair


def fuzzy_bi_implication(d: FuzzyAristotelianDiagram, x: str, y: str) -> bool:
    """Whether the order edge's membership and nonmembership degrees agree
    within the diagram tolerance (exact rational comparison)."""
    d._require_member(x)
    d._require_member(y)
    edge = d.lattice.order.pair_of(x, y)
    diff = edge.mu - edge.nu
    return abs(diff) <= d.tolerance


def classify_fuzzy(d: FuzzyAristotelianDiagram, x: str, y: str) -> FuzzyClassification:
    """Seven-clause classification in the derived order, with annotation."""
    d._require_member(x)
    d._require_member(y)
    return d._classifications[d.fragment.index(x)][d.fragment.index(y)]


def fuzzy_relation_table(
    d: FuzzyAristotelianDiagram,
) -> tuple[tuple[FuzzyClassification, ...], ...]:
    return d._classifications


# the map layer is shared with crisp diagrams; these names are kept as aliases
FuzzyDiagramMap = DiagramMap
compose_fuzzy_maps = compose_maps
check_fuzzy_infomorphism = check_infomorphism


def check_if_homomorphism(
    source: IFLattice, target: IFLattice, mapping: Mapping[str, str]
) -> bool:
    """Whether a carrier map preserves join, negation and both bounds.

    Meet preservation follows from the checked operations via De Morgan, so
    it is verified as a derived assertion: a map passing the primary checks
    but failing it would mean the surrounding machinery is broken.
    """
    for lat, role in ((source, "source"), (target, "target")):
        if not lat.is_if_boolean_algebra:
            raise ValueError(f"{role} lattice is not a fuzzy Boolean algebra")
    for x in source.carrier:
        if x not in mapping:
            raise ValueError(f"mapping is not total: missing {x!r}")
        if mapping[x] not in target.carrier:
            raise ValueError(f"mapping image {mapping[x]!r} is not in the target carrier")

    f = [target.index(mapping[x]) for x in source.carrier]
    s, t = source._structure, target._structure
    if f[s.bottom] != t.bottom or f[s.top] != t.top:
        return False
    if any(f[s.neg[x]] != t.neg[fx] for x, fx in enumerate(f)):
        return False
    size = len(source.carrier)
    for x, y in product(range(size), repeat=2):
        if f[s.lub[x][y]] != t.lub[f[x]][f[y]]:
            return False
    # derived meet preservation; cannot fail once the above passed
    for x, y in product(range(size), repeat=2):
        if f[s.glb[x][y]] != t.glb[f[x]][f[y]]:
            raise LawViolationError(
                f"meet preservation failed at ({source.carrier[x]!r}, {source.carrier[y]!r}) "
                "although join, negation and bounds are preserved"
            )
    return True


#: the category laws' verdict: ``group`` is None and the witness is a tuple of maps
LawResult = LawCheck


@record
class CategoryLawReport:
    laws: tuple[LawCheck, ...]
    excluded: tuple[int, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.holds for r in self.laws)


def verify_category_laws(maps: Sequence[DiagramMap]) -> CategoryLawReport:
    """Check the category laws on a sample of diagram maps.

    1. identity: identity maps are infomorphisms and are neutral for
       composition against every sample map; its cases are each diagram's
       identity map, then each sample map;
    2. closure: the composite of two composable infomorphisms is one; its
       cases are the composable pairs of passing maps;
    3. associativity: composing three composable maps either way yields the
       same map; its cases are the composable triples.

    Each law counts its cases and keeps the first failing one, a tuple of
    maps, as its counterexample.  Sample maps that are not themselves
    infomorphisms are excluded from the closure law (their indices are
    reported); non-composable chains are skipped, not fatal.

    Each composable pair of sample maps is composed once, by
    ``compose_maps``; the closure law and both sides of every associativity
    case reuse that composite, and each diagram has one identity map.
    """
    maps = list(maps)
    passing = [check_infomorphism(m) for m in maps]
    excluded = tuple(i for i, ok in enumerate(passing) if not ok)

    diagrams = dict.fromkeys(d for m in maps for d in (m.source, m.target))
    # indices of the sample maps leaving each diagram
    leaving: dict[Diagram | FuzzyAristotelianDiagram, list[int]] = {d: [] for d in diagrams}
    for i, m in enumerate(maps):
        leaving[m.source].append(i)

    identity = {d: DiagramMap.identity(d) for d in diagrams}
    composite = {
        (i, j): compose_maps(m, maps[j]) for i, m in enumerate(maps) for j in leaving[m.target]
    }
    pairs = [(i, j) for i, j in composite if passing[i] and passing[j]]
    triples = [(i, j, k) for i, j in composite for k in leaving[maps[j].target]]

    def neutral(m: DiagramMap) -> bool:
        left = compose_maps(identity[m.source], m)
        return left == m == compose_maps(m, identity[m.target])

    def associates(i: int, j: int, k: int) -> bool:
        return compose_maps(composite[i, j], maps[k]) == compose_maps(maps[i], composite[j, k])

    identity_failures = chain(
        ((i,) for i in identity.values() if not check_infomorphism(i)),
        ((m,) for m in maps if not neutral(m)),
    )
    return CategoryLawReport(
        (
            _law("identity", len(identity) + len(maps), identity_failures),
            _law("composition-closure", len(pairs),
                 ((maps[i], maps[j]) for i, j in pairs if not check_infomorphism(composite[i, j]))),
            _law("associativity", len(triples),
                 ((maps[i], maps[j], maps[k]) for i, j, k in triples if not associates(i, j, k))),
        ),
        excluded,
    )


def _law(law: str, checked: int, failing: Iterator[tuple[DiagramMap, ...]]) -> LawCheck:
    counterexample = next(failing, None)
    return LawCheck(law, None, counterexample is None, checked, counterexample)


@record
class AnnotatedSquare:
    """The traditional square with a degree pair attached to each cell."""

    diagram: Diagram
    annotations: tuple[tuple[IFPair, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.diagram.fragment)
        if len(self.annotations) != n or any(len(row) != n for row in self.annotations):
            raise ValueError("annotation matrix must match the fragment")
        kinds = relation_table(self.diagram)
        for i in range(n):
            for j in range(n):
                pair = self.annotations[i][j]
                # mu = 1/2 and IFPair's mu + nu <= 1 give nu <= 1/2
                if kinds[i][j] == RelationKind.CD and pair.mu != Fraction(1, 2):
                    raise ValueError(
                        "contradiction edges must carry mu = 1/2 and nu <= 1/2, "
                        f"got {pair!r} at ({i}, {j})"
                    )


def annotate_square(contradiction_nu: Fraction | str | int) -> AnnotatedSquare:
    """The canonical square with borderline-contradiction annotations.

    Contradiction edges hold to degree 1/2 exactly; how much they fail is
    not derivable from a formula, so the caller picks any nonmembership
    degree up to 1/2.  All other cells are fully crisp, (1, 0).
    """
    cd_pair = IFPair(Fraction(1, 2), contradiction_nu)  # refuses nu > 1/2
    square = canonical_square()
    kinds = relation_table(square)
    annotations = tuple(
        tuple(cd_pair if kind == RelationKind.CD else FULL for kind in row) for row in kinds
    )
    return AnnotatedSquare(square, annotations)


def embed_diagram(
    d: Diagram, tolerance: Fraction = DEFAULT_TOLERANCE
) -> FuzzyAristotelianDiagram:
    """Embed a crisp diagram into the fuzzy theory over its powerset order.

    Classification of the embedded diagram reproduces the crisp one
    cell-for-cell, with every annotation (1, 0).  Algebras of more than 4
    atoms are refused, as by ``powerset_lattice``.
    """
    lattice = powerset_lattice(d.algebra)
    fragment = tuple(element_label(e) for e in d.fragment)
    return FuzzyAristotelianDiagram(lattice, fragment, d.labels, tolerance)
