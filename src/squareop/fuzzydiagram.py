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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .algebra import element_label
from .degrees import FULL, IFPair, degree
from .diagram import Diagram, RelationKind, canonical_square, informativity_leq, relation_table
from .iflattice import IFLattice, LawViolationError, powerset_lattice

DEFAULT_TOLERANCE = Fraction(1, 100)


@dataclass(frozen=True)
class FuzzyAristotelianDiagram:
    """A fragment of a certified fuzzy Boolean algebra."""

    lattice: IFLattice
    fragment: tuple[str, ...]
    labels: tuple[str, ...] = ()
    tolerance: Fraction = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "fragment", tuple(self.fragment))
        object.__setattr__(self, "tolerance", degree(self.tolerance))
        if not self.fragment:
            raise ValueError("fragment must not be empty")
        if len(set(self.fragment)) != len(self.fragment):
            raise ValueError("fragment elements must be distinct")
        for x in self.fragment:
            if x not in self.lattice.carrier:
                raise ValueError(f"fragment element {x!r} is not in the carrier")
        if not self.lattice.is_if_boolean_algebra:
            raise ValueError("the underlying lattice is not a fuzzy Boolean algebra")
        if not self.labels:
            object.__setattr__(self, "labels", self.fragment)
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.fragment):
            raise ValueError("labels must align with the fragment")

    def _require_member(self, x: str) -> None:
        if x not in self.fragment:
            raise ValueError(f"{x!r} is not a fragment element")

    @cached_property
    def kind_table(self) -> tuple[tuple[RelationKind, ...], ...]:
        """The seven-clause kind of every fragment pair, in the derived order."""
        lat = self.lattice

        def kind(x: str, y: str) -> RelationKind:
            if x == y:
                return RelationKind.BI
            if lat.dominates(x, y):
                return RelationKind.LI
            if lat.dominates(y, x):
                return RelationKind.RI
            meet_bottom = lat.glb(x, y) == lat.bottom
            join_top = lat.lub(x, y) == lat.top
            if meet_bottom and join_top:
                return RelationKind.CD
            if meet_bottom:
                return RelationKind.C
            if join_top:
                return RelationKind.SC
            return RelationKind.UN

        return tuple(tuple(kind(x, y) for y in self.fragment) for x in self.fragment)

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
    kind = d.kind_table[d.fragment.index(x)][d.fragment.index(y)]
    lat = d.lattice
    if kind in (RelationKind.BI, RelationKind.LI):
        edge = (x, y)
    elif kind == RelationKind.RI:
        edge = (y, x)
    elif kind in (RelationKind.CD, RelationKind.C):
        edge = (x, lat.unique_complement(y))
    elif kind == RelationKind.SC:
        edge = (lat.unique_complement(y), x)
    else:
        return FuzzyClassification(RelationKind.UN, FULL)
    return FuzzyClassification(kind, lat.order.pair_of(*edge))


def fuzzy_relation_table(
    d: FuzzyAristotelianDiagram,
) -> tuple[tuple[FuzzyClassification, ...], ...]:
    return tuple(
        tuple(classify_fuzzy(d, x, y) for y in d.fragment) for x in d.fragment
    )


@dataclass(frozen=True)
class FuzzyDiagramMap:
    """A total function between fuzzy diagram fragments, as target indices."""

    source: FuzzyAristotelianDiagram
    target: FuzzyAristotelianDiagram
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != len(self.source.fragment):
            raise ValueError("mapping must be total on the source fragment")
        for j in self.mapping:
            if not 0 <= j < len(self.target.fragment):
                raise ValueError(f"mapping target index {j} out of range")

    @classmethod
    def identity(cls, d: FuzzyAristotelianDiagram) -> "FuzzyDiagramMap":
        return cls(d, d, tuple(range(len(d.fragment))))


def compose_fuzzy_maps(first: FuzzyDiagramMap, second: FuzzyDiagramMap) -> FuzzyDiagramMap:
    if first.target != second.source:
        raise ValueError("maps are not composable: first.target differs from second.source")
    return FuzzyDiagramMap(
        first.source, second.target, tuple(second.mapping[j] for j in first.mapping)
    )


def check_fuzzy_infomorphism(m: FuzzyDiagramMap) -> bool:
    """Whether the map never loses informativity on any fragment pair."""
    source, target, f = m.source.kind_table, m.target.kind_table, m.mapping
    return all(
        informativity_leq(kind, target[f[i]][f[j]])
        for i, row in enumerate(source)
        for j, kind in enumerate(row)
    )


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

    f = dict(mapping)
    if f[source.bottom] != target.bottom or f[source.top] != target.top:
        return False
    for x in source.carrier:
        if f[source.unique_complement(x)] != target.unique_complement(f[x]):
            return False
    for x in source.carrier:
        for y in source.carrier:
            if f[source.lub(x, y)] != target.lub(f[x], f[y]):
                return False
    # derived meet preservation; cannot fail once the above passed
    for x in source.carrier:
        for y in source.carrier:
            if f[source.glb(x, y)] != target.glb(f[x], f[y]):
                raise LawViolationError(
                    f"meet preservation failed at ({x!r}, {y!r}) although join, "
                    "negation and bounds are preserved"
                )
    return True


@dataclass(frozen=True)
class LawResult:
    law: str
    holds: bool
    checked: int
    detail: str = ""


@dataclass(frozen=True)
class CategoryLawReport:
    laws: tuple[LawResult, ...]
    excluded: tuple[int, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.holds for r in self.laws)


def verify_category_laws(maps: Sequence[FuzzyDiagramMap]) -> CategoryLawReport:
    """Check the category laws on a sample of fuzzy diagram maps.

    1. identity: identity maps are infomorphisms and are neutral for
       composition against every sample map;
    2. closure: the composite of two composable infomorphisms is one;
    3. associativity: composing three composable maps either way yields the
       same map.

    Sample maps that are not themselves infomorphisms are excluded from the
    closure law (their indices are reported); non-composable chains are
    skipped, not fatal.
    """
    maps = list(maps)
    passing = [check_fuzzy_infomorphism(m) for m in maps]
    excluded = tuple(i for i, ok in enumerate(passing) if not ok)

    diagrams = dict.fromkeys(d for m in maps for d in (m.source, m.target))
    # indices of the sample maps leaving each diagram
    leaving: dict[FuzzyAristotelianDiagram, list[int]] = {d: [] for d in diagrams}
    for i, m in enumerate(maps):
        leaving[m.source].append(i)

    identity_checked = 0
    identity_ok = True
    for d in diagrams:
        identity_checked += 1
        if not check_fuzzy_infomorphism(FuzzyDiagramMap.identity(d)):
            identity_ok = False
    for m in maps:
        identity_checked += 1
        left = compose_fuzzy_maps(FuzzyDiagramMap.identity(m.source), m)
        right = compose_fuzzy_maps(m, FuzzyDiagramMap.identity(m.target))
        if left != m or right != m:
            identity_ok = False

    closure_checked = 0
    closure_ok = True
    for i, m1 in enumerate(maps):
        if not passing[i]:
            continue
        for j in leaving[m1.target]:
            if not passing[j]:
                continue
            closure_checked += 1
            if not check_fuzzy_infomorphism(compose_fuzzy_maps(m1, maps[j])):
                closure_ok = False

    assoc_checked = 0
    assoc_ok = True
    for m1 in maps:
        for j in leaving[m1.target]:
            m2 = maps[j]
            for k in leaving[m2.target]:
                m3 = maps[k]
                assoc_checked += 1
                lhs = compose_fuzzy_maps(compose_fuzzy_maps(m1, m2), m3)
                rhs = compose_fuzzy_maps(m1, compose_fuzzy_maps(m2, m3))
                if lhs != rhs:
                    assoc_ok = False

    return CategoryLawReport(
        (
            LawResult("identity", identity_ok, identity_checked),
            LawResult("composition-closure", closure_ok, closure_checked),
            LawResult(
                "associativity",
                assoc_ok,
                assoc_checked,
                "" if assoc_ok else "function composition failed to associate",
            ),
        ),
        excluded,
    )


@dataclass(frozen=True)
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
                if kinds[i][j] == RelationKind.CD:
                    pair = self.annotations[i][j]
                    if pair.mu != Fraction(1, 2) or pair.nu > Fraction(1, 2):
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
    nu = degree(contradiction_nu)
    if nu > Fraction(1, 2):
        raise ValueError(
            f"the degree to which an edge is not a contradiction must be <= 1/2, got {nu}"
        )
    square = canonical_square()
    kinds = relation_table(square)
    cd_pair = IFPair(Fraction(1, 2), nu)
    annotations = tuple(
        tuple(cd_pair if kind == RelationKind.CD else FULL for kind in row) for row in kinds
    )
    return AnnotatedSquare(square, annotations)


def embed_diagram(
    d: Diagram, tolerance: Fraction = DEFAULT_TOLERANCE
) -> FuzzyAristotelianDiagram:
    """Embed a crisp diagram into the fuzzy theory over its powerset order.

    Classification of the embedded diagram reproduces the crisp one
    cell-for-cell, with every annotation (1, 0).
    """
    lattice = powerset_lattice(d.algebra)
    fragment = tuple(element_label(e) for e in d.fragment)
    return FuzzyAristotelianDiagram(lattice, fragment, d.labels, tolerance)
