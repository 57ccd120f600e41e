"""Seeded random generators for diagrams, relations and fuzzy orders.

Everything here is driven by an explicit ``random.Random`` instance, so runs
with the same seed produce identical objects; degrees are sampled with small
denominators to keep exact arithmetic cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .algebra import BooleanAlgebra
from .degrees import ONE, ZERO, IFPair
from .diagram import Diagram
from .fuzzydiagram import (
    FuzzyAristotelianDiagram,
    FuzzyDiagramMap,
    check_fuzzy_infomorphism,
)
from .ifrel import IFRelation, transitive_closure
from .iflattice import IFLattice

DEFAULT_MAX_DENOMINATOR = 12


def random_degree(rng: random.Random, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> Fraction:
    q = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, q), q)


def _random_cell(
    rng: random.Random, max_denominator: int, strict: bool = False
) -> tuple[int, int, int, int]:
    """Draw (a, p, b, q) for the pair (a/p, b/q), with a/p + b/q <= 1 and,
    if ``strict``, b/q < 1 (the edge stays in the derived order)."""
    p = rng.randint(1, max_denominator)
    a = rng.randint(0, p)
    q = rng.randint(1, max_denominator)
    smax = (p - a) * q // p
    if strict and a == 0:
        smax = min(smax, q - 1)
    return a, p, rng.randint(0, smax), q


def random_if_pair(rng: random.Random, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> IFPair:
    a, p, b, q = _random_cell(rng, max_denominator)
    return IFPair(Fraction(a, p), Fraction(b, q))


def random_if_relation(
    rng: random.Random,
    source: Sequence[str],
    target: Sequence[str],
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> IFRelation:
    cells = [
        [random_if_pair(rng, max_denominator) for _ in target] for _ in source
    ]
    return IFRelation.from_pairs(tuple(source), tuple(target), cells)


def random_crisp_diagram(
    rng: random.Random, max_atoms: int = 4, max_fragment: int = 6
) -> Diagram:
    n = rng.randint(1, max_atoms)
    algebra = BooleanAlgebra.of(n)
    size = rng.randint(1, min(max_fragment, algebra.carrier_size))
    bits = rng.sample(range(algebra.carrier_size), size)
    return Diagram(algebra, tuple(algebra.element(b) for b in bits))


def random_fuzzy_powerset_order(
    rng: random.Random,
    algebra: BooleanAlgebra | int,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> IFLattice:
    """A random fuzzification of the subset order on a powerset carrier.

    Strict subset pairs get random degrees with nu < 1 (the edge survives in
    the derived order), unrelated pairs get (0, 1), the diagonal gets (1, 0).
    A transitive-closure repair then makes the relation a fuzzy partial
    order; the closure cannot extend the support outside the subset order,
    so the derived crisp structure is exactly the Boolean powerset lattice.
    """
    from .iflattice import powerset_lattice

    if isinstance(algebra, int):
        algebra = BooleanAlgebra.of(algebra)
    crisp = powerset_lattice(algebra)
    labels = crisp.carrier
    n = len(labels)
    mu = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    nu = [[ZERO if i == j else ONE for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and i & j == i:  # powerset carrier indices are the bitmasks
                a, p, b, q = _random_cell(rng, max_denominator, strict=True)
                mu[i][j], nu[i][j] = Fraction(a, p), Fraction(b, q)
    relation = IFRelation._from_degrees(
        labels, labels, tuple(map(tuple, mu)), tuple(map(tuple, nu))
    )
    return IFLattice(transitive_closure(relation))


def random_fuzzy_diagram(
    rng: random.Random,
    max_atoms: int = 3,
    max_fragment: int = 4,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> FuzzyAristotelianDiagram:
    lattice = random_fuzzy_powerset_order(rng, rng.randint(1, max_atoms), max_denominator)
    size = rng.randint(1, min(max_fragment, len(lattice.carrier)))
    fragment = tuple(
        lattice.carrier[i] for i in sorted(rng.sample(range(len(lattice.carrier)), size))
    )
    return FuzzyAristotelianDiagram(lattice, fragment)


def _permute_lattice(lattice: IFLattice, perm: Sequence[int]) -> tuple[IFLattice, dict[int, int]]:
    """Relabel a powerset-carrier lattice along an atom permutation.

    Returns the permuted lattice and the induced carrier index map.  Carrier
    indices are bitmasks, so the permutation acts bit-by-bit.
    """
    n = len(lattice.carrier)
    atom_count = n.bit_length() - 1

    def apply(bits: int) -> int:
        out = 0
        for i in range(atom_count):
            if bits >> i & 1:
                out |= 1 << perm[i]
        return out

    index_map = {b: apply(b) for b in range(n)}
    back = sorted(range(n), key=index_map.__getitem__)  # back[index_map[b]] == b
    order = lattice.order
    relation = IFRelation._build(
        lattice.carrier,
        lattice.carrier,
        order.den,
        tuple(tuple(order.m[i][j] for j in back) for i in back),
        tuple(tuple(order.n[i][j] for j in back) for i in back),
    )
    return IFLattice(relation), index_map


def _random_step(
    rng: random.Random, source: FuzzyAristotelianDiagram, max_denominator: int
) -> FuzzyDiagramMap:
    """One infomorphism out of ``source``: identity, inclusion, relabeling
    isomorphism, or a rejection-sampled random map."""
    kind = rng.choice(("identity", "inclusion", "permutation", "random"))
    if kind == "inclusion":
        carrier = source.lattice.carrier
        extra = [x for x in carrier if x not in source.fragment]
        rng.shuffle(extra)
        grown = source.fragment + tuple(extra[: rng.randint(0, min(2, len(extra)))])
        target = FuzzyAristotelianDiagram(source.lattice, grown, tolerance=source.tolerance)
        return FuzzyDiagramMap(source, target, tuple(range(len(source.fragment))))
    if kind == "permutation":
        n = len(source.lattice.carrier)
        atom_count = n.bit_length() - 1
        perm = list(range(atom_count))
        rng.shuffle(perm)
        permuted, index_map = _permute_lattice(source.lattice, perm)
        carrier = source.lattice.carrier
        fragment = tuple(carrier[index_map[carrier.index(x)]] for x in source.fragment)
        target = FuzzyAristotelianDiagram(permuted, fragment, tolerance=source.tolerance)
        return FuzzyDiagramMap(source, target, tuple(range(len(source.fragment))))
    if kind == "random":
        for _ in range(8):
            target = random_fuzzy_diagram(rng, max_denominator=max_denominator)
            mapping = tuple(
                rng.randrange(len(target.fragment)) for _ in source.fragment
            )
            candidate = FuzzyDiagramMap(source, target, mapping)
            if check_fuzzy_infomorphism(candidate):
                return candidate
    return FuzzyDiagramMap.identity(source)


def composable_infomorphism_triples(
    rng: random.Random,
    count: int,
    max_atoms: int = 3,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> list[tuple[FuzzyDiagramMap, FuzzyDiagramMap, FuzzyDiagramMap]]:
    """Seeded composable chains f: D1 -> D2, g: D2 -> D3, h: D3 -> D4 of
    fuzzy infomorphisms, for exercising the category laws."""
    triples = []
    for _ in range(count):
        d1 = random_fuzzy_diagram(rng, max_atoms=max_atoms, max_denominator=max_denominator)
        f = _random_step(rng, d1, max_denominator)
        g = _random_step(rng, f.target, max_denominator)
        h = _random_step(rng, g.target, max_denominator)
        triples.append((f, g, h))
    return triples
