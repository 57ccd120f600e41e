"""Seeded random generators for diagrams, relations and fuzzy orders.

Everything here is driven by an explicit ``random.Random`` instance, so runs
with the same seed produce identical objects; degrees are sampled with small
denominators to keep exact arithmetic cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from .algebra import MAX_ATOMS, BooleanAlgebra
from .degrees import IFPair
from .diagram import Diagram, DiagramMap, _keeps_informativity
from .fuzzydiagram import FuzzyAristotelianDiagram
from .ifrel import IFRelation, transitive_closure
from .iflattice import MAX_CARRIER, IFLattice, powerset_lattice

DEFAULT_MAX_DENOMINATOR = 12
_FUZZY_ATOMS, _FUZZY_FRAGMENT = 3, 4  # the default bounds of a sampled fuzzy diagram


def _below(rng: random.Random, n: int) -> int:
    """What ``rng.randrange(n)`` returns, from the same draws, for n >= 1.

    ``random.Random`` draws ``getrandbits(n.bit_length())`` until the value
    is below n; ``randint(a, b)`` is ``a + _below(rng, b - a + 1)`` and
    ``choice(seq)`` is ``seq[_below(rng, len(seq))]``.  Calling
    ``getrandbits`` here skips the two Python frames those methods add.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_cell(rng: random.Random, strict: bool = False) -> tuple[int, int, int, int]:
    """Draw (a, p, b, q) for the pair (a/p, b/q), with a/p + b/q <= 1 and,
    if ``strict``, b/q < 1 (the edge stays in the derived order)."""
    p = 1 + _below(rng, DEFAULT_MAX_DENOMINATOR)
    a = _below(rng, p + 1)
    q = 1 + _below(rng, DEFAULT_MAX_DENOMINATOR)
    smax = (p - a) * q // p
    if strict and a == 0:
        smax = min(smax, q - 1)
    return a, p, _below(rng, smax + 1), q


def random_if_pair(rng: random.Random) -> IFPair:
    a, p, b, q = _random_cell(rng)
    return IFPair(Fraction(a, p), Fraction(b, q))


def random_if_relation(
    rng: random.Random, source: Sequence[str], target: Sequence[str]
) -> IFRelation:
    cells = [[random_if_pair(rng) for _ in target] for _ in source]
    return IFRelation.from_pairs(tuple(source), tuple(target), cells)


def _check_bounds(max_atoms: int, atom_limit: int, max_fragment: int) -> None:
    if not 1 <= max_atoms <= atom_limit:
        raise ValueError(f"max_atoms must be between 1 and {atom_limit}, got {max_atoms!r}")
    if max_fragment < 1:
        raise ValueError(f"max_fragment must be at least 1, got {max_fragment!r}")


def random_crisp_diagram(
    rng: random.Random, max_atoms: int = 4, max_fragment: int = 6
) -> Diagram:
    _check_bounds(max_atoms, MAX_ATOMS, max_fragment)
    algebra = BooleanAlgebra.of(1 + _below(rng, max_atoms))
    size = 1 + _below(rng, min(max_fragment, algebra.carrier_size))
    bits = rng.sample(range(algebra.carrier_size), size)
    return Diagram(algebra, tuple(algebra.element(b) for b in bits))


def _draw_order(rng: random.Random, crisp: IFLattice) -> dict:
    """The raw (a, p, b, q) cells, by index pair, of a random fuzzification
    of the powerset order ``crisp``.

    Strict subset pairs get random degrees with nu < 1, so each such edge
    survives in the derived order; unrelated pairs get (0, 1) and the
    diagonal (1, 0). The transitive-closure repair in ``_build_order`` can
    only add edges i <= j through some k with i <= k <= j, and the subset
    order is already transitive, so the support never grows past it: every
    fuzzification derives exactly ``crisp``'s structure and kind table.  So
    ``_build_order`` hands that structure over unproved; the order is a
    partial order, since each strict subset pair's reverse keeps (0, 1).
    """
    size = len(crisp.carrier)
    return {
        (i, j): _random_cell(rng, strict=True)
        for i in range(size)
        for j in range(size)
        if i != j and i & j == i  # powerset carrier indices are the bitmasks
    }


def _build_order(crisp: IFLattice, cells: dict) -> IFLattice:
    labels = crisp.carrier
    size = len(labels)
    den = lcm(*(d for _, p, _, q in cells.values() for d in (p, q)))
    m = [[den * (i == j) for j in range(size)] for i in range(size)]
    n = [[den * (i != j) for j in range(size)] for i in range(size)]
    for (i, j), (a, p, b, q) in cells.items():
        m[i][j], n[i][j] = a * (den // p), b * (den // q)
    relation = IFRelation._build(labels, labels, den, tuple(map(tuple, m)), tuple(map(tuple, n)))
    return _sampled(transitive_closure(relation), crisp._structure)


def _sampled(order: IFRelation, structure) -> IFLattice:
    """``IFLattice(order)`` with its known structure, checking nothing."""
    lattice = IFLattice._trusted(order)
    lattice.__dict__["_structure"] = structure  # the cached_property's slot
    return lattice


def random_fuzzy_powerset_order(rng: random.Random, algebra: BooleanAlgebra | int) -> IFLattice:
    """A random fuzzification of the subset order on a powerset carrier: its
    derived crisp structure is exactly the Boolean powerset lattice."""
    crisp = powerset_lattice(BooleanAlgebra.of(algebra) if isinstance(algebra, int) else algebra)
    return _build_order(crisp, _draw_order(rng, crisp))


def _draw_fuzzy_diagram(
    rng: random.Random, max_atoms: int, max_fragment: int
) -> tuple[IFLattice, dict, list[int]]:
    """The draws of ``random_fuzzy_diagram``: the crisp powerset order, the
    order's raw cells and the sorted fragment indices."""
    crisp = powerset_lattice(BooleanAlgebra.of(1 + _below(rng, max_atoms)))
    cells = _draw_order(rng, crisp)
    size = len(crisp.carrier)
    return crisp, cells, sorted(rng.sample(range(size), 1 + _below(rng, min(max_fragment, size))))


def _build_fuzzy_diagram(
    crisp: IFLattice, cells: dict, index: list[int]
) -> FuzzyAristotelianDiagram:
    fragment = tuple(crisp.carrier[i] for i in index)
    return FuzzyAristotelianDiagram(_build_order(crisp, cells), fragment)


def random_fuzzy_diagram(
    rng: random.Random, max_atoms: int = _FUZZY_ATOMS, max_fragment: int = _FUZZY_FRAGMENT
) -> FuzzyAristotelianDiagram:
    _check_bounds(max_atoms, MAX_CARRIER.bit_length() - 1, max_fragment)
    return _build_fuzzy_diagram(*_draw_fuzzy_diagram(rng, max_atoms, max_fragment))


def _permute_lattice(lattice: IFLattice, perm: Sequence[int]) -> tuple[IFLattice, dict[int, int]]:
    """Relabel a powerset-carrier lattice along an atom permutation.

    Returns the permuted lattice and the induced carrier index map.  Carrier
    indices are bitmasks, so the permutation acts bit-by-bit.  Every sampled
    lattice derives the subset order on them (``_draw_order``), which an atom
    permutation maps onto itself: the source's structure is handed over.
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
    return _sampled(relation, lattice._structure), index_map


def _random_step(rng: random.Random, source: FuzzyAristotelianDiagram) -> DiagramMap:
    """One infomorphism out of ``source``: identity, inclusion, relabeling
    isomorphism, or a rejection-sampled random map."""
    kind = ("identity", "inclusion", "permutation", "random")[_below(rng, 4)]
    if kind == "inclusion":
        carrier = source.lattice.carrier
        extra = [x for x in carrier if x not in source.fragment]
        rng.shuffle(extra)
        grown = source.fragment + tuple(extra[: _below(rng, min(2, len(extra)) + 1)])
        target = FuzzyAristotelianDiagram(source.lattice, grown, tolerance=source.tolerance)
        return DiagramMap(source, target, tuple(range(len(source.fragment))))
    if kind == "permutation":
        n = len(source.lattice.carrier)
        atom_count = n.bit_length() - 1
        perm = list(range(atom_count))
        rng.shuffle(perm)
        permuted, index_map = _permute_lattice(source.lattice, perm)
        carrier = source.lattice.carrier
        fragment = tuple(carrier[index_map[carrier.index(x)]] for x in source.fragment)
        target = FuzzyAristotelianDiagram(permuted, fragment, tolerance=source.tolerance)
        return DiagramMap(source, target, tuple(range(len(source.fragment))))
    if kind == "random":
        # decided on the crisp kind table every candidate derives (see
        # _draw_order), so only the accepted candidate is built
        for _ in range(8):
            crisp, cells, index = _draw_fuzzy_diagram(rng, _FUZZY_ATOMS, _FUZZY_FRAGMENT)
            mapping = tuple(_below(rng, len(index)) for _ in source.fragment)
            table = crisp._structure.kind_table
            if _keeps_informativity(source.kind_table, table, [index[j] for j in mapping]):
                return DiagramMap(source, _build_fuzzy_diagram(crisp, cells, index), mapping)
    return DiagramMap.identity(source)


def composable_infomorphism_triples(
    rng: random.Random, count: int
) -> list[tuple[DiagramMap, DiagramMap, DiagramMap]]:
    """Seeded composable chains f: D1 -> D2, g: D2 -> D3, h: D3 -> D4 of
    fuzzy infomorphisms on 1-3 atoms, for exercising the category laws."""
    triples = []
    for _ in range(count):
        f = _random_step(rng, random_fuzzy_diagram(rng))
        g = _random_step(rng, f.target)
        h = _random_step(rng, g.target)
        triples.append((f, g, h))
    return triples
