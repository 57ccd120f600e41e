"""Finite powerset Boolean algebras with bitmask-encoded elements.

Every finite Boolean algebra is isomorphic to the powerset algebra over its
atoms, so the carrier is represented as the bitmasks ``0 .. 2**n - 1`` over
``n`` named atoms: bit ``i`` means "atom ``i`` is in the subset".  Meet, join
and complement are then plain bitwise operations, and the lattice order is
subset inclusion.

All values are immutable after construction and all operations are pure, so
they are safe to share across threads without coordination.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from ._record import record

MAX_ATOMS = 16
MAX_EXHAUSTIVE_ATOMS = 4

_DEFAULT_ATOM_NAMES = "abcdefghijklmnop"


def _check_labels(labels: tuple[str, ...], role: str) -> None:
    """The one rule for atoms, relation labels and fuzzy-set points."""
    if not labels:
        raise ValueError(f"{role} set must not be empty")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{role} labels must be distinct")
    if not all(isinstance(x, str) and x for x in labels):
        raise ValueError(f"{role} labels must be non-empty strings")


class AlgebraMismatchError(ValueError):
    """An operation was applied to elements of two different algebras."""


@record
class BooleanAlgebra:
    """Powerset algebra over named atoms.

    The carrier is the full powerset of the atom set: exactly the bitmasks
    ``0 .. 2**atom_count - 1``.  Atom labels follow ``_check_labels``; the atom
    count is capped at 16 so exhaustive law checks stay tractable.
    """

    atoms: tuple[str, ...]

    def __init__(self, atoms: tuple[str, ...]) -> None:
        atoms = tuple(atoms)
        n = len(atoms)
        if not 1 <= n <= MAX_ATOMS:
            raise ValueError(f"atom count must be between 1 and {MAX_ATOMS}, got {n}")
        _check_labels(atoms, "atom")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def of(cls, atom_count: int) -> "BooleanAlgebra":
        """Algebra over ``atom_count`` atoms with default labels a, b, c, ...

        One instance per atom count, shared by every caller (records are
        immutable), so ``powerset_lattice`` finds it by its kept hash."""
        if not 1 <= atom_count <= MAX_ATOMS:
            raise ValueError(f"atom count must be between 1 and {MAX_ATOMS}, got {atom_count}")
        return cls(tuple(_DEFAULT_ATOM_NAMES[:atom_count]))

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    @property
    def carrier_size(self) -> int:
        return 1 << self.atom_count

    @property
    def mask(self) -> int:
        return self.carrier_size - 1

    @property
    def bottom(self) -> "Element":
        return Element(0, self)

    @property
    def top(self) -> "Element":
        return Element(self.mask, self)

    def element(self, bits: int) -> "Element":
        return Element(bits, self)

    def atom(self, index: int) -> "Element":
        if not 0 <= index < self.atom_count:
            raise ValueError(f"atom index {index} out of range")
        return Element(1 << index, self)

    def from_atoms(self, labels: Iterable[str]) -> "Element":
        """Element given as a collection of atom labels."""
        bits = 0
        for label in labels:
            try:
                bits |= 1 << self.atoms.index(label)
            except ValueError:
                raise ValueError(f"unknown atom label {label!r}") from None
        return Element(bits, self)

    def elements(self) -> Iterator["Element"]:
        """All carrier elements in bitmask order."""
        for bits in range(self.carrier_size):
            yield Element(bits, self)

    def __repr__(self) -> str:
        return f"BooleanAlgebra({', '.join(self.atoms)})"


@record
class Element:
    """A subset of the atoms of a :class:`BooleanAlgebra`, as a bitmask."""

    bits: int
    algebra: BooleanAlgebra

    def __init__(self, bits: int, algebra: BooleanAlgebra) -> None:
        if not 0 <= bits < algebra.carrier_size:
            raise ValueError(f"bits {bits} out of range for a {algebra.atom_count}-atom algebra")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "algebra", algebra)

    def _require_same_algebra(self, other: "Element") -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected an Element, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise AlgebraMismatchError(
                f"elements of {self.algebra!r} and {other.algebra!r} cannot be combined"
            )

    def meet(self, other: "Element") -> "Element":
        self._require_same_algebra(other)
        return Element(self.bits & other.bits, self.algebra)

    def join(self, other: "Element") -> "Element":
        self._require_same_algebra(other)
        return Element(self.bits | other.bits, self.algebra)

    def complement(self) -> "Element":
        return Element(self.bits ^ self.algebra.mask, self.algebra)

    def leq(self, other: "Element") -> bool:
        """Lattice order: subset inclusion, i.e. ``meet(a, b) == a``."""
        self._require_same_algebra(other)
        return self.bits & other.bits == self.bits

    def lt(self, other: "Element") -> bool:
        return self.leq(other) and self.bits != other.bits

    # operator sugar, same semantics as the named methods
    __and__ = meet
    __or__ = join
    __invert__ = complement
    __le__ = leq
    __lt__ = lt

    @property
    def is_bottom(self) -> bool:
        return self.bits == 0

    @property
    def is_top(self) -> bool:
        return self.bits == self.algebra.mask

    @property
    def is_contingent(self) -> bool:
        """Distinct from both universal bounds."""
        return not (self.is_bottom or self.is_top)

    def atom_labels(self) -> tuple[str, ...]:
        """Labels of the member atoms, in atom (bit) order."""
        atoms, bits, labels = self.algebra.atoms, self.bits, []
        while bits:
            low = bits & -bits
            labels.append(atoms[low.bit_length() - 1])
            bits ^= low
        return tuple(labels)

    def __repr__(self) -> str:
        return "Element({%s})" % ",".join(self.atom_labels())


def element_label(e: Element) -> str:
    """Canonical display label of an element, e.g. ``{a,c}`` or ``{}``."""
    return "{%s}" % ",".join(e.atom_labels())


@record
class LawCheck:
    """Outcome of exhaustively checking one named law.

    ``checked`` counts the cases and ``counterexample`` is the first one
    that fails, or None.  The Boolean-algebra axioms give their group (1-5)
    and a tuple of elements; the category laws give no group and a tuple of
    diagram maps.
    """

    law: str
    group: int | None
    holds: bool
    checked: int
    counterexample: tuple | None


@record
class AxiomReport:
    algebra: BooleanAlgebra
    checks: tuple[LawCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)

    def check(self, law: str) -> LawCheck:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    @property
    def groups_passing(self) -> tuple[int, ...]:
        """The axiom groups (1-5) whose laws all hold."""
        groups = sorted({c.group for c in self.checks})
        return tuple(g for g in groups if all(c.holds for c in self.checks if c.group == g))


def verify_axioms(
    algebra: BooleanAlgebra,
    complement_override: Mapping[int, int] | None = None,
) -> AxiomReport:
    """Exhaustively verify the five Boolean-algebra axiom groups.

    Group 1: idempotence, commutativity, associativity of meet and join.
    Group 2: absorption.  Group 3: mutual distributivity.  Group 4: the
    universal bounds 0 and 1.  Group 5: complementation.

    Every law is checked over every element tuple of its arity; the report
    records the first counterexample, if any.  ``complement_override`` is a
    testing hook remapping the complement of selected bitmasks, used to
    demonstrate that a corrupted operation table is caught.

    Raises ``ValueError`` for algebras with more than 4 atoms: the exhaustive
    sweep is refused rather than silently sampled.
    """
    if algebra.atom_count > MAX_EXHAUSTIVE_ATOMS:
        raise ValueError(
            f"refusing exhaustive verification beyond {MAX_EXHAUSTIVE_ATOMS} atoms "
            f"(got {algebra.atom_count})"
        )
    mask = algebra.mask
    size = algebra.carrier_size
    comp = [x ^ mask for x in range(size)]
    if complement_override:
        for k, v in complement_override.items():
            if not (0 <= k < size and 0 <= v < size):
                raise ValueError(f"complement override {k} -> {v} out of carrier range")
            comp[k] = v

    checks: list[LawCheck] = []

    def run(law: str, group: int, arity: int, predicate) -> None:
        counterexample = next(
            (
                tuple(Element(b, algebra) for b in args)
                for args in itertools.product(range(size), repeat=arity)
                if not predicate(*args)
            ),
            None,
        )
        checks.append(LawCheck(law, group, counterexample is None, size**arity, counterexample))

    run("idempotence", 1, 1, lambda a: a & a == a and a | a == a)
    run("commutativity", 1, 2, lambda a, b: a & b == b & a and a | b == b | a)
    run(
        "associativity",
        1,
        3,
        lambda a, b, c: a & (b & c) == (a & b) & c and a | (b | c) == (a | b) | c,
    )
    run("absorption", 2, 2, lambda a, b: a & (a | b) == a and a | (a & b) == a)
    run(
        "distributivity",
        3,
        3,
        lambda a, b, c: a & (b | c) == (a & b) | (a & c) and a | (b & c) == (a | b) & (a | c),
    )
    run(
        "universal-bounds",
        4,
        1,
        lambda a: 0 & a == 0 and 0 | a == a and mask & a == a and mask | a == mask,
    )
    run("complementation", 5, 1, lambda a: a & comp[a] == 0 and a | comp[a] == mask)

    return AxiomReport(algebra, tuple(checks))
