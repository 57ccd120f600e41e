"""Crisp order structure extracted from intuitionistic fuzzy partial orders.

The fuzzy order induces a crisp dominance relation: x is dominated by y when
x = y or the order edge from x to y holds to some degree (nu < 1; under the
cell invariant this subsumes mu > 0).  That condition is exactly the
antecedent of perfect antisymmetry, which is what makes the derived relation
a genuine crisp partial order:

* reflexivity comes from the fuzzy order's reflexive diagonal,
* antisymmetry from perfect antisymmetry (a somewhat-held edge forces the
  reverse edge to (0, 1)),
* transitivity from nu(x,z) <= max(nu(x,y), nu(y,z)) < 1 along chains.

Least upper bounds, greatest lower bounds, distributivity, complementation
and the De Morgan laws are all computed in this derived order; a complemented
distributive fuzzy lattice certifies as a fuzzy Boolean algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .algebra import BooleanAlgebra, element_label
from .ifrel import IFRelation, is_partial_order, is_perfectly_antisymmetric, is_reflexive, is_transitive

MAX_CARRIER = 16


class PreconditionError(ValueError):
    """An operation's preconditions do not hold; ``failed`` lists which."""

    def __init__(self, message: str, failed: tuple[str, ...]):
        super().__init__(message)
        self.failed = failed


class LawViolationError(RuntimeError):
    """A law that provably holds was observed to fail: an implementation fault."""


@dataclass(frozen=True)
class IFLattice:
    """A finite set ordered by an intuitionistic fuzzy partial order."""

    order: IFRelation

    def __post_init__(self) -> None:
        if not self.order.is_square:
            raise ValueError("the order must be a square relation on the carrier")
        if len(self.order.source) > MAX_CARRIER:
            raise ValueError(
                f"carrier larger than {MAX_CARRIER} refused: lattice checks are exhaustive"
            )
        if not is_partial_order(self.order):
            raise ValueError("the relation is not an intuitionistic fuzzy partial order")

    @property
    def carrier(self) -> tuple[str, ...]:
        return self.order.source

    def index(self, label: str) -> int:
        try:
            return self.carrier.index(label)
        except ValueError:
            raise KeyError(f"{label!r} is not a carrier element") from None

    @cached_property
    def underlying_order(self) -> tuple[tuple[bool, ...], ...]:
        """Crisp dominance matrix: x <= y iff x = y or nu(x, y) < 1."""
        den = self.order.den
        return tuple(
            tuple(i == j or nu < den for j, nu in enumerate(row))
            for i, row in enumerate(self.order.n)
        )

    def dominates(self, x: str, y: str) -> bool:
        """Whether x <= y in the derived crisp order."""
        return self.underlying_order[self.index(x)][self.index(y)]

    @cached_property
    def _lub_table(self) -> tuple[tuple[int | None, ...], ...]:
        return self._bound_table(upper=True)

    @cached_property
    def _glb_table(self) -> tuple[tuple[int | None, ...], ...]:
        return self._bound_table(upper=False)

    def _bound_table(self, upper: bool) -> tuple[tuple[int | None, ...], ...]:
        leq = self.underlying_order
        n = len(self.carrier)

        def bound(i: int, j: int) -> int | None:
            if upper:
                candidates = [k for k in range(n) if leq[i][k] and leq[j][k]]
            else:
                candidates = [k for k in range(n) if leq[k][i] and leq[k][j]]
            for u in candidates:
                if all((leq[u][k] if upper else leq[k][u]) for k in candidates):
                    return u
            return None

        return tuple(tuple(bound(i, j) for j in range(n)) for i in range(n))

    def lub(self, x: str, y: str) -> str | None:
        """Least upper bound in the derived order, or None if it does not exist."""
        k = self._lub_table[self.index(x)][self.index(y)]
        return None if k is None else self.carrier[k]

    def glb(self, x: str, y: str) -> str | None:
        """Greatest lower bound in the derived order, or None if it does not exist."""
        k = self._glb_table[self.index(x)][self.index(y)]
        return None if k is None else self.carrier[k]

    @cached_property
    def is_lattice(self) -> bool:
        """Every pair has both a lub and a glb."""
        n = len(self.carrier)
        return all(
            self._lub_table[i][j] is not None and self._glb_table[i][j] is not None
            for i in range(n)
            for j in range(n)
        )

    def _require_lattice(self) -> None:
        if not self.is_lattice:
            raise PreconditionError("not a lattice", ("lattice",))

    @cached_property
    def bottom(self) -> str:
        """Least carrier element; finite lattices are bounded."""
        self._require_lattice()
        leq = self.underlying_order
        n = len(self.carrier)
        for k in range(n):
            if all(leq[k][i] for i in range(n)):
                return self.carrier[k]
        raise LawViolationError("finite lattice without a bottom element")

    @cached_property
    def top(self) -> str:
        self._require_lattice()
        leq = self.underlying_order
        n = len(self.carrier)
        for k in range(n):
            if all(leq[i][k] for i in range(n)):
                return self.carrier[k]
        raise LawViolationError("finite lattice without a top element")

    @cached_property
    def is_distributive(self) -> bool:
        """Both distributive identities, exhaustively over all triples."""
        self._require_lattice()
        lub, glb = self._lub_table, self._glb_table
        n = len(self.carrier)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if glb[a][lub[b][c]] != lub[glb[a][b]][glb[a][c]]:
                        return False
                    if lub[a][glb[b][c]] != glb[lub[a][b]][lub[a][c]]:
                        return False
        return True

    def find_complements(self, x: str) -> tuple[str, ...]:
        """All y with glb(x, y) = bottom and lub(x, y) = top."""
        self._require_lattice()
        i = self.index(x)
        bot, top = self.index(self.bottom), self.index(self.top)
        return tuple(
            self.carrier[j]
            for j in range(len(self.carrier))
            if self._glb_table[i][j] == bot and self._lub_table[i][j] == top
        )

    @cached_property
    def is_complemented(self) -> bool:
        self._require_lattice()
        return all(self.find_complements(x) for x in self.carrier)

    def check_de_morgan(self) -> bool:
        """Verify both De Morgan laws over all pairs.

        Requires a complemented distributive lattice (complements are then
        unique, so negation is well defined).  The laws provably hold there,
        so this always returns True on valid inputs; a counterexample means
        the implementation itself is broken and raises LawViolationError.
        """
        failed = []
        if not self.is_lattice:
            failed.append("lattice")
        else:
            if not self.is_complemented:
                failed.append("complemented")
            if not self.is_distributive:
                failed.append("distributive")
        if failed:
            raise PreconditionError(
                "check_de_morgan preconditions unmet: " + ", ".join(failed), tuple(failed)
            )
        neg = {}
        for x in self.carrier:
            comps = self.find_complements(x)
            if len(comps) != 1:
                raise LawViolationError(
                    f"element {x!r} has {len(comps)} complements in a distributive lattice"
                )
            neg[x] = comps[0]
        for a in self.carrier:
            for b in self.carrier:
                if neg[self.lub(a, b)] != self.glb(neg[a], neg[b]):
                    raise LawViolationError(
                        f"De Morgan failure at ({a!r}, {b!r}): "
                        f"neg(a v b) != neg(a) ^ neg(b)"
                    )
                if neg[self.glb(a, b)] != self.lub(neg[a], neg[b]):
                    raise LawViolationError(
                        f"De Morgan failure at ({a!r}, {b!r}): "
                        f"neg(a ^ b) != neg(a) v neg(b)"
                    )
        return True

    @cached_property
    def is_if_boolean_algebra(self) -> bool:
        """Lattice, distributive and complemented."""
        if not self.is_lattice:
            return False
        return self.is_distributive and self.is_complemented

    def unique_complement(self, x: str) -> str:
        comps = self.find_complements(x)
        if len(comps) != 1:
            raise PreconditionError(
                f"element {x!r} does not have a unique complement", ("unique-complement",)
            )
        return comps[0]


def underlying_order(lattice: IFLattice) -> tuple[tuple[bool, ...], ...]:
    return lattice.underlying_order


@dataclass(frozen=True)
class LatticeCertification:
    """Flags from certifying a square relation, in dependency order.

    Fields gated on earlier checks are None when skipped.  ``de_morgan`` is
    "holds" or "preconditions-unmet"; a violation would raise instead of
    producing a report, since it cannot occur without an implementation bug.
    """

    reflexive: bool
    perfectly_antisymmetric: bool
    transitive: bool
    partial_order: bool
    lattice: bool | None
    distributive: bool | None
    complemented: bool | None
    de_morgan: str
    if_boolean_algebra: bool


def certify(order: IFRelation) -> LatticeCertification:
    """Run the full certification ladder on a square relation."""
    reflexive = is_reflexive(order)
    antisymmetric = is_perfectly_antisymmetric(order)
    transitive = is_transitive(order)
    partial = reflexive and antisymmetric and transitive
    if not partial:
        return LatticeCertification(
            reflexive, antisymmetric, transitive, False, None, None, None,
            "preconditions-unmet", False,
        )
    lattice = IFLattice(order)
    if not lattice.is_lattice:
        return LatticeCertification(
            reflexive, antisymmetric, transitive, True, False, None, None,
            "preconditions-unmet", False,
        )
    distributive = lattice.is_distributive
    complemented = lattice.is_complemented
    if distributive and complemented:
        lattice.check_de_morgan()
        de_morgan = "holds"
    else:
        de_morgan = "preconditions-unmet"
    return LatticeCertification(
        reflexive, antisymmetric, transitive, True, True, distributive, complemented,
        de_morgan, lattice.is_if_boolean_algebra,
    )


@lru_cache(maxsize=64)
def powerset_lattice(algebra: BooleanAlgebra) -> IFLattice:
    """Embed a powerset algebra's subset order as a crisp IF lattice.

    Carrier labels are the canonical element labels ("{}", "{a}", ...);
    order edges are (1, 0) where subset inclusion holds and (0, 1) elsewhere.
    The result is always a fuzzy Boolean algebra whose lub/glb agree with
    the algebra's join/meet.  Algebras whose powerset exceeds the carrier
    limit are refused before the inclusion matrix is built.
    """
    if algebra.carrier_size > MAX_CARRIER:
        raise ValueError(
            f"a {algebra.atom_count}-atom algebra has {algebra.carrier_size} elements; "
            f"carriers larger than {MAX_CARRIER} are refused: lattice checks are exhaustive"
        )
    elems = list(algebra.elements())
    labels = tuple(element_label(e) for e in elems)
    holds = [[x.bits & y.bits == x.bits for y in elems] for x in elems]
    return IFLattice(IFRelation.from_bool(labels, labels, holds))
