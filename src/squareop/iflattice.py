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
and negation (the unique complement, checked against both De Morgan laws)
are all computed in this derived order; a complemented distributive fuzzy
lattice certifies as a fuzzy Boolean algebra.

The derived order is stored as one bitmask per row (the up-set of each
element).  Its lattice structure depends on those rows alone, never on the
degrees, so it is computed once per distinct derived order and shared by
every fuzzy lattice that derives it.  ``IFLattice(...)`` checks its fuzzy
order; ``certify`` and the sampler (``sampling``) skip that for orders they proved.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from operator import attrgetter

from ._record import record
from .algebra import BooleanAlgebra, element_label
from .diagram import RelationKind, _kind_table
from .ifrel import IFRelation, is_partial_order, is_perfectly_antisymmetric, is_reflexive, is_transitive

MAX_CARRIER = 16
_TOO_LARGE = f"carrier larger than {MAX_CARRIER} refused: lattice checks are exhaustive"


class PreconditionError(ValueError):
    """An operation's preconditions do not hold; ``failed`` lists which."""

    def __init__(self, message: str, failed: tuple[str, ...]):
        super().__init__(message)
        self.failed = failed


class LawViolationError(RuntimeError):
    """A law that provably holds was observed to fail: an implementation fault."""


# A bound on the distinct derived orders kept.  Fuzzifications of one crisp
# order (sampled degrees, atom relabelings of a powerset order) all derive
# that order, so a workload meets few distinct ones.
_STRUCTURE_CACHE_SIZE = 256

BoundTable = tuple[tuple[int | None, ...], ...]


@record
class _OrderStructure:
    """Degree-free structure of a crisp partial order on indices 0..n-1.

    ``up[i]`` is the bitmask of {k : i <= k}; ``lub``/``glb`` hold an index
    or None per pair.  ``bottom``, ``top``, ``is_distributive``,
    ``complements`` (the complement indices of each element) and ``atoms``
    (the bitmask of the join-irreducibles below each element) are None
    unless ``is_lattice``; ``neg`` (each element's unique complement) is
    None unless the lattice is also distributive and complemented.
    """

    up: tuple[int, ...]
    lub: BoundTable
    glb: BoundTable
    is_lattice: bool
    bottom: int | None
    top: int | None
    is_distributive: bool | None
    complements: tuple[tuple[int, ...], ...] | None
    atoms: tuple[int, ...] | None
    neg: tuple[int, ...] | None

    @cached_property
    def kind_table(self) -> tuple[tuple[RelationKind, ...], ...]:
        """The seven-clause kind of every pair of carrier indices.

        Only for distributive lattices: there each element's set of
        join-irreducibles below it turns glb and lub into ``&`` and ``|``
        (Birkhoff), so the atom masks classify exactly as the order does.
        """
        return _kind_table(self.atoms, self.atoms[self.top])


def _negation(
    lub: BoundTable, glb: BoundTable, complements: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """The negation of a complemented distributive lattice: the unique
    complement of each element, which satisfies both De Morgan laws over
    every pair.  Both are theorems, so a failure, reported at carrier
    indices, raises LawViolationError.
    """
    for i, comps in enumerate(complements):
        if len(comps) != 1:
            raise LawViolationError(
                f"element {i} has {len(comps)} complements in a distributive lattice"
            )
    neg = tuple(comps[0] for comps in complements)
    for a, b in product(range(len(neg)), repeat=2):
        if neg[lub[a][b]] != glb[neg[a]][neg[b]] or neg[glb[a][b]] != lub[neg[a]][neg[b]]:
            raise LawViolationError(
                f"De Morgan failure at ({a}, {b}): neg(a v b) != neg(a) ^ neg(b) "
                "or neg(a ^ b) != neg(a) v neg(b)"
            )
    return neg


@lru_cache(maxsize=_STRUCTURE_CACHE_SIZE)
def _order_structure(up: tuple[int, ...]) -> _OrderStructure:
    """The lattice structure of the partial order whose up-sets are ``up``.

    The common upper bounds of i and j form the up-set ``up[i] & up[j]``; a
    least one exists iff that set is some element's up-set, and antisymmetry
    makes ``up`` injective, so one dict lookup finds the lub.  The glb is
    the same with down-sets.
    """
    size = len(up)
    down = tuple(sum(1 << i for i, u in enumerate(up) if u >> k & 1) for k in range(size))
    by_up = {u: k for k, u in enumerate(up)}
    by_down = {d: k for k, d in enumerate(down)}
    lub = tuple(tuple(by_up.get(a & b) for b in up) for a in up)
    glb = tuple(tuple(by_down.get(a & b) for b in down) for a in down)
    if any(None in row for row in lub + glb):
        return _OrderStructure(up, lub, glb, False, None, None, None, None, None, None)
    full = (1 << size) - 1
    if full not in by_up:
        raise LawViolationError("finite lattice without a bottom element")
    if full not in by_down:
        raise LawViolationError("finite lattice without a top element")
    bottom, top = by_up[full], by_down[full]
    # j is join-irreducible iff the elements strictly below it have a
    # greatest one (its only lower cover)
    irreducible = sum(1 << j for j, d in enumerate(down) if d & ~(1 << j) in by_down)
    # Birkhoff: a finite lattice is distributive iff each join-irreducible
    # below a join lies below one of its arguments
    distributive = all(
        down[lub[i][j]] & irreducible == (down[i] | down[j]) & irreducible
        for i in range(size)
        for j in range(i + 1, size)
    )
    complements = tuple(
        tuple(j for j in range(size) if glb[i][j] == bottom and lub[i][j] == top)
        for i in range(size)
    )
    atoms = tuple(d & irreducible for d in down)
    neg = _negation(lub, glb, complements) if distributive and all(complements) else None
    return _OrderStructure(up, lub, glb, True, bottom, top, distributive, complements, atoms, neg)


@record
class IFLattice:
    """A finite set ordered by an intuitionistic fuzzy partial order."""

    order: IFRelation

    def __post_init__(self) -> None:
        if not self.order.is_square:
            raise ValueError("the order must be a square relation on the carrier")
        if len(self.order.source) > MAX_CARRIER:
            raise ValueError(_TOO_LARGE)
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
    def _structure(self) -> _OrderStructure:
        """The derived crisp order (x <= y iff x = y or nu(x, y) < 1) and its
        lattice structure, shared by every lattice with the same derived order."""
        den = self.order.den
        return _order_structure(
            tuple(
                sum(1 << j for j, nu in enumerate(row) if i == j or nu < den)
                for i, row in enumerate(self.order.n)
            )
        )

    @cached_property
    def underlying_order(self) -> tuple[tuple[bool, ...], ...]:
        """Crisp dominance matrix: x <= y iff x = y or nu(x, y) < 1."""
        up = self._structure.up
        return tuple(tuple(bool(u >> j & 1) for j in range(len(up))) for u in up)

    def dominates(self, x: str, y: str) -> bool:
        """Whether x <= y in the derived crisp order."""
        return bool(self._structure.up[self.index(x)] >> self.index(y) & 1)

    def lub(self, x: str, y: str) -> str | None:
        """Least upper bound in the derived order, or None if it does not exist."""
        k = self._structure.lub[self.index(x)][self.index(y)]
        return None if k is None else self.carrier[k]

    def glb(self, x: str, y: str) -> str | None:
        """Greatest lower bound in the derived order, or None if it does not exist."""
        k = self._structure.glb[self.index(x)][self.index(y)]
        return None if k is None else self.carrier[k]

    @property
    def is_lattice(self) -> bool:
        """Every pair has both a lub and a glb."""
        return self._structure.is_lattice

    def _lattice(self) -> _OrderStructure:
        """The structure, which must be a lattice."""
        if not self.is_lattice:
            raise PreconditionError("not a lattice", ("lattice",))
        return self._structure

    @property
    def bottom(self) -> str:
        """Least carrier element; finite lattices are bounded."""
        return self.carrier[self._lattice().bottom]

    @property
    def top(self) -> str:
        return self.carrier[self._lattice().top]

    @property
    def is_distributive(self) -> bool:
        """Both distributive identities hold for all triples."""
        return self._lattice().is_distributive

    def find_complements(self, x: str) -> tuple[str, ...]:
        """All y with glb(x, y) = bottom and lub(x, y) = top."""
        return tuple(self.carrier[j] for j in self._lattice().complements[self.index(x)])

    @property
    def is_complemented(self) -> bool:
        return all(self._lattice().complements)

    def check_de_morgan(self) -> bool:
        """Whether both De Morgan laws hold over all pairs: always True.

        Requires a complemented distributive lattice (complements are then
        unique, so negation is well defined).  The laws provably hold there;
        the shared structure checked them over every pair when it built the
        negation, and a counterexample would have raised LawViolationError.
        """
        if self.is_if_boolean_algebra:
            return True
        cert = certify(self.order)
        failed = [name for name in ("lattice", "complemented", "distributive")
                  if getattr(cert, name) is False]
        raise PreconditionError(
            "check_de_morgan preconditions unmet: " + ", ".join(failed), tuple(failed)
        )

    @property
    def is_if_boolean_algebra(self) -> bool:
        """Lattice, distributive and complemented."""
        return self._structure.neg is not None

    def unique_complement(self, x: str) -> str:
        comps = self.find_complements(x)
        if len(comps) != 1:
            raise PreconditionError(
                f"element {x!r} does not have a unique complement", ("unique-complement",)
            )
        return comps[0]


underlying_order = attrgetter("underlying_order")


@record
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
    """Run the full certification ladder on a square relation.

    A carrier over ``MAX_CARRIER`` is refused before any order check, so an
    order and a non-order of the same size get the same answer.
    """
    if len(order.source) > MAX_CARRIER:
        raise ValueError(_TOO_LARGE)
    reflexive = is_reflexive(order)
    antisymmetric = is_perfectly_antisymmetric(order)
    transitive = is_transitive(order)
    partial = is_partial_order(order)
    # the carrier size was refused above and the order has just been proved
    lattice = IFLattice._trusted(order) if partial else None
    is_lattice = lattice.is_lattice if partial else None
    boolean = bool(is_lattice) and lattice.is_if_boolean_algebra
    return LatticeCertification(
        reflexive, antisymmetric, transitive, partial, is_lattice,
        lattice.is_distributive if is_lattice else None,
        lattice.is_complemented if is_lattice else None,
        "holds" if boolean else "preconditions-unmet", boolean,
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
