"""Intuitionistic fuzzy relations on finite labeled sets.

A relation carries two degree matrices over source x target: membership
``mu`` and nonmembership ``nu``, with mu + nu <= 1 cell-wise.  Composition
is max-min for membership and min-max for nonmembership; the three order
properties (reflexivity, perfect antisymmetry, transitivity) are the
building blocks for fuzzy partial orders.

Perfect antisymmetry reads: for x != y, if the relation holds from x to y
to any degree at all (mu > 0, or mu = 0 with nu < 1), then it fully fails
in the reverse direction (mu(y,x) = 0 and nu(y,x) = 1).

Representation: a relation stores one common denominator ``den`` and two
int matrices ``m`` and ``n``, so that mu = m/den and nu = n/den cell-wise.
``den`` is the lcm of the cells' reduced denominators, made canonical again
after every operation, so equal relations have equal int forms; ``==`` and
``hash`` use them.  Every operation here takes only min, max and
comparisons, so it runs on plain ints; operands with different denominators
are first rescaled to the lcm of the two.  ``mu`` and ``nu`` remain
``Fraction`` matrices at the API surface: the public constructor keeps the
degrees it validated, and a relation computed here builds them on first
access.

Validation happens once, at the input boundary: the public constructor (and
``jsonio``, which reports JSON paths) checks labels, shapes and every degree
through ``degrees.degree``.  Relations computed from other relations
(composites, closures, samples, relabelings) skip that pass and check only
the int invariant 0 <= m, 0 <= n, m + n <= den.  ``_from_degrees`` turns
degree matrices its caller validated into the int form and ``_build`` takes
ints; both are internal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from typing import Sequence

from .degrees import IFPair, degree

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def _check_labels(labels: tuple[str, ...], role: str) -> None:
    if not labels:
        raise ValueError(f"{role} set must not be empty")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{role} labels must be distinct")
    if not all(isinstance(x, str) and x for x in labels):
        raise ValueError(f"{role} labels must be non-empty strings")


class DegreeSumError(ValueError):
    """A cell has mu + nu > 1; ``cell`` is its (row, column)."""

    def __init__(self, message: str, cell: tuple[int, int]):
        super().__init__(message)
        self.cell = cell


def _bad_cell(den: int, m: IntMatrix, n: IntMatrix) -> tuple[int, int] | None:
    """The first cell breaking 0 <= m, 0 <= n, m + n <= den, if any."""
    for i, (m_row, n_row) in enumerate(zip(m, n)):
        for j, (a, b) in enumerate(zip(m_row, n_row)):
            if a < 0 or b < 0 or a + b > den:
                return i, j
    return None


def _fractions(ints: IntMatrix, den: int) -> Matrix:
    # one Fraction per distinct value
    made = {k: Fraction(k, den) for k in set(chain.from_iterable(ints))}
    return tuple(tuple(map(made.__getitem__, row)) for row in ints)


def _scaled(matrix: IntMatrix, factor: int) -> IntMatrix:
    if factor == 1:
        return matrix
    return tuple(tuple(x * factor for x in row) for row in matrix)


@dataclass(frozen=True, init=False, repr=False)
class IFRelation:
    """Degree-matrix pair over ``source`` x ``target``, stored as ints over ``den``."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    den: int
    m: IntMatrix
    n: IntMatrix

    def __init__(
        self, source: Sequence[str], target: Sequence[str], mu: Matrix, nu: Matrix
    ) -> None:
        # the raw arguments; __post_init__ validates them and sets the int form
        self.__dict__.update(source=source, target=target, mu=mu, nu=nu)
        self.__post_init__()

    def __post_init__(self) -> None:
        source, target = tuple(self.source), tuple(self.target)
        _check_labels(source, "source")
        _check_labels(target, "target")
        mu = tuple(tuple(degree(v) for v in row) for row in self.mu)
        nu = tuple(tuple(degree(v) for v in row) for row in self.nu)
        rows, cols = len(source), len(target)
        for name, matrix in (("mu", mu), ("nu", nu)):
            if len(matrix) != rows or any(len(r) != cols for r in matrix):
                raise ValueError(f"{name} matrix must be {rows}x{cols}")
        self._store(source, target, mu, nu)

    def _store(
        self, source: tuple[str, ...], target: tuple[str, ...], mu: Matrix, nu: Matrix
    ) -> None:
        """Set the int form of validated degree matrices of the right shape.

        Raises ``DegreeSumError`` at the first cell with mu + nu > 1.  The
        lcm of reduced denominators is already canonical.
        """
        den = lcm(*(d.denominator for row in chain(mu, nu) for d in row))

        def ints(matrix: Matrix) -> IntMatrix:
            return tuple(tuple(d.numerator * (den // d.denominator) for d in row) for row in matrix)

        m, n = ints(mu), ints(nu)
        cell = _bad_cell(den, m, n)
        if cell is not None:
            i, j = cell
            raise DegreeSumError(
                f"mu + nu > 1 at cell ({i}, {j}): "
                f"{mu[i][j]} + {nu[i][j]} = {mu[i][j] + nu[i][j]}",
                cell,
            )
        self.__dict__.update(source=source, target=target, den=den, m=m, n=n, mu=mu, nu=nu)

    @classmethod
    def _from_degrees(
        cls, source: tuple[str, ...], target: tuple[str, ...], mu: Matrix, nu: Matrix
    ) -> "IFRelation":
        """Internal constructor for degrees the caller already validated
        (``jsonio``, the samplers): no second ``degree`` pass."""
        r = object.__new__(cls)
        r._store(source, target, mu, nu)
        _check_labels(source, "source")
        _check_labels(target, "target")
        return r

    @classmethod
    def _build(
        cls, source: tuple[str, ...], target: tuple[str, ...], den: int, m: IntMatrix, n: IntMatrix
    ) -> "IFRelation":
        """Internal constructor from ints: labels and shapes are trusted, the
        int invariant is checked and ``den`` is made canonical."""
        cell = _bad_cell(den, m, n)
        if cell is not None:
            raise ValueError(f"computed relation breaks mu + nu <= 1 at cell {cell}")
        g = gcd(den, *chain.from_iterable(m), *chain.from_iterable(n))
        if g > 1:
            den //= g
            m = tuple(tuple(x // g for x in row) for row in m)
            n = tuple(tuple(x // g for x in row) for row in n)
        r = object.__new__(cls)
        r.__dict__.update(source=source, target=target, den=den, m=m, n=n)
        return r

    @cached_property
    def mu(self) -> Matrix:
        return _fractions(self.m, self.den)

    @cached_property
    def nu(self) -> Matrix:
        return _fractions(self.n, self.den)

    def __repr__(self) -> str:
        return (
            f"IFRelation(source={self.source!r}, target={self.target!r}, "
            f"mu={self.mu!r}, nu={self.nu!r})"
        )

    @property
    def is_square(self) -> bool:
        return self.source == self.target

    def pair(self, i: int, j: int) -> IFPair:
        return IFPair._trusted(self.mu[i][j], self.nu[i][j])

    def pair_of(self, x: str, y: str) -> IFPair:
        return self.pair(self.source.index(x), self.target.index(y))

    @classmethod
    def from_pairs(
        cls, source: Sequence[str], target: Sequence[str], cells: Sequence[Sequence[IFPair]]
    ) -> "IFRelation":
        return cls(
            tuple(source),
            tuple(target),
            tuple(tuple(p.mu for p in row) for row in cells),
            tuple(tuple(p.nu for p in row) for row in cells),
        )

    @classmethod
    def from_bool(
        cls, source: Sequence[str], target: Sequence[str], holds: Sequence[Sequence[bool]]
    ) -> "IFRelation":
        """Embed a crisp relation: True becomes (1, 0), False becomes (0, 1)."""
        source, target = tuple(source), tuple(target)
        _check_labels(source, "source")
        _check_labels(target, "target")
        if len(holds) != len(source) or any(len(row) != len(target) for row in holds):
            raise ValueError(f"holds matrix must be {len(source)}x{len(target)}")
        m = tuple(tuple(1 if v else 0 for v in row) for row in holds)
        return cls._build(source, target, 1, m, tuple(tuple(1 - x for x in row) for row in m))

    def _require_square(self, op: str) -> None:
        if not self.is_square:
            raise ValueError(f"{op} requires a square relation on one set")


def identity_relation(labels: Sequence[str]) -> IFRelation:
    """The identity: (1, 0) on the diagonal, (0, 1) elsewhere."""
    labels = tuple(labels)
    return IFRelation.from_bool(
        labels, labels, [[i == j for j in range(len(labels))] for i in range(len(labels))]
    )


def _common(r: IFRelation, s: IFRelation) -> tuple[int, IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Both relations' int matrices over the lcm of their denominators."""
    if r.den == s.den:
        return r.den, r.m, r.n, s.m, s.n
    den = lcm(r.den, s.den)
    fr, fs = den // r.den, den // s.den
    return den, _scaled(r.m, fr), _scaled(r.n, fr), _scaled(s.m, fs), _scaled(s.n, fs)


def compose(r: IFRelation, s: IFRelation) -> IFRelation:
    """Relational composite over X x Z: max-min on mu, min-max on nu.

    The result stays a valid relation: for the membership-maximizing middle
    point y, nu_out <= max(nu_r(x,y), nu_s(y,z)) <= 1 - mu_out.
    """
    if r.target != s.source:
        raise ValueError("relations are not composable: r.target differs from s.source")
    den, rm, rn, sm, sn = _common(r, s)
    sm_cols, sn_cols = tuple(zip(*sm)), tuple(zip(*sn))
    m = tuple(tuple(max(map(min, row, col)) for col in sm_cols) for row in rm)
    n = tuple(tuple(min(map(max, row, col)) for col in sn_cols) for row in rn)
    return IFRelation._build(r.source, s.target, den, m, n)


def is_reflexive(r: IFRelation) -> bool:
    """Every diagonal cell is exactly (1, 0)."""
    r._require_square("is_reflexive")
    return all(r.m[i][i] == r.den and r.n[i][i] == 0 for i in range(len(r.source)))


def is_perfectly_antisymmetric(r: IFRelation) -> bool:
    """If the relation holds at all from x to y (x != y), it fully fails from y to x.

    Under the cell invariant the edge holds to some degree exactly when
    nu < 1, and fully fails exactly when nu = 1.
    """
    r._require_square("is_perfectly_antisymmetric")
    n, den = r.n, r.den
    size = len(r.source)
    return all(
        n[i][j] == den or n[j][i] == den for i in range(size) for j in range(i + 1, size)
    )


def is_transitive(r: IFRelation) -> bool:
    """R o R is contained in R: composite mu never exceeds, nu never falls below."""
    r._require_square("is_transitive")
    m_cols, n_cols = tuple(zip(*r.m)), tuple(zip(*r.n))
    return all(
        max(map(min, m_row, m_col)) <= mu and min(map(max, n_row, n_col)) >= nu
        for m_row, n_row in zip(r.m, r.n)
        for m_col, n_col, mu, nu in zip(m_cols, n_cols, m_row, n_row)
    )


def is_partial_order(r: IFRelation) -> bool:
    r._require_square("is_partial_order")
    return is_reflexive(r) and is_perfectly_antisymmetric(r) and is_transitive(r)


def transitive_closure(r: IFRelation) -> IFRelation:
    """Least transitive relation containing ``r`` (degree-wise).

    One Floyd-Warshall pass of max-min on mu and min-max on nu (Naessens,
    De Meyer & De Baets, IEEE TFS 10(4), 2002): after step k every cell
    holds its best value over chains whose inner points lie in 0..k.  Useful
    for repairing randomly sampled orders: the closure never extends the
    support beyond pairs already reachable by chains.
    """
    r._require_square("transitive_closure")
    den = r.den
    m = [list(row) for row in r.m]
    n = [list(row) for row in r.n]
    # row k and column k do not change in step k, so rows update in place
    for k, (m_k, n_k) in enumerate(zip(m, n)):
        for m_i, n_i in zip(m, n):
            a, b = m_i[k], n_i[k]
            if a:
                m_i[:] = map(max, m_i, map(min, repeat(a), m_k))
            if b < den:
                n_i[:] = map(min, n_i, map(max, repeat(b), n_k))
    return IFRelation._build(
        r.source, r.target, den, tuple(map(tuple, m)), tuple(map(tuple, n))
    )
