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
``Fraction`` matrices at the API surface; every relation stores ints only
and builds them on first read.

Support lemma: under the cell invariant a cell with nu = 1 has mu = 0.  So
a chain x -> y -> z with nu = 1 on either edge yields
min(mu(x,y), mu(y,z)) = 0 and max(nu(x,y), nu(y,z)) = 1: the degree (0, 1),
which every cell contains.  Such a chain can neither break transitivity nor
improve a composite or closure cell.  The three max-min kernels
(``compose``, the transitivity check and ``transitive_closure``) therefore
walk only the support of each row, the columns where nu < 1.

Validation happens once, at the input boundary: the public constructor
checks labels, every degree through ``degrees.degree``, and shapes;
``jsonio``, which reports JSON paths, does the same.  Both build through
``_from_cells`` from each distinct cell's reduced int pair ``(p, q)``, which
the degree reader proved to lie in [0, 1]; it refuses a common denominator
past ``MAX_DENOMINATOR_BITS`` and alone checks m + n <= den (``DegreeSumError``).
``_build`` takes ints the library computed unchecked, as each caller proves
the invariant: ``from_bool`` cells are (1, 0) or (0, 1); ``compose`` and
``transitive_closure`` keep it by the validity lemma in their docstrings;
the sampler draws cells with a/p + b/q <= 1 (``sampling._random_cell``) and
relabels an order by permuting its valid cells.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

from ._record import record
from .algebra import _check_labels
from .degrees import IFPair, degree

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]

#: The most bits a relation's distinct int cells may take together: the
#: common denominator's bit length times the number of distinct degrees
#: (16 MiB of ints).  Checked while the lcm of the denominators is taken,
#: before any int cell is built: a relation of 40 elements whose cells have
#: distinct 128-bit denominators passes it.
MAX_DENOMINATOR_BITS = 2**27


class DegreeSumError(ValueError):
    """A cell has mu + nu > 1; ``cell`` is its (row, column)."""

    def __init__(self, message: str, cell: tuple[int, int]):
        super().__init__(message)
        self.cell = cell


def _bad_cell(den: int, m: IntMatrix, n: IntMatrix) -> tuple[int, int] | None:
    """The first cell with m + n > den, if any: the degree reader proved 0 <= m, n."""
    for i, (m_row, n_row) in enumerate(zip(m, n)):
        for j, (a, b) in enumerate(zip(m_row, n_row)):
            if a + b > den:
                return i, j
    return None


def _common_denominator(pair_of: Mapping[Hashable, tuple[int, int]]) -> int:
    """The lcm of the denominators in ``pair_of``, taken one at a time and
    refused as soon as ``MAX_DENOMINATOR_BITS`` is passed."""
    den = 1
    for q in {q for _, q in pair_of.values()}:
        den = lcm(den, q)
        if den.bit_length() * len(pair_of) > MAX_DENOMINATOR_BITS:
            # well-formed but too large: a refusal, not a malformed input
            raise ValueError(
                f"common denominator refused: its {den.bit_length()}+ bits times "
                f"{len(pair_of)} distinct degrees exceed {MAX_DENOMINATOR_BITS} bits"
            )
    return den


def _fractions(ints: IntMatrix, den: int) -> Matrix:
    # one Fraction per distinct value
    made = {k: Fraction(k, den) for k in set(chain.from_iterable(ints))}
    return tuple(tuple(map(made.__getitem__, row)) for row in ints)


def _support(n_row: Sequence[int], den: int) -> list[int]:
    """The columns j of a row where nu < 1, that is n_row[j] < den."""
    return [j for j, b in enumerate(n_row) if b < den]


def _scaled(matrix: IntMatrix, factor: int) -> IntMatrix:
    if factor == 1:
        return matrix
    return tuple(tuple(x * factor for x in row) for row in matrix)


@record
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
        self.__post_init__(source, target, mu, nu)

    def __post_init__(
        self, source: Sequence[str], target: Sequence[str], mu: Matrix, nu: Matrix
    ) -> None:
        source, target = tuple(source), tuple(target)
        _check_labels(source, "source")
        _check_labels(target, "target")
        # keyed by each cell's checked, reduced (p, q): never by the raw cell
        # (True == 1), nor by the Fraction, which hashes at Python speed
        mu = tuple(tuple(degree(v).as_integer_ratio() for v in row) for row in mu)
        nu = tuple(tuple(degree(v).as_integer_ratio() for v in row) for row in nu)
        rows, cols = len(source), len(target)
        for name, matrix in (("mu", mu), ("nu", nu)):
            if len(matrix) != rows or any(len(r) != cols for r in matrix):
                raise ValueError(f"{name} matrix must be {rows}x{cols}")
        pair_of = {pair: pair for pair in set(chain(*mu, *nu))}
        vars(self).update(vars(self._from_cells(source, target, mu, nu, pair_of)))

    @classmethod
    def _from_cells(
        cls, source: tuple[str, ...], target: tuple[str, ...], mu_cells: Sequence[Sequence],
        nu_cells: Sequence[Sequence], pair_of: Mapping[Hashable, tuple[int, int]],
    ) -> "IFRelation":
        """Internal constructor from checked labels and cell matrices, and each
        distinct cell's reduced ``(p, q)`` from the degree reader, 0 <= p <= q
        (no other key).  ``den``, the lcm of their ``q``, is canonical; raises
        ``ValueError`` if it is refused, ``DegreeSumError`` at the first cell with mu + nu > 1."""
        den = _common_denominator(pair_of)
        ints = {key: p * (den // q) for key, (p, q) in pair_of.items()}
        m = tuple(tuple(map(ints.__getitem__, row)) for row in mu_cells)
        n = tuple(tuple(map(ints.__getitem__, row)) for row in nu_cells)
        cell = _bad_cell(den, m, n)
        if cell is not None:
            i, j = cell
            a, b = Fraction(m[i][j], den), Fraction(n[i][j], den)
            raise DegreeSumError(f"mu + nu > 1 at cell ({i}, {j}): {a} + {b} = {a + b}", cell)
        return cls._trusted(source, target, den, m, n)

    @classmethod
    def _build(
        cls, source: tuple[str, ...], target: tuple[str, ...], den: int, m: IntMatrix, n: IntMatrix
    ) -> "IFRelation":
        """Internal constructor from ints the library computed: labels, shapes
        and the cell invariant are trusted; ``den`` is made canonical."""
        g = gcd(den, *chain.from_iterable(m), *chain.from_iterable(n))
        if g > 1:
            den //= g
            m = tuple(tuple(x // g for x in row) for row in m)
            n = tuple(tuple(x // g for x in row) for row in n)
        return cls._trusted(source, target, den, m, n)

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

    # The three order verdicts of a square relation, computed once per
    # relation; read through is_reflexive, is_perfectly_antisymmetric and
    # is_transitive, which check squareness first.

    @cached_property
    def _reflexive(self) -> bool:
        den = self.den
        return all(self.m[i][i] == den and self.n[i][i] == 0 for i in range(len(self.source)))

    @cached_property
    def _perfectly_antisymmetric(self) -> bool:
        n, den = self.n, self.den
        size = len(self.source)
        return all(
            n[i][j] == den or n[j][i] == den for i in range(size) for j in range(i + 1, size)
        )

    @cached_property
    def _transitive(self) -> bool:
        # the support lemma (module docstring): only chains with nu < 1 on
        # both edges are checked
        m, n = self.m, self.n
        support = [_support(row, self.den) for row in n]
        for m_x, n_x, support_x in zip(m, n, support):
            for y in support_x:
                a, b = m_x[y], n_x[y]
                m_y, n_y = m[y], n[y]
                for z in support[y]:
                    c, d = m_y[z], n_y[z]
                    if (a if a < c else c) > m_x[z] or (b if b > d else d) < n_x[z]:
                        return False
        return True


def identity_relation(labels: Sequence[str]) -> IFRelation:
    """The identity: (1, 0) on the diagonal, (0, 1) elsewhere."""
    labels = tuple(labels)
    return IFRelation.from_bool(
        labels, labels, [[i == j for j in range(len(labels))] for i in range(len(labels))]
    )


def _common(r: IFRelation, s: IFRelation) -> tuple[int, IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Both relations' int matrices over the lcm of their denominators."""
    den = lcm(r.den, s.den)
    fr, fs = den // r.den, den // s.den
    return den, _scaled(r.m, fr), _scaled(r.n, fr), _scaled(s.m, fs), _scaled(s.n, fs)


def compose(r: IFRelation, s: IFRelation) -> IFRelation:
    """Relational composite over X x Z: max-min on mu, min-max on nu.

    Validity lemma, which lets ``_build`` skip the cell check: for the middle
    point y giving mu_out, nu_out <= max(nu_r(x,y), nu_s(y,z))
    <= 1 - min(mu_r(x,y), mu_s(y,z)) = 1 - mu_out.
    """
    if r.target != s.source:
        raise ValueError("relations are not composable: r.target differs from s.source")
    den, rm, rn, sm, sn = _common(r, s)
    cols = len(s.target)
    m, n = [], []
    # nu < 1 is tested in place: listing the supports of s first costs a pass
    # over s, which a composite with few rows of r does not earn back
    for m_x, n_x in zip(rm, rn):
        m_row, n_row = [0] * cols, [den] * cols
        for y, b in enumerate(n_x):
            if b < den:
                a, m_y = m_x[y], sm[y]
                for z, d in enumerate(sn[y]):
                    if d < den:
                        c = m_y[z]
                        c = a if a < c else c
                        if c > m_row[z]:
                            m_row[z] = c
                        d = b if b > d else d
                        if d < n_row[z]:
                            n_row[z] = d
        m.append(tuple(m_row))
        n.append(tuple(n_row))
    return IFRelation._build(r.source, s.target, den, tuple(m), tuple(n))


def is_reflexive(r: IFRelation) -> bool:
    """Every diagonal cell is exactly (1, 0)."""
    r._require_square("is_reflexive")
    return r._reflexive


def is_perfectly_antisymmetric(r: IFRelation) -> bool:
    """If the relation holds at all from x to y (x != y), it fully fails from y to x.

    Under the cell invariant the edge holds to some degree exactly when
    nu < 1, and fully fails exactly when nu = 1.
    """
    r._require_square("is_perfectly_antisymmetric")
    return r._perfectly_antisymmetric


def is_transitive(r: IFRelation) -> bool:
    """R o R is contained in R: composite mu never exceeds, nu never falls below.

    Only chains x -> y -> z with nu(x,y) < 1 and nu(y,z) < 1 are compared:
    by the support lemma in the module docstring any other chain composes
    to (0, 1), which every cell contains.
    """
    r._require_square("is_transitive")
    return r._transitive


def is_partial_order(r: IFRelation) -> bool:
    r._require_square("is_partial_order")
    return r._reflexive and r._perfectly_antisymmetric and r._transitive


def transitive_closure(r: IFRelation) -> IFRelation:
    """Least transitive relation containing ``r`` (degree-wise).

    One Floyd-Warshall pass of max-min on mu and min-max on nu (Naessens,
    De Meyer & De Baets, IEEE TFS 10(4), 2002): after step k every cell
    holds its best value over chains whose inner points lie in 0..k.  Useful
    for repairing randomly sampled orders: the closure never extends the
    support beyond pairs already reachable by chains.

    By the support lemma in the module docstring, step k updates only the
    rows i with nu(i,k) < 1, and in them only the columns of row k's
    support.  That support is read at step k, since earlier steps may have
    grown it.

    Validity lemma: step k takes each cell's union with the composite
    through k, which is valid (``compose``), and a union stays valid: its
    nu is at most that of the side that gives its mu.
    """
    r._require_square("transitive_closure")
    den = r.den
    m = [list(row) for row in r.m]
    n = [list(row) for row in r.n]
    # row k and column k do not change in step k, so rows update in place
    for k, (m_k, n_k) in enumerate(zip(m, n)):
        support_k = _support(n_k, den)
        for m_i, n_i in zip(m, n):
            a, b = m_i[k], n_i[k]
            if b < den:
                for j in support_k:
                    c, d = m_k[j], n_k[j]
                    c = a if a < c else c
                    if c > m_i[j]:
                        m_i[j] = c
                    d = b if b > d else d
                    if d < n_i[j]:
                        n_i[j] = d
    return IFRelation._build(
        r.source, r.target, den, tuple(map(tuple, m)), tuple(map(tuple, n))
    )
