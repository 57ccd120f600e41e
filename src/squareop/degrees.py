"""Exact degree arithmetic, membership/nonmembership pairs and fuzzy sets.

Degrees are ``fractions.Fraction`` values in [0, 1], never floats: every
operator used here (min, max, 1 - x, +, *) is closed over the rationals, so
all comparisons in tests and reports are exact.  Degree strings parse from
"p/q" or decimal literals ("0.3" becomes 3/10 exactly).

Degrees are bounded before any expensive arithmetic: a degree string has at
most ``MAX_DEGREE_TEXT`` characters and a decimal exponent of magnitude at
most ``MAX_DEGREE_EXPONENT``, and every degree's reduced denominator is at
most ``MAX_DEGREE_DENOMINATOR``.  A relation's degrees share one common
denominator, so one unbounded cell would otherwise inflate all the others.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

Degree = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class DomainMismatchError(ValueError):
    """Two fuzzy sets over different domains were combined."""


MAX_DEGREE_TEXT = 100
MAX_DEGREE_EXPONENT = 100
MAX_DEGREE_DENOMINATOR = 2**128

# Fraction()'s own exponent grammar: \d is any Unicode decimal digit, which
# int() reads too, so "1e-" followed by fullwidth digits is capped as well
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)", re.IGNORECASE)


def degree(value: int | str | Fraction) -> Fraction:
    """Validate and normalize a degree; accepts Fraction, int or string.

    A ``Fraction`` that is already a valid degree is returned as is.
    """
    if isinstance(value, bool):
        raise TypeError("degrees are rationals, not booleans")
    if isinstance(value, float):
        raise TypeError(f"degrees must be exact; pass a string or Fraction, not float {value!r}")
    if isinstance(value, str):
        if len(value) > MAX_DEGREE_TEXT:
            raise ValueError(
                f"degree text of {len(value)} characters exceeds {MAX_DEGREE_TEXT}"
            )
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent[1])) > MAX_DEGREE_EXPONENT:
            raise ValueError(
                f"degree {value!r} has an exponent beyond +-{MAX_DEGREE_EXPONENT}"
            )
    if type(value) is Fraction:
        d = value
    else:
        try:
            d = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse degree {value!r}: {exc}") from None
    if d.denominator > MAX_DEGREE_DENOMINATOR:
        raise ValueError(
            f"degree denominator of {d.denominator.bit_length()} bits exceeds 2**128"
        )
    if not 0 <= d.numerator <= d.denominator:
        raise ValueError(f"degree {d} outside [0, 1]")
    return d


def parse_degree(text: str) -> Fraction:
    """Parse "p/q" or a decimal literal into an exact degree."""
    if not isinstance(text, str):
        raise TypeError(f"expected a degree string, got {type(text).__name__}")
    return degree(text)


def format_degree(d: Fraction) -> str:
    return str(d)


# ---------------------------------------------------------------------------
# negation / implication operator registry

def _standard_negation(a: Fraction) -> Fraction:
    return ONE - a


def _kleene_dienes(a: Fraction, b: Fraction) -> Fraction:
    return max(ONE - a, b)


def _lukasiewicz(a: Fraction, b: Fraction) -> Fraction:
    return min(ONE, ONE - a + b)


def _goedel(a: Fraction, b: Fraction) -> Fraction:
    return ONE if a <= b else b


def _reichenbach(a: Fraction, b: Fraction) -> Fraction:
    return ONE - a + a * b


NEGATIONS: dict[str, Callable[[Fraction], Fraction]] = {
    "standard": _standard_negation,
}

IMPLICATIONS: dict[str, Callable[[Fraction, Fraction], Fraction]] = {
    "kleene-dienes": _kleene_dienes,
    "lukasiewicz": _lukasiewicz,
    "godel": _goedel,
    "reichenbach": _reichenbach,
}


def register_negation(name: str, fn: Callable[[Fraction], Fraction]) -> None:
    if name in NEGATIONS:
        raise ValueError(f"negation {name!r} already registered")
    NEGATIONS[name] = fn


def register_implication(name: str, fn: Callable[[Fraction, Fraction], Fraction]) -> None:
    if name in IMPLICATIONS:
        raise ValueError(f"implication {name!r} already registered")
    IMPLICATIONS[name] = fn


@dataclass(frozen=True)
class OperatorChoice:
    """Named pick of negation and implication operators."""

    negation: str = "standard"
    implication: str = "kleene-dienes"

    def __post_init__(self) -> None:
        if self.negation not in NEGATIONS:
            raise ValueError(
                f"unknown negation {self.negation!r}; known: {sorted(NEGATIONS)}"
            )
        if self.implication not in IMPLICATIONS:
            raise ValueError(
                f"unknown implication {self.implication!r}; known: {sorted(IMPLICATIONS)}"
            )


def negate(ops: OperatorChoice, a: Fraction) -> Fraction:
    return NEGATIONS[ops.negation](degree(a))


def implies(ops: OperatorChoice, a: Fraction, b: Fraction) -> Fraction:
    return IMPLICATIONS[ops.implication](degree(a), degree(b))


# ---------------------------------------------------------------------------
# membership / nonmembership pairs

@dataclass(frozen=True)
class IFPair:
    """A (membership, nonmembership) pair with mu + nu <= 1.

    The slack pi = 1 - mu - nu is the hesitation margin.
    """

    mu: Fraction
    nu: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", degree(self.mu))
        object.__setattr__(self, "nu", degree(self.nu))
        if self.mu + self.nu > ONE:
            raise ValueError(f"mu + nu = {self.mu + self.nu} exceeds 1")

    @classmethod
    def _trusted(cls, mu: Fraction, nu: Fraction) -> "IFPair":
        """A pair of degrees read from a validated relation: no re-check."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "mu", mu)
        object.__setattr__(pair, "nu", nu)
        return pair

    @property
    def hesitation(self) -> Fraction:
        return ONE - self.mu - self.nu

    def complement(self) -> "IFPair":
        """Standard complement: swap membership and nonmembership."""
        return IFPair(self.nu, self.mu)

    def __repr__(self) -> str:
        return f"IFPair({self.mu}, {self.nu})"


def if_complement(p: IFPair) -> IFPair:
    return p.complement()


FULL = IFPair(ONE, ZERO)
EMPTY = IFPair(ZERO, ONE)


# ---------------------------------------------------------------------------
# fuzzy sets over finite labeled domains

@dataclass(frozen=True)
class FuzzySet:
    """A fuzzy subset of a finite ordered domain of labeled points."""

    domain: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.domain, tuple):
            object.__setattr__(self, "domain", tuple(self.domain))
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.domain:
            raise ValueError("domain must not be empty")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain labels must be distinct")
        if len(self.values) != len(self.domain):
            raise ValueError("membership must be total on the domain")
        object.__setattr__(self, "values", tuple(degree(v) for v in self.values))

    @classmethod
    def from_mapping(cls, membership: Mapping[str, int | str | Fraction]) -> "FuzzySet":
        return cls(tuple(membership), tuple(degree(v) for v in membership.values()))

    @classmethod
    def constant(cls, domain: tuple[str, ...], value: int | str | Fraction) -> "FuzzySet":
        return cls(domain, tuple(degree(value) for _ in domain))

    def __getitem__(self, label: str) -> Fraction:
        try:
            return self.values[self.domain.index(label)]
        except ValueError:
            raise KeyError(label) from None

    def as_mapping(self) -> dict[str, Fraction]:
        return dict(zip(self.domain, self.values))


class ContradictionDegrees(NamedTuple):
    scalar: Fraction
    pointwise: dict[str, Fraction]


def contradiction_degree(
    a: FuzzySet, b: FuzzySet, ops: OperatorChoice | None = None
) -> ContradictionDegrees:
    """How contradictory ``a`` is to ``b``: pointwise J(A(x), N(B(x))).

    The scalar degree aggregates the pointwise values by minimum over the
    (finite, shared) domain; the pointwise map is returned alongside so
    callers can apply a different aggregation.
    """
    ops = ops or OperatorChoice()
    if a.domain != b.domain:
        raise DomainMismatchError(
            f"fuzzy sets have different domains: {a.domain} vs {b.domain}"
        )
    pointwise = {
        x: implies(ops, a[x], negate(ops, b[x])) for x in a.domain
    }
    return ContradictionDegrees(min(pointwise.values()), pointwise)


def self_contradiction_degree(a: FuzzySet, ops: OperatorChoice | None = None) -> Fraction:
    """Degree to which a fuzzy set contradicts itself."""
    return contradiction_degree(a, a, ops).scalar
