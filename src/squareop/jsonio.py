"""JSON schemas for every value the CLI reads or writes.

Degrees travel as strings ("1/2", "0.3"); elements as sorted atom-label
arrays.  Parsers validate shape and invariants and raise InputFormatError
with the offending JSON path, which the CLI maps to exit code 2.  Degree
strings are bounded as ``degrees.degree`` documents (length, exponent and
denominator caps) before any arithmetic.

Schemas:

* algebra        {"atoms": ["a", "b", ...]}
* diagram        {"algebra": {...}, "fragment": [["a"], ["a","b"], ...],
                  "labels": ["A", ...]}
* relation       {"set": ["x", ...], "mu": [["1", ...], ...], "nu": [...]}
                 (the key "carrier" is accepted as an alias of "set")
* fuzzy set      {"point": "degree", ...}
* fuzzy diagram  {"lattice": <relation>, "fragment": ["{a}", ...],
                  "labels": [...], "tolerance": "1/100"}
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .algebra import BooleanAlgebra, Element
from .degrees import FuzzySet, IFPair, degree
from .diagram import Diagram
from .fuzzydiagram import DEFAULT_TOLERANCE, FuzzyAristotelianDiagram
from .ifrel import DegreeSumError, IFRelation
from .iflattice import IFLattice, LatticeCertification


class InputFormatError(ValueError):
    """Malformed input; ``path`` points at the offending JSON field."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise InputFormatError(message, path)


def _expect_list(obj: Any, path: str) -> list:
    _expect(isinstance(obj, list), f"expected an array, got {type(obj).__name__}", path)
    return obj


def _expect_object(obj: Any, path: str) -> dict:
    _expect(isinstance(obj, dict), f"expected an object, got {type(obj).__name__}", path)
    return obj


def _expect_str(obj: Any, path: str) -> str:
    _expect(isinstance(obj, str), f"expected a string, got {type(obj).__name__}", path)
    return obj


def _parse_degree(obj: Any, path: str) -> Fraction:
    text = _expect_str(obj, path)
    try:
        return degree(text)
    except ValueError as exc:
        raise InputFormatError(str(exc), path) from None


def _string_list(obj: Any, path: str) -> tuple[str, ...]:
    items = _expect_list(obj, path)
    return tuple(_expect_str(x, f"{path}[{i}]") for i, x in enumerate(items))


# ---------------------------------------------------------------------------
# algebra / diagram

def algebra_to_json(algebra: BooleanAlgebra) -> dict:
    return {"atoms": list(algebra.atoms)}

def algebra_from_json(obj: Any, path: str = "$") -> BooleanAlgebra:
    record = _expect_object(obj, path)
    _expect("atoms" in record, 'missing key "atoms"', path)
    atoms = _string_list(record["atoms"], f"{path}.atoms")
    try:
        return BooleanAlgebra(atoms)
    except ValueError as exc:
        raise InputFormatError(str(exc), f"{path}.atoms") from None


def element_to_json(e: Element) -> list[str]:
    return sorted(e.atom_labels())

def element_from_json(obj: Any, algebra: BooleanAlgebra, path: str = "$") -> Element:
    labels = _string_list(obj, path)
    try:
        return algebra.from_atoms(labels)
    except ValueError as exc:
        raise InputFormatError(str(exc), path) from None


def diagram_to_json(d: Diagram) -> dict:
    return {
        "algebra": algebra_to_json(d.algebra),
        "fragment": [element_to_json(e) for e in d.fragment],
        "labels": list(d.labels),
    }

def diagram_from_json(obj: Any, path: str = "$") -> Diagram:
    record = _expect_object(obj, path)
    for key in ("algebra", "fragment"):
        _expect(key in record, f'missing key "{key}"', path)
    algebra = algebra_from_json(record["algebra"], f"{path}.algebra")
    fragment = tuple(
        element_from_json(e, algebra, f"{path}.fragment[{i}]")
        for i, e in enumerate(_expect_list(record["fragment"], f"{path}.fragment"))
    )
    labels: tuple[str, ...] = ()
    if "labels" in record:
        labels = _string_list(record["labels"], f"{path}.labels")
    try:
        return Diagram(algebra, fragment, labels)
    except ValueError as exc:
        raise InputFormatError(str(exc), path) from None


def kind_table_to_json(labels: tuple[str, ...], table) -> dict:
    return {
        "labels": list(labels),
        "kinds": [[kind.value for kind in row] for row in table],
    }


# ---------------------------------------------------------------------------
# relations / lattices

def _degree_matrix(obj: Any, rows: int, cols: int, path: str) -> tuple[tuple[Fraction, ...], ...]:
    matrix = _expect_list(obj, path)
    _expect(len(matrix) == rows, f"expected {rows} rows, got {len(matrix)}", path)
    out = []
    for i, row in enumerate(matrix):
        row = _expect_list(row, f"{path}[{i}]")
        _expect(len(row) == cols, f"expected {cols} columns, got {len(row)}", f"{path}[{i}]")
        out.append(tuple(_parse_degree(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(out)


def relation_to_json(r: IFRelation, key: str = "set") -> dict:
    if not r.is_square:
        raise ValueError("only square relations have a documented JSON schema")
    return {
        key: list(r.source),
        "mu": [[str(v) for v in row] for row in r.mu],
        "nu": [[str(v) for v in row] for row in r.nu],
    }

def relation_from_json(obj: Any, path: str = "$") -> IFRelation:
    record = _expect_object(obj, path)
    if "set" in record:
        key = "set"
    elif "carrier" in record:
        key = "carrier"
    else:
        raise InputFormatError('missing key "set" (or "carrier")', path)
    labels = _string_list(record[key], f"{path}.{key}")
    _expect(len(labels) >= 1, "the set must not be empty", f"{path}.{key}")
    for mkey in ("mu", "nu"):
        _expect(mkey in record, f'missing key "{mkey}"', path)
    n = len(labels)
    mu = _degree_matrix(record["mu"], n, n, f"{path}.mu")
    nu = _degree_matrix(record["nu"], n, n, f"{path}.nu")
    try:
        return IFRelation._from_degrees(labels, labels, mu, nu)
    except DegreeSumError as exc:
        i, j = exc.cell
        raise InputFormatError(
            f"mu + nu = {mu[i][j] + nu[i][j]} exceeds 1", f"{path}.mu[{i}][{j}]"
        ) from None


def lattice_to_json(lattice: IFLattice) -> dict:
    return relation_to_json(lattice.order, key="carrier")


def certification_to_json(cert: LatticeCertification) -> dict:
    return {
        "reflexive": cert.reflexive,
        "perfectly_antisymmetric": cert.perfectly_antisymmetric,
        "transitive": cert.transitive,
        "partial_order": cert.partial_order,
        "lattice": cert.lattice,
        "distributive": cert.distributive,
        "complemented": cert.complemented,
        "de_morgan": cert.de_morgan,
        "if_boolean_algebra": cert.if_boolean_algebra,
    }


# ---------------------------------------------------------------------------
# fuzzy sets / fuzzy diagrams

def fuzzy_set_to_json(s: FuzzySet) -> dict:
    return {x: str(v) for x, v in zip(s.domain, s.values)}

def fuzzy_set_from_json(obj: Any, path: str = "$") -> FuzzySet:
    record = _expect_object(obj, path)
    _expect(len(record) >= 1, "fuzzy set must not be empty", path)
    domain = []
    values = []
    for label, value in record.items():
        domain.append(_expect_str(label, path))
        values.append(_parse_degree(value, f"{path}.{label}"))
    return FuzzySet(tuple(domain), tuple(values))


def ifpair_to_json(p: IFPair) -> dict:
    return {"mu": str(p.mu), "nu": str(p.nu)}


def fuzzy_diagram_to_json(d: FuzzyAristotelianDiagram) -> dict:
    return {
        "lattice": lattice_to_json(d.lattice),
        "fragment": list(d.fragment),
        "labels": list(d.labels),
        "tolerance": str(d.tolerance),
    }

def fuzzy_diagram_from_json(obj: Any, path: str = "$") -> FuzzyAristotelianDiagram:
    record = _expect_object(obj, path)
    for key in ("lattice", "fragment"):
        _expect(key in record, f'missing key "{key}"', path)
    order = relation_from_json(record["lattice"], f"{path}.lattice")
    fragment = _string_list(record["fragment"], f"{path}.fragment")
    labels: tuple[str, ...] = ()
    if "labels" in record:
        labels = _string_list(record["labels"], f"{path}.labels")
    tolerance = DEFAULT_TOLERANCE
    if "tolerance" in record:
        tolerance = _parse_degree(record["tolerance"], f"{path}.tolerance")
    for x in fragment:
        _expect(x in order.source, f"fragment element {x!r} is not in the carrier",
                f"{path}.fragment")
    # order-theoretic failures (not a partial order, not a Boolean algebra)
    # are property failures, not schema errors; let ValueError propagate
    lattice = IFLattice(order)
    return FuzzyAristotelianDiagram(lattice, fragment, labels, tolerance)
