"""JSON schemas for every value the CLI reads or writes.

Degrees travel as strings ("1/2", "0.3"); elements as sorted atom-label
arrays.  Parsers check the JSON shape and raise InputFormatError with the
offending JSON path, which the CLI maps to exit code 2.  They restate no
constructor rule: they call the rules of each value's own module, and
``_checked`` alone gives a rule's ValueError its path.  Degree
strings follow the grammar and caps of ``degrees``.  Each distinct degree
string is parsed once per document, to a reduced int pair ``(p, q)``, in one
pass over a matrix's (or a fuzzy set's) new strings: plain ASCII "p" and
"p/q" by ``degrees._plain``, every other spelling by ``degrees.degree``.
Only when that pass meets a bad cell does a cell-by-cell walk run, to name
the first cell that holds it.  ``Fraction`` degrees (``degrees.Degree``) are
made only for the API surface and error messages.  ``IFRelation._from_cells``
builds a relation from the pairs and applies its common-denominator bound.

Schemas:

* algebra        {"atoms": ["a", "b", ...]}
* diagram        {"algebra": {...}, "fragment": [["a"], ["a","b"], ...],
                  "labels": ["A", ...]}
* relation       {"set": ["x", ...], "mu": [["1", ...], ...], "nu": [...]}
                 (the key "carrier" is accepted as an alias of "set")
* fuzzy set      {"point": "degree", ...}
* fuzzy diagram  {"lattice": <relation>, "fragment": ["{a}", ...],
                  "labels": [...], "tolerance": "1/100"}

``any_diagram_from_json`` reads either diagram: an object with a "lattice"
key is fuzzy, anything else is read as crisp.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .algebra import BooleanAlgebra, Element, _check_labels
from .degrees import Degree, FuzzySet, _plain, degree
from .diagram import Diagram, _check_aligned, _check_fragment

if TYPE_CHECKING:
    from .degrees import IFPair
    from .fuzzydiagram import FuzzyAristotelianDiagram
    from .iflattice import IFLattice, LatticeCertification
    from .ifrel import IFRelation


#: The largest diagram fragment read, checked on the raw JSON list before
#: any element is parsed: the kind table has n² cells, and at 1 024
#: elements ``classify``, ``dot`` and ``info`` take about a second end to end.
MAX_FRAGMENT = 1024

#: The largest relation set read, checked on the raw JSON list before any
#: degree is parsed: the transitivity check walks n³ chains when every
#: cell has nu < 1, which takes about a second at 200 elements.
MAX_RELATION = 200

#: The most points a fuzzy set may have, checked before any degree is
#: parsed: ``contradiction`` on two sets of 65 536 points takes about
#: 1.5 s end to end.
MAX_POINTS = 65536

Pair = tuple[int, int]


class InputFormatError(ValueError):
    """Malformed input (CLI exit 2); ``path`` names the offending JSON field,
    file or flag, or is None when the message names it itself."""

    def __init__(self, message: str, path: str | None = "$"):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


def _checked(path: str, build: Callable, *args: Any) -> Any:
    """``build(*args)``, with the ``ValueError`` it raises reported at ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise InputFormatError(str(exc), path) from None


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
    """A string that UTF-8 output can carry; JSON escapes such as ``"\\ud800"``
    can produce lone surrogates, which it cannot."""
    _expect(isinstance(obj, str), f"expected a string, got {type(obj).__name__}", path)
    try:
        obj.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputFormatError(
            f"string cannot be encoded as UTF-8 (lone surrogate at index {exc.start})", path
        ) from None
    return obj


def _degree(obj: Any, path: str, memo: dict[str, Pair]) -> Pair:
    """The degree a JSON string names, as a reduced ``(p, q)`` parsed by
    ``degrees.degree``.  ``memo`` holds the strings of the document parsed
    so far; only successes enter it, so a bad string raises at the first
    cell that holds it, and a non-string never matches."""
    if type(obj) is str and obj in memo:
        return memo[obj]
    text = _expect_str(obj, path)
    pair = memo[text] = _checked(path, degree, text).as_integer_ratio()
    return pair


def _read_degrees(rows: Any, memo: dict[str, Pair]) -> bool:
    """Parse every cell of ``rows`` not yet in ``memo`` into it, in one pass,
    and return True if each is a degree string.  Otherwise leave ``memo`` as
    it was and return False: the caller's cell-by-cell loop then names the
    first bad cell."""
    try:
        new = set().union(*rows).difference(memo)
    except TypeError:  # an unhashable cell
        return False
    if any(type(text) is not str for text in new):
        return False
    try:  # no degree holds a lone surrogate, which _expect_str refuses
        memo.update({text: _plain(text) or degree(text).as_integer_ratio() for text in new})
    except ValueError:
        return False
    return True


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
    return _checked(f"{path}.atoms", BooleanAlgebra, atoms)


def element_to_json(e: Element) -> list[str]:
    return sorted(e.atom_labels())

def element_from_json(obj: Any, algebra: BooleanAlgebra, path: str = "$") -> Element:
    return _checked(path, algebra.from_atoms, _string_list(obj, path))


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
    # the atom labels are validated strings, so a label found here is valid;
    # anything else goes through element_from_json for its error and path
    bit_of = {label: 1 << i for i, label in enumerate(algebra.atoms)}
    elements = _expect_list(record["fragment"], f"{path}.fragment")
    if len(elements) > MAX_FRAGMENT:  # well-formed but too large: a refusal, not exit 2
        raise ValueError(f"fragment larger than {MAX_FRAGMENT} refused: kind tables are quadratic")
    fragment = []
    for i, element in enumerate(elements):
        try:
            if type(element) is not list:
                raise TypeError
            bits = 0
            for label in element:
                bits |= bit_of[label]
        except (KeyError, TypeError):  # not a list, or a label that is no atom
            fragment.append(element_from_json(element, algebra, f"{path}.fragment[{i}]"))
        else:
            fragment.append(Element(bits, algebra))
    labels: tuple[str, ...] = ()
    if "labels" in record:
        labels = _string_list(record["labels"], f"{path}.labels")
    # Diagram's rules, each at its own path; its algebra rule cannot fail here
    fragment = tuple(fragment)
    _checked(f"{path}.fragment", _check_fragment, fragment, [e.bits for e in fragment])
    _checked(f"{path}.labels", _check_aligned, labels, fragment)
    return Diagram(algebra, fragment, labels)


def kind_table_to_json(labels: tuple[str, ...], table) -> dict:
    return {
        "labels": list(labels),
        "kinds": [[kind.value for kind in row] for row in table],
    }


# ---------------------------------------------------------------------------
# relations / lattices

def _degree_matrix(
    obj: Any, rows: int, cols: int, path: str, memo: dict[str, Pair]
) -> list[list[str]]:
    """``obj`` checked as a rows x cols matrix of degree strings, each of
    which ``memo`` then maps to its degree."""
    matrix = _expect_list(obj, path)
    _expect(len(matrix) == rows, f"expected {rows} rows, got {len(matrix)}", path)
    for i, row in enumerate(matrix):
        if type(row) is not list or len(row) != cols:  # the messages only on a failure
            _expect_list(row, f"{path}[{i}]")
            _expect(len(row) == cols, f"expected {cols} columns, got {len(row)}", f"{path}[{i}]")
    if not _read_degrees(matrix, memo):
        for i, row in enumerate(matrix):
            for j, cell in enumerate(row):
                if type(cell) is not str or cell not in memo:  # the path only for a new string
                    _degree(cell, f"{path}[{i}][{j}]", memo)
    return matrix


def relation_to_json(r: IFRelation, key: str = "set") -> dict:
    if not r.is_square:
        raise ValueError("only square relations have a documented JSON schema")
    return {
        key: list(r.source),
        "mu": [[str(v) for v in row] for row in r.mu],
        "nu": [[str(v) for v in row] for row in r.nu],
    }

def relation_from_json(obj: Any, path: str = "$") -> IFRelation:
    from .ifrel import DegreeSumError, IFRelation

    record = _expect_object(obj, path)
    if "set" in record:
        key = "set"
    elif "carrier" in record:
        key = "carrier"
    else:
        raise InputFormatError('missing key "set" (or "carrier")', path)
    raw = _expect_list(record[key], f"{path}.{key}")
    if len(raw) > MAX_RELATION:  # well-formed but too large: a refusal, not exit 2
        raise ValueError(f"relation larger than {MAX_RELATION} refused: the order checks are cubic")
    labels = _string_list(raw, f"{path}.{key}")
    _checked(f"{path}.{key}", _check_labels, labels, "source")
    for mkey in ("mu", "nu"):
        _expect(mkey in record, f'missing key "{mkey}"', path)
    n = len(labels)
    memo: dict[str, Pair] = {}
    mu = _degree_matrix(record["mu"], n, n, f"{path}.mu", memo)
    nu = _degree_matrix(record["nu"], n, n, f"{path}.nu", memo)
    try:
        return IFRelation._from_cells(labels, labels, mu, nu, memo)
    except DegreeSumError as exc:
        i, j = exc.cell
        total = Degree(*memo[mu[i][j]]) + Degree(*memo[nu[i][j]])
        raise InputFormatError(f"mu + nu = {total} exceeds 1", f"{path}.mu[{i}][{j}]") from None


def lattice_to_json(lattice: IFLattice) -> dict:
    return relation_to_json(lattice.order, key="carrier")


def certification_to_json(cert: LatticeCertification) -> dict:
    """Every field of the certification, keyed by its name, in field order."""
    return {name: getattr(cert, name) for name in type(cert).__annotations__}


# ---------------------------------------------------------------------------
# fuzzy sets / fuzzy diagrams

def fuzzy_set_to_json(s: FuzzySet) -> dict:
    return {x: str(v) for x, v in zip(s.domain, s.values)}

def fuzzy_set_from_json(obj: Any, path: str = "$") -> FuzzySet:
    record = _expect_object(obj, path)
    if len(record) > MAX_POINTS:
        raise ValueError(f"fuzzy set larger than {MAX_POINTS} points refused")
    memo: dict[str, Pair] = {}
    read = _read_degrees((record.values(),), memo)
    for label, value in record.items():
        _expect_str(label, path)
        if not read:
            _degree(value, f"{path}.{label}", memo)
    domain = tuple(record)
    _checked(path, _check_labels, domain, "point")
    made = {text: Degree(p, q) for text, (p, q) in memo.items()}
    # the labels are checked, and every value is a checked degree
    return FuzzySet._trusted(domain, tuple(map(made.__getitem__, record.values())))


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
    from .fuzzydiagram import DEFAULT_TOLERANCE, FuzzyAristotelianDiagram, _check_fuzzy_fragment
    from .iflattice import IFLattice

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
        tolerance = Degree(*_degree(record["tolerance"], f"{path}.tolerance", {}))
    _checked(f"{path}.fragment", _check_fuzzy_fragment, fragment, order.source)
    _checked(f"{path}.labels", _check_aligned, labels, fragment)
    # order-theoretic failures (not a partial order, not a Boolean algebra)
    # are property failures, not schema errors; let ValueError propagate
    lattice = IFLattice(order)
    return FuzzyAristotelianDiagram(lattice, fragment, labels, tolerance)


def any_diagram_from_json(obj: Any, path: str = "$") -> Diagram | FuzzyAristotelianDiagram:
    """A fuzzy diagram if ``obj`` is an object with a "lattice" key, else a crisp one."""
    if isinstance(obj, dict) and "lattice" in obj:
        return fuzzy_diagram_from_json(obj, path)
    return diagram_from_json(obj, path)
