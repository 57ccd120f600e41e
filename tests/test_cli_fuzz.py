"""Fuzz test of the CLI exit-code contract.

Every subcommand that reads files is fed arbitrary bytes, arbitrary JSON
values and schema-shaped documents drawn from small pools, so that duplicate
and blank labels, over-limit sizes (a 17-element carrier, an 11-element
fragment for ``iso``, a 1 025-element fragment, a 201-element relation, a
fuzzy set of 65 537 points, 251 ``category-check`` triples, a text table
over its character limit), a 10-element fragment with 10! isomorphisms,
inputs at each of those limits, out-of-range ``--map`` indices and over-cap
degrees actually occur.  ``cli.main`` runs
in-process; each run must end with exit code 0, 1 or 2 (argparse's
``SystemExit(2)`` included), let no other exception escape, and finish
within the per-example deadline.  The same documents, written as raw JSON
text with one key of one object repeated, must exit 2.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from squareop.algebra import BooleanAlgebra
from squareop.cli import MAX_TRIPLES, main
from squareop.degrees import IMPLICATIONS
from squareop.diagram import canonical_square
from squareop.fuzzydiagram import embed_diagram
from squareop.iflattice import powerset_lattice
from squareop.jsonio import (
    MAX_FRAGMENT,
    MAX_POINTS,
    MAX_RELATION,
    diagram_to_json,
    fuzzy_diagram_to_json,
    lattice_to_json,
)

FUZZ = settings(max_examples=150, deadline=2000)

LABELS = ["x", "y", "z", "", "x y", "é"]
ATOMS = ["a", "b", "c", "d", ""]
GOOD_DEGREES = ["0", "1", "1/2", "1/3", "2/3", "0.3", "0.25"]
# out of [0, 1], past the exponent or denominator cap, not a degree, not a string
BAD_DEGREES = ["3/2", "-1/2", "1e-500", "1/" + "9" * 40, "half", "", 0.5, None]


def _crisp_order(labels, leq) -> dict:
    n = len(labels)
    return {
        "set": list(labels),
        "mu": [["1" if leq(i, j) else "0" for j in range(n)] for i in range(n)],
        "nu": [["0" if leq(i, j) else "1" for j in range(n)] for i in range(n)],
    }


def _one_over_random_q(n: int, k: int) -> dict:
    """An n-element relation whose first k cells, mu then nu in row order,
    hold 1/q for seeded-random q in [2**127, 2**128], and the rest 0."""
    rng = random.Random(7)
    cells = [f"1/{rng.randint(2**127, 2**128)}" for _ in range(k)] + ["0"] * (2 * n * n - k)
    rows = [cells[i:i + n] for i in range(0, 2 * n * n, n)]
    return {"set": [f"e{i}" for i in range(n)], "mu": rows[:n], "nu": rows[n:]}


ORDERS = [
    _crisp_order([f"e{i}" for i in range(17)], lambda i, j: i == j),  # over the carrier limit
    _crisp_order([f"e{i}" for i in range(16)], lambda i, j: i == j),  # not a lattice
    _crisp_order(["a", "b", "c"], lambda i, j: i <= j),  # a chain: not complemented
    _crisp_order([f"e{i}" for i in range(MAX_RELATION)], lambda i, j: i == j),  # the set limit
    _crisp_order([f"e{i}" for i in range(MAX_RELATION + 1)], lambda i, j: i == j),  # refused
    # the common-denominator limit (these draws keep 1 062 distinct 128-bit
    # denominators within MAX_DENOMINATOR_BITS) and one denominator past it
    _one_over_random_q(33, 1062),
    _one_over_random_q(33, 1063),
] + [lattice_to_json(powerset_lattice(BooleanAlgebra.of(k))) for k in range(1, 5)]

SQUARE = diagram_to_json(canonical_square())
ELEVEN = {  # over the iso fragment limit
    "algebra": {"atoms": ["a", "b", "c", "d"]},
    "fragment": [["a"], ["b"], ["c"], ["d"], ["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
                 ["b", "d"], ["c", "d"], ["a", "b", "c"]],
}
CONTRARY_TEN = {  # at the iso fragment limit, with 10! isomorphisms onto itself
    "algebra": {"atoms": list("abcdefghij")},
    "fragment": [[a] for a in "abcdefghij"],
}
FUZZY_SQUARE = fuzzy_diagram_to_json(embed_diagram(canonical_square()))


def _random_fragment(n: int) -> dict:
    """``n`` distinct elements on 16 atoms, with their default labels."""
    atoms = list("abcdefghijklmnop")
    masks = random.Random(7).sample(range(1 << 16), n)
    return {"algebra": {"atoms": atoms},
            "fragment": [[a for i, a in enumerate(atoms) if m >> i & 1] for m in masks]}


AT_FRAGMENT_LIMIT = _random_fragment(MAX_FRAGMENT)  # the largest kind table read
OVER_FRAGMENT_LIMIT = _random_fragment(MAX_FRAGMENT + 1)  # refused before any element
# 200 elements, one of them labelled with 5 000 characters: the text table
# would pad every cell to that width, so it is refused; JSON is printed
WIDE_TABLE = dict(_random_fragment(200), labels=["x" * 5000] + [f"l{i}" for i in range(199)])


def _points(n: int) -> dict:
    return {f"p{i}": GOOD_DEGREES[i % len(GOOD_DEGREES)] for i in range(n)}


AT_POINT_LIMIT = _points(MAX_POINTS)  # the largest fuzzy set read
OVER_POINT_LIMIT = _points(MAX_POINTS + 1)  # refused before any degree


def mostly(good, bad, rate: int):
    """A draw from ``bad`` about once in ``rate`` draws, else from ``good``."""
    return st.integers(1, rate).flatmap(lambda k: st.sampled_from(bad if k == 1 else good))


def degree_cell(rate: int = 8):
    return mostly(GOOD_DEGREES, BAD_DEGREES, rate)


@st.composite
def relations(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(ORDERS))
    n = draw(st.integers(1, 4))
    labels = draw(
        st.one_of(
            st.lists(st.sampled_from(LABELS), min_size=n, max_size=n),
            st.lists(st.sampled_from(LABELS), min_size=n, max_size=n, unique=True),
        )
    )
    cell = degree_cell(4 * n * n)
    mu, nu = (
        draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
        for _ in range(2)
    )
    return {draw(st.sampled_from(["set", "carrier"])): labels, "mu": mu, "nu": nu}


@st.composite
def crisp_diagrams(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(
            [ELEVEN, CONTRARY_TEN, SQUARE, AT_FRAGMENT_LIMIT, OVER_FRAGMENT_LIMIT, WIDE_TABLE]))
    atoms = draw(
        st.one_of(
            st.lists(st.sampled_from(ATOMS), max_size=4),
            st.lists(st.sampled_from(ATOMS[:4]), min_size=1, max_size=4, unique=True),
        )
    )
    element = st.lists(mostly(atoms, ["zz"], 20) if atoms else st.just("zz"), max_size=4)
    doc = {"algebra": {"atoms": atoms}, "fragment": draw(st.lists(element, max_size=11))}
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.sampled_from(LABELS), max_size=5))
    return doc


@st.composite
def fuzzy_diagrams(draw):
    if draw(st.booleans()):
        return FUZZY_SQUARE
    lattice = draw(relations())
    carrier = next(v for k, v in lattice.items() if k in ("set", "carrier"))
    doc = {
        "lattice": lattice,
        "fragment": draw(st.lists(st.sampled_from(list(carrier) + ["nowhere"]), max_size=5)),
    }
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.sampled_from(LABELS), max_size=5))
    if draw(st.booleans()):
        doc["tolerance"] = draw(degree_cell(3))
    return doc


small_fuzzy_sets = st.dictionaries(st.sampled_from(LABELS), degree_cell(), max_size=4)


def _rarely(*large):
    """A small fuzzy set, or about once in 20 draws one of ``large``."""
    return st.integers(1, 20).flatmap(
        lambda k: st.sampled_from(large) if k == 1 else small_fuzzy_sets)


# contradiction compares a set at the point limit in 1.1-1.7 s in-process, too
# close to the deadline, so only validate reads it; the CI steps time it
fuzzy_sets = _rarely(OVER_POINT_LIMIT)
documents = st.one_of(
    relations(), crisp_diagrams(), fuzzy_diagrams(), _rarely(AT_POINT_LIMIT, OVER_POINT_LIMIT)
)
map_texts = st.one_of(
    st.lists(st.integers(-2, 12), max_size=11).map(lambda xs: ",".join(map(str, xs))),
    # as long as the canonical square's fragment, mostly in range
    st.lists(st.integers(-1, 4), min_size=4, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.text(max_size=8),
)


def _option(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


formats = _option("format", st.sampled_from(["text", "json"]))
maps = _option("map", map_texts)

# subcommand -> (the document strategy of each file it reads, its options);
# contradiction's second file is optional
COMMANDS = {
    "category-check": (
        [], _option("triples", st.sampled_from([0, 1, MAX_TRIPLES, MAX_TRIPLES + 1]))
    ),
    "validate": (
        [documents],
        _option("kind", st.sampled_from(
            ["auto", "algebra", "diagram", "relation", "fuzzy-set", "fuzzy-diagram"])),
    ),
    "classify": ([crisp_diagrams()], _option("format", st.sampled_from(["text", "json", "dot"]))),
    "iso": ([crisp_diagrams()] * 2, st.one_of(formats, maps)),
    "info": ([crisp_diagrams()] * 2, maps),
    "ifrel-check": ([relations()], formats),
    "lattice-check": ([relations()], formats),
    "contradiction": ([fuzzy_sets] * 2, _option("implication", st.sampled_from(sorted(IMPLICATIONS)))),
    "fuzzy-classify": ([fuzzy_diagrams()], st.one_of(formats, _option("tolerance", degree_cell(3)))),
    "dot": ([st.one_of(crisp_diagrams(), fuzzy_diagrams())], st.just([])),
}


@st.composite
def invocations(draw, payload=None):
    """A subcommand, one input per file it reads (``payload``, or else a
    schema-shaped document of that file's kind), and its options."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    files, options = COMMANDS[command]
    if command == "contradiction" and draw(st.booleans()):
        files = files[:1]
    payloads = [draw(payload) if payload is not None else json.dumps(draw(doc)).encode() for doc in files]
    return command, payloads, draw(options)


def check_exit_code(command: str, payloads, options) -> int:
    """Write ``payloads`` to files, run the command on them and require a
    documented exit code and no escaping exception."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, payload in enumerate(payloads):
            path = Path(tmp) / f"in{i}.json"
            path.write_bytes(payload)
            paths.append(str(path))
        argv = [command, *paths, *options]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the options
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@FUZZ
@given(invocations(st.binary(max_size=64)))
def test_arbitrary_bytes(invocation):
    check_exit_code(*invocation)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["set", "carrier", "mu", "nu", "atoms", "algebra",
                                       "fragment", "labels", "lattice", "tolerance", "x"]),
                      inner, max_size=4),
    max_leaves=12,
)


@FUZZ
@given(invocations(json_values.map(lambda v: json.dumps(v).encode())))
def test_arbitrary_json(invocation):
    check_exit_code(*invocation)


TEN_BYTES = json.dumps(CONTRARY_TEN).encode()
LIMIT_BYTES = json.dumps(AT_FRAGMENT_LIMIT).encode()
OVER_BYTES = json.dumps(OVER_FRAGMENT_LIMIT).encode()
POINTS_BYTES = json.dumps(AT_POINT_LIMIT).encode()


@settings(FUZZ, max_examples=300)
@given(invocations())
@example(("iso", [TEN_BYTES, TEN_BYTES], []))  # iso at its limit, within the deadline
@example(("iso", [TEN_BYTES, TEN_BYTES], ["--format=json"]))
@example(("classify", [LIMIT_BYTES], []))  # the fragment limit, within the deadline
@example(("classify", [LIMIT_BYTES], ["--format=json"]))
@example(("dot", [LIMIT_BYTES], []))
@example(("classify", [OVER_BYTES], []))
@example(("validate", [POINTS_BYTES], []))  # the point limit
@example(("category-check", [], [f"--triples={MAX_TRIPLES}"]))  # the triples limit
def test_schema_shaped(invocation):
    check_exit_code(*invocation)


def _repeat_a_key(doc, pick: int) -> bytes:
    """``doc`` as raw JSON text in which one key, the ``pick``-th (modulo the
    count) of all its objects' keys in document order, is written twice."""
    keys = []

    def walk(value):
        if isinstance(value, dict):
            for key, item in value.items():
                keys.append((id(value), key))
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    def dump(value):
        if isinstance(value, dict):
            pairs = []
            for key, item in value.items():
                pairs.append(f"{json.dumps(key)}: {dump(item)}")
                if (id(value), key) == repeated:
                    pairs.append(pairs[-1])
            return "{" + ", ".join(pairs) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(map(dump, value)) + "]"
        return json.dumps(value)

    walk(doc)
    repeated = keys[pick % len(keys)]
    return dump(doc).encode()


@st.composite
def repeated_key_invocations(draw):
    """A subcommand that reads files, each file a schema-shaped document
    (never ``{}``) with a repeated key, and its options."""
    command = draw(st.sampled_from(sorted(c for c, (files, _) in COMMANDS.items() if files)))
    files, options = COMMANDS[command]
    payloads = [_repeat_a_key(draw(doc.filter(bool)), draw(st.integers(0, 2**16)))
                for doc in files]
    return command, payloads, draw(options)


@FUZZ
@given(repeated_key_invocations())
@example(("validate", [b'{"x": "1/2", "x": "1"}'], []))
def test_repeated_keys_are_refused(invocation):
    assert check_exit_code(*invocation) == 2
