import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from squareop.algebra import BooleanAlgebra
from squareop.diagram import canonical_square
from squareop.fuzzydiagram import embed_diagram
from squareop.iflattice import IFLattice, powerset_lattice
from squareop.ifrel import DegreeSumError, IFRelation, identity_relation
from squareop import cli, ifrel, jsonio
from squareop.jsonio import (
    MAX_FRAGMENT,
    InputFormatError,
    _expect_str,
    algebra_from_json,
    algebra_to_json,
    diagram_from_json,
    diagram_to_json,
    fuzzy_diagram_from_json,
    fuzzy_diagram_to_json,
    fuzzy_set_from_json,
    fuzzy_set_to_json,
    lattice_to_json,
    relation_from_json,
    relation_to_json,
)
from squareop.degrees import FuzzySet, _plain, degree
from squareop.sampling import random_fuzzy_powerset_order


class TestRoundTrips:
    def test_algebra(self):
        algebra = BooleanAlgebra(("S-and-P", "S-without-P", "no-S"))
        assert algebra_from_json(algebra_to_json(algebra)) == algebra

    def test_diagram(self):
        square = canonical_square()
        assert diagram_from_json(diagram_to_json(square)) == square

    def test_diagram_survives_json_text(self):
        square = canonical_square()
        text = json.dumps(diagram_to_json(square))
        assert diagram_from_json(json.loads(text)) == square

    def test_relation(self):
        r = identity_relation(("x", "y", "z"))
        assert relation_from_json(relation_to_json(r)) == r

    def test_fuzzified_relation(self):
        rng = random.Random(9)
        lat = random_fuzzy_powerset_order(rng, 2)
        assert relation_from_json(lattice_to_json(lat)) == lat.order

    def test_fuzzy_set(self):
        s = FuzzySet.from_mapping({"cloudy": "1/2", "clear": "0.3"})
        assert fuzzy_set_from_json(fuzzy_set_to_json(s)) == s

    def test_fuzzy_diagram(self):
        fd = embed_diagram(canonical_square())
        assert fuzzy_diagram_from_json(fuzzy_diagram_to_json(fd)) == fd

    def test_carrier_key_accepted_for_relations(self):
        r = identity_relation(("x",))
        payload = relation_to_json(r, key="carrier")
        assert relation_from_json(payload) == r


class TestElementSerialization:
    def test_elements_serialize_as_sorted_atom_lists(self):
        payload = diagram_to_json(canonical_square())
        assert payload["fragment"] == [["all"], ["none"], ["all", "some"], ["none", "some"]]

    def test_degree_strings_parse_decimals_exactly(self):
        s = fuzzy_set_from_json({"x": "0.3"})
        assert s["x"] == Fraction(3, 10)


class TestDiagnostics:
    def test_missing_key_names_the_path(self):
        with pytest.raises(InputFormatError, match="atoms"):
            algebra_from_json({})

    @pytest.mark.parametrize("mu, path, message", [
        (["1 0", ["0", "1"]], "$.mu[0]", "expected an array, got str"),
        ([["1", "0"], ["0"]], "$.mu[1]", "expected 2 columns, got 1"),
    ], ids=["row-not-a-list", "ragged-row"])
    def test_bad_row_points_at_row(self, mu, path, message):
        payload = {"set": ["x", "y"], "mu": mu, "nu": [["0", "1"], ["1", "0"]]}
        with pytest.raises(InputFormatError) as exc:
            relation_from_json(payload)
        assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")

    def test_only_square_relations_are_written(self):
        r = IFRelation.from_bool(("x", "y"), ("x",), [[True], [False]])
        with pytest.raises(ValueError, match="only square relations"):
            relation_to_json(r)

    def test_bad_degree_points_at_cell(self):
        payload = {
            "set": ["x", "y"],
            "mu": [["1", "0"], ["0", "2"]],
            "nu": [["0", "1"], ["1", "0"]],
        }
        with pytest.raises(InputFormatError) as exc:
            relation_from_json(payload)
        assert exc.value.path == "$.mu[1][1]"

    def test_invariant_violation_points_at_cell(self):
        payload = {
            "set": ["x"],
            "mu": [["3/4"]],
            "nu": [["1/2"]],
        }
        with pytest.raises(InputFormatError) as exc:
            relation_from_json(payload)
        assert "exceeds 1" in str(exc.value)

    def test_invariant_violation_path_names_the_cell(self):
        payload = {
            "set": ["x", "y"],
            "mu": [["1", "1/3"], ["0", "1"]],
            "nu": [["0", "2/3"], ["1", "1/1000000007"]],
        }
        with pytest.raises(InputFormatError) as exc:
            relation_from_json(payload)
        assert exc.value.path == "$.mu[1][1]"
        assert "1000000008/1000000007 exceeds 1" in str(exc.value)

    @pytest.mark.parametrize("bad", [
        "1e-5000", "1e-" + "\uff19" * 20, "1/" + str(2**128 + 1), "0." + "0" * 120,
    ])
    def test_oversized_degree_points_at_cell(self, bad):
        payload = {
            "set": ["x", "y"],
            "mu": [["1", "0"], ["0", "1"]],
            "nu": [["0", bad], ["1", "0"]],
        }
        with pytest.raises(InputFormatError) as exc:
            relation_from_json(payload)
        assert exc.value.path == "$.nu[0][1]"

    def test_parsed_relation_builds_degrees_on_first_read(self):
        payload = {"set": ["x", "y"], "mu": [["1", "2/4"], ["0", "1"]],
                   "nu": [["0", "0.25"], ["1", "0"]]}
        r = relation_from_json(payload)
        assert r.den == 4 and r.m == ((4, 2), (0, 4)) and r.n == ((0, 1), (4, 0))
        assert "mu" not in r.__dict__ and "nu" not in r.__dict__
        assert r.mu[0][1] == Fraction(1, 2) and r.nu[0][1] == Fraction(1, 4)
        assert "mu" in r.__dict__ and "nu" in r.__dict__

    def test_repeated_bad_string_is_reported_at_its_first_cell(self):
        payload = {"set": ["x", "y"], "mu": [["1", "0"], ["3/2", "3/2"]],
                   "nu": [["3/2", "1"], ["3/2", "0"]]}
        with pytest.raises(InputFormatError) as exc:
            relation_from_json(payload)
        assert str(exc.value) == "$.mu[1][0]: degree 3/2 outside [0, 1]"

    @pytest.mark.parametrize("cell, kind", [(1, "int"), (True, "bool"), (0, "int")])
    def test_non_string_after_its_parsed_spelling(self, cell, kind):
        # "1" and "0" are parsed before the cell; 1, True and 0 equal them as
        # dict keys but are still rejected at their own path
        payload = {"set": ["x", "y"], "mu": [["1", cell], ["0", "1"]],
                   "nu": [["0", "0"], ["0", "0"]]}
        with pytest.raises(InputFormatError) as exc:
            relation_from_json(payload)
        assert str(exc.value) == f"$.mu[0][1]: expected a string, got {kind}"

    def test_wrong_matrix_shape(self):
        payload = {"set": ["x", "y"], "mu": [["1"]], "nu": [["0"]]}
        with pytest.raises(InputFormatError, match="rows"):
            relation_from_json(payload)

    def test_unknown_fragment_element(self):
        lat = powerset_lattice(BooleanAlgebra.of(1))
        payload = {"lattice": lattice_to_json(lat), "fragment": ["{zzz}"]}
        with pytest.raises(InputFormatError, match="carrier"):
            fuzzy_diagram_from_json(payload)

    def test_unknown_atom_in_fragment(self):
        payload = {"algebra": {"atoms": ["a"]}, "fragment": [["b"]]}
        with pytest.raises(InputFormatError) as exc:
            diagram_from_json(payload)
        assert "fragment[0]" in exc.value.path

    def test_non_object_input(self):
        with pytest.raises(InputFormatError):
            algebra_from_json([1, 2])

    def test_non_partial_order_is_not_a_format_error(self):
        # semantically invalid but schema-correct input raises plain ValueError
        payload = {
            "lattice": {
                "set": ["x", "y"],
                "mu": [["1", "1/2"], ["1/2", "1"]],
                "nu": [["0", "1/2"], ["1/2", "0"]],
            },
            "fragment": ["x"],
        }
        with pytest.raises(ValueError) as exc:
            fuzzy_diagram_from_json(payload)
        assert not isinstance(exc.value, InputFormatError)


LONE = "\ud800"  # a lone surrogate: valid in a JSON escape, not in UTF-8


def _with_lone_surrogate(doc, *keys):
    """A deep copy of ``doc`` with the string at ``keys`` replaced by ``LONE``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = LONE
    return doc


_SQUARE = diagram_to_json(canonical_square())
_FUZZY = fuzzy_diagram_to_json(embed_diagram(canonical_square()))


class TestLoneSurrogates:
    @pytest.mark.parametrize(
        "parse, doc, path",
        [
            (algebra_from_json, {"atoms": ["a", LONE]}, "$.atoms[1]"),
            (diagram_from_json, _with_lone_surrogate(_SQUARE, "algebra", "atoms", 0),
             "$.algebra.atoms[0]"),
            (diagram_from_json, _with_lone_surrogate(_SQUARE, "fragment", 1, 0),
             "$.fragment[1][0]"),
            (diagram_from_json, _with_lone_surrogate(_SQUARE, "labels", 2), "$.labels[2]"),
            (relation_from_json, {"set": [LONE], "mu": [["1"]], "nu": [["0"]]}, "$.set[0]"),
            (relation_from_json, {"carrier": ["x", LONE], "mu": [["1", "0"], ["0", "1"]],
                                  "nu": [["0", "1"], ["1", "0"]]}, "$.carrier[1]"),
            (fuzzy_diagram_from_json, _with_lone_surrogate(_FUZZY, "lattice", "carrier", 3),
             "$.lattice.carrier[3]"),
            (fuzzy_diagram_from_json, _with_lone_surrogate(_FUZZY, "fragment", 0),
             "$.fragment[0]"),
            (fuzzy_diagram_from_json, _with_lone_surrogate(_FUZZY, "labels", 1), "$.labels[1]"),
            (fuzzy_set_from_json, {"x": "1/2", LONE: "1/3"}, "$"),
            (fuzzy_set_from_json, {"x": LONE}, "$.x"),
        ],
        ids=["atom", "diagram-atom", "fragment-atom", "diagram-label", "set", "carrier",
             "lattice-carrier", "fuzzy-fragment", "fuzzy-label", "fuzzy-set-key", "degree"],
    )
    def test_rejected_with_the_path(self, parse, doc, path):
        with pytest.raises(InputFormatError, match="cannot be encoded as UTF-8") as exc:
            parse(doc)
        assert exc.value.path == path

    def test_surrogate_pairs_are_accepted(self):
        label = json.loads('"\\ud83d\\ude00"')  # one astral character, escaped as a pair
        assert label == "\U0001F600"
        assert fuzzy_set_from_json({label: "1/2"}).domain == (label,)


class TestFragmentParsing:
    """Fragment elements are parsed by label lookup; any element that fails
    it is parsed again by element_from_json, for its message and path."""

    @pytest.mark.parametrize(
        "element, message",
        [
            ("ab", "$.fragment[1]: expected an array, got str"),
            ({"a": 1}, "$.fragment[1]: expected an array, got dict"),
            (["a", 1], "$.fragment[1][1]: expected a string, got int"),
            (["a", ["b"]], "$.fragment[1][1]: expected a string, got list"),
            (["a", LONE], "$.fragment[1][1]: string cannot be encoded as UTF-8 "
                          "(lone surrogate at index 0)"),
            (["a", "z"], "$.fragment[1]: unknown atom label 'z'"),
        ],
        ids=["string", "object", "int-label", "list-label", "lone-surrogate", "unknown-label"],
    )
    def test_errors_keep_their_message_and_path(self, element, message):
        doc = {"algebra": {"atoms": ["a", "b"]}, "fragment": [["a"], element]}
        with pytest.raises(InputFormatError) as exc:
            diagram_from_json(doc)
        assert str(exc.value) == message
        assert exc.value.path == message.split(":")[0]

    def test_size_is_checked_before_any_element(self):
        """A fragment over the limit is refused as too large (exit 1), not as
        malformed, even when its elements would be malformed."""
        atoms = [f"a{i}" for i in range(10)]
        whole = [[a for i, a in enumerate(atoms) if bits >> i & 1] for bits in range(1024)]
        assert len(whole) == MAX_FRAGMENT
        assert len(diagram_from_json({"algebra": {"atoms": atoms}, "fragment": whole})) == 1024
        for over in (whole + [["a0"]], [["nowhere"]] * (MAX_FRAGMENT + 1)):
            with pytest.raises(ValueError, match="fragment larger than 1024 refused") as exc:
                diagram_from_json({"algebra": {"atoms": atoms}, "fragment": over})
            assert not isinstance(exc.value, InputFormatError)

    def test_repeated_label_is_accepted(self):
        doc = {"algebra": {"atoms": ["a", "b", "c"]}, "fragment": [["c", "a", "c"], ["b"]]}
        d = diagram_from_json(doc)
        assert d.fragment[0] == d.algebra.from_atoms(["a", "c"])
        assert d.fragment[0].bits == 0b101


def _reference_relation(doc):
    """``relation_from_json`` on a well-shaped ``doc`` as a cell-by-cell
    parse: every cell checked and parsed on its own, then the public
    constructor; errors carry the same messages and JSON paths."""
    labels = tuple(doc["set"])
    matrices = []
    for key in ("mu", "nu"):
        matrix = []
        for i, row in enumerate(doc[key]):
            cells = []
            for j, cell in enumerate(row):
                path = f"$.{key}[{i}][{j}]"
                text = _expect_str(cell, path)
                try:
                    cells.append(degree(text))
                except ValueError as exc:
                    raise InputFormatError(str(exc), path) from None
            matrix.append(cells)
        matrices.append(matrix)
    mu, nu = matrices
    try:
        return IFRelation(labels, labels, mu, nu)
    except DegreeSumError as exc:
        i, j = exc.cell
        raise InputFormatError(
            f"mu + nu = {mu[i][j] + nu[i][j]} exceeds 1", f"$.mu[{i}][{j}]"
        ) from None


def _outcome(parse, doc):
    try:
        return parse(doc), None
    except InputFormatError as exc:
        return None, (str(exc), exc.path)


_DENOMINATORS = [1, 2, 3, 4, 5, 8, 10, 12, 1000, 2**31 - 1, 2**61 - 1]


@st.composite
def _degree_texts(draw, upper=Fraction(1)):
    """One of several spellings of a degree in [0, upper]."""
    q = draw(st.sampled_from(_DENOMINATORS))
    f = Fraction(draw(st.integers(0, int(upper * q))), q)
    k = draw(st.integers(1, 3))
    p, q = f.numerator, f.denominator
    big = 2**129 // q + 1  # scaled past the denominator cap, reduced under it
    arabic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
    forms = [str(f), f"{p * k}/{q * k}", f"00{p}/0{q}", f"+{f}", str(f).translate(arabic),
             f"{p * big}/{q * big}"]
    if 10**6 % f.denominator == 0:
        forms += [str(Decimal(f.numerator) / Decimal(f.denominator)),
                  f"{f.numerator * 10**6 // f.denominator}e-6"]
    pad = st.sampled_from(["", " ", "\t", "\n"])
    return draw(pad) + draw(st.sampled_from(forms)) + draw(pad)


@st.composite
def _pairs(draw):
    mu = draw(_degree_texts())
    return mu, draw(_degree_texts(1 - Fraction(mu.strip())))


def _matrix(n, cell):
    return st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _valid_documents(draw):
    """Square documents whose cells repeat a few (mu, nu) spellings."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(_pairs(), min_size=1, max_size=4))
    cells = draw(_matrix(n, st.sampled_from(pool)))
    return {"set": [f"x{i}" for i in range(n)],
            "mu": [[mu for mu, _ in row] for row in cells],
            "nu": [[nu for _, nu in row] for row in cells]}


_BAD_CELLS = [
    1, 0, True, False, None, [], ["1"], {}, 0.5,  # not strings
    LONE, "1/2" + LONE,  # lone surrogates
    "0." + "0" * 120, " " * 100 + "1", "1/" + "0" * 98 + "2",  # over 100 characters
    "1e-101", "1E+101", "1e-" + "\uff11" * 3,  # exponents beyond +-100
    "1/" + str(2**128 + 1), "1/" + str(2**130),  # denominators over 2**128
    "3/2", "-1/4", "2", "1.5",  # outside [0, 1]
    "", "abc", "1/0", "0x1", "0/0", "1/", "/2", "1/2/3", "\u00b2",  # not degrees
]
_SUMMING_CELLS = [
    "0", "1", "1/2", "2/4", "3/4", "0.75", "1/3", "2/3", "1/1000000007",
    "007/010", "00", "+1/2", "\u0661/\u0662", "2/" + str(2**129),
    "1/" + "0" * 97 + "2",  # exactly 100 characters
    "1_0/2_0",  # a degree from Python 3.11 on, malformed before
]


@st.composite
def _mixed_documents(draw):
    """Square documents whose cells repeat a few values, valid and invalid;
    valid pools may still break mu + nu <= 1."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.sampled_from(_BAD_CELLS + _SUMMING_CELLS), min_size=1, max_size=5))
    return {"set": [f"x{i}" for i in range(n)],
            "mu": draw(_matrix(n, st.sampled_from(pool))),
            "nu": draw(_matrix(n, st.sampled_from(pool)))}


class TestAgainstCellByCellParse:
    """Each distinct degree string is parsed once per document; the result
    and the first error are those of parsing every cell on its own."""

    @settings(max_examples=200, deadline=None)
    @given(_valid_documents())
    def test_valid_documents(self, doc):
        r = relation_from_json(doc)
        ref = _reference_relation(doc)
        assert r == ref
        assert (r.den, r.m, r.n) == (ref.den, ref.m, ref.n)
        assert r.mu == ref.mu and r.nu == ref.nu
        assert json.dumps(relation_to_json(r)) == json.dumps(relation_to_json(ref))

    @settings(max_examples=300, deadline=None)
    @given(_mixed_documents())
    def test_first_error_is_the_same(self, doc):
        got, error = _outcome(relation_from_json, doc)
        want, ref_error = _outcome(_reference_relation, doc)
        assert error == ref_error
        assert got == want

    @pytest.mark.parametrize("bad", _BAD_CELLS)
    def test_each_bad_cell_repeated(self, bad):
        doc = {"set": ["x", "y"], "mu": [["1", bad], [bad, "1"]],
               "nu": [["0", bad], ["1", bad]]}
        error = _outcome(relation_from_json, doc)[1]
        assert error is not None and error[1] == "$.mu[0][1]"
        assert error == _outcome(_reference_relation, doc)[1]

    @pytest.mark.parametrize("bad", _BAD_CELLS)
    def test_bad_cell_after_plain_cells(self, bad):
        # mu reads on the plain-ASCII path; nu meets the bad cell last
        doc = {"set": ["x", "y"], "mu": [["1", "1/2"], ["0", "1"]],
               "nu": [["0", "1/4"], ["007/008", bad]]}
        error = _outcome(relation_from_json, doc)[1]
        assert error is not None and error[1] == "$.nu[1][1]"
        assert error == _outcome(_reference_relation, doc)[1]

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(["p", "q", "r", "s", LONE]),
                           st.sampled_from(_BAD_CELLS + _SUMMING_CELLS) | _degree_texts(),
                           min_size=1, max_size=4))
    def test_fuzzy_sets(self, doc):
        got, error = _outcome(fuzzy_set_from_json, doc)
        want, ref_error = _outcome(_reference_fuzzy_set, doc)
        assert error == ref_error
        assert got == want
        if got is not None:
            assert all(type(v) is Fraction for v in got.values)

    def test_fuzzy_set_of_plain_degrees_calls_no_degree(self, monkeypatch):
        import squareop.degrees
        import squareop.jsonio

        calls = []

        def counted(value):
            calls.append(value)
            return degree(value)

        monkeypatch.setattr(squareop.degrees, "degree", counted)
        monkeypatch.setattr(squareop.jsonio, "degree", counted)
        doc = {f"p{i}": f"{i}/7" for i in range(8)}
        s = fuzzy_set_from_json(doc)
        assert calls == []
        assert s == FuzzySet(tuple(doc), tuple(Fraction(i, 7) for i in range(8)))


class TestPlainDegrees:
    """``degrees._plain`` reads a subset of what ``degree`` reads, to the
    same reduced pair, and ``jsonio`` walks cells one by one only to name
    an error."""

    @settings(max_examples=500, deadline=None)
    @given(_degree_texts()
           | st.sampled_from([c for c in _BAD_CELLS + _SUMMING_CELLS if isinstance(c, str)])
           | st.from_regex(r"\A[0-9]{0,50}(/[0-9]{0,60})?\Z"))
    def test_plain_agrees_with_degree(self, text):
        pair = _plain(text)
        try:
            d = degree(text)
        except ValueError:
            assert pair is None
        else:
            assert pair in (None, (d.numerator, d.denominator))

    def test_plain_spellings(self):
        assert [_plain(t) for t in ("0", "1", "007/010", "2/4", "0/5")] == [
            (0, 1), (1, 1), (7, 10), (1, 2), (0, 1)]
        assert [_plain(t) for t in ("0.25", " 1/4", "+1/2", "1/0", "3/2")] == [None] * 5

    def test_valid_matrix_makes_no_cell_by_cell_walk(self, monkeypatch):
        calls = []
        walk = jsonio._degree
        monkeypatch.setattr(jsonio, "_degree", lambda *args: calls.append(args) or walk(*args))
        doc = {"set": ["x", "y"], "mu": [["1/2", "0.25"], [" 1/4", "1"]],
               "nu": [["1/2", "0.75"], ["3/4", "0"]]}
        r = relation_from_json(doc)
        assert calls == []
        assert r == _reference_relation(doc) and r.den == 4


def _reference_fuzzy_set(doc):
    """``fuzzy_set_from_json`` on a non-empty ``doc`` as a point-by-point
    parse and the public constructor, with the same messages and paths."""
    domain, values = [], []
    for label, value in doc.items():
        domain.append(_expect_str(label, "$"))
        path = f"$.{label}"
        text = _expect_str(value, path)
        try:
            values.append(degree(text))
        except ValueError as exc:
            raise InputFormatError(str(exc), path) from None
    return FuzzySet(tuple(domain), tuple(values))


def _relation(cells):
    """A 2-element relation whose mu cells are ``cells`` and whose nu cells are 0."""
    return {"set": ["x", "y"], "mu": [cells[:2], cells[2:]], "nu": [["0", "0"], ["0", "0"]]}


class TestCommonDenominatorBound:
    """A relation's distinct int cells are bounded by MAX_DENOMINATOR_BITS
    before any is built, read from JSON or built by the public constructor;
    the limit itself is tested in test_cli.py."""

    CELLS = ["1/3", "1/5", "1/7", "1/11"]  # den 1155, 11 bits, 5 distinct with "0"
    DOC = _relation(CELLS)

    @staticmethod
    def _api(cells):
        mu = [[Fraction(c) for c in cells[:2]], [Fraction(c) for c in cells[2:]]]
        return IFRelation(("x", "y"), ("x", "y"), mu, [[0, 0], [0, 0]])

    def test_at_the_bound_is_read(self, monkeypatch):
        monkeypatch.setattr(ifrel, "MAX_DENOMINATOR_BITS", 11 * 5)
        assert relation_from_json(self.DOC).den == 1155

    def test_past_the_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(ifrel, "MAX_DENOMINATOR_BITS", 11 * 5 - 1)
        with pytest.raises(ValueError, match="common denominator refused") as info:
            relation_from_json(self.DOC)
        assert not isinstance(info.value, InputFormatError)

    def test_api_at_the_bound_is_built(self, monkeypatch):
        monkeypatch.setattr(ifrel, "MAX_DENOMINATOR_BITS", 11 * 5)
        assert self._api(self.CELLS) == relation_from_json(self.DOC)

    def test_api_past_the_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(ifrel, "MAX_DENOMINATOR_BITS", 11 * 5 - 1)
        with pytest.raises(ValueError, match="common denominator refused") as info:
            self._api(self.CELLS)
        assert not isinstance(info.value, DegreeSumError)

    @pytest.mark.parametrize("doc, path", [
        (_relation(["1/3", "1/5", "1/7", "3/2"]), "$.mu[1][1]"),
        (_relation(["1/3", "1/5", "1/7", 1]), "$.mu[1][1]"),
        (dict(_relation(["1/3", "1/5", "1/7", "1/11"]), set=["x", "x"]), "$.set"),
    ], ids=["out-of-range", "not-a-string", "duplicate-label"])
    def test_malformed_input_is_named_first(self, monkeypatch, doc, path):
        monkeypatch.setattr(ifrel, "MAX_DENOMINATOR_BITS", 1)
        with pytest.raises(InputFormatError) as info:
            relation_from_json(doc)
        assert info.value.path == path


def _discrete(labels):
    """The discrete order on ``labels`` as degree-string matrices (mu, nu)."""
    n = len(labels)
    return ([["1" if i == j else "0" for j in range(n)] for i in range(n)],
            [["0" if i == j else "1" for j in range(n)] for i in range(n)])


def _relation_doc(key, labels):
    mu, nu = _discrete(labels)
    return {key: list(labels), "mu": mu, "nu": nu}


# label set -> (its constructor on the labels, its JSON document, the field
# the CLI names, the role in the messages)
_LABEL_SETS = {
    "atoms": (BooleanAlgebra, lambda ls: {"atoms": ls}, "$.atoms", "atom"),
    "relation-set": (lambda ls: IFRelation(ls, ls, *_discrete(ls)),
                     lambda ls: _relation_doc("set", ls), "$.set", "source"),
    "fuzzy-lattice-carrier": (
        lambda ls: IFLattice(IFRelation(ls, ls, *_discrete(ls))),
        lambda ls: {"lattice": _relation_doc("carrier", ls), "fragment": ls[:1]},
        "$.lattice.carrier", "source"),
    "fuzzy-set-points": (lambda ls: FuzzySet(ls, ["1/2"] * len(ls)),
                         lambda ls: {x: "1/2" for x in ls}, "$", "point"),
}
_FAULTS = {
    "empty": ([], "{role} set must not be empty"),
    "repeated": (["x", "x"], "{role} labels must be distinct"),
    "blank": (["x", ""], "{role} labels must be non-empty strings"),
}


class TestLabelRule:
    """One rule, one wording, for every finite set of names: through the API
    a ValueError, through the CLI exit 2 naming the field."""

    @pytest.mark.parametrize("fault", _FAULTS)
    @pytest.mark.parametrize("kind", _LABEL_SETS)
    def test_refused_alike(self, tmp_path, capsys, kind, fault):
        build, document, path, role = _LABEL_SETS[kind]
        labels, message = _FAULTS[fault]
        message = message.format(role=role)
        if (kind, fault) == ("atoms", "empty"):  # the atom count is checked first
            message = "atom count must be between 1 and 16, got 0"
        with pytest.raises(ValueError) as info:
            build(labels)
        assert str(info.value) == message
        if (kind, fault) == ("fuzzy-set-points", "repeated"):
            return  # API only: a JSON object keeps the last of a repeated key
        file = tmp_path / "in.json"
        file.write_text(json.dumps(document(labels)))
        assert cli.main(["validate", str(file)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
