import json
import random
from fractions import Fraction

import pytest

from squareop.algebra import BooleanAlgebra
from squareop.diagram import canonical_square
from squareop.fuzzydiagram import embed_diagram
from squareop.iflattice import powerset_lattice
from squareop.ifrel import identity_relation
from squareop.jsonio import (
    InputFormatError,
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
from squareop.degrees import FuzzySet
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

    def test_parsed_relation_keeps_parsed_degrees(self):
        payload = {"set": ["x", "y"], "mu": [["1", "2/4"], ["0", "1"]],
                   "nu": [["0", "0.25"], ["1", "0"]]}
        r = relation_from_json(payload)
        assert r.den == 4 and r.m == ((4, 2), (0, 4)) and r.n == ((0, 1), (4, 0))
        assert r.mu[0][1] == Fraction(1, 2) and r.nu[0][1] == Fraction(1, 4)

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

    def test_repeated_label_is_accepted(self):
        doc = {"algebra": {"atoms": ["a", "b", "c"]}, "fragment": [["c", "a", "c"], ["b"]]}
        d = diagram_from_json(doc)
        assert d.fragment[0] == d.algebra.from_atoms(["a", "c"])
        assert d.fragment[0].bits == 0b101
