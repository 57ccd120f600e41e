import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import squareop
from squareop.algebra import BooleanAlgebra
from squareop import cli
from squareop.cli import ISO_LISTING_CAP, MAX_TRIPLES, main
from squareop.diagram import Diagram, canonical_square
from squareop.dot import diagram_to_dot, fuzzy_diagram_to_dot
from squareop.fuzzydiagram import FuzzyAristotelianDiagram, embed_diagram
from squareop.iflattice import IFLattice, powerset_lattice
from squareop.ifrel import MAX_DENOMINATOR_BITS, IFRelation
from squareop.jsonio import (
    MAX_POINTS,
    MAX_RELATION,
    diagram_to_json,
    fuzzy_diagram_to_json,
    lattice_to_json,
    relation_from_json,
)

# exact stdout for the canonical square and its fuzzy embedding
SQUARE_DOT = """\
digraph aristotelian {
  rankdir=TB;
  node [shape=box];
  n0 [label="Every S is P"];
  n1 [label="No S is P"];
  n2 [label="Some S is P"];
  n3 [label="Some S is not P"];
  n0 -> n1 [style=solid, dir=none, label="C"];
  n0 -> n2 [style=solid, label="LI"];
  n0 -> n3 [style=dashed, dir=none, label="CD"];
  n1 -> n2 [style=dashed, dir=none, label="CD"];
  n1 -> n3 [style=solid, label="LI"];
  n2 -> n3 [style=dotted, dir=none, label="SC"];
}
"""

FUZZY_SQUARE_DOT = """\
digraph aristotelian {
  rankdir=TB;
  node [shape=box];
  n0 [label="Every S is P"];
  n1 [label="No S is P"];
  n2 [label="Some S is P"];
  n3 [label="Some S is not P"];
  n0 -> n1 [style=solid, dir=none, label="C (1,0)"];
  n0 -> n2 [style=solid, label="LI (1,0)"];
  n0 -> n3 [style=dashed, dir=none, label="CD (1,0)"];
  n1 -> n2 [style=dashed, dir=none, label="CD (1,0)"];
  n1 -> n3 [style=solid, label="LI (1,0)"];
  n2 -> n3 [style=dotted, dir=none, label="SC (1,0)"];
}
"""

FUZZY_SQUARE_TABLE = """\
tolerance: 1/100
                 Every S is P     No S is P        Some S is P      Some S is not P
Every S is P     BI(1,0)          C(1,0)           LI(1,0)          CD(1,0)
No S is P        C(1,0)           BI(1,0)          CD(1,0)          LI(1,0)
Some S is P      RI(1,0)          CD(1,0)          BI(1,0)          SC(1,0)
Some S is not P  CD(1,0)          RI(1,0)          SC(1,0)          BI(1,0)
fuzzy bi-implication within tolerance: none
"""


SQUARE_DOC = diagram_to_json(canonical_square())
FUZZY_SQUARE_DOC = fuzzy_diagram_to_json(embed_diagram(canonical_square()))
_RAGGED_LATTICE = dict(FUZZY_SQUARE_DOC["lattice"], mu=[
    row[:-1] if i == 1 else row for i, row in enumerate(FUZZY_SQUARE_DOC["lattice"]["mu"])])

# (id, argv, document, stderr): every malformed document exits 2 with no
# stdout and one line naming its field; crisp and fuzzy diagrams side by
# side.  "IN" is the document, "SQ" the canonical square.
MALFORMED = [
    ("crisp-empty-fragment", ["classify", "IN"], dict(SQUARE_DOC, fragment=[], labels=[]),
     "$.fragment: fragment must not be empty"),
    ("fuzzy-empty-fragment", ["fuzzy-classify", "IN"],
     dict(FUZZY_SQUARE_DOC, fragment=[], labels=[]), "$.fragment: fragment must not be empty"),
    ("crisp-duplicate-fragment", ["classify", "IN"],
     dict(SQUARE_DOC, fragment=[["all"], ["all"]], labels=["A", "B"]),
     "$.fragment: fragment elements must be distinct"),
    ("fuzzy-duplicate-fragment", ["fuzzy-classify", "IN"],
     dict(FUZZY_SQUARE_DOC, fragment=["{all}", "{all}"], labels=["A", "B"]),
     "$.fragment: fragment elements must be distinct"),
    ("crisp-misaligned-labels", ["classify", "IN"], dict(SQUARE_DOC, labels=["only one"]),
     "$.labels: labels must align with the fragment"),
    ("fuzzy-misaligned-labels", ["fuzzy-classify", "IN"],
     dict(FUZZY_SQUARE_DOC, labels=["only one"]), "$.labels: labels must align with the fragment"),
    ("crisp-foreign-element", ["classify", "IN"], dict(SQUARE_DOC, fragment=[["all"], ["z"]]),
     "$.fragment[1]: unknown atom label 'z'"),
    ("fuzzy-foreign-element", ["fuzzy-classify", "IN"],
     dict(FUZZY_SQUARE_DOC, fragment=["{all}", "{z}"], labels=[]),
     "$.fragment: fragment element '{z}' is not in the carrier"),
    ("relation-empty-set", ["ifrel-check", "IN"], {"set": [], "mu": [], "nu": []},
     "$.set: source set must not be empty"),
    ("fuzzy-empty-carrier", ["fuzzy-classify", "IN"],
     dict(FUZZY_SQUARE_DOC, lattice={"carrier": [], "mu": [], "nu": []}),
     "$.lattice.carrier: source set must not be empty"),
    ("relation-ragged-rows", ["ifrel-check", "IN"],
     {"set": ["x", "y"], "mu": [["1", "0"], ["1"]], "nu": [["0", "1"], ["0", "0"]]},
     "$.mu[1]: expected 2 columns, got 1"),
    ("fuzzy-ragged-rows", ["fuzzy-classify", "IN"], dict(FUZZY_SQUARE_DOC, lattice=_RAGGED_LATTICE),
     "$.lattice.mu[1]: expected 8 columns, got 7"),
    ("algebra-0-atoms", ["validate", "IN"], {"atoms": []},
     "$.atoms: atom count must be between 1 and 16, got 0"),
    ("crisp-0-atoms", ["classify", "IN"], dict(SQUARE_DOC, algebra={"atoms": []}),
     "$.algebra.atoms: atom count must be between 1 and 16, got 0"),
    ("algebra-17-atoms", ["validate", "IN"], {"atoms": list("abcdefghijklmnopq")},
     "$.atoms: atom count must be between 1 and 16, got 17"),
    ("algebra-blank-atom", ["validate", "IN"], {"atoms": ["a", ""]},
     "$.atoms: atom labels must be non-empty strings"),
    ("iso-map-wrong-length", ["iso", "SQ", "SQ", "--map", "0,1,2"], None,
     "--map: mapping must list 4 target indices, got 3"),
    ("info-map-wrong-length", ["info", "SQ", "SQ", "--map", "0,1,2"], None,
     "--map: mapping must list 4 target indices, got 3"),
    ("iso-map-not-a-bijection", ["iso", "SQ", "SQ", "--map", "0,0,1,2"], None,
     "--map is not a bijection"),
]


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(diagram_to_json(canonical_square())))
    return str(path)


@pytest.fixture
def identity_relation_file(tmp_path):
    payload = {
        "set": ["x", "y"],
        "mu": [["1", "0"], ["0", "1"]],
        "nu": [["0", "1"], ["1", "0"]],
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCanonicalSquare:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "canonical-square")
        assert code == 0
        assert "Every S is P" in out and "CD" in out and "SC" in out

    def test_json_contains_theses(self, capsys):
        code, out, _ = run(capsys, "canonical-square", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        kinds = payload["relations"]
        # rows/cols are A, E, I, O
        assert kinds[0][3] == "CD" and kinds[1][2] == "CD"
        assert kinds[0][1] == "C" and kinds[2][3] == "SC"
        assert kinds[0][2] == "LI" and kinds[1][3] == "LI"

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "canonical-square", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("{") == out.count("}")
        assert 'label="CD"' in out


class TestClassify:
    def test_singleton_fragment(self, tmp_path, capsys):
        payload = {"algebra": {"atoms": ["a", "b"]}, "fragment": [["a"]]}
        path = tmp_path / "single.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "BI" in out

    def test_json_format_reparses(self, square_file, capsys):
        code, out, _ = run(capsys, "classify", square_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kinds"][0][0] == "BI"


class TestValidate:
    def test_valid_diagram(self, square_file, capsys):
        code, out, _ = run(capsys, "validate", square_file)
        assert code == 0
        assert out.startswith("OK: diagram")

    def test_malformed_json_is_exit_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"atoms": ["a",')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "line" in err

    def test_schema_violation_is_exit_2_with_field(self, tmp_path, capsys):
        payload = {"set": ["x"], "mu": [["2"]], "nu": [["0"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "mu[0][0]" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/file.json")
        assert code == 2

    def test_directory_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", str(tmp_path))
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"x": "\xff\xfe"}')
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "UTF-8" in err

    def test_deeply_nested_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "lattice-check", str(path))
        assert code == 2
        assert "nested" in err

    @pytest.mark.parametrize("tiny", ["1e-5000", "1e-" + "\u0669" * 20])
    def test_tiny_degree_is_exit_2_with_path(self, tmp_path, capsys, tiny):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"x": tiny}, ensure_ascii=False), encoding="utf-8")
        code, out, err = run(capsys, "contradiction", str(path))
        assert code == 2
        assert out == ""
        assert "$.x" in err and "exponent" in err

    def test_valid_relation(self, identity_relation_file, capsys):
        assert run(capsys, "validate", identity_relation_file) == (
            0, "OK: relation (square relation on 2 points)\n", "")

    def test_valid_fuzzy_diagram(self, tmp_path, capsys):
        path = tmp_path / "fuzzy.json"
        path.write_text(json.dumps(FUZZY_SQUARE_DOC))
        assert run(capsys, "validate", str(path)) == (
            0, "OK: fuzzy-diagram (4 fragment elements over a 8-element carrier)\n", "")

    def test_explicit_kind(self, tmp_path, capsys):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"atoms": ["a", "b"]}))
        code, out, _ = run(capsys, "validate", str(path), "--kind", "algebra")
        assert code == 0 and "2 atoms" in out


class TestIsoAndInfo:
    def test_find_isos_on_square(self, square_file, capsys):
        code, out, _ = run(capsys, "iso", square_file, square_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["isomorphisms"] == [[0, 1, 2, 3], [1, 0, 3, 2]]

    def test_square_text_lists_every_map(self, square_file, capsys):
        code, out, _ = run(capsys, "iso", square_file, square_file)
        assert code == 0
        assert out.splitlines()[0] == "isomorphisms found: 2"
        assert len(out.splitlines()) == 3 and "listed" not in out

    @pytest.fixture
    def contrary_ten_file(self, tmp_path):
        atoms = [f"a{i}" for i in range(10)]
        path = tmp_path / "contrary10.json"
        path.write_text(json.dumps({"algebra": {"atoms": atoms}, "fragment": [[a] for a in atoms]}))
        return str(path)

    def test_text_listing_stops_at_the_cap(self, contrary_ten_file, capsys):
        count = math.factorial(10)
        code, out, _ = run(capsys, "iso", contrary_ten_file, contrary_ten_file)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == f"isomorphisms found: {count}"
        assert lines[-1] == f"listed {ISO_LISTING_CAP} of {count}"
        assert len(lines) == ISO_LISTING_CAP + 2
        assert lines[1] == "  " + ", ".join(f"{{a{i}}} -> {{a{i}}}" for i in range(10))

    def test_json_listing_stops_at_the_cap(self, contrary_ten_file, capsys):
        code, out, _ = run(capsys, "iso", contrary_ten_file, contrary_ten_file, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == math.factorial(10)
        assert payload["listed"] == len(payload["isomorphisms"]) == ISO_LISTING_CAP
        assert payload["isomorphisms"][:2] == [list(range(10)), list(range(8)) + [9, 8]]

    def test_check_given_map(self, square_file, capsys):
        code, out, _ = run(capsys, "iso", square_file, square_file, "--map", "1,0,3,2")
        assert code == 0 and "yes" in out
        code, out, _ = run(capsys, "iso", square_file, square_file, "--map", "2,1,0,3")
        assert code == 1 and "no" in out

    def test_no_isos_is_property_failure(self, square_file, tmp_path, capsys):
        single = tmp_path / "single.json"
        single.write_text(
            json.dumps({"algebra": {"atoms": ["a", "b"]}, "fragment": [["a"]]})
        )
        code, out, _ = run(capsys, "iso", square_file, str(single))
        assert code == 1
        assert "0" in out

    def test_infomorphism_identity(self, square_file, capsys):
        code, out, _ = run(
            capsys, "info", square_file, square_file, "--map", "0,1,2,3"
        )
        assert code == 0 and "yes" in out

    def test_infomorphism_failure(self, square_file, capsys):
        # collapsing everything onto A maps CD pairs to BI
        code, out, _ = run(
            capsys, "info", square_file, square_file, "--map", "0,0,0,0"
        )
        assert code == 1 and "no" in out

    def test_bad_map_syntax(self, square_file, capsys):
        code, _, err = run(capsys, "info", square_file, square_file, "--map", "a,b")
        assert code == 2


class TestIfrelCheck:
    def test_identity_relation_report(self, identity_relation_file, capsys, monkeypatch):
        monkeypatch.setenv("SQUAREOP_ASCII", "1")
        code, out, _ = run(capsys, "ifrel-check", identity_relation_file)
        assert code == 0
        for name in ("reflexive", "perfectly antisymmetric", "transitive", "partial order"):
            assert name in out
        assert "no" not in out.replace("nonmembership", "")

    def test_non_order_fails_with_exit_1(self, tmp_path, capsys):
        payload = {
            "set": ["x", "y"],
            "mu": [["1", "1/2"], ["1/2", "1"]],
            "nu": [["0", "1/2"], ["1/2", "0"]],
        }
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "ifrel-check", str(path), "--format", "json")
        assert code == 1
        payload_out = json.loads(out)
        assert payload_out["reflexive"] and not payload_out["perfectly_antisymmetric"]


class TestLatticeCheck:
    def test_powerset_certifies(self, tmp_path, capsys):
        from squareop.algebra import BooleanAlgebra
        from squareop.iflattice import powerset_lattice
        from squareop.jsonio import lattice_to_json

        path = tmp_path / "lat.json"
        path.write_text(json.dumps(lattice_to_json(powerset_lattice(BooleanAlgebra.of(2)))))
        code, out, _ = run(capsys, "lattice-check", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["if_boolean_algebra"] is True
        assert payload["de_morgan"] == "holds"

    def test_chain_fails_complementation(self, tmp_path, capsys):
        payload = {
            "carrier": ["a", "b", "c"],
            "mu": [["1", "1", "1"], ["0", "1", "1"], ["0", "0", "1"]],
            "nu": [["0", "0", "0"], ["1", "0", "0"], ["1", "1", "0"]],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "lattice-check", str(path), "--format", "json")
        assert code == 1
        payload_out = json.loads(out)
        assert payload_out["lattice"] is True
        assert payload_out["complemented"] is False


class TestContradiction:
    def test_pairwise(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"x": "1", "y": "0"}))
        b.write_text(json.dumps({"x": "0", "y": "1"}))
        code, out, _ = run(capsys, "contradiction", str(a), str(b))
        assert code == 0
        assert "scalar (min): 1" in out

    def test_self_contradiction_single_file(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"x": "1/2"}))
        code, out, _ = run(capsys, "contradiction", str(a), "--format", "json")
        assert code == 0
        assert json.loads(out)["scalar"] == "1/2"

    def test_domain_mismatch_is_property_failure(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"x": "1"}))
        b.write_text(json.dumps({"y": "1"}))
        code, _, err = run(capsys, "contradiction", str(a), str(b))
        assert code == 1

    def test_lukasiewicz_choice(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"x": "1/2"}))
        code, out, _ = run(
            capsys, "contradiction", str(a), "--implication", "lukasiewicz",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["scalar"] == "1"


class TestFuzzyClassify:
    @pytest.fixture
    def fuzzy_square_file(self, tmp_path):
        path = tmp_path / "fuzzy.json"
        path.write_text(json.dumps(fuzzy_diagram_to_json(embed_diagram(canonical_square()))))
        return str(path)

    def test_table_with_annotations(self, fuzzy_square_file, capsys):
        code, out, _ = run(capsys, "fuzzy-classify", fuzzy_square_file)
        assert code == 0
        assert "CD(1,0)" in out
        assert "tolerance: 1/100" in out

    def test_tolerance_override(self, fuzzy_square_file, capsys):
        code, out, _ = run(
            capsys, "fuzzy-classify", fuzzy_square_file, "--tolerance", "1/5",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == "1/5"

    @pytest.mark.parametrize("doc", [FUZZY_SQUARE_DOC, []], ids=["square", "list"])
    def test_bad_tolerance_flag_is_named_first(self, tmp_path, capsys, doc):
        path = tmp_path / "fuzzy.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "fuzzy-classify", str(path), "--tolerance", "abc") == (
            2, "", "error: --tolerance: cannot parse degree 'abc': "
                   "Invalid literal for Fraction: 'abc'\n")

    def test_flag_does_not_excuse_a_bad_file_tolerance(self, tmp_path, capsys):
        path = tmp_path / "fuzzy.json"
        path.write_text(json.dumps(dict(FUZZY_SQUARE_DOC, tolerance="2")))
        assert run(capsys, "fuzzy-classify", str(path), "--tolerance", "1/5") == (
            2, "", "error: $.tolerance: degree 2 outside [0, 1]\n")

    @pytest.mark.parametrize("flag", [[], ["--tolerance", "1/5"]], ids=["no-flag", "flag"])
    def test_non_object_file_gets_the_readers_error(self, tmp_path, capsys, flag):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert run(capsys, "fuzzy-classify", str(path), *flag) == (
            2, "", "error: $: expected an object, got list\n")

    def test_non_boolean_lattice_is_exit_1(self, tmp_path, capsys):
        payload = {
            "lattice": {
                "set": ["x", "y"],
                "mu": [["1", "0"], ["0", "1"]],
                "nu": [["0", "1"], ["1", "0"]],
            },
            "fragment": ["x", "y"],
        }
        path = tmp_path / "anti.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "fuzzy-classify", str(path))
        assert code == 1


class TestCategoryCheck:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "category-check", "--seed", "3", "--triples", "6")
        code2, out2, _ = run(capsys, "category-check", "--seed", "3", "--triples", "6")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("count", ["0", "-3", "many"])
    def test_non_positive_triples_rejected(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["category-check", "--triples", count])
        assert exc.value.code == 2
        assert "--triples" in capsys.readouterr().err

    def test_different_seeds_may_differ(self, capsys):
        _, out1, _ = run(
            capsys, "category-check", "--seed", "1", "--triples", "4", "--format", "json"
        )
        payload = json.loads(out1)
        assert payload["all_pass"] is True


class TestDot:
    def test_diagram_dot_stable_across_runs(self, square_file, capsys):
        code1, out1, _ = run(capsys, "dot", square_file)
        code2, out2, _ = run(capsys, "dot", square_file)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("digraph")
        assert out1.rstrip().endswith("}")

    def test_fuzzy_diagram_dot(self, tmp_path, capsys):
        path = tmp_path / "fuzzy.json"
        path.write_text(json.dumps(fuzzy_diagram_to_json(embed_diagram(canonical_square()))))
        code, out, _ = run(capsys, "dot", str(path))
        assert code == 0
        assert "CD (1,0)" in out


class _CountingWriter:
    """Stands in for stdout and keeps every ``write`` call's text."""

    def __init__(self, stream):
        self.stream, self.writes = stream, []

    def write(self, text):
        self.writes.append(text)
        return self.stream.write(text)

    def flush(self):
        self.stream.flush()


def run_once(capsys, *argv):
    """``run``, asserting that stdout was written in exactly one call."""
    real = sys.stdout
    sys.stdout = counter = _CountingWriter(real)
    try:
        result = run(capsys, *argv)
    finally:
        sys.stdout = real
    assert len(counter.writes) == 1
    return result


GOLDEN = Path(__file__).parent / "golden"

# (file under tests/golden/, argv with the input names of ``golden_inputs``,
# exit code): each subcommand in each of its formats
GOLDEN_CASES = [
    ("validate", ["validate", "SQUARE"], 0),
    ("classify", ["classify", "SQUARE"], 0),
    ("classify-json", ["classify", "SQUARE", "--format", "json"], 0),
    ("canonical-square", ["canonical-square"], 0),
    ("canonical-square-json", ["canonical-square", "--format", "json"], 0),
    ("canonical-square-dot", ["canonical-square", "--format", "dot"], 0),
    ("iso", ["iso", "SQUARE", "SQUARE"], 0),
    ("iso-json", ["iso", "SQUARE", "SQUARE", "--format", "json"], 0),
    ("iso-none", ["iso", "SQUARE", "SINGLE"], 1),
    ("iso-map", ["iso", "SQUARE", "SQUARE", "--map", "1,0,3,2"], 0),
    ("iso-map-json", ["iso", "SQUARE", "SQUARE", "--map", "2,1,0,3", "--format", "json"], 1),
    ("info", ["info", "SQUARE", "SQUARE", "--map", "0,0,0,0"], 1),
    ("info-json", ["info", "SQUARE", "SQUARE", "--map", "0,1,2,3", "--format", "json"], 0),
    ("ifrel-check", ["ifrel-check", "IDENTITY"], 0),
    ("ifrel-check-json", ["ifrel-check", "IDENTITY", "--format", "json"], 0),
    ("lattice-check", ["lattice-check", "IDENTITY"], 1),
    ("lattice-check-json", ["lattice-check", "IDENTITY", "--format", "json"], 1),
    ("contradiction", ["contradiction", "A", "B"], 0),
    ("contradiction-json", ["contradiction", "A", "B", "--format", "json"], 0),
    ("fuzzy-classify-json", ["fuzzy-classify", "FUZZY", "--format", "json"], 0),
    ("category-check", ["category-check", "--seed", "3", "--triples", "6"], 0),
    ("category-check-json",
     ["category-check", "--seed", "3", "--triples", "6", "--format", "json"], 0),
    ("category-check-100-json",
     ["category-check", "--seed", "3", "--triples", "100", "--format", "json"], 0),
]


class TestGoldenOutput:
    @pytest.fixture
    def fuzzy_square_file(self, tmp_path):
        path = tmp_path / "fuzzy.json"
        path.write_text(json.dumps(fuzzy_diagram_to_json(embed_diagram(canonical_square()))))
        return str(path)

    @pytest.fixture
    def golden_inputs(self, tmp_path, square_file, fuzzy_square_file, identity_relation_file):
        files = {"SQUARE": square_file, "FUZZY": fuzzy_square_file,
                 "IDENTITY": identity_relation_file}
        for name, payload in [
            ("SINGLE", {"algebra": {"atoms": ["a", "b"]}, "fragment": [["a"]]}),
            ("A", {"x": "1/2", "y": "1/3", "z": "1"}),
            ("B", {"x": "1/4", "y": "1", "z": "0"}),
        ]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            files[name] = str(path)
        return files

    @pytest.mark.parametrize("argv", [("dot",), ("classify", "--format", "dot")])
    def test_square_dot(self, square_file, capsys, argv):
        assert run_once(capsys, argv[0], square_file, *argv[1:]) == (0, SQUARE_DOT, "")

    def test_fuzzy_square_dot(self, fuzzy_square_file, capsys):
        assert run_once(capsys, "dot", fuzzy_square_file) == (0, FUZZY_SQUARE_DOT, "")

    def test_fuzzy_square_table(self, fuzzy_square_file, capsys):
        assert run_once(capsys, "fuzzy-classify", fuzzy_square_file) == (
            0, FUZZY_SQUARE_TABLE, "")

    @pytest.mark.parametrize("name, argv, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_every_command_and_format(self, golden_inputs, capsys, monkeypatch, name, argv, code):
        monkeypatch.delenv("SQUAREOP_ASCII", raising=False)
        expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        argv = [golden_inputs.get(a, a) for a in argv]
        assert run_once(capsys, *argv) == (code, expected, "")

    def test_right_implication_draws_reversed_arrow(self):
        b2 = BooleanAlgebra.of(2)
        d = Diagram(b2, (b2.top, b2.from_atoms(["a"])), ("top", "a"))
        assert diagram_to_dot(d) == (
            'digraph aristotelian {\n  rankdir=TB;\n  node [shape=box];\n'
            '  n0 [label="top"];\n  n1 [label="a"];\n'
            '  n1 -> n0 [style=solid, label="LI"];\n}\n'
        )
        labels = ("{}", "{a}")
        order = IFRelation(
            labels, labels,
            ((F(1), F(1, 2)), (F(0), F(1))),
            ((F(0), F(1, 3)), (F(1), F(0))),
        )
        fd = FuzzyAristotelianDiagram(IFLattice(order), ("{a}", "{}"))
        assert fuzzy_diagram_to_dot(fd) == (
            'digraph aristotelian {\n  rankdir=TB;\n  node [shape=box];\n'
            '  n0 [label="{a}"];\n  n1 [label="{}"];\n'
            '  n1 -> n0 [style=solid, label="LI (1/2,1/3)"];\n}\n'
        )


class TestArgumentHandling:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["canonical-square", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def _discrete_relation(labels):
    """The equality order on ``labels`` as a relation document."""
    n = len(labels)
    return {
        "set": list(labels),
        "mu": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
        "nu": [["0" if i == j else "1" for j in range(n)] for i in range(n)],
    }


def _dense_relation(n):
    """(1, 0) on the diagonal and (1/2, 1/4) elsewhere: transitive, not antisymmetric."""
    return {
        "set": [f"e{i}" for i in range(n)],
        "mu": [["1" if i == j else "1/2" for j in range(n)] for i in range(n)],
        "nu": [["0" if i == j else "1/4" for j in range(n)] for i in range(n)],
    }


def _one_over_random_q(n, k):
    """An n-element relation whose first k cells, mu then nu in row order,
    hold 1/q for seeded-random q in [2**127, 2**128], and the rest 0."""
    rng = random.Random(7)
    cells = [f"1/{rng.randint(2**127, 2**128)}" for _ in range(k)] + ["0"] * (2 * n * n - k)
    rows = [cells[i:i + n] for i in range(0, 2 * n * n, n)]
    return {"set": [f"e{i}" for i in range(n)], "mu": rows[:n], "nu": rows[n:]}


# 40 elements, each of the 3 200 cells over its own 128-bit denominator: the
# common denominator times the distinct degrees passes MAX_DENOMINATOR_BITS
OVER_DENOMINATOR_LIMIT = _one_over_random_q(40, 3200)


ELEVEN_FRAGMENT = {
    "algebra": {"atoms": ["a", "b", "c", "d"]},
    "fragment": [["a"], ["b"], ["c"], ["d"], ["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"],
                 ["b", "d"], ["c", "d"], ["a", "b", "c"]],
}


OVER_FRAGMENT_LIMIT = {  # one element over the kind-table limit, all of them duplicates
    "algebra": {"atoms": ["a"]},
    "fragment": [["a"]] * 1025,
}

OVER_RELATION_LIMIT = _discrete_relation([f"e{i}" for i in range(MAX_RELATION + 1)])
OVER_POINT_LIMIT = {f"p{i}": "1/2" for i in range(MAX_POINTS + 1)}
# 200 elements, one labelled with 2 000 characters: the text table pads every
# cell to that width, about 81 million characters in all
WIDE_LABEL = {
    "algebra": {"atoms": list("abcdefgh")},
    "fragment": [[a for i, a in enumerate("abcdefgh") if bits >> i & 1] for bits in range(200)],
    "labels": ["x" * 2000] + [f"e{i}" for i in range(1, 200)],
}


class TestErrorsBecomeExitCodes:
    @pytest.mark.parametrize(
        "argv, payload, code, message",
        [
            (["iso", "IN", "IN"], ELEVEN_FRAGMENT, 1, "fragments larger than 10 are refused"),
            *((argv, OVER_FRAGMENT_LIMIT, 1, "fragment larger than 1024 refused")
              for argv in (["classify", "IN"], ["classify", "IN", "--format", "json"],
                           ["validate", "IN"], ["dot", "IN"], ["iso", "IN", "IN"],
                           ["info", "IN", "IN", "--map", "0"])),
            (["iso", "IN", "IN", "--map", "0,1,2,-1"], None, 2, "--map: "),
            (["info", "IN", "IN", "--map", "0,1,2,9"], None, 2, "--map: "),
            (["ifrel-check", "IN"], _discrete_relation(["x", "x"]), 2, "$.set"),
            (["lattice-check", "IN"], _discrete_relation(["x", "x"]), 2, "$.set"),
            (["ifrel-check", "IN"], _discrete_relation(["x", ""]), 2, "$.set"),
            (["lattice-check", "IN"], _discrete_relation([f"e{i}" for i in range(17)]), 1,
             "carrier larger than 16 refused"),
            # not antisymmetric: refused for its size before any order check
            (["lattice-check", "IN"], _dense_relation(17), 1, "carrier larger than 16 refused"),
            *((argv, OVER_RELATION_LIMIT, 1, f"relation larger than {MAX_RELATION} refused")
              for argv in (["ifrel-check", "IN"], ["lattice-check", "IN"], ["validate", "IN"])),
            (["fuzzy-classify", "IN"], {"lattice": OVER_RELATION_LIMIT, "fragment": ["e0"]}, 1,
             f"relation larger than {MAX_RELATION} refused"),
            (["contradiction", "IN"], OVER_POINT_LIMIT, 1,
             f"fuzzy set larger than {MAX_POINTS} points refused"),
            (["validate", "IN"], OVER_POINT_LIMIT, 1, f"larger than {MAX_POINTS} points refused"),
            *((argv, OVER_DENOMINATOR_LIMIT, 1, "common denominator refused")
              for argv in (["ifrel-check", "IN"], ["lattice-check", "IN"], ["validate", "IN"])),
            (["category-check", "--triples", str(MAX_TRIPLES + 1)], None, 1,
             f"more than {MAX_TRIPLES} triples refused"),
            (["classify", "IN"], WIDE_LABEL, 1, "characters refused: use --format json"),
        ],
        ids=["iso-11", "classify-1025", "classify-1025-json", "validate-1025", "dot-1025",
             "iso-1025", "info-1025", "iso-map", "info-map", "ifrel-dup", "lattice-dup",
             "ifrel-blank", "lattice-17", "lattice-17-non-order", "ifrel-201", "lattice-201",
             "validate-201", "fuzzy-classify-201", "contradiction-65537", "validate-65537",
             "ifrel-denominator", "lattice-denominator", "validate-denominator",
             "category-check-251", "classify-wide-label"],
    )
    def test_refusal_without_traceback(self, tmp_path, square_file, capsys, argv, payload,
                                       code, message):
        path = square_file
        if payload is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(payload))
        got, out, err = run(capsys, *(str(path) if a == "IN" else a for a in argv))
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (["validate"], '{"x": "1/2", "x": "1"}', "x"),
            (["ifrel-check"], '{"set": ["x"], "mu": [["0"]], "mu": [["1"]], "nu": [["0"]]}', "mu"),
            (["validate"], '{"algebra": {"atoms": ["a"], "atoms": ["a", "b"]}, "fragment": [["a"]]}',
             "atoms"),
        ],
        ids=["fuzzy-set-point", "relation-mu", "nested-atoms"],
    )
    def test_repeated_key_is_refused(self, tmp_path, capsys, argv, text, key):
        """``json`` keeps the last of a repeated key; the CLI refuses the file."""
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert run(capsys, *argv, str(path)) == (
            2, "", f'error: {path}: repeated key "{key}" in a JSON object\n'
        )

    @pytest.mark.parametrize("argv, text", [
        (["validate"], '{"atoms": ["a"], "n": 9%s}'),
        (["contradiction"], '{"x": "1/2", "y": -9%s}'),
    ], ids=["validate", "fuzzy-set"])
    def test_long_integer_literal_is_exit_2(self, tmp_path, capsys, argv, text):
        """No schema reads a JSON number.  One of more than 4 300 digits is
        refused before ``int`` converts it: Python 3.11+ limits the digits
        of that conversion, and on 3.10 it takes quadratic time."""
        path = tmp_path / "long.json"
        path.write_text(text % ("9" * 4300))
        assert run(capsys, *argv, str(path)) == (
            2, "", f"error: {path}: integer literal of more than 4300 digits refused\n"
        )

    def test_integer_literal_at_the_digit_limit_is_read(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"atoms": ["a"], "ignored": -%s}' % ("9" * 4300))
        assert run(capsys, "validate", str(path)) == (0, "OK: algebra (1 atoms)\n", "")

    def test_relation_at_the_set_limit_is_read(self, tmp_path, capsys):
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps(_discrete_relation([f"e{i}" for i in range(MAX_RELATION)])))
        code, out, _ = run(capsys, "ifrel-check", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["partial_order"] is True

    def test_distinct_denominators_are_refused_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="common denominator refused"):
            relation_from_json(OVER_DENOMINATOR_LIMIT)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("k", [1062, 1063])
    def test_relation_at_the_denominator_limit_is_read(self, tmp_path, capsys, k):
        # 33 elements whose first k mu cells hold distinct 128-bit
        # denominators: with "0", k + 1 distinct degrees; 1 062 is the most
        # that these draws keep within MAX_DENOMINATOR_BITS
        doc = _one_over_random_q(33, k)
        den = math.lcm(*(int(c[2:]) for row in doc["mu"] for c in row if c != "0"))
        assert (den.bit_length() * (k + 1) <= MAX_DENOMINATOR_BITS) == (k == 1062)
        path = tmp_path / "denominators.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "ifrel-check", str(path), "--format", "json")
        assert code == 1
        if k == 1062:
            assert json.loads(out)["partial_order"] is False and err == ""
        else:
            assert out == "" and err.startswith("error: common denominator refused")

    def test_fuzzy_set_at_the_point_limit_is_read(self, tmp_path, capsys):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({f"p{i}": "1/2" for i in range(MAX_POINTS)}))
        assert run(capsys, "validate", str(path)) == (0, f"OK: fuzzy-set ({MAX_POINTS} points)\n", "")

    def test_file_over_the_byte_cap_is_refused_unread(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "big.json"
        with open(path, "wb") as fh:
            fh.truncate(cli.MAX_FILE_BYTES + 1)  # sparse: no block is written

        class Unread:
            # the opened file, whose bytes may not be read
            def __init__(self, fh):
                self.fh = fh

            def fileno(self):
                return self.fh.fileno()

            def read(self, *args):
                raise AssertionError("an oversized file was read")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(cli, "open", lambda *a, **k: Unread(open(*a, **k)), raising=False)
        assert run(capsys, "validate", str(path)) == (
            1, "", f"error: {path}: file larger than {cli.MAX_FILE_BYTES} bytes refused\n"
        )

    def test_file_at_the_byte_cap_is_read(self, tmp_path, capsys):
        path = tmp_path / "cap.json"
        with open(path, "wb") as fh:
            fh.truncate(cli.MAX_FILE_BYTES)
        assert run(capsys, "validate", str(path)) == (
            2, "", f"error: {path}: line 1, column 1: Expecting value\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_piped_input_is_read_at_most_one_byte_over_the_cap(self):
        # a pipe has no size to check first: a valid document followed by a
        # stream of blanks twice the cap is refused once one byte over the cap
        # is read, and the rest is never read
        proc = subprocess.Popen([sys.executable, "-m", "squareop.cli", "validate", "/dev/stdin"],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_env())
        chunk, sent = b'{"atoms": ["a"]}'.ljust(2**16), 0
        try:
            while sent < 2 * cli.MAX_FILE_BYTES:
                proc.stdin.write(chunk)
                sent += len(chunk)
        except BrokenPipeError:
            pass
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err.decode()) == (
            1, b"", f"error: /dev/stdin: file larger than {cli.MAX_FILE_BYTES} bytes refused\n"
        )
        assert sent < cli.MAX_FILE_BYTES + 2**20  # at most a pipe buffer more
        at_cap = _squareop("validate", "/dev/stdin",
                           input=b'{"atoms": ["a"]}'.ljust(cli.MAX_FILE_BYTES))
        assert (at_cap.returncode, at_cap.stdout, at_cap.stderr) == (
            0, b"OK: algebra (1 atoms)\n", b"")

    @pytest.mark.skipif(not os.path.exists("/dev/fd/0"), reason="no /dev/fd")
    @pytest.mark.parametrize("data", [
        b'{"atoms": ["a"]}',
        b'{\r\n"atoms":\r\n ["a",]\r\n}',
        b'{\r"atoms":\r ["a",]\r}',
        b'{"atoms": ["\xff"]}',
    ], ids=["valid", "crlf-json-error", "cr-json-error", "not-utf8"])
    def test_a_pipe_reads_as_a_file_does(self, tmp_path, capsys, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        try:
            piped = run(capsys, "validate", f"/dev/fd/{r}")
        finally:
            os.close(r)
        code, out, err = run(capsys, "validate", str(path))
        assert piped == (code, out, err.replace(str(path), f"/dev/fd/{r}"))
        try:
            json.loads(path.read_text(encoding="utf-8"))  # text mode: universal newlines
        except json.JSONDecodeError as exc:
            assert err == f"error: {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}\n"
        except UnicodeDecodeError:
            assert err == f"error: {path}: not UTF-8 text\n"
        else:
            assert (code, out) == (0, "OK: algebra (1 atoms)\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_wide_label_table_is_printed_as_json_only(self, tmp_path, capsys, fmt):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(WIDE_LABEL))
        code, out, err = run(capsys, "classify", str(path), "--format", fmt)
        if fmt == "json":
            assert code == 0 and json.loads(out)["labels"][0] == "x" * 2000
        else:
            assert (code, out) == (1, "")
            assert err == (f"error: text table larger than {cli.MAX_TABLE_CHARS} characters "
                           "refused: use --format json\n")

    @pytest.mark.parametrize("command", ["classify", "fuzzy-classify"])
    def test_text_table_limit_is_its_rendered_bound(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """The bound counts a header and n rows, each of the label column, n
        cells padded to the widest label and a newline: the square's table is
        printed at the bound and refused one character below it."""
        square = canonical_square()
        doc = diagram_to_json(square)
        if command == "fuzzy-classify":
            doc = fuzzy_diagram_to_json(embed_diagram(square))
        path = tmp_path / "square.json"
        path.write_text(json.dumps(doc))
        _, table, _ = run(capsys, command, str(path))
        width, n = len("Some S is not P"), 4  # every cell is narrower than the widest label
        bound = (n + 1) * (width + 1 + n * (width + 2))
        monkeypatch.setattr(cli, "MAX_TABLE_CHARS", bound)
        assert run(capsys, command, str(path)) == (0, table, "")
        monkeypatch.setattr(cli, "MAX_TABLE_CHARS", bound - 1)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "") and err.endswith("refused: use --format json\n")

    def test_duplicate_relation_labels_fail_validation(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(_discrete_relation(["x", "x"])))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert err == "error: $.set: source labels must be distinct\n"

    @pytest.mark.parametrize("command", ["fuzzy-classify", "dot", "validate"])
    @pytest.mark.parametrize(
        "change, path",
        [
            ({"fragment": [], "labels": []}, "$.fragment"),
            ({"fragment": ["{}", "{}"], "labels": ["A", "B"]}, "$.fragment"),
            ({"labels": ["only one"]}, "$.labels"),
        ],
        ids=["empty", "duplicate", "misaligned-labels"],
    )
    def test_fuzzy_schema_errors_are_exit_2(self, tmp_path, capsys, command, change, path):
        doc = dict(fuzzy_diagram_to_json(embed_diagram(canonical_square())), **change)
        file = tmp_path / "fuzzy.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(file))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("argv, doc, message", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_document_exits_2_naming_its_field(self, tmp_path, square_file, capsys,
                                                        argv, doc, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "IN" else square_file if a == "SQ" else a for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def _env(encoding="utf-8"):
    """The environment of a fresh interpreter on the ``squareop`` under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(squareop.__file__).resolve().parents[1]),
               PYTHONIOENCODING=encoding)
    env.pop("SQUAREOP_ASCII", None)
    return env


def _python(*args, encoding="utf-8", stdout=subprocess.PIPE, **kwargs):
    """Run a fresh interpreter on the ``squareop`` under test."""
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=_env(encoding), timeout=60, **kwargs)


def _squareop(*argv, **kwargs):
    """Run ``python -m squareop.cli`` as a real process: only one writes
    stdout through a real encoder and a real pipe."""
    return _python("-m", "squareop.cli", *argv, **kwargs)


FUZZY_LAYERS = ("ifrel", "iflattice", "fuzzydiagram", "sampling")
# standard modules that take 8-15 ms to import; the library's records are
# plain classes, so no subcommand needs them
SLOW_IMPORTS = ("dataclasses", "inspect")


def _modules_loaded(*argv) -> set[str]:
    """The modules a fresh interpreter holds after ``cli.main(argv)``."""
    proc = _python("-c", "import sys; from squareop.cli import main; code = main(sys.argv[1:]); "
                   "print(*sys.modules, file=sys.stderr); sys.exit(code)", *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.decode().split())


def _table200(tmp_path) -> Path:
    """A diagram of 200 seeded-random elements on 16 atoms, as CI builds it."""
    rng = random.Random(7)
    names = [chr(ord("a") + i) for i in range(16)]
    fragment = [[a for i, a in enumerate(names) if bits >> i & 1]
                for bits in rng.sample(range(1 << 16), 200)]
    path = tmp_path / "table200.json"
    path.write_text(json.dumps({"algebra": {"atoms": names}, "fragment": fragment}))
    return path


def _layers_loaded(*argv) -> set[str]:
    """The ``squareop`` modules a fresh interpreter holds after ``cli.main(argv)``."""
    return {m.split(".", 1)[1] for m in _modules_loaded(*argv) if m.startswith("squareop.")}


@pytest.mark.parametrize("command, dot", [
    ("canonical-square", False),
    ("canonical-square --format json", False),
    ("canonical-square --format dot", True),
    ("classify {square}", False),
    ("classify {square} --format dot", True),
    ("classify {table200}", False),
    ("iso {square} {square}", False),
    ("info {square} {square} --map 0,1,2,3", False),
    ("validate {square}", False),
])
def test_crisp_commands_load_no_fuzzy_layer(square_file, tmp_path, command, dot):
    """Each subcommand imports only the layers it uses; DOT output alone
    loads ``dot``; none loads ``dataclasses`` or ``inspect``."""
    files = {"square": square_file}
    if "{table200}" in command:
        files["table200"] = _table200(tmp_path)
    modules = _modules_loaded(*command.format(**files).split())
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("squareop.")}
    assert loaded.isdisjoint(FUZZY_LAYERS), loaded
    assert ("dot" in loaded) == dot
    assert modules.isdisjoint(SLOW_IMPORTS), modules & set(SLOW_IMPORTS)


@pytest.mark.parametrize("command", [
    "ifrel-check {lattice}",
    "lattice-check {lattice} --format json",
    "contradiction {points}",
    "fuzzy-classify {fuzzy}",
    "dot {fuzzy}",
    "validate {fuzzy}",
    "category-check --triples 2",
])
def test_fuzzy_commands_load_no_dataclasses(tmp_path, command):
    files = {
        "lattice": lattice_to_json(powerset_lattice(BooleanAlgebra.of(2))),
        "points": {"x": "1/2", "y": "1/3"},
        "fuzzy": fuzzy_diagram_to_json(embed_diagram(canonical_square())),
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = command.format(**{name: tmp_path / f"{name}.json" for name in files}).split()
    modules = _modules_loaded(*argv)
    assert modules.isdisjoint(SLOW_IMPORTS), modules & set(SLOW_IMPORTS)


def test_lattice_check_loads_no_sampler(tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice_to_json(powerset_lattice(BooleanAlgebra.of(2)))))
    assert "sampling" not in _layers_loaded("lattice-check", str(path))


def test_lone_surrogate_is_exit_2_before_any_output(tmp_path):
    """A string JSON can hold but UTF-8 output cannot."""
    path = tmp_path / "surrogate.json"
    path.write_text('{"\\ud800": "1/2"}', encoding="ascii")
    proc = _squareop("contradiction", str(path))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: $: string cannot be encoded as UTF-8")
    assert b"Traceback" not in proc.stderr


def test_unencodable_output_is_one_error_and_no_stdout(tmp_path):
    """A stdout that cannot encode a label gets none of the output."""
    doc = fuzzy_diagram_to_json(embed_diagram(canonical_square()))
    doc["labels"] = [f"\u00e9{i}" for i in range(4)]
    path = tmp_path / "accents.json"
    path.write_text(json.dumps(doc))
    proc = _squareop("fuzzy-classify", str(path), encoding="ascii")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize("atoms", [0, 16], ids=["canonical-square", "classify-200"])
def test_closed_pipe_keeps_exit_code_and_stderr_empty(tmp_path, atoms):
    """The reader is gone before anything is written.  The canonical square
    fits stdout's buffer, so the flush meets the closed pipe; the relation
    table of 200 elements on 16 atoms does not, so the write does."""
    argv = ["classify", str(_table200(tmp_path))] if atoms else ["canonical-square"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _squareop(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
