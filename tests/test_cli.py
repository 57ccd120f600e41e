import json

import pytest

from squareop.cli import main
from squareop.diagram import canonical_square
from squareop.fuzzydiagram import embed_diagram
from squareop.jsonio import diagram_to_json, fuzzy_diagram_to_json


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


class TestArgumentHandling:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["canonical-square", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
