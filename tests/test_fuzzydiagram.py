import random
from fractions import Fraction

import pytest

from squareop.algebra import BooleanAlgebra, element_label
from squareop.degrees import FULL, IFPair
from squareop.diagram import (
    Diagram,
    RelationKind,
    canonical_square,
    classify,
    informativity_leq,
    relation_table,
)
from squareop.fuzzydiagram import (
    AnnotatedSquare,
    FuzzyAristotelianDiagram,
    FuzzyDiagramMap,
    annotate_square,
    check_fuzzy_infomorphism,
    check_if_homomorphism,
    classify_fuzzy,
    compose_fuzzy_maps,
    embed_diagram,
    fuzzy_bi_implication,
    fuzzy_relation_table,
    verify_category_laws,
)
from squareop.ifrel import IFRelation
from squareop.iflattice import powerset_lattice
from squareop.sampling import (
    composable_infomorphism_triples,
    random_crisp_diagram,
    random_fuzzy_powerset_order,
)

F = Fraction
BI, LI, RI = RelationKind.BI, RelationKind.LI, RelationKind.RI
CD, C, SC, UN = RelationKind.CD, RelationKind.C, RelationKind.SC, RelationKind.UN


def two_point_lattice(mu, nu):
    """1-atom powerset carrier with a fuzzified bottom-to-top edge."""
    labels = ("{}", "{a}")
    r = IFRelation(
        labels, labels,
        ((F(1), mu), (F(0), F(1))),
        ((F(0), nu), (F(1), F(0))),
    )
    from squareop.iflattice import IFLattice

    return IFLattice(r)


class TestFuzzyBiImplication:
    def test_balanced_edge_always_within_tolerance(self):
        lat = two_point_lattice(F(1, 2), F(1, 2))
        d = FuzzyAristotelianDiagram(lat, lat.carrier, tolerance=F(0))
        assert fuzzy_bi_implication(d, "{}", "{a}")

    def test_default_tolerance_names_small_differences(self):
        lat = two_point_lattice(F(1, 2), F(99, 200))
        d = FuzzyAristotelianDiagram(lat, lat.carrier)  # tolerance 1/100
        # |1/2 - 99/200| = 1/200 <= 1/100
        assert fuzzy_bi_implication(d, "{}", "{a}")

    def test_crisp_edge_is_not_bi_implied(self):
        lat = two_point_lattice(F(1), F(0))
        d = FuzzyAristotelianDiagram(lat, lat.carrier)
        assert not fuzzy_bi_implication(d, "{}", "{a}")

    def test_zero_tolerance_means_exact_equality(self):
        lat = two_point_lattice(F(1, 2), F(99, 200))
        d = FuzzyAristotelianDiagram(lat, lat.carrier, tolerance=F(0))
        assert not fuzzy_bi_implication(d, "{}", "{a}")
        balanced = two_point_lattice(F(1, 4), F(1, 4))
        d0 = FuzzyAristotelianDiagram(balanced, balanced.carrier, tolerance=F(0))
        assert fuzzy_bi_implication(d0, "{}", "{a}")


class TestClassifyFuzzy:
    def test_diagonal_is_bi_with_full_annotation(self):
        lat = two_point_lattice(F(1, 2), F(1, 4))
        d = FuzzyAristotelianDiagram(lat, lat.carrier)
        assert classify_fuzzy(d, "{a}", "{a}") == (BI, FULL)

    def test_hesitant_subalternation_keeps_edge_degrees(self):
        lat = two_point_lattice(F(0), F(1, 2))
        d = FuzzyAristotelianDiagram(lat, lat.carrier)
        kind, pair = classify_fuzzy(d, "{}", "{a}")
        assert kind is LI
        assert pair == IFPair(F(0), F(1, 2))
        kind, pair = classify_fuzzy(d, "{a}", "{}")
        assert kind is RI
        assert pair == IFPair(F(0), F(1, 2))

    def test_embedded_canonical_square_matches_crisp_classification(self):
        square = canonical_square()
        fd = embed_diagram(square)
        crisp_table = relation_table(square)
        fuzzy_table = fuzzy_relation_table(fd)
        for i in range(4):
            for j in range(4):
                assert fuzzy_table[i][j].kind is crisp_table[i][j]
                assert fuzzy_table[i][j].annotation == FULL

    def test_fuzzified_square_keeps_opposition_kinds(self):
        rng = random.Random(2)
        square = canonical_square()
        lat = random_fuzzy_powerset_order(rng, square.algebra)
        fragment = tuple(element_label(e) for e in square.fragment)
        d = FuzzyAristotelianDiagram(lat, fragment, square.labels)
        table = fuzzy_relation_table(d)
        crisp_table = relation_table(square)
        for i in range(4):
            for j in range(4):
                assert table[i][j].kind is crisp_table[i][j]

    def test_fragment_membership_required(self):
        lat = two_point_lattice(F(1), F(0))
        d = FuzzyAristotelianDiagram(lat, ("{a}",))
        with pytest.raises(ValueError):
            classify_fuzzy(d, "{}", "{a}")

    def test_non_boolean_lattice_rejected(self):
        from squareop.ifrel import identity_relation
        from squareop.iflattice import IFLattice

        antichain = IFLattice(identity_relation(("x", "y")))
        with pytest.raises(ValueError, match="Boolean"):
            FuzzyAristotelianDiagram(antichain, ("x", "y"))


class TestCrispEmbeddingFaithfulness:
    def test_seeded_random_diagrams(self):
        rng = random.Random(1234)
        for _ in range(20):
            d = random_crisp_diagram(rng, max_atoms=3, max_fragment=5)
            fd = embed_diagram(d)
            crisp_table = relation_table(d)
            fuzzy_table = fuzzy_relation_table(fd)
            for i in range(len(d.fragment)):
                for j in range(len(d.fragment)):
                    assert fuzzy_table[i][j].kind is crisp_table[i][j]
                    assert fuzzy_table[i][j].annotation == FULL


class TestFuzzyInfomorphism:
    def test_identity_passes(self):
        fd = embed_diagram(canonical_square())
        assert check_fuzzy_infomorphism(FuzzyDiagramMap.identity(fd))

    def test_un_pair_to_c_pair_passes(self):
        b4 = BooleanAlgebra.of(4)
        src_crisp = Diagram(b4, (b4.from_atoms(["a", "b"]), b4.from_atoms(["b", "c"])))
        assert classify(*src_crisp.fragment) is UN
        b3 = BooleanAlgebra.of(3)
        tgt_crisp = Diagram(b3, (b3.from_atoms(["a"]), b3.from_atoms(["b"])))
        assert classify(*tgt_crisp.fragment) is C
        m = FuzzyDiagramMap(embed_diagram(src_crisp), embed_diagram(tgt_crisp), (0, 1))
        assert check_fuzzy_infomorphism(m)

    def test_cd_pair_to_un_pair_fails(self):
        b3 = BooleanAlgebra.of(3)
        x = b3.from_atoms(["a"])
        src_crisp = Diagram(b3, (x, x.complement()))
        b4 = BooleanAlgebra.of(4)
        tgt_crisp = Diagram(b4, (b4.from_atoms(["a", "b"]), b4.from_atoms(["b", "c"])))
        m = FuzzyDiagramMap(embed_diagram(src_crisp), embed_diagram(tgt_crisp), (0, 1))
        assert not check_fuzzy_infomorphism(m)

    def test_composition_of_infomorphisms_is_infomorphism(self):
        rng = random.Random(6)
        triples = composable_infomorphism_triples(rng, 15)
        for f, g, h in triples:
            assert check_fuzzy_infomorphism(f)
            assert check_fuzzy_infomorphism(g)
            assert check_fuzzy_infomorphism(h)
            assert check_fuzzy_infomorphism(compose_fuzzy_maps(f, g))
            assert check_fuzzy_infomorphism(
                compose_fuzzy_maps(compose_fuzzy_maps(f, g), h)
            )


class TestIFHomomorphism:
    def test_identity_is_homomorphism(self):
        lat = powerset_lattice(BooleanAlgebra.of(2))
        assert check_if_homomorphism(lat, lat, {x: x for x in lat.carrier})

    def test_atom_permutation_is_homomorphism(self):
        lat = powerset_lattice(BooleanAlgebra.of(2))
        swap = {"{}": "{}", "{a}": "{b}", "{b}": "{a}", "{a,b}": "{a,b}"}
        assert check_if_homomorphism(lat, lat, swap)

    def test_constant_top_map_is_not(self):
        lat = powerset_lattice(BooleanAlgebra.of(2))
        constant = {x: "{a,b}" for x in lat.carrier}
        assert not check_if_homomorphism(lat, lat, constant)

    def test_bound_swap_is_not(self):
        lat = powerset_lattice(BooleanAlgebra.of(1))
        assert not check_if_homomorphism(lat, lat, {"{}": "{a}", "{a}": "{}"})

    def test_partial_mapping_rejected(self):
        lat = powerset_lattice(BooleanAlgebra.of(1))
        with pytest.raises(ValueError, match="total"):
            check_if_homomorphism(lat, lat, {"{}": "{}"})

    def test_embedding_into_bigger_algebra(self):
        small = powerset_lattice(BooleanAlgebra.of(1))
        big = powerset_lattice(BooleanAlgebra.of(2))
        # send a to the join a v b: preserves bounds, join and negation
        f = {"{}": "{}", "{a}": "{a,b}"}
        assert check_if_homomorphism(small, big, f)
        # sending a to just {a} breaks top preservation
        g = {"{}": "{}", "{a}": "{a}"}
        assert not check_if_homomorphism(small, big, g)


class TestCategoryLaws:
    def test_chain_of_identities(self):
        fd = embed_diagram(canonical_square())
        ident = FuzzyDiagramMap.identity(fd)
        report = verify_category_laws([ident, ident, ident])
        assert report.all_pass
        assert report.excluded == ()

    def test_seeded_sample_passes(self):
        rng = random.Random(17)
        triples = composable_infomorphism_triples(rng, 12)
        maps = [m for t in triples for m in t]
        report = verify_category_laws(maps)
        assert report.all_pass
        assert report.excluded == ()
        by_law = {r.law: r for r in report.laws}
        assert by_law["identity"].checked > 0
        assert by_law["composition-closure"].checked >= 2 * len(triples)
        assert by_law["associativity"].checked >= len(triples)

    def test_laws_match_pairwise_reference(self):
        # the pairwise scans and per-pair classification the grouped
        # implementation replaced, as a reference for results and counts
        def reference_check(m):
            return all(
                informativity_leq(
                    classify_fuzzy(m.source, x, y).kind,
                    classify_fuzzy(m.target, m.target.fragment[m.mapping[i]],
                                   m.target.fragment[m.mapping[j]]).kind,
                )
                for i, x in enumerate(m.source.fragment)
                for j, y in enumerate(m.source.fragment)
            )

        rng = random.Random(5)
        maps = [m for t in composable_infomorphism_triples(rng, 8) for m in t]
        fd = embed_diagram(canonical_square())
        maps += [FuzzyDiagramMap(fd, fd, (0, 0, 0, 0)), FuzzyDiagramMap.identity(fd)]
        passing = [reference_check(m) for m in maps]
        assert [check_fuzzy_infomorphism(m) for m in maps] == passing
        diagrams = []
        for m in maps:
            for d in (m.source, m.target):
                if d not in diagrams:
                    diagrams.append(d)
        pairs = [(a, b) for a in maps for b in maps if a.target == b.source]
        closure = [
            (a, b) for i, a in enumerate(maps) for j, b in enumerate(maps)
            if passing[i] and passing[j] and a.target == b.source
        ]
        triples = [(a, b, c) for a, b in pairs for c in maps if b.target == c.source]
        report = verify_category_laws(maps)
        assert report.excluded == tuple(i for i, ok in enumerate(passing) if not ok)
        assert [(r.law, r.holds, r.checked) for r in report.laws] == [
            ("identity", True, len(diagrams) + len(maps)),
            ("composition-closure",
             all(reference_check(compose_fuzzy_maps(a, b)) for a, b in closure), len(closure)),
            ("associativity", True, len(triples)),
        ]

    def test_kind_table_matches_classification(self):
        rng = random.Random(11)
        for _ in range(10):
            lattice = random_fuzzy_powerset_order(rng, rng.randint(1, 3))
            d = FuzzyAristotelianDiagram(lattice, lattice.carrier)
            assert d.kind_table == tuple(
                tuple(classify_fuzzy(d, x, y).kind for y in d.fragment) for x in d.fragment
            )

    def test_non_infomorphism_is_flagged_and_excluded(self):
        fd = embed_diagram(canonical_square())
        collapse = FuzzyDiagramMap(fd, fd, (0, 0, 0, 0))  # CD pairs land on BI
        assert not check_fuzzy_infomorphism(collapse)
        report = verify_category_laws([FuzzyDiagramMap.identity(fd), collapse])
        assert report.excluded == (1,)
        # laws themselves still pass on the surviving maps
        assert report.all_pass


class TestAnnotatedSquare:
    def test_balanced_contradiction_annotation(self):
        annotated = annotate_square(F(1, 2))
        kinds = relation_table(annotated.diagram)
        for i in range(4):
            for j in range(4):
                if kinds[i][j] is CD:
                    assert annotated.annotations[i][j] == IFPair(F(1, 2), F(1, 2))
                else:
                    assert annotated.annotations[i][j] == FULL

    def test_underivable_nonmembership_leaves_hesitation(self):
        annotated = annotate_square(F(0))
        kinds = relation_table(annotated.diagram)
        cells = [
            annotated.annotations[i][j]
            for i in range(4)
            for j in range(4)
            if kinds[i][j] is CD
        ]
        assert cells and all(c == IFPair(F(1, 2), F(0)) for c in cells)
        assert cells[0].hesitation == F(1, 2)

    def test_nu_above_half_rejected(self):
        with pytest.raises(ValueError):
            annotate_square(F(3, 5))

    def test_invariant_enforced_on_direct_construction(self):
        square = canonical_square()
        full = tuple(tuple(FULL for _ in range(4)) for _ in range(4))
        with pytest.raises(ValueError, match="1/2"):
            AnnotatedSquare(square, full)
