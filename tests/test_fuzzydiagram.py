import contextlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from squareop import sampling
from squareop.algebra import BooleanAlgebra, element_label
from squareop.degrees import FULL, IFPair
from squareop.diagram import (
    Diagram,
    DiagramMap,
    RelationKind,
    canonical_square,
    check_infomorphism,
    check_iso,
    classify,
    find_isos,
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
from squareop.ifrel import IFRelation, _bad_cell, transitive_closure
from squareop.iflattice import IFLattice, LawViolationError, _OrderStructure, powerset_lattice
from squareop.sampling import (
    _below,
    _permute_lattice,
    composable_infomorphism_triples,
    random_crisp_diagram,
    random_fuzzy_diagram,
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


class TestConstruction:
    @pytest.mark.parametrize("fragment, labels, message", [
        ((), (), "fragment must not be empty"),
        (("{a}", "{a}"), (), "fragment elements must be distinct"),
        (("{z}",), (), "fragment element '{z}' is not in the carrier"),
        (("{}", "{a}"), ("only one",), "labels must align with the fragment"),
    ], ids=["empty", "duplicate", "outside-carrier", "misaligned-labels"])
    def test_refusals(self, fragment, labels, message):
        lat = powerset_lattice(BooleanAlgebra.of(1))
        with pytest.raises(ValueError) as exc:
            FuzzyAristotelianDiagram(lat, fragment, labels)
        assert str(exc.value) == message


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

    def test_table_cells_carry_their_witnessing_edges(self):
        """Each cell's annotation is the order edge the module docstring
        names for its kind, read through the label API."""
        rng = random.Random(43)
        for _ in range(20):
            d = random_fuzzy_diagram(rng, max_atoms=3, max_fragment=8)
            lat = d.lattice
            for x, row in zip(d.fragment, fuzzy_relation_table(d)):
                for y, (kind, annotation) in zip(d.fragment, row):
                    if kind in (BI, LI):
                        edge = (x, y)
                    elif kind is RI:
                        edge = (y, x)
                    elif kind in (CD, C):
                        edge = (x, lat.unique_complement(y))
                    elif kind is SC:
                        edge = (lat.unique_complement(y), x)
                    else:
                        assert annotation == FULL
                        continue
                    assert annotation == lat.order.pair_of(*edge)
                    assert classify_fuzzy(d, x, y) == (kind, annotation)

    def test_length_is_the_fragment_size(self):
        square = embed_diagram(canonical_square())
        assert len(square) == len(square.fragment) == 4
        assert len(FuzzyAristotelianDiagram(two_point_lattice(F(1), F(0)), ("{a}",))) == 1

    def test_fragment_membership_required(self):
        lat = two_point_lattice(F(1), F(0))
        d = FuzzyAristotelianDiagram(lat, ("{a}",))
        with pytest.raises(ValueError):
            classify_fuzzy(d, "{}", "{a}")

    def test_non_boolean_lattice_rejected(self):
        from squareop.ifrel import identity_relation

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


    def test_embedding_refuses_algebras_beyond_the_carrier_limit(self):
        b16 = BooleanAlgebra.of(16)
        with pytest.raises(ValueError, match="16-atom algebra"):
            embed_diagram(Diagram(b16, (b16.atom(0), b16.atom(1))))


def label_cascade(d):
    """Seven-clause kinds of a fuzzy diagram, read through the lattice's
    label API (dominates, glb, lub); the reference for ``kind_table``."""
    lat = d.lattice

    def kind(x, y):
        if x == y:
            return BI
        if lat.dominates(x, y):
            return LI
        if lat.dominates(y, x):
            return RI
        meet_bottom = lat.glb(x, y) == lat.bottom
        join_top = lat.lub(x, y) == lat.top
        if meet_bottom and join_top:
            return CD
        if meet_bottom:
            return C
        if join_top:
            return SC
        return UN

    return tuple(tuple(kind(x, y) for y in d.fragment) for x in d.fragment)


def same_size_partner(rng, d):
    """A random diagram over ``d``'s algebra with as many elements."""
    bits = rng.sample(range(d.algebra.carrier_size), len(d))
    return Diagram(d.algebra, tuple(d.algebra.element(b) for b in bits))


class TestSharedClassifier:
    """Crisp and fuzzy diagrams share one classifier and one map layer."""

    def test_fuzzy_kind_table_matches_label_cascade(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(60):
            d = random_fuzzy_diagram(rng, max_atoms=4, max_fragment=8)
            expected = label_cascade(d)
            assert d.kind_table == expected
            seen.update(kind for row in expected for kind in row)
        assert seen == set(RelationKind)

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4])
    def test_diagrams_on_one_derived_order_slice_one_table(self, atoms):
        """Sampled degrees and an atom relabeling leave the derived order,
        and so the carrier-wide kind table, shared."""
        rng = random.Random(37 + atoms)
        lattices = [random_fuzzy_powerset_order(rng, atoms) for _ in range(3)]
        perm = rng.sample(range(atoms), atoms)
        lattices += [_permute_lattice(lat, perm)[0] for lat in lattices]
        assert len({lat.order for lat in lattices}) > 1
        shared = lattices[0]._structure.kind_table
        for lat in lattices:
            assert lat._structure.kind_table is shared
            assert shared == label_cascade(FuzzyAristotelianDiagram(lat, lat.carrier))
            for _ in range(5):
                fragment = rng.sample(lat.carrier, rng.randint(1, len(lat.carrier)))
                d = FuzzyAristotelianDiagram(lat, fragment)
                index = [lat.index(x) for x in fragment]
                assert d.kind_table == tuple(tuple(shared[i][j] for j in index) for i in index)
                assert d.kind_table == label_cascade(d)

    def test_find_isos_agrees_on_embedded_diagrams(self):
        rng = random.Random(29)
        outcomes = []
        for _ in range(30):
            d1 = random_crisp_diagram(rng, max_atoms=4, max_fragment=5)
            mirrored = Diagram(d1.algebra, d1.fragment[::-1])
            for d2 in (mirrored, same_size_partner(rng, d1)):
                e1, e2 = embed_diagram(d1), embed_diagram(d2)
                crisp = [m.mapping for m in find_isos(d1, d2)]
                assert [m.mapping for m in find_isos(e1, e2)] == crisp
                assert all(check_iso(DiagramMap(e1, e2, f)) for f in crisp)
                outcomes.append(bool(crisp))
        assert True in outcomes and False in outcomes

    def test_check_infomorphism_agrees_on_embedded_maps(self):
        rng = random.Random(31)
        verdicts = []
        for _ in range(100):
            d1 = random_crisp_diagram(rng, max_atoms=4, max_fragment=4)
            d2 = random_crisp_diagram(rng, max_atoms=4, max_fragment=6)
            if len(d1) <= len(d2):  # injective maps keep every pair a pair
                mapping = tuple(rng.sample(range(len(d2)), len(d1)))
            else:
                mapping = tuple(rng.randrange(len(d2)) for _ in d1.fragment)
            crisp = check_infomorphism(DiagramMap(d1, d2, mapping))
            embedded = DiagramMap(embed_diagram(d1), embed_diagram(d2), mapping)
            assert check_infomorphism(embedded) is crisp
            verdicts.append(crisp)
        assert 10 <= verdicts.count(True) <= 90


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

    def test_image_outside_the_target_rejected(self):
        lat = powerset_lattice(BooleanAlgebra.of(1))
        with pytest.raises(ValueError, match=r"mapping image '\{z\}' is not in the target carrier"):
            check_if_homomorphism(lat, lat, {"{}": "{}", "{a}": "{z}"})

    def test_lattice_that_is_not_a_boolean_algebra_rejected(self):
        labels = ("0", "1", "2")
        chain = IFLattice(IFRelation.from_bool(labels, labels, [[i <= j for j in range(3)]
                                                                 for i in range(3)]))
        lat = powerset_lattice(BooleanAlgebra.of(1))
        with pytest.raises(ValueError, match="source lattice is not a fuzzy Boolean algebra"):
            check_if_homomorphism(chain, lat, {x: "{}" for x in labels})

    def test_map_breaking_negation_is_not(self):
        lat = powerset_lattice(BooleanAlgebra.of(2))
        # bounds kept, but neg {a} = {b} goes to {a}, while neg f({a}) = {b}
        f = {"{}": "{}", "{a}": "{a}", "{b}": "{a}", "{a,b}": "{a,b}"}
        assert not check_if_homomorphism(lat, lat, f)

    def test_map_breaking_join_is_not(self):
        lat = powerset_lattice(BooleanAlgebra.of(3))
        # bounds and negation kept: each complementary pair goes to one;
        # but f({a}) v f({b}) = {a,b} while f({a,b}) = {b,c}
        f = {"{}": "{}", "{a,b,c}": "{a,b,c}", "{a}": "{a}", "{b,c}": "{b,c}",
             "{b}": "{b}", "{a,c}": "{a,c}", "{c}": "{a}", "{a,b}": "{b,c}"}
        assert not check_if_homomorphism(lat, lat, f)

    def test_embedding_into_bigger_algebra(self):
        small = powerset_lattice(BooleanAlgebra.of(1))
        big = powerset_lattice(BooleanAlgebra.of(2))
        # send a to the join a v b: preserves bounds, join and negation
        f = {"{}": "{}", "{a}": "{a,b}"}
        assert check_if_homomorphism(small, big, f)
        # sending a to just {a} breaks top preservation
        g = {"{}": "{}", "{a}": "{a}"}
        assert not check_if_homomorphism(small, big, g)

    def test_corrupted_meet_table_is_a_law_violation(self):
        lat = powerset_lattice(BooleanAlgebra.of(2))
        s = lat._structure
        glb = [list(row) for row in s.glb]
        glb[1][2] = glb[2][1] = 3  # {a} ^ {b} read as {a,b}; carrier indices are bitmasks
        broken = IFLattice(lat.order)  # a fresh instance, so the shared one stays intact
        broken.__dict__["_structure"] = _OrderStructure(
            s.up, s.lub, tuple(map(tuple, glb)), s.is_lattice, s.bottom, s.top,
            s.is_distributive, s.complements, s.atoms, s.neg,
        )
        identity = {x: x for x in lat.carrier}
        with pytest.raises(LawViolationError, match=r"meet preservation failed at \('\{a\}', '\{b\}'\)"):
            check_if_homomorphism(broken, lat, identity)
        assert check_if_homomorphism(lat, lat, identity)


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

    def test_each_composable_pair_is_composed_once(self, monkeypatch):
        """One composite per composable pair, two compositions per triple
        (each side reuses a pair's composite) and two per sample map."""
        maps = [m for t in composable_infomorphism_triples(random.Random(23), 6) for m in t]
        pairs = [(a, b) for a in maps for b in maps if a.target == b.source]
        triples = [(a, b, c) for a, b in pairs for c in maps if b.target == c.source]
        clean = verify_category_laws(maps)
        calls = []

        def counted(first, second):
            calls.append((first, second))
            return compose_fuzzy_maps(first, second)

        monkeypatch.setattr("squareop.fuzzydiagram.compose_maps", counted)
        assert verify_category_laws(maps) == clean
        assert clean.all_pass and len(triples) > len(pairs) > len(maps)
        assert len(calls) == len(pairs) + 2 * len(triples) + 2 * len(maps)

    def test_non_infomorphism_is_flagged_and_excluded(self):
        fd = embed_diagram(canonical_square())
        collapse = FuzzyDiagramMap(fd, fd, (0, 0, 0, 0))  # CD pairs land on BI
        assert not check_fuzzy_infomorphism(collapse)
        report = verify_category_laws([FuzzyDiagramMap.identity(fd), collapse])
        assert report.excluded == (1,)
        # laws themselves still pass on the surviving maps
        assert report.all_pass


class TestCategoryLawWitnesses:
    """Each law keeps the first failing case, in the documented order, as its
    counterexample: identity runs over each diagram's identity map, then each
    sample map; closure over each composable pair of passing maps; and
    associativity over each composable triple."""

    @staticmethod
    def sample():
        return [m for t in composable_infomorphism_triples(random.Random(23), 6) for m in t]

    @staticmethod
    def cases(maps, compose, check):
        """Each law's cases in order, with the re-check that fails a case."""
        diagrams = []
        for m in maps:
            for d in (m.source, m.target):
                if d not in diagrams:
                    diagrams.append(d)
        passing = [check(m) for m in maps]
        pairs = [(a, b) for a in maps for b in maps if a.target == b.source]
        return {
            "identity": (
                [(DiagramMap.identity(d),) for d in diagrams] + [(m,) for m in maps],
                lambda n, m: not check(m) if n < len(diagrams) else (
                    compose(DiagramMap.identity(m.source), m) != m
                    or compose(m, DiagramMap.identity(m.target)) != m),
            ),
            "composition-closure": (
                [(a, b) for i, a in enumerate(maps) for j, b in enumerate(maps)
                 if passing[i] and passing[j] and a.target == b.source],
                lambda n, a, b: not check(compose(a, b)),
            ),
            "associativity": (
                [(a, b, c) for a, b in pairs for c in maps if b.target == c.source],
                lambda n, a, b, c: compose(compose(a, b), c) != compose(a, compose(b, c)),
            ),
        }

    def assert_first_failing_cases(self, maps, clean, compose, check, failing_laws):
        """``clean`` is the report before the patch; ``compose`` and ``check``
        are the patched functions."""
        assert clean.all_pass
        report = verify_category_laws(maps)
        assert [r.checked for r in report.laws] == [r.checked for r in clean.laws]
        cases = self.cases(maps, compose, check)
        for r in report.laws:
            listed, fails = cases[r.law]
            assert r.group is None and r.checked == len(listed)
            first = next((case for n, case in enumerate(listed) if fails(n, *case)), None)
            assert r.counterexample == first and r.holds is (first is None)
            if r.law in failing_laws:
                # a failing case that is not the first case: a search that
                # returned the first case, a later one or a passing one differs
                assert first is not None and listed.index(first) > 0
            else:
                assert first is None
        assert [r.law for r in report.laws if not r.holds] == list(failing_laws)

    def test_faulty_composite(self, monkeypatch):
        maps = self.sample()
        clean = verify_category_laws(maps)
        bad = maps[6]  # composites leaving this map come out shifted

        def faulty(first, second):
            m = compose_fuzzy_maps(first, second)
            if first != bad:
                return m
            size = len(m.target.fragment)
            return DiagramMap(m.source, m.target, tuple((j + 1) % size for j in m.mapping))

        monkeypatch.setattr("squareop.fuzzydiagram.compose_maps", faulty)
        self.assert_first_failing_cases(
            maps, clean, faulty, check_fuzzy_infomorphism,
            ("identity", "composition-closure", "associativity"),
        )

    def test_faulty_infomorphism_check(self, monkeypatch):
        maps = self.sample()
        clean = verify_category_laws(maps)
        identities = list(dict.fromkeys(
            DiagramMap.identity(d) for m in maps for d in (m.source, m.target)
        ))
        composites = [
            compose_fuzzy_maps(a, b) for a in maps for b in maps if a.target == b.source
        ]
        # reject one diagram's identity and one composite, but no sample map,
        # so the same pairs pass into the closure law
        rejected = {identities[2], next(c for c in composites[3:] if c not in maps)}

        def faulty(m):
            return m not in rejected and check_fuzzy_infomorphism(m)

        monkeypatch.setattr("squareop.fuzzydiagram.check_infomorphism", faulty)
        self.assert_first_failing_cases(
            maps, clean, compose_fuzzy_maps, faulty, ("identity", "composition-closure"),
        )


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
        with pytest.raises(ValueError, match="exceeds 1"):
            annotate_square(F(3, 5))

    def test_invariant_enforced_on_direct_construction(self):
        square = canonical_square()
        full = tuple(tuple(FULL for _ in range(4)) for _ in range(4))
        with pytest.raises(ValueError, match="1/2"):
            AnnotatedSquare(square, full)


# The eager sampler as it stood before candidates were decided on the crisp
# kind table: it builds every candidate, then checks the map, and it draws
# through randint, randrange and choice.  The differential test holds the
# current sampler to its objects and its draws.
def eager_cell(rng):
    p = rng.randint(1, 12)
    a = rng.randint(0, p)
    q = rng.randint(1, 12)
    smax = (p - a) * q // p
    if a == 0:
        smax = min(smax, q - 1)
    return a, p, rng.randint(0, smax), q


def eager_powerset_order(rng, atom_count):
    crisp = powerset_lattice(BooleanAlgebra.of(atom_count))
    labels = crisp.carrier
    size = len(labels)
    cells = {
        (i, j): eager_cell(rng)
        for i in range(size)
        for j in range(size)
        if i != j and i & j == i
    }
    den = lcm(*(d for _, p, _, q in cells.values() for d in (p, q)))
    m = [[den * (i == j) for j in range(size)] for i in range(size)]
    n = [[den * (i != j) for j in range(size)] for i in range(size)]
    for (i, j), (a, p, b, q) in cells.items():
        m[i][j], n[i][j] = a * (den // p), b * (den // q)
    relation = IFRelation._build(labels, labels, den, tuple(map(tuple, m)), tuple(map(tuple, n)))
    return IFLattice(transitive_closure(relation))


def eager_fuzzy_diagram(rng, max_atoms=3, max_fragment=4):
    lattice = eager_powerset_order(rng, rng.randint(1, max_atoms))
    size = rng.randint(1, min(max_fragment, len(lattice.carrier)))
    fragment = tuple(
        lattice.carrier[i] for i in sorted(rng.sample(range(len(lattice.carrier)), size))
    )
    return FuzzyAristotelianDiagram(lattice, fragment)


def eager_step(rng, source):
    kind = rng.choice(("identity", "inclusion", "permutation", "random"))
    if kind == "inclusion":
        carrier = source.lattice.carrier
        extra = [x for x in carrier if x not in source.fragment]
        rng.shuffle(extra)
        grown = source.fragment + tuple(extra[: rng.randint(0, min(2, len(extra)))])
        target = FuzzyAristotelianDiagram(source.lattice, grown, tolerance=source.tolerance)
        return FuzzyDiagramMap(source, target, tuple(range(len(source.fragment))))
    if kind == "permutation":
        n = len(source.lattice.carrier)
        perm = list(range(n.bit_length() - 1))
        rng.shuffle(perm)
        permuted, index_map = _permute_lattice(source.lattice, perm)
        carrier = source.lattice.carrier
        fragment = tuple(carrier[index_map[carrier.index(x)]] for x in source.fragment)
        target = FuzzyAristotelianDiagram(permuted, fragment, tolerance=source.tolerance)
        return FuzzyDiagramMap(source, target, tuple(range(len(source.fragment))))
    if kind == "random":
        for _ in range(8):
            target = eager_fuzzy_diagram(rng)
            mapping = tuple(rng.randrange(len(target.fragment)) for _ in source.fragment)
            candidate = FuzzyDiagramMap(source, target, mapping)
            if check_fuzzy_infomorphism(candidate):
                return candidate
    return FuzzyDiagramMap.identity(source)


def eager_triples(rng, count):
    triples = []
    for _ in range(count):
        f = eager_step(rng, eager_fuzzy_diagram(rng))
        g = eager_step(rng, f.target)
        h = eager_step(rng, g.target)
        triples.append((f, g, h))
    return triples


# every bound the sampler draws below: denominators and numerators (1-13),
# atom counts (1-16), fragment sizes up to a 16-atom carrier, step kinds (4)
# and mapping indices; 1 is randint(0, 0), which still draws bits
DRAW_BOUNDS = (*range(1, 18), 255, 256, 257, 2**16 - 1, 2**16)


class TestSampler:
    @pytest.mark.parametrize("draw", [
        lambda rng, n: rng.randrange(n),
        lambda rng, n: rng.randint(0, n - 1),
        lambda rng, n: rng.randint(1, n) - 1,
        lambda rng, n: rng.choice(range(n)),
    ], ids=["randrange", "randint-0", "randint-1", "choice"])
    def test_draws_equal_the_standard_library(self, draw):
        for seed in range(200):
            ours, stdlib = random.Random(seed), random.Random(seed)
            for n in DRAW_BOUNDS:
                assert _below(ours, n) == draw(stdlib, n)
                assert ours.getstate() == stdlib.getstate()

    def test_a_width_one_draw_still_draws_bits(self):
        """randint(0, 0) draws getrandbits(1) until it reads 0, so a shortcut
        returning 0 unread would shift every later draw."""
        for seed in range(200):
            ours, bits = random.Random(seed), random.Random(seed)
            state = ours.getstate()
            assert _below(ours, 1) == 0
            while bits.getrandbits(1):
                pass
            assert ours.getstate() == bits.getstate() != state

    def test_triples_match_the_eager_sampler(self):
        for seed in range(300):
            ours, eager = random.Random(seed), random.Random(seed)
            count = 1 + seed % 3
            assert composable_infomorphism_triples(ours, count) == eager_triples(eager, count)
            assert ours.getstate() == eager.getstate()

    @pytest.mark.parametrize("max_atoms, max_fragment", [(1, 1), (2, 3), (3, 4), (3, 8), (4, 2)])
    def test_diagrams_match_the_eager_sampler(self, max_atoms, max_fragment):
        for seed in range(300):
            ours, eager = random.Random(seed), random.Random(seed)
            assert random_fuzzy_diagram(ours, max_atoms, max_fragment) == eager_fuzzy_diagram(
                eager, max_atoms, max_fragment
            )
            assert ours.getstate() == eager.getstate()

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4])
    def test_fuzzified_orders_derive_the_powerset_structure(self, atoms):
        """What lets the sampler decide a candidate before building it: the
        closure never grows the support past the subset order."""
        crisp = powerset_lattice(BooleanAlgebra.of(atoms))._structure.kind_table
        rng = random.Random(atoms)
        for _ in range(40):
            assert random_fuzzy_powerset_order(rng, atoms)._structure.kind_table == crisp

    def test_only_accepted_candidates_are_built(self, monkeypatch):
        """One closure per first diagram and per accepted random target:
        identity, inclusion and permuted targets run none."""
        closures, permuted = [], []
        close, permute = sampling.transitive_closure, sampling._permute_lattice

        def counted_closure(relation):
            closures.append(relation)
            return close(relation)

        def recorded_permute(lattice, perm):
            result = permute(lattice, perm)
            permuted.append(result[0])
            return result

        monkeypatch.setattr(sampling, "transitive_closure", counted_closure)
        monkeypatch.setattr(sampling, "_permute_lattice", recorded_permute)
        for seed in range(60):
            closures.clear()
            permuted.clear()
            count = 1 + seed % 4
            triples = composable_infomorphism_triples(random.Random(seed), count)
            random_targets = sum(
                m.target.lattice is not m.source.lattice
                and not any(m.target.lattice is p for p in permuted)
                for t in triples
                for m in t
            )
            assert len(closures) == count + random_targets

    @pytest.mark.parametrize(
        "sample, kwargs, message",
        [
            (random_fuzzy_diagram, {"max_atoms": 0}, "max_atoms"),
            (random_fuzzy_diagram, {"max_atoms": 5}, "max_atoms"),
            (random_fuzzy_diagram, {"max_fragment": 0}, "max_fragment"),
            (random_crisp_diagram, {"max_atoms": 0}, "max_atoms"),
            (random_crisp_diagram, {"max_atoms": 17}, "max_atoms"),
            (random_crisp_diagram, {"max_fragment": -1}, "max_fragment"),
        ],
    )
    def test_out_of_range_bounds_are_refused_before_any_draw(self, sample, kwargs, message):
        for seed in range(40):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(ValueError, match=message):
                sample(rng, **kwargs)
            assert rng.getstate() == state

    def test_bounds_at_the_limits_are_sampled(self):
        rng = random.Random(3)
        assert len(random_fuzzy_diagram(rng, max_atoms=4, max_fragment=1).fragment) == 1
        assert len(random_crisp_diagram(rng, max_atoms=16, max_fragment=1).fragment) == 1


@contextlib.contextmanager
def trusted_builds():
    """The relations ``IFRelation._build`` and the lattices
    ``sampling._sampled`` return inside the block: the routes that skip the
    checks of the public constructors."""
    relations, lattices = [], []
    build, sampled = IFRelation._build, sampling._sampled

    def recorded_build(*args):
        relations.append(build(*args))
        return relations[-1]

    def recorded_sampled(*args):
        lattices.append(sampled(*args))
        return lattices[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IFRelation, "_build", staticmethod(recorded_build))
        patch.setattr(sampling, "_sampled", recorded_sampled)
        yield relations, lattices


def assert_checked_constructors_agree(relations, lattices):
    """Each trusted relation keeps the cell invariant and is what the checked
    constructor builds from its degrees; each trusted lattice is accepted by
    ``IFLattice(...)`` and carries the structure derived from its own order."""
    for r in relations:
        assert _bad_cell(r.den, r.m, r.n) is None
        assert IFRelation(r.source, r.target, r.mu, r.nu) == r
    for lattice in lattices:
        checked = IFLattice(lattice.order)
        assert checked == lattice
        assert lattice._structure == checked._structure


class TestTrustedRoutes:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_sampled_triples(self, seed, count):
        with trusted_builds() as (relations, lattices):
            composable_infomorphism_triples(random.Random(seed), count)
        assert lattices and relations
        assert_checked_constructors_agree(relations, lattices)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_sampled_orders_and_their_relabelings(self, seed, atoms):
        rng = random.Random(seed)
        with trusted_builds() as (relations, lattices):
            lattice = random_fuzzy_powerset_order(rng, atoms)
            _permute_lattice(lattice, rng.sample(range(atoms), atoms))
        assert len(lattices) == 2
        assert_checked_constructors_agree(relations, lattices)
