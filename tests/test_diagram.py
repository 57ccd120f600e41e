import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from squareop.algebra import AlgebraMismatchError, BooleanAlgebra
from squareop.diagram import (
    IMPLICATION_KINDS,
    INFORMATIVITY_COVERS,
    MAX_ISO_FRAGMENT,
    OPPOSITION_KINDS,
    Diagram,
    DiagramMap,
    RelationKind,
    _kind_table,
    canonical_square,
    check_infomorphism,
    check_iso,
    classify,
    compose_maps,
    count_isos,
    find_isos,
    informativity_leq,
    informativity_order,
    iter_isos,
    relation_table,
)
from squareop.fuzzydiagram import FuzzyAristotelianDiagram
from squareop.sampling import random_crisp_diagram, random_fuzzy_diagram

BI, LI, RI = RelationKind.BI, RelationKind.LI, RelationKind.RI
CD, C, SC, UN = RelationKind.CD, RelationKind.C, RelationKind.SC, RelationKind.UN


def oracle_classify(x, y):
    """Independent classification via atom-label sets, same clause order."""
    xs = frozenset(x.atom_labels())
    ys = frozenset(y.atom_labels())
    atoms = frozenset(x.algebra.atoms)
    if xs == ys:
        return BI
    if xs < ys:
        return LI
    if ys < xs:
        return RI
    if not (xs & ys) and xs | ys == atoms:
        return CD
    if not (xs & ys):
        return C
    if xs | ys == atoms:
        return SC
    return UN


class TestRelationKindSurface:
    """The seven members read, print, pickle and hash as plain enum members."""

    DECLARED = [("BI", "BI"), ("LI", "LI"), ("RI", "RI"), ("CD", "CD"), ("C", "C"),
                ("SC", "SC"), ("UN", "Un")]

    def test_exactly_seven_members_in_declared_order(self):
        assert [(k.name, k.value) for k in RelationKind] == self.DECLARED
        assert list(RelationKind.__members__) == [name for name, _ in self.DECLARED]
        assert [RelationKind.__members__[name] for name, _ in self.DECLARED] == list(RelationKind)

    def test_value_name_and_str(self):
        for name, value in self.DECLARED:
            kind = RelationKind[name]
            assert kind.name == name and kind.value == value
            assert str(kind) == f"{kind}" == format(kind) == value
            assert repr(kind) == f"<RelationKind.{name}: {value!r}>"
            assert RelationKind(value) is kind
        assert RelationKind("Un") is RelationKind.UN and RelationKind["UN"] is RelationKind.UN
        with pytest.raises(ValueError):
            RelationKind("UN")
        with pytest.raises(KeyError):
            RelationKind["Un"]

    def test_pickle_and_deepcopy_return_the_member(self):
        for kind in RelationKind:
            assert pickle.loads(pickle.dumps(kind)) is kind
            assert copy.copy(kind) is kind and copy.deepcopy(kind) is kind
        table = canonical_square().kind_table
        assert pickle.loads(pickle.dumps(table)) == table
        assert copy.deepcopy(table) == table

    def test_hash_and_equality_agree_in_dicts_and_sets(self):
        kinds = list(RelationKind)
        for a in kinds:
            for b in kinds:
                assert (a == b) is (a is b)
                assert (a == b) <= (hash(a) == hash(b))
            assert a != a.value and a != a.name
        assert len(set(kinds)) == 7 and len({k: k.value for k in kinds}) == 7
        assert IMPLICATION_KINDS == {BI, LI, RI} and OPPOSITION_KINDS == {CD, C, SC}
        assert IMPLICATION_KINDS | OPPOSITION_KINDS | {UN} == set(RelationKind)
        order = informativity_order()
        assert {(r, s) for r in kinds for s in kinds if (r, s) in order} == order
        rebuilt = {(RelationKind(r.value), RelationKind[s.name]) for r, s in order}
        assert rebuilt == order and hash(frozenset(rebuilt)) == hash(order)


class TestClassify:
    def setup_method(self):
        self.b3 = BooleanAlgebra.of(3)

    def test_identity_is_bi(self):
        x = self.b3.from_atoms(["a", "b"])
        assert classify(x, x) is BI

    def test_contradictory_pair(self):
        x = self.b3.from_atoms(["a"])
        y = self.b3.from_atoms(["b", "c"])
        assert x.meet(y) == self.b3.bottom and x.join(y) == self.b3.top
        assert classify(x, y) is CD

    def test_contrary_pair(self):
        x = self.b3.from_atoms(["a"])
        y = self.b3.from_atoms(["c"])
        assert x.meet(y) == self.b3.bottom and x.join(y) != self.b3.top
        assert classify(x, y) is C

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_oracle_on_all_pairs(self, n):
        b = BooleanAlgebra.of(n)
        for x, y in itertools.product(b.elements(), repeat=2):
            assert classify(x, y) is oracle_classify(x, y)

    def test_bounds_classified_by_first_match(self):
        # 0 < 1 satisfies both the LI and CD clauses; LI is listed first
        assert classify(self.b3.bottom, self.b3.top) is LI

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_on_contingent_pairs(self, n):
        b = BooleanAlgebra.of(n)
        contingent = [e for e in b.elements() if e.is_contingent]
        for x, y in itertools.product(contingent, repeat=2):
            if x == y:
                continue
            meet_bottom = x.meet(y).is_bottom
            join_top = x.join(y).is_top
            holds = [
                x.lt(y),
                y.lt(x),
                meet_bottom and join_top,
                meet_bottom and not join_top,
                not meet_bottom and join_top,
                not (x.lt(y) or y.lt(x) or meet_bottom or join_top),
            ]
            assert sum(holds) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetry_properties(self, n):
        b = BooleanAlgebra.of(n)
        for x, y in itertools.product(b.elements(), repeat=2):
            r, s = classify(x, y), classify(y, x)
            if r is LI:
                assert s is RI
            elif r is RI:
                assert s is LI
            else:
                assert r is s


class TestRelationTable:
    def test_singleton_table(self):
        b = BooleanAlgebra.of(2)
        d = Diagram(b, (b.from_atoms(["a"]),))
        assert relation_table(d) == ((BI,),)

    def test_complement_pair_is_cd(self):
        b = BooleanAlgebra.of(3)
        x = b.from_atoms(["a", "b"])
        d = Diagram(b, (x, x.complement()))
        assert relation_table(d) == ((BI, CD), (CD, BI))

    def test_duplicate_fragment_rejected(self):
        b = BooleanAlgebra.of(2)
        x = b.from_atoms(["a"])
        with pytest.raises(ValueError):
            Diagram(b, (x, x))

    def test_empty_fragment_rejected(self):
        with pytest.raises(ValueError, match="fragment must not be empty"):
            Diagram(BooleanAlgebra.of(2), ())

    def test_element_of_another_algebra_rejected(self):
        other = BooleanAlgebra(("x", "y")).top
        with pytest.raises(AlgebraMismatchError, match="does not belong to the diagram algebra"):
            Diagram(BooleanAlgebra.of(2), (other,))

    def test_contingency_flag(self):
        b = BooleanAlgebra.of(2)
        assert Diagram(b, (b.from_atoms(["a"]),)).all_contingent
        assert not Diagram(b, (b.bottom, b.from_atoms(["a"]))).all_contingent


class TestCanonicalSquare:
    def setup_method(self):
        self.square = canonical_square()
        self.a, self.e, self.i, self.o = self.square.fragment

    def test_six_theses(self):
        assert classify(self.a, self.o) is CD
        assert classify(self.e, self.i) is CD
        assert classify(self.a, self.e) is C
        assert classify(self.i, self.o) is SC
        assert classify(self.a, self.i) is LI
        assert classify(self.e, self.o) is LI

    def test_subalternation_is_strict_containment(self):
        assert self.a.lt(self.i)
        assert self.e.lt(self.o)

    def test_labels(self):
        assert self.square.labels == (
            "Every S is P",
            "No S is P",
            "Some S is P",
            "Some S is not P",
        )

    def test_all_contingent(self):
        assert self.square.all_contingent


class TestInformativity:
    def test_generating_pairs(self):
        assert informativity_leq(UN, LI)
        assert informativity_leq(UN, RI)
        assert informativity_leq(UN, C)
        assert informativity_leq(UN, SC)
        assert informativity_leq(LI, BI)
        assert informativity_leq(RI, BI)
        assert informativity_leq(C, CD)
        assert informativity_leq(SC, CD)

    def test_reflexive(self):
        for r in RelationKind:
            assert informativity_leq(r, r)

    def test_cd_not_below_c(self):
        assert not informativity_leq(CD, C)

    def test_closure_is_exactly_covers_plus_reflexive_plus_derived(self):
        expected = {(r, r) for r in RelationKind}
        expected.update(INFORMATIVITY_COVERS)
        expected.update({(UN, BI), (UN, CD)})
        assert informativity_order() == expected

    def test_partial_order_laws(self):
        kinds = list(RelationKind)
        for r in kinds:
            assert informativity_leq(r, r)
        for r, s in itertools.product(kinds, repeat=2):
            if informativity_leq(r, s) and informativity_leq(s, r):
                assert r is s
        for r, s, t in itertools.product(kinds, repeat=3):
            if informativity_leq(r, s) and informativity_leq(s, t):
                assert informativity_leq(r, t)


def cascade_table(points, mask):
    """The README's seven clauses on bitmasks, in order; the first match wins."""

    def kind(x, y):
        if x == y:
            return BI
        if x & y == x:
            return LI
        if x & y == y:
            return RI
        if x & y == 0 and x | y == mask:
            return CD
        if x & y == 0:
            return C
        if x | y == mask:
            return SC
        return UN

    return tuple(tuple(kind(x, y) for y in points) for x in points)


@st.composite
def atom_masks(draw, min_size=1, max_size=24):
    """Points on 1-16 atoms, as (points, mask).  Complements, unions and the
    bounds are mixed in, so every clause of the cascade occurs; then some
    atoms may copy another atom's bit (identical columns), some may be
    cleared from every point (absent atoms), and some points repeat."""
    k = draw(st.integers(1, 16))
    mask = (1 << k) - 1
    base = draw(st.lists(st.integers(0, mask), min_size=min_size, max_size=max_size))
    extra = draw(st.lists(st.sampled_from(base), max_size=4))
    points = base + [x ^ mask for x in extra] + [x | y for x, y in zip(base, extra)]
    points += draw(st.lists(st.sampled_from([0, mask]), max_size=2))
    atom = st.integers(0, k - 1)
    for a, b in draw(st.lists(st.tuples(atom, atom), max_size=3)):
        points = [x & ~(1 << b) | (x >> a & 1) << b for x in points]
    if draw(st.booleans()):
        present = draw(st.integers(0, mask))
        points = [x & present for x in points]
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    return draw(st.permutations(points)), mask


class TestKindTable:
    """The bit-sliced kernel against the seven clauses, cell by cell."""

    @settings(max_examples=300, deadline=None)
    @given(atom_masks())
    def test_matches_the_seven_clause_cascade(self, case):
        points, mask = case
        assert _kind_table(points, mask) == cascade_table(points, mask)

    @settings(max_examples=15, deadline=None)
    @given(atom_masks(min_size=150, max_size=200))
    def test_matches_the_cascade_on_large_fragments(self, case):
        points, mask = case
        assert _kind_table(points, mask) == cascade_table(points, mask)

    @pytest.mark.parametrize(
        "points, mask",
        [
            ([0b001, 0b010, 0b011], 0b111),  # atom 2 absent: no join reaches the top
            ([0b0011, 0b1100, 0b0110, 0b1001], 0b1111),  # pairs of identical columns
            ([0b01, 0b10, 0b01, 0b11, 0b10], 0b11),  # duplicate points
            ([0, 1, 0], 1),  # one atom, bounds only
        ],
        ids=["absent-atom", "identical-columns", "duplicates", "one-atom"],
    )
    def test_edge_cases(self, points, mask):
        assert _kind_table(points, mask) == cascade_table(points, mask)

    def test_absent_atom_rules_out_cd_and_sc(self):
        table = _kind_table([0b001, 0b010, 0b011, 0b000], 0b111)
        assert table[0][1] == C and table[2][3] == RI
        assert not {CD, SC} & {kind for row in table for kind in row}

    def test_duplicate_points_are_bi(self):
        table = _kind_table([0b01, 0b10, 0b01], 0b11)
        assert table[0][2] == table[2][0] == BI


def brute_force_isos(d1, d2):
    """Every bijection that check_iso accepts, in lexicographic order."""
    if len(d1.fragment) != len(d2.fragment):
        return []
    return [
        perm
        for perm in itertools.permutations(range(len(d1.fragment)))
        if check_iso(DiagramMap(d1, d2, perm))
    ]


@st.composite
def crisp_pairs(draw, max_size):
    """Two fragments of one size on 1-5 atoms: a random pair, or the second
    a permuted copy of the first (atoms relabelled, fragment reordered)."""
    k = draw(st.integers(1, 5))
    algebra = BooleanAlgebra.of(k)
    bits = st.integers(0, algebra.mask)
    first = draw(st.lists(bits, min_size=1, max_size=max_size, unique=True))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(k)))
        images = [sum(1 << perm[i] for i in range(k) if b >> i & 1) for b in first]
        second = draw(st.permutations(images))
    else:
        second = draw(st.lists(bits, min_size=len(first), max_size=len(first), unique=True))
    return tuple(Diagram(algebra, tuple(map(algebra.element, f))) for f in (first, second))


@st.composite
def fuzzy_pairs(draw, max_size):
    """A random fuzzy diagram and a reordered copy of it, or a fragment of
    the same size in another random fuzzy diagram's carrier."""
    rng = draw(st.randoms(use_true_random=False))
    first = random_fuzzy_diagram(rng, max_fragment=max_size)
    n = len(first.fragment)
    if draw(st.booleans()):
        return first, FuzzyAristotelianDiagram(first.lattice, rng.sample(first.fragment, n))
    lattice = random_fuzzy_diagram(rng).lattice
    if len(lattice.carrier) < n:
        return first, FuzzyAristotelianDiagram(lattice, lattice.carrier)
    return first, FuzzyAristotelianDiagram(lattice, rng.sample(lattice.carrier, n))


def contrary_atoms(k):
    algebra = BooleanAlgebra.of(k)
    return Diagram(algebra, tuple(algebra.atom(i) for i in range(k)))


class TestIsoSearch:
    """The forward-checked search against brute force, and the orbit count
    against the length of the list."""

    @staticmethod
    def assert_brute_force(d1, d2):
        """``find_isos`` lists the brute-force maps, and each map it builds
        without re-validation equals the one the public constructor checks."""
        found = find_isos(d1, d2)
        assert [m.mapping for m in found] == brute_force_isos(d1, d2)
        for m in found:
            checked = DiagramMap(d1, d2, m.mapping)
            assert m == checked and hash(m) == hash(checked)
            assert type(m.mapping) is tuple

    @settings(max_examples=150, deadline=None)
    @given(crisp_pairs(max_size=7))
    def test_find_isos_is_brute_force_on_crisp_pairs(self, pair):
        self.assert_brute_force(*pair)

    @settings(max_examples=40, deadline=None)
    @given(fuzzy_pairs(max_size=7))
    def test_find_isos_is_brute_force_on_fuzzy_pairs(self, pair):
        self.assert_brute_force(*pair)

    @settings(max_examples=150, deadline=None)
    @given(crisp_pairs(max_size=8))
    def test_count_is_the_length_of_the_list_on_crisp_pairs(self, pair):
        assert count_isos(*pair) == len(find_isos(*pair))

    @settings(max_examples=40, deadline=None)
    @given(fuzzy_pairs(max_size=8))
    def test_count_is_the_length_of_the_list_on_fuzzy_pairs(self, pair):
        assert count_isos(*pair) == len(find_isos(*pair))

    def test_iter_isos_is_lazy_and_in_list_order(self):
        square = canonical_square()
        assert [m.mapping for m in iter_isos(square, square)] == [
            m.mapping for m in find_isos(square, square)
        ]
        ten = contrary_atoms(MAX_ISO_FRAGMENT)
        first = list(itertools.islice(iter_isos(ten, ten), 3))
        assert [m.mapping[-3:] for m in first] == [(7, 8, 9), (7, 9, 8), (8, 7, 9)]

    def test_count_at_the_size_limit(self):
        ten = contrary_atoms(MAX_ISO_FRAGMENT)
        assert count_isos(ten, ten) == math.factorial(MAX_ISO_FRAGMENT)
        assert count_isos(canonical_square(), canonical_square()) == 2
        assert count_isos(canonical_square(), contrary_atoms(4)) == 0
        assert count_isos(canonical_square(), contrary_atoms(3)) == 0

    def test_every_entry_point_refuses_large_fragments(self):
        b = BooleanAlgebra.of(4)
        big = Diagram(b, tuple(b.element(i) for i in range(MAX_ISO_FRAGMENT + 1)))
        for search in (find_isos, iter_isos, count_isos):
            with pytest.raises(ValueError, match="larger than 10"):
                search(big, big)


class TestIsomorphisms:
    def setup_method(self):
        self.square = canonical_square()

    def test_identity_is_iso(self):
        assert check_iso(DiagramMap.identity(self.square))

    def test_mirror_is_iso(self):
        # swap A with E and I with O
        assert check_iso(DiagramMap(self.square, self.square, (1, 0, 3, 2)))

    def test_swapping_a_and_i_is_not_iso(self):
        assert not check_iso(DiagramMap(self.square, self.square, (2, 1, 0, 3)))

    def test_non_bijective_map_rejected(self):
        with pytest.raises(ValueError):
            check_iso(DiagramMap(self.square, self.square, (0, 0, 2, 3)))

    def test_map_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError) as exc:
            DiagramMap(self.square, self.square, (0, 1, 2))
        assert str(exc.value) == "mapping must list 4 target indices, got 3"

    def test_square_has_exactly_two_isos(self):
        found = find_isos(self.square, self.square)
        assert [m.mapping for m in found] == [(0, 1, 2, 3), (1, 0, 3, 2)]

    def test_brute_force_oracle(self):
        table = relation_table(self.square)
        expected = []
        for perm in itertools.permutations(range(4)):
            if all(
                table[i][j] == table[perm[i]][perm[j]]
                for i in range(4)
                for j in range(4)
            ):
                expected.append(perm)
        assert [m.mapping for m in find_isos(self.square, self.square)] == expected

    def test_size_mismatch_gives_empty(self):
        b = BooleanAlgebra.of(2)
        single = Diagram(b, (b.from_atoms(["a"]),))
        assert find_isos(self.square, single) == []

    def test_two_singletons_have_one_iso(self):
        b = BooleanAlgebra.of(2)
        d1 = Diagram(b, (b.from_atoms(["a"]),))
        d2 = Diagram(b, (b.from_atoms(["b"]),))
        assert [m.mapping for m in find_isos(d1, d2)] == [(0,)]

    def test_large_fragments_refused(self):
        b = BooleanAlgebra.of(4)
        big = Diagram(b, tuple(b.element(i) for i in range(11)))
        with pytest.raises(ValueError):
            find_isos(big, big)


class TestInfomorphisms:
    def setup_method(self):
        self.square = canonical_square()

    def test_identity_passes(self):
        assert check_infomorphism(DiagramMap.identity(self.square))

    def test_every_iso_passes(self):
        for m in find_isos(self.square, self.square):
            assert check_infomorphism(m)

    def test_collapsing_c_onto_un_fails(self):
        b3 = BooleanAlgebra.of(3)
        source = Diagram(b3, (b3.from_atoms(["a"]), b3.from_atoms(["b"])))  # a C pair
        b4 = BooleanAlgebra.of(4)
        target = Diagram(
            b4, (b4.from_atoms(["a", "b"]), b4.from_atoms(["b", "c"]))
        )  # an Un pair
        assert classify(*source.fragment) is C
        assert classify(*target.fragment) is UN
        assert not check_infomorphism(DiagramMap(source, target, (0, 1)))

    def test_un_to_c_passes(self):
        b4 = BooleanAlgebra.of(4)
        source = Diagram(b4, (b4.from_atoms(["a", "b"]), b4.from_atoms(["b", "c"])))
        b3 = BooleanAlgebra.of(3)
        target = Diagram(b3, (b3.from_atoms(["a"]), b3.from_atoms(["b"])))
        assert check_infomorphism(DiagramMap(source, target, (0, 1)))

    def test_found_isos_are_infomorphisms_on_random_diagrams(self):
        rng = random.Random(5)
        for _ in range(25):
            d1 = random_crisp_diagram(rng)
            d2 = random_crisp_diagram(rng)
            for m in find_isos(d1, d2):
                assert check_infomorphism(m)

    def test_composition_of_infomorphisms_is_infomorphism(self):
        rng = random.Random(11)
        found = 0
        while found < 40:
            d1 = random_crisp_diagram(rng, max_fragment=3)
            d2 = random_crisp_diagram(rng, max_fragment=3)
            d3 = random_crisp_diagram(rng, max_fragment=3)
            m1 = DiagramMap(
                d1, d2, tuple(rng.randrange(len(d2.fragment)) for _ in d1.fragment)
            )
            m2 = DiagramMap(
                d2, d3, tuple(rng.randrange(len(d3.fragment)) for _ in d2.fragment)
            )
            if check_infomorphism(m1) and check_infomorphism(m2):
                found += 1
                assert check_infomorphism(compose_maps(m1, m2))

    def test_non_integer_entries_rejected(self):
        class Two:
            def __index__(self):
                return 2

        m = DiagramMap(self.square, self.square, [0, 1, Two(), 3])
        assert m.mapping == (0, 1, 2, 3) and all(type(j) is int for j in m.mapping)
        for bad in (0.5, "1", None, 2.0):
            with pytest.raises(ValueError, match="must be integers"):
                DiagramMap(self.square, self.square, (bad, 1, 2, 3))

    def test_compose_requires_matching_middle(self):
        b = BooleanAlgebra.of(2)
        other = Diagram(b, (b.from_atoms(["a"]),))
        m = DiagramMap.identity(self.square)
        with pytest.raises(ValueError):
            compose_maps(m, DiagramMap.identity(other))


@st.composite
def composable_maps(draw):
    """Two random maps d1 -> d2 -> d3 between crisp diagrams on 1-4 atoms."""
    diagrams = []
    for _ in range(3):
        algebra = BooleanAlgebra.of(draw(st.integers(1, 4)))
        bits = draw(st.lists(st.integers(0, algebra.mask), min_size=1, max_size=6, unique=True))
        diagrams.append(Diagram(algebra, tuple(map(algebra.element, bits))))
    maps = []
    for source, target in zip(diagrams, diagrams[1:]):
        index = st.integers(0, len(target.fragment) - 1)
        mapping = draw(st.lists(index, min_size=len(source), max_size=len(source)))
        maps.append(DiagramMap(source, target, tuple(mapping)))
    return tuple(maps)


class TestTrustedMaps:
    """Composites and identities skip re-validation, and equal checked maps."""

    @staticmethod
    def assert_checked(m):
        checked = DiagramMap(m.source, m.target, m.mapping)
        assert m == checked and hash(m) == hash(checked)
        assert type(m.mapping) is tuple and all(type(j) is int for j in m.mapping)

    @settings(max_examples=150, deadline=None)
    @given(composable_maps())
    def test_composite_equals_the_validated_map(self, maps):
        first, second = maps
        composite = compose_maps(first, second)
        self.assert_checked(composite)
        assert composite.mapping == tuple(second.mapping[j] for j in first.mapping)
        for d in (first.source, first.target, second.target):
            self.assert_checked(DiagramMap.identity(d))
        assert compose_maps(DiagramMap.identity(first.source), first) == first
        assert compose_maps(first, DiagramMap.identity(first.target)) == first
