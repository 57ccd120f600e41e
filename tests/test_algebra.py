import itertools

import pytest
from hypothesis import given, strategies as st

from squareop.algebra import (
    AlgebraMismatchError,
    BooleanAlgebra,
    Element,
    element_label,
    verify_axioms,
)


def set_of(e):
    """Independent reading of an element as a set of atom labels."""
    return frozenset(a for i, a in enumerate(e.algebra.atoms) if e.bits >> i & 1)


class TestOperations:
    def setup_method(self):
        self.b3 = BooleanAlgebra.of(3)

    def test_meet_is_absorption_forced(self):
        x = self.b3.from_atoms(["a"])
        y = self.b3.from_atoms(["a", "b"])
        assert x.meet(y) == x

    def test_meet_with_bottom(self):
        for x in self.b3.elements():
            assert self.b3.bottom.meet(x) == self.b3.bottom

    def test_meet_matches_set_intersection(self):
        x = self.b3.from_atoms(["a", "c"])
        y = self.b3.from_atoms(["b", "c"])
        assert set_of(x.meet(y)) == set_of(x) & set_of(y) == frozenset({"c"})

    def test_join_with_top(self):
        for x in self.b3.elements():
            assert self.b3.top.join(x) == self.b3.top

    def test_join_idempotent(self):
        for x in self.b3.elements():
            assert x.join(x) == x

    def test_join_matches_set_union(self):
        x = self.b3.from_atoms(["a"])
        y = self.b3.from_atoms(["b"])
        assert set_of(x.join(y)) == frozenset({"a", "b"})

    def test_complement_of_bottom_is_top(self):
        assert self.b3.bottom.complement() == self.b3.top

    def test_complement_matches_set_complement(self):
        b2 = BooleanAlgebra.of(2)
        x = b2.from_atoms(["a"])
        assert set_of(x.complement()) == frozenset({"b"})

    def test_complement_involutive(self):
        for x in self.b3.elements():
            assert x.complement().complement() == x

    def test_leq_bottom_below_everything(self):
        for x in self.b3.elements():
            assert self.b3.bottom.leq(x)

    def test_leq_matches_subset(self):
        x = self.b3.from_atoms(["a"])
        y = self.b3.from_atoms(["a", "b"])
        z = self.b3.from_atoms(["b"])
        assert x.leq(y)
        assert not x.leq(z)

    def test_leq_exhaustive_subset_oracle(self):
        for x in self.b3.elements():
            for y in self.b3.elements():
                assert x.leq(y) == (set_of(x) <= set_of(y))
                assert x.lt(y) == (set_of(x) < set_of(y))

    def test_operator_sugar(self):
        x = self.b3.from_atoms(["a"])
        y = self.b3.from_atoms(["a", "b"])
        assert (x & y) == x.meet(y)
        assert (x | y) == x.join(y)
        assert ~x == x.complement()
        assert (x <= y) and (x < y)

    def test_mixed_algebra_operands_rejected(self):
        other = BooleanAlgebra.of(3)
        renamed = BooleanAlgebra(("p", "q", "r"))
        x = other.element(1)
        with pytest.raises(AlgebraMismatchError):
            x.meet(renamed.element(1))
        with pytest.raises(AlgebraMismatchError):
            x.join(renamed.element(1))
        with pytest.raises(AlgebraMismatchError):
            x.leq(renamed.element(1))

    def test_equal_algebras_interoperate(self):
        # same atom labels means same algebra, regardless of instance
        x = BooleanAlgebra.of(2).element(1)
        y = BooleanAlgebra.of(2).element(2)
        assert x.join(y) == BooleanAlgebra.of(2).top


class TestConstruction:
    def test_atom_count_bounds(self):
        with pytest.raises(ValueError):
            BooleanAlgebra.of(0)
        with pytest.raises(ValueError):
            BooleanAlgebra.of(17)
        assert BooleanAlgebra.of(16).carrier_size == 2**16

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            BooleanAlgebra(("a", "a"))

    @pytest.mark.parametrize("atoms, message", [
        ((), "atom count must be between 1 and 16, got 0"),
        (tuple("abcdefghijklmnopq"), "atom count must be between 1 and 16, got 17"),
        (("a", ""), "atom labels must be non-empty strings"),
    ], ids=["0-atoms", "17-atoms", "blank-atom"])
    def test_constructor_refusals(self, atoms, message):
        with pytest.raises(ValueError) as exc:
            BooleanAlgebra(atoms)
        assert str(exc.value) == message

    def test_of_shares_one_instance_per_atom_count(self):
        assert BooleanAlgebra.of(3) is BooleanAlgebra.of(3)
        assert BooleanAlgebra.of(3) == BooleanAlgebra(("a", "b", "c"))

    @pytest.mark.parametrize("index", [-1, 3])
    def test_atom_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"atom index {index} out of range"):
            BooleanAlgebra.of(3).atom(index)

    def test_meet_with_a_non_element(self):
        with pytest.raises(TypeError, match="expected an Element, got int"):
            BooleanAlgebra.of(2).top.meet(1)

    def test_element_bits_range(self):
        b = BooleanAlgebra.of(2)
        with pytest.raises(ValueError):
            Element(4, b)
        with pytest.raises(ValueError):
            Element(-1, b)

    def test_unknown_atom_label(self):
        with pytest.raises(ValueError):
            BooleanAlgebra.of(2).from_atoms(["z"])

    def test_element_label(self):
        b = BooleanAlgebra.of(3)
        assert element_label(b.bottom) == "{}"
        assert element_label(b.from_atoms(["a", "c"])) == "{a,c}"

    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_from_atoms_roundtrip(self, n, data):
        b = BooleanAlgebra.of(n)
        labels = data.draw(st.sets(st.sampled_from(b.atoms)))
        e = b.from_atoms(labels)
        assert frozenset(e.atom_labels()) == frozenset(labels)


class TestVerifyAxioms:
    def test_check_of_an_unknown_law(self):
        with pytest.raises(KeyError):
            verify_axioms(BooleanAlgebra.of(1)).check("no such law")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_laws_pass(self, n):
        report = verify_axioms(BooleanAlgebra.of(n))
        assert report.all_pass
        assert report.groups_passing == (1, 2, 3, 4, 5)

    def test_two_element_algebra(self):
        assert verify_axioms(BooleanAlgebra.of(1)).all_pass

    def test_associativity_triple_count(self):
        report = verify_axioms(BooleanAlgebra.of(3))
        assert report.check("associativity").checked == 8**3 == 512

    def test_corrupted_complement_caught_with_witness(self):
        # remap the complement of bottom to bottom itself
        report = verify_axioms(BooleanAlgebra.of(2), complement_override={0: 0})
        check = report.check("complementation")
        assert not check.holds
        assert check.counterexample == (BooleanAlgebra.of(2).bottom,)
        assert not report.all_pass
        # only group 5 is affected
        assert report.groups_passing == (1, 2, 3, 4)

    def test_exhaustive_mode_refused_beyond_four_atoms(self):
        with pytest.raises(ValueError, match="refus"):
            verify_axioms(BooleanAlgebra.of(5))

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_axioms(BooleanAlgebra.of(2), complement_override={0: 9})


class TestStructuralProperties:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_leq_is_partial_order(self, n):
        b = BooleanAlgebra.of(n)
        elems = list(b.elements())
        for x in elems:
            assert x.leq(x)
        for x, y in itertools.product(elems, repeat=2):
            if x.leq(y) and y.leq(x):
                assert x == y
        for x, y, z in itertools.product(elems, repeat=3):
            if x.leq(y) and y.leq(z):
                assert x.leq(z)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_de_morgan_laws(self, n):
        b = BooleanAlgebra.of(n)
        for x, y in itertools.product(b.elements(), repeat=2):
            assert (x | y).complement() == ~x & ~y
            assert (x & y).complement() == ~x | ~y
