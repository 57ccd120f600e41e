import itertools
import random
from fractions import Fraction

import pytest

from squareop.algebra import BooleanAlgebra, element_label
from squareop.ifrel import IFRelation, identity_relation
from squareop.iflattice import (
    IFLattice,
    PreconditionError,
    certify,
    powerset_lattice,
)
from squareop.sampling import random_fuzzy_powerset_order

F = Fraction


def lattice_from_leq(labels, leq_pairs):
    """Crisp embedding of an explicit reflexive-transitive order relation."""
    holds = [[(x, y) in leq_pairs or x == y for y in labels] for x in labels]
    return IFLattice(IFRelation.from_bool(labels, labels, holds))


def chain(n):
    labels = tuple(f"c{i}" for i in range(n))
    pairs = {(labels[i], labels[j]) for i in range(n) for j in range(i, n)}
    return lattice_from_leq(labels, pairs)


def diamond_m3():
    # bottom, three incomparable middles, top
    labels = ("bot", "p", "q", "r", "top")
    pairs = {("bot", m) for m in labels} | {(m, "top") for m in labels}
    return lattice_from_leq(labels, pairs)


def pentagon_n5():
    # bot < a < top, bot < b < c < top, a incomparable with b and c
    pairs = {
        ("bot", "a"), ("bot", "b"), ("bot", "c"), ("bot", "top"),
        ("a", "top"), ("b", "c"), ("b", "top"), ("c", "top"),
    }
    return lattice_from_leq(("bot", "a", "b", "c", "top"), pairs)


def bowtie():
    # two minimal elements under two incomparable upper bounds
    pairs = {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    return lattice_from_leq(("a", "b", "c", "d"), pairs)


class TestUnderlyingOrder:
    def test_identity_relation_gives_equality_order(self):
        lat = IFLattice(identity_relation(("x", "y", "z")))
        assert lat.underlying_order == (
            (True, False, False),
            (False, True, False),
            (False, False, True),
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_embedded_subset_order_is_subset_order(self, n):
        algebra = BooleanAlgebra.of(n)
        lat = powerset_lattice(algebra)
        elems = list(algebra.elements())
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert lat.underlying_order[i][j] == x.leq(y)

    def test_hesitant_edge_still_orders(self):
        labels = ("a", "b")
        r = IFRelation(
            labels, labels,
            ((F(1), F(0)), (F(0), F(1))),
            ((F(0), F(1, 2)), (F(1), F(0))),
        )
        lat = IFLattice(r)
        assert lat.dominates("a", "b")
        assert not lat.dominates("b", "a")

    def test_non_partial_order_rejected(self):
        labels = ("x", "y")
        mu = ((F(1), F(1, 2)), (F(1, 2), F(1)))
        nu = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        with pytest.raises(ValueError, match="partial order"):
            IFLattice(IFRelation(labels, labels, mu, nu))

    def test_carrier_size_cap(self):
        labels = tuple(f"x{i}" for i in range(17))
        with pytest.raises(ValueError, match="carrier"):
            IFLattice(identity_relation(labels))

    @pytest.mark.parametrize("atoms", [5, 16])
    def test_powerset_lattice_refused_before_building_the_matrix(self, atoms):
        # a 16-atom inclusion matrix would hold 2**32 cells
        with pytest.raises(ValueError, match=f"{atoms}-atom algebra .* larger than 16"):
            powerset_lattice(BooleanAlgebra.of(atoms))

    def test_derived_order_of_random_fuzzy_orders_is_partial_order(self):
        rng = random.Random(13)
        for _ in range(20):
            lat = random_fuzzy_powerset_order(rng, rng.randint(1, 3))
            leq = lat.underlying_order
            n = len(lat.carrier)
            for i in range(n):
                assert leq[i][i]
            for i, j in itertools.product(range(n), repeat=2):
                if leq[i][j] and leq[j][i]:
                    assert i == j
            for i, j, k in itertools.product(range(n), repeat=3):
                if leq[i][j] and leq[j][k]:
                    assert leq[i][k]


class TestBounds:
    def test_lub_is_idempotent(self):
        lat = chain(3)
        for x in lat.carrier:
            assert lat.lub(x, x) == x
            assert lat.glb(x, x) == x

    def test_powerset_lub_glb_match_join_meet(self):
        algebra = BooleanAlgebra.of(2)
        lat = powerset_lattice(algebra)
        x = algebra.from_atoms(["a"])
        y = algebra.from_atoms(["b"])
        assert lat.lub(element_label(x), element_label(y)) == element_label(x.join(y))
        assert lat.glb(element_label(x), element_label(y)) == element_label(x.meet(y))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_powerset_tables_match_bitmask_oracle(self, n):
        algebra = BooleanAlgebra.of(n)
        lat = powerset_lattice(algebra)
        for x, y in itertools.product(algebra.elements(), repeat=2):
            assert lat.lub(element_label(x), element_label(y)) == element_label(x | y)
            assert lat.glb(element_label(x), element_label(y)) == element_label(x & y)

    def test_antichain_has_no_lub(self):
        lat = IFLattice(identity_relation(("x", "y")))
        assert lat.lub("x", "y") is None
        assert lat.glb("x", "y") is None

    def test_unknown_carrier_element(self):
        lat = chain(2)
        with pytest.raises(KeyError):
            lat.lub("nope", "c0")


class TestIsLattice:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_chains_are_lattices(self, n):
        assert chain(n).is_lattice

    def test_bowtie_is_not_a_lattice(self):
        # the pair (a, b) has two minimal upper bounds
        assert not bowtie().is_lattice

    def test_n_shaped_poset_is_not_a_lattice(self):
        pairs = {("a", "c"), ("b", "c"), ("b", "d")}
        assert not lattice_from_leq(("a", "b", "c", "d"), pairs).is_lattice

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_powerset_orders_are_lattices(self, n):
        assert powerset_lattice(BooleanAlgebra.of(n)).is_lattice


class TestDistributivity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_powerset_is_distributive(self, n):
        assert powerset_lattice(BooleanAlgebra.of(n)).is_distributive

    def test_m3_is_not_distributive(self):
        assert diamond_m3().is_lattice
        assert not diamond_m3().is_distributive

    def test_n5_is_not_distributive(self):
        assert pentagon_n5().is_lattice
        assert not pentagon_n5().is_distributive

    def test_requires_lattice(self):
        with pytest.raises(PreconditionError):
            bowtie().is_distributive

    def test_distributive_lattices_have_unique_complements(self):
        rng = random.Random(31)
        for _ in range(10):
            lat = random_fuzzy_powerset_order(rng, rng.randint(1, 3))
            assert lat.is_distributive
            for x in lat.carrier:
                assert len(lat.find_complements(x)) == 1


class TestComplements:
    def test_bounds_complement_each_other(self):
        lat = powerset_lattice(BooleanAlgebra.of(2))
        assert lat.find_complements(lat.bottom) == (lat.top,)
        assert lat.find_complements(lat.top) == (lat.bottom,)

    def test_powerset_complement_matches_set_complement(self):
        algebra = BooleanAlgebra.of(2)
        lat = powerset_lattice(algebra)
        x = algebra.from_atoms(["a"])
        assert lat.find_complements(element_label(x)) == (element_label(~x),)

    def test_chain_middle_has_no_complement(self):
        lat = chain(3)
        assert lat.find_complements("c1") == ()
        assert not lat.is_complemented

    def test_m3_middles_have_multiple_complements(self):
        comps = diamond_m3().find_complements("p")
        assert set(comps) == {"q", "r"}
        assert diamond_m3().is_complemented


class TestDeMorgan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holds_on_embedded_powerset_lattices(self, n):
        assert powerset_lattice(BooleanAlgebra.of(n)).check_de_morgan() is True

    def test_one_element_lattice(self):
        assert IFLattice(identity_relation(("x",))).check_de_morgan() is True

    def test_preconditions_reported(self):
        with pytest.raises(PreconditionError) as exc:
            chain(3).check_de_morgan()
        assert "complemented" in exc.value.failed
        with pytest.raises(PreconditionError) as exc:
            diamond_m3().check_de_morgan()
        assert "distributive" in exc.value.failed

    def test_not_a_lattice_reported(self):
        with pytest.raises(PreconditionError) as exc:
            bowtie().check_de_morgan()
        assert "lattice" in exc.value.failed


class TestBooleanAlgebraCertification:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_embedded_powerset_is_if_boolean_algebra(self, n):
        assert powerset_lattice(BooleanAlgebra.of(n)).is_if_boolean_algebra

    def test_m3_is_not(self):
        assert not diamond_m3().is_if_boolean_algebra

    def test_chain_is_not(self):
        assert not chain(3).is_if_boolean_algebra

    def test_certify_full_ladder(self):
        cert = certify(powerset_lattice(BooleanAlgebra.of(2)).order)
        assert cert.partial_order and cert.lattice and cert.distributive
        assert cert.complemented and cert.if_boolean_algebra
        assert cert.de_morgan == "holds"

    def test_certify_non_order(self):
        labels = ("x", "y")
        mu = ((F(1), F(1, 2)), (F(1, 2), F(1)))
        nu = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        cert = certify(IFRelation(labels, labels, mu, nu))
        assert cert.reflexive and not cert.perfectly_antisymmetric
        assert not cert.partial_order
        assert cert.lattice is None and cert.distributive is None
        assert not cert.if_boolean_algebra

    def test_certify_non_lattice(self):
        cert = certify(bowtie().order)
        assert cert.partial_order and cert.lattice is False
        assert cert.de_morgan == "preconditions-unmet"

    def test_random_fuzzy_powerset_orders_certify(self):
        rng = random.Random(77)
        for _ in range(15):
            lat = random_fuzzy_powerset_order(rng, rng.randint(1, 3))
            cert = certify(lat.order)
            assert cert.if_boolean_algebra
            assert cert.de_morgan == "holds"
