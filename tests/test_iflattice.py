import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from squareop.algebra import BooleanAlgebra, element_label
from squareop.ifrel import IFRelation, identity_relation, transitive_closure
from squareop.iflattice import (
    _STRUCTURE_CACHE_SIZE,
    IFLattice,
    LawViolationError,
    PreconditionError,
    _negation,
    _order_structure,
    certify,
    powerset_lattice,
)
from squareop.sampling import _permute_lattice, random_fuzzy_powerset_order

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


def antichain(n):
    return IFLattice(identity_relation(tuple(f"a{i}" for i in range(n))))


def n_shaped():
    pairs = {("a", "c"), ("b", "c"), ("b", "d")}
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

    def test_m3_middle_has_no_unique_complement(self):
        with pytest.raises(PreconditionError) as exc:
            diamond_m3().unique_complement("p")
        assert exc.value.failed == ("unique-complement",)

    def test_non_square_order_rejected(self):
        order = IFRelation.from_bool(("x", "y"), ("x",), [[True], [False]])
        with pytest.raises(ValueError, match="the order must be a square relation"):
            IFLattice(order)


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


class TestNegationSelfCheck:
    """The shared structure builds negation once per Boolean order and
    checks it against two theorems; a table breaking either is a fault."""

    def test_powerset_negation_is_set_complement(self):
        s = powerset_lattice(BooleanAlgebra.of(3))._structure
        # powerset carrier indices are the bitmasks
        assert s.neg == tuple(0b111 ^ i for i in range(8))
        assert _negation(s.lub, s.glb, s.complements) == s.neg

    def test_two_complements_for_one_element_raise(self):
        s = powerset_lattice(BooleanAlgebra.of(2))._structure
        complements = (s.complements[0], (1, 2), *s.complements[2:])
        with pytest.raises(LawViolationError, match="element 1 has 2 complements"):
            _negation(s.lub, s.glb, complements)

    def test_swapped_negation_breaks_de_morgan(self):
        s = powerset_lattice(BooleanAlgebra.of(3))._structure
        # neg({}) = {b,c} and neg({a}) = {a,b,c}: each a single entry
        complements = ((0b110,), (0b111,), *s.complements[2:])
        with pytest.raises(LawViolationError, match="De Morgan failure"):
            _negation(s.lub, s.glb, complements)


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

    @pytest.mark.parametrize(
        "order, fields",
        [
            # (reflexive, perfectly_antisymmetric, transitive, partial_order,
            #  lattice, distributive, complemented, de_morgan, if_boolean_algebra)
            (IFRelation(("x", "y"), ("x", "y"), ((F(1, 2), F(0)), (F(0), F(1))),
                        ((F(0), F(1)), (F(1), F(0)))),
             (False, True, True, False, None, None, None, "preconditions-unmet", False)),
            (IFRelation(("x", "y"), ("x", "y"), ((F(1), F(1, 2)), (F(1, 2), F(1))),
                        ((F(0), F(1, 2)), (F(1, 2), F(0)))),
             (True, False, True, False, None, None, None, "preconditions-unmet", False)),
            (IFRelation.from_bool(("a", "b", "c"), ("a", "b", "c"),
                                  [[True, True, False], [False, True, True],
                                   [False, False, True]]),
             (True, True, False, False, None, None, None, "preconditions-unmet", False)),
            (bowtie().order,
             (True, True, True, True, False, None, None, "preconditions-unmet", False)),
            (diamond_m3().order,
             (True, True, True, True, True, False, True, "preconditions-unmet", False)),
            (chain(3).order,
             (True, True, True, True, True, True, False, "preconditions-unmet", False)),
            (powerset_lattice(BooleanAlgebra.of(2)).order,
             (True, True, True, True, True, True, True, "holds", True)),
        ],
        ids=["reflexivity", "antisymmetry", "transitivity", "lattice", "distributivity",
             "complement", "none"],
    )
    def test_certify_stops_at_the_first_failing_rung(self, order, fields):
        cert = certify(order)
        names = ("reflexive", "perfectly_antisymmetric", "transitive", "partial_order",
                 "lattice", "distributive", "complemented", "de_morgan", "if_boolean_algebra")
        assert tuple(getattr(cert, name) for name in names) == fields

    def test_certify_checks_each_order_property_once(self, monkeypatch):
        # certify's own checks and IFLattice's partial-order check share them
        calls = Counter()
        for name in ("_reflexive", "_perfectly_antisymmetric", "_transitive"):
            compute = IFRelation.__dict__[name].func

            def counted(r, compute=compute, name=name):
                calls[name] += 1
                return compute(r)

            prop = cached_property(counted)
            prop.__set_name__(IFRelation, name)
            monkeypatch.setattr(IFRelation, name, prop)
        algebra = BooleanAlgebra.of(2)
        labels = tuple(element_label(e) for e in algebra.elements())
        holds = [[x.leq(y) for y in algebra.elements()] for x in algebra.elements()]
        cert = certify(IFRelation.from_bool(labels, labels, holds))
        assert cert.if_boolean_algebra
        assert calls == {"_reflexive": 1, "_perfectly_antisymmetric": 1, "_transitive": 1}

    def test_random_fuzzy_powerset_orders_certify(self):
        rng = random.Random(77)
        for _ in range(15):
            lat = random_fuzzy_powerset_order(rng, rng.randint(1, 3))
            cert = certify(lat.order)
            assert cert.if_boolean_algebra
            assert cert.de_morgan == "holds"


class ReferenceStructure(NamedTuple):
    lub: tuple
    glb: tuple
    is_lattice: bool
    bottom: int | None
    top: int | None
    distributive: bool | None
    complements: tuple | None


def reference_bound_table(leq, upper):
    """The list-scan bound table that the bitmask rows replaced."""
    n = len(leq)

    def bound(i, j):
        if upper:
            candidates = [k for k in range(n) if leq[i][k] and leq[j][k]]
        else:
            candidates = [k for k in range(n) if leq[k][i] and leq[k][j]]
        for u in candidates:
            if all((leq[u][k] if upper else leq[k][u]) for k in candidates):
                return u
        return None

    return tuple(tuple(bound(i, j) for j in range(n)) for i in range(n))


def reference_structure(leq):
    """Bounds, distributivity and complements by the list-scan algorithm,
    with both distributive identities checked over all triples."""
    n = len(leq)
    lub, glb = reference_bound_table(leq, True), reference_bound_table(leq, False)
    if any(None in row for row in lub + glb):
        return ReferenceStructure(lub, glb, False, None, None, None, None)
    bottom = next(k for k in range(n) if all(leq[k][i] for i in range(n)))
    top = next(k for k in range(n) if all(leq[i][k] for i in range(n)))
    distributive = all(
        glb[a][lub[b][c]] == lub[glb[a][b]][glb[a][c]]
        and lub[a][glb[b][c]] == glb[lub[a][b]][lub[a][c]]
        for a, b, c in itertools.product(range(n), repeat=3)
    )
    complements = tuple(
        tuple(j for j in range(n) if glb[i][j] == bottom and lub[i][j] == top)
        for i in range(n)
    )
    return ReferenceStructure(lub, glb, True, bottom, top, distributive, complements)


def assert_matches_reference(lat):
    labels = lat.carrier
    ref = reference_structure(lat.underlying_order)

    def label(k):
        return None if k is None else labels[k]

    for (i, x), (j, y) in itertools.product(enumerate(labels), repeat=2):
        assert lat.lub(x, y) == label(ref.lub[i][j])
        assert lat.glb(x, y) == label(ref.glb[i][j])
    assert lat.is_lattice == ref.is_lattice
    if not ref.is_lattice:
        for prop in ("bottom", "top", "is_distributive", "is_complemented"):
            with pytest.raises(PreconditionError):
                getattr(lat, prop)
        assert not lat.is_if_boolean_algebra
        with pytest.raises(PreconditionError) as exc:
            lat.check_de_morgan()
        assert exc.value.failed == ("lattice",)
        return
    assert (lat.bottom, lat.top) == (labels[ref.bottom], labels[ref.top])
    assert lat.is_distributive == ref.distributive
    for x, comps in zip(labels, ref.complements):
        assert lat.find_complements(x) == tuple(map(label, comps))
    complemented = all(ref.complements)
    boolean = ref.distributive and complemented
    assert lat.is_if_boolean_algebra == boolean
    if boolean:
        assert lat.check_de_morgan() is True
        for x, (comp,) in zip(labels, ref.complements):
            assert lat.unique_complement(x) == labels[comp]
    else:
        with pytest.raises(PreconditionError) as exc:
            lat.check_de_morgan()
        assert exc.value.failed == tuple(
            name
            for name, holds in (("complemented", complemented), ("distributive", ref.distributive))
            if not holds
        )


@st.composite
def posets(draw):
    """A random partial order on 1-16 points as an IFLattice, with its
    expected dominance matrix.

    The order is the transitive closure of a random DAG (edges from lower to
    higher index, optionally with a least and a greatest point adjoined)
    under a random relabeling.  Strict pairs either hold crisply or get
    random degrees with nu < 1, repaired by a transitive closure that keeps
    the support.
    """
    size = draw(st.integers(min_value=1, max_value=16))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from((0.1, 0.25, 0.5, 0.8)))
    bounded = draw(st.booleans())
    leq = [[i <= j and (i == j or rng.random() < density) for j in range(size)] for i in range(size)]
    if bounded:
        for i in range(size):
            leq[0][i] = leq[i][size - 1] = True
    for k, i, j in itertools.product(range(size), repeat=3):
        leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    perm = draw(st.permutations(range(size)))
    holds = [[False] * size for _ in range(size)]
    for i, j in itertools.product(range(size), repeat=2):
        holds[perm[i]][perm[j]] = leq[i][j]
    labels = tuple(f"p{i}" for i in range(size))
    if not draw(st.booleans()):
        return IFLattice(IFRelation.from_bool(labels, labels, holds)), holds
    q = 12
    mu = [[F(int(i == j)) for j in range(size)] for i in range(size)]
    nu = [[F(int(i != j)) for j in range(size)] for i in range(size)]
    for i, j in itertools.product(range(size), repeat=2):
        if i != j and holds[i][j]:
            a = rng.randint(0, q)
            mu[i][j], nu[i][j] = F(a, q), F(rng.randint(0, q - max(a, 1)), q)
    relation = transitive_closure(IFRelation(labels, labels, mu, nu))
    return IFLattice(relation), holds


class TestAgainstListScanReference:
    """The bitmask rows and the shared structure reproduce the list-scan
    bound tables, the triple-loop distributivity check and complements."""

    @settings(max_examples=300, deadline=None)
    @given(posets())
    def test_random_posets(self, drawn):
        lat, holds = drawn
        assert lat.underlying_order == tuple(map(tuple, holds))
        for x, y in itertools.product(lat.carrier, repeat=2):
            assert lat.dominates(x, y) == holds[lat.index(x)][lat.index(y)]
        assert_matches_reference(lat)

    @pytest.mark.parametrize(
        "make",
        [diamond_m3, pentagon_n5, bowtie, n_shaped]
        + [lambda n=n: chain(n) for n in (1, 2, 3, 5, 16)]
        + [lambda n=n: antichain(n) for n in (1, 2, 3, 16)]
        + [lambda n=n: powerset_lattice(BooleanAlgebra.of(n)) for n in (1, 2, 3, 4)],
    )
    def test_named_orders(self, make):
        assert_matches_reference(make())


class TestSharedStructure:
    """Lattices with one derived order share one structure object."""

    @pytest.mark.parametrize("atoms", [1, 2, 3, 4])
    def test_fuzzifications_and_relabelings_share(self, atoms):
        rng = random.Random(8)
        lattices = [random_fuzzy_powerset_order(rng, atoms) for _ in range(4)]
        perms = list(itertools.permutations(range(atoms)))
        lattices += [_permute_lattice(lat, rng.choice(perms))[0] for lat in lattices]
        shared = powerset_lattice(BooleanAlgebra.of(atoms))._structure
        assert len({lat.order for lat in lattices}) > 1
        assert all(lat._structure is shared for lat in lattices)

    @pytest.mark.parametrize(
        "first, second",
        [(chain(3), antichain(3)), (diamond_m3(), pentagon_n5())],
    )
    def test_different_orders_on_one_carrier_do_not_share(self, first, second):
        relabeled = IFRelation(
            first.carrier, first.carrier, second.order.mu, second.order.nu
        )
        second = IFLattice(relabeled)
        assert first.carrier == second.carrier
        assert first._structure is not second._structure
        assert first.underlying_order != second.underlying_order

    def test_cache_bound_is_a_fixed_int(self):
        assert type(_STRUCTURE_CACHE_SIZE) is int and _STRUCTURE_CACHE_SIZE > 0
        assert _order_structure.cache_info().maxsize == _STRUCTURE_CACHE_SIZE
