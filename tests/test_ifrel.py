import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from squareop.degrees import MAX_DEGREE_DENOMINATOR, IFPair
from squareop.ifrel import (
    DegreeSumError,
    IFRelation,
    _bad_cell,
    compose,
    identity_relation,
    is_partial_order,
    is_perfectly_antisymmetric,
    is_reflexive,
    is_transitive,
    transitive_closure,
)
from squareop.sampling import random_if_relation

F = Fraction


def oracle_compose(r, s):
    """Direct max-min / min-max evaluation, independent of compose()."""
    mu, nu = [], []
    for i in range(len(r.source)):
        mu_row, nu_row = [], []
        for j in range(len(s.target)):
            mins = [min(r.mu[i][k], s.mu[k][j]) for k in range(len(r.target))]
            maxs = [max(r.nu[i][k], s.nu[k][j]) for k in range(len(r.target))]
            mu_row.append(max(mins))
            nu_row.append(min(maxs))
        mu.append(tuple(mu_row))
        nu.append(tuple(nu_row))
    return IFRelation(r.source, s.target, tuple(mu), tuple(nu))


def oracle_closure(r):
    """Squaring to a fixpoint in Fraction arithmetic, independent of
    transitive_closure()."""
    current = r
    n = len(r.source)
    while True:
        comp = oracle_compose(current, current)
        mu = tuple(
            tuple(max(current.mu[i][j], comp.mu[i][j]) for j in range(n)) for i in range(n)
        )
        nu = tuple(
            tuple(min(current.nu[i][j], comp.nu[i][j]) for j in range(n)) for i in range(n)
        )
        nxt = IFRelation(r.source, r.target, mu, nu)
        if nxt.mu == current.mu and nxt.nu == current.nu:
            return nxt
        current = nxt


def oracle_reflexive(r):
    return all(r.mu[i][i] == 1 and r.nu[i][i] == 0 for i in range(len(r.source)))


def oracle_antisymmetric(r):
    n = len(r.source)
    for i in range(n):
        for j in range(n):
            holds = r.mu[i][j] > 0 or (r.mu[i][j] == 0 and r.nu[i][j] < 1)
            if i != j and holds and not (r.mu[j][i] == 0 and r.nu[j][i] == 1):
                return False
    return True


def oracle_transitive(r):
    rr = oracle_compose(r, r)
    n = len(r.source)
    return all(
        rr.mu[i][j] <= r.mu[i][j] and rr.nu[i][j] >= r.nu[i][j]
        for i in range(n)
        for j in range(n)
    )


def crisp(labels, holds):
    return IFRelation.from_bool(labels, labels, holds)


class TestRelationConstruction:
    def test_cell_invariant_enforced_with_indices(self):
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            IFRelation(
                ("x", "y"),
                ("x", "y"),
                ((F(0), F(0)), (F(3, 4), F(0))),
                ((F(1), F(1)), (F(1, 2), F(1))),
            )

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            IFRelation(("x", "y"), ("x", "y"), ((F(0),),), ((F(1),),))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            identity_relation(("x", "x"))

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="source set must not be empty"):
            IFRelation((), (), (), ())

    def test_from_bool_shape_checked(self):
        with pytest.raises(ValueError, match="holds matrix must be 2x1"):
            IFRelation.from_bool(("x", "y"), ("x",), [[True]])

    def test_common_denominator_is_bounded_before_the_degree_sum(self):
        # 40 elements, each mu cell over its own 128-bit denominator: refused
        # as the JSON reader refuses it, before any int cell is built
        rng = random.Random(1)
        labels = tuple(f"e{i}" for i in range(40))
        mu = [[F(1, rng.randint(2**127, 2**128)) for _ in labels] for _ in labels]
        nu = [[F(0)] * len(labels) for _ in labels]
        pairs = [[IFPair(a, b) for a, b in zip(*rows)] for rows in zip(mu, nu)]
        with pytest.raises(ValueError, match="common denominator refused") as info:
            IFRelation.from_pairs(labels, labels, pairs)
        assert not isinstance(info.value, DegreeSumError)
        nu[0][1] = F(1)  # mu + nu > 1 at (0, 1)
        with pytest.raises(ValueError, match="common denominator refused") as info:
            IFRelation(labels, labels, mu, nu)
        assert not isinstance(info.value, DegreeSumError)

    def test_pair_accessors(self):
        r = identity_relation(("x", "y"))
        assert r.pair(0, 0) == IFPair(F(1), F(0))
        assert r.pair_of("x", "y") == IFPair(F(0), F(1))


class TestCompose:
    def test_identity_is_right_identity(self):
        rng = random.Random(3)
        r = random_if_relation(rng, ("x", "y", "z"), ("x", "y", "z"))
        assert compose(r, identity_relation(("x", "y", "z"))) == r

    def test_identity_is_left_identity(self):
        rng = random.Random(4)
        r = random_if_relation(rng, ("x", "y"), ("x", "y"))
        assert compose(identity_relation(("x", "y")), r) == r

    def test_hand_evaluated_cell(self):
        labels = ("p", "q")
        r = IFRelation(
            labels, labels,
            ((F(1), F(1, 2)), (F(0), F(1))),
            ((F(0), F(1, 4)), (F(1), F(0))),
        )
        s = IFRelation(
            labels, labels,
            ((F(1, 2), F(0)), (F(1), F(1))),
            ((F(1, 4), F(1)), (F(0), F(0))),
        )
        out = compose(r, s)
        # max(min(1, 1/2), min(1/2, 1))
        assert out.mu[0][0] == F(1, 2)
        assert out == oracle_compose(r, s)

    def test_crisp_composition_matches_boolean_matrix_product(self):
        labels = ("x", "y")
        matrices = list(itertools.product([False, True], repeat=4))
        for cells_r in matrices:
            for cells_s in matrices:
                hr = [list(cells_r[:2]), list(cells_r[2:])]
                hs = [list(cells_s[:2]), list(cells_s[2:])]
                product = [
                    [any(hr[i][k] and hs[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)
                ]
                assert compose(crisp(labels, hr), crisp(labels, hs)) == crisp(
                    labels, product
                )

    def test_set_mismatch_rejected(self):
        r = identity_relation(("x", "y"))
        s = identity_relation(("a", "b"))
        with pytest.raises(ValueError):
            compose(r, s)

    def test_associativity_on_seeded_random_triples(self):
        rng = random.Random(99)
        for _ in range(60):
            sizes = [rng.randint(1, 5) for _ in range(4)]
            sets = [tuple(f"s{k}_{i}" for i in range(n)) for k, n in enumerate(sizes)]
            r = random_if_relation(rng, sets[0], sets[1])
            s = random_if_relation(rng, sets[1], sets[2])
            t = random_if_relation(rng, sets[2], sets[3])
            assert compose(compose(r, s), t) == compose(r, compose(s, t))

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_composition_preserves_cell_invariant(self, seed):
        rng = random.Random(seed)
        labels = tuple(f"e{i}" for i in range(rng.randint(1, 4)))
        r = random_if_relation(rng, labels, labels)
        s = random_if_relation(rng, labels, labels)
        out = compose(r, s)
        for i in range(len(labels)):
            for j in range(len(labels)):
                assert out.mu[i][j] + out.nu[i][j] <= 1


class TestIdentityRelation:
    def test_singleton(self):
        r = identity_relation(("x",))
        assert r.mu == ((F(1),),) and r.nu == ((F(0),),)

    def test_is_reflexive(self):
        assert is_reflexive(identity_relation(("x", "y", "z")))

    def test_compose_with_itself(self):
        ident = identity_relation(("x", "y"))
        assert compose(ident, ident) == ident

    def test_is_partial_order(self):
        assert is_partial_order(identity_relation(("x", "y", "z")))


class TestOrderProperties:
    def test_all_zero_mu_not_reflexive(self):
        labels = ("x", "y")
        r = IFRelation(
            labels, labels,
            ((F(0), F(0)), (F(0), F(0))),
            ((F(1), F(1)), (F(1), F(1))),
        )
        assert not is_reflexive(r)

    def test_reflexive_ignores_off_diagonal(self):
        rng = random.Random(8)
        for _ in range(20):
            labels = ("x", "y", "z")
            r = random_if_relation(rng, labels, labels)
            mu = tuple(
                tuple(F(1) if i == j else r.mu[i][j] for j in range(3)) for i in range(3)
            )
            nu = tuple(
                tuple(F(0) if i == j else r.nu[i][j] for j in range(3)) for i in range(3)
            )
            assert is_reflexive(IFRelation(labels, labels, mu, nu))

    def test_antisymmetric_when_reverse_fully_fails(self):
        labels = ("x", "y")
        r = IFRelation(
            labels, labels,
            ((F(1), F(1, 2)), (F(0), F(1))),
            ((F(0), F(1, 4)), (F(1), F(0))),
        )
        assert is_perfectly_antisymmetric(r)

    def test_not_antisymmetric_when_both_directions_hold(self):
        labels = ("x", "y")
        r = IFRelation(
            labels, labels,
            ((F(1), F(1, 2)), (F(1, 4), F(1))),
            ((F(0), F(1, 4)), (F(1, 2), F(0))),
        )
        assert not is_perfectly_antisymmetric(r)

    def test_hesitant_edge_counts_as_holding(self):
        # mu = 0 but nu < 1 still triggers the antisymmetry antecedent
        labels = ("x", "y")
        r = IFRelation(
            labels, labels,
            ((F(1), F(0)), (F(0), F(1))),
            ((F(0), F(1, 2)), (F(1, 2), F(0))),
        )
        assert not is_perfectly_antisymmetric(r)

    def test_crisp_partial_order_embeds_to_partial_order(self):
        # subset order on the 2-atom powerset: indices are bitmasks
        labels = ("e0", "e1", "e2", "e3")
        holds = [[i & j == i for j in range(4)] for i in range(4)]
        r = crisp(labels, holds)
        assert is_reflexive(r)
        assert is_perfectly_antisymmetric(r)
        assert is_transitive(r)
        assert is_partial_order(r)

    def test_transitivity_counterexample_on_chain(self):
        labels = ("x", "y", "z")
        mu = (
            (F(1), F(1, 2), F(1, 4)),
            (F(0), F(1), F(1, 2)),
            (F(0), F(0), F(1)),
        )
        nu = (
            (F(0), F(1, 4), F(1, 2)),
            (F(1), F(0), F(1, 4)),
            (F(1), F(1), F(0)),
        )
        r = IFRelation(labels, labels, mu, nu)
        # mu(x, z) = 1/4 < min(mu(x, y), mu(y, z)) = 1/2
        assert not is_transitive(r)
        assert not is_partial_order(r)

    def test_symmetric_nontrivial_relation_is_not_partial_order(self):
        labels = ("x", "y")
        mu = ((F(1), F(1, 2)), (F(1, 2), F(1)))
        nu = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        assert not is_partial_order(IFRelation(labels, labels, mu, nu))

    def test_non_square_rejected(self):
        r = IFRelation(("x",), ("a", "b"), ((F(0), F(0)),), ((F(1), F(1)),))
        for check in (is_reflexive, is_perfectly_antisymmetric, is_transitive, is_partial_order):
            with pytest.raises(ValueError):
                check(r)


class TestTransitiveClosure:
    def test_fixpoint_is_transitive(self):
        rng = random.Random(21)
        for _ in range(20):
            labels = tuple(f"e{i}" for i in range(rng.randint(1, 4)))
            r = random_if_relation(rng, labels, labels)
            assert is_transitive(transitive_closure(r))

    def test_transitive_input_is_unchanged(self):
        ident = identity_relation(("x", "y"))
        assert transitive_closure(ident) == ident

    def test_nu_only_failure_through_a_hesitant_chain(self):
        # mu = 0 off the diagonal: only nu(x, z) = 1 > max(1/2, 1/2) breaks
        # transitivity, so a walk over the mu > 0 cells misses it
        labels = ("x", "y", "z")
        mu = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
        nu = ((F(0), F(1, 2), F(1)), (F(1), F(0), F(1, 2)), (F(1), F(1), F(0)))
        r = IFRelation(labels, labels, mu, nu)
        assert not is_transitive(r) and not oracle_transitive(r)
        closed = transitive_closure(r)
        assert closed.pair_of("x", "z") == IFPair(F(0), F(1, 2))
        assert closed == oracle_closure(r) and is_transitive(closed)

    def test_closure_follows_support_grown_by_an_earlier_step(self):
        # step 0 adds 2 -> 3 to row 2; step 2 must read that to give 1 -> 3
        labels = ("a", "b", "c", "d")
        edges = {(1, 2), (2, 0), (0, 3)}
        r = crisp(labels, [[(i, j) in edges for j in range(4)] for i in range(4)])
        closed = transitive_closure(r)
        assert closed.pair(1, 3) == IFPair(F(1), F(0))
        reach = edges | {(2, 3), (1, 0), (1, 3)}
        assert closed == crisp(labels, [[(i, j) in reach for j in range(4)] for i in range(4)])
        assert closed == oracle_closure(r)


# ---------------------------------------------------------------------------
# differential tests: the int kernel against the Fraction reference above

# distinct primes from near 2**30 up to 2**127 - 1
LARGE_PRIMES = (
    167772161, 469762049, 754974721, 998244353, 1000000007, 1000000009,
    2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1,
)
denominator_pools = st.sampled_from(
    (tuple(range(1, 13)), LARGE_PRIMES, tuple(range(1, 7)) + LARGE_PRIMES[:4])
)


@st.composite
def degree_pairs(draw, pool, strict=False):
    """A valid (mu, nu) pair with each denominator drawn from ``pool``."""
    p, q = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    a = draw(st.integers(0, p))
    top = (p - a) * q // p
    if strict and a == 0:
        top = min(top, q - 1)
    return F(a, p), F(draw(st.integers(0, top)), q)


def labels_of(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


@st.composite
def relations(draw, source, target, pool):
    cells = [[draw(degree_pairs(pool)) for _ in target] for _ in source]
    return IFRelation.from_pairs(source, target, [[IFPair(*c) for c in row] for row in cells])


@st.composite
def composable_pairs(draw):
    pool = draw(denominator_pools)
    a, b, c = (draw(st.integers(1, 4)) for _ in range(3))
    xs, ys, zs = labels_of("x", a), labels_of("y", b), labels_of("z", c)
    return draw(relations(xs, ys, pool)), draw(relations(ys, zs, pool))


@st.composite
def square_relations(draw):
    """Order-like relations: a reflexive edge pattern along a random linear
    extension, with one cell possibly disturbed (any cell, or the reverse of
    an edge), then possibly closed, so every order check both passes and
    fails."""
    pool = draw(denominator_pools)
    n = draw(st.integers(1, 5))
    labels = labels_of("e", n)
    rank = draw(st.permutations(range(n)))
    mu = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    nu = [[F(0) if i == j else F(1) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if rank[i] < rank[j] and draw(st.booleans()):
                mu[i][j], nu[i][j] = draw(degree_pairs(pool, strict=True))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    disturb = draw(st.sampled_from(("none", "cell", "reverse")))
    if disturb == "cell":
        mu[i][j], nu[i][j] = draw(degree_pairs(pool))
    elif disturb == "reverse" and i != j:
        mu[j][i], nu[j][i] = draw(degree_pairs(pool, strict=True))
        mu[i][j], nu[i][j] = draw(degree_pairs(pool, strict=True))
    r = IFRelation(labels, labels, mu, nu)
    return transitive_closure(r) if draw(st.booleans()) else r


@st.composite
def support_cells(draw, pool, row_kind):
    """One cell for a row whose support is "full" (nu < 1 throughout),
    "empty" (every cell (0, 1)) or "mixed": (0, 1), hesitant (0, nu < 1) or
    any valid pair."""
    if row_kind == "empty":
        return F(0), F(1)
    if row_kind == "full":
        return draw(degree_pairs(pool, strict=True))
    return draw(st.one_of(
        st.just((F(0), F(1))),
        degree_pairs(pool, strict=True).map(lambda pair: (F(0), pair[1])),
        degree_pairs(pool),
    ))


@st.composite
def arbitrary_square_relations(draw, size=None, pool=None):
    """Any square relation of at most 8 elements, each row's support full,
    empty or mixed (so supports are often asymmetric), possibly closed.
    Unlike ``square_relations`` it is rarely order-like, and it reaches the
    cells the support walks skip or keep: (0, 1) and hesitant (0, nu < 1)."""
    pool = draw(denominator_pools) if pool is None else pool
    n = draw(st.integers(1, 8)) if size is None else size
    labels = labels_of("e", n)
    cells = []
    for _ in range(n):
        row_kind = draw(st.sampled_from(("full", "empty", "mixed")))
        cells.append([draw(support_cells(pool, row_kind)) for _ in range(n)])
    r = IFRelation(
        labels, labels,
        tuple(tuple(mu for mu, _ in row) for row in cells),
        tuple(tuple(nu for _, nu in row) for row in cells),
    )
    return transitive_closure(r) if draw(st.booleans()) else r


@st.composite
def arbitrary_square_pairs(draw):
    """Two arbitrary square relations on one set, over one denominator pool."""
    pool = draw(denominator_pools)
    n = draw(st.integers(1, 8))
    return draw(arbitrary_square_relations(n, pool)), draw(arbitrary_square_relations(n, pool))


def assert_canonical(r):
    """den is the lcm of the reduced cell denominators and matches mu/nu."""
    degrees = [d for row in r.mu + r.nu for d in row]
    assert r.den == lcm(*(d.denominator for d in degrees))
    assert r.mu == tuple(tuple(F(k, r.den) for k in row) for row in r.m)
    assert r.nu == tuple(tuple(F(k, r.den) for k in row) for row in r.n)


class TestIntKernelDifferential:
    @settings(max_examples=250, deadline=None)
    @given(st.one_of(composable_pairs(), arbitrary_square_pairs()))
    def test_compose_matches_fraction_reference(self, rs):
        r, s = rs
        out = compose(r, s)
        ref = oracle_compose(r, s)
        assert out == ref and hash(out) == hash(ref)
        assert out.mu == ref.mu and out.nu == ref.nu
        assert_canonical(out)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(square_relations(), arbitrary_square_relations()))
    def test_closure_matches_squaring_fixpoint(self, r):
        out = transitive_closure(r)
        ref = oracle_closure(r)
        assert out == ref
        assert out.mu == ref.mu and out.nu == ref.nu
        assert_canonical(out)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(square_relations(), arbitrary_square_relations()))
    def test_order_checks_match_fraction_reference(self, r):
        assert is_reflexive(r) == oracle_reflexive(r)
        assert is_perfectly_antisymmetric(r) == oracle_antisymmetric(r)
        assert is_transitive(r) == oracle_transitive(r)
        assert is_partial_order(r) == (
            oracle_reflexive(r) and oracle_antisymmetric(r) and oracle_transitive(r)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cell_over_one_by_1_over_den_rejected(self, data):
        pool = data.draw(denominator_pools)
        n = data.draw(st.integers(1, 4))
        labels = labels_of("e", n)
        r = data.draw(relations(labels, labels, pool))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        # the smallest excess a cell over denominator den can have
        den = data.draw(st.sampled_from(pool))
        k = data.draw(st.integers(1, den))
        mu = [list(row) for row in r.mu]
        nu = [list(row) for row in r.nu]
        mu[i][j], nu[i][j] = F(k, den), F(den - k + 1, den)
        with pytest.raises(DegreeSumError) as exc:
            IFRelation(labels, labels, mu, nu)
        assert exc.value.cell == (i, j)
        a, b = mu[i][j], nu[i][j]
        assert str(exc.value) == f"mu + nu > 1 at cell ({i}, {j}): {a} + {b} = {a + b}"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2**64))
    def test_degree_over_the_denominator_cap_rejected(self, extra):
        labels = ("x",)
        IFRelation(labels, labels, ((F(0),),), ((F(1, MAX_DEGREE_DENOMINATOR),),))
        with pytest.raises(ValueError, match=r"exceeds 2\*\*128"):
            IFRelation(
                labels, labels, ((F(0),),), ((F(1, MAX_DEGREE_DENOMINATOR + extra),),)
            )


class TestTrustedBuild:
    """The relations ``_build`` takes unchecked keep the cell invariant: each
    equals what the checked constructor builds from its degrees."""

    @staticmethod
    def assert_checked(r):
        assert _bad_cell(r.den, r.m, r.n) is None
        assert IFRelation(r.source, r.target, r.mu, r.nu) == r

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(composable_pairs(), arbitrary_square_pairs()))
    def test_composites(self, rs):
        self.assert_checked(compose(*rs))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(square_relations(), arbitrary_square_relations()))
    def test_closures(self, r):
        self.assert_checked(transitive_closure(r))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_crisp_embeddings(self, holds):
        labels = labels_of("e", len(holds))
        self.assert_checked(IFRelation.from_bool(labels, labels, holds))


class TestIntRepresentation:
    def test_equal_values_over_different_denominators_are_equal(self):
        labels = ("x", "y")
        r = IFRelation(labels, labels, ((F(2, 4), F(0)), (F(0), F(1))),
                       ((F(1, 4), F(1)), (F(1), F(0))))
        s = IFRelation(labels, labels, ((F(1, 2), F(0)), (F(0), F(1))),
                       ((F(1, 4), F(1)), (F(1), F(0))))
        assert r == s and hash(r) == hash(s)
        assert r.den == 4 and r.m == ((2, 0), (0, 4)) and r.n == ((1, 4), (4, 0))

    def test_denominator_shrinks_when_values_drop_out(self):
        labels = ("x", "y", "z")
        r = IFRelation(
            labels, labels,
            ((F(1), F(1, 2), F(1, 6)), (F(0), F(1), F(1, 2)), (F(0), F(0), F(1))),
            ((F(0), F(1, 2), F(1, 2)), (F(1), F(0), F(1, 2)), (F(1), F(1), F(0))),
        )
        assert r.den == 6
        # the chain x -> y -> z lifts mu(x, z) from 1/6 to 1/2: only halves remain
        closed = transitive_closure(r)
        assert closed.den == 2 and closed.m[0][2] == 1
        assert closed == oracle_closure(r)

    def test_constructed_relation_builds_its_fractions_on_first_read(self):
        r = IFRelation(("x", "y"), ("x", "y"), (("1", "1/2"), (0, 1)), ((0, "1/4"), (1, 0)))
        assert "mu" not in vars(r) and "nu" not in vars(r)
        assert (r.den, r.m, r.n) == (4, ((4, 2), (0, 4)), ((0, 1), (4, 0)))
        assert r.mu is r.mu and r.mu == ((F(1), F(1, 2)), (F(0), F(1)))
        assert r.nu == ((F(0), F(1, 4)), (F(1), F(0)))

    def test_cells_breaking_the_invariant_raise_degree_sum_error(self):
        """``_from_cells`` is the one check of mu + nu <= 1, on degrees the
        degree reader proved to lie in [0, 1]; ``_build`` takes ints the
        library proved valid and checks nothing."""
        labels = ("x", "y")
        pairs = {(1, 1): (1, 1), (0, 1): (0, 1), (1, 2): (1, 2), (3, 4): (3, 4)}
        with pytest.raises(DegreeSumError) as exc:
            IFRelation._from_cells(labels, labels, (((1, 1), (1, 2)), ((0, 1), (1, 1))),
                                   (((0, 1), (3, 4)), ((1, 1), (0, 1))), pairs)
        assert exc.value.cell == (0, 1)
        assert str(exc.value) == "mu + nu > 1 at cell (0, 1): 1/2 + 3/4 = 5/4"
        # a negative degree never reaches it: the degree reader refuses it
        with pytest.raises(ValueError, match=r"^degree -1/2 outside \[0, 1\]$"):
            IFRelation(labels, labels, ((1, 0), (F(-1, 2), 1)), ((0, 1), (1, 0)))

    def test_relations_are_immutable(self):
        r = identity_relation(("x", "y"))
        with pytest.raises(AttributeError):
            r.den = 2
        with pytest.raises(AttributeError):
            r.mu = ((F(0),),)

    def test_computed_relation_builds_its_fractions_once(self):
        r = compose(identity_relation(("x", "y")), identity_relation(("x", "y")))
        assert r.mu is r.mu and r.mu == ((F(1), F(0)), (F(0), F(1)))
        assert r.nu[0][1] == F(1) and r.pair(0, 1) == IFPair(F(0), F(1))
