from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from squareop.degrees import (
    DomainMismatchError,
    FuzzySet,
    IFPair,
    OperatorChoice,
    contradiction_degree,
    degree,
    format_degree,
    if_complement,
    implies,
    negate,
    parse_degree,
    self_contradiction_degree,
)

KD = OperatorChoice(implication="kleene-dienes")
LUK = OperatorChoice(implication="lukasiewicz")
GOD = OperatorChoice(implication="godel")
REI = OperatorChoice(implication="reichenbach")
ALL_OPS = (KD, LUK, GOD, REI)

degrees_st = st.fractions(min_value=0, max_value=1, max_denominator=40)


class TestDegreeParsing:
    def test_fraction_string(self):
        assert parse_degree("3/10") == Fraction(3, 10)

    def test_decimal_string_is_exact(self):
        assert parse_degree("0.3") == Fraction(3, 10)
        assert parse_degree("0.125") == Fraction(1, 8)

    def test_whole_values(self):
        assert parse_degree("1") == 1
        assert parse_degree("0") == 0

    @pytest.mark.parametrize("bad", ["3/2", "-1/4", "abc", "1.5", "1/0"])
    def test_out_of_range_or_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_degree(bad)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            degree(0.3)

    def test_format_roundtrip(self):
        for text in ["0", "1", "1/2", "3/10"]:
            assert format_degree(parse_degree(text)) == text


class TestDegreeBounds:
    @pytest.mark.parametrize("bad", [
        "1e-5000",  # exponent beyond the cap: refused before Fraction() parses it
        "1e-3000000",
        "1E-1_000",
        # Fraction() and int() read any Unicode decimal digit in the exponent
        "1e-" + "\u0669" * 20,  # ARABIC-INDIC DIGIT NINE
        "1e-9" + "\uff19" * 20,  # FULLWIDTH DIGIT NINE
        "1E+\uff11\uff10\uff11",  # +101
        "0." + "0" * 99 + "1",  # longer than the text cap
        "1/" + "1" * 99,
        "1e-39",  # a denominator of 10**39 > 2**128
        "1/340282366920938463463374607431768211457",  # 2**128 + 1
    ])
    def test_oversized_degrees_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_degree(bad)

    def test_largest_accepted_degrees(self):
        assert parse_degree("1e-38") == Fraction(1, 10**38)
        assert parse_degree("1/" + str(2**128)) == Fraction(1, 2**128)
        assert parse_degree("0." + "0" * 93 + "1e+59") == Fraction(1, 10**35)  # 100 characters
        assert parse_degree("1e-\u0663\uff18") == Fraction(1, 10**38)  # non-ASCII 38

    def test_denominator_cap_applies_to_fractions(self):
        assert degree(Fraction(1, 2**128)) == Fraction(1, 2**128)
        with pytest.raises(ValueError, match=r"2\*\*128"):
            degree(Fraction(1, 2**128 + 1))

    def test_valid_fraction_is_returned_as_is(self):
        half = Fraction(1, 2)
        assert degree(half) is half


class TestNegation:
    def test_endpoints(self):
        assert negate(KD, Fraction(0)) == 1
        assert negate(KD, Fraction(1)) == 0

    def test_half_is_fixed_point(self):
        assert negate(KD, Fraction(1, 2)) == Fraction(1, 2)

    def test_exact_subtraction(self):
        assert negate(KD, Fraction(3, 10)) == Fraction(7, 10)

    @given(degrees_st)
    def test_involutive(self, a):
        assert negate(KD, negate(KD, a)) == a


class TestImplications:
    def test_kleene_dienes_vacuous_antecedent(self):
        for b in [Fraction(0), Fraction(1, 3), Fraction(1)]:
            assert implies(KD, Fraction(0), b) == 1

    def test_kleene_dienes_example(self):
        # max(1 - 3/10, 4/10)
        assert implies(KD, Fraction(3, 10), Fraction(4, 10)) == Fraction(7, 10)

    def test_lukasiewicz_example(self):
        # min(1, 1 - 3/10 + 4/10) = min(1, 11/10)
        assert implies(LUK, Fraction(3, 10), Fraction(4, 10)) == 1

    def test_godel(self):
        assert implies(GOD, Fraction(1, 3), Fraction(1, 2)) == 1
        assert implies(GOD, Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 3)

    def test_reichenbach(self):
        # 1 - a + a*b at a=1/2, b=1/3
        assert implies(REI, Fraction(1, 2), Fraction(1, 3)) == Fraction(2, 3)

    @given(degrees_st)
    def test_false_antecedent_gives_one(self, b):
        for ops in ALL_OPS:
            assert implies(ops, Fraction(0), b) == 1

    @given(degrees_st)
    def test_true_consequent_gives_one(self, a):
        for ops in ALL_OPS:
            assert implies(ops, a, Fraction(1)) == 1

    @given(degrees_st, degrees_st)
    def test_results_are_valid_degrees(self, a, b):
        for ops in ALL_OPS:
            v = implies(ops, a, b)
            assert 0 <= v <= 1 and isinstance(v, Fraction)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            OperatorChoice(implication="zadeh")
        with pytest.raises(ValueError):
            OperatorChoice(negation="sugeno")

    def test_registry_is_extensible(self):
        from squareop.degrees import IMPLICATIONS, register_implication

        register_implication("rescher", lambda a, b: Fraction(int(a <= b)))
        try:
            ops = OperatorChoice(implication="rescher")
            assert implies(ops, Fraction(1, 3), Fraction(1, 2)) == 1
            assert implies(ops, Fraction(1, 2), Fraction(1, 3)) == 0
            with pytest.raises(ValueError, match="already registered"):
                register_implication("rescher", lambda a, b: a)
        finally:
            IMPLICATIONS.pop("rescher")


class TestContradictionDegree:
    def test_crisp_complementary_sets_fully_contradict(self):
        a = FuzzySet.from_mapping({"x": "1", "y": "0", "z": "1"})
        b = FuzzySet.from_mapping({"x": "0", "y": "1", "z": "0"})
        result = contradiction_degree(a, b, KD)
        assert result.scalar == 1
        assert all(v == 1 for v in result.pointwise.values())

    def test_two_full_sets_do_not_contradict(self):
        a = FuzzySet.constant(("x", "y"), "1")
        result = contradiction_degree(a, a, KD)
        # J(1, N(1)) = max(0, 0)
        assert result.scalar == 0

    def test_borderline_case_is_exactly_half(self):
        a = FuzzySet.constant(("x", "y", "z"), "1/2")
        result = contradiction_degree(a, a, KD)
        assert result.scalar == Fraction(1, 2)
        assert all(v == Fraction(1, 2) for v in result.pointwise.values())

    def test_pointwise_values(self):
        a = FuzzySet.from_mapping({"x": "1/4", "y": "1"})
        b = FuzzySet.from_mapping({"x": "1/2", "y": "1/3"})
        result = contradiction_degree(a, b, KD)
        # J(1/4, 1/2) = max(3/4, 1/2); J(1, 2/3) = max(0, 2/3)
        assert result.pointwise == {"x": Fraction(3, 4), "y": Fraction(2, 3)}
        assert result.scalar == Fraction(2, 3)

    def test_domain_mismatch_rejected(self):
        a = FuzzySet.from_mapping({"x": "1"})
        b = FuzzySet.from_mapping({"y": "1"})
        with pytest.raises(DomainMismatchError):
            contradiction_degree(a, b, KD)

    @given(st.lists(degrees_st, min_size=1, max_size=5), st.data())
    def test_contrapositive_symmetric_operators_commute(self, values_a, data):
        # KD and Lukasiewicz satisfy J(a, b) = J(N(b), N(a)), which makes
        # the contradiction degree symmetric in its arguments
        domain = tuple(f"p{i}" for i in range(len(values_a)))
        values_b = data.draw(
            st.lists(degrees_st, min_size=len(domain), max_size=len(domain))
        )
        a = FuzzySet(domain, tuple(values_a))
        b = FuzzySet(domain, tuple(values_b))
        for ops in (KD, LUK):
            assert contradiction_degree(a, b, ops) == contradiction_degree(b, a, ops)

    def test_godel_is_not_argument_symmetric(self):
        a = FuzzySet.from_mapping({"x": "9/10"})
        b = FuzzySet.from_mapping({"x": "1/2"})
        # J(9/10, 1/2) = 1/2 but J(1/2, 1/10) = 1/10
        assert contradiction_degree(a, b, GOD).scalar == Fraction(1, 2)
        assert contradiction_degree(b, a, GOD).scalar == Fraction(1, 10)


class TestSelfContradiction:
    def test_empty_set_fully_self_contradicts(self):
        a = FuzzySet.constant(("x", "y"), "0")
        for ops in ALL_OPS:
            assert self_contradiction_degree(a, ops) == 1

    def test_full_set_kleene_dienes(self):
        a = FuzzySet.constant(("x",), "1")
        assert self_contradiction_degree(a, KD) == 0

    def test_borderline_lukasiewicz(self):
        a = FuzzySet.constant(("x",), "1/2")
        assert self_contradiction_degree(a, LUK) == 1


class TestIFPair:
    def test_complement_swaps(self):
        assert if_complement(IFPair(Fraction(1), Fraction(0))) == IFPair(
            Fraction(0), Fraction(1)
        )
        assert if_complement(IFPair(Fraction(3, 10), Fraction(2, 5))) == IFPair(
            Fraction(2, 5), Fraction(3, 10)
        )

    def test_half_half_is_fixed_point(self):
        p = IFPair(Fraction(1, 2), Fraction(1, 2))
        assert if_complement(p) == p

    @given(degrees_st, st.data())
    def test_involutive(self, mu, data):
        nu = data.draw(st.fractions(min_value=0, max_value=1 - mu, max_denominator=40))
        p = IFPair(mu, nu)
        assert if_complement(if_complement(p)) == p

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            IFPair(Fraction(3, 4), Fraction(1, 2))

    def test_hesitation_margin(self):
        assert IFPair(Fraction(1, 2), Fraction(1, 4)).hesitation == Fraction(1, 4)


class TestFuzzySet:
    def test_membership_must_be_total(self):
        with pytest.raises(ValueError):
            FuzzySet(("x", "y"), (Fraction(1),))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            FuzzySet(("x", "x"), (Fraction(1), Fraction(0)))

    def test_lookup(self):
        s = FuzzySet.from_mapping({"x": "1/3", "y": "1"})
        assert s["x"] == Fraction(1, 3)
        with pytest.raises(KeyError):
            s["z"]
