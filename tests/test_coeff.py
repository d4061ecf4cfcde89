import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braided_fock.coeff import (LaurentPoly, PolyQZW, braided_int_scalar, from_image, image_l1,
                                 to_image)
from helpers import reference_evaluate


def lp(terms):
    return LaurentPoly(terms)


Q = LaurentPoly.q()
QINV = LaurentPoly.q_power(-1)
ONE = LaurentPoly.one()


def random_laurent(rng, max_terms=4, exp_range=5, coeff_range=9):
    return LaurentPoly(
        {
            rng.randint(-exp_range, exp_range): rng.randint(-coeff_range, coeff_range)
            for _ in range(rng.randint(0, max_terms))
        }
    )


def random_qzw(rng):
    return PolyQZW(
        {
            (rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5)
            for _ in range(rng.randint(0, 3))
        }
    )


class TestBraidedIntScalar:
    def test_single_term(self):
        assert braided_int_scalar(1, -2) == ONE

    def test_two_terms(self):
        assert braided_int_scalar(2, -2) == lp({0: 1, -2: 1})

    def test_step_minus_four(self):
        assert braided_int_scalar(3, -4) == lp({0: 1, -4: 1, -8: 1})

    def test_empty_sum(self):
        assert braided_int_scalar(0, -2) == LaurentPoly.zero()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            braided_int_scalar(-1, -2)

    def test_telescoping(self):
        # (1 - q^step) * [m] = 1 - q^(step m), by direct multiplication
        for step in (-2, -4, -6):
            for m in range(0, 30):
                lhs = (ONE - LaurentPoly.q_power(step)) * braided_int_scalar(m, step)
                assert lhs == ONE - LaurentPoly.q_power(step * m)


class TestLaurentRing:
    def test_difference_of_squares(self):
        assert (Q - QINV) * (Q + QINV) == lp({2: 1, -2: -1})

    def test_additive_inverse(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_laurent(rng)
            assert p + (-p) == LaurentPoly.zero()

    def test_ring_axioms_random_triples(self):
        rng = random.Random(12345)
        zero = LaurentPoly.zero()
        for _ in range(1000):
            a, b, c = (random_laurent(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a * ONE == a
            assert a + zero == a

    def test_no_stored_zeros(self):
        p = lp({2: 1}) - lp({2: 1})
        assert p.terms == {}
        assert not p

    def test_int_coercion(self):
        assert Q + 1 == lp({1: 1, 0: 1})
        assert 2 * Q == lp({1: 2})
        assert Q - 1 == lp({1: 1, 0: -1})
        assert braided_int_scalar(2, -2) * 3 == lp({0: 3, -2: 3})

    @pytest.mark.parametrize("c", [1.5, True, "a"])
    def test_inexact_coefficient_rejected(self, c):
        # each used to be stored as given
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            LaurentPoly({0: c})
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            PolyQZW({(0, 0, 0): c})

    def test_evaluate(self):
        p = lp({2: 1, -2: -1})
        assert p.evaluate(Fraction(3, 2)) == Fraction(9, 4) - Fraction(4, 9)
        with pytest.raises(ZeroDivisionError):
            QINV.evaluate(0)

    @settings(max_examples=200, deadline=None)
    @given(terms=st.dictionaries(st.integers(-8, 8), st.integers(-20, 20), max_size=6),
           num=st.integers(-30, 30).filter(bool), den=st.integers(1, 30))
    def test_evaluate_matches_term_by_term_sum(self, terms, num, den):
        # negative exponents and negative q0 included; one Fraction comes back
        p, q0 = lp(terms), Fraction(num, den)
        value = p.evaluate(q0)
        assert type(value) is Fraction and value == reference_evaluate(p, q0)

    def test_unit_inverse(self):
        assert LaurentPoly.q_power(3).unit_inverse() == LaurentPoly.q_power(-3)
        assert LaurentPoly({0: -1}).unit_inverse() == LaurentPoly({0: -1})
        with pytest.raises(ValueError):
            (Q + ONE).unit_inverse()

    def test_divide_exact(self):
        rng = random.Random(99)
        for _ in range(200):
            a = random_laurent(rng)
            b = random_laurent(rng)
            if not b:
                continue
            prod = a * b
            q = prod.divide_exact(b)
            assert q == a
        assert (Q - QINV).divide_exact(Q) == ONE - LaurentPoly.q_power(-2)
        assert (Q + ONE).divide_exact(Q + 2) is None
        assert lp({0: 3}).divide_exact(lp({0: 2})) is None
        with pytest.raises(ZeroDivisionError):
            ONE.divide_exact(LaurentPoly.zero())

    def test_divide_by_a_monomial(self):
        p = lp({3: 4, 0: -6, -2: 2})
        assert p.divide_exact(LaurentPoly.q_power(2)) == lp({1: 4, -2: -6, -4: 2})
        assert p.divide_exact(LaurentPoly.q_power(-2, -1)) == lp({5: -4, 2: 6, 0: -2})
        assert p.divide_exact(ONE) == p
        # by 2q^3: exact when every coefficient is even, else None
        assert p.divide_exact(lp({3: 2})) == lp({0: 2, -3: -3, -5: 1})
        assert p.divide_exact(lp({3: -2})) == lp({0: -2, -3: 3, -5: -1})
        assert (p + ONE).divide_exact(lp({3: 2})) is None
        assert lp({7: 3}).divide_exact(lp({3: 2})) is None
        assert LaurentPoly.zero().divide_exact(lp({3: 2})) == LaurentPoly.zero()
        # exponents of the size the twisted R file carries
        big = lp({24000: 5, 23999: -10, -24000: 15})
        assert big.divide_exact(lp({24000: -5})) == lp({0: -1, -1: 2, -48000: -3})
        assert big.divide_exact(lp({-23999: 5})) == lp({47999: 1, 47998: -2, -1: 3})
        assert big.divide_exact(lp({24000: 10})) is None

    def test_monomial_division_round_trip(self):
        rng = random.Random(32)
        for _ in range(300):
            p = random_laurent(rng)
            c = rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
            m = LaurentPoly.q_power(rng.randint(-30, 30), c)
            assert (p * m).divide_exact(m) == p
            if abs(c) > 1:
                assert (p * m + ONE).divide_exact(m) is None

    def test_str(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(braided_int_scalar(2, -2)) == "1 + q^-2"
        assert str(Q - QINV) == "q - q^-1"


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=5),
    st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=5),
    st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=5),
)
def test_laurent_axioms_hypothesis(ta, tb, tc):
    a, b, c = LaurentPoly(ta), LaurentPoly(tb), LaurentPoly(tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


class TestPolyQZW:
    def test_ring_axioms_random(self):
        rng = random.Random(4242)
        for _ in range(300):
            a, b, c = (random_qzw(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            PolyQZW({(0, -1, 0): 1})


class TestIntegerImage:
    @pytest.mark.parametrize("b", [2, 8, 32])
    @pytest.mark.parametrize("top", [-3, 4])
    def test_edge_digits_round_trip(self, top, b):
        # the image runs q^-1 = 2^b down from the top exponent; digits up to
        # +-(2^(b-1) - 1) read back, the leading one negative
        edge = 2 ** (b - 1) - 1
        p = LaurentPoly({top: edge, top - 1: -edge, top - 3: 1, top - 4: -edge})
        x = to_image(p, b, top)
        assert x == edge - (edge << b) + (1 << 3 * b) - (edge << 4 * b) < 0
        assert from_image(x, b, top) == p
        assert from_image(to_image(p, b, top + 2), b, top + 2) == p
        assert image_l1(x, b) == 3 * edge + 1


class TestSharedSum:
    # one addition serves both polynomial classes, and builds the class of its left side
    def test_sums_keep_their_class(self):
        a, b = PolyQZW({(1, 2, 0): 3}), PolyQZW({(0, 0, 1): -1})
        assert type(a + b) is PolyQZW and (a + b).terms == {(1, 2, 0): 3, (0, 0, 1): -1}
        assert type(1 + a) is PolyQZW and (1 + a).terms == {(1, 2, 0): 3, (0, 0, 0): 1}
        assert type(Q + 1) is LaurentPoly and (Q + 1).terms == {1: 1, 0: 1}

    def test_cancelling_sum_is_zero(self):
        a = PolyQZW({(1, 2, 0): 3, (0, 0, 0): 1})
        assert (a + (-a)).terms == {} and a + (-a) == PolyQZW.zero()
        assert (Q + (-Q)).terms == {} and Q + (-Q) == LaurentPoly.zero()

    def test_laurent_binds_its_own_ring_operations(self):
        # the benchmark's tracer wraps only the methods it finds in vars(cls),
        # so LaurentPoly's sum and product must be bound in its own namespace
        assert {"__add__", "__radd__", "__mul__"} <= set(vars(LaurentPoly))


class TestSerialization:
    def test_laurent_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_laurent(rng)
            blob = json.dumps(p.to_json(), sort_keys=True)
            assert LaurentPoly.from_json(json.loads(blob)) == p

    def test_laurent_key_format(self):
        assert lp({-2: 1, 0: 3}).to_json() == {"-2": 1, "0": 3}

    @pytest.mark.parametrize("blob", [{"1": 1.7}, {"1": True}, {"1": "2"}, {"x": 1},
                                      {"1.0": 1}, {"01": 1}, {" 1": 1}, "q", [1]])
    def test_laurent_rejects_coercion(self, blob):
        with pytest.raises(ValueError):
            LaurentPoly.from_json(blob)

    @pytest.mark.parametrize("terms", [{1.7: 1}, {1.0: 1}, {True: 1}, {"1": 1}])
    def test_laurent_constructor_rejects_non_int_exponent(self, terms):
        with pytest.raises(ValueError, match="exponent"):
            LaurentPoly(terms)

    @pytest.mark.parametrize("key", [(1.5, 0.9, 0), (0, 1.0, 0), (0, 0, True), ("1", 0, 0)])
    def test_qzw_constructor_rejects_non_int_exponent(self, key):
        with pytest.raises(ValueError, match="exponent"):
            PolyQZW({key: 2})
