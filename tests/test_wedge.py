import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from braided_fock.coeff import LaurentPoly, braided_int_scalar
from braided_fock.rmatrix import (
    HeckeData,
    braided_integer,
    braided_integer_bar,
    standard_sln_R,
)
from braided_fock.tensor import TensorOp, permutation_P
from braided_fock.wedge import (
    NonPBWInputError,
    WedgeElement,
    braided_partial,
    degree_rank,
    derive_wedge_rules,
    top_form,
    wedge_normal_form,
)

from helpers import dense_from_op, dense_rank

ONE = LaurentPoly.one()
QINV = LaurentPoly.q_power(-1)
DATA = pathlib.Path(__file__).parent / "data"


def diagonal_5q(n):
    """standard_sln_R(n) with R[(1,1),(1,1)] = 5q - 7 - 1/q.

    Its relation column at (1, 1) is 5q - 7, which vanishes at q = 7/5.
    """
    entries = dict(standard_sln_R(n).R.entries)
    entries[((1, 1), (1, 1))] = LaurentPoly({1: 5, 0: -7, -1: -1})
    return HeckeData(n=n, R=TensorOp(n, 2, entries))


@pytest.fixture(scope="module")
def tables():
    return {n: derive_wedge_rules(standard_sln_R(n)) for n in (1, 2, 3, 4)}


class TestDeriveRules:
    def test_n1_only_diagonal(self, tables):
        assert tables[1].coeff == {}
        assert wedge_normal_form([1, 1], tables[1]) == WedgeElement.zero(1)

    def test_n2_swap_coefficient(self, tables):
        assert tables[2].coeff[(2, 1)] == -QINV

    def test_all_pairs_minus_qinv(self, tables):
        for n in (2, 3, 4):
            for (b, a), c in tables[n].coeff.items():
                assert b > a and c == -QINV

    def test_identity_orientation_mismatch(self):
        with pytest.raises(NonPBWInputError):
            derive_wedge_rules(HeckeData(n=2, R=TensorOp.identity(2, 2)))

    def test_permutation_input_rejected(self):
        data = HeckeData(n=2, R=permutation_P(2), q=LaurentPoly.one())
        with pytest.raises(NonPBWInputError):
            derive_wedge_rules(data)

    def test_relation_span_certified(self, tables):
        # the relations PR + 1/q have rank n(n+1)/2 over Q(q), the number of
        # rules: the rank at one rational point bounds it from below and is
        # reached at all but finitely many points
        file_data = HeckeData(n=2, R=TensorOp.from_json(
            json.loads((DATA / "diagonal_5q_n2.json").read_text())))
        assert file_data.R == diagonal_5q(2).R
        cases = [(standard_sln_R(n), tables[n]) for n in (1, 2, 3, 4)]
        cases.append((file_data, derive_wedge_rules(file_data)))
        for data, table in cases:
            n = data.n
            rel = data.PR() + TensorOp.identity(n, 2).scale(QINV)
            rank = max(dense_rank(dense_from_op(rel, q0))
                       for q0 in (Fraction(7, 5), Fraction(-3, 2), Fraction(2, 7)))
            assert rank == len(table.coeff) + n == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_relation_vanishing_at_a_sample_point(self, n):
        # a relation coefficient with a rational zero does not lose its rule
        table = derive_wedge_rules(diagonal_5q(n))
        assert table.coeff == derive_wedge_rules(standard_sln_R(n)).coeff
        assert [degree_rank(n, m, table) for m in range(n + 1)] == [
            math.comb(n, m) for m in range(n + 1)]


class TestNormalForm:
    def test_empty_word(self, tables):
        assert wedge_normal_form([], tables[2]) == WedgeElement.unit(2)

    def test_diagonal_kill(self, tables):
        for a in (1, 2, 3):
            assert wedge_normal_form([a, a], tables[3]) == WedgeElement.zero(3)

    def test_simple_swap(self, tables):
        got = wedge_normal_form([2, 1], tables[2])
        assert got == WedgeElement(2, {(1, 2): -QINV})

    def test_index_range(self, tables):
        with pytest.raises(ValueError):
            wedge_normal_form([5], tables[2])

    @pytest.mark.parametrize("word", [(2.0, 1), (True, 2)])
    def test_non_int_index_rejected(self, tables, word):
        with pytest.raises(ValueError) as err:
            wedge_normal_form(word, tables[2])
        assert str(err.value) == "index %r is not an int in %r" % (word[0], word)

    def test_idempotent(self, tables):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 4)
            word = [rng.randint(1, n) for _ in range(rng.randint(0, n + 1))]
            x = wedge_normal_form(word, tables[n])
            for mono, c in x.terms.items():
                assert wedge_normal_form(mono, tables[n]).scale(c) == WedgeElement(n, {mono: c})

    def test_inexact_coefficient_rejected(self):
        with pytest.raises(ValueError, match="coefficient must be a LaurentPoly"):
            WedgeElement(2, {(1, 2): 2})

    def test_three_letter_example(self, tables):
        # t3 t2 t1 sorts with three swaps
        got = wedge_normal_form([3, 2, 1], tables[3])
        assert got == WedgeElement(3, {(1, 2, 3): -LaurentPoly.q_power(-3)})


class TestDimensions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_binomial(self, tables, n):
        for m in range(0, n + 2):
            assert degree_rank(n, m, tables[n]) == math.comb(n, m)


class TestTopForm:
    def test_n2(self):
        assert top_form(2) == WedgeElement(2, {(1, 2): ONE})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_top_degree_one_dimensional(self, tables, n):
        # every full permutation reduces to a scalar multiple of the top form
        for perm in itertools.permutations(range(1, n + 1)):
            x = wedge_normal_form(list(perm), tables[n])
            assert set(x.terms) == {tuple(range(1, n + 1))}
        # and any degree-n word with a repeat dies
        x = wedge_normal_form([1] * n, tables[n])
        assert not x

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_multiplication_kills_top(self, tables, n):
        top = tuple(range(1, n + 1))
        for a in range(1, n + 1):
            assert wedge_normal_form([a] + list(top), tables[n]) == WedgeElement.zero(n)
            assert wedge_normal_form(list(top) + [a], tables[n]) == WedgeElement.zero(n)


class TestBraidedPartial:
    def test_degree_one(self, tables):
        for i in (1, 2):
            for j in (1, 2):
                x = WedgeElement(2, {(j,): ONE})
                got = braided_partial(i, x, tables[2])
                want = WedgeElement.unit(2) if i == j else WedgeElement.zero(2)
                assert got == want

    def test_degree_zero(self, tables):
        assert braided_partial(1, WedgeElement.unit(2), tables[2]) == WedgeElement.zero(2)

    def test_left_on_top_form_n2(self, tables):
        # frozen values from a dense application of 1 + P(-R/q) at n = 2
        x = top_form(2)
        assert braided_partial(1, x, tables[2]) == WedgeElement(2, {(2,): ONE})
        assert braided_partial(2, x, tables[2]) == WedgeElement(2, {(1,): -QINV})

    def test_right_on_top_form_n2(self, tables):
        x = top_form(2)
        assert braided_partial(2, x, tables[2], side="right") == WedgeElement(2, {(1,): ONE})
        assert braided_partial(1, x, tables[2], side="right") == WedgeElement(
            2, {(2,): -QINV}
        )

    def test_against_dense_oracle(self, tables):
        # dense rational contraction at sample q, independent index bookkeeping
        n, q0 = 2, Fraction(5, 3)
        d = standard_sln_R(n)
        lam = q0 - 1 / q0
        dense_R = {}
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                dense_R[((a, b), (a, b))] = q0 if a == b else Fraction(1)
                if a > b:
                    dense_R[((b, a), (a, b))] = lam
        bold = {k: -v / q0 for k, v in dense_R.items()}
        pbold = {((r2, r1), c): v for ((r1, r2), c), v in bold.items()}
        two = {}
        for (r, c), v in pbold.items():
            two[(r, c)] = two.get((r, c), Fraction(0)) + v
        for ix in itertools.product((1, 2), repeat=2):
            two[(ix, ix)] = two.get((ix, ix), Fraction(0)) + 1
        col = (1, 2)
        by_first = {}
        for (r, c), v in two.items():
            if c == col and v:
                by_first.setdefault(r[0], {})[r[1:]] = v
        got1 = braided_partial(1, top_form(2), tables[2])
        want = by_first.get(1, {})
        assert {m: c.evaluate(q0) for m, c in got1.terms.items()} == want

    def test_bad_side(self, tables):
        with pytest.raises(ValueError):
            braided_partial(1, top_form(2), tables[2], side="up")


class TestVanishingContraction:
    @pytest.mark.parametrize("n", [2, 3])
    def test_right_differential_of_overfull_product(self, tables, n):
        # contracting any (n+1)-fold one-mode word with the reversed braided
        # integer, last output leg separated, reduces to zero
        d = standard_sln_R(n)
        table = tables[n]
        op = braided_integer_bar(n + 1, d.bold_R())
        for col in itertools.product(range(1, n + 1), repeat=n + 1):
            vec = op.apply_to_vector({col: ONE})
            by_last = {}
            for row, c in vec.items():
                by_last.setdefault(row[-1], []).append((row[:-1], c))
            for i, pieces in by_last.items():
                acc = WedgeElement.zero(n)
                for word, c in pieces:
                    red, mono = table.reduce_word(word)
                    if mono is not None:
                        acc = acc + WedgeElement(n, {mono: red * c})
                assert not acc, (col, i, acc)
            # the raw overfull word itself dies as well
            assert wedge_normal_form(list(col), table) == WedgeElement.zero(n)


class TestScalarShadow:
    @pytest.mark.parametrize("n", [2, 3])
    def test_braided_integer_acts_as_scalar(self, tables, n):
        # on the reduced algebra the braided integer equals [m; q^-2]
        d = standard_sln_R(n)
        table = tables[n]
        for m in range(1, 5):
            op = braided_integer(m, d.bold_R())
            scalar = braided_int_scalar(m, -2)
            for word in itertools.product(range(1, n + 1), repeat=m):
                vec = op.apply_to_vector({word: ONE})
                got = WedgeElement.zero(n)
                for row, c in vec.items():
                    red, mono = table.reduce_word(row)
                    if mono is not None:
                        got = got + WedgeElement(n, {mono: red * c})
                want = wedge_normal_form(list(word), table).scale(scalar)
                assert got == want, (n, m, word)
