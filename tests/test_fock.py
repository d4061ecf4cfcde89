import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from braided_fock import fock
from braided_fock.coeff import LaurentPoly, braided_int_scalar
from braided_fock.fock import (
    FockState,
    apply_b,
    column_piece,
    commutator_on_vacuum,
    heisenberg_sides,
    lemma33_closed_form,
    lemma33_second_term_expected,
    multiply_left,
    scalar_part,
    translate,
    vacuum,
)
from braided_fock.modealg import (
    VARIANTS,
    BudgetExceededError,
    ModeElement,
    normal_form,
    shift_leibniz,
    standard_rules,
)
from braided_fock.rmatrix import (
    braided_integer,
    interval_product,
    interval_product_bar,
    standard_sln_R,
)
from helpers import (classical_form, classical_shift, reference_apply_b, reference_canonical,
                     reference_column_piece, window_commutator)

ONE = LaurentPoly.one()


class TestStateBasics:
    def test_vacuum_shape(self):
        v = vacuum(2, 0)
        assert v.tail_start == 0 and set(v.terms) == {()}
        blob = v.to_json()
        assert blob == {"n": 2, "tail_start": 0, "terms": [{"coeff": {"0": 1}, "columns": {}}]}

    def test_vacuum_base_matters(self):
        assert vacuum(2, 0) != vacuum(2, 1)
        assert vacuum(2, 0) == vacuum(2, 0)

    def test_repr(self):
        assert repr(FockState(2, 0, {})) == "0"
        assert repr(vacuum(2, 0)) == "(1) [(vacuum) | tail 0]"
        assert repr(apply_b(-1, vacuum(2, 0))) == (
            "(1) [-1:1 0:2 | tail 1] + (-q^-1) [-1:2 0:1 | tail 1]")

    def test_zero_states_equal(self):
        a = vacuum(2, 0) - vacuum(2, 0)
        b = FockState(2, 5, {})
        assert not a and a == b

    def test_addition_absorbs_full_columns(self):
        # an explicitly materialized full column collapses back onto the tail
        v = vacuum(2, 0)
        w = FockState(2, 1, {((0, (1, 2)),): ONE})
        assert w == v
        assert not (w - v)

    def test_addition_rejects_another_rank(self):
        with pytest.raises(ValueError, match="same space"):
            vacuum(2, 0) + vacuum(3, 0)

    def test_inexact_coefficient_rejected(self):
        # used to construct, and apply_b(-1, .) then died with an AttributeError
        with pytest.raises(ValueError, match="coefficient must be a LaurentPoly"):
            FockState(2, 0, {(): 2})

    def test_json_roundtrip(self):
        s = apply_b(-1, vacuum(2, 0))
        blob = json.dumps(s.to_json(), sort_keys=True)
        assert FockState.from_json(json.loads(blob)) == s

    @pytest.mark.parametrize("field, value, match", [
        ("n", 2.9, "n must be an integer"),
        ("n", True, "n must be an integer"),
        ("tail_start", 1.7, "tail_start must be an integer"),
        ("columns", {" 0": [1]}, "malformed exponent key"),
        ("columns", {"0": [1.0]}, "index must be an integer"),
        ("columns", {"0": "1"}, "must be a list of indices"),
        ("columns", {"0": [[1]]}, "must be a list of indices"),
        ("coeff", {}, "index must be an integer"),
        ("terms", {"0": {"coeff": {"0": 1}, "columns": {"0": [1]}}}, "terms must be a list"),
        ("terms", [[{"0": 1}, {"0": [1]}]], "malformed term"),
    ])
    def test_json_rejects_coercible_fields(self, field, value, match):
        # each case spoils one field of a valid one-term state on n = 2
        blob = {"n": 2, "tail_start": 1, "terms": [{"coeff": {"0": 1}, "columns": {"0": [1]}}]}
        if field == "columns":
            blob["terms"][0]["columns"] = value
        elif field == "coeff":
            # a zero term is still checked: its index is a float
            blob["terms"][0] = {"coeff": value, "columns": {"0": [1.0]}}
        else:
            blob[field] = value
        with pytest.raises(ValueError, match=match):
            FockState.from_json(blob)

    def test_json_rejects_a_state_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="must be an object with n, tail_start and terms"):
            FockState.from_json([2, 1, []])

    @pytest.mark.parametrize("n, tail_start, cfg, match", [
        (2, 1, ((0, (1.0,)),), "index must be an integer"),
        (2, 1, ((0, (True,)),), "index must be an integer"),
        (2, 1, ((0.5, (1,)),), "mode must be an integer"),
        (2, 1.5, (), "tail_start must be an integer"),
        (2.0, 1, (), "n must be an integer"),
    ])
    def test_constructor_rejects_non_integers(self, n, tail_start, cfg, match):
        # the constructor checks what from_json checks, so to_json cannot
        # write a state that from_json rejects
        with pytest.raises(ValueError, match=match):
            FockState(n, tail_start, {cfg: ONE})

    @pytest.mark.parametrize("n", [0, -1])
    def test_constructor_rejects_rank_below_one(self, n):
        # the mask of a column has n+1 bits, so n = -1 reached a division by zero
        with pytest.raises(ValueError, match="n must be positive"):
            FockState(n, 0, {(): ONE})
        with pytest.raises(ValueError, match="n must be positive"):
            FockState.from_json({"n": n, "tail_start": 0, "terms": []})

    @pytest.mark.parametrize("cfg", [((0, (1,)), (0, (2,))), ((0, (1,)), (0, ())),
                                     ((-1, (1,)), (0, (2,)), (-1, (1,)))])
    def test_constructor_rejects_repeated_mode(self, cfg):
        # the last column listed for a mode used to replace the others
        with pytest.raises(ValueError, match="lists a mode twice"):
            FockState(2, 1, {cfg: ONE})

    def test_json_rejects_duplicate_terms(self):
        term = {"coeff": {"0": 1}, "columns": {"0": [1]}}
        with pytest.raises(ValueError, match="duplicate term"):
            FockState.from_json({"n": 2, "tail_start": 1, "terms": [term, term]})

    @pytest.mark.parametrize("tail_start, cfg, match", [
        (0, ((0, (5,)),), "indices in 1..n"),
        (0, ((1, (1,)),), "inside the implicit tail"),
    ])
    def test_constructor_checks_terms_with_coefficient_zero(self, tail_start, cfg, match):
        # a term whose coefficient is 0 used to be dropped before its columns were checked
        for c in (ONE, LaurentPoly.zero()):
            with pytest.raises(ValueError, match=match):
                FockState(2, tail_start, {cfg: c})

    def test_json_checks_terms_with_coefficient_zero(self):
        for coeff in ({"0": 1}, {}):
            term = {"coeff": coeff, "columns": {"-1": [3, 9]}}
            with pytest.raises(ValueError, match="indices in 1..n"):
                FockState.from_json({"n": 3, "tail_start": 0, "terms": [term]})

    def test_scalar_part(self):
        v = vacuum(3, 0)
        assert scalar_part(v.scale(braided_int_scalar(3, -2))) == braided_int_scalar(3, -2)
        assert scalar_part(vacuum(3, 0) - vacuum(3, 0)) == LaurentPoly.zero()
        assert scalar_part(apply_b(-1, v)) is None


@st.composite
def spelled_terms(draw, n, tail):
    """{config: coeff} in the columns tail-4..tail-1, none canonical on purpose.

    A column is full, partial or listed empty, and the columns of a
    configuration come in any order.  Some terms are listed a second time,
    reordered and with one more empty column, so that like terms meet; half
    of those cancel the first spelling.
    """
    full = tuple(range(1, n + 1))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        cfg = []
        for m in draw(st.lists(st.integers(tail - 4, tail - 1), unique=True, max_size=4)):
            kind = draw(st.sampled_from(("full", "empty", "partial")))
            if kind == "partial":
                ix = tuple(sorted(draw(st.lists(st.integers(1, n), unique=True, min_size=1,
                                                max_size=n))))
            else:
                ix = full if kind == "full" else ()
            cfg.append((m, ix))
        c = LaurentPoly.q_power(draw(st.integers(-2, 2)), draw(st.sampled_from((-2, -1, 1, 2))))
        terms.setdefault(tuple(cfg), c)
        if draw(st.booleans()):
            free = [m for m in range(tail - 4, tail) if m not in dict(cfg)]
            alt = tuple(reversed(cfg)) + tuple((m, ()) for m in free[:1])
            terms.setdefault(alt, -c if draw(st.booleans()) else c)
    return terms


@st.composite
def state_pairs(draw):
    """(n, (tail, terms), (tail, terms)): tails out to 40 from 0 and up to 3 apart.

    The second part is sometimes the first, negated and spelled with up to
    two more full columns below a higher tail, so that the sum is 0.
    """
    n = draw(st.integers(1, 3))
    tail = draw(st.integers(-40, 40))
    terms = draw(spelled_terms(n, tail))
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        pad = tuple((m, tuple(range(1, n + 1))) for m in range(tail, tail + k))
        return n, (tail, terms), (tail + k, {cfg + pad: -c for cfg, c in terms.items()})
    other = tail + draw(st.integers(-3, 3))
    return n, (tail, terms), (other, draw(spelled_terms(n, other)))


class TestCanonicalForm:
    """The constructor and sums against a canonical form computed on generator sets."""

    @staticmethod
    def assert_canonical(s, want):
        assert (s.tail_start, s.terms) == want
        # the tail is minimal: some term leaves column tail_start - 1 short of full
        full = tuple(range(1, s.n + 1))
        assert not s.terms or any(dict(cfg).get(s.tail_start - 1) != full for cfg in s.terms)

    @settings(max_examples=300, deadline=None)
    @given(data=state_pairs())
    def test_constructor_and_sum(self, data):
        n, (ta, terms_a), (tb, terms_b) = data
        a, b = FockState(n, ta, terms_a), FockState(n, tb, terms_b)
        self.assert_canonical(a, reference_canonical(n, [(ta, terms_a)], ta))
        self.assert_canonical(b, reference_canonical(n, [(tb, terms_b)], tb))
        # a zero sum keeps the lesser tail of its canonical summands
        self.assert_canonical(a + b, reference_canonical(
            n, [(ta, terms_a), (tb, terms_b)], min(a.tail_start, b.tail_start)))


class TestMultiplyLeft:
    def test_unit(self):
        v = vacuum(2, 0)
        assert multiply_left(ModeElement.unit(2), v) == v

    def test_theta0_kills_vacuum(self):
        for n in (2, 3):
            v = vacuum(n, 0)
            for a in range(1, n + 1):
                assert not multiply_left(ModeElement.from_word(n, ((0, a),)), v)

    def test_negative_mode_prepends_column(self):
        v = vacuum(2, 0)
        got = multiply_left(ModeElement.from_word(2, ((-1, 1),)), v)
        assert got == FockState(2, 0, {((-1, (1,)),): ONE})

    def test_fills_hole(self):
        # removing then re-adding an index restores a multiple of the vacuum
        v = vacuum(2, 0)
        hole = FockState(2, 1, {((0, (2,)),): ONE})
        got = multiply_left(ModeElement.from_word(2, ((0, 1),)), hole)
        assert scalar_part(got) == ONE

    def test_overfull_column_dies(self):
        hole = FockState(2, 1, {((0, (2,)),): ONE})
        got = multiply_left(
            ModeElement.from_word(2, ((0, 1), (0, 1))), hole
        )
        assert not got

    def test_column_content_validated(self):
        with pytest.raises(ValueError):
            FockState(2, 1, {((0, (2, 1)),): ONE})
        with pytest.raises(ValueError):
            FockState(2, 1, {((0, (1, 1)),): ONE})
        with pytest.raises(ValueError):
            FockState(2, 1, {((0, (3,)),): ONE})
        with pytest.raises(ValueError):
            FockState(2, 0, {((4, (1,)),): ONE})

    def test_rank_mismatch_rejected(self):
        # under rank-3 rules the rank-2 vacuum used to be reduced as if n were 3
        x = ModeElement.from_word(2, ((-1, 1),))
        with pytest.raises(ValueError, match="rules of rank 3 cannot act on a state of rank 2"):
            multiply_left(x, vacuum(2, 0), standard_rules(3))
        with pytest.raises(ValueError, match="element of rank 3 cannot act on a state of rank 2"):
            multiply_left(ModeElement.from_word(3, ((-1, 1),)), vacuum(2, 0))

    def test_hole_fill_matches_window_oracle(self):
        # multiply into a state with a hole in column 1 and compare against a
        # hand-flattened wide-window reduction of the same product
        n = 2
        rules = standard_rules(n)
        hole = FockState(n, 2, {((0, (1, 2)), (1, (1,))): ONE})
        for a in (1, 2):
            x = ModeElement.from_word(n, ((1, a),))
            got = multiply_left(x, hole, rules)
            wide = 5
            word = ((1, a), (0, 1), (0, 2), (1, 1)) + tuple(
                (m, c) for m in range(2, wide) for c in (1, 2)
            )
            out = normal_form(ModeElement.from_word(n, word), rules)
            raw = {}
            for w, coeff in out.terms.items():
                cols = {}
                for m, c in w:
                    cols.setdefault(m, []).append(c)
                cfg = tuple(sorted((m, tuple(ix)) for m, ix in cols.items()))
                raw[cfg] = coeff
            want = FockState(n, wide, raw)
            assert got == want, (a, got, want)


class TestShiftOperator:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_annihilates_vacuum(self, n, i):
        assert not apply_b(i, vacuum(n, 0))

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            apply_b(0, vacuum(2, 0))

    @pytest.mark.parametrize("i", [True, -1.0, 2.0, "1"])
    def test_shift_must_be_a_plain_int(self, i):
        # True used to run as b_1, and 2.0 to die with a TypeError in the mask code
        with pytest.raises(ValueError, match="shift must be an integer"):
            apply_b(i, vacuum(2, 0))

    def test_rank_mismatch_rejected(self):
        # this used to return [-1:1 0:2 | tail 1], a rank-2 state reduced by rank-3 rules
        with pytest.raises(ValueError, match="rules of rank 3 cannot act on a state of rank 2"):
            apply_b(-1, vacuum(2, 0), rules=standard_rules(3))

    def test_columns_read_once(self):
        # max() used to use up an iterator of columns, which then held no slot
        want = apply_b(-2, vacuum(2, 0), columns=(0, 1))
        assert len(want.terms) == 5
        assert apply_b(-2, vacuum(2, 0), columns=iter((0, 1))) == want
        assert apply_b(-2, vacuum(2, 0), columns=(c for c in (1, 0))) == want
        assert not apply_b(-2, vacuum(2, 0), columns=iter(()))

    @pytest.mark.parametrize("columns", [(0, 1.0), (True,), ("0",)])
    def test_columns_must_be_ints(self, columns):
        with pytest.raises(ValueError, match="column must be an integer"):
            apply_b(-2, vacuum(2, 0), columns=columns)

    @pytest.mark.parametrize("n", [2, 3])
    def test_b_minus_one_lowest_column(self, n):
        # the contraction of the lowering step against the full column, with
        # the expected state assembled through an independent multiply
        d = standard_sln_R(n)
        op = braided_integer(n, d.bold_R())
        vec = op.apply_to_vector({tuple(range(1, n + 1)): ONE})
        elem = ModeElement(
            n,
            {
                ((-1, row[0]),) + tuple((0, a) for a in row[1:]): c
                for row, c in vec.items()
            },
        )
        want = multiply_left(elem, vacuum(n, 1))
        got = apply_b(-1, vacuum(n, 0))
        assert got == want

    def test_b_minus_two_first_two_columns(self):
        # lowering by two reaches exactly the first two columns; slots inside
        # the materialized window are computed, nothing below mode -2 appears
        got = apply_b(-2, vacuum(2, 0))
        modes = {m for cfg in got.terms for m, _ in cfg}
        assert min(modes) == -2
        assert got == apply_b(-2, vacuum(2, 0), columns=(0,)) + apply_b(
            -2, vacuum(2, 0), columns=(1,)
        )

    @pytest.mark.parametrize("i, lo, hi", [(1, -2, 0), (1, -1, -1), (-1, -2, 2), (2, -2, -1)])
    def test_slot_window_is_the_sum_of_its_columns(self, i, lo, hi):
        # columns=range(lo, hi + 1) takes the slots of every column lo..hi,
        # hi included, and of no other column; both end columns contribute,
        # so a window that drops either one shows
        s = apply_b(-2, vacuum(2, 0))
        pieces = [apply_b(i, s, prune=False, columns=(c,)) for c in range(lo, hi + 1)]
        assert pieces[0] and pieces[-1]
        want = FockState(2, s.tail_start)
        for piece in pieces:
            want = want + piece
        assert apply_b(i, s, prune=False, columns=range(lo, hi + 1)) == want

    @pytest.mark.parametrize("columns", [5, 2.5])
    def test_columns_must_be_an_iterable(self, columns):
        # a lone int used to die with "TypeError: 'int' object is not iterable"
        with pytest.raises(ValueError, match="columns must be an iterable of ints"):
            apply_b(-1, vacuum(2, 0), columns=columns)

    def test_pruning_logged(self):
        # raising slots on a deviated state: exactly the provably-dead slots
        # are logged
        s = apply_b(-1, vacuum(2, 0))
        log = []
        apply_b(1, s, log_pruned=log)
        assert log and all(entry["target_mode"] >= 1 for entry in log)

    def test_pruned_log_independent_of_term_order(self):
        # equal states whose terms were inserted in opposite orders give the
        # same result and the same pruned-slot log, entry for entry
        s = apply_b(-2, vacuum(2, 0))
        items = list(s.terms.items())
        assert len(items) > 1
        a = FockState(2, s.tail_start, dict(items))
        b = FockState(2, s.tail_start, dict(reversed(items)))
        assert a == b and list(a.terms) != list(b.terms)
        log_a, log_b = [], []
        assert apply_b(1, a, log_pruned=log_a) == apply_b(1, b, log_pruned=log_b)
        assert log_a and log_a == log_b

    def test_two_raises_annihilate(self):
        for i in (1, 2):
            for j in (1, 2):
                assert not apply_b(i, apply_b(j, vacuum(2, 0)))


class TestHeisenberg:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_level_one(self, n):
        scalar, state = commutator_on_vacuum(1, 1, n)
        assert scalar == braided_int_scalar(n, -2)
        lhs, rhs = heisenberg_sides(scalar, 1, 1, n)
        assert lhs == rhs

    @pytest.mark.parametrize("n", [2, 3])
    def test_level_two(self, n):
        scalar, state = commutator_on_vacuum(2, 2, n)
        assert scalar == braided_int_scalar(n, -4) * 2
        lhs, rhs = heisenberg_sides(scalar, 2, 2, n)
        assert lhs == rhs

    def test_off_diagonal(self):
        for (i, j) in ((1, 2), (2, 1)):
            scalar, state = commutator_on_vacuum(i, j, 2)
            assert scalar == LaurentPoly.zero() and not state
            lhs, rhs = heisenberg_sides(scalar, i, j, 2)
            assert lhs == rhs

    # A negative control.  The closed form is a finding of this code, not a
    # statement of the paper: under gerv rules, which drop the correction
    # terms, the commutator is [n; q^-2] [i; q^(-2(n-1))], and it meets the
    # Heisenberg relation at level 1 only.
    @pytest.mark.parametrize("n, i", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_gerv_rules_hold_at_level_one_only(self, n, i):
        scalar, _ = commutator_on_vacuum(i, i, n, standard_rules(n, "gerv"))
        assert scalar == braided_int_scalar(n, -2) * braided_int_scalar(i, -2 * (n - 1))
        lhs, rhs = heisenberg_sides(scalar, i, i, n)
        assert (lhs == rhs) == (i == 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            commutator_on_vacuum(0, 1, 2)

    def test_rank_mismatch_rejected(self):
        # this used to return the scalar 1, not 1 + q^-2 + q^-4
        with pytest.raises(ValueError, match="rules of rank 2 cannot act on a state of rank 3"):
            commutator_on_vacuum(1, 1, 3, rules=standard_rules(2))

    @pytest.mark.parametrize("i, j", [(True, True), (1, 1.0), (2.0, 1), ("1", 1)])
    def test_shifts_must_be_plain_ints(self, i, j):
        # (True, True) used to run as (1, 1) and give 1 + q^-2
        with pytest.raises(ValueError, match="shift [ij] must be an integer"):
            commutator_on_vacuum(i, j, 2)

    def test_window_stability_level_one(self):
        pruned, state_p = commutator_on_vacuum(1, 1, 2)
        w4, state_4 = window_commutator(1, 1, 2, 4)
        w6, state_6 = window_commutator(1, 1, 2, 6)
        assert pruned == w4 == w6
        assert state_p == state_4 == state_6


class TestLemma33:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_form(self, n):
        assert column_piece(n, 0) == lemma33_closed_form(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_second_term(self, n):
        assert column_piece(n, 1) == lemma33_second_term_expected(n)

    def test_pieces_sum_to_commutator(self):
        for n in range(2, 7):
            scalar, _ = commutator_on_vacuum(2, 2, n)
            assert column_piece(n, 0) + column_piece(n, 1) == scalar

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chained_pieces_match_two_apply_b_calls(self, n):
        # column 2 lowers onto the full column 0, so its piece is 0
        for column in (0, 1, 2):
            assert column_piece(n, column) == reference_column_piece(n, column)
        assert not column_piece(n, 2)

    def test_column_must_be_an_int(self):
        with pytest.raises(ValueError, match="column must be an integer"):
            column_piece(2, 1.0)


class TestTelescoping:
    @pytest.mark.parametrize("n", [2, 3])
    def test_double_interval_collapses(self, n):
        # words of n mode-0 generators and one mode-1 generator, composed with
        # the reversed-then-forward interval product, reduce to q^(-2(n-1))
        # times the bare word
        d = standard_sln_R(n)
        rules = standard_rules(n)
        bold = d.bold_R()
        M = interval_product_bar(1, n + 1, bold) @ interval_product(1, n + 1, bold)
        cols = {}
        for (row, col), c in M.entries.items():
            cols.setdefault(col, []).append((row, c))
        factor = LaurentPoly.q_power(-2 * (n - 1))

        def word_of(ix):
            return tuple((0, a) for a in ix[:n]) + ((1, ix[n]),)

        for col in itertools.product(range(1, n + 1), repeat=n + 1):
            terms = {}
            for row, c in cols.get(col, ()):
                w = word_of(row)
                terms[w] = terms.get(w, LaurentPoly.zero()) + c
            lhs = normal_form(ModeElement(n, terms), rules)
            rhs = normal_form(ModeElement.from_word(n, word_of(col), factor), rules)
            assert lhs == rhs, col


class TestColumnDisplays:
    """Closed operator forms of one lowering or raising step on a full column.

    The engine side is the Leibniz shift of the column word; the display side
    contracts the column with the leading braided integer plus the descendant
    series of interval products acting on the doubled-middle-mode word.
    """

    @staticmethod
    def _engine(n, shift, rules):
        word = tuple((0, a) for a in range(1, n + 1))
        return normal_form(shift_leibniz(shift, ModeElement.from_word(n, word)), rules)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lowering_step(self, n):
        from braided_fock.rmatrix import braided_integer, interval_product
        from braided_fock.tensor import TensorOp, embed

        d = standard_sln_R(n)
        bold = d.bold_R()
        rules = standard_rules(n)
        top = tuple(range(1, n + 1))
        engine = self._engine(n, -2, rules)

        terms = {}
        for row, c in braided_integer(n, bold).apply_to_vector({top: ONE}).items():
            w = ((-2, row[0]),) + tuple((0, a) for a in row[1:])
            terms[w] = terms.get(w, LaurentPoly.zero()) + c
        # descendant series, term k: [2,k+1][1,k][n-k]_{k+1..n}
        total = None
        for k in range(1, n):
            piece = TensorOp.identity(n, n)
            if k >= 2:
                piece = interval_product(2, k + 1, bold, total=n) @ \
                    interval_product(1, k, bold, total=n)
            if n - k >= 2:
                piece = piece @ embed(
                    braided_integer(n - k, bold), list(range(k + 1, n + 1)), n)
            total = piece if total is None else total + piece
        qm2_minus_1 = LaurentPoly.q_power(-2) - ONE
        for row, c in total.apply_to_vector({top: ONE}).items():
            w = ((-1, row[0]), (-1, row[1])) + tuple((0, a) for a in row[2:])
            terms[w] = terms.get(w, LaurentPoly.zero()) + c * qm2_minus_1
        assert engine == normal_form(ModeElement(n, terms), rules)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_raising_step(self, n):
        # the raising series is the position-reversal mirror of the lowering
        # one, term k: bar[n-k,n-1] bar[n-k+1,n] bar[n-k]_{1..n-k}
        from braided_fock.rmatrix import braided_integer_bar, interval_product_bar
        from braided_fock.tensor import TensorOp, embed

        d = standard_sln_R(n)
        bold = d.bold_R()
        rules = standard_rules(n)
        top = tuple(range(1, n + 1))
        engine = self._engine(n, 2, rules)

        terms = {}
        for row, c in braided_integer_bar(n, bold).apply_to_vector({top: ONE}).items():
            w = tuple((0, a) for a in row[:-1]) + ((2, row[-1]),)
            terms[w] = terms.get(w, LaurentPoly.zero()) + c
        total = None
        for k in range(1, n):
            piece = TensorOp.identity(n, n)
            if k >= 2:
                piece = interval_product_bar(n - k, n - 1, bold, total=n) @ \
                    interval_product_bar(n - k + 1, n, bold, total=n)
            if n - k >= 2:
                piece = piece @ embed(
                    braided_integer_bar(n - k, bold), list(range(1, n - k + 1)), n)
            total = piece if total is None else total + piece
        qm2_minus_1 = LaurentPoly.q_power(-2) - ONE
        for row, c in total.apply_to_vector({top: ONE}).items():
            w = tuple((0, a) for a in row[:-2]) + ((1, row[-2]), (1, row[-1]))
            terms[w] = terms.get(w, LaurentPoly.zero()) + c * qm2_minus_1
        assert engine == normal_form(ModeElement(n, terms), rules)


class TestDerivationLaw:
    def test_leibniz_on_random_deviations(self):
        rng = random.Random(67)
        n = 2
        rules = standard_rules(n)
        for _ in range(25):
            # state with deviations in two columns
            cfg = []
            for m in (-1, 0):
                idxs = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
                if idxs:
                    cfg.append((m, tuple(idxs)))
            s = FockState(n, 1, {tuple(cfg): ONE})
            s = s + vacuum(n, 1).scale(0)  # canonicalize through addition
            word = tuple(
                (rng.randint(-2, 1), rng.randint(1, n)) for _ in range(rng.randint(1, 2))
            )
            x = ModeElement.from_word(n, word)
            for i in (1, -1, 2):
                lhs = apply_b(i, multiply_left(x, s, rules), rules)
                rhs = multiply_left(shift_leibniz(i, x), s, rules) + multiply_left(
                    x, apply_b(i, s, rules), rules
                )
                assert lhs == rhs, (word, cfg, i)


class TestTranslationInvariance:
    def test_commutes_with_shift(self):
        for i in (1, -1, -2):
            s = apply_b(-1, vacuum(2, 0))
            assert translate(apply_b(i, s), 1) == apply_b(i, translate(s, 1))

    def test_translation_must_be_an_int(self):
        # True used to translate by 1
        with pytest.raises(ValueError, match="translation must be an integer"):
            translate(vacuum(2, 0), True)

    def test_translated_commutator(self):
        scalar, _ = commutator_on_vacuum(1, 1, 2)
        v1 = translate(vacuum(2, 0), 1)
        out = apply_b(1, apply_b(-1, v1)) - apply_b(-1, apply_b(1, v1))
        assert out == v1.scale(scalar)


@st.composite
def finite_deviations(draw):
    """A state with one to three terms, each deviating in up to three columns."""
    n = draw(st.integers(1, 3))
    tail = draw(st.integers(-1, 2))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        cfg = []
        for m in range(tail - 3, tail):
            idxs = draw(st.lists(st.integers(1, n), max_size=n, unique=True))
            if idxs:
                cfg.append((m, tuple(sorted(idxs))))
        terms[tuple(cfg)] = LaurentPoly.q_power(draw(st.integers(-2, 2)),
                                                draw(st.sampled_from((-2, -1, 1, 3))))
    return FockState(n, tail, terms)


class TestPruningAgainstWindow:
    """Pruned b_i against unpruned b_i over a window of columns.

    Deviations sit in the 3 columns below the tail start, so the window from
    7 columns below it to |i| + 2 columns above it holds every slot that
    pruning keeps; widening it by 2 on each side must change nothing either.
    The pruned call skips slots by the column rule and, for a raising shift,
    by the counting test; the unpruned window builds every slot.
    """

    @settings(max_examples=300, deadline=None)
    @given(s=finite_deviations(), i=st.sampled_from((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
    def test_pruned_equals_unpruned_window(self, s, i):
        rules = standard_rules(s.n)
        lo, hi = s.tail_start - 7, s.tail_start + abs(i) + 3
        pruned = apply_b(i, s, rules)
        assert apply_b(i, s, rules, prune=False, columns=range(lo, hi)) == pruned
        assert apply_b(i, s, rules, prune=False, columns=range(lo - 2, hi + 2)) == pruned


    @pytest.mark.parametrize("n, top", [(2, 6), (3, 5), (4, 4)])
    def test_counting_skip_on_the_ladder_is_exact(self, n, top, monkeypatch):
        # the raising shifts of fock_ladder, where the counting test skips
        # most slots, against every slot of the lowered state's columns; only
        # the raised-slot pre-filter of _shift is recorded, since the fold's
        # miss path runs the same test
        verdicts = []
        run = fock.infeasible

        def recording(*args):
            verdict = run(*args)
            if sys._getframe(1).f_code is fock._shift.__code__:
                verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(fock, "infeasible", recording)
        rules = standard_rules(n)
        for i in range(top - 1, top + 1):
            lowered = apply_b(-i, vacuum(n, 0), rules)
            verdicts.clear()
            pruned = apply_b(i, lowered, rules)
            assert any(verdicts), i
            window = range(-i, lowered.tail_start)
            assert pruned == apply_b(i, lowered, rules, prune=False, columns=window)


class TestClassicalLimit:
    """At q = 1 the engine must give the Grassmann-algebra shift of ``classical_shift``.

    Evaluation at q = 1 is a ring homomorphism, and the normal words are a
    basis on both sides, so this checks slot choice, pruning, Leibniz signs
    and the mask codec on states of any size, with no code of ``fock``.  It
    is blind to what vanishes at q = 1: the correction terms and the q-powers
    of the leading rule.
    """

    @settings(max_examples=200, deadline=None)
    @given(s=finite_deviations(), i=st.sampled_from((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
           variant=st.sampled_from(VARIANTS))
    def test_random_states(self, s, i, variant):
        out = apply_b(i, s, standard_rules(s.n, variant))
        assert classical_form(out, s.tail_start + abs(i)) == classical_shift(i, s)

    @pytest.mark.parametrize("n, top", [(2, 6), (3, 5), (4, 4)])
    def test_ladder_states(self, n, top):
        # every lowered state b_-i omega of fock_ladder, and its raising
        for i in range(1, top + 1):
            v = vacuum(n, 0)
            lowered = apply_b(-i, v)
            assert classical_form(lowered, i) == classical_shift(-i, v), i
            raised = apply_b(i, lowered)
            assert classical_form(raised, lowered.tail_start + i) == classical_shift(i, lowered), i

    @pytest.mark.parametrize("n, i, size", [(3, 9, 849), (4, 8, 1874)])
    def test_frontier_states(self, n, i, size):
        # the lowered states of the frontier points (3, 9) and (4, 8), and their raising
        v = vacuum(n, 0)
        lowered = apply_b(-i, v)
        assert len(lowered.terms) == size
        assert classical_form(lowered, i) == classical_shift(-i, v)
        raised = apply_b(i, lowered)
        assert classical_form(raised, lowered.tail_start + i) == classical_shift(i, lowered)


class TestFarFromModeZero:
    """The shift fold codes each generator from the lowest mode of its call.

    States 40 modes either side of 0 go through the fold, pruned and over an
    unpruned window, in both rule variants, and must give the whole-word
    reference and the untranslated result translated.
    """

    @settings(max_examples=60, deadline=None)
    @given(s=finite_deviations(), i=st.sampled_from((-3, -2, -1, 1, 2, 3)),
           d=st.sampled_from((-40, 40)), variant=st.sampled_from(VARIANTS))
    def test_translated_state(self, s, i, d, variant):
        rules = standard_rules(s.n, variant)
        t = translate(s, d)
        out = apply_b(i, t, rules)
        assert out == reference_apply_b(i, t, rules)
        assert out == translate(apply_b(i, s, rules), d)
        lo, hi = t.tail_start - 7, t.tail_start + abs(i) + 3
        assert apply_b(i, t, rules, prune=False, columns=range(lo, hi)) == out

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_window_of_70_full_columns(self, variant):
        # the window reaches 70 columns into the tail, so each word of the
        # fold holds about 70 full columns and its mask about 280 bits
        rules = standard_rules(3, variant)
        s = FockState(3, -40, {((-42, (1, 3)), (-41, (2,))): ONE, ((-41, (1, 2, 3)),): ONE})
        for i in (-3, 1):
            narrow = apply_b(i, s, rules, prune=False, columns=range(-47, -34))
            assert narrow and narrow == apply_b(i, s, rules)
            assert apply_b(i, s, rules, prune=False, columns=range(-47, 30)) == narrow

    @pytest.mark.parametrize("d", [-40, 40])
    def test_budget_error_names_true_generators(self, d):
        # a budget met inside the fold names the insertion it was making, in
        # the (mode, index) pairs of the state's own modes
        s = FockState(3, 0, {((-2, (1, 3)), (-1, (2,))): ONE})
        errors = []
        for state in (s, translate(s, d)):
            with pytest.raises(BudgetExceededError) as err:
                apply_b(2, state, standard_rules(3), budget=1)
            errors.append(err.value)
        at0, far = errors
        assert far.word == tuple((m + d, a) for m, a in at0.word)
        assert (far.depth, far.expansions, far.pending) == (at0.depth, at0.expansions, 2)
        # a generator inserted into a normal word, all inside the call's modes
        g, w = at0.word[0], at0.word[1:]
        assert all(1 <= a <= 3 and -2 <= m < 3 for m, a in at0.word)
        assert list(w) == sorted(set(w)) and g > w[0]


class TestTransportReuse:
    @settings(max_examples=40, deadline=None)
    @given(s=finite_deviations(), i=st.sampled_from((-3, -2, -1, 1, 2, 3)), prune=st.booleans())
    def test_matches_whole_word_reference(self, s, i, prune):
        rules = standard_rules(s.n)
        assert apply_b(i, s, rules, prune=prune) == reference_apply_b(i, s, rules, prune=prune)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The ReductionStats of each insertion_fold call made during the test."""
        calls = []
        orig = fock.insertion_fold

        def counting(*args, **kwargs):
            out, stats, bits = orig(*args, **kwargs)
            calls.append(stats)
            return out, stats, bits

        monkeypatch.setattr(fock, "insertion_fold", counting)
        return calls

    def test_no_reuse_across_calls(self, calls):
        # the insertion memo lives for one insertion_fold call, so a repeated
        # computation repeats its calls and its memo misses exactly
        rules = standard_rules(3)
        first = commutator_on_vacuum(3, 3, 3, rules=rules)
        once = [(s.expansions, s.depth) for s in calls]
        second = commutator_on_vacuum(3, 3, 3, rules=rules)
        assert sum(e for e, _ in once) > 0
        assert [(s.expansions, s.depth) for s in calls] == once * 2
        assert first == second

    def test_alike_slots_share_one_reduction(self, calls):
        # every unpruned slot of every term goes into one insertion_fold call
        # per apply_b, so alike slots share its memo
        for n in (2, 3):
            calls.clear()
            out = apply_b(2, vacuum(n, 0), prune=False, columns=range(0, 6))
            assert not out and len(calls) == 1
        calls.clear()
        commutator_on_vacuum(3, 3, 3)
        assert len(calls) == 4
