import itertools
import json
import random
from fractions import Fraction

import pytest

from braided_fock.coeff import LaurentPoly, PolyQZW
from braided_fock.rmatrix import standard_sln_R
from braided_fock.tensor import (
    LaurentInversionError,
    SingularOperatorError,
    TensorOp,
    embed,
    invert,
    permutation_P,
)

from helpers import (
    dense_embed,
    dense_from_op,
    dense_identity,
    dense_inverse,
    dense_mul,
    dense_rank,
    dense_standard_R,
    multi_indices,
)

Q = LaurentPoly.q()
ONE = LaurentPoly.one()


def random_op(rng, n=2, legs=2, fill=0.4):
    entries = {}
    idx = list(itertools.product(range(1, n + 1), repeat=legs))
    for r in idx:
        for c in idx:
            if rng.random() < fill:
                entries[(r, c)] = LaurentPoly(
                    {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 2))}
                )
    return TensorOp(n, legs, entries)


class TestPermutation:
    def test_n1_identity(self):
        assert permutation_P(1) == TensorOp.identity(1, 2)

    def test_n2_swap(self):
        P = permutation_P(2)
        assert P.entries[((2, 1), (1, 2))] == ONE
        assert P.entries[((1, 2), (2, 1))] == ONE
        assert P.entries[((1, 1), (1, 1))] == ONE
        assert ((1, 2), (1, 2)) not in P.entries

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_involution(self, n):
        P = permutation_P(n)
        assert P @ P == TensorOp.identity(n, 2)


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(1)
        ident = TensorOp.identity(2, 2)
        for _ in range(20):
            A = random_op(rng)
            assert A @ ident == A
            assert ident @ A == A

    def test_associative_random(self):
        rng = random.Random(2)
        for _ in range(30):
            A, B, C = (random_op(rng) for _ in range(3))
            assert (A @ B) @ C == A @ (B @ C)

    def test_matches_dense(self):
        rng = random.Random(3)
        q0 = Fraction(5, 3)
        for _ in range(10):
            A, B = random_op(rng), random_op(rng)
            assert dense_from_op(A @ B, q0) == dense_mul(dense_from_op(A, q0), dense_from_op(B, q0))
            # the same through operators with Fraction entries
            at_q0 = [op.map_coefficients(lambda c: c.evaluate(q0)) for op in (A @ B, A, B)]
            assert at_q0[0] == at_q0[1] @ at_q0[2]

    @pytest.mark.parametrize("unit", [Q, 1, Fraction(1, 3), PolyQZW({(0, 1, 0): 1})],
                             ids=["laurent", "int", "fraction", "polyqzw"])
    def test_cancellation_is_decided_by_the_final_sum(self, unit):
        # row 1 sums 1, -1, 1: its running sum passes through 0 and ends
        # nonzero; row 2 sums 1, 1, -2: it reaches 0 only at its third term
        A = TensorOp(3, 1, {**{((1,), (m,)): unit * c for m, c in zip((1, 2, 3), (1, -1, 1))},
                            **{((2,), (m,)): unit * c for m, c in zip((1, 2, 3), (1, 1, -2))}})
        B = TensorOp(3, 1, {((m,), (1,)): unit for m in (1, 2, 3)})
        assert (A @ B).entries == {((1,), (1,)): unit * unit}

    def test_shape_mismatch_rejected(self):
        A = TensorOp.identity(2, 2)
        with pytest.raises(ValueError):
            A @ TensorOp.identity(2, 3)
        with pytest.raises(ValueError):
            A + TensorOp.identity(3, 2)


class TestLegTranspose:
    def test_double_transpose(self):
        rng = random.Random(4)
        for _ in range(20):
            A = random_op(rng)
            assert A.swapped_legs().swapped_legs() == A

    def test_is_conjugation_by_P(self):
        R = standard_sln_R(3).R
        P = permutation_P(3)
        assert R.swapped_legs() == P @ R @ P

    def test_three_legs_rejected(self):
        with pytest.raises(ValueError, match="two-leg operators"):
            TensorOp.identity(2, 3).swapped_legs()


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        ident = TensorOp.identity(2, 2)
        assert embed(ident, [1, 2], 3) == TensorOp.identity(2, 3)

    def test_braid_of_transpositions(self):
        P = permutation_P(3)
        a = embed(P, [1, 2], 3)
        b = embed(P, [2, 3], 3)
        assert a @ b @ a == b @ a @ b

    @pytest.mark.parametrize("kind", ["laurent", "int"])
    @pytest.mark.parametrize("legs", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_against_dense_oracle(self, n, legs, kind):
        # every ordering of positions on up to 4 legs: reversed and
        # non-adjacent ones such as [2, 1], [3, 1] and [4, 2], total == legs
        # and total == 1
        rng = random.Random(10 * n + legs)
        ops = [random_op(rng, n, legs)]
        if kind == "int":
            ops = [TensorOp(n, legs, {k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in ops[0].entries})]
        elif legs == 2:
            ops.append(standard_sln_R(n).R)
        q0 = Fraction(7, 4)
        for op in ops:
            mat = dense_from_op(op, q0)
            for total in range(legs, 5):
                for positions in itertools.permutations(range(1, total + 1), legs):
                    got = dense_from_op(embed(op, positions, total), q0)
                    assert got == dense_embed(mat, n, legs, positions, total), (positions, total)

    def test_position_validation(self):
        P = permutation_P(2)
        with pytest.raises(ValueError):
            embed(P, [1, 1], 3)
        with pytest.raises(ValueError):
            embed(P, [0, 2], 3)
        with pytest.raises(ValueError):
            embed(P, [1, 4], 3)
        with pytest.raises(ValueError, match="one target position per operator leg"):
            embed(P, [1], 3)


class TestInvert:
    def test_permutation_self_inverse(self):
        for n in (2, 3):
            P = permutation_P(n)
            assert invert(P) == P

    def test_scalar(self):
        op = TensorOp.identity(2, 2).scale(Q)
        assert invert(op) == TensorOp.identity(2, 2).scale(LaurentPoly.q_power(-1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_standard_R(self, n):
        R = standard_sln_R(n).R
        Rinv = invert(R)
        assert R @ Rinv == TensorOp.identity(n, 2)
        assert Rinv @ R == TensorOp.identity(n, 2)
        # independent dense Gaussian elimination oracle at rational q
        q0 = Fraction(3, 2)
        assert dense_from_op(Rinv, q0) == dense_inverse(dense_standard_R(n, q0))

    def test_singular(self):
        op = TensorOp(1, 2, {((1, 1), (1, 1)): LaurentPoly.zero()})
        with pytest.raises(SingularOperatorError):
            invert(op)

    def test_int_entries_rejected(self):
        with pytest.raises(ValueError, match="Laurent-coefficient operators"):
            invert(TensorOp(1, 1, {((1,), (1,)): 3}))

    def test_non_laurent_inverse(self):
        op = TensorOp(1, 1, {((1,), (1,)): Q + 1})
        with pytest.raises(LaurentInversionError):
            invert(op)

    def test_random_invertible(self):
        # triangular with unit diagonal, so the inverse stays Laurent
        rng = random.Random(9)
        import itertools

        idx = list(itertools.product((1, 2), repeat=2))
        for _ in range(10):
            entries = {}
            for k, r in enumerate(idx):
                entries[(r, r)] = LaurentPoly.q_power(rng.randint(-1, 1))
                for c in idx[k + 1:]:
                    if rng.random() < 0.5:
                        entries[(r, c)] = LaurentPoly(
                            {rng.randint(-2, 2): rng.randint(-2, 2)}
                        )
            op = TensorOp(2, 2, entries)
            assert op @ invert(op) == TensorOp.identity(2, 2)


def _unit(rng):
    return LaurentPoly.q_power(rng.randint(-2, 2), rng.choice((1, -1)))


def _poly(rng):
    return LaurentPoly({rng.randint(-2, 2): rng.choice((1, 2, -1, -3)) for _ in range(2)})


def _unit_det_block(rng, size):
    """A square block over Z[q, q^-1] with a unit determinant: (rows, det).

    Size 2 is flip-like, coupling x with y through entries (x, y) and (y, x)
    and leaving (y, y) empty; size 3 is upper bidiagonal, connected only
    through entries whose rows precede their columns; size 4 is L U with L
    unit lower triangular and U upper triangular on a unit diagonal, so its
    first row and column are full and the block is connected.
    """
    if size == 1:
        u = _unit(rng)
        return [[u]], u
    if size == 2:
        a, b = _unit(rng), _unit(rng)
        return [[_poly(rng), a], [b, LaurentPoly.zero()]], -(a * b)
    if size == 3:
        diag = [_unit(rng) for _ in range(3)]
        rows = [[diag[i] if j == i else _poly(rng) if j == i + 1 else LaurentPoly.zero()
                 for j in range(3)] for i in range(3)]
        return rows, diag[0] * diag[1] * diag[2]
    L = [[ONE if i == j else _poly(rng) if j < i else LaurentPoly.zero() for j in range(size)]
         for i in range(size)]
    U = [[_unit(rng) if i == j else _poly(rng) if j > i else LaurentPoly.zero()
          for j in range(size)] for i in range(size)]
    M = [[sum((L[i][k] * U[k][j] for k in range(size)), LaurentPoly.zero())
          for j in range(size)] for i in range(size)]
    det = ONE
    for i in range(size):
        det = det * U[i][i]
    return M, det


def _block_op(rng, n, legs, blocks):
    """An operator on shuffled index blocks, one (rows, det) pair per block."""
    idx = multi_indices(n, legs)
    rng.shuffle(idx)
    entries, start = {}, 0
    for rows, _ in blocks:
        S = idx[start:start + len(rows)]
        start += len(rows)
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                entries[(S[i], S[j])] = c
    assert start == len(idx)
    return TensorOp(n, legs, entries)


def _first_dependent_column(mat):
    """The first column that lies in the span of the columns before it."""
    cols = [list(col) for col in zip(*mat)]
    return next(j for j in range(len(cols)) if dense_rank(cols[:j + 1]) <= j)


class TestBlockInvert:
    SHAPES = [(3, 2, (4, 2, 2, 1)), (2, 3, (4, 2, 1, 1)), (2, 3, (3, 2, 2, 1)),
              (3, 2, (3, 3, 2, 1))]

    @pytest.mark.parametrize("n,legs,sizes", SHAPES)
    def test_matches_dense_inverse(self, n, legs, sizes):
        rng = random.Random(11 * n + legs)
        for _ in range(4):
            op = _block_op(rng, n, legs, [_unit_det_block(rng, s) for s in sizes])
            inv = invert(op)
            assert op @ inv == TensorOp.identity(n, legs)
            for q0 in (Fraction(3, 2), Fraction(-2, 5)):
                assert dense_from_op(inv, q0) == dense_inverse(dense_from_op(op, q0))

    @pytest.mark.parametrize("kind", ["flip", "empty", "two"])
    def test_singular_blocks(self, kind):
        # a rank-1 flip-like block, an index with no entries, or both that
        # block and a rank-2 dense 4 x 4 one, among invertible blocks; the
        # column is the one the whole-matrix elimination stops at
        rng = random.Random(5)
        for _ in range(8):
            flip = ([[Q, ONE], [Q * Q, Q]], None)
            if kind == "two":
                A = [[_poly(rng) for _ in range(2)] for _ in range(4)]
                B = [[_poly(rng) for _ in range(4)] for _ in range(2)]
                rank2 = [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(4)]
                         for i in range(4)]
                blocks = [(rank2, None), flip] + [_unit_det_block(rng, s) for s in (2, 1)]
            elif kind == "flip":
                blocks = [_unit_det_block(rng, s) for s in (4, 2, 1)] + [flip]
            else:
                blocks = [_unit_det_block(rng, s) for s in (4, 2, 1, 1)]
                blocks.append(([[LaurentPoly.zero()]], None))
            op = _block_op(rng, 3, 2, blocks)
            with pytest.raises(SingularOperatorError) as err:
                invert(op)
            col = _first_dependent_column(dense_from_op(op, Fraction(3, 2)))
            assert str(err.value) == "operator is singular (no pivot in column %d)" % col

    def test_non_laurent_block_reports_whole_determinant(self):
        # one block with determinant q + 1; the others have unit determinants
        rng = random.Random(6)
        for _ in range(4):
            blocks = [_unit_det_block(rng, s) for s in (4, 2, 1)]
            blocks.append(([[Q, ONE], [-ONE, ONE]], Q + ONE))
            op = _block_op(rng, 3, 2, blocks)
            det = ONE
            for _, d in blocks:
                det = det * d
            with pytest.raises(LaurentInversionError) as err:
                invert(op)
            assert str(err.value) == (
                "inverse is not Laurent: determinant obstruction, det = %s" % det)


class TestUnitarityOperatorForm:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rr21_plus_inverse_is_scalar(self, n):
        # R R_21 + (R R_21)^-1 = (q^2 + q^-2) id, the constant-family form of
        # unitarity; oracled below by rational evaluation
        R = standard_sln_R(n).R
        A = R @ R.swapped_legs()
        lhs = A + invert(A)
        scalar = LaurentPoly.q_power(2) + LaurentPoly.q_power(-2)
        assert lhs == TensorOp.identity(n, 2).scale(scalar)
        for q0 in (Fraction(3, 2), Fraction(-2, 5)):
            dense = dense_from_op(A, q0)
            got = [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(dense, dense_inverse(dense))
            ]
            s = q0**2 + q0**-2
            want = [[s * x for x in row] for row in dense_identity(len(dense))]
            assert got == want


class TestSerialization:
    def test_roundtrip_sorted(self):
        R = standard_sln_R(2).R
        blob = R.to_json()
        ents = blob["entries"]
        assert ents == sorted(ents)
        back = TensorOp.from_json(json.loads(json.dumps(blob)))
        assert back == R

    def test_scale_and_add(self):
        R = standard_sln_R(2).R
        assert R - R == TensorOp(2, 2)
        assert (R + R) == R.scale(2)
        assert R.scale(Q).scale(LaurentPoly.q_power(-1)) == R

    def test_sub_in_each_coefficient_ring(self):
        R = standard_sln_R(3).R
        for op in (R, R.map_coefficients(
                       lambda c: PolyQZW({(e, 0, 1): v for e, v in c.terms.items()})),
                   R.map_coefficients(lambda c: c.evaluate(Fraction(3, 2)))):
            diff = op - op.scale(3)
            assert diff == op.scale(-2)
            ring = type(next(iter(op.entries.values())))
            assert all(type(c) is ring for c in diff.entries.values())


class TestConstructorIndices:
    @pytest.mark.parametrize("key", [((1.0,), (2,)), ((1,), (2.0,)), ((True,), (2,)),
                                     (("1",), (2,)), ((3,), (1,)), ((0,), (1,))])
    def test_rejects_non_int_or_out_of_range(self, key):
        with pytest.raises(ValueError, match="integers in 1..n"):
            TensorOp(2, 1, {key: LaurentPoly.one()})

    def test_rejects_a_multi_index_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="multi-index length must equal the leg count"):
            TensorOp(2, 2, {((1,), (1, 2)): LaurentPoly.one()})

    @pytest.mark.parametrize("n, legs", [(0, 2), (2, 0)])
    def test_rejects_an_empty_shape(self, n, legs):
        with pytest.raises(ValueError, match="need n >= 1 and legs >= 1"):
            TensorOp(n, legs)

    def test_accepts_int_indices(self):
        op = TensorOp(2, 1, {((1,), (2,)): LaurentPoly.one()})
        assert list(op.entries) == [((1,), (2,))]

    # a zero coefficient used to be dropped before its key was checked
    BAD_KEYS = [(((1,), (1, 9)), "multi-index length must equal the leg count"),
                (((1, 7), (1, 1)), "integers in 1..n")]

    @pytest.mark.parametrize("zero", [LaurentPoly(), 0])
    @pytest.mark.parametrize("key, message", BAD_KEYS)
    def test_checks_the_key_of_a_zero_entry(self, key, message, zero):
        with pytest.raises(ValueError, match=message):
            TensorOp(2, 2, {key: zero})

    @pytest.mark.parametrize("zero", [{}, {"0": 0}])
    @pytest.mark.parametrize("key, message", BAD_KEYS)
    def test_from_json_checks_the_key_of_a_zero_entry(self, key, message, zero):
        blob = standard_sln_R(2).R.to_json()
        blob["entries"].append([list(key[0]), list(key[1]), zero])
        with pytest.raises(ValueError, match=message):
            TensorOp.from_json(blob)


class TestConstructorEntries:
    @pytest.mark.parametrize("entry", [1.5, True, 0.0])
    def test_rejects_inexact_entries(self, entry):
        # a float entry used to be kept, and composing then computed in floats
        with pytest.raises(ValueError, match="must be a LaurentPoly, PolyQZW, Fraction or int"):
            TensorOp(2, 2, {((1, 1), (1, 1)): entry})

    @pytest.mark.parametrize("fn", [lambda op: op.scale(1.5),
                                    lambda op: op.map_coefficients(lambda c: c / 2),
                                    lambda op: op - op.scale(0.5)])
    def test_arithmetic_rejects_inexact_results(self, fn):
        # scale(1.5) of an int operator used to give the entry 4.5
        with pytest.raises(ValueError, match="must be a LaurentPoly, PolyQZW, Fraction or int"):
            fn(TensorOp(2, 2, {((1, 1), (1, 1)): 3}))

    @pytest.mark.parametrize("entry", [ONE, PolyQZW.one(), Fraction(3, 2), 3])
    def test_accepts_exact_entries(self, entry):
        assert TensorOp(2, 2, {((1, 1), (1, 1)): entry, ((1, 2), (2, 1)): 0}).entries == {
            ((1, 1), (1, 1)): entry}
