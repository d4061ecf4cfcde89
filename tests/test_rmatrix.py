import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braided_fock import rmatrix
from braided_fock.coeff import LaurentPoly, PolyQZW
from braided_fock.rmatrix import (
    KRONECKER_M,
    HeckeData,
    admissible_samples,
    braided_integer,
    braided_integer_bar,
    check_braid,
    check_hecke,
    check_pybe,
    check_unitarity,
    hecke_PR_inverse,
    integer_images,
    interval_product,
    interval_product_bar,
    kronecker_decode,
    kronecker_encode,
    standard_sln_R,
)
from braided_fock.tensor import TensorOp, embed, invert, permutation_P

from helpers import (
    dense_from_op,
    dense_identity,
    dense_inverse,
    dense_mul,
    dense_standard_R,
    dense_P,
    reference_baxterised_S,
    reference_S_entry,
    reference_substitute,
)

Q = LaurentPoly.q()
ONE = LaurentPoly.one()
Z, W = PolyQZW({(0, 1, 0): 1}), PolyQZW({(0, 0, 1): 1})
DATA = pathlib.Path(__file__).parent / "data"


def _from_file(name):
    op = TensorOp.from_json(json.loads((DATA / name).read_text()))
    return HeckeData(n=op.n, R=op)


def _reference_pybe_difference(data):
    """S(z,w)_12 S(z,1)_13 S(w,1)_23 - S(w,1)_23 S(z,1)_13 S(z,w)_12 over PolyQZW."""
    S = reference_baxterised_S(data)
    a12 = embed(S, [1, 2], 3)
    a13 = embed(S.map_coefficients(lambda c: reference_substitute(c, Z, 1)), [1, 3], 3)
    a23 = embed(S.map_coefficients(lambda c: reference_substitute(c, W, 1)), [2, 3], 3)
    return a12 @ a13 @ a23 - a23 @ a13 @ a12


def _laurent_braid_difference(data):
    """(PR)_12 (PR)_23 (PR)_12 - (PR)_23 (PR)_12 (PR)_23, composed over Z[q, q^-1]."""
    pr = data.PR()
    a, b = embed(pr, [1, 2], 3), embed(pr, [2, 3], 3)
    return a @ b @ a - b @ a @ b


def _first_entry(op):
    row, col = min(op.entries)
    return [list(row), list(col), str(op.entries[row, col])]


class TestStandardR:
    def test_n1_is_q(self):
        d = standard_sln_R(1)
        assert d.R == TensorOp(1, 2, {((1, 1), (1, 1)): Q})
        assert check_hecke(d).passed

    def test_n0_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            standard_sln_R(0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hecke(self, n):
        assert check_hecke(standard_sln_R(n)).passed

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_braid(self, n):
        assert check_braid(standard_sln_R(n)).passed

    def test_entry_pattern_n2(self):
        R = standard_sln_R(2).R
        lam = Q - LaurentPoly.q_power(-1)
        assert R.entries[((1, 1), (1, 1))] == Q
        assert R.entries[((1, 2), (1, 2))] == ONE
        assert R.entries[((1, 2), (2, 1))] == lam
        assert ((2, 1), (1, 2)) not in R.entries


class TestCheckHecke:
    def test_identity_fails_with_witness(self):
        for n in (1, 2):
            data = HeckeData(n=n, R=TensorOp.identity(n, 2))
            res = check_hecke(data)
            assert not res.passed
            assert res.witness is not None
        # n=1: (1 - q)(1 + q^-1) as the witness value
        data = HeckeData(n=1, R=TensorOp.identity(1, 2))
        res = check_hecke(data)
        expect = (ONE - Q) * (ONE + LaurentPoly.q_power(-1))
        assert res.witness[2] == str(expect)

    def test_permutation_at_q_one(self):
        # R = P with the parameter specialized to 1: (P - 1)(P + 1) = 0
        for n in (2, 3):
            data = HeckeData(n=n, R=permutation_P(n), q=LaurentPoly.one())
            assert check_hecke(data).passed

    def test_dimension_mismatch(self):
        data = standard_sln_R(2)
        with pytest.raises(ValueError):
            check_hecke(HeckeData(n=2, R=embed(data.R, [1, 2], 3)))

    def test_wrong_rank_rejected_by_every_check(self):
        # check_pybe used to pass an R of rank 2 declared as rank 3, where the
        # other checks raised "operator shape mismatch"
        with pytest.raises(ValueError, match="R must be a two-leg operator of rank 3, "
                                             "got 2 legs of rank 2"):
            HeckeData(3, standard_sln_R(2).R)

    def test_inexact_entry_rejected(self):
        # an int entry used to construct, and check_hecke then raised an
        # AttributeError about min_exp
        with pytest.raises(ValueError, match="an entry of R must be a LaurentPoly"):
            HeckeData(2, TensorOp(2, 2, {((1, 1), (1, 1)): 3}))
        with pytest.raises(ValueError, match="q must be a LaurentPoly"):
            HeckeData(2, TensorOp.identity(2, 2), q=1)


class TestHeckeShortcuts:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_PR_inverse_identity(self, n):
        # (PR)^-1 = PR - (q - 1/q), and it matches general inversion
        d = standard_sln_R(n)
        short = hecke_PR_inverse(d)
        assert short @ d.PR() == TensorOp.identity(n, 2)
        if n <= 3:
            assert short == invert(d.PR())

    @pytest.mark.parametrize("n", [2, 3])
    def test_bold_R_quadratic(self, n):
        # (P bold_R)^2 = q^-2 + (q^-2 - 1) P bold_R
        d = standard_sln_R(n)
        pb = d.P_bold_R()
        qm2 = LaurentPoly.q_power(-2)
        ident = TensorOp.identity(n, 2)
        assert pb @ pb == ident.scale(qm2) + pb.scale(qm2 - ONE)


class TestBaxterise:
    def test_z_zero_gives_wR(self):
        d = standard_sln_R(2)
        S = reference_baxterised_S(d)
        at_z0 = S.map_coefficients(lambda c: reference_substitute(c, 0, W))
        wR = d.R.map_coefficients(lambda c: PolyQZW({(e, 0, 1): v for e, v in c.terms.items()}))
        assert at_z0 == wR

    def test_z1_w1_is_R_minus_R21inv(self):
        d = standard_sln_R(2)
        S = reference_baxterised_S(d)
        r21inv = invert(d.R).swapped_legs()
        want = (d.R - r21inv).map_coefficients(
            lambda c: PolyQZW({(e, 0, 0): v for e, v in c.terms.items()}))
        assert S.map_coefficients(lambda c: reference_substitute(c, 1, 1)) == want


class TestPYBE:
    @pytest.mark.parametrize("n", [2, 3])
    def test_standard(self, n):
        res = check_pybe(standard_sln_R(n))
        assert res.passed

    def test_permutation_at_q_one(self):
        for n in (2, 3):
            data = HeckeData(n=n, R=permutation_P(n), q=LaurentPoly.one())
            assert check_pybe(data).passed

    def test_degrees_reported(self):
        res = check_pybe(standard_sln_R(2))
        assert res.degrees["z_max"] == 1 and res.degrees["w_max"] == 1

    def test_witness_matches_polyqzw_sides(self):
        # with the last diagonal entry 1 instead of q the first failing entry
        # has w-degree 2, which only an M above 2 reads back
        entries = dict(standard_sln_R(2).R.entries)
        entries[((2, 2), (2, 2))] = ONE
        data = HeckeData(n=2, R=TensorOp(2, 2, entries))
        res = check_pybe(data)
        assert not res.passed and "w^2" in res.witness[2]
        assert res.witness == _first_entry(_reference_pybe_difference(data))


# an entry of S(z, w) = w R - z R_21^-1: the entries of R and R_21^-1 at one
# position, either of which may be zero
_LAURENT = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool),
                           max_size=4).map(LaurentPoly)
_PAIR = st.tuples(_LAURENT, _LAURENT)


class TestKronecker:
    @settings(max_examples=200, deadline=None)
    @given(f=_PAIR, g=_PAIR, h=_PAIR)
    def test_product_round_trip(self, f, g, h):
        # the factors encoded as S(z,w), S(z,1), S(w,1) multiply to the
        # encoding of f(z,w) g(z,1) h(w,1)
        M = KRONECKER_M
        enc = (kronecker_encode(*f, M, 1) * kronecker_encode(*g, M, 0)
               * kronecker_encode(*h, 1, 0))
        prod = (reference_S_entry(*f) * reference_substitute(reference_S_entry(*g), Z, 1)
                * reference_substitute(reference_S_entry(*h), W, 1))
        assert kronecker_decode(enc) == prod

    @settings(max_examples=100, deadline=None)
    @given(f=_PAIR)
    def test_weights_are_substitutions(self, f):
        M = KRONECKER_M
        S = reference_S_entry(*f)
        assert kronecker_decode(kronecker_encode(*f, M, 1)) == S
        assert kronecker_decode(kronecker_encode(*f, M, 0)) == reference_substitute(S, Z, 1)
        assert kronecker_decode(kronecker_encode(*f, 1, 0)) == reference_substitute(S, W, 1)

    def test_merged_terms_cancel(self):
        # w r - z r is 0 at z = w = 1 and must leave no zero term behind
        r = Q - LaurentPoly.q_power(-1)
        assert kronecker_encode(r, r, 0, 0).terms == {}


_INDEX = st.tuples(st.integers(1, 2), st.integers(1, 2))
_OPERATOR = st.dictionaries(st.tuples(_INDEX, _INDEX), _LAURENT, max_size=8).map(
    lambda entries: TensorOp(2, 2, entries))


def _bound_bits(factors, u):
    """The least b with 2^b > 4 k^(u-1) L^u, the bound ``integer_images`` documents."""
    k = max(max(Counter(row for row, _ in op.entries).values(), default=0) for op in factors)
    L = max(sum(map(abs, c.terms.values())) for op in factors for c in op.entries.values())
    return (4 * k ** (u - 1) * L ** u).bit_length()


def _pybe_sides(factors):
    a12, a13, a23 = [embed(f, legs, 3) for f, legs in zip(factors, ([1, 2], [1, 3], [2, 3]))]
    return a12 @ a13 @ a23, a23 @ a13 @ a12


def _image_types(monkeypatch, check, data):
    """The entry types of the images a check composes; the check must pass."""
    seen, images_of = set(), rmatrix.integer_images

    def spy(factors, u):
        images, decode = images_of(factors, u)
        seen.update(type(c) for op in images for c in op.entries.values())
        return images, decode

    monkeypatch.setattr(rmatrix, "integer_images", spy)
    assert check(data).passed
    return seen


class TestIntegerImages:
    @settings(max_examples=150, deadline=None)
    @given(factors=st.lists(_OPERATOR, min_size=3, max_size=3))
    def test_three_factor_composition_decodes(self, factors):
        # each side and their difference, composed on the images and decoded,
        # are the Laurent compositions
        images, decode = integer_images(factors, 3)
        assert all(type(c) is int for op in images for c in op.entries.values())
        lhs, rhs = _pybe_sides(factors)
        ilhs, irhs = _pybe_sides(images)
        for want, got in ((lhs, ilhs), (rhs, irhs), (lhs - rhs, ilhs - irhs)):
            assert got.map_coefficients(decode) == want

    @settings(max_examples=100, deadline=None)
    @given(op=_OPERATOR.filter(lambda op: op.entries), data=st.data())
    def test_edge_digits_round_trip(self, op, data):
        # digits up to +-(2^(b-1) - 1), the leading one negative, read back
        _, decode = integer_images([op], 3)
        b = _bound_bits([op], 3)
        edge = 2 ** (b - 1) - 1
        digits = data.draw(st.lists(st.sampled_from([edge, -edge, 0]) | st.integers(-edge, edge),
                                    max_size=5))
        digits.append(data.draw(st.sampled_from([-edge, -1])))
        # the images run q^-1 = 2^b down from the top exponent of the factors
        shift = 3 * max(e for c in op.entries.values() for e in c.terms)
        x = sum(d << b * i for i, d in enumerate(digits))
        assert decode(x) == LaurentPoly({shift - i: d for i, d in enumerate(digits)})

    def test_difference_reaching_the_bound_decodes(self):
        # every path of A A A and of D A A carries 1000 q, so the sides reach
        # k^2 L^3 and -k^2 L^3 and their difference twice that, the most the
        # digits must hold
        A = TensorOp(2, 1, {((r,), (c,)): LaurentPoly.q_power(1, 1000)
                            for r in (1, 2) for c in (1, 2)})
        D = A.scale(-1)
        (ia, id_), decode = integer_images([A, D], 3)
        diff = ia @ ia @ ia - id_ @ ia @ ia
        assert diff.map_coefficients(decode) == A @ A @ A - D @ A @ A
        assert all(decode(c) == LaurentPoly.q_power(3, 8 * 10**9) for c in diff.entries.values())
        assert len(diff.entries) == 4

    @pytest.mark.parametrize("check", [check_hecke, check_braid, check_pybe])
    def test_wide_exponent_span_stays_laurent(self, monkeypatch, check):
        # exponents up to 24000 would make integers of about 10^5 bits
        assert _image_types(monkeypatch, check, _from_file("twist_3000_n3.json")) == {LaurentPoly}

    @pytest.mark.parametrize("check", [check_hecke, check_braid, check_pybe])
    def test_standard_n10_takes_integer_images(self, monkeypatch, check):
        assert _image_types(monkeypatch, check, standard_sln_R(10)) == {int}


class TestUnitarity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_samples(self, n):
        d = standard_sln_R(n)
        res = check_unitarity(d, admissible_samples(5, seed=11))
        assert res.passed
        assert res.degrees["samples"] == 5

    def test_named_sample(self):
        d = standard_sln_R(2)
        assert check_unitarity(d, [(Fraction(3, 2), Fraction(2))]).passed

    def test_z_equal_one(self):
        # R(1) R(1)_21 = id, equivalent to the cleared constant-family form
        d = standard_sln_R(2)
        assert check_unitarity(d, [(Fraction(3, 2), Fraction(1))]).passed

    def test_pole_rejected(self):
        d = standard_sln_R(2)
        q0 = Fraction(3, 2)
        with pytest.raises(ValueError):
            check_unitarity(d, [(q0, q0**2)])
        with pytest.raises(ValueError):
            check_unitarity(d, [(q0, 1 / q0**2)])
        with pytest.raises(ValueError):
            check_unitarity(d, [(Fraction(1), Fraction(2))])
        # at q = 1 the pole z = q^2 is z0 = 1, which no sample rule excludes
        flip = HeckeData(2, permutation_P(2), LaurentPoly.one())
        with pytest.raises(ValueError, match="hits a pole"):
            check_unitarity(flip, [(Fraction(2), Fraction(1))])

    def test_no_samples_rejected(self):
        # used to report pass for the identity R, which the sample (2, 3) rejects
        d = HeckeData(2, TensorOp.identity(2, 2))
        assert not check_unitarity(d, [(Fraction(2), Fraction(3))]).passed
        with pytest.raises(ValueError, match="at least one sample"):
            check_unitarity(d, [])

    def test_against_dense_oracle(self):
        # independent dense rational construction of R(z) R(1/z)_21, first
        # from the standard R's entry formula
        q0, z0 = Fraction(3, 2), Fraction(2)
        assert _dense_unitarity(dense_standard_R(2, q0), 2, q0, z0)
        assert check_unitarity(standard_sln_R(2), [(q0, z0)]).passed
        # failing samples too: each sample's pass is the dense product's, and
        # at a fixed q0 it does not depend on z0
        controls = {"standard": standard_sln_R(2), "flip": HeckeData(2, TensorOp.identity(2, 2)),
                    "lambda_doubled": _broken(2, "lambda_doubled"),
                    "diagonal_q3": _broken(2, "diagonal_q3")}
        z0s = (Fraction(1), Fraction(2), Fraction(-5, 7), Fraction(1, 3))
        for name, data in controls.items():
            for q0 in (Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3)):
                got = [check_unitarity(data, [(q0, z0)]).passed for z0 in z0s]
                dense = dense_from_op(data.R, q0)
                assert got == [_dense_unitarity(dense, 2, q0, z0) for z0 in z0s]
                assert got == [name == "standard"] * len(z0s)

    def test_sampled_pass_is_not_a_proof(self):
        # D = R R_21 + R_21^-1 R^-1 - (q^2 + q^-2) is nonzero, but its entries
        # -6q + 9 + 6q^-1 vanish at q0 = 2 and q0 = -1/2
        data = _sampled_pass_R()
        for z0 in (Fraction(1), Fraction(-3, 4), Fraction(5)):
            for q0, ok in ((Fraction(2), True), (Fraction(-1, 2), True),
                           (Fraction(3, 2), False)):
                assert check_unitarity(data, [(q0, z0)]).passed is ok
                assert _dense_unitarity(dense_from_op(data.R, q0), 2, q0, z0) is ok

    def test_controls_match_golden(self):
        golden = pathlib.Path(__file__).parent / "golden" / "check_unitarity_controls.json"
        assert _unitarity_control_reports() == golden.read_text()


def _dense_unitarity(R, n, q0, z0):
    """Whether R(z0) R(1/z0)_21 = 1 for the dense matrix R of an R-matrix at q = q0.

    R(z) = (R - z R_21^-1) / (q0 - z/q0), the Baxterisation with Hecke
    parameter q, built with dense rational arithmetic.
    """
    P = dense_P(n)
    R21inv = dense_mul(P, dense_mul(dense_inverse(R), P))

    def spectral(z):
        den = q0 - z / q0
        return [[(a - z * b) / den for a, b in zip(r1, r2)] for r1, r2 in zip(R, R21inv)]

    prod = dense_mul(spectral(z0), dense_mul(P, dense_mul(spectral(1 / z0), P)))
    return prod == dense_identity(len(prod))


def _sampled_pass_R():
    """The standard R at n = 2 with -3 added to its (1,2);(2,1) entry, q - 3 - 1/q."""
    entries = dict(standard_sln_R(2).R.entries)
    entries[((1, 2), (2, 1))] = entries[((1, 2), (2, 1))] - 3
    return HeckeData(n=2, R=TensorOp(2, 2, entries))


def _unitarity_control_reports():
    """The unitarity reports at ``admissible_samples(5, 0)``, as the golden file holds them."""
    controls = {"sampled_pass n=2": _sampled_pass_R(),
                "twist_3000_n3": _from_file("twist_3000_n3.json")}
    for n in (2, 3):
        controls["identity n=%d" % n] = HeckeData(n=n, R=TensorOp.identity(n, 2))
        for kind in ("lambda_doubled", "diagonal_q3"):
            controls["%s n=%d" % (kind, n)] = _broken(n, kind)
    samples = admissible_samples(5, 0)
    reports = {name: check_unitarity(data, samples).to_json() for name, data in controls.items()}
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


def _broken(n, kind):
    """The standard R broken so that it is no longer Hecke.

    ``lambda_doubled`` doubles every off-diagonal entry (the q - 1/q ones),
    ``lambda_x1000`` multiplies them by 1000, ``diagonal_q3`` sets the (1, 1)
    diagonal entry to q^3 and ``diagonal_q3_last`` the (n, n) one.
    """
    entries = dict(standard_sln_R(n).R.entries)
    if kind.startswith("lambda"):
        for (row, col), c in entries.items():
            if row != col:
                entries[(row, col)] = c * (2 if kind == "lambda_doubled" else 1000)
    else:
        a = n if kind == "diagonal_q3_last" else 1
        entries[((a, a), (a, a))] = LaurentPoly.q_power(3)
    return HeckeData(n=n, R=TensorOp(n, 2, entries))


def _broken_reports():
    """The pybe and ybe reports of the broken controls, as the golden file holds them."""
    reports = {}
    for kind in ("lambda_doubled", "diagonal_q3"):
        for n in (2, 3):
            for check in (check_pybe, check_braid):
                res = check(_broken(n, kind))
                reports["%s n=%d %s" % (kind, n, res.check)] = res.to_json()
    return json.dumps(reports, indent=1, sort_keys=True) + "\n"


class TestBrokenR:
    def test_unitarity_rejects_with_first_failing_sample(self):
        res = check_unitarity(_broken(2, "lambda_doubled"), admissible_samples(5, seed=11))
        assert not res.passed
        samples = res.details["samples"]
        first_bad = next(s for s in samples if not s["pass"])
        assert res.witness == {"q0": first_bad["q0"], "z0": first_bad["z0"]}
        assert len(samples) == 5

    def test_pybe_rejects_with_witness(self):
        res = check_pybe(_broken(2, "lambda_doubled"))
        assert not res.passed
        assert res.witness is not None

    def test_witnesses_match_golden(self):
        # every control fails, and the reports (witnesses included) keep their bytes
        golden = pathlib.Path(__file__).parent / "golden" / "check_broken_controls.json"
        text = _broken_reports()
        assert all(not r["pass"] and r["witness"] for r in json.loads(text).values())
        assert text == golden.read_text()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["lambda_doubled", "lambda_x1000", "diagonal_q3",
                                      "diagonal_q3_last"])
    def test_pybe_witness_matches_reference(self, kind, n):
        # decoded from 2^b digits, then from the M = 3 Kronecker encoding;
        # the diagonal_q3_last witness has w-degree 2, which M = 2 misreads
        data = _broken(n, kind)
        res = check_pybe(data)
        assert not res.passed
        assert res.degrees["z_max"] == res.degrees["w_max"] == 1
        assert res.witness == _first_entry(_reference_pybe_difference(data))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["lambda_doubled", "lambda_x1000", "diagonal_q3",
                                      "diagonal_q3_last"])
    def test_braid_witness_matches_laurent_sides(self, kind, n):
        data = _broken(n, kind)
        res = check_braid(data)
        assert not res.passed
        assert res.witness == _first_entry(_laurent_braid_difference(data))

    def test_diagonal_5q_file_witnesses(self):
        # the braid witness has a coefficient of 70; the Hecke one is the first
        # entry of (PR - q)(PR + 1/q) over Z[q, q^-1]
        data = _from_file("diagonal_5q_n2.json")
        diff = _laurent_braid_difference(data)
        res = check_braid(data)
        assert res.witness == _first_entry(diff) and "70" in res.witness[2]
        ident = TensorOp.identity(2, 2)
        prod = (data.PR() - ident.scale(Q)) @ (data.PR() + ident.scale(Q.unit_inverse()))
        assert check_hecke(data).witness == _first_entry(prod)

    def test_operator_file_is_lambda_doubled(self):
        # the operator file the CI step checks from the command line
        path = pathlib.Path(__file__).parent / "data" / "lambda_doubled_n2.json"
        assert TensorOp.from_json(json.loads(path.read_text())) == _broken(2, "lambda_doubled").R


class TestBraidedIntegers:
    def test_m1_identity(self):
        d = standard_sln_R(2)
        assert braided_integer(1, d.bold_R()) == TensorOp.identity(2, 1)
        assert braided_integer_bar(1, d.bold_R()) == TensorOp.identity(2, 1)

    @pytest.mark.parametrize("build", [braided_integer, braided_integer_bar])
    def test_m0_rejected(self, build):
        with pytest.raises(ValueError, match="m >= 1"):
            build(0, standard_sln_R(2).bold_R())

    def test_m2_forms(self):
        d = standard_sln_R(2)
        bold = d.bold_R()
        pb = permutation_P(2) @ bold
        want = TensorOp.identity(2, 2) + pb
        assert braided_integer(2, bold) == want
        assert braided_integer_bar(2, bold) == want

    def test_m3_structure(self):
        d = standard_sln_R(2)
        bold = d.bold_R()
        pb = permutation_P(2) @ bold
        a12, a23 = embed(pb, [1, 2], 3), embed(pb, [2, 3], 3)
        ident = TensorOp.identity(2, 3)
        assert braided_integer(3, bold) == ident + a12 + a12 @ a23
        assert braided_integer_bar(3, bold) == ident + a23 + a23 @ a12


class TestIntervalProducts:
    def test_single_factor(self):
        d = standard_sln_R(2)
        pr = d.PR()
        assert interval_product(1, 2, d.R) == pr

    def test_one_three(self):
        d = standard_sln_R(2)
        pr = d.PR()
        a12, a23 = embed(pr, [1, 2], 3), embed(pr, [2, 3], 3)
        assert interval_product(1, 3, d.R) == a12 @ a23
        assert interval_product_bar(1, 3, d.R) == a23 @ a12

    def test_total_padding(self):
        d = standard_sln_R(2)
        pr = d.PR()
        assert interval_product(1, 2, d.R, total=3) == embed(pr, [1, 2], 3)

    def test_bad_range(self):
        d = standard_sln_R(2)
        with pytest.raises(ValueError):
            interval_product(2, 2, d.R)
        with pytest.raises(ValueError):
            interval_product_bar(3, 2, d.R)


class TestReports:
    def test_json_shape(self):
        res = check_hecke(standard_sln_R(2))
        blob = res.to_json()
        assert blob["check"] == "hecke" and blob["pass"] is True
        assert blob["witness"] is None
        json.dumps(blob, sort_keys=True)
