import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braided_fock.coeff import LaurentPoly, PolyQZW
from braided_fock.rmatrix import (
    HeckeData,
    admissible_samples,
    baxterise,
    braided_integer,
    braided_integer_bar,
    check_braid,
    check_hecke,
    check_pybe,
    check_unitarity,
    hecke_PR_inverse,
    interval_product,
    interval_product_bar,
    kronecker_decode,
    kronecker_encode,
    standard_sln_R,
)
from braided_fock.tensor import TensorOp, embed, invert, permutation_P

from helpers import dense_inverse, dense_mul, dense_standard_R, dense_P, reference_substitute

Q = LaurentPoly.q()
ONE = LaurentPoly.one()
Z, W = PolyQZW({(0, 1, 0): 1}), PolyQZW({(0, 0, 1): 1})


class TestStandardR:
    def test_n1_is_q(self):
        d = standard_sln_R(1)
        assert d.R == TensorOp(1, 2, {((1, 1), (1, 1)): Q})
        assert check_hecke(d).passed

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
        bad = HeckeData(n=2, R=embed(data.R, [1, 2], 3))
        with pytest.raises(ValueError):
            check_hecke(bad)


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
        bax = baxterise(d)
        at_z0 = bax.S.map_coefficients(lambda c: reference_substitute(c, 0, W))
        wR = d.R.map_coefficients(lambda c: PolyQZW.from_laurent(c, w_deg=1))
        assert at_z0 == wR

    def test_z1_w1_is_R_minus_R21inv(self):
        d = standard_sln_R(2)
        bax = baxterise(d)
        r21inv = invert(d.R).swapped_legs()
        want = (d.R - r21inv).map_coefficients(PolyQZW.from_laurent)
        assert bax.S.map_coefficients(lambda c: reference_substitute(c, 1, 1)) == want

    def test_denominator(self):
        d = standard_sln_R(3)
        bax = baxterise(d)
        assert bax.denominator == PolyQZW({(1, 0, 1): 1, (-1, 1, 0): -1})


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
        S = baxterise(data).S
        a12 = embed(S, [1, 2], 3)
        a13 = embed(S.map_coefficients(lambda c: reference_substitute(c, Z, 1)), [1, 3], 3)
        a23 = embed(S.map_coefficients(lambda c: reference_substitute(c, W, 1)), [2, 3], 3)
        diff = a12 @ a13 @ a23 - a23 @ a13 @ a12
        row, col = min(diff.entries)
        res = check_pybe(data)
        assert not res.passed and "w^2" in res.witness[2]
        assert res.witness == [list(row), list(col), str(diff.entries[row, col])]


# polynomials shaped like the entries of S(z, w): z- and w-degrees at most 1
_QZW = st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(0, 1), st.integers(0, 1)),
                       st.integers(-3, 3).filter(bool), min_size=1, max_size=4).map(PolyQZW)


def _pybe_base(*polys):
    """M as check_pybe takes it from the degrees of S."""
    return 1 + 2 * max(max(p.degrees()[2:]) for p in polys)


class TestKronecker:
    @settings(max_examples=200, deadline=None)
    @given(f=_QZW, g=_QZW, h=_QZW)
    def test_product_round_trip(self, f, g, h):
        # the factors encoded as S(z,w), S(z,1), S(w,1) multiply to the
        # encoding of f(z,w) g(z,1) h(w,1)
        M = _pybe_base(f, g, h)
        enc = (kronecker_encode(f, M, M, 1) * kronecker_encode(g, M, M, 0)
               * kronecker_encode(h, M, 1, 0))
        prod = f * reference_substitute(g, Z, 1) * reference_substitute(h, W, 1)
        assert kronecker_decode(enc, M) == prod

    @settings(max_examples=100, deadline=None)
    @given(f=_QZW)
    def test_weights_are_substitutions(self, f):
        M = _pybe_base(f)
        assert kronecker_encode(f, M, M, 0) == kronecker_encode(
            reference_substitute(f, Z, 1), M, M, 1)
        assert kronecker_encode(f, M, 1, 0) == kronecker_encode(
            reference_substitute(f, W, 1), M, M, 1)

    def test_merged_terms_cancel(self):
        # z w - z is 0 at w = 1 and must leave no zero term behind
        assert kronecker_encode(Z * W - Z, 3, 3, 0).terms == {}


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

    def test_against_dense_oracle(self):
        # independent dense rational construction of R(z) R(1/z)_21
        n, q0, z0 = 2, Fraction(3, 2), Fraction(2)
        R = dense_standard_R(n, q0)
        P = dense_P(n)
        Rinv = dense_inverse(R)
        R21inv = dense_mul(P, dense_mul(Rinv, P))

        def spectral(z):
            den = q0 - z / q0
            return [[(a - z * b) / den for a, b in zip(r1, r2)] for r1, r2 in zip(R, R21inv)]

        lhs = spectral(z0)
        rhs = dense_mul(P, dense_mul(spectral(1 / z0), P))
        prod = dense_mul(lhs, rhs)
        d = len(prod)
        assert prod == [
            [Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)
        ]
        assert check_unitarity(standard_sln_R(n), [(q0, z0)]).passed


def _broken(n, kind):
    """The standard R broken so that it is no longer Hecke.

    ``lambda_doubled`` doubles every off-diagonal entry (the q - 1/q ones);
    ``diagonal_q3`` sets the (1, 1) diagonal entry to q^3.
    """
    entries = dict(standard_sln_R(n).R.entries)
    if kind == "lambda_doubled":
        for (row, col), c in entries.items():
            if row != col:
                entries[(row, col)] = c * 2
    else:
        entries[((1, 1), (1, 1))] = LaurentPoly.q_power(3)
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

    def test_operator_file_is_lambda_doubled(self):
        # the operator file the CI step checks from the command line
        path = pathlib.Path(__file__).parent / "data" / "lambda_doubled_n2.json"
        assert TensorOp.from_json(json.loads(path.read_text())) == _broken(2, "lambda_doubled").R


class TestBraidedIntegers:
    def test_m1_identity(self):
        d = standard_sln_R(2)
        assert braided_integer(1, d.bold_R()) == TensorOp.identity(2, 1)
        assert braided_integer_bar(1, d.bold_R()) == TensorOp.identity(2, 1)

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
