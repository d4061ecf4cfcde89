"""Hecke R-matrices and their identity checks.

Provides the standard sl_n family, the quadratic Hecke check, the braid
relation, Baxterisation into a two-parameter spectral numerator, the
parametrised Yang-Baxter identity in denominator-cleared form, unitarity at
exact rational sample points (on operators with ``Fraction`` entries, the
Laurent operators evaluated there), and the braided-integer operators that
drive braided differentiation.

The parametrised Yang-Baxter check multiplies in Z[q, q^-1], not in
Z[q, q^-1, z, w].  Its factors S(z, w), S(z, 1) and S(w, 1) are the images
of the one numerator S under q^a z^b w^c -> q^(a M^2 + b z_e + c w_e) with
(z_e, w_e) = (M, 1), (M, 0) and (1, 0).  The (M, 1) map is Kronecker
substitution, a ring homomorphism, so each side is the (M, 1) image of its
value in Z[q, q^-1, z, w].  Each side has z-degree at most 2 z_max and
w-degree at most w_max + z_max, for the degrees of S, so with
M = 1 + 2 max(z_max, w_max) both lie in 0..M-1, where the map is injective:
floor ``divmod`` by M recovers (a, b, c) from a M^2 + b M + c for any sign
of a.  The sides are therefore equal exactly when their images are; it is
an exact encoding, not an evaluation at sample points.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import LaurentPoly, PolyQZW, add_term
from .tensor import TensorOp, embed, invert, permutation_P


class HeckeData:
    """A two-leg R-matrix together with its Hecke normalization.

    ``q`` is the eigenvalue parameter entering the quadratic relation; it is
    the Laurent variable for the shipped family but may be any unit (for
    example the constant 1 for the plain permutation matrix).
    """

    __slots__ = ("n", "R", "q")

    def __init__(self, n: int, R: TensorOp, q: LaurentPoly = None):
        self.n = n
        self.R = R
        self.q = LaurentPoly.q() if q is None else q

    def PR(self) -> TensorOp:
        return permutation_P(self.n) @ self.R

    def bold_R(self) -> TensorOp:
        """-1/q times R, the normalization used in braided differentiation."""
        return self.R.scale(-self.q.unit_inverse())

    def P_bold_R(self) -> TensorOp:
        return self.PR().scale(-self.q.unit_inverse())


class CheckResult:
    __slots__ = ("check", "n", "passed", "witness", "degrees", "details")

    def __init__(self, check: str, n: int, passed: bool, witness=None, degrees: dict = None,
                 details: dict = None):
        self.check = check
        self.n = n
        self.passed = passed
        self.witness = witness
        self.degrees = degrees
        self.details = details

    def __bool__(self):
        return self.passed

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "n": self.n,
            "pass": self.passed,
            "witness": self.witness,
            "degrees": self.degrees or {},
        }
        if self.details:
            out["details"] = self.details
        return out


def standard_sln_R(n: int) -> HeckeData:
    """The standard sl_n Hecke R-matrix.

    Entries: q on (a,a);(a,a), 1 on (a,b);(a,b) for a != b, and q - 1/q on
    (b,a);(a,b) for a > b.  The off-diagonal triangle sits below the diagonal
    pairs so that the induced quadratic algebra has swap rules that reorder
    indices into increasing order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = LaurentPoly.q()
    lam = q - q.unit_inverse()
    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            entries[((a, b), (a, b))] = q if a == b else LaurentPoly.one()
            if a > b:
                entries[((b, a), (a, b))] = lam
    return HeckeData(n=n, R=TensorOp(n, 2, entries))


def _first_entry_witness(op: TensorOp, show=str):
    if not op.entries:
        return None
    key = min(op.entries)
    row, col = key
    return [list(row), list(col), show(op.entries[key])]


def check_hecke(data: HeckeData) -> CheckResult:
    """Verify (PR - q)(PR + 1/q) = 0 exactly."""
    if data.R.legs != 2:
        raise ValueError("the Hecke check needs a two-leg operator")
    pr = data.PR()
    qv = data.q
    qinv = qv.unit_inverse()
    ident = TensorOp.identity(data.n, 2)
    prod = (pr - ident.scale(qv)) @ (pr + ident.scale(qinv))
    degs = _laurent_degrees(data.R)
    return CheckResult("hecke", data.n, prod.is_zero(), _first_entry_witness(prod), degs)


def check_braid(data: HeckeData) -> CheckResult:
    """Verify (PR)_12 (PR)_23 (PR)_12 = (PR)_23 (PR)_12 (PR)_23 on three legs."""
    pr = data.PR()
    a = embed(pr, [1, 2], 3)
    b = embed(pr, [2, 3], 3)
    lhs, rhs = a @ b @ a, b @ a @ b
    ok = lhs == rhs
    return CheckResult("ybe", data.n, ok, None if ok else _first_entry_witness(lhs - rhs))


def _laurent_degrees(op: TensorOp) -> dict:
    lo = hi = None
    for c in op.entries.values():
        cl, ch = c.min_exp(), c.max_exp()
        lo = cl if lo is None else min(lo, cl)
        hi = ch if hi is None else max(hi, ch)
    return {"q_min": lo, "q_max": hi}


class BaxterisedR:
    """Denominator-cleared spectral numerator S(z, w) = w R - z R_21^{-1}.

    The actual spectral matrix is R(z/w) = S(z, w) / denominator with
    denominator = w q - z / q; both sides of the parametrised Yang-Baxter
    identity carry the same scalar factors, so checks work with S alone.
    """

    __slots__ = ("n", "S", "denominator")

    def __init__(self, n: int, S: TensorOp, denominator: PolyQZW):
        self.n = n
        self.S = S
        self.denominator = denominator


def baxterise(data: HeckeData) -> BaxterisedR:
    r21_inv = invert(data.R).swapped_legs()
    w_R = data.R.map_coefficients(lambda c: PolyQZW.from_laurent(c, w_deg=1))
    z_R21inv = r21_inv.map_coefficients(lambda c: PolyQZW.from_laurent(c, z_deg=1))
    S = w_R - z_R21inv
    denom = PolyQZW.from_laurent(data.q, w_deg=1) - PolyQZW.from_laurent(
        data.q.unit_inverse(), z_deg=1
    )
    return BaxterisedR(n=data.n, S=S, denominator=denom)


def check_pybe(data: HeckeData) -> CheckResult:
    """Parametrised Yang-Baxter identity, exact in q, z, w.

    Verifies S(z,w)_12 S(z,1)_13 S(w,1)_23 = S(w,1)_23 S(z,1)_13 S(z,w)_12
    where S is the cleared numerator; the denominators on the two sides agree
    identically so this is equivalent to the identity for R(z/w), R(z), R(w).

    S is encoded once per factor, straight into Z[q, q^-1]: the factors are
    the images of S under q^a z^b w^c -> q^(a M^2 + b z_e + c w_e) with
    (z_e, w_e) = (M, 1), (M, 0) and (1, 0).  M = 1 + 2 max(z_max, w_max) of
    S: on each side the z-degrees sum to at most 2 z_max (S(z, w) and
    S(z, 1)) and the w-degrees to at most w_max + z_max (S(z, w) and
    S(w, 1)), both below M, where the (M, 1) encoding is injective.  So the
    sides are equal exactly when their images are.  A failure's witness is
    decoded back to a polynomial in q, z and w.
    """
    S = baxterise(data).S
    degs = {}
    dd = None
    for c in S.entries.values():
        g = c.degrees()
        if g:
            dd = g if dd is None else (
                min(dd[0], g[0]), max(dd[1], g[1]), max(dd[2], g[2]), max(dd[3], g[3])
            )
    if dd:
        degs = {"q_min": dd[0], "q_max": dd[1], "z_max": dd[2], "w_max": dd[3]}
    M = 1 + 2 * max(dd[2:]) if dd else 1
    a12, a13, a23 = [embed(S.map_coefficients(lambda c: kronecker_encode(c, M, z_e, w_e)),
                           legs, 3)
                     for (z_e, w_e), legs in (((M, 1), [1, 2]), ((M, 0), [1, 3]),
                                              ((1, 0), [2, 3]))]
    lhs, rhs = a12 @ a13 @ a23, a23 @ a13 @ a12
    ok = lhs == rhs
    witness = None if ok else _first_entry_witness(
        lhs - rhs, lambda c: str(kronecker_decode(c, M)))
    return CheckResult("pybe", data.n, ok, witness, degs)


def kronecker_encode(c: PolyQZW, M: int, z_e: int, w_e: int) -> LaurentPoly:
    """The image of ``c`` under q^a z^b w^c -> q^(a M^2 + b z_e + c w_e).

    With (z_e, w_e) = (M, 1) this is the encoding ``kronecker_decode``
    inverts; other weights can merge terms, which are summed.
    """
    out = {}
    for (qe, zd, wd), v in c.terms.items():
        add_term(out, qe * M * M + zd * z_e + wd * w_e, v)
    r = LaurentPoly.__new__(LaurentPoly)
    r.terms = out
    return r


def kronecker_decode(p: LaurentPoly, M: int) -> PolyQZW:
    """The preimage of ``p`` with z- and w-degrees in 0..M-1."""
    out = {}
    for e, v in p.terms.items():
        qz, wd = divmod(e, M)
        out[divmod(qz, M) + (wd,)] = v
    return PolyQZW(out)


def admissible_samples(count: int, seed: int):
    """Random exact rational (q0, z0) pairs avoiding the spectral poles."""
    rng = random.Random(seed)
    samples = []
    while len(samples) < count:
        q0 = Fraction(rng.randint(2, 9), rng.randint(1, 9))
        if q0 in (0, 1, -1):
            continue
        z0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            z0 = -z0
        if z0 == 0 or z0 == q0**2 or z0 == 1 / q0**2:
            continue
        samples.append((q0, z0))
    return samples


def _spectral_at(data: HeckeData, R: TensorOp, r21_inv: TensorOp, q0: Fraction,
                 z0: Fraction) -> TensorOp:
    """R(z0) at q = q0, from R and R_21^{-1} already evaluated there."""
    denom = data.q.evaluate(q0) - z0 * data.q.unit_inverse().evaluate(q0)
    if denom == 0:
        raise ValueError("sample hits a pole of the spectral family: q0=%s z0=%s" % (q0, z0))
    return (R + r21_inv.scale(-z0)).scale(1 / denom)


def check_unitarity(data: HeckeData, samples) -> CheckResult:
    """Check R(z) R(1/z)_21 = id at exact rational (q0, z0) sample points.

    Each side is an operator with ``Fraction`` entries: R and R_21^{-1}
    evaluated at q0, combined for the sample's z0.
    """
    r21_inv = invert(data.R).swapped_legs()
    ident = TensorOp.identity(data.n, 2, Fraction(1))
    bad = None
    checked = []
    for q0, z0 in samples:
        q0, z0 = Fraction(q0), Fraction(z0)
        if q0 in (0, 1, -1) or z0 in (0, q0**2, 1 / q0**2):
            raise ValueError("inadmissible sample: q0=%s z0=%s" % (q0, z0))
        R0, r21_inv0 = [op.map_coefficients(lambda c: c.evaluate(q0)) for op in (data.R, r21_inv)]
        lhs = _spectral_at(data, R0, r21_inv0, q0, z0)
        rhs = _spectral_at(data, R0, r21_inv0, q0, 1 / z0).swapped_legs()
        ok = lhs @ rhs == ident
        checked.append({"q0": str(q0), "z0": str(z0), "pass": ok})
        if not ok and bad is None:
            bad = {"q0": str(q0), "z0": str(z0)}
    degs = _laurent_degrees(data.R)
    degs["samples"] = len(checked)
    return CheckResult("unitarity", data.n, bad is None, bad, degs, {"samples": checked})


# ---- braided integer operators ---------------------------------------------


def _pr_chain(r_like: TensorOp, ks, total: int) -> list:
    """Running products of (PR)_{k,k+1} on ``total`` legs, for k in ``ks`` in order.

    Entry t is (PR)_{k0,k0+1} ... (PR)_{kt,kt+1}.
    """
    chain = []
    if ks:
        pr = permutation_P(r_like.n) @ r_like
        for k in ks:
            factor = embed(pr, [k, k + 1], total)
            chain.append(chain[-1] @ factor if chain else factor)
    return chain


def _braided_integer(m: int, r_like: TensorOp, ks) -> TensorOp:
    if m < 1:
        raise ValueError("braided integer needs m >= 1")
    out = TensorOp.identity(r_like.n, m)
    for prefix in _pr_chain(r_like, ks, m):
        out = out + prefix
    return out


def braided_integer(m: int, r_like: TensorOp) -> TensorOp:
    """1 + (PR)_12 + (PR)_12 (PR)_23 + ... on m legs, built from R-like input."""
    return _braided_integer(m, r_like, range(1, m))


def braided_integer_bar(m: int, r_like: TensorOp) -> TensorOp:
    """1 + (PR)_{m-1,m} + (PR)_{m-1,m} (PR)_{m-2,m-1} + ... on m legs."""
    return _braided_integer(m, r_like, range(m - 1, 0, -1))


def _interval_product(m: int, n_leg: int, r_like: TensorOp, total, ks) -> TensorOp:
    if m >= n_leg:
        raise ValueError("interval product needs m < n")
    return _pr_chain(r_like, ks, total or n_leg)[-1]


def interval_product(m: int, n_leg: int, r_like: TensorOp, total: int = None) -> TensorOp:
    """(PR)_{m,m+1} (PR)_{m+1,m+2} ... (PR)_{n-1,n} on ``total`` legs."""
    return _interval_product(m, n_leg, r_like, total, range(m, n_leg))


def interval_product_bar(m: int, n_leg: int, r_like: TensorOp, total: int = None) -> TensorOp:
    """(PR)_{n-1,n} ... (PR)_{m+1,m+2} (PR)_{m,m+1} on ``total`` legs."""
    return _interval_product(m, n_leg, r_like, total, range(n_leg - 1, m - 1, -1))


def hecke_PR_inverse(data: HeckeData) -> TensorOp:
    """(PR)^{-1} = PR - (q - 1/q), the quadratic-relation shortcut."""
    pr = data.PR()
    lam = data.q - data.q.unit_inverse()
    return pr - TensorOp.identity(data.n, 2).scale(lam)
