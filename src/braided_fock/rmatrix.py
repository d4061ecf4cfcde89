"""Hecke R-matrices and their identity checks.

Provides the standard sl_n family, the quadratic Hecke check, the braid
relation, the parametrised Yang-Baxter identity for the Baxterised numerator
S(z, w) = w R - z R_21^-1 in denominator-cleared form, unitarity at exact
rational sample points, and the braided-integer operators that drive braided
differentiation.

The parametrised Yang-Baxter check multiplies in Z[q, q^-1], not in
Z[q, q^-1, z, w].  Its factors S(z, w), S(z, 1) and S(w, 1) are the images
of S under q^a z^b w^c -> q^(a M^2 + b z_e + c w_e) with (z_e, w_e) = (M, 1),
(M, 0) and (1, 0), built straight from R (the w-part) and R_21^-1 (the
z-part), which never merge.  The (M, 1) map is Kronecker substitution, a ring
homomorphism, so each side is the (M, 1) image of its value in
Z[q, q^-1, z, w].  Each side has z-degree at most 2 z_max and w-degree at
most w_max + z_max, for the degrees of S, so with M = 1 + 2 max(z_max, w_max)
both lie in 0..M-1, where the map is injective: floor ``divmod`` by M
recovers (a, b, c) from a M^2 + b M + c for any sign of a.  The sides are
therefore equal exactly when their images are; it is an exact encoding, not
an evaluation at sample points.

The Hecke, braid and pYBE checks then compose plain integers:
``integer_images`` maps each Laurent factor to Z by q^-1 -> 2^b from the
factors' top exponent (``coeff.to_image``), with b large enough
(2^b > 4 k^(u-1) L^u, see there) that the map is injective on the sides of
the identity and on their difference.  Only a failing entry is decoded.
When a wide exponent span would make the integers costlier than Laurent
products, the factors stay Laurent.

Unitarity R(z) R(1/z)_21 = 1 of the Baxterisation
R(z) = (R - z R_21^-1) / (q - z/q) reduces to one Laurent operator: the
product is (X - (z + 1/z)) / (q^2 + q^-2 - (z + 1/z)) with
X = R R_21 + R_21^-1 R^-1, so at a sample (q0, z0) away from the poles it is
the identity exactly when D = X - (q^2 + q^-2) vanishes at q0.  The result
does not depend on z0.  D is composed once, in Z[q, q^-1]; a sample only
evaluates D's entries at q0, and no entry at all when D = 0.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeff import LaurentPoly, PolyQZW, add_term, from_image, strict_laurent, to_image
from .tensor import TensorOp, embed, invert, permutation_P


class HeckeData:
    """A two-leg R-matrix together with its Hecke normalization.

    ``q`` is the eigenvalue parameter entering the quadratic relation; it is
    the Laurent variable for the shipped family but may be any unit (for
    example the constant 1 for the plain permutation matrix).
    """

    __slots__ = ("n", "R", "q")

    def __init__(self, n: int, R: TensorOp, q: LaurentPoly = None):
        if R.n != n or R.legs != 2:
            raise ValueError("R must be a two-leg operator of rank %d, got %d legs of rank %d"
                             % (n, R.legs, R.n))
        for c in R.entries.values():
            strict_laurent(c, "an entry of R")
        self.n = n
        self.R = R
        self.q = LaurentPoly.q() if q is None else strict_laurent(q, "q")

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


def _witness(lhs: TensorOp, rhs: TensorOp, show):
    """None when the sides are equal, else the first entry of lhs - rhs, shown by ``show``."""
    if lhs == rhs:
        return None
    diff = (lhs - rhs).entries
    row, col = key = min(diff)
    return [list(row), list(col), str(show(diff[key]))]


def check_hecke(data: HeckeData) -> CheckResult:
    """Verify (PR - q)(PR + 1/q) = 0 exactly, on integer images (``integer_images``)."""
    pr = data.PR()
    qv = data.q
    qinv = qv.unit_inverse()
    ident = TensorOp.identity(data.n, 2)
    (f, g), decode = integer_images([pr - ident.scale(qv), pr + ident.scale(qinv)], 2)
    witness = _witness(f @ g, TensorOp(data.n, 2), decode)
    return CheckResult("hecke", data.n, witness is None, witness, _laurent_degrees(data.R))


def check_braid(data: HeckeData) -> CheckResult:
    """Verify (PR)_12 (PR)_23 (PR)_12 = (PR)_23 (PR)_12 (PR)_23 on three legs.

    The sides are compared on integer images (``integer_images``), as
    (ab) a and b (ab): three compositions, exact by associativity.
    """
    (pr,), decode = integer_images([data.PR()], 3)
    a = embed(pr, [1, 2], 3)
    b = embed(pr, [2, 3], 3)
    ab = a @ b
    witness = _witness(ab @ a, b @ ab, decode)
    return CheckResult("ybe", data.n, witness is None, witness)


def _laurent_degrees(*ops: TensorOp) -> dict:
    exps = [e for op in ops for c in op.entries.values() for e in c.terms]
    return {"q_min": min(exps, default=None), "q_max": max(exps, default=None)}


def check_pybe(data: HeckeData) -> CheckResult:
    """Parametrised Yang-Baxter identity, exact in q, z, w.

    Verifies S(z,w)_12 S(z,1)_13 S(w,1)_23 = S(w,1)_23 S(z,1)_13 S(z,w)_12
    for the cleared numerator S(z, w) = w R - z R_21^-1 of
    R(z/w) = S(z, w) / (w q - z/q); the denominators on the two sides agree
    identically, so this is equivalent to the identity for R(z/w), R(z), R(w).

    Each factor is encoded straight into Z[q, q^-1] from R and R_21^-1: the
    images of S under q^a z^b w^c -> q^(a M^2 + b z_e + c w_e) with M =
    ``KRONECKER_M`` and (z_e, w_e) = (M, 1), (M, 0) and (1, 0)
    (``kronecker_encode``).  S has z-degree z_max = 1 when R_21^-1 is
    nonzero and w-degree w_max = 1 when R is; ``invert`` rejects a singular
    R, and an invertible R and its inverse are both nonzero, so z_max =
    w_max = 1 for every R that gets this far, and the report carries both.
    On each side the z-degrees sum to at most 2 (S(z, w) and S(z, 1)) and
    the w-degrees to at most 2 (S(z, w) and S(w, 1)), both below M = 3,
    where the (M, 1) encoding is injective.  So the sides are equal exactly
    when their images are.  The three factors are then mapped to integers
    (``integer_images``) and composed there.  A failure's witness is decoded
    back to q and then to q, z and w.
    """
    R, r21_inv = data.R, invert(data.R).swapped_legs()
    degs = _laurent_degrees(R, r21_inv)
    degs["z_max"] = degs["w_max"] = 1
    M = KRONECKER_M
    zero = LaurentPoly.zero()
    pairs = {k: (R.entries.get(k, zero), r21_inv.entries.get(k, zero))
             for k in R.entries.keys() | r21_inv.entries.keys()}
    weights = ((M, 1), (M, 0), (1, 0))
    factors, decode = integer_images(
        [TensorOp(data.n, 2, {k: kronecker_encode(r, s, z_e, w_e)
                              for k, (r, s) in pairs.items()}) for z_e, w_e in weights], 3)
    a12, a13, a23 = [embed(f, legs, 3) for f, legs in zip(factors, ([1, 2], [1, 3], [2, 3]))]
    witness = _witness(a12 @ a13 @ a23, a23 @ a13 @ a12, lambda c: kronecker_decode(decode(c)))
    return CheckResult("pybe", data.n, witness is None, witness, degs)


# Integer images wider than this many bits cost more to multiply than the
# Laurent entries they encode (the measured crossover, see ``integer_images``).
_IMAGE_BITS = 1500


def integer_images(factors, u: int):
    """Operators with ``int`` entries that encode Laurent ``factors`` exactly.

    Returns ``(images, decode)``.  Each entry sum c q^e becomes
    sum c 2^(b (hi - e)), with hi the highest exponent of any factor: the
    value at q^-1 = 2^b of the entry times q^-hi.  This is a ring map on
    entries, so a product of ``u`` images is the image of the product, shifted
    by q^(-u hi) on every side alike, and ``decode`` reads an entry of such a
    product (or of a difference of two) back to its Laurent polynomial.

    The map is injective on those entries.  An entry of a product of u factors
    is a sum over at most k^(u-1) paths, k the largest number of nonzeros in a
    row of a factor (embedding does not change it), of products of u entries,
    each of L1-norm at most L, the largest of any entry; so each coefficient is
    at most k^(u-1) L^u, and one of a difference of two products at most
    2 k^(u-1) L^u, in absolute value.  With 2^b > 4 k^(u-1) L^u every
    coefficient lies strictly between -2^(b-1) and 2^(b-1): it is a balanced
    base-2^b digit, and the digits of the image recover the polynomial.  So
    two sides are equal exactly when their images are; it is an exact
    encoding, not an evaluation at a sample point.

    An image costs more as the exponent span grows, while a Laurent product
    costs per term; when the span times b passes ``_IMAGE_BITS`` the factors
    are returned unchanged and ``decode`` is the identity.
    """
    entry_terms = [c.terms for op in factors for c in op.entries.values()]
    if not entry_terms:
        return factors, lambda c: c
    exps = [e for t in entry_terms for e in t]
    hi = max(exps)
    span = hi - min(exps)
    norm = max(sum(map(abs, t.values())) for t in entry_terms)
    count = {}
    for i, op in enumerate(factors):
        for row, _ in op.entries:
            count[i, row] = count.get((i, row), 0) + 1
    rows = max(count.values())
    b = (4 * rows ** (u - 1) * norm ** u).bit_length()
    if b * span > _IMAGE_BITS:
        return factors, lambda c: c
    images = [op.map_coefficients(lambda c: to_image(c, b, hi)) for op in factors]
    return images, lambda x: from_image(x, b, u * hi)


# the base M of the Kronecker encoding, for z- and w-degrees up to 2 (``check_pybe``)
KRONECKER_M = 3


def kronecker_encode(r: LaurentPoly, s: LaurentPoly, z_e: int, w_e: int) -> LaurentPoly:
    """The image of w r - z s under q^a z^b w^c -> q^(a M^2 + b z_e + c w_e).

    ``r`` and ``s`` are the entries of R and R_21^-1 at one position, and M
    is ``KRONECKER_M``.  With (z_e, w_e) = (M, 1) this is the encoding
    ``kronecker_decode`` inverts;
    other weights can merge terms, which are summed.
    """
    out, step = {}, KRONECKER_M * KRONECKER_M
    for p, sign, e in ((r, 1, w_e), (s, -1, z_e)):
        for a, v in p.terms.items():
            add_term(out, a * step + e, sign * v)
    return LaurentPoly(out)


def kronecker_decode(p: LaurentPoly) -> PolyQZW:
    """The preimage of ``p`` with z- and w-degrees in 0..M-1, M = ``KRONECKER_M``."""
    out = {}
    for e, v in p.terms.items():
        qz, wd = divmod(e, KRONECKER_M)
        out[divmod(qz, KRONECKER_M) + (wd,)] = v
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


def check_unitarity(data: HeckeData, samples) -> CheckResult:
    """Check R(z) R(1/z)_21 = id at exact rational (q0, z0) sample points.

    For the Baxterisation R(z) = (R - z R_21^-1) / (Q - z/Q), Q = ``data.q``,
    the numerator of R(z) R(1/z)_21 is (R - z R_21^-1)(R_21 - R^-1/z)
    = X - (z + 1/z) with X = R R_21 + R_21^-1 R^-1, and its denominator is
    (Q - z/Q)(Q - 1/(z Q)) = Q^2 + Q^-2 - (z + 1/z), zero when z or 1/z is
    Q^2.  Away from these poles the product at a sample (q0, z0) is the
    identity exactly when the Laurent operator D = X - (Q^2 + Q^-2) vanishes
    at q0, whatever z0 is.  D is built once; each sample evaluates its
    entries at q0 until one is nonzero, and none when D = 0.  So a sampled
    pass is not a proof: it shows D(q0) = 0, not D = 0, and an R whose D is
    nonzero passes at every common root q0 of D's entries.  A sample with q0
    in {0, 1, -1} or z0 = 0, one at a pole, or no samples raise ValueError.
    """
    r21_inv = invert(data.R).swapped_legs()
    qinv = data.q.unit_inverse()
    D = (data.R @ data.R.swapped_legs() + r21_inv @ r21_inv.swapped_legs()
         - TensorOp.identity(data.n, 2).scale(data.q * data.q + qinv * qinv))
    bad = None
    checked = []
    for q0, z0 in samples:
        q0, z0 = Fraction(q0), Fraction(z0)
        if q0 in (0, 1, -1) or z0 == 0:
            raise ValueError("inadmissible sample: q0=%s z0=%s" % (q0, z0))
        pole = data.q.evaluate(q0) ** 2
        if pole in (z0, 1 / z0):
            raise ValueError("sample hits a pole of the spectral family: q0=%s z0=%s"
                             % (q0, z0 if z0 == pole else 1 / z0))
        ok = not any(c.evaluate(q0) for c in D.entries.values())
        checked.append({"q0": str(q0), "z0": str(z0), "pass": ok})
        if not ok and bad is None:
            bad = {"q0": str(q0), "z0": str(z0)}
    if not checked:
        raise ValueError("unitarity needs at least one sample")
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
        for k, c in prefix.entries.items():
            add_term(out.entries, k, c)
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
