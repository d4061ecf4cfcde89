"""Sparse exact linear operators on tensor powers of an n-dimensional space.

An operator on ``legs`` tensor factors of dimension ``n`` is a sparse map from
(row multi-index, column multi-index) to a coefficient, where multi-indices
are tuples over 1..n and tuple position p corresponds to leg p+1.  Elements of
the underlying module are thought of as column vectors indexed by the same
multi-indices, so ``compose(A, B)`` applied to v is A(B(v)).

Coefficients live in either of the rings from :mod:`braided_fock.coeff`; the
ring class is carried on the operator so identities and scalars can be built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .coeff import LaurentPoly, strict_int


class SingularOperatorError(ValueError):
    """Raised when inverting an operator that is singular."""


class LaurentInversionError(ValueError):
    """Raised when an inverse exists over fractions but not over Z[q, q^-1]."""


class TensorOp:
    __slots__ = ("n", "legs", "entries", "ring")

    def __init__(self, n: int, legs: int, entries=None, ring=LaurentPoly):
        if n < 1 or legs < 1:
            raise ValueError("need n >= 1 and legs >= 1")
        self.n = n
        self.legs = legs
        self.ring = ring
        out = {}
        if entries:
            for (row, col), coeff in entries.items():
                if not coeff:
                    continue
                row, col = tuple(row), tuple(col)
                if len(row) != legs or len(col) != legs:
                    raise ValueError("multi-index length must equal the leg count")
                if not all(1 <= i <= n for i in row + col):
                    raise ValueError("multi-index entries must lie in 1..n")
                out[(row, col)] = coeff
        self.entries = out

    # ---- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int, legs: int, ring=LaurentPoly) -> "TensorOp":
        one = ring.one()
        op = cls(n, legs, ring=ring)
        op.entries = {(ix, ix): one for ix in itertools.product(range(1, n + 1), repeat=legs)}
        return op

    # ---- basic algebra -----------------------------------------------------

    def _check_compat(self, other):
        if self.n != other.n or self.legs != other.legs or self.ring is not other.ring:
            raise ValueError("operator shape or coefficient ring mismatch")

    def __add__(self, other):
        self._check_compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = TensorOp.__new__(TensorOp)
        r.n, r.legs, r.ring, r.entries = self.n, self.legs, self.ring, out
        return r

    def __sub__(self, other):
        return self + other.scale(self.ring.from_int(-1))

    def scale(self, coeff) -> "TensorOp":
        if isinstance(coeff, int):
            coeff = self.ring.from_int(coeff)
        out = {}
        for k, c in self.entries.items():
            v = c * coeff
            if v:
                out[k] = v
        r = TensorOp.__new__(TensorOp)
        r.n, r.legs, r.ring, r.entries = self.n, self.legs, self.ring, out
        return r

    def __matmul__(self, other) -> "TensorOp":
        """Composition: (self @ other)(v) = self(other(v))."""
        self._check_compat(other)
        by_row = {}
        for (row, col), c in other.entries.items():
            by_row.setdefault(row, []).append((col, c))
        out = {}
        for (row, mid), c1 in self.entries.items():
            for col, c2 in by_row.get(mid, ()):
                k = (row, col)
                v = c1 * c2
                s = out.get(k)
                s = v if s is None else s + v
                out[k] = s
        # drop exact cancellations
        out = {k: v for k, v in out.items() if v}
        r = TensorOp.__new__(TensorOp)
        r.n, r.legs, r.ring, r.entries = self.n, self.legs, self.ring, out
        return r

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return (
            self.n == other.n
            and self.legs == other.legs
            and self.ring is other.ring
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def swapped_legs(self) -> "TensorOp":
        """For a two-leg operator A, return A_21 = P A P."""
        if self.legs != 2:
            raise ValueError("leg transposition is defined for two-leg operators")
        out = {((r2, r1), (c2, c1)): c for ((r1, r2), (c1, c2)), c in self.entries.items()}
        r = TensorOp.__new__(TensorOp)
        r.n, r.legs, r.ring, r.entries = self.n, self.legs, self.ring, out
        return r

    def apply_to_vector(self, vec: dict) -> dict:
        """Apply to a sparse column vector {multi-index: coeff}."""
        by_col = {}
        for (row, col), c in self.entries.items():
            by_col.setdefault(col, []).append((row, c))
        out = {}
        for col, x in vec.items():
            for row, c in by_col.get(col, ()):
                v = c * x
                s = out.get(row)
                s = v if s is None else s + v
                if s:
                    out[row] = s
                else:
                    del out[row]
        return {k: v for k, v in out.items() if v}

    def map_coefficients(self, fn, ring=None) -> "TensorOp":
        out = {}
        for k, c in self.entries.items():
            v = fn(c)
            if v:
                out[k] = v
        r = TensorOp.__new__(TensorOp)
        r.n, r.legs, r.ring, r.entries = self.n, self.legs, ring or self.ring, out
        return r

    def evaluate_rational(self, q0) -> dict:
        """Evaluate all entries at a rational q0: {(row, col): Fraction}."""
        return {k: c.evaluate(q0) for k, c in self.entries.items()}

    # ---- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        ents = []
        for (row, col) in sorted(self.entries):
            ents.append([list(row), list(col), self.entries[(row, col)].to_json()])
        return {"n": self.n, "legs": self.legs, "entries": ents}

    @classmethod
    def from_json(cls, obj: dict, ring=LaurentPoly) -> "TensorOp":
        if not isinstance(obj, dict) or not {"n", "legs", "entries"} <= set(obj):
            raise ValueError("an operator must be an object with n, legs and entries")
        n, legs = strict_int(obj["n"], "n"), strict_int(obj["legs"], "legs")
        if not isinstance(obj["entries"], list):
            raise ValueError("entries must be a list of [row, col, polynomial]")
        entries = {}
        for ent in obj["entries"]:
            if not (isinstance(ent, list) and len(ent) == 3
                    and isinstance(ent[0], list) and isinstance(ent[1], list)):
                raise ValueError("malformed entry %r: expected [row, col, polynomial]" % (ent,))
            key = tuple(tuple(strict_int(i, "multi-index entry") for i in ix) for ix in ent[:2])
            if key in entries:
                raise ValueError("duplicate entry for %r" % (key,))
            entries[key] = ring.from_json(ent[2])
        return cls(n, legs, entries, ring=ring)

    def __repr__(self):
        return "TensorOp(n=%d, legs=%d, %d entries)" % (self.n, self.legs, len(self.entries))


def permutation_P(n: int, ring=LaurentPoly) -> TensorOp:
    """The flip P(e_a x e_b) = e_b x e_a on two legs."""
    one = ring.one()
    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            entries[((b, a), (a, b))] = one
    return TensorOp(n, 2, entries, ring=ring)


def embed(op: TensorOp, positions, total: int) -> TensorOp:
    """Act as ``op`` on the listed legs of a ``total``-leg space, identity elsewhere.

    ``positions[i]`` is the target leg (1-based) for leg i+1 of ``op``; the
    positions must be distinct and within 1..total.
    """
    positions = list(positions)
    if len(positions) != op.legs:
        raise ValueError("need one target position per operator leg")
    if len(set(positions)) != len(positions):
        raise ValueError("positions must be distinct")
    if not all(1 <= p <= total for p in positions):
        raise ValueError("positions must lie in 1..total")
    rest = [p for p in range(1, total + 1) if p not in positions]
    n = op.n
    out = {}
    for (row, col), c in op.entries.items():
        for fill in itertools.product(range(1, n + 1), repeat=len(rest)):
            full_row = [0] * total
            full_col = [0] * total
            for i, p in enumerate(positions):
                full_row[p - 1] = row[i]
                full_col[p - 1] = col[i]
            for i, p in enumerate(rest):
                full_row[p - 1] = fill[i]
                full_col[p - 1] = fill[i]
            out[(tuple(full_row), tuple(full_col))] = c
    r = TensorOp.__new__(TensorOp)
    r.n, r.legs, r.ring, r.entries = n, total, op.ring, out
    return r


def _exact_div(num, den):
    quot = num.divide_exact(den)
    if quot is None:
        raise ArithmeticError("inexact division during fraction-free elimination")
    return quot


def invert(op: TensorOp) -> TensorOp:
    """Exact inverse over Z[q, q^-1] via fraction-free Gauss-Jordan elimination.

    Raises :class:`SingularOperatorError` when the operator is singular and
    :class:`LaurentInversionError` when the inverse exists over the fraction
    field but the determinant is not a unit, so the inverse has non-Laurent
    entries.
    """
    if op.ring is not LaurentPoly:
        raise ValueError("inversion is supported for Laurent-coefficient operators")
    all_indices = list(itertools.product(range(1, op.n + 1), repeat=op.legs))
    index_of = {ix: i for i, ix in enumerate(all_indices)}
    d = len(all_indices)
    # rows of [A | I] as sparse dicts, columns 0..d-1 for A and d..2d-1 for I
    rows = []
    for i in range(d):
        rows.append({d + i: LaurentPoly.one()})
    for (r, c), coeff in op.entries.items():
        rows[index_of[r]][index_of[c]] = coeff

    prev = LaurentPoly.one()
    sign = 1
    for k in range(d):
        pivot_row = None
        for i in range(k, d):
            if rows[i].get(k):
                pivot_row = i
                break
        if pivot_row is None:
            raise SingularOperatorError("operator is singular (no pivot in column %d)" % k)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        piv = rows[k][k]
        row_k = rows[k]
        for i in range(d):
            if i == k:
                continue
            f = rows[i].get(k)
            if not f:
                # still need the Bareiss rescale to keep entries at minor size
                rows[i] = {j: _exact_div(piv * v, prev) for j, v in rows[i].items()}
                continue
            new_row = {}
            cols = set(rows[i]) | set(row_k)
            for j in cols:
                v = piv * rows[i].get(j, _ZERO) - f * row_k.get(j, _ZERO)
                if v:
                    new_row[j] = _exact_div(v, prev)
            new_row.pop(k, None)
            rows[i] = new_row
        prev = piv

    det = rows[d - 1][d - 1] if sign == 1 else -rows[d - 1][d - 1]
    # after full elimination every diagonal entry equals the last pivot
    entries = {}
    for i in range(d):
        diag = rows[i][i]
        for j, v in rows[i].items():
            if j < d:
                continue
            q = v.divide_exact(diag)
            if q is None:
                raise LaurentInversionError(
                    "inverse is not Laurent: determinant obstruction, det = %s" % det
                )
            if q:
                entries[(all_indices[i], all_indices[j - d])] = q
    r = TensorOp.__new__(TensorOp)
    r.n, r.legs, r.ring, r.entries = op.n, op.legs, op.ring, entries
    return r


_ZERO = LaurentPoly.zero()


# ---- exact rational matrices (sparse dicts of Fractions) -------------------


def rat_identity(n: int, legs: int) -> dict:
    one = Fraction(1)
    return {(ix, ix): one for ix in itertools.product(range(1, n + 1), repeat=legs)}


def rat_compose(a: dict, b: dict) -> dict:
    by_row = {}
    for (row, col), c in b.items():
        by_row.setdefault(row, []).append((col, c))
    out = {}
    for (row, mid), c1 in a.items():
        for col, c2 in by_row.get(mid, ()):
            k = (row, col)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def rat_add(a: dict, b: dict, scalar=1) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, Fraction(0)) + scalar * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def rat_scale(a: dict, scalar) -> dict:
    scalar = Fraction(scalar)
    return {k: scalar * c for k, c in a.items() if scalar * c}


def rat_swapped_legs(a: dict) -> dict:
    return {((r2, r1), (c2, c1)): c for ((r1, r2), (c1, c2)), c in a.items()}
