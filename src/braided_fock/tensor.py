"""Sparse exact linear operators on tensor powers of an n-dimensional space.

An operator on ``legs`` tensor factors of dimension ``n`` is a sparse map from
(row multi-index, column multi-index) to a coefficient, where multi-indices
are tuples over 1..n and tuple position p corresponds to leg p+1.  Elements of
the underlying module are thought of as column vectors indexed by the same
multi-indices, so ``compose(A, B)`` applied to v is A(B(v)).

Coefficients are :class:`~braided_fock.coeff.LaurentPoly` values, or the
``int`` images ``rmatrix.integer_images`` makes of them; the arithmetic below
is the same for both, and for ``PolyQZW`` and ``Fraction``.  The constructor
and ``map_coefficients``, which ``scale`` and subtraction build through,
reject any other entry, such as a float.  Identities and flips are built over
``LaurentPoly``.

``embed`` is one index permutation: result leg p reads a fixed entry of the
operator's index followed by the fill of the other legs.  Composition checks
only the keys that received a second term for cancellation: stored entries are
nonzero and no exact entry type has zero divisors, so a one-term sum is nonzero.

``invert`` works on one connected block of the support graph at a time.  This
is exact: a block's rows and columns share one index set, so the split permutes
rows and columns alike.  The sl_n R-matrix couples (a, b) only with (b, a), so
its blocks have at most 2 indices.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .coeff import LaurentPoly, PolyQZW, add_term, strict_int


class SingularOperatorError(ValueError):
    """Raised when inverting an operator that is singular."""


class LaurentInversionError(ValueError):
    """Raised when an inverse exists over fractions but not over Z[q, q^-1]."""


# the entry types of an exact operator
_EXACT = (LaurentPoly, PolyQZW, Fraction, int)
_INEXACT = "an entry must be a LaurentPoly, PolyQZW, Fraction or int, got %r"


class TensorOp:
    __slots__ = ("n", "legs", "entries")

    def __init__(self, n: int, legs: int, entries=None):
        if n < 1 or legs < 1:
            raise ValueError("need n >= 1 and legs >= 1")
        self.n = n
        self.legs = legs
        out = {}
        if entries:
            for (row, col), coeff in entries.items():
                if type(coeff) not in _EXACT:
                    raise ValueError(_INEXACT % (coeff,))
                if not coeff:
                    continue
                row, col = tuple(row), tuple(col)
                if len(row) != legs or len(col) != legs:
                    raise ValueError("multi-index length must equal the leg count")
                if not all(type(i) is int and 1 <= i <= n for i in row + col):
                    raise ValueError("multi-index entries must be integers in 1..n")
                out[(row, col)] = coeff
        self.entries = out

    def _like(self, entries, legs=None) -> "TensorOp":
        """An operator on the same space (or ``legs`` legs) with checked ``entries``."""
        r = TensorOp.__new__(TensorOp)
        r.n, r.legs, r.entries = self.n, legs or self.legs, entries
        return r

    # ---- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int, legs: int) -> "TensorOp":
        """The identity, with the Laurent unit on the diagonal."""
        one = LaurentPoly.one()
        op = cls(n, legs)
        op.entries = {(ix, ix): one for ix in itertools.product(range(1, n + 1), repeat=legs)}
        return op

    # ---- basic algebra -----------------------------------------------------

    def _check_compat(self, other):
        if self.n != other.n or self.legs != other.legs:
            raise ValueError("operator shape mismatch")

    def __add__(self, other):
        self._check_compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            add_term(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        return self + other.map_coefficients(operator.neg)

    def scale(self, coeff) -> "TensorOp":
        return self.map_coefficients(lambda c: c * coeff)

    def __matmul__(self, other) -> "TensorOp":
        """Composition: (self @ other)(v) = self(other(v))."""
        self._check_compat(other)
        by_row = {}
        for (row, col), c in other.entries.items():
            by_row.setdefault(row, []).append((col, c))
        # Every stored entry is nonzero and no exact entry type (LaurentPoly,
        # int, Fraction, PolyQZW) has zero divisors, so each product is
        # nonzero: only a key that received a second term can sum to 0.
        out, summed = {}, set()
        for (row, mid), c1 in self.entries.items():
            for col, c2 in by_row.get(mid, ()):
                k = (row, col)
                v = c1 * c2
                s = out.get(k)
                if s is None:
                    out[k] = v
                else:
                    out[k] = s + v
                    summed.add(k)
        for k in summed:
            if not out[k]:
                del out[k]
        return self._like(out)

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return self.n == other.n and self.legs == other.legs and self.entries == other.entries

    def is_zero(self) -> bool:
        return not self.entries

    def swapped_legs(self) -> "TensorOp":
        """For a two-leg operator A, return A_21 = P A P."""
        if self.legs != 2:
            raise ValueError("leg transposition is defined for two-leg operators")
        return self._like(
            {((r2, r1), (c2, c1)): c for ((r1, r2), (c1, c2)), c in self.entries.items()})

    def apply_to_vector(self, vec: dict) -> dict:
        """Apply to a sparse column vector {multi-index: coeff}."""
        by_col = {}
        for (row, col), c in self.entries.items():
            by_col.setdefault(col, []).append((row, c))
        out = {}
        for col, x in vec.items():
            for row, c in by_col.get(col, ()):
                add_term(out, row, c * x)
        return out

    def map_coefficients(self, fn) -> "TensorOp":
        """Apply ``fn`` to every entry, e.g. to map it to an integer image; a float raises."""
        out = {}
        for k, c in self.entries.items():
            v = fn(c)
            if type(v) not in _EXACT:
                raise ValueError(_INEXACT % (v,))
            if v:
                out[k] = v
        return self._like(out)

    # ---- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        ents = []
        for (row, col) in sorted(self.entries):
            ents.append([list(row), list(col), self.entries[(row, col)].to_json()])
        return {"n": self.n, "legs": self.legs, "entries": ents}

    @classmethod
    def from_json(cls, obj: dict) -> "TensorOp":
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
            entries[key] = LaurentPoly.from_json(ent[2])
        return cls(n, legs, entries)

    def __repr__(self):
        return "TensorOp(n=%d, legs=%d, %d entries)" % (self.n, self.legs, len(self.entries))


def permutation_P(n: int) -> TensorOp:
    """The flip P(e_a x e_b) = e_b x e_a on two legs."""
    one = LaurentPoly.one()
    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            entries[((b, a), (a, b))] = one
    return TensorOp(n, 2, entries)


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
    # result leg p reads entry src[p - 1] of op_index + fill
    src = [0] * total
    for i, p in enumerate(positions + rest):
        src[p - 1] = i
    # a one-index itemgetter returns a scalar; on one leg the index is its own image
    pick = operator.itemgetter(*src) if total > 1 else operator.itemgetter(slice(None))
    fills = list(itertools.product(range(1, op.n + 1), repeat=len(rest)))
    out = {}
    for (row, col), c in op.entries.items():
        for fill in fills:
            out[(pick(row + fill), pick(col + fill))] = c
    return op._like(out, total)


def _exact_div(num, den):
    quot = num.divide_exact(den)
    if quot is None:
        raise ArithmeticError("inexact division during fraction-free elimination")
    return quot


def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [A | I], in place.

    ``rows`` are sparse dicts, columns 0..d-1 for A and d..2d-1 for I.
    Returns (None, det A), after which every diagonal entry equals the last
    pivot, or (k, None) when column k lies in the span of those before it.
    """
    d = len(rows)
    prev, sign = LaurentPoly.one(), 1
    for k in range(d):
        pivot_row = next((i for i in range(k, d) if rows[i].get(k)), None)
        if pivot_row is None:
            return k, None
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
    return None, prev if sign == 1 else -prev


def invert(op: TensorOp) -> TensorOp:
    """Exact inverse over Z[q, q^-1], one connected block at a time.

    The blocks are the components of the support graph, whose nodes are the
    multi-indices and whose edges are the entries (row, col).  Rows and
    columns of a block share its index set S, so the split is a simultaneous
    permutation: the inverse is block diagonal with the inverses of the
    A[S, S], each found by fraction-free Gauss-Jordan elimination, and det A
    is the product of their determinants.

    Raises :class:`SingularOperatorError` for a singular block (an index with
    no entries is one), naming the first column of A in the span of those
    before it, and :class:`LaurentInversionError` when det A is not a unit,
    so some entry of the inverse is not Laurent.
    """
    if not all(isinstance(c, LaurentPoly) for c in op.entries.values()):
        raise ValueError("inversion is supported for Laurent-coefficient operators")
    indices = list(itertools.product(range(1, op.n + 1), repeat=op.legs))
    by_row = {ix: {} for ix in indices}
    block_of = {ix: [ix] for ix in indices}
    for (r, c), coeff in op.entries.items():
        by_row[r][c] = coeff
        if block_of[r] is not block_of[c]:
            small, big = sorted((block_of[r], block_of[c]), key=len)
            big += small
            block_of.update(dict.fromkeys(small, big))
    dead, dets, entries = [], [], {}
    for block in {id(b): b for b in block_of.values()}.values():
        block.sort()
        d = len(block)
        local = {ix: i for i, ix in enumerate(block)}
        rows = [{d + i: LaurentPoly.one(), **{local[c]: v for c, v in by_row[ix].items()}}
                for i, ix in enumerate(block)]
        k, det = _bareiss(rows)
        if k is not None:
            dead.append(indices.index(block[k]))
            continue
        dets.append(det)
        for i, row in enumerate(rows):
            for j, v in row.items():
                if j >= d:
                    entries[(block[i], block[j - d])] = v.divide_exact(row[i])
    if dead:
        raise SingularOperatorError("operator is singular (no pivot in column %d)" % min(dead))
    if any(v is None for v in entries.values()):
        raise LaurentInversionError("inverse is not Laurent: determinant obstruction, det = %s"
                                    % math.prod(dets, start=LaurentPoly.one()))
    return op._like(entries)


_ZERO = LaurentPoly.zero()
