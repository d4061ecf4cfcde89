"""The single-mode fermionic quantum plane: normal forms and differentiation.

The algebra is generated by theta_1 .. theta_n with quadratic relations read
off from a Hecke R-matrix: the relation subspace in degree 2 is the image of
PR + 1/q.  For the supported (monomially triangular) inputs the relations
reduce to swap rules

    theta_b theta_a -> c(b, a) * theta_a theta_b   for b > a,
    theta_a theta_a -> 0,

so every word reduces to a single strictly increasing monomial with a scalar
coefficient, and the degree-m component has the binomial dimension C(n, m).
"""

from __future__ import annotations

import itertools

from .coeff import LaurentPoly, LinearCombination
from .rmatrix import HeckeData, braided_integer, braided_integer_bar
from .tensor import TensorOp


class NonPBWInputError(ValueError):
    """The degree-2 relations of the input do not reduce to monomial swap rules."""


class SwapRuleTable:
    """Swap rules for one mode: coefficients c(b, a) with b > a, diagonal kill.

    ``coeff[(b, a)]`` is the scalar with theta_b theta_a = c * theta_a theta_b.
    ``data`` is the R-matrix the rules were derived from, which the
    differentiation operators need.
    """

    def __init__(self, n: int, coeff: dict, data: HeckeData):
        self.n = n
        self.coeff = dict(coeff)
        self.data = data

    def reduce_word(self, word):
        """Reduce an index word to (coefficient, sorted monomial) or (0, None)."""
        word = list(word)
        # a repeated index meets its twin while sorting, and theta_a theta_a = 0
        if len(set(word)) < len(word):
            return LaurentPoly.zero(), None
        c = LaurentPoly.one()
        # insertion sort; each swap applies one rule and strictly lowers the
        # inversion count, so this terminates
        for i in range(1, len(word)):
            j = i
            while j > 0 and word[j - 1] > word[j]:
                c = c * self.coeff[(word[j - 1], word[j])]
                word[j - 1], word[j] = word[j], word[j - 1]
                j -= 1
        return c, tuple(word)


class WedgeElement(LinearCombination):
    """Linear combination of strictly increasing index monomials."""

    __slots__ = ()
    _GEN = "t%d"
    _ORDER = staticmethod(lambda mono: (len(mono), mono))


def derive_wedge_rules(data: HeckeData) -> SwapRuleTable:
    """Solve the degree-2 relation rows of PR + 1/q for monomial swap rules.

    Every column of the relation operator must be supported either on a single
    diagonal pair (a, a) or on one pair {(a, b), (b, a)}; anything else, or an
    inconsistent or non-Laurent solution, raises :class:`NonPBWInputError`.

    The rules then span exactly the relations, over Q(q), with no further
    check.  They annihilate every relation column: a pair column has
    beta e_(b,a) + alpha e_(a,b) with c = -alpha/beta, a quotient
    ``divide_exact`` has certified, so theta_b theta_a -> c theta_a theta_b
    sends it to beta c + alpha = 0.  And the relations have rank n(n+1)/2,
    the rule count: each diagonal column is a nonzero multiple of e_(a,a),
    each pair column is beta (e_(b,a) - c e_(a,b)) with beta != 0 and one c
    per pair, every diagonal and every pair occurs, and the supports are
    disjoint.
    """
    n = data.n
    qinv = data.q.unit_inverse()
    M = data.PR() + TensorOp.identity(n, 2).scale(qinv)
    columns = {}
    for (row, col), c in M.entries.items():
        columns.setdefault(col, {})[row] = c

    rules = {}
    diag_seen = set()
    for col, rows in columns.items():
        support = set(rows)
        if support == {col} and col[0] == col[1]:
            diag_seen.add(col[0])
            continue
        pair = {tuple(sorted(col))}
        if {tuple(sorted(r)) for r in support} != pair or len(support) > 2:
            raise NonPBWInputError(
                "non-PBW Hecke input: relation column %r mixes monomials %r" % (col, support)
            )
        a, b = min(col), max(col)
        beta = rows.get((b, a))
        alpha = rows.get((a, b), LaurentPoly.zero())
        if not beta:
            raise NonPBWInputError(
                "non-PBW Hecke input: relation at column %r has no disordered term" % (col,)
            )
        quot = alpha.divide_exact(beta)
        if quot is None:
            raise NonPBWInputError(
                "non-PBW Hecke input: swap coefficient for %r is not Laurent" % (col,)
            )
        c = -quot
        prev = rules.get((b, a))
        if prev is not None and prev != c:
            raise NonPBWInputError(
                "non-PBW Hecke input: inconsistent rules for pair (%d, %d)" % (b, a)
            )
        rules[(b, a)] = c

    if diag_seen != set(range(1, n + 1)):
        raise NonPBWInputError("non-PBW Hecke input: missing diagonal relations")
    expected_pairs = {(b, a) for a in range(1, n + 1) for b in range(a + 1, n + 1)}
    if set(rules) != expected_pairs:
        raise NonPBWInputError("non-PBW Hecke input: missing swap rules")

    return SwapRuleTable(n, rules, data)


def wedge_normal_form(word, table: SwapRuleTable) -> WedgeElement:
    """Fully reduce an index word to the strictly increasing basis."""
    for a in word:
        if type(a) is not int:
            raise ValueError("index %r is not an int in %r" % (a, word))
        if not 1 <= a <= table.n:
            raise ValueError("index %r out of range 1..%d" % (a, table.n))
    return wedgify(word, LaurentPoly.one(), table)


def wedgify(word, coeff, table: SwapRuleTable) -> WedgeElement:
    c, mono = table.reduce_word(word)
    if mono is None:
        return WedgeElement.zero(table.n)
    return WedgeElement(table.n, {mono: c * coeff})


def top_form(n: int) -> WedgeElement:
    """The monomial theta_1 ... theta_n spanning the top degree."""
    return WedgeElement(n, {tuple(range(1, n + 1)): LaurentPoly.one()})


def braided_partial(i: int, x: WedgeElement, table: SwapRuleTable,
                    side: str = "left") -> WedgeElement:
    """Braided differentiation by theta_i, from the left or the right.

    Degree-m terms are contracted with the braided integer operator built from
    -1/q R: the first output leg (left) or last output leg (right) is set to
    ``i`` and dropped, and the remaining word is reduced to normal form.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = x.n
    out = WedgeElement.zero(n)
    bold = table.data.bold_R()
    by_degree = {}
    for mono, c in x.terms.items():
        by_degree.setdefault(len(mono), {})[mono] = c
    for m, words in by_degree.items():
        if m == 0:
            continue
        op = braided_integer(m, bold) if side == "left" else braided_integer_bar(m, bold)
        vec = op.apply_to_vector(words)
        for row, c in vec.items():
            if side == "left":
                if row[0] != i:
                    continue
                rest = row[1:]
            else:
                if row[-1] != i:
                    continue
                rest = row[:-1]
            out = out + wedgify(rest, c, table)
    return out


def degree_rank(n: int, m: int, table: SwapRuleTable) -> int:
    """Rank of the reduced images of all degree-m words.

    Each word reduces to a scalar times one increasing monomial, so the rank
    is the number of monomials some word reaches with a nonzero scalar.
    Words repeating an index reduce to 0, so only the arrangements of m
    distinct indices are reduced.

    The rank is C(n, m) for every table ``derive_wedge_rules`` returns: each
    word reaches the increasing monomial of its own indices, and the
    increasing word reaches it with scalar 1 (no swap), so every m-subset of
    1..n is hit.  A rank therefore checks the shape of the swap rules (every
    word reduces to one monomial), not a dimension computed independently.
    """
    hit = set()
    for word in itertools.permutations(range(1, n + 1), m):
        c, mono = table.reduce_word(word)
        if c:
            hit.add(mono)
    return len(hit)
