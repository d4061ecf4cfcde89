"""The single-mode fermionic quantum plane: normal forms and differentiation.

The algebra is generated by theta_1 .. theta_n with quadratic relations read
off from a Hecke R-matrix: the relation subspace in degree 2 is the image of
PR + 1/q.  For the supported (monomially triangular) inputs the relations
reduce to swap rules

    theta_b theta_a -> c(b, a) * theta_a theta_b   for b > a,
    theta_a theta_a -> 0,

so every word reduces to a single strictly increasing monomial with a scalar
coefficient, and the degree-m component has the binomial dimension C(n, m).

A word is reduced one index at a time: the new index passes the larger
indices of the sorted prefix, taking one rule each, and a word in which it
then meets its twin is 0.  ``SwapRuleTable.reduce_word`` keeps a per-table
memo from each word to its (coefficient, monomial), one entry per distinct
word a caller reduced: a contraction reduces the same few words many times
(5,339 reductions of 256 words for criterion 6 at n = 4).  ``degree_rank``
meets each arrangement once, so a memo would only grow; it shares the
reductions of common prefixes instead, and adds nothing to the memo.
"""

from __future__ import annotations

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
        self._memo = {}

    def reduce_word(self, word):
        """Reduce an index word to (coefficient, sorted monomial) or (0, None).

        The result is memoised on the table under the word as a tuple, so
        the memo holds one entry per distinct word reduced by this method,
        and a repeated word costs one lookup.  Only this method fills it.
        """
        word = tuple(word)
        out = self._memo.get(word)
        if out is None:
            out = LaurentPoly.one(), ()
            for a in word:
                out = self._insert(*out, a)
                if out[1] is None:
                    break
            self._memo[word] = out
        return out

    def _insert(self, c, mono, a):
        """Reduce c * theta_mono theta_a for a strictly increasing mono.

        theta_a passes each larger index b of mono by the rule for (b, a);
        if it then meets its twin, theta_a theta_a = 0 gives (0, None).
        """
        k = len(mono)
        while k and mono[k - 1] > a:
            k -= 1
            c = c * self.coeff[(mono[k], a)]
        if k and mono[k - 1] == a:
            return LaurentPoly.zero(), None
        return c, mono[:k] + (a,) + mono[k:]


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
    n = table.n
    if type(i) is not int:
        raise ValueError("index %r is not an int" % (i,))
    if not 1 <= i <= n:
        raise ValueError("index %r out of range 1..%d" % (i, n))
    if x.n != n:
        raise ValueError("element of rank %d, table of rank %d" % (x.n, n))
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
    distinct indices are reduced.  They are walked in lexicographic order:
    each prefix is reduced once, and each of its extensions takes one more
    insertion step.  The walk keeps no per-word state and leaves the table's
    memo as it was: it meets each of the n!/(n-m)! arrangements once, so a
    memo of them would never be read (through ``reduce_word``, ``dims --n 8``
    went from 16 MB to 80 MB max RSS).

    The rank is C(n, m) for every table ``derive_wedge_rules`` returns: each
    word reaches the increasing monomial of its own indices, and the
    increasing word reaches it with scalar 1 (no swap), so every m-subset of
    1..n is hit.  A rank therefore checks the shape of the swap rules (every
    word reduces to one monomial), not a dimension computed independently.
    """
    if n != table.n:
        raise ValueError("rank n=%r does not match the table's n=%d" % (n, table.n))
    if m < 0:
        raise ValueError("degree m=%r is negative" % (m,))
    if m > n:
        return 0
    hit = set()

    def extend(c, mono):
        if len(mono) == m:
            if c:
                hit.add(mono)
            return
        for a in range(1, n + 1):
            if a not in mono:
                extend(*table._insert(c, mono, a))

    extend(LaurentPoly.one(), ())
    return len(hit)
