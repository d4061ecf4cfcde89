"""Normal ordering for words in the multi-mode exchange algebra.

Generators are pairs (mode, index).  A word is normal when modes are
nondecreasing left to right and, inside each equal-mode run, indices are
strictly increasing.  Reordering uses three families of rules:

  * same mode: the swap rules of the single-mode quantum plane, plus the
    diagonal kill theta_a theta_a -> 0;
  * adjacent modes (gap 1): theta^(i) theta^(i-1) is rewritten through the
    braided anticommutator, with no correction terms;
  * general gap g >= 2: the same leading rewrite plus correction terms
    supported on mode pairs (j+s, i-s) strictly inside the gap, and, for even
    gaps, on the middle mode.

Every rewrite strictly decreases the pair (mode inversion weight, index
inversion count) lexicographically, which gives termination: the mode weight
sums mode differences over inverted positions, correction pairs move modes
toward the middle of the gap, and convexity keeps contributions from
untouched positions from growing.  Reduction processes pending words largest
measure first, so each distinct word is expanded at most once per call.  The
rewrite budget guards the length of sequential rewrite chains, the quantity
the termination measure bounds; exceeding it raises with the offending word
and how far the reduction got.

Each pending word carries its bad pair and its measure, and a child gets
both from its parent without rescanning:

  * bad pair: a child differs from its parent at p, p+1 only.  Under the
    leftmost strategy every pair before p is good, so the child's bad pair is
    at p-1, p or p+1, or else it is the parent's first bad pair at p+2 or
    later, found once per parent and only when needed (mirrored for
    rightmost);
  * measure: a same-mode swap has measure (mu, nu - 1).  A cross-mode
    rewrite of modes m1 > m2 puts out two modes in [m2, m1] with the same
    sum, so untouched generators with modes outside [m2, m1] contribute as
    before, and for the leading term the mode weight drops by exactly
    m1 - m2.  The update looks only at the generators with modes in
    [m2, m1].
"""

from __future__ import annotations

import heapq
import os
import re
from functools import lru_cache

from .coeff import LaurentPoly, LinearCombination, add_term
from .rmatrix import HeckeData, hecke_PR_inverse, standard_sln_R
from .tensor import TensorOp
from .wedge import derive_wedge_rules

DEFAULT_BUDGET = 10**7
_DECIMAL = re.compile(r"[0-9]+")

VARIANTS = ("theorem21", "gerv")


class BudgetExceededError(RuntimeError):
    """A rewrite chain outgrew the budget.

    Besides the budget and the word whose rewrite would exceed it, records
    how far the reduction got: the longest chain finished (``depth``), the
    words expanded so far (``expansions``) and the words still waiting,
    including this one (``pending``).
    """

    def __init__(self, word, budget, depth, expansions, pending):
        super().__init__(
            "rewrite budget %d exceeded while reducing %r (depth %d, %d expansions, "
            "%d words pending)" % (budget, word, depth, expansions, pending))
        self.word = word
        self.budget = budget
        self.depth = depth
        self.expansions = expansions
        self.pending = pending


def resolve_budget(budget=None) -> int:
    """The rewrite budget: ``budget``, else BRAIDED_FOCK_BUDGET, else the default.

    A budget is a nonnegative int (0 allows no rewrite); anything else, or an
    environment value that is not a plain decimal integer, raises ValueError.
    """
    if budget is None:
        env = os.environ.get("BRAIDED_FOCK_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        if not _DECIMAL.fullmatch(env):
            raise ValueError("BRAIDED_FOCK_BUDGET must be a nonnegative decimal integer, got %r"
                             % env)
        return int(env)
    if type(budget) is not int or budget < 0:
        raise ValueError("rewrite budget (--budget) must be a nonnegative integer, got %r"
                         % (budget,))
    return budget


class ModeElement(LinearCombination):
    """Linear combination of mode words with Laurent coefficients.

    A word is a tuple of (mode, index) pairs; the empty word is the unit.
    """

    __slots__ = ()

    @classmethod
    def from_word(cls, n, word, coeff=None):
        return cls(n, {tuple(word): coeff if coeff is not None else LaurentPoly.one()})

    def to_json(self):
        out = []
        for w in sorted(self.terms):
            out.append({"coeff": self.terms[w].to_json(), "word": [list(g) for g in w]})
        return {"n": self.n, "terms": out}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            word = " ".join("t[%d]_%d" % g for g in w) or "1"
            bits.append("(%s) %s" % (self.terms[w], word))
        return " + ".join(bits)


def _columns_of(op) -> dict:
    cols = {}
    for (row, col), c in op.entries.items():
        cols.setdefault(col, []).append((row, c))
    for col in cols:
        cols[col].sort(key=lambda rc: rc[0])
    return cols


class ExchangeRules:
    """Rewrite rules for one Hecke R-matrix, in either rule variant.

    ``theorem21`` is the full mode-exchange algebra with correction terms;
    ``gerv`` is the plain braided tensor product where all cross-mode pairs
    reorder with the leading rule alone.
    """

    def __init__(self, data: HeckeData, variant: str = "theorem21"):
        if variant not in VARIANTS:
            raise ValueError("unknown rules variant %r" % variant)
        self.data = data
        self.n = data.n
        self.variant = variant
        self.swap = derive_wedge_rules(data)
        pr = data.PR()
        qinv = data.q.unit_inverse()
        self.pr_cols = _columns_of(pr)
        self.pbold_cols = _columns_of(pr.scale(-qinv))
        one = TensorOp.identity(self.n, 2)
        self.plus_pbold_cols = _columns_of(one + pr.scale(-qinv))
        self.pr_inv_cols = _columns_of(hecke_PR_inverse(data))
        self.q = data.q
        self.q_inv = qinv
        self.qm2_minus_1 = qinv * qinv - LaurentPoly.one()
        self._gap_coeffs = {}
        self._expansions = {}

    def _descendant_factor(self, s: int) -> LaurentPoly:
        # weight of the depth-s correction pair; the one-step recursion forces
        # the geometric weight q^(-2(s-1)) because (1 + PbR)(1 + (q - 1/q)PR)
        # collapses to q^(-2) (1 + PbR) under the quadratic relation
        f = self._gap_coeffs.get(s)
        if f is None:
            f = self.qm2_minus_1 * self.q_inv ** (2 * (s - 1))
            self._gap_coeffs[s] = f
        return f

    def cross_expansion(self, gap: int, a: int, b: int):
        """Rewrite data for theta^(i)_a theta^(j)_b with i - j = gap > 0.

        Returns tuples (dm1, dm2, c, d, coeff): the rewritten pair is
        theta^(j+dm1)_c theta^(j+dm2)_d with the given coefficient.
        """
        key = (gap, a, b)
        cached = self._expansions.get(key)
        if cached is not None:
            return cached
        out = []
        for (c, d), coeff in self.pbold_cols.get((a, b), ()):
            out.append((0, gap, c, d, coeff))
        if self.variant == "theorem21" and gap >= 2:
            s = 1
            while 2 * s < gap:
                f = self._descendant_factor(s)
                for (c, d), coeff in self.plus_pbold_cols.get((a, b), ()):
                    out.append((s, gap - s, c, d, coeff * f))
                s += 1
            if gap % 2 == 0:
                mid = gap // 2
                coeff = self.qm2_minus_1 * self.q_inv ** (gap - 2)
                out.append((mid, mid, a, b, coeff))
        out = tuple(out)
        self._expansions[key] = out
        return out


@lru_cache(maxsize=None)
def standard_rules(n: int, variant: str = "theorem21") -> ExchangeRules:
    return ExchangeRules(standard_sln_R(n), variant)


# ---- normal ordering --------------------------------------------------------


def word_measure(word):
    """(mode inversion weight, same-mode index inversion count)."""
    mu = nu = 0
    L = len(word)
    for p in range(L):
        mp, ap = word[p]
        for t in range(p + 1, L):
            mt, at = word[t]
            if mp > mt:
                mu += mp - mt
            elif mp == mt and ap > at:
                nu += 1
    return mu, nu


class _PairContext:
    """Measures of the children of one cross-mode rewrite, from the parent's.

    Rewriting (m1, a1)(m2, a2), m1 > m2, at p puts (m2 + s, c)(m1 - s', d)
    in its place, with s + s' = m1 - m2: both modes stay in [m2, m1] and
    their sum is kept.  Against an untouched generator of mode u outside
    [m2, m1] the pair's mode weight is therefore unchanged; for u inside it
    drops by min(u - m2, s, m1 - u), which is 0 for the leading term (s = 0).
    The index inversions change only against untouched generators of the
    same mode as a pair member.  So only the generators with modes in
    [m2, m1] (``left`` and ``right`` of the pair) are looked at.
    """

    __slots__ = ("left", "right", "lo", "hi", "mu", "nu")

    def __init__(self, word, p, mu, nu):
        g1, g2 = word[p], word[p + 1]
        lo, hi = g2[0], g1[0]
        self.left = [g for g in word[:p] if lo <= g[0] <= hi]
        self.right = [g for g in word[p + 2:] if lo <= g[0] <= hi]
        self.lo, self.hi = lo, hi
        # the pair itself weighs hi - lo and has no index inversion
        self.mu = mu - (hi - lo)
        self.nu = nu - self._same_mode_inversions(g1, g2)

    def _same_mode_inversions(self, g1, g2):
        (v1, x1), (v2, x2) = g1, g2
        k = 0
        for u, b in self.left:
            if u == v1 and b > x1:
                k += 1
            if u == v2 and b > x2:
                k += 1
        for u, b in self.right:
            if u == v1 and b < x1:
                k += 1
            if u == v2 and b < x2:
                k += 1
        return k

    def measure(self, g1, g2):
        """(mu, nu) of the word with g1, g2 in place of the pair."""
        mu, lo, hi = self.mu, self.lo, self.hi
        s = g1[0] - lo
        if s:
            for u, _ in self.left:
                mu -= min(u - lo, s, hi - u)
            for u, _ in self.right:
                mu -= min(u - lo, s, hi - u)
        nu = self.nu + self._same_mode_inversions(g1, g2)
        if g1[0] == g2[0] and g1[1] > g2[1]:
            nu += 1
        return mu, nu


def _bad_pair(word, strategy, lo=0, hi=None):
    """First bad pair in strategy order among pairs (t, t+1) with lo <= t < hi."""
    rng = range(lo, len(word) - 1 if hi is None else hi)
    if strategy == "rightmost":
        rng = reversed(rng)
    for p in rng:
        if word[p] >= word[p + 1]:
            return p
    return None


def _local_bad_pair(word, p, g1, g2, strategy):
    """Bad pair among the three pairs of a child that touch positions p, p+1.

    ``word`` is the parent, whose pair at p is replaced by g1, g2 in the child.
    """
    before = p > 0 and word[p - 1] >= g1
    after = p + 2 < len(word) and g2 >= word[p + 2]
    if strategy == "rightmost":
        return p + 1 if after else p if g1 >= g2 else p - 1 if before else None
    return p - 1 if before else p if g1 >= g2 else p + 1 if after else None


def _shared_bad_pair(word, p, strategy):
    """The bad pair a child of ``word`` rewritten at p shares with its parent.

    p is the parent's bad pair in strategy order, so every pair on its near
    side is good; of the far side, only pairs clear of p, p+1 are shared.
    """
    if strategy == "rightmost":
        return _bad_pair(word, strategy, 0, p - 1)
    return _bad_pair(word, strategy, p + 2)


def _expand(word, p, rules: ExchangeRules):
    """One rewrite of the bad adjacent pair at position p; yields (word, coeff, gens)."""
    (m1, a1), (m2, a2) = word[p], word[p + 1]
    head, tail = word[:p], word[p + 2:]
    out = []
    if m1 == m2:
        if a1 == a2:
            return out
        c = rules.swap.coeff[(a1, a2)]
        g1, g2 = (m1, a2), (m1, a1)
        out.append((head + (g1, g2) + tail, c, g1, g2))
        return out
    for dm1, dm2, c, d, coeff in rules.cross_expansion(m1 - m2, a1, a2):
        g1, g2 = (m2 + dm1, c), (m2 + dm2, d)
        out.append((head + (g1, g2) + tail, coeff, g1, g2))
    return out


def check_indices(word, n):
    """Reject a word with a generator index outside 1..n."""
    for g in word:
        if not 1 <= g[1] <= n:
            raise ValueError("generator index %d outside 1..%d in %r" % (g[1], n, word))


class ReductionStats:
    """Work accounting for one reduction.

    ``depth`` is the longest sequential rewrite chain from an input word to
    any word it produced; the budget guards this quantity, which the strictly
    decreasing termination measure bounds.  ``expansions`` is the total number
    of distinct words rewritten (tree size after merging like terms).
    """

    __slots__ = ("depth", "expansions")

    def __init__(self, depth=0, expansions=0):
        self.depth = depth
        self.expansions = expansions

    def __repr__(self):
        return "ReductionStats(depth=%d, expansions=%d)" % (self.depth, self.expansions)


def normal_form_stats(x: ModeElement, rules: ExchangeRules, strategy: str = "leftmost",
                      budget=None):
    """Reduce to normal form; returns (element, :class:`ReductionStats`).

    Pending words are processed largest measure first and like terms are
    merged eagerly, so every distinct word is expanded at most once per call;
    all contributions to a word arrive before it is expanded, which makes its
    recorded chain depth final.  Each pending word carries its bad pair.
    """
    budget = resolve_budget(budget)
    done = {}
    pending = {}
    heap = []

    for word, coeff in x.terms.items():
        check_indices(word, rules.n)
        p = _bad_pair(word, strategy)
        if p is None:
            done[word] = coeff
        else:
            mu, nu = word_measure(word)
            pending[word] = [coeff, 0, p]
            heapq.heappush(heap, (-mu, -nu, word))

    stats = ReductionStats()
    while heap:
        neg_mu, neg_nu, word = heapq.heappop(heap)
        entry = pending.pop(word, None)
        if entry is None or not entry[0]:
            continue
        coeff, depth, p = entry
        depth += 1
        if depth > budget:
            raise BudgetExceededError(word, budget, stats.depth, stats.expansions,
                                      len(pending) + 1)
        stats.expansions += 1
        if depth > stats.depth:
            stats.depth = depth
        same_mode = word[p][0] == word[p + 1][0]
        shared = ctx = None
        for child, c, g1, g2 in _expand(word, p, rules):
            cc = coeff * c
            if not cc:
                continue
            cur = pending.get(child)
            if cur is not None:
                cur[0] = cur[0] + cc
                if depth > cur[1]:
                    cur[1] = depth
                continue
            cp = _local_bad_pair(word, p, g1, g2, strategy)
            if cp is None:
                if shared is None:
                    shared = (_shared_bad_pair(word, p, strategy),)
                cp = shared[0]
            if cp is None:
                add_term(done, child, cc)
                continue
            if same_mode:
                cmu, cnu = -neg_mu, -neg_nu - 1
            else:
                if ctx is None:
                    ctx = _PairContext(word, p, -neg_mu, -neg_nu)
                cmu, cnu = ctx.measure(g1, g2)
            pending[child] = [cc, depth, cp]
            heapq.heappush(heap, (-cmu, -cnu, child))

    return ModeElement(x.n, done), stats


def normal_form(x: ModeElement, rules: ExchangeRules, strategy: str = "leftmost",
                budget=None) -> ModeElement:
    return normal_form_stats(x, rules, strategy, budget)[0]


def gerv_normal_form(x: ModeElement, n: int = None, budget=None) -> ModeElement:
    """Normal form in the plain braided tensor product (no correction terms)."""
    return normal_form(x, standard_rules(n or x.n, "gerv"), budget=budget)


# ---- generators and consistency checks ---------------------------------------


def r_anticommutator(rules: ExchangeRules, g1, g2) -> ModeElement:
    """theta^(i)_a theta^(j)_b + (1/q) sum_cd (PR)^cd_ab theta^(j)_c theta^(i)_d, unreduced."""
    (i, a), (j, b) = g1, g2
    terms = {((i, a), (j, b)): LaurentPoly.one()}
    for (c, d), coeff in rules.pr_cols.get((a, b), ()):
        add_term(terms, ((j, c), (i, d)), rules.q_inv * coeff)
    return ModeElement(rules.n, terms)


def check_moderel(i: int, j: int, n: int, rules: ExchangeRules = None) -> bool:
    """Exchange-relation consistency for one mode pair i > j.

    Normal-orders both sides of

        theta^j theta^i PR + q theta^i theta^j
            = theta^(j+1) theta^(i-1) (PR)^{-1} + (1/q) theta^(i-1) theta^(j+1)

    componentwise and compares exactly.
    """
    if i <= j:
        raise ValueError("need i > j")
    rules = rules or standard_rules(n)
    one = LaurentPoly.one()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            lhs = {}
            for (c, d), coeff in rules.pr_cols.get((a, b), ()):
                add_term(lhs, ((j, c), (i, d)), coeff)
            add_term(lhs, ((i, a), (j, b)), rules.q * one)
            rhs = {}
            for (c, d), coeff in rules.pr_inv_cols.get((a, b), ()):
                add_term(rhs, ((j + 1, c), (i - 1, d)), coeff)
            add_term(rhs, ((i - 1, a), (j + 1, b)), rules.q_inv * one)
            L = normal_form(ModeElement(n, lhs), rules)
            R = normal_form(ModeElement(n, rhs), rules)
            if L != R:
                return False
    return True


def check_modeind(i: int, j: int, n: int, rules: ExchangeRules = None) -> bool:
    """Closed-form correction terms against the one-step recursion, gap >= 2.

    Verifies componentwise that

        {theta^i, theta^j}_R = {theta^(i-1), theta^(j+1)}_R (1 + (q - 1/q) PR)
            + (1/q^2 - 1) theta^(j+1) theta^(i-1) (1 - (1/q) PR)

    after normal ordering both sides.
    """
    if i - j < 2:
        raise ValueError("need i - j >= 2")
    rules = rules or standard_rules(n)
    lam = rules.q - rules.q_inv
    ident = TensorOp.identity(n, 2)
    pr = rules.data.PR()
    m1_cols = _columns_of(ident + pr.scale(lam))
    m2_cols = _columns_of(ident - pr.scale(rules.q_inv))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            lhs = normal_form(r_anticommutator(rules, (i, a), (j, b)), rules)
            rhs = ModeElement.zero(n)
            for (c, d), coeff in m1_cols.get((a, b), ()):
                rhs = rhs + r_anticommutator(rules, (i - 1, c), (j + 1, d)).scale(coeff)
            extra = {}
            for (c, d), coeff in m2_cols.get((a, b), ()):
                add_term(extra, ((j + 1, c), (i - 1, d)), rules.qm2_minus_1 * coeff)
            rhs = normal_form(rhs + ModeElement(n, extra), rules)
            if lhs != rhs:
                return False
    return True


def check_modeanticom(i: int, j: int, n: int, rules: ExchangeRules = None) -> bool:
    """(theta^i theta^j + theta^j theta^i)(PR + 1/q) normal-orders to zero."""
    if i <= j:
        raise ValueError("need i > j")
    rules = rules or standard_rules(n)
    m = rules.data.PR() + TensorOp.identity(n, 2).scale(rules.q_inv)
    cols = _columns_of(m)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            acc = {}
            for (c, d), coeff in cols.get((a, b), ()):
                add_term(acc, ((i, c), (j, d)), coeff)
                add_term(acc, ((j, c), (i, d)), coeff)
            if normal_form(ModeElement(n, acc), rules):
                return False
    return True


def shift_leibniz(i: int, x: ModeElement) -> ModeElement:
    """Apply the mode shift by i as a derivation over generator slots, unreduced."""
    out = {}
    for word, c in x.terms.items():
        for p, (m, a) in enumerate(word):
            add_term(out, word[:p] + ((m + i, a),) + word[p + 1:], c)
    return ModeElement(x.n, out)


def translate_element(d: int, x: ModeElement) -> ModeElement:
    return ModeElement(x.n, {tuple((m + d, a) for m, a in w): c for w, c in x.terms.items()})
