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

Every rewrite of the bad pair at p keeps the prefix before p and puts a
strictly smaller generator at p: a same-mode swap puts the smaller index
first, and every cross-mode term starts at mode m2 + s with s <= (m1 - m2)/2.
So every child is lexicographically smaller than its parent.  Rewrites keep
the length and keep modes inside the range of the pair they rewrite, so a
reduction only meets finitely many words, and it terminates (the ordering
argument of Bergman's diamond lemma).  ``word_measure`` gives a second
decreasing quantity, (mode inversion weight, index inversion count), which
bounds chain lengths; only the tests call it.  The rewrite budget guards the
length of sequential rewrite chains; exceeding it raises with the offending
word and how far the reduction got.

A generator (m, a) is coded as the int x = m(n+1) + a.  The rules depend on
the mode gap and the two indices only, so ``ExchangeRules`` keeps one table
of pair rewrites for both engines, keyed on (x1 - x2, x2 mod (n+1)) for a
pair x1 x2, with each child y1 y2 stored as the offsets (y1 - x2, y2 - x2).
Translated pairs share an entry.  ``pair_rule`` alone builds one, once per
key and rules object, with closed-form correction weights and no rewrite of
coefficient 0; the insertion engine of ``fock`` reads a copy with
integer-image coefficients (``images``).

Free words take the heap engine here.  It codes a generator as -x
instead, which reverses the generator order, so the smallest coded word on
the heap is the lexicographically largest word, and it subtracts the
offsets.  Popping largest first, every word is expanded once, after all of
its parents, with its final coefficient and depth.

A word holding a zero factor is never queued: an input word whose maximal
same-mode run repeats a generator (that run is 0 in one mode's quantum
plane), and a child whose rewritten pair puts one generator twice in a row
at positions p-1..p+2 (the rule for g g is the empty sum).  Dropping such a
word early is exact because the system is confluent (Bergman's diamond
lemma; the acceptance suite checks every 3-letter overlap), so the normal
form of a word does not depend on which rewrite reaches its zero factor.

A child differs from its parent at p, p+1 only, so of its pairs only those
at p-1, p and p+1 can differ from the parent's.  Under the leftmost strategy
every pair before p is good, so the child's bad pair is the first from p-1
on (mirrored for rightmost): each new child is scanned from there.
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
# the rule variants of ExchangeRules
VARIANTS = ("theorem21", "gerv")
_DECIMAL = re.compile(r"[0-9]+")


class BudgetExceededError(RuntimeError):
    """A rewrite chain outgrew the budget.

    Besides the budget and the word whose rewrite would exceed it, records
    how far the reduction got: the longest chain finished (``depth``), the
    words expanded so far (``expansions``) and the words still waiting,
    including this one (``pending``).  ``progress`` words the three numbers
    for the message; ``fock.insertion_fold`` passes its own, since there
    they are the deepest nesting of memo misses, the misses and the open ones.
    """

    def __init__(self, word, budget, depth, expansions, pending,
                 progress="depth %d, %d expansions, %d words pending"):
        super().__init__("rewrite budget %d exceeded while reducing %r (%s)" % (
            budget, word, progress % (depth, expansions, pending)))
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
    _GEN = "t[%d]_%d"

    @classmethod
    def from_word(cls, n, word, coeff=None):
        return cls(n, {tuple(word): coeff if coeff is not None else LaurentPoly.one()})

    def to_json(self):
        out = []
        for w in sorted(self.terms):
            out.append({"coeff": self.terms[w].to_json(), "word": [list(g) for g in w]})
        return {"n": self.n, "terms": out}


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
        qinv = data.q.unit_inverse()
        pbold = data.P_bold_R()
        self.pbold_cols = _columns_of(pbold)
        self.plus_pbold_cols = _columns_of(TensorOp.identity(self.n, 2) + pbold)
        self.q_inv = qinv
        self.qm2_minus_1 = qinv * qinv - LaurentPoly.one()
        # the coded pair rewrites of both normal-form engines, keyed so that
        # translated pairs share an entry; filled on first use by pair_rule
        self.pairs = {}
        # a per-width cache that fock's insertion engine fills: the same
        # rewrites with the coefficients as integer images of that width
        self.images = {}

    def pair_rule(self, key):
        """Build the rewrites of a bad coded pair x1 x2 and store them under ``key``.

        ``key`` is (x1 - x2, x2 mod (n+1)) for the codes x = m(n+1) + a of
        the pair theta^(i)_a theta^(j)_b, which the engines build on a miss;
        the rule lists (y1 - x2, y2 - x2, coeff), no coeff 0, with
        x1 x2 = sum coeff y1 y2.  For i = j it is the swap rule.  For i > j it
        is column (a, b) of P_bold_R on theta^(j) theta^(i), then, under
        ``theorem21``, for 1 <= s <= (i-j)/2, column (a, b) of 1 + P_bold_R
        (e_(a,b) alone when 2s = i - j) on theta^(j+s) theta^(i-s), weighted
        q^(es) - q^(e(s-1)) = (q^-2 - 1) q^(-2(s-1)) for q^-2 = q^e.  The
        one-step recursion forces that weight: (1 + PbR)(1 + (q - 1/q)PR)
        collapses to q^-2 (1 + PbR) under the quadratic relation.
        """
        base = self.n + 1
        b = key[1]
        gap, a = divmod(key[0] + b, base)
        if not gap:
            c = self.swap.coeff[(a, b)] if a != b else None
            rule = self.pairs[key] = [(0, a - b, c)] if c else []
            return rule
        rule = [(c - b, gap * base + d - b, coeff)
                for (c, d), coeff in self.pbold_cols.get((a, b), ())]
        if self.variant == "theorem21" and self.qm2_minus_1:
            e = 2 * min(self.q_inv.terms)  # q_inv is +-q^(e/2)
            plus = self.plus_pbold_cols.get((a, b), ())
            # with that column empty, only the middle pair (even gaps) is stored
            for s in range(1 if plus else (gap + 1) // 2, gap // 2 + 1):
                f = LaurentPoly({e * s: 1, e * s - e: -1})
                if 2 * s == gap:
                    rule.append((s * base + a - b, s * base, f))
                else:
                    rule += [(s * base + c - b, (gap - s) * base + d - b, coeff * f)
                             for (c, d), coeff in plus]
        self.pairs[key] = rule
        return rule


@lru_cache(maxsize=None)
def standard_rules(n: int, variant: str = "theorem21") -> ExchangeRules:
    return ExchangeRules(standard_sln_R(n), variant)


# ---- normal ordering --------------------------------------------------------


def word_measure(word):
    """(mode inversion weight, same-mode index inversion count).

    Every rewrite strictly lowers it, so it bounds rewrite chains.
    """
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


def _decode(code, base):
    return tuple([divmod(-c, base) for c in code])


def _bad_pair(code, strategy, lo=0, hi=None):
    """First bad pair (t, t+1) of a coded word in strategy order, or None.

    The pairs on the strategy's near side of lo <= t < hi are known to be
    good and are skipped: leftmost scans up from lo, rightmost down from hi - 1.
    """
    last = len(code) - 1
    if strategy == "rightmost":
        t = last if hi is None or hi > last else hi
        while t > 0:
            t -= 1
            if code[t] <= code[t + 1]:
                return t
        return None
    t = lo if lo > 0 else 0
    while t < last:
        if code[t] <= code[t + 1]:
            return t
        t += 1
    return None


def check_indices(word, n):
    """Reject a word with a generator that is not a pair of ints, or an index outside 1..n."""
    for g in word:
        if type(g) is not tuple or len(g) != 2 or type(g[0]) is not int or type(g[1]) is not int:
            raise ValueError("generator %r is not a pair of ints in %r" % (g, word))
        if not 1 <= g[1] <= n:
            raise ValueError("generator index %d outside 1..%d in %r" % (g[1], n, word))


def _has_zero_run(word):
    """Whether a maximal same-mode run of ``word`` repeats a generator.

    Such a run reduces to 0 inside one mode (theta_a theta_a = 0), so the word does.
    """
    mode, run = None, set()
    for g in word:
        if g[0] != mode:
            mode, run = g[0], set()
        elif g in run:
            return True
        run.add(g)
    return False


class ReductionStats:
    """Work accounting for one reduction.

    ``depth`` is the longest sequential rewrite chain from an input word to
    any word it produced; the budget guards this quantity, which the strictly
    decreasing termination measure bounds.  ``expansions`` is the total number
    of distinct words rewritten (tree size after merging like terms).  In
    ``fock.insertion_fold`` they are the deepest nesting of memo misses and
    the number of misses, and ``zeros`` counts the misses its zero test
    proved 0 without a rewrite (the heap engine leaves it 0).
    """

    __slots__ = ("depth", "expansions", "zeros")

    def __init__(self, depth=0, expansions=0, zeros=0):
        self.depth = depth
        self.expansions = expansions
        self.zeros = zeros

    def __repr__(self):
        return "ReductionStats(depth=%d, expansions=%d, zeros=%d)" % (
            self.depth, self.expansions, self.zeros)


def normal_form_stats(x: ModeElement, rules: ExchangeRules, strategy: str = "leftmost",
                      budget=None):
    """Reduce to normal form; returns (element, :class:`ReductionStats`).

    ``strategy`` is "leftmost" or "rightmost": the first bad pair in that
    order is rewritten, and any other value raises ValueError.  Pending
    words are coded and processed lexicographically largest first, and like
    terms are merged eagerly, so every distinct word is expanded once per
    call, after all its parents: its coefficient and recorded chain depth
    are final.  Each pending word carries its bad pair.
    Words holding a zero factor are dropped instead of queued.
    """
    budget = resolve_budget(budget)
    if x.n != rules.n:
        raise ValueError("rules of rank %d cannot reduce an element of rank %d" % (rules.n, x.n))
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError("strategy must be 'leftmost' or 'rightmost', got %r" % (strategy,))
    base = rules.n + 1
    heappush, heappop = heapq.heappush, heapq.heappop
    table = rules.pairs
    done = {}
    pending = {}
    heap = []

    for word, coeff in x.terms.items():
        check_indices(word, rules.n)
        code = tuple([-(m * base + a) for m, a in word])
        p = _bad_pair(code, strategy)
        if p is None:
            done[code] = coeff
        elif not _has_zero_run(word):
            pending[code] = [coeff, 0, p]
            heappush(heap, code)

    stats = ReductionStats()
    while heap:
        code = heappop(heap)
        coeff, depth, p = pending.pop(code)
        if not coeff:
            continue
        depth += 1
        if depth > budget:
            raise BudgetExceededError(_decode(code, base), budget, stats.depth,
                                      stats.expansions, len(pending) + 1)
        stats.expansions += 1
        if depth > stats.depth:
            stats.depth = depth
        c1, c2 = code[p], code[p + 1]
        # the codes here are -x, so the key is (x1 - x2, x2 mod base)
        key = (c2 - c1, -c2 % base)
        rule = table.get(key)
        if rule is None:
            rule = rules.pair_rule(key)
        head, tail = code[:p], code[p + 2:]
        # a child g g, or one repeating a neighbour's generator, holds theta_a theta_a = 0
        left = code[p - 1] if p else None
        right = tail[0] if tail else None
        for o1, o2, c in rule:
            d1, d2 = c2 - o1, c2 - o2
            if d1 == d2 or d1 == left or d2 == right:
                continue
            cc = coeff * c
            child = head + (d1, d2) + tail
            cur = pending.get(child)
            if cur is not None:
                cur[0] = cur[0] + cc
                if depth > cur[1]:
                    cur[1] = depth
                continue
            # of the child's pairs only those at p-1..p+1 differ from the parent's
            cp = _bad_pair(child, strategy, p - 1, p + 2)
            if cp is None:
                add_term(done, child, cc)
                continue
            pending[child] = [cc, depth, cp]
            heappush(heap, child)

    return ModeElement(x.n, {_decode(w, base): c for w, c in done.items()}), stats


def normal_form(x: ModeElement, rules: ExchangeRules, strategy: str = "leftmost",
                budget=None) -> ModeElement:
    return normal_form_stats(x, rules, strategy, budget)[0]


# ---- generators and consistency checks ---------------------------------------


def _anticommutator(rules: ExchangeRules, i: int, j: int):
    """The terms of {theta^i, theta^j}_R = theta^i theta^j + (1/q) theta^j theta^i PR."""
    return [(i, j, TensorOp.identity(rules.n, 2)), (j, i, rules.data.PR().scale(rules.q_inv))]


def _column(relation, n: int, col) -> ModeElement:
    """sum over (m1, m2, op) in ``relation`` of theta^(m1)_c theta^(m2)_d op[(c,d), col]."""
    terms = {}
    for m1, m2, op in relation:
        for ((c, d), k), coeff in op.entries.items():
            if k == col:
                add_term(terms, ((m1, c), (m2, d)), coeff)
    return ModeElement(n, terms)


def _vanishes(relation, n: int, rules: ExchangeRules) -> bool:
    """Whether a relation, as ``_column`` terms, normal-orders to 0 at every column (a, b).

    The normal form is linear and exact, so a relation L = R holds exactly
    when each column of L - R reduces to 0.  ``normal_form`` rejects an n
    other than the rank of ``rules``.
    """
    cols = range(1, rules.n + 1)
    return not any(normal_form(_column(relation, n, (a, b)), rules) for a in cols for b in cols)


def r_anticommutator(rules: ExchangeRules, g1, g2) -> ModeElement:
    """theta^(i)_a theta^(j)_b + (1/q) sum_cd (PR)^cd_ab theta^(j)_c theta^(i)_d, unreduced."""
    (i, a), (j, b) = g1, g2
    return _column(_anticommutator(rules, i, j), rules.n, (a, b))


def check_moderel(i: int, j: int, n: int, rules: ExchangeRules = None) -> bool:
    """Exchange-relation consistency for one mode pair i > j.

    Normal-orders the difference of the two sides of

        theta^j theta^i PR + q theta^i theta^j
            = theta^(j+1) theta^(i-1) (PR)^{-1} + (1/q) theta^(i-1) theta^(j+1)

    column by column and checks that every column reduces to 0.
    """
    if i <= j:
        raise ValueError("need i > j")
    rules = rules or standard_rules(n)
    one = TensorOp.identity(rules.n, 2)
    return _vanishes([(j, i, rules.data.PR()), (i, j, one.scale(rules.data.q)),
                      (j + 1, i - 1, hecke_PR_inverse(rules.data).scale(-1)),
                      (i - 1, j + 1, one.scale(-rules.q_inv))], n, rules)


def check_modeind(i: int, j: int, n: int, rules: ExchangeRules = None) -> bool:
    """Closed-form correction terms against the one-step recursion, gap >= 2.

    Normal-orders the difference of the two sides of

        {theta^i, theta^j}_R = {theta^(i-1), theta^(j+1)}_R (1 + (q - 1/q) PR)
            + (1/q^2 - 1) theta^(j+1) theta^(i-1) (1 - (1/q) PR)

    column by column and checks that every column reduces to 0.
    """
    if i - j < 2:
        raise ValueError("need i - j >= 2")
    rules = rules or standard_rules(n)
    data = rules.data
    one = TensorOp.identity(rules.n, 2)
    step = (one + data.PR().scale(data.q - rules.q_inv)).scale(-1)
    correction = (one + data.P_bold_R()).scale(-rules.qm2_minus_1)
    return _vanishes(_anticommutator(rules, i, j)
                     + [(m1, m2, op @ step) for m1, m2, op in _anticommutator(rules, i - 1, j + 1)]
                     + [(j + 1, i - 1, correction)], n, rules)


def check_modeanticom(i: int, j: int, n: int, rules: ExchangeRules = None) -> bool:
    """(theta^i theta^j + theta^j theta^i)(PR + 1/q) = 0 for i > j.

    Normal-orders the left side column by column and checks that every
    column reduces to 0.
    """
    if i <= j:
        raise ValueError("need i > j")
    rules = rules or standard_rules(n)
    m = rules.data.PR() + TensorOp.identity(rules.n, 2).scale(rules.q_inv)
    return _vanishes([(i, j, m), (j, i, m)], n, rules)


def shift_leibniz(i: int, x: ModeElement) -> ModeElement:
    """Apply the mode shift by i as a derivation over generator slots, unreduced."""
    out = {}
    for word, c in x.terms.items():
        for p, (m, a) in enumerate(word):
            add_term(out, word[:p] + ((m + i, a),) + word[p + 1:], c)
    return ModeElement(x.n, out)


def translate_element(d: int, x: ModeElement) -> ModeElement:
    return ModeElement(x.n, {tuple((m + d, a) for m, a in w): c for w, c in x.terms.items()})
