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
bounds chain lengths and sizes budgets.  The rewrite budget guards the
length of sequential rewrite chains; exceeding it raises with the offending
word and how far the reduction got.

A generator (m, a) is coded as the int x = m(n+1) + a.  The rules depend on
the mode gap and the two indices only, so ``ExchangeRules`` keeps one table
of pair rewrites for both engines, keyed on (x1 - x2, x2 mod (n+1)) for a
pair x1 x2, with each child y1 y2 stored as the offsets (y1 - x2, y2 - x2).
Translated pairs share an entry, and each entry is built once per rules
object.

The heap engine codes a generator as -x instead, which reverses the
generator order, so the smallest coded word on the heap is the
lexicographically largest word, and it subtracts the offsets.  Popping
largest first, every word is expanded once, after all of its parents, with
its final coefficient and depth.

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

``strategy="insertion"`` multiplies a generator into a normal word instead,
the multiplication-table technique of Plural for G-algebras.  For a normal
word w: if w is empty or g < w[0], g.w is normal; if g = w[0], g.w = 0;
otherwise the pair rewrites to sum c h1 h2 and

    NF(g.w) = sum c NF(h1 . NF(h2 . w[1:])).

The recursion ends: the inner call has a shorter word, the outer one a
smaller generator h1 < g and a word of the same length, and every mode
stays inside [mode(w[0]), mode(g)], so only finitely many generators occur.
Confluence makes the result the normal form.  A word is a right fold of
insertions from its longest normal suffix.  NF(g.w) is memoised for one
call under two normalisations: the suffix of w with modes above g's is cut
off and appended back unchanged, since no rewrite reaches above mode(g),
and the key is translated to put g at a fixed mode, since the rules depend
only on mode gaps.  Here the budget guards the nesting depth of memo misses.
"""

from __future__ import annotations

import heapq
import os
import re
from bisect import bisect_left
from functools import lru_cache
from operator import ge

from .coeff import LaurentPoly, LinearCombination, add_term
from .rmatrix import HeckeData, hecke_PR_inverse, standard_sln_R
from .tensor import TensorOp
from .wedge import VARIANTS, derive_wedge_rules

DEFAULT_BUDGET = 10**7
_DECIMAL = re.compile(r"[0-9]+")


class BudgetExceededError(RuntimeError):
    """A rewrite chain outgrew the budget.

    Besides the budget and the word whose rewrite would exceed it, records
    how far the reduction got: the longest chain finished (``depth``), the
    words expanded so far (``expansions``) and the words still waiting,
    including this one (``pending``).  Under the insertion strategy these
    are the deepest nesting of memo misses, the misses and the open ones,
    and the message says so.
    """

    def __init__(self, word, budget, depth, expansions, pending, strategy="leftmost"):
        progress = ("nesting depth %d, %d memo misses, %d misses open" if strategy == "insertion"
                    else "depth %d, %d expansions, %d words pending")
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
        # the coded pair rewrites of both normal-form engines, keyed so that
        # translated pairs share an entry; filled on first use by pair_rule
        self.pairs = {}

    def cross_expansion(self, gap: int, a: int, b: int):
        """Rewrite data for theta^(i)_a theta^(j)_b with i - j = gap > 0.

        Returns tuples (dm1, dm2, c, d, coeff): the rewritten pair is
        theta^(j+dm1)_c theta^(j+dm2)_d with the given coefficient.
        """
        out = []
        for (c, d), coeff in self.pbold_cols.get((a, b), ()):
            out.append((0, gap, c, d, coeff))
        if self.variant == "theorem21" and gap >= 2:
            # f is the weight (q^-2 - 1) q^(-2(s-1)) of the depth-s correction
            # pair; the one-step recursion forces the geometric weight because
            # (1 + PbR)(1 + (q - 1/q)PR) collapses to q^(-2) (1 + PbR) under
            # the quadratic relation
            f = self.qm2_minus_1
            for s in range(1, gap // 2 + 1):
                if s > 1:
                    f = f * self.q_inv * self.q_inv
                if 2 * s == gap:
                    # the middle pair carries the same weight
                    out.append((s, s, a, b, f))
                else:
                    for (c, d), coeff in self.plus_pbold_cols.get((a, b), ()):
                        out.append((s, gap - s, c, d, coeff * f))
        return out

    def pair_rule(self, key):
        """Build the rewrites of a bad coded pair x1 x2 and store them under ``key``.

        ``key`` is (x1 - x2, x2 mod (n+1)) for the codes x = m(n+1) + a of
        the pair; the rule is a list of (y1 - x2, y2 - x2, coeff) with
        x1 x2 = sum coeff y1 y2.  The engines call it when ``pairs`` misses.
        """
        base = self.n + 1
        b = key[1]
        gap, a = divmod(key[0] + b, base)
        if gap:
            moves = self.cross_expansion(gap, a, b)
        else:
            moves = [(0, 0, b, a, self.swap.coeff[(a, b)])] if a != b else []
        rule = self.pairs[key] = [(dm1 * base + c - b, dm2 * base + d - b, coeff)
                                  for dm1, dm2, c, d, coeff in moves]
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
    of distinct words rewritten (tree size after merging like terms).  Under
    the insertion strategy they are the deepest nesting of memo misses and
    the number of misses.
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

    ``strategy`` is "leftmost" or "rightmost" (the heap engine below, which
    rewrites the first bad pair in that order) or "insertion".  In the heap
    engine, pending words are coded and processed lexicographically largest
    first, and like terms are merged eagerly, so every distinct word is
    expanded once per call, after all its parents: its coefficient and
    recorded chain depth are final.  Each pending word carries its bad pair.
    Words holding a zero factor are dropped instead of queued.
    """
    budget = resolve_budget(budget)
    if strategy == "insertion":
        return _insertion_normal_form(x, rules, budget)
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
            if not cc:
                continue
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


def _insertion_normal_form(x: ModeElement, rules: ExchangeRules, budget: int):
    """Normal form as a right fold of memoised insertions (``strategy="insertion"``).

    Here (m, a) is coded as m(n+1) + a, in generator order, so a normal word
    has increasing codes.  Memo keys put g at mode ``low``, the highest whose
    codes are below 256: the codes of modes 0..low are Python's cached small
    ints, so neither keys nor the words of low modes allocate an int each.
    """
    base = rules.n + 1
    low = 256 // base - 1
    one = LaurentPoly.one()
    table = rules.pairs
    memo = {}
    frames = []  # the translation of each open miss, outermost first
    stats = ReductionStats()

    def insert(g, w):
        # NF(g . w) for a normal coded word w, as ((coded word, coefficient), ...)
        if not w or g < w[0]:
            return (((g,) + w, one),)
        if g == w[0]:
            return ()
        # cut off the suffix above g's mode, and translate g to mode low
        top = (g // base + 1) * base
        s = top - (low + 1) * base
        t = bisect_left(w, top, 1)
        key = (g - s,) + tuple([c - s for c in w[:t]])
        out = memo.get(key)
        if out is None:
            if len(frames) >= budget:
                off = sum(frames)
                raise BudgetExceededError(tuple([divmod(c + off, base) for c in (g,) + w]),
                                          budget, stats.depth, stats.expansions, len(frames) + 1,
                                          "insertion")
            frames.append(s)
            stats.expansions += 1
            stats.depth = max(stats.depth, len(frames))
            h = key[1]
            pair = (key[0] - h, h % base)
            rule = table.get(pair)
            if rule is None:
                rule = rules.pair_rule(pair)
            acc = {}
            for o1, o2, c in rule:
                d1, d2 = h + o1, h + o2
                for u, cu in insert(d2, key[2:]):
                    cu = c if cu is one else c * cu
                    for v, cv in insert(d1, u):
                        add_term(acc, v, cu if cv is one else cu * cv)
            out = memo[key] = tuple(acc.items())
            frames.pop()
        high = w[t:]
        return tuple([(tuple([c + s for c in v]) + high, cv) for v, cv in out])

    done = {}
    # the code of each generator met so far, validated once and keyed by
    # identity, since (True, 1) and (1.0, 1) equal (1, 1) as dict keys; the
    # words of x hold every generator, so no id is reused meanwhile
    codes = {}
    for word, coeff in x.terms.items():
        try:
            code = tuple([codes[id(g)] for g in word])
        except KeyError:
            check_indices(word, rules.n)
            codes.update((id(g), g[0] * base + g[1]) for g in word)
            code = tuple([codes[id(g)] for g in word])
        # fold from the longest normal suffix, code[t:]
        t = bytes(map(ge, code, code[1:])).rfind(1) + 1
        cur = {code[t:]: coeff}
        for g in reversed(code[:t]):
            if not cur:
                break
            nxt = {}
            for u, cu in cur.items():
                for v, cv in insert(g, u):
                    add_term(nxt, v, cu if cv is one else cu * cv)
            cur = nxt
        for v, c in cur.items():
            add_term(done, v, c)
    # insert refers to itself, so free the memo now, not in a garbage collection
    del insert
    # output words share one (mode, index) tuple per generator
    gens = {c: divmod(c, base) for w in done for c in w}
    return ModeElement(x.n, {tuple([gens[c] for c in w]): c for w, c in done.items()}), stats


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
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            lhs = normal_form(r_anticommutator(rules, (i, a), (j, b)), rules)
            rhs = ModeElement.zero(n)
            for (c, d), coeff in m1_cols.get((a, b), ()):
                rhs = rhs + r_anticommutator(rules, (i - 1, c), (j + 1, d)).scale(coeff)
            extra = {}
            for (c, d), coeff in rules.plus_pbold_cols.get((a, b), ()):
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
