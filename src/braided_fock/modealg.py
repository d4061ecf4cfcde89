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
Translated pairs share an entry, and each entry is built once per rules
object, as is its copy with integer-image coefficients (``images``) that
the insertion engine reads.

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

``insertion_fold`` multiplies a generator into a normal word instead, the
multiplication-table technique of Plural for G-algebras; ``fock`` runs the
Fock states through it, and free words always take the heap engine.  For a
normal word w: if w is empty or g < w[0], g.w is normal; if g = w[0],
g.w = 0; otherwise the pair rewrites to sum c h1 h2 and

    NF(g.w) = sum c NF(h1 . NF(h2 . w[1:])).

The recursion ends: the inner call has a shorter word, the outer one a
smaller generator h1 < g and a word of the same length, and every mode
stays inside [mode(w[0]), mode(g)], so only finitely many generators occur.
Confluence makes the result the normal form.  A normal word has strictly
increasing codes x = (m - lo)(n+1) + a, lo the lowest mode of the call, so
the engine holds it as an int with bit x set for each of its codes: g.w is
the prepend w | 1 << g, and w[0] is the lowest set bit.  NF(g.w) is
memoised for one call under two normalisations: the bits of w from the
first code of the mode above g's on are cut off and put back unchanged,
since no rewrite reaches above mode(g), and the rest is shifted down by
s = w[0] - (w[0] mod (n+1)), since the rules depend only on mode gaps.
The key is (g - s, rest >> s), and a hit is read back as (v << s) | high.
Here the budget guards the nesting depth of memo misses.  The fold also
sums a derivation over the slots of a normal word without building the
words it makes; ``fock`` runs b_i this way.  It carries only a nonzero
partial sum: where it carries nothing it jumps to the next slot.

Inside ``insertion_fold`` a coefficient c is an int, the value of q^-d c at
q^-1 = 2^b (``coeff.to_image``, as in ``rmatrix.integer_images``), for
an offset d >= the top exponent of c, so that only powers q^-k occur.  The
terms of one memo entry share one offset, the largest of their products'
offsets; a rule coefficient has offset max(0, top exponent), which is 0
for the standard R in both variants, and adding terms of two offsets
shifts the lower one by b bits per step.  Each coefficient carries a bound
on the L1 norm of the polynomial it encodes: the product of the bounds in
a product, their sum in a sum.  A polynomial whose coefficients all lie
strictly between -2^(b-1) and 2^(b-1) is read back from its image as
balanced base-2^b digits (``coeff.from_image``), and then an image 0 is
the polynomial 0.  Terms are carried even when their image cancels to 0,
and every bound only grows along the fold, so checking the bounds of the
outputs is enough.  The fold takes its coefficients encoded (or as
LaurentPolys) and hands its outputs back encoded, (image, bound, offset)
with their width b, so ``fock`` chains two shifts without decoding in
between (``fold_image`` and ``unfold_image`` convert).  b starts at
``_FOLD_BITS`` = 32, or at the width of the coefficients given if that is
larger.  When an output bound reaches 2^(b-1) the fold reads its given
coefficients back, exact since their bounds were checked, encodes them at
2b and runs again, alone: the folds before it in a chain keep their
outputs.  A chained fold multiplies the bounds it is given, which grow far
past the norms they bound: at the (5, 8) frontier point those of b_-8 omega
reach 808,512 for norms of at most 8, and carried into b_8 they passed
2^31.  So an output bound of 2^(b/4) or more is replaced by the exact
norm, read off the digits (``coeff.image_l1``).

Every rewrite keeps the index multiset, the mode sum and the mode range of
the pair it rewrites.  The index multiset: ``ExchangeRules`` accepts only
an R whose relations are PBW (``wedge.derive_wedge_rules``), so PR maps
e_(a,b) into the span of e_(a,b) and e_(b,a), and so do P_bold_R = -PR/q,
1 + P_bold_R and every rewrite built from them.  The mode sum: a cross-mode
child of modes (i, j) sits at modes (j + s, i - s).  So every word of
NF(g.w) has the index counts N_a and the mode sum S of g.w and its modes in
the window of K+1 modes from mode(w[0]) to mode(g).  A normal word holds a
generator at most once, so its N_a generators of index a sit at distinct
window offsets, whose sum lies between N_a(N_a-1)/2 and
N_a K - N_a(N_a-1)/2, and every sum in between occurs.  Such a word exists
exactly when every N_a <= K+1 and S, counted from the bottom of the window,
lies between the sums of those bounds over a; when none exists,
NF(g.w) = 0.  For a normal w inside the window, only g's index can break
N_a <= K+1, and S cannot fall below the lower bound; the upper one fails
exactly when P + S_w > K |w| - N_g, with P the pairs of like indices in w,
S_w its mode sum, |w| its length and N_g its count of g's index.  The miss
path runs this test (``infeasible``), two popcounts per mode, when w
already holds g: on the ``fock_ladder`` benchmark and at the (3, 9) and
(4, 8) frontier points no other miss fails it.  A proved 0 is stored as the
empty sum and counted in ``ReductionStats.zeros``, not as an expansion.
``fock`` runs the same routine on the slots of a raising shift before it
builds them, and drops those it proves 0, exactly by the same proof; their
insertions then never reach the memo, so ``zeros`` does not count them, and
its pruned-slot log, which lists the column-rule prunes only, omits them.
"""

from __future__ import annotations

import heapq
import os
import re
from functools import lru_cache

from .coeff import LaurentPoly, LinearCombination, add_term, from_image, image_l1, to_image
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
    for the message; ``insertion_fold`` passes its own, since there they are
    the deepest nesting of memo misses, the misses and the open ones.
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
        # per image width, the same rewrites with the integer-image
        # coefficients of insertion_fold
        self.images = {}

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
    of distinct words rewritten (tree size after merging like terms).  In
    ``insertion_fold`` they are the deepest nesting of memo misses and the
    number of misses, and ``zeros`` counts the misses its zero test proved
    0 without a rewrite (the heap engine leaves it 0).
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


# the narrowest bit width b of the coefficient images that insertion_fold runs at
_FOLD_BITS = 32


def fold_image(c: LaurentPoly, bits: int):
    """(image, L1 norm, offset d) of c: d = max(0, top exponent), image q^-d c at q^-1 = 2^bits."""
    d = max(0, max(c.terms))
    return to_image(c, bits, d), sum(map(abs, c.terms.values())), d


def unfold_image(t, bits: int) -> LaurentPoly:
    """The polynomial of an (image, bound, offset) triple whose bound is below 2^(bits-1)."""
    return from_image(t[0], bits, t[2])


def infeasible(g: int, w: int, base: int) -> bool:
    """Whether the counting test proves NF(g . w) = 0 for the memo key (g, w) of an insertion.

    ``w`` is a normal word that holds ``g``, coded with its lowest generator
    in mode 0 and cut off above g's mode K; the test asks whether no normal
    word of the modes 0..K has the index counts and the mode sum of g . w
    (see the module docstring).
    """
    K = g // base
    rep = ((1 << (K + 1) * base) - 1) // ((1 << base) - 1)  # bit 0 of each mode
    col = w >> g - K * base & rep
    if col == rep:
        return True
    t = 0
    for k in range(base, (K + 1) * base, base):
        v = w >> k
        t += v.bit_count() + (w & v).bit_count()
    return t > K * w.bit_count() - col.bit_count()


def insertion_fold(rules: ExchangeRules, folds, lo: int, budget, bits):
    """Sum of right folds of memoised insertions; returns ({mask: image triple}, stats, width).

    A generator (m, a) is coded as x = (m - lo)(n+1) + a, so ``lo`` must be at
    most every mode of the call, and a normal word, whose codes increase, is
    the int ``mask`` with bit x set for each code x.  Each fold is
    ``(gens, start, slots, coeff)``: ``gens`` is a list of codes, ``start`` the
    mask of a normal word (or None for 0) and ``slots`` a list of triples
    (p, x_p, mask of gens[p+1:]) for positions p of ``gens``, highest first.
    Folding from R = {start} and p = len(gens) - 1 down to 0, the fold carries

        R_p = NF(gens[p] . R_(p+1)) + NF(x_p . gens[p+1:]),

    the second term only where p is a slot, and adds ``coeff`` R_0.  With no
    slots this is NF(gens . start); with a normal ``gens`` and ``start`` None
    it is the sum over the slots of NF(gens[:p] x_p gens[p+1:]), the Leibniz
    rule of a derivation that replaces one generator.  One memo serves every
    fold of the call, and ``stats`` counts its misses, their nesting and the
    misses proved 0.  Each ``coeff`` is an (image, L1 bound, offset) triple
    of ``bits`` bits whose bound is below 2^(bits-1), or a LaurentPoly when
    ``bits`` is None (see the module docstring, and ``fold_image``).  The
    fold runs at the larger of ``bits`` and ``_FOLD_BITS``; while an output
    bound reaches 2^(b-1) it encodes its own coefficients again at twice the
    width and runs again.  The outputs are triples of the width it returns,
    with images 0 dropped, and ``stats`` are those of the run that returned.
    """
    budget = resolve_budget(budget)
    width = max(bits or 0, _FOLD_BITS)
    run = folds
    while True:
        if width != bits:
            # the given coefficients are exact at their own width
            run = [(gens, start, slots, fold_image(unfold_image(c, bits) if bits else c, width))
                   for gens, start, slots, c in folds]
        done = _fold_at(rules, run, lo, budget, width)
        if done:
            return done + (width,)
        width *= 2


def _fold_at(rules: ExchangeRules, folds, lo: int, budget: int, bits: int):
    """One run of ``insertion_fold`` at ``bits`` bits: (outputs, stats), or None on overflow."""
    stats = ReductionStats()
    base = rules.n + 1
    half = 1 << (bits - 1)
    pairs = rules.pairs
    table = rules.images.setdefault(bits, {})
    memo = {}
    frames = []  # the shift s of each open miss, outermost first

    def add(acc, bnd, D, terms, d, c, cb):
        # acc += c terms, for terms (mask, image, bound) at offset d and acc
        # at offset D; returns the offset of the sum
        if d > D:
            for v in acc:
                acc[v] <<= (d - D) * bits
            D = d
        c <<= (D - d) * bits
        for v, cv, bv in terms:
            x = acc.get(v)
            if x is None:
                acc[v] = c * cv
                bnd[v] = cb * bv
            else:
                acc[v] = x + c * cv
                bnd[v] += cb * bv
        return D

    def push(acc, bnd, D, g, terms, d, c, cb):
        # acc += c NF(g . u) cu over (u, cu, bu) in terms, at offset d
        for u, cu, bu in terms:
            u0 = (u & -u).bit_length() - 1
            if g > u0 and u:
                dv, vs = insert(g, u)
            elif g < u0 or not u:  # g . u is normal
                dv, vs = 0, ((u | 1 << g, 1, 1),)
            else:  # g . u starts g g
                continue
            if d + dv != D:
                D = add(acc, bnd, D, vs, d + dv, c * cu, cb * bu)
                continue
            cu *= c
            bu *= cb
            for v, cv, bv in vs:
                x = acc.get(v)
                if x is None:
                    acc[v] = cu * cv
                    bnd[v] = bu * bv
                else:
                    acc[v] = x + cu * cv
                    bnd[v] += bu * bv
        return D

    def insert(g, w):
        # NF(g . w) for a normal mask w, as (offset, [(mask, image, bound), ...])
        w0 = (w & -w).bit_length() - 1
        if g < w0 or not w:
            return 0, ((w | 1 << g, 1, 1),)
        if g == w0:
            return 0, ()
        # no rewrite reaches above g's mode, so the bits from top on are cut
        # off; the rest is shifted down to w0's mode, since the rules depend
        # only on mode gaps
        s = w0 - w0 % base
        top = g - g % base + base
        high = w >> top << top
        key = (g - s, (w ^ high) >> s)
        out = memo.get(key)
        if out is None:
            kg, kw = key
            if kw >> kg & 1 and infeasible(kg, kw, base):
                stats.zeros += 1
                memo[key] = (0, ())
                return 0, ()
            if len(frames) >= budget:
                off = lo * base + sum(frames)
                raise BudgetExceededError(
                    tuple([divmod(c + off, base) for c in [g] + [
                        x for x in range(w.bit_length()) if w >> x & 1]]), budget,
                    stats.depth, stats.expansions, len(frames) + 1,
                    "nesting depth %d, %d memo misses, %d misses open")
            frames.append(s)
            stats.expansions += 1
            stats.depth = max(stats.depth, len(frames))
            h = w0 - s
            rest = kw ^ 1 << h
            pair = (kg - h, h)
            rule = table.get(pair)
            if rule is None:
                rule = pairs.get(pair)
                if rule is None:
                    rule = rules.pair_rule(pair)
                rule = table[pair] = [(o1, o2) + fold_image(c, bits) for o1, o2, c in rule if c]
            acc, bnd, D = {}, {}, 0
            for o1, o2, c, cb, cd in rule:
                du, us = insert(h + o2, rest)
                D = push(acc, bnd, D, h + o1, us, du + cd, c, cb)
            out = memo[key] = (D, tuple(zip(acc, acc.values(), bnd.values())))
            frames.pop()
        d, terms = out
        if not terms or not (s or high):
            return out
        if len(terms) == 1:  # the common case, without a comprehension
            ((v, c, cb),) = terms
            return d, ((v << s | high, c, cb),)
        return d, [(v << s | high, c, cb) for v, c, cb in terms]

    done, dbnd, Dd = {}, {}, 0
    for gens, start, slots, (c, cb, cd) in folds:
        # R_p: images acc and bounds bnd at offset D
        acc, bnd, D = ({}, {}, 0) if start is None else ({start: 1}, {start: 1}, 0)
        k = 0
        p = len(gens) - 1
        while p >= 0:
            if not acc:
                # nothing is carried, so R_p is 0 down to the next slot
                if k == len(slots):
                    break
                p = slots[k][0]
            nxt, nbnd = {}, {}
            E = push(nxt, nbnd, 0, gens[p], zip(acc, acc.values(), bnd.values()), D, 1, 1)
            if k < len(slots) and slots[k][0] == p:
                _, x, suffix = slots[k]
                k += 1
                E = push(nxt, nbnd, E, x, ((suffix, 1, 1),), 0, 1, 1)
            acc, bnd, D = nxt, nbnd, E
            p -= 1
        if acc:
            Dd = add(done, dbnd, Dd, zip(acc, acc.values(), bnd.values()), D + cd, c, cb)
    out = {}
    for v, x in done.items():
        b = dbnd[v]
        if b >= half:
            out = None
            break
        if x:
            # a chained fold multiplies this bound again; past 2^(bits/4) the
            # exact norm, one pass over the digits, is worth reading
            out[v] = (x, image_l1(x, bits) if b >> bits // 4 else b, Dd)
    # insert and push refer to each other, so free the memo now, not in a
    # garbage collection
    del insert
    return None if out is None else (out, stats)


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
