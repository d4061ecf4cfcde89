"""Semi-infinite states near the vacuum, the Heisenberg shift operators and their engine.

The vacuum is the ordered product of full columns omega^k = theta^(k)_1 ...
theta^(k)_n for k >= 0.  A state is a linear combination of configurations
that differ from the vacuum in finitely many columns: explicitly stored
columns below ``tail_start`` (each a strictly increasing, possibly partial,
index tuple) and implicit full columns from ``tail_start`` on.  Canonically,
``tail_start`` is as small as the content allows and empty columns are not
stored, so equal states compare equal as dictionaries.

Inside the module a term is one bit mask, theta^(m)_a at bit (m - lo)(n+1) + a
for a floor ``lo`` (``_floor``), with the tail spelled out as full columns up
to a window end W.  ``_spell`` alone encodes and ``_read_masks`` alone decides
the canonical form, for the constructor, for sums and for engine outputs.
The codes of a normal word increase, so any normal word is such a mask: g.w
is the prepend w | 1 << g, and w[0] is the lowest set bit.

``insertion_fold`` normal-orders by multiplying a generator into a normal
word, the multiplication-table technique of Plural for G-algebras (free
words take the heap engine of ``modealg``).  For a normal word w: if w is
empty or g < w[0], g.w is normal; if g = w[0], g.w = 0; otherwise the pair
rewrites to sum c h1 h2 and

    NF(g.w) = sum c NF(h1 . NF(h2 . w[1:])).

The recursion ends: the inner call has a shorter word, the outer one a
smaller generator h1 < g and a word of the same length, and every mode
stays inside [mode(w[0]), mode(g)], so only finitely many generators occur.
Confluence makes the result the normal form.  NF(g.w) is memoised for one
call under two normalisations: the bits of w from the first code of the
mode above g's on are cut off and put back unchanged, since no rewrite
reaches above mode(g), and the rest is shifted down by
s = w[0] - (w[0] mod (n+1)), since the rules depend only on mode gaps.  The
key is (g - s, rest >> s), and a hit is read back as (v << s) | high.  Here
the budget guards the nesting depth of memo misses.  The fold also sums a
derivation over the slots of a normal word without building the words it
makes, and where it carries nothing it jumps to the next slot.

Inside the fold a coefficient c is an int, the value of q^-d c at
q^-1 = 2^b (``coeff.to_image``, as in ``rmatrix.integer_images``), for an
offset d >= the top exponent of c, so that only powers q^-k occur.  The
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
outputs is enough.  b starts at ``_FOLD_BITS`` = 32, or at the width of
the coefficients given if that is larger.  When an output bound reaches
2^(b-1) the fold reads its given coefficients back, exact since their
bounds were checked, encodes them at 2b and runs again, alone.  A chained
fold multiplies the bounds it is given, which grow far past the norms they
bound: at the (5, 8) frontier point those of b_-8 omega reach 808,512 for
norms of at most 8, and carried into b_8 they passed 2^31.  So an output
bound of 2^(b/4) or more is replaced by the exact norm, read off the
digits (``coeff.image_l1``).

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

The shift operator b_i replaces one generator theta^(j)_a by theta^(j+i)_a,
summed over every generator slot as a derivation, with the whole word then
normal-ordered.  The infinite sum over tail columns is cut down by a
conservative vanishing test: a slot shifted from column j to mode k is
dropped when every column between k and j (including k, excluding j) is
full, because the shifted generator then reorders onto a full column and a
product of n+1 generators of one mode vanishes; correction terms produced on
the way live strictly between k and j and die against the same full columns.
The test is one mask comparison per column.  A raised slot p of a word A is
also dropped, before it is built, when the counting test proves
NF(x_p . A[p+1:]) = 0 for the shifted generator x_p; the slot's term is
NF(A[:p] . NF(x_p . A[p+1:])), so the drop is exact, and ``zeros`` does not
count it.  The pruned-slot log lists the column-rule prunes only.
``prune=False`` switches both tests off; inside a finite slot window it is
the oracle for comparisons.

The shift core ``_shift`` works on a spelled state (terms, lo, W, T, bits):
each mask spells the modes lo..W-1, full from the canonical tail start T
on, and maps to its coefficient as ``insertion_fold`` takes it, an
(image, L1 bound, offset) triple of ``bits`` bits, or a LaurentPoly when
``bits`` is None.  It spells each term up to W, the materialised tail plus
i for a raising shift, so that every shifted slot lands below it.  It
builds each term's slots one column at a time and hands the fold the
term's codes A and, for each slot p, the shifted code x_p = A[p] + i(n+1)
with the mask of A[p+1:]; one right fold per term sums NF(A[:p] x_p A[p+1:])
over the slots, and all terms share the call's memo.  The spelled result
carries the width the fold returned, so a chain of shifts never decodes in
between, and a fold that widens leaves the outputs of those before it.
``apply_b`` spells a state, runs the core once and decodes;
``commutator_on_vacuum`` chains it for b_i b_-j omega and b_-j b_i omega,
and ``column_piece`` for b_2 b_-2 omega from one column, and each decodes
once, at the end.  ``multiply_left`` folds each word of the element into
the state's mask, spelled up to above every mode it inserts.  Truncation
keeps this local: every rewrite keeps both output modes inside the mode
range of the pair it rewrites, so inserting a generator never touches the
columns above its mode, and the memo keys each insertion on the columns at
or below it.
"""

from __future__ import annotations

import sys

from .coeff import (LaurentPoly, _json_exponent, add_term, braided_int_scalar, from_image,
                    image_l1, strict_int, strict_laurent, to_image)
from .modealg import (BudgetExceededError, ExchangeRules, ModeElement, ReductionStats,
                      check_indices, resolve_budget, standard_rules)


class FockState:
    """Finitely supported deviation from the semi-infinite vacuum.

    Construction canonicalizes: full columns adjoining the tail are absorbed
    into it, empty columns are dropped, and the stored ``tail_start`` is the
    largest of the per-term minimal tails, with shorter terms padded by
    explicit full columns.  Equal states therefore compare equal as maps.
    """

    __slots__ = ("n", "tail_start", "terms")

    def __init__(self, n: int, tail_start: int, terms=None):
        n = strict_int(n, "n")
        if n < 1:
            raise ValueError("n must be positive, got %d" % n)
        tail_start = strict_int(tail_start, "tail_start")
        checked = []
        if terms:
            for cfg, c in terms.items():
                cols = {strict_int(m, "mode"): tuple([strict_int(a, "index") for a in ix])
                        for m, ix in cfg if len(ix)}
                if len({m for m, _ in cfg}) < len(cfg):
                    raise ValueError("configuration %r lists a mode twice" % (cfg,))
                for ix in cols.values():
                    if not all(1 <= a <= n for a in ix) or any(
                        x >= y for x, y in zip(ix, ix[1:])
                    ):
                        raise ValueError(
                            "column content must be strictly increasing indices in 1..n"
                        )
                if any(m >= tail_start for m in cols):
                    raise ValueError("explicit column inside the implicit tail")
                if strict_laurent(c, "coefficient"):
                    checked.append((cols.items(), c))
        parts = [(tail_start, checked)]
        lo = _floor(parts)
        other = _read_masks(n, _spell(n, parts, lo, tail_start), lo, tail_start, tail_start)
        self.n = n
        self.tail_start = other.tail_start
        self.terms = other.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FockState):
            return NotImplemented
        if self.n != other.n:
            return False
        if not self.terms and not other.terms:
            return True
        return self.tail_start == other.tail_start and self.terms == other.terms

    def scale(self, coeff):
        return FockState(self.n, self.tail_start, {k: c * coeff for k, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, FockState) or self.n != other.n:
            raise ValueError("can only add states on the same space")
        parts = [(s.tail_start, s.terms.items()) for s in (self, other)]
        lo = _floor(parts)
        W = max(self.tail_start, other.tail_start)
        masks = _spell(self.n, parts, lo, W)
        return _read_masks(self.n, masks, lo, W, min(self.tail_start, other.tail_start))

    def __sub__(self, other):
        return self + other.scale(-1)

    def to_json(self):
        terms = []
        for cfg in sorted(self.terms):
            terms.append(
                {
                    "coeff": self.terms[cfg].to_json(),
                    "columns": {str(m): list(ix) for m, ix in cfg},
                }
            )
        return {"n": self.n, "tail_start": self.tail_start, "terms": terms}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or not {"n", "tail_start", "terms"} <= set(obj):
            raise ValueError("a state must be an object with n, tail_start and terms")
        if not isinstance(obj["terms"], list):
            raise ValueError("terms must be a list of {coeff, columns}")
        terms = {}
        for t in obj["terms"]:
            if not (isinstance(t, dict) and isinstance(t.get("columns"), dict)):
                raise ValueError("malformed term %r: expected {coeff, columns}" % (t,))
            cols = []
            for m, ix in t["columns"].items():
                if not isinstance(ix, list) or any(isinstance(a, (list, dict)) for a in ix):
                    raise ValueError("column %r must be a list of indices" % (m,))
                cols.append((_json_exponent(m), tuple(ix)))
            cfg = tuple(sorted(cols))
            if cfg in terms:
                raise ValueError("duplicate term for columns %r" % (cfg,))
            terms[cfg] = LaurentPoly.from_json(t.get("coeff"))
        return cls(obj["n"], obj["tail_start"], terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for cfg in sorted(self.terms):
            cols = " ".join(
                "%d:%s" % (m, "".join(str(a) for a in ix)) for m, ix in cfg
            ) or "(vacuum)"
            bits.append("(%s) [%s | tail %d]" % (self.terms[cfg], cols, self.tail_start))
        return " + ".join(bits)


def vacuum(n: int, base: int = 0) -> FockState:
    """The undisturbed state: full columns from ``base`` on, nothing below."""
    return FockState(n, base, {(): LaurentPoly.one()})


def _floor(parts) -> int:
    """The lowest mode of ``parts``, pairs (tail_start, (configuration, coeff) pairs)."""
    return min([T for T, _ in parts] + [m for _, terms in parts for cfg, _ in terms
                                        for m, _ in cfg])


def _spell(n: int, parts, lo: int, W: int) -> dict:
    """{mask: coeff} of the terms of ``parts``, as ``_floor`` takes them, like terms summed.

    Each mask spells the modes ``lo`` to W - 1: the term's columns, each a
    pair (mode, indices), and full columns from its part's tail_start on.
    """
    base = n + 1
    masks = {}
    for T, terms in parts:
        tail = _full_mask(n, lo, T, W)
        for cfg, c in terms:
            add_term(masks, sum([1 << (m - lo) * base + a for m, ix in cfg for a in ix]) | tail, c)
    return masks


def _full_mask(n: int, lo: int, start: int, end: int) -> int:
    """The mask of full columns from ``start`` up to ``end`` - 1, with modes from ``lo`` on."""
    base = n + 1
    block = (1 << base) - 1
    # the repunit (2^((end-start)base) - 1) / block has bit 0 of each mode set
    return ((1 << (end - start) * base) - 1) // block * (block ^ 1) << (start - lo) * base


def _read_masks(n: int, masks: dict, lo: int, W: int, fallback_tail: int) -> FockState:
    """The canonical state of {mask: coeff}, each mask spelling modes ``lo`` to W - 1.

    The tail starts at ``_tail``; the nonempty columns below it are read back
    in order, so distinct masks stay distinct configurations.  No mask gives
    the state 0 with tail ``fallback_tail``.
    """
    s = FockState.__new__(FockState)
    t = _tail(n, masks, lo, W, fallback_tail)
    cache = {}
    s.n, s.tail_start = n, t
    s.terms = {_config(v, lo, t, n + 1, cache): c for v, c in masks.items()}
    return s


def _tail(n: int, masks, lo: int, W: int, fallback_tail: int) -> int:
    """The least t such that the columns t..W-1 are full in every mask, or ``fallback_tail``.

    That is the largest of the masks' own minimal tails; no mask gives
    ``fallback_tail``.
    """
    if not masks:
        return fallback_tail
    common = -1
    for v in masks:
        common &= v
    # the tail starts just above the highest column that some mask leaves short
    missing = _full_mask(n, lo, lo, W) & ~common
    return lo + (missing.bit_length() - 1) // (n + 1) + 1


def _config(v: int, lo: int, t: int, base: int, cache: dict) -> tuple:
    """The nonempty columns of mask v below mode t, as ((mode, indices), ...).

    ``cache`` maps a column's bits to its index tuple.
    """
    v &= (1 << (t - lo) * base) - 1
    full = (1 << base) - 2
    cfg = []
    m = lo
    while v:
        b = v & full
        if b:
            ix = cache.get(b)
            if ix is None:
                ix = cache[b] = tuple([a for a in range(1, base) if b >> a & 1])
            cfg.append((m, ix))
        v >>= base
        m += 1
    return tuple(cfg)


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
    fold of the call.  Each ``coeff`` is an (image, L1 bound, offset) triple
    of ``bits`` bits whose bound is below 2^(bits-1), or a LaurentPoly when
    ``bits`` is None (see the module docstring, and ``fold_image``).  The
    fold runs at the larger of ``bits`` and ``_FOLD_BITS``; while an output
    bound reaches 2^(b-1) it encodes its own coefficients again at twice the
    width and runs again.  The outputs are triples of the width it returns,
    with images 0 dropped.  ``stats`` cover the whole call: the memo misses
    and the misses proved 0 of every run, and the deepest nesting of misses
    in any, so a call that widens counts each miss once per run, and a
    budget error raised in a widened run reports the misses of the runs
    before it too.
    """
    budget = resolve_budget(budget)
    stats = ReductionStats()
    width = max(bits or 0, _FOLD_BITS)
    run = folds
    while True:
        if width != bits:
            # the given coefficients are exact at their own width
            run = [(gens, start, slots, fold_image(unfold_image(c, bits) if bits else c, width))
                   for gens, start, slots, c in folds]
        try:
            done = _fold_at(rules, run, lo, budget, width, stats)
        except RecursionError:
            # each nested miss nests Python calls, so the interpreter's
            # recursion limit can stop the nesting long before the budget
            err = BudgetExceededError(None, budget, stats.depth, stats.expansions, stats.depth)
            err.args = ("insertions nested %d memo misses deep (%d misses in all) when Python's "
                        "recursion limit of %d calls stopped the run, below the rewrite budget %d"
                        % (stats.depth, stats.expansions, sys.getrecursionlimit(), budget),)
            raise err from None
        if done is not None:
            return done, stats, width
        width *= 2


def _fold_at(rules: ExchangeRules, folds, lo: int, budget: int, bits: int, stats):
    """One run of ``insertion_fold`` at ``bits`` bits, counted into ``stats``; None on overflow."""
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
    return out


def _rules_for(n: int, rules: ExchangeRules) -> ExchangeRules:
    """``rules``, by default the standard ones, checked to have rank n."""
    if rules is None:
        return standard_rules(n)
    if rules.n != n:
        raise ValueError("rules of rank %d cannot act on a state of rank %d" % (rules.n, n))
    return rules


def _encode(s: FockState, room: int):
    """The spelled state (terms, lo, W, T, None) of s, its masks spelling modes ``lo`` to W - 1.

    ``lo`` is ``room`` modes below the lowest mode of s, ``terms`` maps each
    mask to its coefficient, a LaurentPoly, and W = T = s.tail_start.
    """
    parts = [(s.tail_start, s.terms.items())]
    lo = _floor(parts) - room
    return _spell(s.n, parts, lo, s.tail_start), lo, s.tail_start, s.tail_start, None


def _decode(n: int, spelled) -> FockState:
    """The canonical state of a spelled state (terms, lo, W, T, bits) out of a fold."""
    terms, lo, W, T, bits = spelled
    return _read_masks(n, {v: unfold_image(t, bits) for v, t in terms.items()}, lo, W, T)


def multiply_left(x: ModeElement, s: FockState, rules: ExchangeRules = None,
                  budget=None) -> FockState:
    """Normal-order a mode element against a state from the left, in one call."""
    if x.n != s.n:
        raise ValueError("an element of rank %d cannot act on a state of rank %d" % (x.n, s.n))
    for xword in x.terms:
        check_indices(xword, s.n)
    rules = _rules_for(s.n, rules)
    base = s.n + 1
    T = s.tail_start
    W = max([T] + [m + 1 for xword in x.terms for m, _ in xword])
    parts = [(T, s.terms.items())]
    lo = _floor(parts + [(T, x.terms.items())])
    # each term, its columns spelled up to W - 1, is the normal start of its folds
    folds = [([(m - lo) * base + a for m, a in xword], start, (), sc * xc)
             for start, sc in _spell(s.n, parts, lo, W).items() for xword, xc in x.terms.items()]
    done, _, bits = insertion_fold(rules, folds, lo, budget, None)
    return _decode(s.n, (done, lo, W, T, bits))


def _shift(rules: ExchangeRules, i: int, spelled, prune: bool = True, columns=None,
           log=None, budget=None):
    """b_i on a spelled state (terms, lo, W, T, bits); returns the spelled result.

    ``terms`` maps masks, each spelling the modes lo..W-1 with full columns
    from T on, to coefficients in the form ``insertion_fold`` takes at
    ``bits``; T is the canonical tail start of the terms, and ``lo`` is at
    most every mode plus min(i, 0).  ``columns`` is None or a set of ints;
    the other arguments are those of ``apply_b``.  Each term's slots are
    built one column at a time, and the log lists the terms in
    configuration order, so that it does not depend on how the state was
    built.
    """
    n = rules.n
    base = n + 1
    terms, lo, W, T, bits = spelled
    if columns is not None:
        T_impl = max([T] + [c + 1 for c in columns])
    elif i < 0:
        T_impl = T - i
    else:
        T_impl = T
    # every shifted slot lands below W, so the result is spelled to W too
    top = T_impl + max(i, 0)
    if top > W:
        tail = _full_mask(n, lo, W, top)
        terms = {v | tail: t for v, t in terms.items()}
        W = top
    full = (1 << base) - 2
    # a generator of the column at offset c passes the |i| columns of span << (c + step) * base
    span = _full_mask(n, lo, lo, lo + abs(i))
    step = min(i, 1)
    shift = i * base
    cache = {}
    folds = []
    logged = []  # (configuration, [(column, index), ...]) of each term with logged prunes
    # a fixed order, so that the work does not depend on how the state was
    # built; decreasing masks keep the misses nested as shallowly as the
    # configuration order does ([b_7, b_-7] at n = 4: 6 deep, 27 in the
    # order the lowering shift made the terms)
    for word, coeff in sorted(terms.items(), reverse=True):
        gens = []
        slots = []
        pruned = []
        for c in range(T_impl - lo):
            b = word >> c * base & full
            if not b:
                continue
            ix = cache.get(b)
            if ix is None:
                ix = cache[b] = tuple([a for a in range(1, base) if b >> a & 1])
            x0 = c * base
            p0 = len(gens)
            gens += [x0 + a for a in ix]
            j = c + lo
            if columns is not None and j not in columns:
                continue
            between = span << (c + step) * base
            if prune and word & between == between:
                if log is not None:
                    pruned += [(j, a) for a in ix]
                continue
            # the codes of g's mode and below, for the counting test
            cut = (1 << (c + i + 1) * base) - 1
            for p, a in enumerate(ix, p0):
                x = x0 + a
                g = x + shift
                suffix = word & -(2 << x)
                if prune and i > 0:
                    # a raised slot is not built when the counting test of a
                    # memo miss proves its insertion NF(g . suffix) 0; the
                    # test takes the miss's key, suffix cut above g's mode
                    # and shifted down to the mode of its first code w0
                    w0 = (suffix & -suffix).bit_length() - 1
                    s = w0 - w0 % base
                    kw = (suffix & cut) >> s
                    if g > w0 and kw >> g - s & 1 and infeasible(g - s, kw, base):
                        continue
                slots.append((p, g, suffix))
        if slots:
            slots.reverse()
            folds.append((gens, None, slots, coeff))
        if pruned:
            logged.append((_config(word, lo, T, base, cache), pruned))
    for cfg, pruned in sorted(logged, key=lambda entry: entry[0]):
        term = list(map(list, cfg))
        log += [{"column": j, "index": a, "target_mode": j + i, "term": term} for j, a in pruned]
    done, _, bits = insertion_fold(rules, folds, lo, budget, bits)
    return done, lo, W, _tail(n, done, lo, W, T), bits


def apply_b(i: int, s: FockState, rules: ExchangeRules = None, prune: bool = True,
            columns=None, log_pruned=None, budget=None) -> FockState:
    """The shift derivation b_i applied to a state.

    ``columns`` restricts the generator slots to the given columns (any
    iterable of ints, read once, such as ``range(lo, hi + 1)``; anything
    else raises ValueError) and materializes the tail through the largest
    of them; with a window of columns and ``prune=False`` this is the
    brute-force oracle.  Slots pruned by the column rule are appended to
    ``log_pruned`` when a list is supplied.
    """
    if strict_int(i, "shift") == 0:
        raise ValueError("shift must be nonzero")
    rules = _rules_for(s.n, rules)
    if columns is not None:
        if not hasattr(columns, "__iter__"):
            raise ValueError("columns must be an iterable of ints, got %r" % (columns,))
        columns = frozenset([strict_int(c, "column") for c in columns])
    spelled = _encode(s, max(-i, 0))
    return _decode(s.n, _shift(rules, i, spelled, prune, columns, log_pruned, budget))


def translate(s: FockState, d: int) -> FockState:
    """Shift every mode (explicit and tail) by d."""
    d = strict_int(d, "translation")
    terms = {tuple((m + d, ix) for m, ix in cfg): c for cfg, c in s.terms.items()}
    return FockState(s.n, s.tail_start + d, terms)


def scalar_part(s: FockState):
    """The coefficient c with s = c * vacuum(n), or None if deviations remain."""
    if not s.terms:
        return LaurentPoly.zero()
    if s.tail_start == 0 and set(s.terms) == {()}:
        return s.terms[()]
    return None


def commutator_on_vacuum(i: int, j: int, n: int, rules: ExchangeRules = None,
                         log_pruned=None, budget=None):
    """(b_i b_{-j} - b_{-j} b_i) applied to the vacuum.

    Returns (scalar, state): ``scalar`` is the Laurent coefficient when the
    result is a multiple of the vacuum and None otherwise.  Each product
    chains its two shifts on masks and coefficient images, and is decoded
    once, at the end.
    """
    if not (strict_int(i, "shift i") >= 1 and strict_int(j, "shift j") >= 1):
        raise ValueError("shifts i and j must be positive")
    v = vacuum(n, 0)
    rules = _rules_for(n, rules)
    # the vacuum spelled from mode -j on, low enough for b_-j in either order
    start = _encode(v, j)
    kw = {"log": log_pruned, "budget": budget}
    first = _shift(rules, i, _shift(rules, -j, start, **kw), **kw)
    second = _shift(rules, -j, _shift(rules, i, start, **kw), **kw)
    result = _decode(n, first) - _decode(n, second)
    return scalar_part(result), result


def heisenberg_sides(scalar: LaurentPoly, i: int, j: int, n: int):
    """The two sides of the denominator-cleared Heisenberg relation.

    scalar * (1 - q^(-2i)) and [i == j] * i * (1 - q^(-2 n i)), the cleared
    form of the expected commutator value.
    """
    one = LaurentPoly.one()
    lhs = scalar * (one - LaurentPoly.q_power(-2 * i))
    if i != j:
        rhs = LaurentPoly.zero()
    else:
        rhs = (one - LaurentPoly.q_power(-2 * n * i)) * i
    return lhs, rhs


def column_piece(n: int, column: int, rules: ExchangeRules = None) -> LaurentPoly:
    """b_2 applied to the part of b_-2 omega from the slots in one column, a scalar.

    Lemma 3.3's pieces are columns 0 and 1.  The two shifts are chained on
    masks and coefficient images, as in ``commutator_on_vacuum``.
    """
    v = vacuum(n, 0)
    rules = _rules_for(n, rules)
    low = _shift(rules, -2, _encode(v, 2), columns=frozenset([strict_int(column, "column")]))
    c = scalar_part(_decode(n, _shift(rules, 2, low)))
    if c is None:
        raise ArithmeticError("column-%d contribution is not a multiple of the vacuum" % column)
    return c


def lemma33_closed_form(n: int) -> LaurentPoly:
    """The column-0 piece: [n; q^-2] + (1 - q^-2)([n-1; q^-4] - q^(-2(n-1)) [n-1; q^-2])."""
    one = LaurentPoly.one()
    qm2 = LaurentPoly.q_power(-2)
    return braided_int_scalar(n, -2) + (one - qm2) * (
        braided_int_scalar(n - 1, -4)
        - LaurentPoly.q_power(-2 * (n - 1)) * braided_int_scalar(n - 1, -2)
    )


def lemma33_second_term_expected(n: int) -> LaurentPoly:
    """The column-1 piece: q^(-2(n-1)) [n; q^-2]."""
    return LaurentPoly.q_power(-2 * (n - 1)) * braided_int_scalar(n, -2)
