"""Dense exact-arithmetic oracles, independent of the library's sparse paths."""

from fractions import Fraction
import itertools


def multi_indices(n, legs):
    return list(itertools.product(range(1, n + 1), repeat=legs))


def reference_evaluate(p, q0):
    """The value of a Laurent polynomial at q0, one Fraction power per term."""
    q0 = Fraction(q0)
    return sum((c * q0**e for e, c in p.terms.items()), Fraction(0))


def reference_substitute(p, z, w):
    """``p`` in Z[q, q^-1, z, w] with z and w replaced, term by term.

    ``z`` and ``w`` are ints or ``PolyQZW`` values; every monomial is
    rebuilt by repeated multiplication.
    """
    from braided_fock.coeff import PolyQZW

    out = PolyQZW.zero()
    for (qe, zd, wd), c in p.terms.items():
        term = PolyQZW({(qe, 0, 0): c})
        for _ in range(zd):
            term = term * z
        for _ in range(wd):
            term = term * w
        out = out + term
    return out


def reference_S_entry(r, s):
    """w r - z s in Z[q, q^-1, z, w], one ``PolyQZW`` product per term."""
    from braided_fock.coeff import PolyQZW

    z, w = PolyQZW({(0, 1, 0): 1}), PolyQZW({(0, 0, 1): 1})
    out = PolyQZW.zero()
    for p, var in ((r, w), (s, -z)):
        for e, c in p.terms.items():
            out = out + PolyQZW({(e, 0, 0): c}) * var
    return out


def reference_baxterised_S(data):
    """S(z, w) = w R - z R_21^-1 as an operator with ``PolyQZW`` entries."""
    from braided_fock.coeff import LaurentPoly
    from braided_fock.tensor import TensorOp, invert

    R, r21_inv = data.R.entries, invert(data.R).swapped_legs().entries
    zero = LaurentPoly.zero()
    return TensorOp(data.n, 2, {k: reference_S_entry(R.get(k, zero), r21_inv.get(k, zero))
                                for k in R.keys() | r21_inv.keys()})


def dense_from_op(op, q0):
    """Dense Fraction matrix of a Laurent- or int-coefficient TensorOp at q = q0."""
    idx = multi_indices(op.n, op.legs)
    pos = {ix: k for k, ix in enumerate(idx)}
    d = len(idx)
    mat = [[Fraction(0)] * d for _ in range(d)]
    for (r, c), coeff in op.entries.items():
        mat[pos[r]][pos[c]] = Fraction(coeff) if type(coeff) is int else coeff.evaluate(q0)
    return mat


def dense_standard_R(n, q0):
    """The standard R-matrix built directly from its entry formula."""
    q0 = Fraction(q0)
    lam = q0 - 1 / q0
    idx = multi_indices(n, 2)
    pos = {ix: k for k, ix in enumerate(idx)}
    d = len(idx)
    mat = [[Fraction(0)] * d for _ in range(d)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            mat[pos[(a, b)]][pos[(a, b)]] = q0 if a == b else Fraction(1)
            if a > b:
                mat[pos[(b, a)]][pos[(a, b)]] = lam
    return mat


def dense_P(n):
    idx = multi_indices(n, 2)
    pos = {ix: k for k, ix in enumerate(idx)}
    d = len(idx)
    mat = [[Fraction(0)] * d for _ in range(d)]
    for a, b in idx:
        mat[pos[(b, a)]][pos[(a, b)]] = Fraction(1)
    return mat


def dense_mul(A, B):
    d = len(A)
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        Ai = A[i]
        for k in range(d):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(d):
                    if Bk[j]:
                        row[j] += a * Bk[j]
    return out


def dense_identity(d):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]


def dense_inverse(A):
    """Gauss-Jordan over Fractions; raises ZeroDivisionError when singular."""
    d = len(A)
    M = [list(row) + ident for row, ident in zip(A, dense_identity(d))]
    for k in range(d):
        piv = next((i for i in range(k, d) if M[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[k], M[piv] = M[piv], M[k]
        inv = Fraction(1) / M[k][k]
        M[k] = [x * inv for x in M[k]]
        for i in range(d):
            if i != k and M[i][k]:
                f = M[i][k]
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return [row[d:] for row in M]


def dense_embed(op_mat, n, op_legs, positions, total):
    """Dense embedding oracle via direct index bookkeeping."""
    src = multi_indices(n, op_legs)
    src_pos = {ix: k for k, ix in enumerate(src)}
    idx = multi_indices(n, total)
    pos = {ix: k for k, ix in enumerate(idx)}
    d = len(idx)
    out = [[Fraction(0)] * d for _ in range(d)]
    rest = [p for p in range(1, total + 1) if p not in positions]
    for row in idx:
        for col in idx:
            if any(row[p - 1] != col[p - 1] for p in rest):
                continue
            r = tuple(row[p - 1] for p in positions)
            c = tuple(col[p - 1] for p in positions)
            out[pos[row]][pos[col]] = op_mat[src_pos[r]][src_pos[c]]
    return out


def dense_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rows and col < width:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        lead = rows[0]
        inv = Fraction(1) / lead[col]
        rows = [rows[0]] + [
            [a - r[col] * inv * b for a, b in zip(r, lead)] if r[col] else r
            for r in rows[1:]
        ]
        rank += 1
        rows = [r for r in rows[1:] if any(r)]
        col += 1
    return rank


def slot_words(i, s, prune=True):
    """(word, coeff, end) for every slot of b_i on the state s, one whole word each.

    Each slot flattens the explicit columns and the tail through the target
    mode into one word, up to mode ``end`` - 1, and shifts the slot's
    generator.  A slot is skipped, when ``prune`` is set, if every column
    from the target mode up to (not including) the slot's column, or past the
    slot's column up to the target mode, is full or in the tail.
    """
    n = s.n
    full = tuple(range(1, n + 1))
    tail = s.tail_start - i if i < 0 else s.tail_start
    for cfg, sc in s.terms.items():
        cols = dict(cfg)
        for c in range(s.tail_start, tail):
            cols[c] = full
        for j in sorted(cols):
            k = j + i
            between = range(k, j) if k < j else range(j + 1, k + 1)
            if prune and all(c >= tail or len(cols.get(c, ())) == n for c in between):
                continue
            end = max(tail, k + 1)
            for pos in range(len(cols[j])):
                word = []
                for c in range(min(min(cols), k), end):
                    for t, a in enumerate(cols.get(c, full if c >= tail else ())):
                        word.append((k, a) if (c, t) == (j, pos) else (c, a))
                yield tuple(word), sc, end


def slot_element(i, s, prune=True):
    """Every slot word of b_i on s, gathered into one ``ModeElement``.

    Each word is padded with full columns up to the largest end, so all
    words have one length: the heap engine's audit checks that words leave
    the heap in decreasing order, which holds among words of one length.
    """
    from braided_fock.coeff import add_term
    from braided_fock.modealg import ModeElement

    words = list(slot_words(i, s, prune))
    top = max([end for _, _, end in words], default=0)
    terms = {}
    for word, sc, end in words:
        pad = tuple((c, a) for c in range(end, top) for a in range(1, s.n + 1))
        add_term(terms, word + pad, sc)
    return ModeElement(s.n, terms)


def reference_apply_b(i, s, rules, prune=True):
    """b_i by normal-ordering every slot's whole word, with no reuse between slots.

    The words are those of ``slot_words``; each is normal-ordered from
    scratch by the heap engine and read back as a state with its tail from
    the word's end on.
    """
    from braided_fock.fock import FockState
    from braided_fock.modealg import ModeElement, normal_form

    n = s.n
    out = FockState(n, s.tail_start)
    for word, sc, end in slot_words(i, s, prune):
        nf = normal_form(ModeElement.from_word(n, word, sc), rules)
        for w, coeff in nf.terms.items():
            by_mode = {}
            for m, a in w:
                by_mode.setdefault(m, []).append(a)
            cfg2 = tuple((m, tuple(ix)) for m, ix in sorted(by_mode.items()))
            out = out + FockState(n, end, {cfg2: coeff})
    return out


def reference_pair_rewrites(rules, g1, g2):
    """(h1, h2, coeff) with g1 g2 = sum coeff h1 h2 and no coeff 0, for a bad pair g1 >= g2.

    Built from ``rules.data`` (its P_bold_R and q), ``rules.swap`` and
    ``rules.variant`` alone, with no ``ExchangeRules`` method: in one mode
    the swap rule; across modes the column (a, b) of P_bold_R, then, under
    theorem21, for each depth s up to half the gap, the column (a, b) of
    1 + P_bold_R (e_(a,b) alone for the middle pair) times the weight
    (q^-2 - 1) q^(-2(s-1)), found by repeated products.  Each column is in
    row order, as the engines' table keeps it.
    """
    from braided_fock.coeff import LaurentPoly

    (m1, a1), (m2, a2) = g1, g2
    if m1 == m2:
        c = rules.swap.coeff[(a1, a2)] if a1 != a2 else 0
        return [((m1, a2), (m1, a1), c)] if c else []
    column = {row: c for (row, col), c in rules.data.P_bold_R().entries.items()
              if col == (a1, a2)}
    out = [((m2, c), (m1, d), k) for (c, d), k in sorted(column.items())]
    if rules.variant == "theorem21":
        plus = dict(column)
        plus[(a1, a2)] = plus.get((a1, a2), LaurentPoly.zero()) + LaurentPoly.one()
        qinv = rules.data.q.unit_inverse()
        weight = qinv * qinv - LaurentPoly.one()
        for s in range(1, (m1 - m2) // 2 + 1):
            if s > 1:
                weight = weight * qinv * qinv
            if 2 * s == m1 - m2:
                out.append(((m2 + s, a1), (m2 + s, a2), weight))
            else:
                out += [((m2 + s, c), (m1 - s, d), k * weight) for (c, d), k in sorted(plus.items())]
    return [(h1, h2, k) for h1, h2, k in out if k]


def reference_normal_form(x, rules):
    """Normal form by plain recursive leftmost rewriting, memoised per word.

    Works on (mode, index) words directly: no heap, no coding of words and
    no state carried between words.  Reads only the rule data, through
    ``reference_pair_rewrites``.
    """
    from braided_fock.modealg import ModeElement

    memo = {}

    def accumulate(out, word, coeff):
        total = out[word] + coeff if word in out else coeff
        if total:
            out[word] = total
        else:
            del out[word]

    def reduce(word):
        if word in memo:
            return memo[word]
        p = next((t for t in range(len(word) - 1) if word[t] >= word[t + 1]), None)
        if p is None:
            memo[word] = {word: 1}
            return memo[word]
        out = {}
        for h1, h2, k in reference_pair_rewrites(rules, word[p], word[p + 1]):
            for w, c in reduce(word[:p] + (h1, h2) + word[p + 2:]).items():
                accumulate(out, w, k * c)
        memo[word] = out
        return out

    out = {}
    for word, coeff in x.terms.items():
        for w, c in reduce(tuple(word)).items():
            accumulate(out, w, coeff * c)
    return ModeElement(x.n, out)


def reference_canonical(n, parts, fallback_tail):
    """(tail_start, terms) of the canonical state of a sum, from sets of generators.

    Each part is (tail_start, {config: coeff}).  Every term is read as the
    set of its (mode, index) generators, with its tail written out up to the
    largest tail start E, and like sets add.  The canonical tail is the least
    t such that every surviving set holds all of modes t..E-1; each set is
    read back as its nonempty columns below t.  No surviving set gives
    (fallback_tail, {}).
    """
    end = max(t for t, _ in parts)
    sums = {}
    for t, terms in parts:
        for cfg, c in terms.items():
            gens = {(m, a) for m, ix in cfg for a in ix}
            gens |= {(m, a) for m in range(t, end) for a in range(1, n + 1)}
            key = frozenset(gens)
            sums[key] = sums[key] + c if key in sums else c
    sums = {g: c for g, c in sums.items() if c}
    if not sums:
        return fallback_tail, {}
    t = end
    while all({(t - 1, a) for a in range(1, n + 1)} <= g for g in sums):
        t -= 1
    terms = {}
    for g, c in sums.items():
        modes = sorted({m for m, _ in g if m < t})
        terms[tuple((m, tuple(sorted(a for k, a in g if k == m))) for m in modes)] = c
    return t, terms


def insertion_normal_form(x, rules, budget=None):
    """Normal form of a free element by the insertion engine, as ``fock`` runs it.

    x is folded into ``vacuum(n, T)``, T one above x's top mode, by
    ``fock.multiply_left``; no rewrite reaches above the mode it rewrites, so
    each configuration, with the full columns from its ``tail_start`` up to
    T - 1, is one word of the normal form.  T is read off well-formed
    generators only, so that ``multiply_left`` rejects the others itself.
    """
    from braided_fock.fock import multiply_left, vacuum
    from braided_fock.modealg import ModeElement

    n = x.n
    T = 1 + max([g[0] for w in x.terms for g in w if type(g) is tuple and len(g) == 2
                 and type(g[0]) is int], default=-1)
    s = multiply_left(x, vacuum(n, T), rules, budget)
    full = tuple((m, a) for m in range(s.tail_start, T) for a in range(1, n + 1))
    return ModeElement(n, {tuple((m, a) for m, ix in cfg for a in ix) + full: c
                           for cfg, c in s.terms.items()})


def engine_normal_form(x, rules, strategy, budget=None):
    """``normal_form`` in the order ``strategy``, or, for "insertion", ``insertion_normal_form``."""
    from braided_fock.modealg import normal_form

    if strategy == "insertion":
        return insertion_normal_form(x, rules, budget)
    return normal_form(x, rules, strategy, budget)


def window_commutator(i, j, n, W, rules=None):
    """[b_i, b_-j] on the vacuum with no pruning, slots in columns [-W, W + max(i, j)].

    Returns (scalar, state) as ``commutator_on_vacuum`` does, by four
    ``apply_b`` calls; ``rules`` defaults to the standard ones.  The lowered
    vacuum has columns -j..-1, so the window must reach them: W >= j.
    """
    from braided_fock.fock import apply_b, scalar_part, vacuum
    from braided_fock.modealg import standard_rules

    assert W >= j, "a window of %d columns misses the columns -%d..-1" % (W, j)
    kw = {"rules": rules or standard_rules(n), "prune": False,
          "columns": range(-W, W + max(i, j) + 1)}
    v = vacuum(n, 0)
    result = apply_b(i, apply_b(-j, v, **kw), **kw) - apply_b(-j, apply_b(i, v, **kw), **kw)
    return scalar_part(result), result


def reference_column_piece(n, column, rules=None):
    """b_2 on the part of b_-2 omega from the slots in one column, by two ``apply_b`` calls.

    Each call decodes its result to a canonical state; returns the scalar
    part, or None when deviations remain.
    """
    from braided_fock.fock import apply_b, scalar_part, vacuum
    from braided_fock.modealg import standard_rules

    rules = rules or standard_rules(n)
    low = apply_b(-2, vacuum(n, 0), rules=rules, columns=(column,))
    return scalar_part(apply_b(2, low, rules=rules))


def classical_form(s, end):
    """The state s at q = 1: {frozenset of (mode, index): int}, tails spelled up to ``end``.

    Each configuration becomes the set of its generators, with the full
    columns from ``s.tail_start`` up to ``end`` - 1 written out, and each
    coefficient its value at q = 1; values 0 are dropped.
    """
    assert s.tail_start <= end
    out = {}
    for cfg, c in s.terms.items():
        gens = frozenset([(m, a) for m, ix in cfg for a in ix]
                         + [(m, a) for m in range(s.tail_start, end) for a in range(1, s.n + 1)])
        value = reference_evaluate(c, 1)
        if value:
            out[gens] = value
    return out


def classical_shift(i, s):
    """b_i on the state s at q = 1, as ``classical_form`` with ``end`` = s.tail_start + |i|.

    At q = 1 the standard R is the identity and every correction weight
    (q^-2 - 1) q^(-2(s-1)) vanishes, so theta^(i)_a theta^(j)_b =
    -theta^(j)_b theta^(i)_a for every pair: the mode algebra is the
    Grassmann algebra, a normal word is a set of generators and b_i is the
    derivation that shifts one generator by i modes.  The shifted word is 0
    when its generator is already present (the tail counts as present), and
    otherwise sorting it back passes the generator over every one strictly
    between its old and new places, one sign each.  The tail columns from
    ``end`` on would land in the tail, so only columns below ``end`` are slots.
    """
    end = s.tail_start + abs(i)
    out = {}
    for gens, value in classical_form(s, end).items():
        for m, a in gens:
            new = (m + i, a)
            if new in gens or new[0] >= end:
                continue
            lo, hi = min(new, (m, a)), max(new, (m, a))
            passed = sum(1 for g in gens if lo < g < hi)
            key = gens - {(m, a)} | {new}
            out[key] = out.get(key, 0) + (-1) ** passed * value
    return {k: v for k, v in out.items() if v}


def maya_diagrams(s):
    """The state s in the Maya labelling: {(occupied below 0, free from 0 on): coefficient}.

    theta^(m)_a is labelled k = n m + a - 1, so the vacuum occupies every
    k >= 0 and a configuration is a Maya diagram: a set of labels holding
    every large one and no very negative one, which the occupied negative
    labels and the free nonnegative ones fix.  The labelling is this code's
    picture of the Fock space, not the paper's.
    """
    return {_maya({s.n * m + a - 1 for m, ix in cfg for a in ix}, s.n * s.tail_start): c
            for cfg, c in s.terms.items()}


def _maya(occupied, top):
    """The key of ``maya_diagrams`` for the labels ``occupied`` and every label from ``top`` on."""
    occupied = set(occupied) | set(range(top, 0))
    return (frozenset(k for k in occupied if k < 0),
            frozenset(k for k in range(top) if k not in occupied))


def ribbon_b(sign, s):
    """b_1 (``sign`` 1) or b_-1 (``sign`` -1) on the state s, as ``maya_diagrams`` gives it.

    Each occupied label k moves to k + sign n when that label is free, with
    weight (-q^-1)^h for the h occupied labels strictly between the two: in
    the partition picture, one n-ribbon added or removed, weighted by its
    height.  That b_1 and b_-1 act so is this code's finding, checked
    against the engine in tests/test_fock.py, not a claim of the paper; the
    rule shares no code with the rewriting engine.
    """
    from braided_fock.coeff import LaurentPoly

    n = s.n
    # labels from top on, and their targets, stay occupied
    top = n * s.tail_start + n
    out = {}
    for cfg, c in s.terms.items():
        occupied = {n * m + a - 1 for m, ix in cfg for a in ix} | set(range(n * s.tail_start, top))
        for k in occupied:
            t = k + sign * n
            if t in occupied or t >= top:
                continue
            h = sum(1 for x in occupied if min(k, t) < x < max(k, t))
            diagram = _maya(occupied - {k} | {t}, top)
            out[diagram] = out.get(diagram, 0) + c * LaurentPoly.q_power(-h, (-1) ** h)
    return {k: c for k, c in out.items() if c}
