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
    """Dense Fraction matrix of a Laurent-coefficient TensorOp at q = q0."""
    idx = multi_indices(op.n, op.legs)
    pos = {ix: k for k, ix in enumerate(idx)}
    d = len(idx)
    mat = [[Fraction(0)] * d for _ in range(d)]
    for (r, c), coeff in op.entries.items():
        mat[pos[r]][pos[c]] = coeff.evaluate(q0)
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


def reference_apply_b(i, s, rules, prune=True):
    """b_i by normal-ordering every slot's whole word, with no reuse between slots.

    Each slot flattens the explicit columns and the tail through the target
    mode into one word, shifts the slot's generator and normal-orders the
    word from scratch.  A slot is skipped, when ``prune`` is set, if every
    column from the target mode up to (not including) the slot's column, or
    past the slot's column up to the target mode, is full or in the tail.
    """
    from braided_fock.fock import FockState
    from braided_fock.modealg import ModeElement, normal_form

    n = s.n
    full = tuple(range(1, n + 1))
    out = FockState(n, s.tail_start)
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
                nf = normal_form(ModeElement.from_word(n, word, sc), rules)
                for w, coeff in nf.terms.items():
                    by_mode = {}
                    for m, a in w:
                        by_mode.setdefault(m, []).append(a)
                    cfg2 = tuple((m, tuple(ix)) for m, ix in sorted(by_mode.items()))
                    out = out + FockState(n, end, {cfg2: coeff})
    return out


def reference_pair_rewrites(rules, g1, g2):
    """(h1, h2, coeff) with g1 g2 = sum coeff h1 h2, for a bad pair g1 >= g2.

    Reads only the rule data, ``rules.swap`` and ``rules.cross_expansion``.
    """
    (m1, a1), (m2, a2) = g1, g2
    if m1 == m2:
        return [] if a1 == a2 else [((m1, a2), (m1, a1), rules.swap.coeff[(a1, a2)])]
    return [((m2 + dm1, c), (m2 + dm2, d), k)
            for dm1, dm2, c, d, k in rules.cross_expansion(m1 - m2, a1, a2)]


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
