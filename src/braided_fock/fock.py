"""Semi-infinite states near the vacuum and the Heisenberg shift operators.

The vacuum is the ordered product of full columns omega^k = theta^(k)_1 ...
theta^(k)_n for k >= 0.  A state is a linear combination of configurations
that differ from the vacuum in finitely many columns: explicitly stored
columns below ``tail_start`` (each a strictly increasing, possibly partial,
index tuple) and implicit full columns from ``tail_start`` on.  Canonically,
``tail_start`` is as small as the content allows and empty columns are not
stored, so equal states compare equal as dictionaries.

The shift operator b_i replaces one generator theta^(j)_a by theta^(j+i)_a,
summed over every generator slot as a derivation, with the whole word then
normal-ordered.  The infinite sum over tail columns is cut down by a
conservative vanishing test: a slot shifted from column j to mode k is
dropped when every column between k and j (including k, excluding j) is
full, because the shifted generator then reorders onto a full column and a
product of n+1 generators of one mode vanishes; correction terms produced on
the way live strictly between k and j and die against the same full columns.
Every pruned slot can be logged, and pruning can be switched off entirely
inside a finite slot window for oracle comparisons.

``apply_b`` pads the word of every unpruned slot of every term with full
columns up to one common end, the materialised tail plus i for a raising
shift, so that every shifted slot lands below it, and normal-orders all of
them in one insertion call (``modealg``), whose memo the slots share.
``multiply_left`` does the same with the end above every mode it inserts.
Truncation keeps this local: every rewrite keeps both output modes inside
the mode range of the pair it rewrites, so inserting a generator never
touches the columns above its mode, and the memo keys each insertion on the
columns at or below it.  The full columns above a slot stay in the normal
suffix the fold starts from.
"""

from __future__ import annotations

from .coeff import LaurentPoly, _json_exponent, add_term, braided_int_scalar, strict_int
from .modealg import ExchangeRules, ModeElement, check_indices, normal_form, standard_rules


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
        tail_start = strict_int(tail_start, "tail_start")
        raw = {}
        if terms:
            for cfg, c in terms.items():
                cols = {strict_int(m, "mode"): tuple([strict_int(a, "index") for a in ix])
                        for m, ix in cfg if len(ix)}
                if len({m for m, _ in cfg}) < len(cfg):
                    raise ValueError("configuration %r lists a mode twice" % (cfg,))
                if not c:
                    continue
                for ix in cols.values():
                    if not all(1 <= a <= n for a in ix) or any(
                        x >= y for x, y in zip(ix, ix[1:])
                    ):
                        raise ValueError(
                            "column content must be strictly increasing indices in 1..n"
                        )
                if any(m >= tail_start for m in cols):
                    raise ValueError("explicit column inside the implicit tail")
                add_term(raw, _strip(cols, tail_start, n), c)
        other = _assemble(n, raw, tail_start)
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
        raw = {}
        for s in (self, other):
            for key, c in _to_raw(s).items():
                add_term(raw, key, c)
        return _assemble(self.n, raw, min(self.tail_start, other.tail_start))

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


def _full(n: int):
    return tuple(range(1, n + 1))


def _strip(cols: dict, window_end: int, n: int):
    """Canonical (tail_start, config) for explicit columns below window_end."""
    full = _full(n)
    t = window_end
    while cols.get(t - 1) == full:
        t -= 1
    cfg = tuple(sorted((m, ix) for m, ix in cols.items() if m < t and ix))
    return t, cfg


def _to_raw(s: FockState) -> dict:
    raw = {}
    for cfg, c in s.terms.items():
        add_term(raw, _strip(dict(cfg), s.tail_start, s.n), c)
    return raw


def _make_state(n: int, tail_start: int, terms: dict) -> FockState:
    s = FockState.__new__(FockState)
    s.n = n
    s.tail_start = tail_start
    s.terms = terms
    return s


def _assemble(n: int, raw: dict, fallback_tail: int) -> FockState:
    """Build a canonical state from {(per-term tail, config): coeff}."""
    if not raw:
        return _make_state(n, fallback_tail, {})
    full = _full(n)
    T = max(t for t, _ in raw)
    terms = {}
    for (t, cfg), c in raw.items():
        # config tuples from lists, as in apply_b
        add_term(terms, tuple(sorted(list(cfg) + [(m, full) for m in range(t, T)])), c)
    if not terms:
        return _make_state(n, fallback_tail, {})
    return _make_state(n, T, terms)


def _word_to_cols(word) -> dict:
    cols = {}
    for m, a in word:
        cols.setdefault(m, []).append(a)
    return {m: tuple(v) for m, v in cols.items()}


def _flatten(cols: dict, gens: dict):
    """Word of all generators in order; also the start offset of each column.

    Generators are taken from ``gens``, so words flattened with one map share them.
    """
    word = []
    offsets = {}
    for m in sorted(cols):
        offsets[m] = len(word)
        word.extend([gens.setdefault((m, a), (m, a)) for a in cols[m]])
    return word, offsets


def _normal_order(n: int, words: dict, W: int, tail_start: int, rules: ExchangeRules,
                  budget) -> FockState:
    """Normal-order ``words`` in one insertion call and read them back as a state.

    Every word spells its columns up to W - 1, with the tail implicit from W on.
    """
    x = ModeElement(n)
    x.terms = words  # the words are not copied
    nf = normal_form(x, rules, strategy="insertion", budget=budget)
    raw = {}
    for w, c in nf.terms.items():
        add_term(raw, _strip(_word_to_cols(w), W, n), c)
    return _assemble(n, raw, tail_start)


def multiply_left(x: ModeElement, s: FockState, rules: ExchangeRules = None,
                  budget=None) -> FockState:
    """Normal-order a mode element against a state from the left, in one call."""
    for xword in x.terms:
        check_indices(xword, s.n)
    rules = rules or standard_rules(s.n)
    full = _full(s.n)
    T = s.tail_start
    W = max([T] + [m + 1 for xword in x.terms for m, _ in xword])
    words = {}
    for cfg, sc in s.terms.items():
        flat, _ = _flatten({**dict(cfg), **dict.fromkeys(range(T, W), full)}, {})
        for xword, xc in x.terms.items():
            add_term(words, tuple(xword) + tuple(flat), sc * xc)
    return _normal_order(s.n, words, W, T, rules, budget)


def _prunable(cols: dict, tail_from: int, n: int, j: int, k: int) -> bool:
    """True when the shifted generator provably dies against full columns."""
    rng = range(k, j) if k < j else range(j + 1, k + 1)
    for c in rng:
        if c >= tail_from:
            continue
        if len(cols.get(c, ())) != n:
            return False
    return True


def apply_b(i: int, s: FockState, rules: ExchangeRules = None, prune: bool = True,
            slot_window=None, columns=None, log_pruned=None, budget=None) -> FockState:
    """The shift derivation b_i applied to a state.

    ``columns`` restricts the generator slots to the given columns (a
    container such as a tuple or a range) and materializes the tail through
    the largest of them; with a window of columns and ``prune=False`` this is
    the brute-force oracle.  ``slot_window=(lo, hi)`` is shorthand for
    ``columns=range(lo, hi + 1)``.  Pruned slots are appended to
    ``log_pruned`` when a list is supplied.
    """
    if i == 0:
        raise ValueError("shift must be nonzero")
    if slot_window is not None:
        columns = range(slot_window[0], slot_window[1] + 1)
    if columns is not None and not columns:
        return _make_state(s.n, s.tail_start, {})
    rules = rules or standard_rules(s.n)
    n = s.n
    full = _full(n)
    T = s.tail_start
    if columns is not None:
        T_impl = max(T, max(columns) + 1)
    elif i < 0:
        T_impl = T - i
    else:
        T_impl = T
    # every shifted slot lands below W, so one strip maps each output back
    W = T_impl + max(i, 0)
    words = {}
    gens = {}
    # in key order, so the pruned-slot log does not depend on how s was built
    for cfg, sc in sorted(s.terms.items()):
        cols = dict(cfg)
        for c in range(T, T_impl):
            cols[c] = full
        flat, offsets = _flatten({**cols, **dict.fromkeys(range(T_impl, W), full)}, gens)
        for j in sorted(cols):
            if columns is not None and j not in columns:
                continue
            for pos, a in enumerate(cols[j]):
                k = j + i
                if prune and _prunable(cols, T_impl, n, j, k):
                    if log_pruned is not None:
                        log_pruned.append(
                            {"column": j, "index": a, "target_mode": k, "term": list(map(list, cfg))}
                        )
                    continue
                word = flat[:]
                word[offsets[j] + pos] = gens.setdefault((k, a), (k, a))
                add_term(words, tuple(word), sc)
    return _normal_order(n, words, W, T, rules, budget)


def translate(s: FockState, d: int) -> FockState:
    """Shift every mode (explicit and tail) by d."""
    terms = {tuple((m + d, ix) for m, ix in cfg): c for cfg, c in s.terms.items()}
    return FockState(s.n, s.tail_start + d, terms)


def scalar_part(s: FockState, base: int = 0):
    """The coefficient c with s = c * vacuum(n, base), or None if deviations remain."""
    if not s.terms:
        return LaurentPoly.zero()
    if s.tail_start == base and set(s.terms) == {()}:
        return s.terms[()]
    return None


def commutator_on_vacuum(i: int, j: int, n: int, rules: ExchangeRules = None,
                         window=None, log_pruned=None, budget=None):
    """(b_i b_{-j} - b_{-j} b_i) applied to the vacuum.

    Returns (scalar, state): ``scalar`` is the Laurent coefficient when the
    result is a multiple of the vacuum and None otherwise.  ``window=W`` runs
    the computation without pruning, with slots restricted to columns in
    [-W, W + max(i, j)].
    """
    if not (i >= 1 and j >= 1):
        raise ValueError("shifts i and j must be positive")
    rules = rules or standard_rules(n)
    v = vacuum(n, 0)
    kw = {"rules": rules, "budget": budget}
    if window is not None:
        kw["prune"] = False
        kw["columns"] = range(-window, window + max(i, j) + 1)
    else:
        kw["log_pruned"] = log_pruned
    first = apply_b(i, apply_b(-j, v, **kw), **kw)
    second = apply_b(-j, apply_b(i, v, **kw), **kw)
    result = first - second
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


def heisenberg_matches(scalar: LaurentPoly, i: int, j: int, n: int) -> bool:
    """Denominator-cleared Heisenberg relation test: the two sides agree exactly."""
    lhs, rhs = heisenberg_sides(scalar, i, j, n)
    return lhs == rhs


def _column_piece(n: int, column: int, rules: ExchangeRules = None) -> LaurentPoly:
    """b_2 applied to the part of b_{-2} omega from slots in one column."""
    rules = rules or standard_rules(n)
    s = apply_b(-2, vacuum(n, 0), rules=rules, columns=(column,))
    c = scalar_part(apply_b(2, s, rules=rules))
    if c is None:
        raise ArithmeticError(
            "column-%d contribution is not a multiple of the vacuum" % column)
    return c


def lemma33_coefficient(n: int, rules: ExchangeRules = None) -> LaurentPoly:
    """Engine value of the column-0 piece: b_2 applied to b_{-2} of column 0."""
    return _column_piece(n, 0, rules)


def lemma33_closed_form(n: int) -> LaurentPoly:
    """[n; q^-2] + (1 - q^-2)([n-1; q^-4] - q^(-2(n-1)) [n-1; q^-2])."""
    one = LaurentPoly.one()
    qm2 = LaurentPoly.q_power(-2)
    return braided_int_scalar(n, -2) + (one - qm2) * (
        braided_int_scalar(n - 1, -4)
        - LaurentPoly.q_power(-2 * (n - 1)) * braided_int_scalar(n - 1, -2)
    )


def lemma33_second_term(n: int, rules: ExchangeRules = None) -> LaurentPoly:
    """Engine value of the column-1 piece: b_2 applied to b_{-2} of column 1."""
    return _column_piece(n, 1, rules)


def lemma33_second_term_expected(n: int) -> LaurentPoly:
    """q^(-2(n-1)) [n; q^-2]."""
    return LaurentPoly.q_power(-2 * (n - 1)) * braided_int_scalar(n, -2)
