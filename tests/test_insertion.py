"""The insertion engine: integer-image coefficients, their width and the zero test.

Every test compares ``fock.insertion_fold`` (called directly or through
``fock``) with an oracle that shares none of the code under test: the heap
engine ``normal_form``, the closed form i * sum_{s<n} q^(-2is) of
[b_i, b_-i], or the unpruned slot window, which skips no slot.
"""

import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from braided_fock import fock
from braided_fock.coeff import LaurentPoly
from braided_fock.fock import FockState, apply_b, commutator_on_vacuum, insertion_fold, vacuum
from braided_fock.modealg import VARIANTS, ExchangeRules, ModeElement, normal_form, standard_rules
from braided_fock.rmatrix import HeckeData, standard_sln_R
from braided_fock.tensor import TensorOp
from braided_fock.wedge import NonPBWInputError
from helpers import insertion_normal_form, window_commutator

DATA = pathlib.Path(__file__).parent / "data"
ONE = LaurentPoly.one()


def insert(rules, g, word):
    """NF(g . word) for a normal ``word`` by one insertion_fold call: (element, stats)."""
    base = rules.n + 1
    lo = min(m for m, _ in (g,) + word)
    start = sum(1 << (m - lo) * base + a for m, a in word)
    bits = fock._FOLD_BITS
    fold = ([(g[0] - lo) * base + g[1]], start, (), fock.fold_image(ONE, bits))
    out, stats, bits = insertion_fold(rules, [fold], lo, None, bits)
    terms = {}
    for mask, c in out.items():
        codes = [x for x in range(mask.bit_length()) if mask >> x & 1]
        terms[tuple((lo + x // base, x % base) for x in codes)] = fock.unfold_image(c, bits)
    return ModeElement(rules.n, terms), stats


def heap(rules, g, word):
    return normal_form(ModeElement.from_word(rules.n, (g,) + word), rules)


def window_word(bits, n, bottom):
    """The normal word with generator k of the window at bit k, lowest first."""
    return tuple((bottom + k // n, 1 + k % n) for k in range(bits.bit_length()) if bits >> k & 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_insertion_matches_heap_on_random_windows(data):
    n = data.draw(st.integers(2, 4))
    rules = standard_rules(n, data.draw(st.sampled_from(VARIANTS)))
    bottom = data.draw(st.integers(-3, 3))
    K = data.draw(st.integers(0, 3))
    word = window_word(data.draw(st.integers(0, (1 << (K + 1) * n) - 1)), n, bottom)
    g = (data.draw(st.integers(bottom, bottom + K)), data.draw(st.integers(1, n)))
    if data.draw(st.booleans()):
        # g already in the word: the shape the zero test runs on
        word = tuple(sorted(set(word) | {g}))
    got, stats = insert(rules, g, word)
    assert got == heap(rules, g, word)
    if stats.zeros and not stats.expansions:
        assert not got


def normal_word_exists(gens, n):
    """Whether some normal word of the modes of ``gens`` has their index counts and mode sum.

    Tries every set of generators of the window between the lowest and the
    highest mode: a normal word holds each generator at most once, so it is
    a set of distinct modes for each index, and its mode sum is the sum of
    theirs.
    """
    lo, hi = min(m for m, _ in gens), max(m for m, _ in gens)
    sums = {0}
    for a in range(1, n + 1):
        count = sum(b == a for _, b in gens)
        modes = {sum(c) for c in itertools.combinations(range(lo, hi + 1), count)}
        sums = {t + u for t in sums for u in modes}
    return sum(m for m, _ in gens) in sums


@pytest.mark.parametrize("n, K", [(2, 2), (3, 1), (4, 1)])
def test_insertion_matches_heap_on_every_small_window(n, K):
    # every normal word of K+1 modes and every generator of the window: the
    # heap engine agrees on all of them, and where the word holds g already
    # the zero test proves g . word 0 exactly when no normal word of the
    # window has its index counts and mode sum
    rules = standard_rules(n)
    proved = 0
    for bits in range(1 << (K + 1) * n):
        word = window_word(bits, n, 0)
        for g in itertools.product(range(K + 1), range(1, n + 1)):
            got, stats = insert(rules, g, word)
            assert got == heap(rules, g, word), (g, word)
            if g in word and g > word[0]:
                # no rewrite reaches above g's mode, so the test sees the word up to it
                gens = [h for h in word if h[0] <= g[0]] + [g]
                exists = normal_word_exists(gens, n)
                assert (stats.zeros > 0 and not stats.expansions) == (not exists), (g, word)
                proved += not exists
    assert proved > 0


def _fold_calls(monkeypatch, counted=None):
    """The insertion_fold calls of ``fock`` from now on, and the runs they make.

    Returns (runs, calls): the width of every run of a fold, and for every
    call (width given, width returned, slots, misses, zeros, depth); the
    width given is None for LaurentPoly coefficients.  Each run appends to a
    list ``counted`` the misses and zeros it adds to its call's counters and
    the depth they hold after it.
    """
    runs, calls = [], []
    fold, run = fock.insertion_fold, fock._fold_at

    def recording(rules, folds, lo, budget, bits):
        out, stats, width = fold(rules, folds, lo, budget, bits)
        calls.append((bits, width, sum(len(slots) for _, _, slots, _ in folds),
                      stats.expansions, stats.zeros, stats.depth))
        return out, stats, width

    def running(rules, folds, lo, budget, bits, stats):
        runs.append(bits)
        misses, zeros = stats.expansions, stats.zeros
        out = run(rules, folds, lo, budget, bits, stats)
        if counted is not None:
            counted.append((stats.expansions - misses, stats.zeros - zeros, stats.depth))
        return out

    monkeypatch.setattr("braided_fock.fock.insertion_fold", recording)
    monkeypatch.setattr(fock, "_fold_at", running)
    return runs, calls


def test_forced_width_restart_gives_equal_results(monkeypatch):
    # from 2 bits every coefficient bound of 2 or more widens a fold; each
    # fold widens alone, from the width its coefficients come at, and the
    # result and the pruned log are the default width's
    rules = standard_rules(3)
    counted = []
    runs, calls = _fold_calls(monkeypatch, counted)
    log = []
    want = commutator_on_vacuum(4, 4, 3, rules=rules, log_pruned=log)
    once = [c[2:] for c in calls]
    bits = fock._FOLD_BITS
    assert [c[:2] for c in calls] == [(None, bits), (bits, bits)] * 2
    assert counted == [c[3:] for c in calls]
    monkeypatch.setattr(fock, "_FOLD_BITS", 2)
    runs.clear()
    calls.clear()
    counted.clear()
    log_2 = []
    got = commutator_on_vacuum(4, 4, 3, rules=rules, log_pruned=log_2)
    assert got[0] == want[0] and got[1] == want[1] and log_2 == log
    assert max(c[1] for c in calls) >= 8
    # each fold runs once at each width from its start to the one it returns
    # at, and each run does the default width's work: its misses, zeros and
    # depth; a call's counters sum the misses and zeros of its runs
    widths = []
    for (given, width, *counters), (slots, *default) in zip(calls, once):
        b = max(given or 0, 2)
        first = len(widths)
        while b <= width:
            widths.append(b)
            b *= 2
        mine = counted[first:len(widths)]
        assert mine == [tuple(default)] * len(mine)
        assert counters == [slots, sum(r[0] for r in mine), sum(r[1] for r in mine), default[2]]
    assert runs == widths and len(runs) > len(calls)


def test_default_width_does_not_restart(monkeypatch):
    # no fold of the fock_ladder range widens, and the engine's work there is
    # pinned: slots handed to the folds, memo misses, misses proved 0 and
    # the deepest nesting
    runs, calls = _fold_calls(monkeypatch)
    for n, top in ((2, 6), (3, 5), (4, 4)):
        for i in range(1, top + 1):
            commutator_on_vacuum(i, i, n)
    assert len(calls) == 60 and runs == [fock._FOLD_BITS] * 60
    assert [sum(c[k] for c in calls) for k in (2, 3, 4)] == [576, 2625, 831]
    assert max(c[5] for c in calls) == 5


def test_counting_test_drops_exactly_the_raised_slots_with_no_normal_word(monkeypatch):
    # b_i, i > 0, on random states: a slot that the column rule keeps reaches
    # the fold unless its suffix holds the shifted generator g above the
    # suffix's lowest generator and no normal word of the modes from that
    # generator's up to g's has the counts and mode sum of g and the suffix
    # up to g's mode; the window must start at the suffix, not at the floor
    rng = random.Random(24)
    handed = {}

    def recording(rules, folds, lo, budget, bits):
        base = rules.n + 1
        for gens, _, slots, _ in folds:
            word = tuple((lo + x // base, x % base) for x in gens)
            handed[word] = sorted(p for p, _, _ in slots)
        return insertion_fold(rules, folds, lo, budget, bits)

    monkeypatch.setattr("braided_fock.fock.insertion_fold", recording)
    dropped = 0
    for _ in range(300):
        n, T, i = rng.randint(2, 4), rng.randint(-2, 2), rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            cfg = tuple((m, tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))))
                        for m in sorted(rng.sample(range(T - 4, T), rng.randint(1, 4))))
            terms[cfg] = ONE
        s = FockState(n, T, terms)
        full = tuple(range(1, n + 1))
        want = {}
        for cfg in s.terms:
            cols = dict(cfg)
            word = tuple((m, a) for m, ix in cfg for a in ix)
            kept = []
            for p, (j, a) in enumerate(word):
                g = (j + i, a)
                if all(cols.get(c) == full or c >= s.tail_start for c in range(j + 1, g[0] + 1)):
                    continue  # the column rule
                suffix = [h for h in word[p + 1:] if h[0] <= g[0]] + [
                    (c, b) for c in range(s.tail_start, g[0] + 1) for b in full]
                if g in suffix and g > suffix[0] and not normal_word_exists(suffix + [g], n):
                    dropped += 1
                    continue
                kept.append(p)
            if kept:
                want[word] = kept
        handed.clear()
        apply_b(i, s)
        assert handed == want, (n, i, s)
    assert dropped > 0


def twist(n):
    """The standard R with q^(a+2b) at ((a,b),(a,b)) and q^-(a+2b) at ((b,a),(b,a)), a < b."""
    entries = dict(standard_sln_R(n).R.entries)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            entries[(a, b), (a, b)] = LaurentPoly.q_power(a + 2 * b)
            entries[(b, a), (b, a)] = LaurentPoly.q_power(-a - 2 * b)
    return HeckeData(n, TensorOp(n, 2, entries))


@pytest.mark.parametrize("n", [2, 3])
def test_twist_commutators_take_the_closed_form(n):
    rules = ExchangeRules(twist(n))
    for i in (1, 2, 3):
        scalar, _ = commutator_on_vacuum(i, i, n, rules=rules)
        assert scalar is not None and scalar.terms == {-2 * i * s: i for s in range(n)}, i
    # the engine met rule coefficients with positive powers of q: up to q^4
    # at n = 2 and q^7 at n = 3
    offsets = [d for rule in rules.images[fock._FOLD_BITS].values() for *_, d in rule]
    assert max(offsets) == {2: 4, 3: 7}[n]


@pytest.mark.parametrize("n", [2, 3])
def test_twist_multiply_left_matches_heap(n):
    rules = ExchangeRules(twist(n))
    rng = random.Random(97 + n)
    for _ in range(60):
        word = tuple((rng.randint(-2, 2), rng.randint(1, n)) for _ in range(rng.randint(1, 6)))
        x = ModeElement.from_word(n, word, LaurentPoly.q_power(rng.randint(-3, 3)))
        assert insertion_normal_form(x, rules) == normal_form(x, rules), word


@pytest.mark.parametrize("n", [2, 3])
def test_twist_apply_b_matches_unpruned_window(n):
    # b_i on a lowered vacuum, pruned against the unpruned slot window
    rules = ExchangeRules(twist(n))
    s = apply_b(-2, vacuum(n, 0), rules)
    for i in (-1, 1, 2):
        assert apply_b(i, s, rules) == apply_b(i, s, rules, prune=False, columns=range(-6, 6))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("twisted", [False, True])
def test_chained_commutator_matches_unpruned_window(n, twisted):
    # both products of the commutator chained on masks and images, pruned,
    # against four unpruned apply_b calls over a window, off the diagonal too
    rules = ExchangeRules(twist(n)) if twisted else standard_rules(n)
    for i, j in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (1, 3), (3, 2)):
        assert commutator_on_vacuum(i, j, n, rules) == window_commutator(i, j, n, j + 1, rules)


def _rules_objects():
    out = [(name, standard_rules(n, variant)) for n in (2, 3, 4) for variant in VARIANTS
           for name in ["standard n=%d %s" % (n, variant)]]
    out += [("twist n=%d" % n, ExchangeRules(twist(n))) for n in (2, 3)]
    for name in ("diagonal_5q_n2.json", "twist_3000_n3.json"):
        op = TensorOp.from_json(json.loads((DATA / name).read_text()))
        out.append((name, ExchangeRules(HeckeData(op.n, op))))
    return out


@pytest.mark.parametrize("name, rules", _rules_objects())
def test_every_rewrite_keeps_indices_mode_sum_and_range(name, rules):
    # what the zero test rests on, read off the rule data both engines use
    base = rules.n + 1
    for gap in range(6):
        for a in range(1, base):
            for b in range(1, base):
                if gap == 0 and a <= b:
                    continue
                x1, x2 = gap * base + a, b
                for o1, o2, _ in rules.pair_rule((x1 - x2, x2)):
                    (m1, c), (m2, d) = divmod(x2 + o1, base), divmod(x2 + o2, base)
                    assert sorted((c, d)) == sorted((a, b)), (name, gap, a, b)
                    assert m1 + m2 == gap and 0 <= min(m1, m2) and max(m1, m2) <= gap


def test_rules_refuse_an_r_that_moves_indices():
    # no rules object can break the zero test's premise: an R whose PR sends
    # e_(1,2) onto e_(1,1) has relations that are not PBW, and ExchangeRules
    # derives its swap rules first
    entries = dict(standard_sln_R(2).R.entries)
    entries[(2, 2), (1, 2)] = ONE
    with pytest.raises(NonPBWInputError):
        ExchangeRules(HeckeData(2, TensorOp(2, 2, entries)))
