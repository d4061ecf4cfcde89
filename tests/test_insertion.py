"""The insertion engine: integer-image coefficients, their width and the zero test.

Every test compares ``modealg.insertion_fold`` (called directly or through
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

from braided_fock import modealg
from braided_fock.coeff import LaurentPoly
from braided_fock.fock import apply_b, commutator_on_vacuum, vacuum
from braided_fock.modealg import (VARIANTS, ExchangeRules, ModeElement, insertion_fold,
                                  normal_form, standard_rules)
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
    bits = modealg._FOLD_BITS
    fold = ([(g[0] - lo) * base + g[1]], start, (), modealg.fold_image(ONE, bits))
    out, stats, bits = insertion_fold(rules, [fold], lo, None, bits)
    terms = {}
    for mask, c in out.items():
        codes = [x for x in range(mask.bit_length()) if mask >> x & 1]
        terms[tuple((lo + x // base, x % base) for x in codes)] = modealg.unfold_image(c, bits)
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
    highest mode.
    """
    lo, hi = min(m for m, _ in gens), max(m for m, _ in gens)
    window = list(itertools.product(range(lo, hi + 1), range(1, n + 1)))
    counts = sorted(a for _, a in gens)
    total = sum(m for m, _ in gens)
    return any(sorted(a for _, a in word) == counts and sum(m for m, _ in word) == total
               for word in itertools.combinations(window, len(gens)))


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


def _fold_calls(monkeypatch):
    """The insertion_fold calls of ``fock`` from now on, and the runs they make.

    Returns (runs, calls): the width of every run of a fold, and for every
    call (width given, width returned, slots, misses, zeros, depth); the
    width given is None for LaurentPoly coefficients.
    """
    runs, calls = [], []
    fold, run = modealg.insertion_fold, modealg._fold_at

    def recording(rules, folds, lo, budget, bits):
        out, stats, width = fold(rules, folds, lo, budget, bits)
        calls.append((bits, width, sum(len(slots) for _, _, slots, _ in folds),
                      stats.expansions, stats.zeros, stats.depth))
        return out, stats, width

    def running(rules, folds, lo, budget, bits):
        runs.append(bits)
        return run(rules, folds, lo, budget, bits)

    monkeypatch.setattr("braided_fock.fock.insertion_fold", recording)
    monkeypatch.setattr(modealg, "_fold_at", running)
    return runs, calls


def test_forced_width_restart_gives_equal_results(monkeypatch):
    # from 2 bits every coefficient bound of 2 or more widens a fold; each
    # fold widens alone, from the width its coefficients come at, and the
    # result, the pruned log and every fold's counters are the default width's
    rules = standard_rules(3)
    runs, calls = _fold_calls(monkeypatch)
    log = []
    want = commutator_on_vacuum(4, 4, 3, rules=rules, log_pruned=log)
    once = [c[2:] for c in calls]
    bits = modealg._FOLD_BITS
    assert [c[:2] for c in calls] == [(None, bits), (bits, bits)] * 2
    monkeypatch.setattr(modealg, "_FOLD_BITS", 2)
    runs.clear()
    calls.clear()
    log_2 = []
    got = commutator_on_vacuum(4, 4, 3, rules=rules, log_pruned=log_2)
    assert got[0] == want[0] and got[1] == want[1] and log_2 == log
    assert [c[2:] for c in calls] == once and max(c[1] for c in calls) >= 8
    # each fold runs once at each width from its start to the one it returns at
    widths = []
    for given, width, *_ in calls:
        b = max(given or 0, 2)
        while b <= width:
            widths.append(b)
            b *= 2
    assert runs == widths and len(runs) > len(calls)


def test_default_width_does_not_restart(monkeypatch):
    # no fold of the fock_ladder range widens, and the engine's work there is
    # pinned: slots handed to the folds, memo misses, misses proved 0 and
    # the deepest nesting
    runs, calls = _fold_calls(monkeypatch)
    for n, top in ((2, 6), (3, 5), (4, 4)):
        for i in range(1, top + 1):
            commutator_on_vacuum(i, i, n)
    assert len(calls) == 60 and runs == [modealg._FOLD_BITS] * 60
    assert [sum(c[k] for c in calls) for k in (2, 3, 4)] == [576, 2625, 831]
    assert max(c[5] for c in calls) == 5


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
    offsets = [d for rule in rules.images[modealg._FOLD_BITS].values() for *_, d in rule]
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
