"""Acceptance suite: every criterion at exact (zero) tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and asserts both the mathematical statement, exactly, and the
stated runtime bound.
"""

import itertools
import math
import random
import time

import pytest

from braided_fock.coeff import LaurentPoly, braided_int_scalar
from braided_fock.fock import (
    apply_b,
    column_piece,
    commutator_on_vacuum,
    heisenberg_sides,
    lemma33_closed_form,
    lemma33_second_term_expected,
    vacuum,
)
from braided_fock.modealg import (
    ModeElement,
    check_modeind,
    check_moderel,
    normal_form,
    normal_form_stats,
    standard_rules,
    word_measure,
)
from braided_fock.rmatrix import (
    admissible_samples,
    braided_integer_bar,
    check_braid,
    check_hecke,
    check_pybe,
    check_unitarity,
    standard_sln_R,
)
from braided_fock.wedge import degree_rank, derive_wedge_rules
from helpers import engine_normal_form, reference_normal_form, window_commutator

ONE = LaurentPoly.one()


class Criterion:
    def __init__(self, label, limit_s):
        self.label = label
        self.limit = limit_s
        self.t0 = time.perf_counter()

    def done(self, ok):
        dt = time.perf_counter() - self.t0
        print("%s criterion %s  (%.2fs < %.0fs)" % ("PASS" if ok else "FAIL",
                                                    self.label, dt, self.limit))
        assert ok, "criterion %s failed" % self.label
        assert dt < self.limit, "criterion %s exceeded %.0fs (%.2fs)" % (
            self.label, self.limit, dt)


def test_c01_hecke_identity():
    c = Criterion("1: Hecke quadratic identity, n in {2,3,4}", 1)
    ok = all(check_hecke(standard_sln_R(n)).passed for n in (2, 3, 4))
    c.done(ok)


def test_c02_braid_relation():
    c = Criterion("2: braid relation for PR, n in {2,3,4}", 5)
    ok = all(check_braid(standard_sln_R(n)).passed for n in (2, 3, 4))
    c.done(ok)


def test_c03_parametrised_ybe():
    c = Criterion("3: denominator-cleared parametrised YBE, n in {2,3}", 60)
    ok = all(check_pybe(standard_sln_R(n)).passed for n in (2, 3))
    c.done(ok)


def test_c04_unitarity():
    c = Criterion("4: unitarity at 5 rational samples, n in {2,3}", 5)
    ok = True
    for n in (2, 3):
        d = standard_sln_R(n)
        ok = ok and check_unitarity(d, admissible_samples(5, seed=2024 + n)).passed
    c.done(ok)


def test_c05_wedge_dimensions():
    c = Criterion("5: wedge ranks equal binomials, n <= 4", 10)
    ok = True
    for n in (1, 2, 3, 4):
        table = derive_wedge_rules(standard_sln_R(n))
        for m in range(n + 1):
            ok = ok and degree_rank(n, m, table) == math.comb(n, m)
    c.done(ok)


def test_c06_vanishing_identity():
    c = Criterion("6: (n+1)-fold contraction with reversed braided integer "
                  "vanishes, n in {2,3}", 10)
    ok = True
    for n in (2, 3):
        d = standard_sln_R(n)
        table = derive_wedge_rules(d)
        op = braided_integer_bar(n + 1, d.bold_R())
        for col in itertools.product(range(1, n + 1), repeat=n + 1):
            vec = op.apply_to_vector({col: ONE})
            by_last = {}
            for row, coeff in vec.items():
                by_last.setdefault(row[-1], {})
                w = row[:-1]
                cur = by_last[row[-1]].get(w)
                by_last[row[-1]][w] = coeff if cur is None else cur + coeff
            for i, words in by_last.items():
                acc = {}
                for w, coeff in words.items():
                    red, mono = table.reduce_word(w)
                    if mono is None:
                        continue
                    cur = acc.get(mono)
                    cur = red * coeff if cur is None else cur + red * coeff
                    if cur:
                        acc[mono] = cur
                    else:
                        del acc[mono]
                ok = ok and not acc
            red, mono = table.reduce_word(col)
            ok = ok and mono is None
    c.done(ok)


def test_c07_moderel_grid():
    c = Criterion("7: exchange relation for all i > j in [-3,4], n in {2,3}", 30)
    ok = True
    for n in (2, 3):
        for i in range(-3, 5):
            for j in range(-3, 5):
                if i > j:
                    ok = ok and check_moderel(i, j, n)
    c.done(ok)


def test_c08_modeind_recursion():
    c = Criterion("8: closed form vs one-step recursion, gaps 2-4, n in {2,3}", 30)
    ok = True
    for n in (2, 3):
        for gap in (2, 3, 4):
            for j in (-2, 0, 1):
                ok = ok and check_modeind(j + gap, j, n)
    c.done(ok)


def test_c09_vacuum_annihilation():
    c = Criterion("9: b_i annihilates the vacuum, i in {1,2,3}, n in {2,3}", 10)
    ok = True
    for n in (2, 3):
        for i in (1, 2, 3):
            ok = ok and not apply_b(i, vacuum(n, 0))
    c.done(ok)


def test_c10_level_one_commutator():
    c = Criterion("10: [b_1, b_-1] = [n; q^-2] on the vacuum, n in {2,3,4}", 10)
    ok = True
    for n in (2, 3, 4):
        scalar, state = commutator_on_vacuum(1, 1, n)
        ok = ok and scalar == braided_int_scalar(n, -2)
    c.done(ok)


def test_c11_lemma33_pieces():
    c = Criterion("11: column pieces of [b_2, b_-2] match closed forms, n in {2,3}", 30)
    ok = True
    for n in (2, 3):
        ok = ok and column_piece(n, 0) == lemma33_closed_form(n)
        ok = ok and column_piece(n, 1) == lemma33_second_term_expected(n)
    c.done(ok)


def test_c12_level_two_commutator():
    c = Criterion("12: [b_2, b_-2] = 2(1-q^-4n)/(1-q^-4) on the vacuum, n in {2,3}", 60)
    ok = True
    for n in (2, 3):
        scalar, state = commutator_on_vacuum(2, 2, n)
        ok = ok and scalar == braided_int_scalar(n, -4) * 2
        if ok:
            lhs, rhs = heisenberg_sides(scalar, 2, 2, n)
            ok = lhs == rhs
    c.done(ok)


def test_c13_off_diagonal():
    c = Criterion("13: [b_1, b_-2] = [b_2, b_-1] = 0 on the vacuum", 30)
    ok = True
    for (i, j) in ((1, 2), (2, 1)):
        for n in (2, 3):
            scalar, state = commutator_on_vacuum(i, j, n)
            ok = ok and scalar == LaurentPoly.zero() and not state
    c.done(ok)


def test_c14_pruning_oracles():
    c = Criterion("14: pruning against two unpruned windows, i,j <= 4 and i = j = 5, "
                  "n in {2,3,4}", 120)
    ok = True
    cases = [(i, j) for i in range(1, 5) for j in range(1, 5)] + [(5, 5)]
    for n in (2, 3, 4):
        for i, j in cases:
            # unpruned slots in columns [-W, W + max(i, j)], then two columns more
            w = max(i, j) + 2
            pruned = commutator_on_vacuum(i, j, n)
            ok = ok and pruned == window_commutator(i, j, n, w)
            ok = ok and pruned == window_commutator(i, j, n, w + 2)
    c.done(ok)


def test_c15_property_suites():
    c = Criterion("15: rewrite budget and strategy independence, 10^3 words", 120)
    rng = random.Random(987654321)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 3)
        length = rng.randint(1, 6)
        word = tuple((rng.randint(-3, 3), rng.randint(1, n)) for _ in range(length))
        rules = standard_rules(n)
        mu, _ = word_measure(word)
        budget = 10 * (mu + 1) * length
        elem = ModeElement.from_word(n, word)
        out, stats = normal_form_stats(elem, rules, budget=budget)
        ok = ok and stats.depth <= budget
        ok = ok and out == normal_form(elem, rules, strategy="rightmost")
    c.done(ok)


def test_c16_three_letter_overlaps():
    c = Criterion("16: every 3-generator word, modes in [-3,3], reduces alike in all "
                  "engines and by plain rewriting, n in {2,3}, both variants", 120)
    # the rules have length-2 left sides, so every overlap ambiguity is a
    # 3-letter word; plain leftmost rewriting, which drops no zero factor,
    # and the rightmost order resolve each one alike (Bergman's diamond
    # lemma); modes in [-3, 3] cover every gap up to 6
    ok = True
    words = 0
    for n in (2, 3):
        gens = list(itertools.product(range(-3, 4), range(1, n + 1)))
        for variant in ("theorem21", "gerv"):
            rules = standard_rules(n, variant)
            for word in itertools.product(gens, repeat=3):
                x = ModeElement.from_word(n, word)
                want = reference_normal_form(x, rules)
                words += 1
                for strategy in ("leftmost", "rightmost", "insertion"):
                    ok = ok and engine_normal_form(x, rules, strategy) == want
    c.done(ok and words == 24010)


def test_stretch_level_three_reported():
    # reported, not gating: the level-3 commutator is beyond the worked cases
    t0 = time.perf_counter()
    scalar, state = commutator_on_vacuum(3, 3, 2)
    expected = braided_int_scalar(2, -6) * 3
    lhs, rhs = heisenberg_sides(expected, 3, 3, 2)
    ok = scalar == expected and lhs == rhs
    print("%s stretch [extrapolation]: [b_3, b_-3] = 3(1-q^-6n)/(1-q^-6), "
          "n = 2  (%.2fs)" % ("PASS" if ok else "FAIL", time.perf_counter() - t0))


@pytest.mark.parametrize("n", [2, 3])
def test_stretch_level_four_reported(n):
    # reported, not gating, like the level-3 row
    t0 = time.perf_counter()
    scalar, state = commutator_on_vacuum(4, 4, n)
    expected = braided_int_scalar(n, -8) * 4
    lhs, rhs = heisenberg_sides(expected, 4, 4, n)
    ok = scalar == expected and lhs == rhs
    print("%s stretch [extrapolation]: [b_4, b_-4] = 4(1-q^-8n)/(1-q^-8), "
          "n = %d  (%.2fs)" % ("PASS" if ok else "FAIL", n, time.perf_counter() - t0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stretch_level_five_reported(n):
    # reported, not gating, like the level-3 row
    t0 = time.perf_counter()
    scalar, state = commutator_on_vacuum(5, 5, n)
    expected = braided_int_scalar(n, -10) * 5
    lhs, rhs = heisenberg_sides(expected, 5, 5, n)
    ok = scalar == expected and lhs == rhs
    print("%s stretch [extrapolation]: [b_5, b_-5] = 5(1-q^-10n)/(1-q^-10), "
          "n = %d  (%.2fs)" % ("PASS" if ok else "FAIL", n, time.perf_counter() - t0))
