"""The benchmark workloads: seeded inputs, the computation, and its oracle.

Every workload calls the library only through attributes of the
``braided_fock`` package (``bf.normal_form``, never a name imported from it),
so that the tracer in ``tracing.py`` sees each call it wraps.

Each workload provides:

* ``setup()`` builds the tables the workload needs and returns them;
* ``items(seed)`` returns ``(item_id, args)`` pairs made only from the seed;
* ``compute(tables, args)`` is the timed work for one item;
* ``canonical(out)`` turns a result into plain JSON data for digests;
* ``check(tables, args, out)`` is the oracle, which shares no code with the part of
  the library under test; it returns ``None`` or the reason for rejecting.

This module imports nothing the library does not already import, so that a
child process timing ``import`` plus ``setup()`` measures the library.
"""

import itertools
import math
import random
from fractions import Fraction

import braided_fock as bf


class FockLadder:
    """[b_i, b_-i] on the q-Fock vacuum, climbing in level i and rank n.

    Rungs stop where the top ones take about 2 s each.  The seed only
    shuffles the order of the rungs, so the outputs do not depend on it.
    """

    name = "fock_ladder"
    seeded_outputs = False
    RUNGS = ((2, 6), (3, 5), (4, 4))  # (n, highest i)

    def setup(self):
        return {n: bf.standard_rules(n) for n, _ in self.RUNGS}

    def items(self, seed):
        items = [("n%d-i%d" % (n, i), (n, i)) for n, top in self.RUNGS for i in range(1, top + 1)]
        random.Random(seed).shuffle(items)
        return items

    def compute(self, tables, args):
        n, i = args
        return bf.commutator_on_vacuum(i, i, n, rules=tables[n])

    def canonical(self, out):
        scalar, state = out
        return {"scalar": None if scalar is None else scalar.to_json(), "state": state.to_json()}

    def check(self, tables, args, out):
        # closed form i * sum_{s<n} q^(-2is), built from integers alone
        n, i = args
        scalar = out[0]
        if scalar is None:
            return "result is not a multiple of the vacuum"
        expected = {-2 * i * s: i for s in range(n)}
        if scalar.terms != expected:
            return "scalar %s, expected %s" % (scalar.terms, expected)
        return None


class ModeWords:
    """About 2,000 short words through ``normal_form``, a quarter with gerv rules.

    The word shapes come from a fixed pool: per (n, length) stratum, 133 words
    with modes in [-2, 2].  The seed translates each word by its own mode
    offset in [-2, 2] and shuffles the order.  Rewrite rules depend on mode
    gaps only, so translation changes every word and its normal form but not
    the rewriting work; measured without it, the total expansions of 2,000
    freshly drawn words differed by 16 % (quartile spread) across seeds.
    """

    name = "mode_words"
    seeded_outputs = True
    POOL_SEED = 9512006
    NS = (2, 3, 4)
    LENGTHS = range(4, 9)
    PER_STRATUM = 133
    VARIANTS = ("theorem21", "gerv")

    def setup(self):
        return {(n, v): bf.standard_rules(n, v) for n in self.NS for v in self.VARIANTS}

    def _pool(self):
        rng = random.Random(self.POOL_SEED)
        pool = []
        for n in self.NS:
            for length in self.LENGTHS:
                for k in range(self.PER_STRATUM):
                    variant = "gerv" if k % 4 == 0 else "theorem21"
                    word = tuple((rng.randint(-2, 2), rng.randint(1, n)) for _ in range(length))
                    pool.append((n, variant, word))
        return pool

    def items(self, seed):
        rng = random.Random(seed)
        items = []
        for k, (n, variant, word) in enumerate(self._pool()):
            d = rng.randint(-2, 2)
            items.append(("w%04d" % k, (n, variant, tuple((m + d, a) for m, a in word))))
        rng.shuffle(items)
        return items

    def compute(self, tables, args):
        n, variant, word = args
        return bf.normal_form(bf.ModeElement.from_word(n, word), tables[(n, variant)])

    def canonical(self, out):
        return out.to_json()

    def check(self, tables, args, out):
        n, variant, word = args
        mode_sum = sum(m for m, _ in word)
        for w in out.terms:
            # rewrites keep the length and the sum of modes of a word
            if len(w) != len(word) or sum(m for m, _ in w) != mode_sum:
                return "output word %r does not conserve length and mode sum" % (w,)
            for (m1, a1), (m2, a2) in zip(w, w[1:]):
                if m1 > m2 or (m1 == m2 and a1 >= a2):
                    return "output word %r is not normal" % (w,)
        x = bf.ModeElement.from_word(n, word)
        rightmost = bf.normal_form(x, tables[(n, variant)], strategy="rightmost")
        if rightmost != out:
            return "leftmost and rightmost normal forms differ"
        return None


# ---- R-matrix identities ----------------------------------------------------------


def _unitarity_samples(rng, count):
    """Rational (q0, z0) away from q0 in {0, 1, -1} and the poles z0 = q0^(+-2)."""
    samples = []
    while len(samples) < count:
        q0 = Fraction(rng.randint(2, 9), rng.randint(1, 9))
        z0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if q0 == 1 or z0 in (q0 ** 2, 1 / q0 ** 2):
            continue
        samples.append((q0, z0))
    return samples


def _perturbed(n, kind):
    """A standard R-matrix broken so that the checks listed in CONTROLS must fail."""
    if kind == "identity":
        return bf.HeckeData(n=n, R=bf.TensorOp.identity(n, 2))
    entries = dict(bf.standard_sln_R(n).R.entries)
    if kind == "lambda_doubled":
        for (row, col), c in list(entries.items()):
            if row != col:
                entries[(row, col)] = c * 2
    elif kind == "diagonal_q3":
        entries[((1, 1), (1, 1))] = bf.LaurentPoly.q_power(3)
    else:
        raise ValueError("unknown perturbation %r" % kind)
    return bf.HeckeData(n=n, R=bf.TensorOp(n, 2, entries))


def _vanishing_contraction(data):
    """Criterion 6: the (n+1)-fold reversed braided integer contracts to zero.

    Returns the number of (input word, dropped index) pairs whose contraction
    does not reduce to zero.
    """
    n = data.n
    table = bf.derive_wedge_rules(data)
    op = bf.braided_integer_bar(n + 1, data.bold_R())
    by_col = {}
    for (row, col), c in op.entries.items():
        by_col.setdefault(col, []).append((row, c))
    nonzero = 0
    for col in itertools.product(range(1, n + 1), repeat=n + 1):
        by_last = {}
        for row, c in by_col.get(col, ()):
            red, mono = table.reduce_word(row[:-1])
            if mono is None:
                continue
            acc = by_last.setdefault(row[-1], {})
            s = acc.get(mono)
            s = red * c if s is None else s + red * c
            if s:
                acc[mono] = s
            else:
                del acc[mono]
        nonzero += sum(1 for acc in by_last.values() if acc)
    return nonzero


class RMatrixIdentities:
    """Hecke, braid, pYBE and unitarity checks, wedge ranks and criterion 6.

    Negative controls run the same checks on broken R-matrices; a check that
    passes one counts as a failed item.
    """

    name = "rmatrix_identities"
    seeded_outputs = True
    CHECK_NS = range(2, 11)
    WEDGE_NS = range(2, 7)
    VANISHING_NS = (2, 3, 4)
    CONTROL_NS = (2, 3)
    # perturbation -> checks that must reject it; the identity R is the plain
    # flip P, which does satisfy the braid relation and the pYBE
    CONTROLS = {
        "identity": ("hecke", "unitarity"),
        "lambda_doubled": ("hecke", "braid", "pybe", "unitarity"),
        "diagonal_q3": ("hecke", "braid", "pybe", "unitarity"),
    }
    UNITARITY_SAMPLES = 5

    def setup(self):
        return {n: bf.standard_sln_R(n) for n in self.CHECK_NS}

    def items(self, seed):
        rng = random.Random(seed)
        items = []
        for n in self.CHECK_NS:
            for check in ("hecke", "braid", "pybe"):
                items.append(("%s-n%d" % (check, n), (check, n, None, None)))
            samples = _unitarity_samples(rng, self.UNITARITY_SAMPLES)
            items.append(("unitarity-n%d" % n, ("unitarity", n, None, samples)))
        for n in self.WEDGE_NS:
            items.append(("wedge-n%d" % n, ("wedge", n, None, None)))
        for n in self.VANISHING_NS:
            items.append(("vanishing-n%d" % n, ("vanishing", n, None, None)))
        for n in self.CONTROL_NS:
            for kind, checks in self.CONTROLS.items():
                data = _perturbed(n, kind)
                for check in checks:
                    samples = None
                    if check == "unitarity":
                        samples = _unitarity_samples(rng, self.UNITARITY_SAMPLES)
                    item_id = "control-%s-%s-n%d" % (kind, check, n)
                    items.append((item_id, (check, n, data, samples)))
        rng.shuffle(items)
        return items

    def compute(self, tables, args):
        kind, n, data, samples = args
        if data is None:
            data = tables[n]
        if kind == "hecke":
            return bf.check_hecke(data)
        if kind == "braid":
            return bf.check_braid(data)
        if kind == "pybe":
            return bf.check_pybe(data)
        if kind == "unitarity":
            return bf.check_unitarity(data, samples)
        if kind == "wedge":
            table = bf.derive_wedge_rules(data)
            return [bf.degree_rank(n, m, table) for m in range(n + 1)]
        return _vanishing_contraction(data)

    def canonical(self, out):
        return out if isinstance(out, (int, list)) else out.to_json()

    def check(self, tables, args, out):
        kind, n, control, _ = args
        if kind == "wedge":
            expected = [math.comb(n, m) for m in range(n + 1)]
            return None if out == expected else "wedge ranks %s, expected %s" % (out, expected)
        if kind == "vanishing":
            return None if out == 0 else "%d contractions do not vanish" % out
        if control is not None:
            if out.passed or out.witness is None:
                return "check %s accepted a broken R-matrix" % kind
            return None
        if not out.passed:
            return "check %s failed at witness %s" % (kind, out.witness)
        if kind == "unitarity" and out.degrees.get("samples") != self.UNITARITY_SAMPLES:
            return "unitarity checked %s samples" % out.degrees.get("samples")
        return None


WORKLOADS = {w.name: w for w in (FockLadder(), ModeWords(), RMatrixIdentities())}
