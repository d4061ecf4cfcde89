"""The frontier table: [b_i, b_-i] on the vacuum, one process per point.

The table is kept in the preamble of ROADMAP.md; item 15 there works on its
largest points.

Usage:

    PYTHONPATH=src python3 scripts/frontier.py            # the whole table
    PYTHONPATH=src python3 scripts/frontier.py 4,8 3,9    # chosen (n, i) points

Each (n, i) runs ``commutator_on_vacuum(i, i, n)`` with pruning in a fresh
interpreter, so the wall time includes no warm cache and the max RSS is that
point's alone.  A point passes when the scalar is the closed form
i * sum_{s<n} q^(-2is), built from integers.  Per point it prints the wall
time of the commutator, the memo misses of the insertion engine summed over
the ``fock.insertion_fold`` calls (the four shifts of the commutator make
one call each, and the stats of a call that widens its images count every
run, so a widening shows as extra misses), the misses its zero test proved
0 (summed the same way; slots that the same test drops before they are
built are not counted), the deepest nesting of misses, and the max RSS of
the process (``ru_maxrss``).  The misses, zeros and depth are
deterministic; wall and RSS depend on the host.  The exit code is 1 when
any point fails: its scalar is not the closed form, its misses read 0
(every point makes thousands, so the script no longer sees the engine), or
it has a record in ``RECORDED`` and one of its counters exceeds it (each
failure named on stderr).
"""

from __future__ import annotations

import json
import subprocess
import sys

TABLE = ((3, 9), (4, 8), (5, 7), (6, 6), (4, 9), (3, 12), (5, 8), (4, 10))
# the recorded (misses, zeros, depth) of the points CI runs; more of any is a regression
RECORDED = {(3, 9): (5548, 2155, 5), (4, 8): (16831, 5921, 7), (6, 6): (31284, 9171, 8),
            (5, 7): (28593, 9224, 7), (4, 9): (31074, 10776, 7), (3, 12): (19897, 7076, 5),
            (5, 8): (61308, 19607, 8), (4, 10): (54800, 18562, 7)}


def run_point(n, i):
    """Measure one point in this process; returns a JSON-ready dict."""
    import resource
    import time

    from braided_fock import fock

    # every insertion_fold call returns the stats of all its runs; record them
    made = []
    fold = fock.insertion_fold

    def recorded(*args):
        out = fold(*args)
        made.append(out[1])
        return out

    fock.insertion_fold = recorded
    t0 = time.perf_counter()
    scalar, _ = fock.commutator_on_vacuum(i, i, n)
    wall = time.perf_counter() - t0
    expected = {-2 * i * s: i for s in range(n)}
    return {
        "n": n, "i": i, "pass": scalar is not None and scalar.terms == expected,
        "wall_s": round(wall, 3),
        "misses": sum(s.expansions for s in made),
        "zeros": sum(s.zeros for s in made),
        "depth": max((s.depth for s in made), default=0),
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv):
    if argv[:1] == ["--point"]:
        print(json.dumps(run_point(int(argv[1]), int(argv[2]))))
        return 0
    points = [tuple(int(v) for v in a.split(",")) for a in argv] or TABLE
    print("| (n, i) | wall | misses | zeros | depth | max RSS | closed form |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for n, i in points:
        out = subprocess.run([sys.executable, __file__, "--point", str(n), str(i)],
                             capture_output=True, text=True, check=True)
        r = json.loads(out.stdout)
        ok = ok and r["pass"]
        print("| (%d, %d) | %.2f s | %s | %s | %d | %.0f MB | %s |" % (
            n, i, r["wall_s"], format(r["misses"], ","), format(r["zeros"], ","), r["depth"],
            r["max_rss_mb"], "match" if r["pass"] else "MISMATCH"), flush=True)
        if not r["misses"]:
            ok = False
            print("(%d, %d): no memo misses read, so the counters miss the engine" % (n, i),
                  file=sys.stderr, flush=True)
        for name, limit in zip(("misses", "zeros", "depth"), RECORDED.get((n, i), ())):
            if r[name] > limit:
                ok = False
                print("(%d, %d): %s %d exceeds its record %d" % (n, i, name, r[name], limit),
                      file=sys.stderr, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
