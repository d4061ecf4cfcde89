"""The frontier table of ROADMAP item 4: [b_i, b_-i] on the vacuum, one process per point.

Usage:

    PYTHONPATH=src python3 scripts/frontier.py            # the whole table
    PYTHONPATH=src python3 scripts/frontier.py 4,8 3,9    # chosen (n, i) points

Each (n, i) runs ``commutator_on_vacuum(i, i, n)`` with pruning in a fresh
interpreter, so the wall time includes no warm cache and the max RSS is that
point's alone.  A point passes when the scalar is the closed form
i * sum_{s<n} q^(-2is), built from integers.  Per point it prints the wall
time of the commutator, the memo misses of the insertion engine summed over
every run of every fold (the four shifts of the commutator make one
``insertion_fold`` call each, and a call that widens its images runs once
per width, so a widening shows as extra misses), the misses its zero test
proved 0 (summed the same way; slots that the same test drops before they
are built are not counted), the deepest nesting of misses, and the max RSS
of the process (``ru_maxrss``).  The misses, zeros and depth are
deterministic; wall and RSS depend on the host.  The exit code is 1 when
any point fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

TABLE = ((3, 9), (4, 8), (5, 7), (6, 6), (4, 9), (5, 8), (4, 10))


def run_point(n, i):
    """Measure one point in this process; returns a JSON-ready dict."""
    import resource
    import time

    from braided_fock import fock, modealg

    # every reduction makes one ReductionStats; record them to sum the misses
    made = []

    class Recorded(modealg.ReductionStats):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    modealg.ReductionStats = Recorded
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
