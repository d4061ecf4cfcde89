"""Benchmark harness for braided-fock.

Run from the root of a checkout:

    python3 bench/run.py --workload fock_ladder --seed 1 --seconds 40 --trace 0

One process runs one workload in a closed loop, one item at a time, with no
threads.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment (including ``host_probe_us``, see
``host_probe_us()``), the output digest and any failures, which is also
written under ``.bench_out/``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over 11 fresh child processes, spread over the run, of
  ``import braided_fock`` plus the tables the workload needs, at the
  reference host speed;
* ``wall_s``: the sum over items of each item's fastest time in this run,
  oracle checks excluded, at the reference host speed (below).  Items are
  cycled until ``--seconds`` have passed, so each is timed several times;
  the fastest sample is the one least slowed by other tenants of the host,
  which slow the same computation by up to 1.8x in phases lasting from
  seconds to minutes;
* ``item_p50_us`` and ``item_p99_us``: percentiles of those fastest times,
  at the reference host speed;
* ``peak_rss_mb``: peak resident memory of this process;
* ``pass_frac``: computations whose output passed its oracle, over those
  attempted.

A slow phase can cover a whole run, so the timings above are given at a
reference host speed.  ``host_probe_us()`` times a fixed loop that does not
call the library, before and after each set-up sample.  The in-process
timings are multiplied by ``PROBE_REF_US`` over the fastest probe of the
run; each set-up sample by ``PROBE_REF_US`` over the faster of its two
probes.  A change to the library does not change the probe, so it moves
these metrics in full; the report keeps the unscaled values and the scale.

``--trace 1`` alternates untraced and traced passes over setup plus all
items, with the rule tables rebuilt each pass, and reports the per-layer
metrics of ``tracing.py``: timings from the fastest traced pass, and
``trace.overhead_s`` as that pass's wall time minus the fastest untraced
one's.  Exact counters must repeat across traced passes.

Exit codes: 0 with a result, 1 with a result that is not correct, 2 when the
library or the arguments cannot be used (no result is printed).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("fock_ladder", "mode_words", "rmatrix_identities")
SETUP_SAMPLES = 11
# host_probe_us() on the 2-core Xeon host where the benchmark was defined,
# when no other tenant slowed it; in-process timings are scaled to this speed
PROBE_REF_US = 420.0

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup()
print(time.perf_counter() - t0)
"""

# (name, unit, value from a Tracer); units "s" and "us" are timings, every
# other value is an exact count that must repeat across traced passes
PER_LAYER = [
    ("fock.apply_b.calls", "count", lambda t: t.calls["fock.apply_b"]),
    ("fock.apply_b.self_s", "s", lambda t: t.self_s["fock.apply_b"]),
    ("fock.slots_expanded", "count", lambda t: t.counts["fock.slots_expanded"]),
    ("fock.slots_pruned", "count", lambda t: t.counts["fock.slots_pruned"]),
    ("fock.prune_ratio", "ratio", lambda t: _ratio(
        t.counts["fock.slots_pruned"],
        t.counts["fock.slots_pruned"] + t.counts["fock.slots_expanded"])),
    ("fock.state_terms_max", "terms", lambda t: t.maxima["fock.state_terms_max"]),
    ("modealg.normal_form.calls", "count", lambda t: t.calls["modealg.normal_form"]),
    ("modealg.normal_form.busy_s", "s", lambda t: t.busy["modealg.normal_form"]),
    ("modealg.normal_form.self_s", "s", lambda t: t.self_s["modealg.normal_form"]),
    ("modealg.expansions", "count", lambda t: t.counts["modealg.expansions"]),
    ("modealg.depth_max", "count", lambda t: t.maxima["modealg.depth_max"]),
    ("modealg.input_gens_max", "count", lambda t: t.maxima["modealg.input_gens_max"]),
    ("modealg.output_terms", "terms", lambda t: t.counts["modealg.output_terms"]),
    ("modealg.us_per_expansion", "us", lambda t: 1e6 * _ratio(
        t.busy["modealg.normal_form"], t.counts["modealg.expansions"])),
    ("coeff.laurent_mul.calls", "count", lambda t: t.calls["coeff.laurent_mul"]),
    ("coeff.laurent_mul.busy_s", "s", lambda t: t.busy["coeff.laurent_mul"]),
    ("coeff.laurent_add.calls", "count", lambda t: t.calls["coeff.laurent_add"]),
    ("coeff.mul_terms_mean", "pairs", lambda t: _ratio(
        t.counts["coeff.laurent_mul.pairs"], t.calls["coeff.laurent_mul"])),
    ("coeff.polyqzw_mul.calls", "count", lambda t: t.calls["coeff.polyqzw_mul"]),
    ("coeff.polyqzw_mul.busy_s", "s", lambda t: t.busy["coeff.polyqzw_mul"]),
    ("tensor.compose.calls", "count", lambda t: t.calls["tensor.compose"]),
    ("tensor.compose.busy_s", "s", lambda t: t.busy["tensor.compose"]),
    ("tensor.compose.entries_out", "count", lambda t: t.counts["tensor.compose.entries_out"]),
    ("tensor.embed.calls", "count", lambda t: t.calls["tensor.embed"]),
    ("tensor.embed.busy_s", "s", lambda t: t.busy["tensor.embed"]),
    ("tensor.invert.calls", "count", lambda t: t.calls["tensor.invert"]),
    ("tensor.invert.busy_s", "s", lambda t: t.busy["tensor.invert"]),
    ("rmatrix.check_hecke.busy_s", "s", lambda t: t.busy["rmatrix.check_hecke"]),
    ("rmatrix.check_braid.busy_s", "s", lambda t: t.busy["rmatrix.check_braid"]),
    ("rmatrix.check_pybe.busy_s", "s", lambda t: t.busy["rmatrix.check_pybe"]),
    ("rmatrix.check_unitarity.busy_s", "s", lambda t: t.busy["rmatrix.check_unitarity"]),
    ("wedge.derive_rules.busy_s", "s", lambda t: t.busy["wedge.derive_rules"]),
    ("wedge.degree_rank.busy_s", "s", lambda t: t.busy["wedge.degree_rank"]),
    ("wedge.reduce_word.calls", "count", lambda t: t.calls["wedge.reduce_word"]),
]
TIMED_UNITS = ("s", "us")


def _ratio(num, den):
    return num / den if den else 0.0


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _commit():
    head = (_read(os.path.join(ROOT, ".git", "HEAD")) or "").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha:
        return sha.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment():
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": (_read("/proc/loadavg") or "").strip(),
    }


def host_probe_us():
    """Fastest of three timings of a fixed pure-Python loop, in microseconds.

    The loop does not touch the library, so its time shows how fast the host
    ran this process at that moment.  The load average cannot show this: it
    does not count the other tenants of a shared host.
    """
    best = None
    for _ in range(3):
        t0 = perf_counter()
        acc = {}
        for a in range(60):
            for b in range(40):
                k = (a % 13, b % 11)
                acc[k] = acc.get(k, 0) + a * b
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best * 1e6


class Run:
    """Outputs, oracle verdicts and timings of one run of one workload."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.reference = {}  # item id -> canonical output of its first computation
        self.times = {item_id: [] for item_id, _ in items}
        self.dead = set()  # items that raised; not computed again
        self.attempted = 0
        self.failures = []  # (item id, reason), one per failed computation
        self.problems = []  # failures of the run as a whole: digest, counters
        self.probes = [host_probe_us()]
        self.scale = None  # PROBE_REF_US over the fastest probe, end-to-end runs only
        self.unscaled = None

    def fail(self, item_id, reason):
        self.failures.append((item_id, reason))

    def record(self, tables, item_id, args, out):
        """Check one output: the oracle on first sight, equality after that."""
        canon = json.dumps(self.workload.canonical(out), sort_keys=True)
        ref = self.reference.get(item_id)
        if ref is None:
            self.reference[item_id] = canon
            reason = self.workload.check(tables, args, out)
            if reason:
                self.fail(item_id, reason)
        elif canon != ref:
            self.fail(item_id, "output differs from the first computation")

    def compute(self, tables, item_id, args):
        """Time one computation; returns (seconds, output) or None if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.workload.compute(tables, args)
        except Exception as exc:  # any library error fails the item, the run goes on
            self.fail(item_id, "%s: %s" % (type(exc).__name__, exc))
            self.dead.add(item_id)
            return None
        return perf_counter() - t0, out

    def digest(self):
        h = hashlib.sha256()
        for item_id in sorted(self.reference):
            h.update(("%s\t%s\n" % (item_id, self.reference[item_id])).encode())
        return h.hexdigest()


def setup_sample(name):
    """Seconds for import plus table set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, SRC, HERE, name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure(run, seconds):
    """End-to-end: cycle the items until the time is up, after one full pass.

    The set-up samples are spread over the run, between items, so that they
    see the same host conditions as the items do.
    """
    name = run.workload.name
    setups = []  # (seconds, fastest probe around the sample)

    def take_setup_sample():
        before = host_probe_us()
        sample = setup_sample(name)
        after = host_probe_us()
        run.probes += [before, after]
        setups.append((sample, min(before, after)))

    take_setup_sample()
    tables = run.workload.setup()
    start = perf_counter()
    deadline = start + seconds
    first = True
    while first or perf_counter() < deadline:
        for item_id, args in run.items:
            now = perf_counter()
            if not first and now >= deadline:
                break
            if len(setups) < SETUP_SAMPLES and now >= start + seconds * len(setups) / SETUP_SAMPLES:
                take_setup_sample()
            if item_id in run.dead:
                continue
            timed = run.compute(tables, item_id, args)
            if timed is not None:
                run.times[item_id].append(timed[0])
                run.record(tables, item_id, args, timed[1])
        first = False
    while len(setups) < SETUP_SAMPLES:
        take_setup_sample()
    run.probes.append(host_probe_us())
    fastest = [min(ts) for ts in run.times.values() if ts]
    if len(fastest) < 2:  # every item but one raised; the run is not correct
        fastest = (fastest or [0.0]) * 2
    # inclusive: with few items the percentiles stay within the measured range
    pct = statistics.quantiles(fastest, n=100, method="inclusive")
    run.unscaled = {"setup_s": statistics.median(t for t, _ in setups),
                    "wall_s": sum(fastest), "item_p50_us": pct[49] * 1e6,
                    "item_p99_us": pct[98] * 1e6}
    # a slow phase that covers the whole run slows the probe as much as the
    # items, so the fastest probe of the run sets the scale
    run.scale = PROBE_REF_US / min(run.probes)
    # each set-up sample runs in its own process for about 50 ms, so it is
    # scaled by the probes taken just before and after it
    metrics = {"setup_s": (statistics.median(t * PROBE_REF_US / p for t, p in setups), "s")}
    for key, unit in (("wall_s", "s"), ("item_p50_us", "us"), ("item_p99_us", "us")):
        metrics[key] = (run.unscaled[key] * run.scale, unit)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["pass_frac"] = (1 - len(run.failures) / run.attempted, "fraction")
    return metrics


def _one_pass(run, tracer=None):
    """Setup plus every item once, with fresh rule tables; returns the wall time."""
    import braided_fock as bf

    span = tracer.span if tracer else (lambda name: nullcontext())
    bf.standard_rules.cache_clear()
    outs = []
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        with span("bench.pass"):
            with span("bench.setup"):
                tables = run.workload.setup()
            for item_id, args in run.items:
                if item_id not in run.dead:
                    with span("bench.item"):
                        outs.append((item_id, args, run.compute(tables, item_id, args)))
        wall = perf_counter() - t0
    for item_id, args, timed in outs:
        if timed is not None:
            run.record(tables, item_id, args, timed[1])
    return wall


def measure_traced(run, seconds, spans_path):
    """Per-layer: alternate untraced and traced passes, at least two of each,
    starting a pair only while it is expected to end within the time."""
    import tracing

    deadline = perf_counter() + seconds
    plain, traced = [], []
    pair = 0.0  # duration of the last pair of passes
    while len(traced) < 2 or perf_counter() + pair < deadline:
        t0 = perf_counter()
        plain.append(_one_pass(run))
        tracer = tracing.Tracer()
        wall = _one_pass(run, tracer)
        traced.append((wall, {name: fn(tracer) for name, _, fn in PER_LAYER}))
        if len(traced) == 1:
            with open(spans_path, "w") as f:
                for rec in tracer.span_records():
                    f.write(json.dumps(rec) + "\n")
        run.probes.append(host_probe_us())
        pair = perf_counter() - t0
    # timings come from the fastest traced pass, as wall_s takes fastest samples
    fastest_wall, fastest = min(traced, key=lambda wm: wm[0])
    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [m[name] for _, m in traced]
        if unit not in TIMED_UNITS and any(v != values[0] for v in values):
            run.problems.append("counter %s differs across traced passes: %s" % (name, values))
        metrics[name] = (fastest[name], unit)
    metrics["trace.overhead_s"] = (fastest_wall - min(plain), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import braided_fock
    except ImportError as exc:
        print("cannot import braided_fock from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(braided_fock.__file__).startswith(SRC + os.sep):
        print("braided_fock came from %s, not from %s" % (braided_fock.__file__, SRC),
              file=sys.stderr)
        return 2
    import workloads

    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, workload.items(args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if args.trace:
        metrics = measure_traced(run, args.seconds, stem + "-spans.jsonl")
    else:
        metrics = measure(run, args.seconds)

    with open(DIGESTS) as f:
        recorded = json.load(f)
    digest = run.digest()
    expected = None
    if args.seed == recorded["seed"] or not workload.seeded_outputs:
        expected = recorded["digests"].get(args.workload)
        if digest != expected:
            run.problems.append("outputs digest %s, recorded %s" % (digest, expected))
    env["loadavg_end"] = (_read("/proc/loadavg") or "").strip()
    env["host_probe_us"] = {"min": min(run.probes), "median": statistics.median(run.probes),
                            "max": max(run.probes), "samples": len(run.probes)}

    correct = not run.failures and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "digest": digest,
        "digest_recorded": expected, "problems": run.problems, "failures": run.failures[:20],
        "host_scale": run.scale, "unscaled": run.unscaled, "result": result,
    }
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
