"""In-process tracing of the library's public functions, from outside it.

``Tracer.installed()`` replaces each traced function or method wherever the
package binds it (``fock`` and ``rmatrix`` import ``normal_form``, ``embed``
and ``invert`` into their own namespaces) and restores the originals on exit.

Three kinds of wrapper:

* a *span* records (name, parent, start, end) in memory; its self time is its
  duration minus the time of the spans and leaf calls inside it;
* a *leaf* (the coefficient-ring operations, called millions of times) adds
  its call count and duration to its totals and to the enclosing span's
  child time, without a record of its own;
* a *count* only counts calls.

Wrappers change no arguments that affect results: the ``normal_form`` wrapper
calls ``normal_form_stats`` and returns its element, and the ``apply_b``
wrapper passes a ``log_pruned`` list when the caller gave none.
"""

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import braided_fock as bf
from braided_fock import fock, modealg


class Tracer:
    def __init__(self):
        self.records = []  # [name, parent record index or None, start, end]
        self.stack = []  # open spans: [name, record index, child seconds]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)  # outermost spans of a name only
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._open = defaultdict(int)

    # ---- spans -----------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1][1] if self.stack else None
        frame = [name, len(self.records), 0.0]
        self.records.append([name, parent, perf_counter(), None])
        self.stack.append(frame)
        self._open[name] += 1
        return frame

    def end(self, frame):
        t = perf_counter()
        self.stack.pop()
        name = frame[0]
        rec = self.records[frame[1]]
        rec[3] = t
        dur = t - rec[2]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        self._open[name] -= 1
        if not self._open[name]:
            self.busy[name] += dur
        if self.stack:
            self.stack[-1][2] += dur

    @contextmanager
    def span(self, name):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def parent_name(self):
        return self.stack[-1][0] if self.stack else None

    def bump_max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    # ---- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, orig, after=None):
        def wrapper(*args, **kwargs):
            frame = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(frame)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _leaf_wrapper(self, name, orig, pairs_of=None):
        calls, busy, counts, stack = self.calls, self.busy, self.counts, self.stack

        def wrapper(a, b):
            t0 = perf_counter()
            out = orig(a, b)
            dt = perf_counter() - t0
            calls[name] += 1
            busy[name] += dt
            if pairs_of is not None:
                # term-by-term products made by one multiplication
                other = len(b.terms) if isinstance(b, pairs_of) else 1
                counts[name + ".pairs"] += len(a.terms) * other
            if stack:
                stack[-1][2] += dt
            return out

        return wrapper

    def _count_wrapper(self, name, orig):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _normal_form(self, x, rules, strategy="leftmost", budget=None):
        slot = self.parent_name() == "fock.apply_b"
        frame = self.begin("modealg.normal_form")
        try:
            out, stats = modealg.normal_form_stats(x, rules, strategy, budget)
        finally:
            self.end(frame)
        c = self.counts
        c["modealg.expansions"] += stats.expansions
        c["modealg.output_terms"] += len(out.terms)
        self.bump_max("modealg.depth_max", stats.depth)
        self.bump_max("modealg.input_gens_max", max((len(w) for w in x.terms), default=0))
        if slot:
            c["fock.slots_expanded"] += 1
        return out

    def _apply_b(self, orig):
        def apply_b(i, s, rules=None, prune=True, slot_window=None, columns=None,
                    log_pruned=None, budget=None):
            log = [] if log_pruned is None else log_pruned
            before = len(log)
            frame = self.begin("fock.apply_b")
            try:
                out = orig(i, s, rules=rules, prune=prune, slot_window=slot_window,
                           columns=columns, log_pruned=log, budget=budget)
            finally:
                self.end(frame)
            self.counts["fock.slots_pruned"] += len(log) - before
            self.bump_max("fock.state_terms_max", len(out.terms))
            return out

        return apply_b

    def _wrappers(self):
        """(original, wrapper) for every traced function or method."""
        L, P, T = bf.LaurentPoly, bf.PolyQZW, bf.TensorOp

        def entries_out(op):
            self.counts["tensor.compose.entries_out"] += len(op.entries)

        spans = [
            ("tensor.compose", T.__matmul__, entries_out),
            ("tensor.embed", bf.embed, None),
            ("tensor.invert", bf.invert, None),
            ("rmatrix.check_hecke", bf.check_hecke, None),
            ("rmatrix.check_braid", bf.check_braid, None),
            ("rmatrix.check_pybe", bf.check_pybe, None),
            ("rmatrix.check_unitarity", bf.check_unitarity, None),
            ("wedge.derive_rules", bf.derive_wedge_rules, None),
            ("wedge.degree_rank", bf.degree_rank, None),
        ]
        out = [(orig, self._span_wrapper(name, orig, after)) for name, orig, after in spans]
        out += [
            (modealg.normal_form, self._normal_form),
            (fock.apply_b, self._apply_b(fock.apply_b)),
            (L.__mul__, self._leaf_wrapper("coeff.laurent_mul", L.__mul__, L)),
            (L.__add__, self._leaf_wrapper("coeff.laurent_add", L.__add__)),
            (P.__mul__, self._leaf_wrapper("coeff.polyqzw_mul", P.__mul__)),
            (bf.SwapRuleTable.reduce_word,
             self._count_wrapper("wedge.reduce_word", bf.SwapRuleTable.reduce_word)),
        ]
        return out

    @contextmanager
    def installed(self):
        """Bind every wrapper in place of its original, and undo it on exit."""
        owners = [m for name, m in sys.modules.items()
                  if name == "braided_fock" or name.startswith("braided_fock.")]
        owners += [bf.LaurentPoly, bf.PolyQZW, bf.TensorOp, bf.SwapRuleTable]
        replaced = []
        try:
            for orig, wrapper in self._wrappers():
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is orig:
                            setattr(owner, attr, wrapper)
                            replaced.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(replaced):
                setattr(owner, attr, orig)

    # ---- results ----------------------------------------------------------------

    def span_records(self):
        return [{"id": k, "name": name, "parent": parent, "start": start, "end": end}
                for k, (name, parent, start, end) in enumerate(self.records)]
