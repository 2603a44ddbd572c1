"""Span tracer for the traced benchmark run.

Every public function of the given qcb modules is wrapped, both in its
defining module and in every qcb module that imported the same function
object by name (``cli.export_table``, ``ed.fit_canonical_params``, ...), so
calls made inside qcb are recorded too.  Each span holds (name, start, end,
parent span index, job); spans stay in memory until the pass ends.  A span's
self time is its duration minus the durations of its direct children, which
never overlap because qcb runs its work on one thread here.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

# Counts taken from a function's result: {span name: (metric, count of result)}.
RESULT_COUNTS = {
    "ed.build_hamiltonian": ("ed.blocks_built", len),
    "spin_lde.fit_canonical_params": ("spin_lde.fit_nfev", lambda r: r.n_evaluations),
    "output.export_table": ("output.export_table.bytes", lambda r: len(r.encode())),
    "optomech_stationary.detuning_sweep": ("optomech_stationary.sweep_points", len),
}
RHO_ELEMENT = "optomech_unitary.rho_element"


def _rho_key(p, n, m, mu, nu):
    """Identity of <n, mu| rho |m, nu> up to Hermitian conjugation."""
    return p, frozenset(((n, mu), (m, nu)))


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps the short layer name to a qcb module."""
        self.modules = modules
        self.names = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self.names[obj] = f"{short}.{attr}"
        self.job = None
        self._patches = []
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.rho_keys = set()

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.rho_keys.clear()

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.names.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "qcb" and not modname.startswith("qcb."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))
        try:
            yield self
        finally:
            while self._patches:
                mod, attr, obj = self._patches.pop()
                setattr(mod, attr, obj)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = RESULT_COUNTS.get(name)
        keep_key = name == RHO_ELEMENT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            if keep_key:
                self.rho_keys.add(_rho_key(*args, **kwargs))
            return result

        return traced

    def _count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def layer_metrics(self) -> dict:
        """Self time and call count of every wrapped function, per-module
        self time, and the derived counts, from the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, calls = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[name] += end - start - inner
            calls[name] += 1
        out = {}
        for name in sorted(self.names.values()):
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for short in self.modules:
            out[f"{short}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.startswith(short + "."))
        for metric, _ in RESULT_COUNTS.values():
            out[metric] = self.counts[metric]
        reports = calls["ed.theory_consistency_report"]
        out["ed.builds_per_report"] = (
            self._count_under("ed.build_hamiltonian", "ed.theory_consistency_report")
            / reports if reports else 0.0)
        points = self.counts["optomech_stationary.sweep_points"]
        out["optomech_stationary.stability_checks_per_point"] = (
            self._count_under("optomech_stationary.stability_check",
                              "optomech_stationary.detuning_sweep")
            / points if points else 0.0)
        out["optomech_unitary.rho_elements_per_unique"] = (
            calls[RHO_ELEMENT] / len(self.rho_keys) if self.rho_keys else 0.0)
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{job}\n")
