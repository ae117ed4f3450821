"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install()` wraps the library's callables at the module bindings the
library itself calls through, so no source file changes.  Each wrapped call
is a span (name, start, end, parent, operation id) kept in memory; a span's
self time is its duration minus that of its children.  `Alcove.fold` runs
millions of times in fold_sweep, so it is a counted leaf: its calls and time
are summed, and its time is charged to the enclosing span as child time, but
no span is stored per call.

Each S-matrix call's memory is the peak of its resident set above the level
at the call's start, sampled every millisecond by a thread that runs only
during the call; modular.smatrix_peak_mb sums these peaks over the calls.
Before each call, malloc_trim hands the heap's free memory back to the
system, so a call that follows a larger one still shows its own rise
(A4 k5 after D5 k4 rose 0 MB without the trim, 1.1 MB with it, 2.0 MB when
run first: the dependence on order is smaller, not gone).  On a 2-vCPU
x86-64 VM the sampler added about 4 ms per call (B3 k6: 19 to 23 ms; A4 k5:
0.230 to 0.248 s; D5 k4: 1.758 to 1.761 s).  tracemalloc inside the S-matrix
call would count allocations exactly, but it hooks every allocation and made
the call 4 to 8 times slower (D5 k4: 1.4 s to 8.0 s; E6 k2: 5.0 s to
39.9 s), which the per-run time limit cannot carry.

A metric whose span never ran on a workload reads 0: its layer is bypassed
there (fold_sweep never builds S).  bypassed() names them, so a 0 that a
layer which did run reports is not mistaken for one.
"""
from __future__ import annotations

import ctypes
import ctypes.util
import functools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter

import wzwcat.cli
import wzwcat.currents
import wzwcat.fusion
import wzwcat.modular
import wzwcat.wittlab
from wzwcat.alcove import Alcove
from wzwcat.currents import CurrentGroup
from wzwcat.localmods import LocalCategoryData
from wzwcat.modular import ModularData

# per_layer metric -> (kind, span).  "total", "self" and "calls" read the
# span's sums, "count" the counter of the metric's own name, and "derived"
# is computed in metrics().  Where the span never ran, the metric is 0.
LAYER_METRICS = {
    "rootsys.weight_system_s": ("total", "rootsys.weight_system"),
    "rootsys.weight_system_calls": ("calls", "rootsys.weight_system"),
    "rootsys.weights_generated": ("count", "rootsys.weight_system"),
    "rootsys.weight_system_redundant_frac": ("derived", "rootsys.weight_system"),
    "alcove.fold_calls": ("calls", "alcove.fold"),
    "alcove.fold_s": ("total", "alcove.fold"),
    "alcove.enumerate_s": ("total", "alcove.enumerate"),
    "fusion.rows": ("calls", "fusion.fuse_weights"),
    "fusion.row_self_s": ("self", "fusion.fuse_weights"),
    "fusion.fold_terms": ("count", "fusion.fuse_weights"),
    "modular.smatrix_s": ("total", "modular.smatrix"),
    "modular.weyl_terms": ("count", "modular.weyl_orbit_signs"),
    "modular.smatrix_peak_mb": ("derived", "modular.smatrix"),
    "modular.verlinde_matrix_calls": ("calls", "modular.verlinde_matrix"),
    "modular.verlinde_matrix_s": ("total", "modular.verlinde_matrix"),
    "currents.current_group_s": ("total", "currents.current_group"),
    "currents.current_action_calls": ("calls", "currents.current_action"),
    "localmods.build_s": ("total", "localmods.build"),
    "localmods.pointed_part_s": ("total", "localmods.pointed_part"),
    "wittlab.fingerprint_s": ("total", "wittlab.fingerprint"),
    "verifier.checks": ("calls", "verifier.check"),
    "verifier.check_s": ("total", "verifier.check"),
    "cli.serialize_s": ("total", "cli.bundle_to_json"),
    "cli.cache_load_s": ("total", "cli.bundle_from_json"),
    "cli.cache_hit_frac": ("derived", "cli.load_or_build_bundle"),
    "cli.code_version_s": ("total", "cli.code_version"),
    "cli.cmd_self_s": ("self", "cli.main"),
}

# Counters that must repeat exactly on the same inputs.
EXACT_COUNTS = (
    "rootsys.weight_system_calls", "alcove.fold_calls", "fusion.rows",
    "modular.weyl_terms", "modular.verlinde_matrix_calls",
    "currents.current_action_calls", "verifier.checks",
)


def peak_rss_kb() -> int:
    """This process's peak resident set size (VmHWM).

    Not ru_maxrss: Linux carries the parent's peak across fork and exec
    into the child's ru_maxrss, so a worker would report its parent's.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def trim_heap() -> None:
    """Return the heap's free memory to the system, where libc can."""
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)


def rss_kb() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE_KB


class RssRise:
    """How far the resident set rises above its level at creation, sampled
    every millisecond by a thread until stop()."""

    def __init__(self):
        self.base = self.peak = rss_kb()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _watch(self):
        while not self._done.wait(0.001):
            self.peak = max(self.peak, rss_kb())

    def stop(self) -> int:
        self._done.set()
        self._thread.join()
        return max(self.peak, rss_kb()) - self.base


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self._stack = []           # [span index, child seconds]
        self.op = None
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self.counts = defaultdict(int)
        self.smatrix_peak_kb = 0
        self._systems_seen = set()
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> float:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        start = perf_counter()
        self.spans.append([name, start, None, parent, self.op])
        return start

    def _exit(self, start: float) -> None:
        end = perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        dur = end - start
        t = self.totals[span[0]]
        t[0] += 1
        t[1] += dur
        t[2] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) may update counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(start)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def run_op(self, op_id: str, name: str, fn, *args):
        self.op = op_id
        try:
            return self.span(name, fn)(*args)
        finally:
            self.op = None

    def _fold_leaf(self, fn):
        totals, counts, stack, spans = (self.totals["alcove.fold"], self.counts,
                                        self._stack, self.spans)

        @functools.wraps(fn)
        def fold(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur
                if stack:
                    stack[-1][1] += dur
                    if spans[stack[-1][0]][0] == "fusion.fuse_weights":
                        counts["fusion.fold_terms"] += 1
        return fold

    # -- hooks ---------------------------------------------------------------

    def _weight_system(self, fn):
        span = self.span("rootsys.weight_system", fn)

        def weight_system(rs, lam):
            # computed = the root system's own cache lacked lam before the call
            computed = ("wsys", tuple(int(x) for x in lam)) not in rs._cache
            result = span(rs, lam)
            if computed:
                ident = (rs.series, rs.rank, tuple(lam))
                self.counts["rootsys.weight_systems_computed"] += 1
                self.counts["rootsys.weights_generated"] += len(result)
                if ident in self._systems_seen:
                    self.counts["rootsys.weight_systems_redundant"] += 1
                self._systems_seen.add(ident)
            return result
        return weight_system

    def _smatrix(self, fn):
        span = self.span("modular.smatrix", fn)

        def smatrix(md):
            trim_heap()
            rise = RssRise()
            try:
                return span(md)
            finally:
                self.smatrix_peak_kb += rise.stop()
        return smatrix

    def _checks(self, fn):
        def checks():
            out = fn()
            for c in out:
                c["fn"] = self.span("verifier.check", c["fn"])
            return out
        return checks

    def _count(self, name, size):
        def after(args, result):
            self.counts[name] += size(result)
        return after

    def _cache_lookup(self, args, result):
        self.counts["cli.cache_lookups"] += 1
        self.counts["cli.cache_hits"] += int(result[1])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        cli, fusion, modular = wzwcat.cli, wzwcat.fusion, wzwcat.modular
        p, span = self._patch, self.span
        p(fusion, "weight_system", self._weight_system(fusion.weight_system))
        p(fusion, "fuse_weights", span("fusion.fuse_weights", fusion.fuse_weights))
        p(Alcove, "fold", self._fold_leaf(Alcove.fold))
        p(Alcove, "_enumerate", span("alcove.enumerate", Alcove._enumerate))
        p(modular, "weyl_orbit_signs",
          span("modular.weyl_orbit_signs", modular.weyl_orbit_signs,
               self._count("modular.weyl_terms", len)))
        prop = functools.cached_property(
            self._smatrix(ModularData.__dict__["smatrix"].func))
        prop.__set_name__(ModularData, "smatrix")
        p(ModularData, "smatrix", prop)
        p(ModularData, "verlinde_matrix",
          span("modular.verlinde_matrix", ModularData.verlinde_matrix))
        p(wzwcat.currents, "current_action",
          span("currents.current_action", wzwcat.currents.current_action))
        p(CurrentGroup, "__post_init__",
          span("currents.current_group", CurrentGroup.__post_init__))
        p(LocalCategoryData, "__init__",
          span("localmods.build", LocalCategoryData.__init__))
        p(LocalCategoryData, "pointed_part",
          span("localmods.pointed_part", LocalCategoryData.pointed_part))
        p(wzwcat.wittlab, "fingerprint",
          span("wittlab.fingerprint", wzwcat.wittlab.fingerprint))
        p(cli, "_thm1_checks", self._checks(cli._thm1_checks))
        p(cli, "_witt_checks", self._checks(cli._witt_checks))
        p(cli, "bundle_to_json", span("cli.bundle_to_json", cli.bundle_to_json))
        p(cli, "bundle_from_json",
          span("cli.bundle_from_json", cli.bundle_from_json))
        p(cli, "_code_version", span("cli.code_version", cli._code_version))
        p(cli, "load_or_build_bundle",
          span("cli.load_or_build_bundle", cli.load_or_build_bundle,
               self._cache_lookup))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        c = self.counts
        computed = c["rootsys.weight_systems_computed"]
        lookups = c["cli.cache_lookups"]
        derived = {
            "rootsys.weight_system_redundant_frac":
                c["rootsys.weight_systems_redundant"] / computed
                if computed else 0.0,
            "modular.smatrix_peak_mb": self.smatrix_peak_kb / 1024,
            "cli.cache_hit_frac": c["cli.cache_hits"] / lookups
            if lookups else 0.0,
        }
        out = {}
        for metric, (kind, span) in LAYER_METRICS.items():
            if kind == "count":
                out[metric] = c[metric]
            elif kind == "derived":
                out[metric] = derived[metric]
            else:
                calls, total, self_s = self.totals[span]
                out[metric] = {"calls": calls, "total": total,
                               "self": self_s}[kind]
        return out

    def bypassed(self) -> list:
        """The metrics whose span never ran: their layer was not used."""
        return [metric for metric, (_, span) in LAYER_METRICS.items()
                if self.totals[span][0] == 0]

    def write(self, path) -> None:
        """Spans as JSON: name, start, end, parent index, operation id."""
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f, separators=(",", ":"))
