"""Span tracer that wraps fracspde's layer functions from outside the package.

Every module-level binding of a wrapped function is replaced, because a name
imported with ``from .x import f`` lives in several modules at once; the
original bindings are put back by ``uninstall``.  Span stacks are kept per
thread, and the tasks that ``cli._run_parallel`` hands to its pool run under
the pool's span, so worker spans get the right parent under ``--threads``.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "fracspde"

# Modules whose public module-level functions are wrapped: the solver, noise,
# diagnostics, regularity and proof-object layers.
LAYER_MODULES = (
    "picard",
    "noise",
    "diagnostics",
    "regularity",
    "sobolev",
    "kernels",
    "quadrature",
    "gronwall",
)
# Private or selected names wrapped as well.  solve reaches the homogeneous
# term only through _homogeneous_values; report is wrapped at its file
# writer only, so that float formatting stays part of the command's own time.
EXTRA_NAMES = {
    "picard": ("_homogeneous_values",),
    "report": ("emit_report",),
}
# Functions whose tracemalloc peak is recorded (allocations made during the call).
PEAK_NAMES = (
    "diagnostics.pathwise_x2_seminorm",
    "regularity.sample_additive_solution",
    "regularity.sample_noise_antiderivative",
)
POOL_NAME = "cli._run_parallel"
TASK_NAME = "cli._run_parallel.task"
MB = 2.0**20


def _module(short):
    return sys.modules[f"{PACKAGE}.{short}"]


def layer_targets():
    """(module, attribute, span name) of every function to wrap."""
    targets = []
    for short in LAYER_MODULES:
        mod = _module(short)
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                targets.append((mod, attr, f"{short}.{attr}"))
    for short, names in EXTRA_NAMES.items():
        targets.extend((_module(short), attr, f"{short}.{attr}") for attr in names)
    cli = _module("cli")
    for attr in vars(cli):
        if attr.startswith("_cmd_"):
            targets.append((cli, attr, "cli." + attr[len("_cmd_"):].replace("_", "-")))
    return targets


class Tracer:
    """Records spans in memory: (id, parent id, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.pools = []  # (span id, number of pool workers)
        self.peaks = defaultdict(float)  # span name -> largest peak in MB
        self.lattices = set()  # (equation, n_steps, n_fft, n_bands)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bindings = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, peak=False):
        """Run fn(*args, **kwargs) inside a span named name."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        own_malloc = peak and not tracemalloc.is_tracing()
        if own_malloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            if own_malloc:
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1] / MB)
                tracemalloc.stop()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name, fn):
        peak = name in PEAK_NAMES
        record_lattice = name == "picard.build_geometry"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, peak)
            if record_lattice:
                self.lattices.add((result.equation, result.n_steps, result.n_fft, result.n_bands))
            return result

        return traced

    def _run_task(self, parent, task):
        # A pool thread starts with an empty stack; the submitting span is
        # the task's parent.  The serial path runs tasks on the caller's own
        # thread, so the caller's stack is saved and put back.
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent]
        try:
            return self.call(TASK_NAME, task)
        finally:
            self._local.stack = saved

    def wrap_pool(self, fn):
        @functools.wraps(fn)
        def traced(tasks, threads):
            def run(tasks, threads):
                parent = self._stack()[-1]
                workers = min(threads, len(tasks)) if threads > 1 and len(tasks) > 1 else 1
                self.pools.append((parent, workers))
                return fn([functools.partial(self._run_task, parent, t) for t in tasks], threads)

            return self.call(POOL_NAME, run, (tasks, threads))

        return traced

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every target; returns the number of bindings replaced."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        for mod, attr, name in layer_targets():
            original = getattr(mod, attr)
            self._rebind(original, self.wrap(name, original))
        pool = _module("cli")._run_parallel
        self._rebind(pool, self.wrap_pool(pool))
        return len(self._bindings)

    def uninstall(self):
        while self._bindings:
            mod, attr, original = self._bindings.pop()
            setattr(mod, attr, original)


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans, pools):
    """Per span name: calls, busy_s (self time) and total_s; plus pool idle time.

    Self time is a span's duration minus the part of its interval that its
    child spans cover, so children running in parallel on pool threads are
    not subtracted twice.
    """
    children = defaultdict(list)
    by_id = {}
    for sid, parent, name, start, end in spans:
        by_id[sid] = (name, start, end)
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "total_s": 0.0})
    for sid, (name, start, end) in by_id.items():
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["busy_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
    idle = 0.0
    for pool_id, workers in pools:
        if pool_id not in by_id:
            continue
        _, start, end = by_id[pool_id]
        idle += workers * (end - start) - sum(b - a for a, b in children.get(pool_id, ()))
    return dict(stats), idle
