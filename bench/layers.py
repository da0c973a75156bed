"""Span recorder for the traced benchmark run.

The recorder times calls into the package's public functions from the
outside: ``patched`` swaps each named function for a timing wrapper in
every loaded ``uisearch`` module that holds it, and ``TracedUniform``
counts or times the distribution methods the solver and the kernel call. Nothing
under ``src/`` changes. Spans are kept in memory; self time is a span's
duration minus the durations of the wrapped calls made inside it on the
same thread.
"""

import collections
import contextlib
import importlib
import itertools
import statistics
import sys
import threading
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

from uisearch import UniformOffers


class Span(NamedTuple):
    name: str
    ident: int
    parent: int | None
    parent_name: str | None
    dur_ns: int
    self_ns: int
    size: int


class Recorder:
    """Collects one ``Span`` per wrapped call, from any thread, and counts."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name, fn, args, kwargs, size=None):
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        frame = [name, next(self._ids), 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - start
            stack.pop()
            if parent is not None:
                parent[2] += dur
            # list.append is atomic, so worker threads may record concurrently.
            self.spans.append(Span(name, frame[1], parent and parent[1],
                                   parent and parent[0], dur, dur - frame[2],
                                   size(args) if size else 0))

    def wrap(self, name, fn, size=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size)
        wrapper.__wrapped__ = fn
        return wrapper


# Module-level functions timed in traced runs, with the argument that
# gives the size of the work each call does.
TARGETS = {
    "schedule.upsilon": None,
    "schedule.solve_w0_basic": None,
    "schedule.solve_w0_extension": None,
    "schedule.build_basic_schedule": None,
    "schedule.build_extension_schedule": None,
    "evaluate.build_policy": None,
    "evaluate.evaluate_policy": None,
    "experiments.calibrate_z": None,
    "experiments.sweep_beliefs": None,
    "montecarlo.simulate_many": None,
    "montecarlo.simulate_block": lambda args: args[6],
    "montecarlo._variates": lambda args: len(args[1]),
    "montecarlo.simulate_spell": None,
    "config.parse_config": None,
}


@contextlib.contextmanager
def patched(recorder, targets=TARGETS):
    """Route calls to ``targets`` through ``recorder`` while the block runs.

    A name a module no longer defines is skipped, so the metrics built
    on it are reported as absent instead of failing the run.
    """
    saved = []
    try:
        for qualname, size in targets.items():
            modname, attr = qualname.rsplit(".", 1)
            module = importlib.import_module(f"uisearch.{modname}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = recorder.wrap(qualname, original, size)
            for name, holder in list(sys.modules.items()):
                if (name == "uisearch" or name.startswith("uisearch.")) \
                        and getattr(holder, attr, None) is original:
                    setattr(holder, attr, wrapper)
                    saved.append((holder, attr, original))
        yield recorder
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


class TracedUniform(UniformOffers):
    """``UniformOffers`` that counts solver calls and times sampling.

    ``cdf`` and ``partial_expectation`` are cheap leaf calls made
    thousands of times per solve, always from the calling thread, so
    they are counted without a span; ``quantile`` runs once per
    simulated period, possibly in worker threads, and gets a span.
    """

    def __init__(self, recorder, low=0.0, high=1.0):
        super().__init__(low=low, high=high)
        object.__setattr__(self, "_recorder", recorder)

    def cdf(self, x):
        self._recorder.counts["distributions.cdf"] += 1
        return super().cdf(x)

    def partial_expectation(self, a, b):
        self._recorder.counts["distributions.partial_expectation"] += 1
        return super().partial_expectation(a, b)

    def quantile(self, u):
        return self._recorder.call("distributions.quantile", super().quantile,
                                   (u,), {}, size=lambda args: int(np.size(args[0])))


def named(spans, name, parent_name=None):
    return [s for s in spans
            if s.name == name and (parent_name is None or s.parent_name == parent_name)]


def median_ms(values_ns):
    return statistics.median(values_ns) / 1e6 if values_ns else None
