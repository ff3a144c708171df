"""Spans recorded around the solver's public entry points, from outside.

``installed(tracer)`` replaces the named functions in ``stpsolve.solver`` and
``stpsolve.bounds`` with timing wrappers for the duration of a ``with``
block, and wraps the heuristic that ``ds_star`` receives in a delegating
``SteinerHeuristic``.  The solver itself is unchanged: ``solve()`` looks
these names up in its module globals at call time, and so do the
reductions (through ``stpsolve.bounds``) and the bound helpers.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``request`` the index of the
instance being solved.  Spans stay in memory until the tracer is dropped.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import stpsolve.bounds
import stpsolve.solver
from stpsolve import SteinerHeuristic

# Public entry points wrapped in each module.  A name missing from its module
# (say, removed by a later change) is skipped and reported as absent.
ENTRY_POINTS = {
    "solver": (
        stpsolve.solver,
        (
            "run_pipeline",
            "identity_preprocess",
            "select_root",
            "upper_bound_pipeline",
            "ds_star",
            "unreduce",
            "validate_tree",
        ),
    ),
    "bounds": (
        stpsolve.bounds,
        ("select_root", "upper_bound_pipeline", "dual_ascent", "local_search", "rsph"),
    ),
}
HEURISTIC_SPAN = "heuristic.eval_mask"
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.absent: set[str] = set()
        self.heuristic_subsets = 0
        # (snapshot instance, tree cost) of every upper_bound_pipeline call.
        self.upper_bounds: list[tuple] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


class TracedHeuristic(SteinerHeuristic):
    """Delegates to the heuristic ``ds_star`` was given, timing each query
    and remembering which terminal subsets were asked for."""

    def __init__(self, inner: SteinerHeuristic, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.root = inner.root
        self.index = inner.index
        self.masks: set[int] = set()

    def eval_mask(self, u: int, mask: int) -> int:
        self.masks.add(mask)
        index = self.tracer.begin(HEURISTIC_SPAN)
        try:
            return self.inner.eval_mask(u, mask)
        finally:
            self.tracer.end(index)


def _traced_ds_star(tracer: Tracer, ds_star):
    @functools.wraps(ds_star)
    def traced(instance, root, heuristic, *args, **kwargs):
        guide = TracedHeuristic(heuristic, tracer)
        try:
            return ds_star(instance, root, guide, *args, **kwargs)
        finally:
            tracer.heuristic_subsets += len(guide.masks)

    return traced


def _recording_upper_bound(tracer: Tracer, upper_bound_pipeline):
    @functools.wraps(upper_bound_pipeline)
    def recording(instance, root, *args, **kwargs):
        tree = upper_bound_pipeline(instance, root, *args, **kwargs)
        tracer.upper_bounds.append((instance, tree.cost))
        return tree

    return recording


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point in ``ENTRY_POINTS``; restore them on exit."""
    saved = []
    try:
        for prefix, (module, names) in ENTRY_POINTS.items():
            for name in names:
                span = f"{prefix}.{name}"
                original = getattr(module, name, None)
                if original is None:
                    tracer.absent.add(span)
                    continue
                fn = original
                if name == "ds_star":
                    fn = _traced_ds_star(tracer, fn)
                elif name == "upper_bound_pipeline":
                    fn = _recording_upper_bound(tracer, fn)
                saved.append((module, name, original))
                setattr(module, name, tracer.wrap(span, fn))
        if "solver.ds_star" in tracer.absent:
            tracer.absent.add(HEURISTIC_SPAN)
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans.

    Spans come from one thread, so children of a span never overlap and
    their durations can be summed.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        own = span[END] - span[START] - child_time[i]
        out[span[NAME]] = out.get(span[NAME], 0.0) + own
    return out


def totals(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (call count, summed duration)."""
    out: dict[str, tuple[int, float]] = {}
    for name, start, end, _, _ in spans:
        count, total = out.get(name, (0, 0.0))
        out[name] = (count + 1, total + end - start)
    return out


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    hits = 0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        hits += parent >= 0
    return hits
