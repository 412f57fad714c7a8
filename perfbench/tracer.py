"""Outside-in layer tracing for the benchmark.

Every layer is measured from the outside: the tracer replaces public
functions of ``repro`` with thin wrappers that record a span (name,
start, end, parent) or bump a counter, and puts the originals back
afterwards.  Nothing in ``src/`` knows it is being traced.

Spans stay in memory as parallel lists and are written once, at the
end, as a Chrome trace through :func:`repro.obs.profiler.chrome_trace`.
A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.

The layer table (:func:`install_layers`) names each wrapped call by the
module that owns it, so the per-layer metrics read as
``<layer>.<call>.self_s`` / ``.calls``.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import sys
import time
import weakref


class StepClock:
    """Experiment gaps as the search sees them, at the testbed boundary.

    Wraps ``Testbed.run``: every experiment goes through it exactly
    once, so the gap between two consecutive calls on the same testbed
    is one experiment plus the search loop's bookkeeping around it.  On a
    serial search that is the gap between consecutive points yielded by
    ``Collie.steps()``; on a population it is one lockstep generation
    as a chain waits for it.  Gaps are keyed per testbed, so building
    the next search never counts as a step.
    """

    def __init__(self) -> None:
        self.gaps_ns: list[int] = []
        self.experiments = 0
        self._last: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def wrap(self, run):
        gaps = self.gaps_ns
        last = self._last
        clock = time.perf_counter_ns

        @functools.wraps(run)
        def timed_run(testbed, *args, **kwargs):
            now = clock()
            previous = last.get(testbed)
            if previous is not None:
                gaps.append(now - previous)
            last[testbed] = now
            self.experiments += 1
            return run(testbed, *args, **kwargs)

        return timed_run


class Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def method(self, cls, attr: str, make) -> None:
        """Wrap a function defined directly on ``cls``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def function(self, module, attr: str, make) -> None:
        """Wrap a module function in every ``repro`` module that binds it.

        ``from x import f`` copies the binding, so wrapping only the
        defining module would miss callers that imported it by name.
        """
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self.origin = time.perf_counter()

    def span(self, name: str, tally=None):
        """Wrapper factory: time each call as a span named ``name``.

        ``tally(counts, args, kwargs, result)``, when given, records
        counts derived from the call's arguments and result.
        """
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents
        )
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        def make(func):
            @functools.wraps(func)
            def spanned(*args, **kwargs):
                index = len(starts)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    result = func(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                if tally is not None:
                    tally(counts, args, kwargs, result)
                return result

            return spanned

        return make

    def counter(self, tally):
        """Wrapper factory: count calls without a span."""
        counts = self.counts

        def make(func):
            @functools.wraps(func)
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                tally(counts, args, kwargs, result)
                return result

            return counted

        return make

    # -- analysis ----------------------------------------------------------

    def calls(self) -> collections.Counter:
        return collections.Counter(self.names)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus direct children's."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, float] = collections.defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += (
                self.ends[index] - self.starts[index] - child[index]
            )
        return dict(totals)

    def chrome_events(self) -> list[tuple[str, float, float]]:
        """``(path, start, duration)`` events for ``chrome_trace``."""
        paths: list[str] = []
        for index, name in enumerate(self.names):
            parent = self.parents[index]
            paths.append(f"{paths[parent]}/{name}" if parent >= 0 else name)
        return [
            (path, self.starts[i] - self.origin, self.ends[i] - self.starts[i])
            for i, path in enumerate(paths)
        ]

    def write_chrome_trace(self, path: str) -> list[str]:
        """Write the spans as Chrome trace JSON; returns schema errors."""
        from repro.obs.profiler import chrome_trace, validate_chrome_trace

        trace = chrome_trace(self.chrome_events())
        errors = validate_chrome_trace(trace)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, separators=(",", ":"))
        return errors


# -- the layer table --------------------------------------------------------


def _testbed_phase(counts, args, kwargs, result) -> None:
    phase = kwargs.get("phase", args[3] if len(args) > 3 else "search")
    counts[f"testbed.run.calls.{phase}"] += 1


def _batch_points(counts, args, kwargs, result) -> None:
    counts["batcheval.solve_batch.points"] += len(args[1])


def _mfs_skip(counts, args, kwargs, result) -> None:
    if result is not None:
        counts["mfs.skipped"] += 1


def _bump(key: str):
    def tally(counts, args, kwargs, result) -> None:
        counts[key] += 1

    return tally


def _journal_bytes(closed: dict):
    def tally(counts, args, kwargs, result) -> None:
        path = args[0].path
        if os.path.exists(path):
            closed[path] = os.path.getsize(path)

    return tally


def install_layers(tracer: Tracer, patcher: Patcher) -> dict:
    """Wrap every traced layer's public calls; returns closed-journal sizes.

    The returned dict (journal path -> bytes on disk) fills as journals
    close during the traced part.
    """
    from repro.baselines import bayesopt
    from repro.canary import check, corpus, drift, invariants
    from repro.cluster.testbed import Testbed
    from repro.core import (
        batcheval, collie, engine, mfs, monitor, population, space,
    )
    from repro.hardware import counters, model
    from repro.obs import coverage, journal, recorder
    from repro.analysis import journaldiff

    span = tracer.span
    closed: dict[str, int] = {}

    patcher.method(space.SearchSpace, "random", span("space.random"))
    patcher.method(space.SearchSpace, "mutate", span("space.mutate"))
    patcher.method(space.SearchSpace, "coerce", span("space.coerce"))
    patcher.method(collie.Collie, "run", span("annealing"))
    patcher.method(
        mfs.MFSExtractor, "construct_steps",
        tracer.counter(_bump("mfs.extractions")),
    )
    patcher.function(mfs, "match_any", span("mfs.match_any", _mfs_skip))
    patcher.method(Testbed, "run", span("testbed.run", _testbed_phase))
    patcher.method(engine.WorkloadEngine, "measure", span("engine.measure"))
    patcher.method(
        engine.WorkloadEngine, "functional_burst",
        span("engine.functional_burst"),
    )
    patcher.method(model.SteadyStateModel, "evaluate", span("model.evaluate"))
    patcher.function(
        model, "latency_for_solve", span("model.latency_for_solve")
    )
    patcher.function(
        model, "solve_batch", span("batcheval.solve_batch", _batch_points)
    )
    patcher.method(
        counters.VendorMonitor, "sample_window",
        span("counters.sample_window"),
    )
    patcher.method(monitor.AnomalyMonitor, "classify", span("monitor.classify"))
    for name in ("evaluate_each", "evaluate_many", "solve_many", "presolve"):
        patcher.method(batcheval.BatchEvaluator, name, span("batcheval"))
    for name in ("observe_each", "observe_many"):
        patcher.function(batcheval, name, span("batcheval.observe"))
    patcher.method(population.PopulationCollie, "run", span("population"))
    for name, value in list(vars(recorder.FlightRecorder).items()):
        if inspect.isfunction(value) and not name.startswith("_"):
            patcher.method(recorder.FlightRecorder, name, span("obs.recorder"))
    patcher.method(
        journal.RunJournal, "write",
        tracer.counter(_bump("obs.journal.records")),
    )
    patcher.method(
        journal.RunJournal, "close", tracer.counter(_journal_bytes(closed))
    )
    for owner, name in (
        (journal, "read_journal"),
        (journal, "read_journal_prefix"),
        (corpus, "load_corpus"),
    ):
        patcher.function(owner, name, span("obs.read"))
    for owner, name in (
        (journaldiff, "journal_metrics"),
        (coverage, "coverage_from_records"),
        (drift, "cell_metrics"),
    ):
        patcher.function(owner, name, span("obs.fold"))
    patcher.function(invariants, "run_invariants", span("canary.invariants"))
    patcher.function(check, "canary_check", span("canary"))
    patcher.method(bayesopt.BayesOptSearch, "run", span("bo"))
    patcher.method(bayesopt.GaussianProcess, "fit", span("bo.gp_fit"))
    patcher.method(bayesopt.GaussianProcess, "predict", span("bo.gp_predict"))
    return closed


def layer_metrics(
    tracer: Tracer, closed_journals: dict, cache_hits: int, cache_lookups: int
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, by name -> (value, unit)."""
    selves = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counts
    points = counts["batcheval.solve_batch.points"]
    batch_calls = calls["batcheval.solve_batch"]
    batch_self = selves.get("batcheval.solve_batch", 0.0)

    def self_s(name: str) -> tuple[float, str]:
        return selves.get(name, 0.0), "s"

    def count(value) -> tuple[float, str]:
        return value, "count"

    return {
        "model.evaluate.self_s": self_s("model.evaluate"),
        "model.latency_for_solve.self_s": self_s("model.latency_for_solve"),
        "counters.sample_window.self_s": self_s("counters.sample_window"),
        "batcheval.solve_batch.self_s": self_s("batcheval.solve_batch"),
        "batcheval.points_per_call": (
            points / batch_calls if batch_calls else 0.0, "points/call"
        ),
        "batcheval.solve_us_per_point": (
            batch_self / points * 1e6 if points else 0.0, "us"
        ),
        "batcheval.observe.self_s": self_s("batcheval.observe"),
        "batcheval.self_s": self_s("batcheval"),
        "evalcache.hit_ratio": (
            cache_hits / cache_lookups if cache_lookups else 0.0, "ratio"
        ),
        "population.self_s": self_s("population"),
        "monitor.classify.calls": count(calls["monitor.classify"]),
        "monitor.classify.self_s": self_s("monitor.classify"),
        "space.mutate.calls": count(calls["space.mutate"]),
        "space.mutate.self_s": self_s("space.mutate"),
        "space.random.calls": count(calls["space.random"]),
        "space.random.self_s": self_s("space.random"),
        "space.coerce.calls": count(calls["space.coerce"]),
        "space.coerce.self_s": self_s("space.coerce"),
        "bo.self_s": self_s("bo"),
        "bo.gp_fit.self_s": self_s("bo.gp_fit"),
        "bo.gp_predict.self_s": self_s("bo.gp_predict"),
        "mfs.match_any.calls": count(calls["mfs.match_any"]),
        "mfs.match_any.self_s": self_s("mfs.match_any"),
        "mfs.probes": count(counts["testbed.run.calls.mfs"]),
        "mfs.extractions": count(counts["mfs.extractions"]),
        "mfs.skipped": count(counts["mfs.skipped"]),
        "annealing.self_s": self_s("annealing"),
        "testbed.run.calls.probe": count(counts["testbed.run.calls.probe"]),
        "testbed.run.calls.search": count(counts["testbed.run.calls.search"]),
        "testbed.run.calls.mfs": count(counts["testbed.run.calls.mfs"]),
        "testbed.run.self_s": self_s("testbed.run"),
        "engine.measure.self_s": self_s("engine.measure"),
        "engine.functional_burst.calls": count(
            calls["engine.functional_burst"]
        ),
        "obs.recorder.self_s": self_s("obs.recorder"),
        "obs.journal.records": count(counts["obs.journal.records"]),
        "obs.journal.bytes": (sum(closed_journals.values()), "bytes"),
        "obs.read.self_s": self_s("obs.read"),
        "obs.fold.self_s": self_s("obs.fold"),
        "canary.self_s": self_s("canary"),
        "canary.invariants.self_s": self_s("canary.invariants"),
    }
