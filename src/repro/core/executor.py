"""Process-parallel campaign execution, bit-identical to serial runs.

The paper argues for fleet-parallel search (§8); this repo's campaigns —
multi-seed Figure 4/5 benches, :mod:`repro.analysis.campaign`, the
:class:`~repro.core.parallel.ParallelCollie` machine fleet — are
embarrassingly parallel across seeds/machines, yet ran serially.

:class:`CampaignExecutor` fans an ordered list of picklable task
payloads across :class:`concurrent.futures.ProcessPoolExecutor` workers
and returns results in task order.  Determinism contract: every task
carries its *own* seed and the worker constructs its
``numpy.random.Generator`` from that seed inside the task function —
never from process-global RNG state — so a task's result is a pure
function of its payload and fan-out is bit-identical to a serial loop
(the determinism suite pins this for Collie, random and GA campaigns).

That same purity makes the executor *fault-tolerant*: re-running a
failed attempt reproduces the lost result exactly, so an attached
:class:`~repro.core.faults.RetryPolicy` buys per-task timeouts, bounded
retries with deterministic exponential backoff, and graceful
degradation — tasks are sharded round-robin over *virtual hosts* (one
per worker slot), a host that keeps failing is quarantined after
``quarantine_after`` failed attempts, and its shard is redistributed
across the remaining healthy hosts.  Every retry and quarantine
decision is journaled (``retry``/``quarantine`` records) and counted
(``faults.*`` metrics).  A seeded
:class:`~repro.core.faults.FaultPlan` injects crashes, hangs, transient
errors and slow-host degradation at reproducible points, which is how
the chaos suite pins the exact retry/quarantine trajectory.

When process pools are unavailable (restricted sandboxes), the executor
degrades to an in-process serial loop and records that it did.

:func:`fan_out` is the one driver-side wrapper around :meth:`map` that
campaigns and the machine fleet share: per-task cache warm-start and
hand-back, journaling in seed order, and the merged
:class:`~repro.core.runset.RunSet`.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Callable, Optional, Sequence

from repro.core.evalcache import EvalCache
from repro.core.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RETRYABLE_ERRORS,
    TaskFailed,
    TaskHang,
    TaskTimeout,
    WorkerCrash,
    raise_fault,
)
from repro.core.runset import RunSet

#: Reusable no-op context for profiler-disabled span sites.
_NO_SPAN = nullcontext()


@dataclasses.dataclass
class ExecutorStats:
    """Wall-time and resilience accounting of one fan-out."""

    workers: int
    tasks: int
    wall_seconds: float = 0.0
    #: Sum of per-task in-worker durations — what a serial loop would
    #: roughly have cost; ``speedup`` compares it against wall time.
    busy_seconds: float = 0.0
    fell_back_serial: bool = False
    #: Failed attempts that were re-run (injected or real).
    retries: int = 0
    #: Retryable failures that were hangs/timeouts specifically.
    timeouts: int = 0
    #: Faults the attached FaultPlan injected (all kinds, incl. slow).
    injected_faults: int = 0
    #: Deterministic backoff schedule total (accrued even when the
    #: policy's base is 0 and no real sleeping happened).
    backoff_seconds: float = 0.0
    #: Virtual hosts quarantined, in decision order.
    quarantined_hosts: tuple = ()
    #: Tasks moved off a quarantined host onto a healthy one.
    redistributed_tasks: int = 0

    @property
    def speedup(self) -> float:
        if self.wall_seconds <= 0:
            return 1.0
        return self.busy_seconds / self.wall_seconds

    def describe(self) -> str:
        mode = "serial (fallback)" if self.fell_back_serial else (
            "serial" if self.workers <= 1 else f"{self.workers} workers"
        )
        line = (
            f"{self.tasks} tasks via {mode}: "
            f"{self.wall_seconds:.3f}s wall, "
            f"{self.busy_seconds:.3f}s busy, "
            f"{self.speedup:.2f}x parallel speedup"
        )
        if self.retries:
            line += (
                f", {self.retries} retried attempt(s) "
                f"({self.backoff_seconds:.3f}s backoff)"
            )
        if self.quarantined_hosts:
            line += (
                f", {len(self.quarantined_hosts)} host(s) quarantined "
                f"({self.redistributed_tasks} task(s) redistributed)"
            )
        return line


def _timed_call(fn: Callable, payload) -> tuple:
    """Run one task in the worker, returning (result, in-worker seconds)."""
    started = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - started


def _faulted_call(
    fn: Callable,
    payload,
    fault: Optional[FaultSpec],
    slow: Optional[FaultSpec],
) -> tuple:
    """Worker-side twin of :func:`_timed_call` with fault injection.

    A failing fault raises before the task body runs (the attempt's
    result is lost either way, so nothing is computed for it); a
    ``slow`` spec stalls the worker and inflates the reported duration
    without touching the result.
    """
    if fault is not None:
        raise_fault(fault)
    started = time.perf_counter()
    result = fn(payload)
    seconds = time.perf_counter() - started
    if slow is not None:
        if slow.seconds > 0:
            time.sleep(slow.seconds)
        seconds = seconds * slow.factor + slow.seconds
    return result, seconds


class CampaignExecutor:
    """Deterministic fan-out of campaign tasks across worker processes.

    ``workers <= 1`` runs the tasks serially in-process — the reference
    behaviour the parallel path must reproduce bit-for-bit.  Attaching
    a ``retry`` policy (or a fault ``plan``) switches ``map`` onto the
    resilient scheduling loop; without either, the legacy fail-fast
    paths run unchanged.
    """

    def __init__(
        self,
        workers: int = 1,
        metrics=None,
        progress: Optional[Callable[[int, int], None]] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        recorder=None,
        profiler=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.last_stats: Optional[ExecutorStats] = None
        #: Optional obs.MetricsRegistry accounting fan-out wall time.
        self.metrics = metrics
        #: Optional ``progress(done, total)`` callback, invoked in the
        #: parent as each task's result lands (task order).
        self.progress = progress
        #: Resilience policy; None = legacy fail-fast behaviour.
        self.retry = retry
        #: Deterministic fault injection plan (chaos testing).
        self.faults = faults
        #: Optional FlightRecorder journaling retry/quarantine records.
        #: When set, fault metrics route through it (its registry is
        #: usually the same object as ``metrics`` — never count twice).
        self.recorder = recorder
        #: Optional obs.SpanProfiler ("pool" spans around each fan-out);
        #: defaults to the recorder's profiler when one is attached.
        self.profiler = (
            profiler if profiler is not None
            else getattr(recorder, "profiler", None)
        )

    def map(self, fn: Callable, payloads: Sequence) -> list:
        """Apply ``fn`` to every payload; results come back in order.

        ``fn`` must be a module-level callable and each payload picklable
        when ``workers > 1`` (the standard multiprocessing contract).
        Without a retry policy a worker exception propagates to the
        caller after the pool drains; with one, retryable failures are
        re-attempted within the policy's budget and only
        :class:`~repro.core.faults.TaskFailed` (budget exhausted) or a
        fatal error propagates.
        """
        payloads = list(payloads)
        stats = ExecutorStats(
            workers=min(self.workers, max(len(payloads), 1)),
            tasks=len(payloads),
        )
        started = time.perf_counter()
        resilient = self.retry is not None or self.faults is not None
        with (
            self.profiler.span("pool")
            if self.profiler is not None else _NO_SPAN
        ):
            if resilient and payloads:
                results = self._run_resilient(fn, payloads, stats)
            elif self.workers <= 1 or len(payloads) <= 1:
                results = self._run_serial(fn, payloads, stats)
            else:
                results = self._run_pooled(fn, payloads, stats)
        stats.wall_seconds = time.perf_counter() - started
        self.last_stats = stats
        if self.metrics is not None:
            self.metrics.counter("executor.tasks", stats.tasks)
            self.metrics.gauge("executor.workers", stats.workers)
            self.metrics.observe("executor.wall_seconds", stats.wall_seconds)
            self.metrics.observe("executor.busy_seconds", stats.busy_seconds)
        return results

    # -- strategies ----------------------------------------------------------

    def _run_serial(self, fn, payloads, stats: ExecutorStats) -> list:
        results = []
        for payload in payloads:
            result, seconds = _timed_call(fn, payload)
            stats.busy_seconds += seconds
            results.append(result)
            self._task_done(len(results), stats, seconds)
        return results

    def _make_pool(self, tasks: int):
        try:
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.workers, tasks)
            )
        except (OSError, PermissionError, ValueError):
            return None

    def _run_pooled(self, fn, payloads, stats: ExecutorStats) -> list:
        pool = self._make_pool(len(payloads))
        if pool is None:
            # No process support here (restricted sandbox): same results,
            # serially — the determinism contract makes this transparent.
            stats.fell_back_serial = True
            return self._run_serial(fn, payloads, stats)
        with pool:
            futures = [
                pool.submit(_timed_call, fn, payload) for payload in payloads
            ]
            results = []
            for future in futures:  # submit order == task order
                result, seconds = future.result()
                stats.busy_seconds += seconds
                results.append(result)
                self._task_done(len(results), stats, seconds)
        return results

    # -- the resilient scheduling loop ---------------------------------------

    def _run_resilient(self, fn, payloads, stats: ExecutorStats) -> list:
        """Retry/timeout/backoff/quarantine scheduling.

        Tasks are sharded round-robin over virtual hosts (one per worker
        slot).  Attempts run in the pool when available; failures are
        handled *in task order* in the parent, which makes every retry,
        backoff and quarantine decision deterministic for a given fault
        plan regardless of real completion order.
        """
        policy = self.retry if self.retry is not None else RetryPolicy()
        plan = self.faults if self.faults is not None else FaultPlan()
        scheduler = _ResilientRun(self, fn, payloads, stats, policy, plan)
        try:
            return scheduler.run()
        finally:
            scheduler.shutdown()

    def _task_done(
        self, done: int, stats: ExecutorStats, seconds: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.observe("executor.task_seconds", seconds)
        if self.recorder is not None:
            # Liveness for the telemetry plane (a no-op unless the
            # recorder asked for heartbeats).  The worker slot is
            # derived from the deterministic task-order index, so
            # serial, pooled and resilient paths report identically.
            self.recorder.heartbeat(
                (done - 1) % stats.workers, done, stats.tasks
            )
        if self.progress is not None:
            self.progress(done, stats.tasks)

    # -- fault-event fan-in (journal via recorder, else bare metrics) --------

    def _on_injected(self, spec: FaultSpec, stats: ExecutorStats) -> None:
        stats.injected_faults += 1
        if self.recorder is not None:
            self.recorder.injected_fault(spec.kind)
        elif self.metrics is not None:
            self.metrics.counter("faults.injected", kind=spec.kind)

    def _on_retry(
        self, task: int, host: int, attempt: int, error: Exception,
        backoff: float, stats: ExecutorStats,
    ) -> None:
        stats.retries += 1
        stats.backoff_seconds += backoff
        kind = _error_kind(error)
        if kind in ("hang", "timeout"):
            stats.timeouts += 1
        if self.recorder is not None:
            self.recorder.retry(task, host, attempt, kind, backoff)
        elif self.metrics is not None:
            self.metrics.counter("faults.retries", kind=kind)
            self.metrics.observe("faults.backoff_seconds", backoff)

    def _on_quarantine(
        self, host: int, failures: int, redistributed: int,
        stats: ExecutorStats,
    ) -> None:
        stats.quarantined_hosts += (host,)
        stats.redistributed_tasks += redistributed
        if self.recorder is not None:
            self.recorder.quarantine(host, failures, redistributed)
        elif self.metrics is not None:
            self.metrics.counter("faults.quarantines")
            self.metrics.counter("faults.redistributed", redistributed)


def _cached_task(job: tuple) -> tuple:
    """Worker side of :func:`fan_out`: one task behind its own cache.

    ``warm`` is None without a cache; otherwise the task runs against a
    fresh :class:`~repro.core.evalcache.EvalCache` warm-started from
    those entries, and the entries it added plus its stats travel back.
    """
    task, payload, warm = job
    if warm is None:
        return task(payload, None), None, None
    cache = EvalCache()
    if warm:
        cache.import_entries(warm)
    reports = task(payload, cache)
    return reports, cache.export_entries(new_only=True), cache.stats_dict()


def fan_out(
    executor: CampaignExecutor,
    task: Callable,
    payloads: Sequence,
    seeds: Sequence[int],
    budget_hours: float,
    cache=None,
    recorder=None,
    replayed: Optional[dict] = None,
) -> RunSet:
    """Run independent searches across ``executor`` and merge them.

    ``task(payload, cache)`` is a module-level callable returning the
    list of reports one payload produced.  ``seeds`` names every report
    of the merged :class:`~repro.core.runset.RunSet`, in order;
    ``replayed`` maps the seeds already finished (a resumed campaign) to
    their reports, and the payloads' reports fill the remaining seeds in
    order.  ``cache`` warm-starts every task and absorbs what they
    computed.  ``recorder`` journals the fan-out and then every report
    in seed order — resumed and fresh alike, so a resumed journal
    re-renders identically to an uninterrupted one; a journal's file
    handle cannot travel into worker processes.
    """
    replayed = replayed or {}
    warm = cache.export_entries() if cache is not None else None
    jobs = [(task, payload, warm) for payload in payloads]
    outcomes = executor.map(_cached_task, jobs) if jobs else []
    stats = executor.last_stats if jobs else None
    fresh = iter([report for reports, _, _ in outcomes for report in reports])
    reports = [
        replayed[seed] if seed in replayed else next(fresh) for seed in seeds
    ]
    if recorder is not None:
        if stats is not None:
            recorder.fanout(stats)
        if replayed:
            recorder.metrics.counter("campaign.resumed_runs", len(replayed))
        for seed, report in zip(seeds, reports):
            recorder.record_report(report, budget_hours, seed=seed)
    if cache is not None:
        for _, entries, cache_stats in outcomes:
            if entries:
                cache.import_entries(entries)
            if cache_stats:
                cache.merge_stats(cache_stats)
    return RunSet(
        reports=reports,
        seeds=list(seeds),
        executor_stats=stats,
        resumed_seeds=tuple(seed for seed in seeds if seed in replayed),
    )


def _error_kind(error: Exception) -> str:
    """Stable short label of a retryable failure (journal/metrics key)."""
    from repro.core.faults import TransientEvalError

    if isinstance(error, TaskHang):
        return "hang"
    if isinstance(error, TaskTimeout):
        return "timeout"
    if isinstance(error, WorkerCrash):
        return "crash"
    if isinstance(error, TransientEvalError):
        return "transient"
    return type(error).__name__


class _ResilientRun:
    """One resilient ``map``: scheduling state and the retry loop."""

    def __init__(self, executor, fn, payloads, stats, policy, plan):
        self.executor = executor
        self.fn = fn
        self.payloads = payloads
        self.stats = stats
        self.policy = policy
        self.plan = plan
        self.tasks = len(payloads)
        self.hosts = stats.workers
        self.healthy = [True] * self.hosts
        self.failures = [0] * self.hosts
        #: Task → current virtual host (round-robin shards).
        self.assignment = [i % self.hosts for i in range(self.tasks)]
        #: Task → host its outstanding attempt was dispatched on (the
        #: host failures are charged to, even after redistribution).
        self.dispatched_host = list(self.assignment)
        self.attempts = [0] * self.tasks
        self.results: list = [None] * self.tasks
        self.completed = [False] * self.tasks
        self.pool = None
        self.futures: dict[int, concurrent.futures.Future] = {}
        if executor.workers > 1 and self.tasks > 1:
            self.pool = executor._make_pool(self.tasks)
            if self.pool is None:
                stats.fell_back_serial = True

    def shutdown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None

    # -- dispatch ------------------------------------------------------------

    def _attempt_faults(self, task: int):
        host = self.assignment[task]
        attempt = self.attempts[task]
        self.dispatched_host[task] = host
        fault = self.plan.fault_for(task, host, attempt)
        slow = self.plan.slowdown_for(task, host, attempt)
        if fault is not None:
            self.executor._on_injected(fault, self.stats)
        if slow is not None:
            self.executor._on_injected(slow, self.stats)
        return fault, slow

    def _submit(self, task: int) -> None:
        fault, slow = self._attempt_faults(task)
        self.futures[task] = self.pool.submit(
            _faulted_call, self.fn, self.payloads[task], fault, slow
        )

    def _wait(self, task: int):
        """Result of the task's outstanding pooled attempt."""
        future = self.futures.pop(task)
        try:
            return future.result(timeout=self.policy.timeout_seconds)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TaskTimeout(
                f"task {task} exceeded its "
                f"{self.policy.timeout_seconds:g}s timeout"
            ) from None
        except BrokenProcessPool:
            self._rebuild_pool(task)
            raise WorkerCrash(
                f"worker process died while running task {task}"
            ) from None

    def _rebuild_pool(self, failed_task: int) -> None:
        """Replace a broken pool and resubmit the innocent bystanders.

        Every outstanding future died with the pool; only
        ``failed_task`` is charged a failure — the others are resubmitted
        at their current attempt number, uncounted.
        """
        self.shutdown()
        self.pool = self.executor._make_pool(self.tasks)
        if self.pool is None:
            self.stats.fell_back_serial = True
            self.futures.clear()
            return
        for task in list(self.futures):
            del self.futures[task]
            self._submit(task)

    def _run_one(self, task: int):
        """One attempt of one task (pooled when a pool is up)."""
        if self.pool is not None:
            if task not in self.futures:
                self._submit(task)
            return self._wait(task)
        fault, slow = self._attempt_faults(task)
        return _faulted_call(self.fn, self.payloads[task], fault, slow)

    # -- failure handling ----------------------------------------------------

    def _quarantine_if_due(self, host: int) -> None:
        if self.failures[host] < self.policy.quarantine_after:
            return
        if not self.healthy[host]:
            return  # already quarantined; late failures change nothing
        if sum(self.healthy) <= 1:
            return  # never quarantine the last host standing
        self.healthy[host] = False
        survivors = [h for h in range(self.hosts) if self.healthy[h]]
        redistributed = 0
        for task in range(self.tasks):
            if not self.completed[task] and self.assignment[task] == host:
                self.assignment[task] = survivors[
                    redistributed % len(survivors)
                ]
                redistributed += 1
        self.executor._on_quarantine(
            host, self.failures[host], redistributed, self.stats
        )

    def _handle_failure(self, task: int, error: Exception) -> None:
        host = self.dispatched_host[task]
        self.failures[host] += 1
        self._quarantine_if_due(host)
        attempt = self.attempts[task]
        if attempt >= self.policy.max_retries:
            raise TaskFailed(task, attempt + 1, error) from error
        backoff = self.policy.backoff(attempt)
        self.executor._on_retry(
            task, host, attempt, error, backoff, self.stats
        )
        if self.policy.backoff_base > 0 and backoff > 0:
            time.sleep(backoff)
        self.attempts[task] += 1
        if self.pool is not None:
            self._submit(task)

    # -- the loop ------------------------------------------------------------

    def run(self) -> list:
        if self.pool is not None:
            for task in range(self.tasks):
                self._submit(task)
        done = 0
        for task in range(self.tasks):
            while True:
                try:
                    result, seconds = self._run_one(task)
                except RETRYABLE_ERRORS as error:
                    self._handle_failure(task, error)
                    continue
                self.results[task] = result
                self.completed[task] = True
                self.stats.busy_seconds += seconds
                done += 1
                self.executor._task_done(done, self.stats, seconds)
                break
        return self.results
