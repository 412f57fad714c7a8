"""One incremental fold behind every journal rollup.

Every number a search is judged by — anomalies found, time to first
anomaly (Fig. 4), Metropolis acceptance and per-dimension mutation
effect (Fig. 5), workload-space coverage, p99 latency — is defined
here once: :meth:`JournalRollup.add` folds one record at a time into a
small state object, and every rollup reader reads that state.  Post-hoc
readers (``report``, ``stats``, ``coverage``, ``journal diff``, the
canary, :mod:`repro.obs.sadiag`) run the fold over a finished file
(:func:`fold_records`); the live
:class:`~repro.obs.aggregate.CampaignAggregator` feeds it records as
they land — so live and post-hoc views agree by construction.

The state grows with the journal's *shape* (runs, chains, temperature
epochs, dimensions, symptoms, workers), not its length; the one
exception is the flat list of p99s the exact median needs.  No record
is retained.  Runs (and their coverage trackers) read back in
:func:`~repro.obs.journal.run_records` order — chains by first
appearance, then runs within each chain — which keeps the coverage
mean's floating-point sum bit-identical to the post-hoc grouping.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Iterable, Optional

from repro.analysis.serialize import mfs_from_dict, workload_from_dict
from repro.obs.coverage import CoverageTracker
from repro.obs.profiler import self_times

#: Metropolis decisions (the acceptance-rate denominator) → the
#: :class:`DimensionStats` field each one bumps.  restart, reheat and
#: exchange are schedule events, not decisions.
DECISION_ACTIONS = {
    "improve": "improvements", "accept": "accepts", "reject": "rejects",
}

HEALTHY = "healthy"

#: Most recent anomalous experiments kept for the live timeline.
TIMELINE_TAIL = 8


@dataclasses.dataclass
class EpochStats:
    """One temperature epoch: consecutive transitions at one temperature."""

    temperature: float
    improve: int = 0
    accept: int = 0
    reject: int = 0
    restart: int = 0
    reheat: int = 0
    exchange: int = 0  #: replica swaps adopted (tempering runs only).

    @property
    def decisions(self) -> int:
        return self.improve + self.accept + self.reject

    @property
    def acceptance_rate(self) -> Optional[float]:
        if self.decisions == 0:
            return None
        return (self.improve + self.accept) / self.decisions


@dataclasses.dataclass
class DimensionStats:
    """Mutation outcomes attributed to one mutated dimension."""

    dimension: str
    mutations: int = 0
    improvements: int = 0
    accepts: int = 0
    rejects: int = 0

    @property
    def effectiveness(self) -> Optional[float]:
        if self.mutations == 0:
            return None
        return self.improvements / self.mutations


@dataclasses.dataclass
class ChainDiagnostics:
    """One population chain's slice of the SA diagnostic fold."""

    chain: Optional[int]  #: None for unstamped (pre-population) journals.
    t0: Optional[float]  #: hottest transition temperature = ladder rung.
    decisions: int
    acceptance: Optional[float]
    exchanges: int  #: replica swaps this chain adopted (tempering).
    dimensions: list  #: per-chain :class:`DimensionStats`, best first.
    ttfa: Optional[float]

    @property
    def best_dimension(self) -> Optional[str]:
        return self.dimensions[0].dimension if self.dimensions else None


@dataclasses.dataclass
class RunRollup:
    """One run (a ``run_start`` and what its chain stream journals after)."""

    seed: Optional[int]
    tracker: CoverageTracker
    #: True once the run's ``run_end`` arrived (False = crashed/in flight).
    complete: bool = False


@dataclasses.dataclass
class _ChainState:
    """One chain stream's runs, SA tallies and first anomaly."""

    chain: Optional[int]
    runs: list = dataclasses.field(default_factory=list)
    t0: Optional[float] = None
    decisions: int = 0
    accepted: int = 0
    exchanges: int = 0
    dimensions: dict = dataclasses.field(default_factory=dict)
    ttfa: Optional[float] = None

    @property
    def run(self) -> Optional[RunRollup]:
        """The run this stream's records currently belong to."""
        return self.runs[-1] if self.runs else None


def mfs_shape_key(mfs_record: dict) -> str:
    """Canonical shape label of one journaled MFS.

    The shape abstracts the region away from its exact bounds: symptom
    class, how many interval and membership conditions constrain it,
    and whether it needs a mixed message pattern.  Refactors that move a
    bound slightly keep the shape; refactors that change *what kind* of
    anomaly regions the search extracts do not — which is exactly the
    granularity the canary's population gate wants.
    """
    return (
        f"{mfs_record.get('symptom', '?')}"
        f"|i{len(mfs_record.get('intervals', ()))}"
        f"|m{len(mfs_record.get('memberships', ()))}"
        f"|x{int(bool(mfs_record.get('requires_mix')))}"
    )


def _sorted_dimensions(stats: Iterable[DimensionStats]) -> list:
    """Copies, most effective dimension first (ties broken by name)."""
    return sorted(
        map(dataclasses.replace, stats),
        key=lambda entry: (-(entry.effectiveness or 0.0), entry.dimension),
    )


class JournalRollup:
    """Incremental fold of journal records into every rollup."""

    def __init__(self) -> None:
        self.by_type: dict[str, int] = {}
        #: Chain stamp → stream state, in first-appearance order.
        self._chains: dict = {}
        self.epochs: list[EpochStats] = []
        self._dimensions: dict[str, DimensionStats] = {}
        self.ttfa: Optional[float] = None
        self._ttfa_by_symptom: dict[str, float] = {}
        #: ``(interference, time_seconds)`` of the worst co-run experiment.
        self.worst_interference: Optional[tuple] = None
        self.isolation_experiments = 0
        #: p99 of every latency record, in journal order.
        self.p99s: list[float] = []
        self.inflation_max: Optional[float] = None
        self.latency_quirks = 0
        #: ``run_end`` elapsed seconds, summed at read like a post-hoc sum.
        self._elapsed: list[float] = []
        self._span_totals: dict[str, float] = {}
        self._shapes: dict[str, int] = {}
        self._sizes: dict[int, int] = {}
        #: Worker slot → latest heartbeat ``(done, total, wall_time)``.
        self.heartbeats: dict[int, tuple] = {}
        self.cache_lookups = 0
        self.cache_hits = 0
        self.anomalous_experiments = 0
        #: The most recent anomalous experiments, oldest first.
        self.timeline: deque = deque(maxlen=TIMELINE_TAIL)

    # -- ingest -------------------------------------------------------------

    def add(self, record: dict) -> None:
        """Fold one record into the state."""
        kind = record.get("t", "?")
        self.by_type[kind] = self.by_type.get(kind, 0) + 1
        chain = record.get("chain")
        state = self._chains.get(chain)
        if state is None:
            state = self._chains[chain] = _ChainState(chain)
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self, record, state)

    def _run_start(self, record: dict, state: _ChainState) -> None:
        state.runs.append(RunRollup(
            seed=record.get("seed"),
            tracker=CoverageTracker.for_subsystem(record["subsystem"]),
        ))

    def _run_end(self, record: dict, state: _ChainState) -> None:
        if state.run is not None:
            state.run.complete = True
        self._elapsed.append(float(record.get("elapsed_seconds", 0.0)))

    def _experiment(self, record: dict, state: _ChainState) -> None:
        symptom = record.get("symptom", HEALTHY)
        if symptom != HEALTHY:
            seconds = float(record["time_seconds"])
            if self.ttfa is None:
                self.ttfa = seconds
            if state.ttfa is None:
                state.ttfa = seconds
            self._ttfa_by_symptom.setdefault(symptom, seconds)
            self.anomalous_experiments += 1
            self.timeline.append({
                "chain": state.chain,
                "time_seconds": record["time_seconds"],
                "symptom": symptom,
                "counter": record.get("counter", "?"),
                "counter_value": record.get("counter_value", 0.0),
            })
        interference = record.get("interference")
        if interference is not None:
            value = float(interference)
            # NaN marks the zero-fair-share sentinel: an undefined
            # comparison, not a deep cut into the victim.
            if math.isfinite(value):
                self.isolation_experiments += 1
                worst = self.worst_interference
                if worst is None or value < worst[0]:
                    self.worst_interference = (
                        value, float(record["time_seconds"])
                    )
        if state.run is not None:
            state.run.tracker.visit(workload_from_dict(record["workload"]))

    def _skip(self, record: dict, state: _ChainState) -> None:
        if state.run is not None:
            workload = record.get("workload")
            state.run.tracker.skip(
                workload_from_dict(workload) if workload is not None else None
            )

    def _anomaly(self, record: dict, state: _ChainState) -> None:
        mfs = record.get("mfs", {})
        key = mfs_shape_key(mfs)
        self._shapes[key] = self._shapes.get(key, 0) + 1
        size = (
            len(mfs.get("intervals", ()))
            + len(mfs.get("memberships", ()))
            + (1 if mfs.get("requires_mix") else 0)
        )
        self._sizes[size] = self._sizes.get(size, 0) + 1
        if state.run is not None:
            state.run.tracker.mark_mfs(mfs_from_dict(record["mfs"]))

    def _transition(self, record: dict, state: _ChainState) -> None:
        temperature = float(record["temperature"])
        action = record["action"]
        if not self.epochs or self.epochs[-1].temperature != temperature:
            self.epochs.append(EpochStats(temperature=temperature))
        epoch = self.epochs[-1]
        setattr(epoch, action, getattr(epoch, action) + 1)
        if state.t0 is None or temperature > state.t0:
            state.t0 = temperature
        if action == "exchange":
            state.exchanges += 1
        outcome = DECISION_ACTIONS.get(action)
        if outcome is None:
            return
        state.decisions += 1
        if action != "reject":
            state.accepted += 1
        for dimension in record.get("mutated", ()):
            for stats in (self._dimensions, state.dimensions):
                entry = stats.get(dimension) or stats.setdefault(
                    dimension, DimensionStats(dimension)
                )
                entry.mutations += 1
                setattr(entry, outcome, getattr(entry, outcome) + 1)

    def _latency(self, record: dict, state: _ChainState) -> None:
        self.p99s.append(float(record["p99_us"]))
        inflation = float(record["inflation"])
        if self.inflation_max is None or inflation > self.inflation_max:
            self.inflation_max = inflation
        if record.get("tags"):
            self.latency_quirks += 1

    def _spans(self, record: dict, state: _ChainState) -> None:
        totals = self._span_totals
        for path, _start, duration in record["events"]:
            path = str(path)
            totals[path] = totals.get(path, 0.0) + float(duration)

    def _heartbeat(self, record: dict, state: _ChainState) -> None:
        self.heartbeats[int(record["worker"])] = (
            int(record["done"]),
            int(record["total"]),
            float(record["wall_time"]),
        )

    def _cache(self, record: dict, state: _ChainState) -> None:
        self.cache_lookups += 1
        if record.get("hit"):
            self.cache_hits += 1

    # -- reads --------------------------------------------------------------

    def count(self, kind: str) -> int:
        return self.by_type.get(kind, 0)

    @property
    def records(self) -> int:
        return sum(self.by_type.values())

    def runs(self) -> list[RunRollup]:
        """Every run, in :func:`~repro.obs.journal.run_records` order."""
        return [run for state in self._chains.values() for run in state.runs]

    def complete_runs(self) -> int:
        return sum(1 for run in self.runs() if run.complete)

    def coverage_trackers(self) -> list[CoverageTracker]:
        return [run.tracker for run in self.runs()]

    def coverage_fraction(self) -> Optional[float]:
        """Mean over runs of each run's touched fraction (None: no runs)."""
        trackers = self.coverage_trackers()
        if not trackers:
            return None
        return sum(t.touched_fraction() for t in trackers) / len(trackers)

    def acceptance_rate(self) -> Optional[float]:
        decided = sum(state.decisions for state in self._chains.values())
        accepted = sum(state.accepted for state in self._chains.values())
        return accepted / decided if decided else None

    def mutation_effectiveness(self) -> list[DimensionStats]:
        return _sorted_dimensions(self._dimensions.values())

    def chain_diagnostics(self) -> list[ChainDiagnostics]:
        return [
            ChainDiagnostics(
                chain=state.chain,
                t0=state.t0,
                decisions=state.decisions,
                acceptance=(
                    state.accepted / state.decisions
                    if state.decisions else None
                ),
                exchanges=state.exchanges,
                dimensions=_sorted_dimensions(state.dimensions.values()),
                ttfa=state.ttfa,
            )
            for state in self._chains.values()
        ]

    def ttfa_by_symptom(self) -> dict:
        """Symptom → first-hit seconds, earliest first."""
        return dict(
            sorted(self._ttfa_by_symptom.items(), key=lambda item: item[1])
        )

    def latency_p99_median(self) -> Optional[float]:
        """Exact median of the p99s (mean of the middle two when even)."""
        if not self.p99s:
            return None
        ordered = sorted(self.p99s)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def latency_metrics(self) -> dict:
        return {
            "latency_records": len(self.p99s),
            "latency_p99_us_median": self.latency_p99_median(),
            "latency_inflation_max": self.inflation_max,
        }

    def isolation_metrics(self) -> dict:
        worst = self.worst_interference
        return {
            "isolation_experiments": self.isolation_experiments,
            "interference_min": worst[0] if worst is not None else None,
        }

    def mfs_shape_counts(self) -> dict:
        return dict(sorted(self._shapes.items()))

    def mfs_condition_sizes(self) -> list[int]:
        return [
            size for size, count in sorted(self._sizes.items())
            for _ in range(count)
        ]

    def summary(self) -> dict:
        """Shape overview: record counts, runs, complete/crashed runs."""
        runs = self.count("run_start")
        complete = self.complete_runs()
        return {
            "records": self.records,
            "runs": runs,
            "complete_runs": complete,
            "crashed_runs": runs - complete,
            "experiments": self.count("experiment"),
            "anomalies": self.count("anomaly"),
            "transitions": self.count("transition"),
            "skips": self.count("skip"),
            "cache_events": self.count("cache"),
            "retries": self.count("retry"),
            "quarantines": self.count("quarantine"),
            "heartbeats": self.count("heartbeat"),
            "by_type": dict(sorted(self.by_type.items())),
        }

    def metrics(self) -> dict:
        """The comparable metric dict ``journal diff`` and the canary gate."""
        metrics = {
            "anomalies": self.count("anomaly"),
            "time_to_first_anomaly_seconds": self.ttfa,
            "coverage_fraction": self.coverage_fraction(),
            "experiments": self.count("experiment"),
            "skips": self.count("skip"),
            "elapsed_seconds": sum(self._elapsed),
            "acceptance_rate": self.acceptance_rate(),
            "span_self_seconds": dict(sorted(self_times(
                (path, 0.0, total)
                for path, total in self._span_totals.items()
            ).items())),
            "mfs_shape_counts": self.mfs_shape_counts(),
            "mfs_condition_sizes": self.mfs_condition_sizes(),
        }
        metrics.update(self.latency_metrics())
        metrics.update(self.isolation_metrics())
        return metrics


#: Record kind → the fold step it takes (other kinds are only counted).
_HANDLERS = {
    kind: getattr(JournalRollup, f"_{kind}")
    for kind in (
        "run_start", "run_end", "experiment", "skip", "anomaly",
        "transition", "latency", "spans", "heartbeat", "cache",
    )
}


def fold_records(records: Iterable[dict]) -> JournalRollup:
    """Run the fold over a finished journal's records."""
    rollup = JournalRollup()
    for record in records:
        rollup.add(record)
    return rollup
