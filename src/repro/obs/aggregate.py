"""Live multiplexing of campaign journals into one telemetry view.

A ``campaign``/``parallel``/population run writes one journal (or, for
an operator watching several fleets, many); the exporter and the
``repro top`` dashboard both want a single rollup: how many experiments
and anomalies so far, which workers are alive, what the tail latency
and cache hit rate look like *right now*.  :class:`CampaignAggregator`
owns one :class:`~repro.obs.stream.JournalFollower` and one
:class:`~repro.obs.rollup.JournalRollup` per journal and feeds each
record to the fold exactly once, on arrival:

* **per-source rollups** are reads of that fold — the same fold the
  post-hoc readers (``repro report``, ``journal diff``, the canary,
  :mod:`repro.obs.sadiag`) run over a finished file, so live and
  post-hoc numbers agree by construction; a scrape costs O(records
  since the last scrape), and no record is retained;
* **per-worker liveness** reads the latest schema-v7 ``heartbeat`` per
  (source, worker slot); its wall-clock age classifies a worker alive
  or stale;
* **streaming tail latency** merges every source's new p99s into one
  :class:`~repro.obs.metrics.HistogramSummary` across sources;
* an **anomaly timeline tail** keeps the most recent anomalous
  experiments for the dashboard.

The aggregator is strictly a *reader*: it never touches the writer's
process, RNG, or journal, so an aggregated run stays bit-identical to
an unobserved one.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from typing import Optional, Sequence, Union

from repro.obs.metrics import HistogramSummary
from repro.obs.rollup import TIMELINE_TAIL, JournalRollup
from repro.obs.stream import JournalFollower

#: A worker whose last heartbeat is older than this many wall-clock
#: seconds is reported stale (the default ``repro top`` threshold).
DEFAULT_STALE_AFTER = 30.0


@dataclasses.dataclass
class WorkerLiveness:
    """Latest heartbeat of one (source, worker-slot) pair."""

    source: str
    worker: int
    done: int
    total: int
    wall_time: float

    def age_seconds(self, now: float) -> float:
        return max(0.0, now - self.wall_time)

    def alive(self, now: float, stale_after: float) -> bool:
        return self.age_seconds(now) <= stale_after


class _Source:
    """One followed journal and its fold."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.follower = JournalFollower(path)
        self.rollup = JournalRollup()
        self.error: Optional[str] = None


class CampaignAggregator:
    """Fold one or more live journals into a single telemetry snapshot."""

    def __init__(
        self,
        paths: Sequence[Union[str, os.PathLike]],
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        self.sources = [_Source(os.fspath(p)) for p in paths]
        self.stale_after = stale_after
        #: Most recent anomalous experiments, oldest first.
        self.timeline: deque = deque(maxlen=TIMELINE_TAIL)
        #: p99 of every latency record seen, merged across sources.
        self.latency_p99 = HistogramSummary()

    # -- ingest -------------------------------------------------------------

    def refresh(self) -> int:
        """Poll every source; returns how many new records arrived."""
        fresh_total = 0
        for source in self.sources:
            try:
                fresh = source.follower.poll()
            except ValueError as error:  # mid-file corruption
                source.error = str(error)
                continue
            rollup = source.rollup
            anomalies = rollup.anomalous_experiments
            latencies = len(rollup.p99s)
            for record in fresh:
                rollup.add(record)
            new_anomalies = rollup.anomalous_experiments - anomalies
            if new_anomalies:
                self.timeline.extend(
                    {"source": source.path, **entry}
                    for entry in list(rollup.timeline)[-new_anomalies:]
                )
            for p99 in rollup.p99s[latencies:]:
                self.latency_p99.observe(p99)
            fresh_total += len(fresh)
        return fresh_total

    # -- read side ----------------------------------------------------------

    def cache_hit_rate(self) -> Optional[float]:
        lookups = sum(s.rollup.cache_lookups for s in self.sources)
        hits = sum(s.rollup.cache_hits for s in self.sources)
        return hits / lookups if lookups else None

    def workers(self) -> list[WorkerLiveness]:
        """Latest heartbeat per (source, worker slot), sorted."""
        return sorted(
            (
                WorkerLiveness(source.path, worker, done, total, wall_time)
                for source in self.sources
                for worker, (done, total, wall_time)
                in source.rollup.heartbeats.items()
            ),
            key=lambda beat: (beat.source, beat.worker),
        )

    def snapshot(self, now: Optional[float] = None) -> dict:
        """The whole telemetry view as one JSON-able dict.

        ``now`` (wall clock) anchors heartbeat ages; injectable so the
        liveness classification is testable without sleeping.
        """
        now = time.time() if now is None else now
        sources = []
        totals = {
            "experiments": 0, "anomalies": 0, "skips": 0,
            "runs": 0, "complete_runs": 0, "records": 0,
        }
        ttfas: list[float] = []
        coverages: list[float] = []
        for source in self.sources:
            rollup = source.rollup
            entry = {
                "path": source.path,
                "records": rollup.records,
                "error": source.error,
                "runs": rollup.count("run_start"),
                "complete_runs": rollup.complete_runs(),
                "experiments": rollup.count("experiment"),
                "anomalies": rollup.count("anomaly"),
                "skips": rollup.count("skip"),
                "time_to_first_anomaly_seconds": rollup.ttfa,
                "coverage_fraction": rollup.coverage_fraction(),
                "acceptance_rate": rollup.acceptance_rate(),
                "latency_p99_us_median": rollup.latency_p99_median(),
            }
            sources.append(entry)
            for key in ("experiments", "anomalies", "skips", "runs",
                        "complete_runs", "records"):
                totals[key] += entry[key]
            ttfa = entry["time_to_first_anomaly_seconds"]
            if ttfa is not None:
                ttfas.append(float(ttfa))
            if entry["coverage_fraction"] is not None:
                coverages.append(float(entry["coverage_fraction"]))
        workers = [
            {
                "source": beat.source,
                "worker": beat.worker,
                "done": beat.done,
                "total": beat.total,
                "wall_time": beat.wall_time,
                "age_seconds": beat.age_seconds(now),
                "alive": beat.alive(now, self.stale_after),
            }
            for beat in self.workers()
        ]
        totals.update({
            "time_to_first_anomaly_seconds": min(ttfas) if ttfas else None,
            "coverage_fraction": max(coverages) if coverages else None,
            "cache_hit_rate": self.cache_hit_rate(),
            "latency_p99_us": (
                self.latency_p99.percentile(0.99)
                if self.latency_p99.count else None
            ),
            "latency_records": self.latency_p99.count,
            "workers_alive": sum(1 for w in workers if w["alive"]),
            "workers_total": len(workers),
        })
        return {
            "sources": sources,
            "totals": totals,
            "workers": workers,
            "timeline": list(self.timeline),
            "stale_after": self.stale_after,
        }

    def chain_diagnostics(self) -> list:
        """Per-chain SA rows across every source (``repro top``)."""
        return [
            (source.path, diag)
            for source in self.sources
            for diag in source.rollup.chain_diagnostics()
        ]
