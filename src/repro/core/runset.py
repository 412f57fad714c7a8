"""One merged report for every multi-run driver.

``search --seeds``, ``search --chains``, ``parallel`` and ``campaign``
all run several independent searches concurrently — lockstep chains,
fleet machines or campaign seeds — and merge them the same way: a tag
is found at its earliest discovery on any run, events interleave
chronologically, experiments add up and simulated time is the longest
run (they share the wall clock).  :class:`RunSet` writes each of those
merge rules once; the drivers keep only their own facts (generations,
machines, ladder).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.core.annealing import TraceEvent, first_hit_times

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executor import ExecutorStats
    from repro.core.mfs import MinimalFeatureSet


@dataclasses.dataclass
class RunSet:
    """The reports of concurrent runs, each at its own seed."""

    reports: list  #: ``SearchReport``/``BaselineReport``, in seed order.
    seeds: list  #: the seed each report actually ran at.
    #: Fan-out accounting of the executor run that produced the reports
    #: (None for in-process drivers).
    executor_stats: Optional["ExecutorStats"] = None
    #: Seeds whose reports were replayed from a resume journal rather
    #: than recomputed (in seed order; empty for a fresh run).
    resumed_seeds: tuple = ()

    @property
    def anomalies(self) -> list["MinimalFeatureSet"]:
        return [mfs for report in self.reports for mfs in report.anomalies]

    @property
    def total_experiments(self) -> int:
        return sum(report.experiments for report in self.reports)

    @property
    def elapsed_seconds(self) -> float:
        """Max over runs: they run concurrently in simulated time."""
        return max(
            (report.elapsed_seconds for report in self.reports), default=0.0
        )

    def events(self) -> list[TraceEvent]:
        """Every run's events, merged chronologically (stable)."""
        merged = [event for report in self.reports for event in report.events]
        return sorted(merged, key=lambda event: event.time_seconds)

    def first_hit_times(self) -> dict:
        """Tag → earliest concurrent discovery time across runs."""
        return first_hit_times(self.events())

    def found_tags(self) -> list[str]:
        return sorted(self.first_hit_times())

    def per_seed_hits(self) -> list[dict]:
        return [report.first_hit_times() for report in self.reports]

    def mean_found(self) -> float:
        counts = [len(hits) for hits in self.per_seed_hits()]
        return sum(counts) / len(counts) if counts else 0.0
