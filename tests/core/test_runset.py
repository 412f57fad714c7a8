"""The merge rules every multi-run driver shares through ``RunSet``."""

import pytest

from repro.analysis.campaign import run_campaign
from repro.core import RunSet
from repro.core.parallel import ParallelCollie
from repro.core.population import PopulationCollie

DRIVERS = {
    "campaign": lambda: run_campaign(
        "collie", subsystem="H", seeds=(4, 5, 6), budget_hours=0.3
    ),
    "population": lambda: PopulationCollie(
        "H", chains=3, budget_hours=0.3, seed=4
    ).run(),
    "parallel": lambda: ParallelCollie(
        "H", machines=2, chains=2, budget_hours=0.3, seed=1
    ).run(),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_merge_rules(driver):
    runs = DRIVERS[driver]()
    assert isinstance(runs, RunSet)
    assert len(runs.reports) > 1

    # One distinct seed per report.
    assert len(runs.seeds) == len(runs.reports) == len(set(runs.seeds))

    # A tag is found at its earliest discovery on any run.
    earliest: dict = {}
    for report in runs.reports:
        for tag, seconds in report.first_hit_times().items():
            earliest[tag] = min(seconds, earliest.get(tag, seconds))
    assert earliest
    assert runs.first_hit_times() == earliest
    assert runs.found_tags() == sorted(earliest)

    # Every run's events, interleaved chronologically.
    events = runs.events()
    assert len(events) == sum(len(r.events) for r in runs.reports)
    times = [event.time_seconds for event in events]
    assert times == sorted(times)

    # Runs share the wall clock; their experiments add up.
    assert runs.elapsed_seconds == max(
        r.elapsed_seconds for r in runs.reports
    )
    assert runs.total_experiments == sum(
        r.experiments for r in runs.reports
    )
