"""Campaign orchestration."""

import pytest

from repro.analysis.campaign import APPROACHES, compare, run_campaign


class TestRunCampaign:
    def test_unknown_approach_rejected(self):
        with pytest.raises(KeyError, match="choose from"):
            run_campaign("quantum-annealing")

    def test_registry_covers_the_figure_variants(self):
        assert {"random", "bayesopt", "bayesopt+mfs", "sa-perf",
                "sa-diag", "collie-perf", "collie"} <= set(APPROACHES)

    def test_campaign_aggregation(self):
        result = run_campaign(
            "random", subsystem="H", seeds=(1, 2), budget_hours=1.0
        )
        assert result.seeds == [1, 2]
        assert result.mean_found() >= 1
        assert set(result.found_tags()) >= set(result.per_seed_hits()[0])

    def test_custom_factory(self):
        calls = []

        def factory(subsystem, hours, seed):
            calls.append((subsystem, hours, seed))
            return run_campaign(
                "random", subsystem, (seed,), hours
            ).reports[0]

        run_campaign("custom", "H", seeds=(7,), budget_hours=0.5,
                     factory=factory)
        assert calls == [("H", 0.5, 7)]

    def test_series_feeds_figures(self):
        result = run_campaign(
            "collie", subsystem="H", seeds=(1,), budget_hours=1.0
        )
        series = result.series(max_anomalies=5)
        assert series.approach == "collie"
        assert len(series.mean_hours) == 5


class TestCompare:
    def test_one_series_per_approach(self):
        series = compare(
            ("random", "collie"), subsystem="H", seeds=(1,),
            budget_hours=1.0, max_anomalies=5,
        )
        assert [s.approach for s in series] == ["random", "collie"]
