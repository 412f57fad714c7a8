"""The parallel-fleet extension (§8)."""

import pytest

from repro.core.parallel import ParallelCollie


class TestConfiguration:
    def test_machine_count_validation(self):
        with pytest.raises(ValueError):
            ParallelCollie("F", machines=0)

    def test_partition_is_round_robin_and_covers_all(self):
        fleet = ParallelCollie("F", machines=3)
        ranked = ["a", "b", "c", "d", "e"]
        shares = fleet._partition(ranked)
        assert shares == [("a", "d"), ("b", "e"), ("c",)]
        assert sorted(sum(shares, ())) == sorted(ranked)

    def test_more_machines_than_counters(self):
        fleet = ParallelCollie("F", machines=5)
        shares = fleet._partition(["a", "b"])
        assert shares == [("a",), ("b",)]  # idle machines dropped


@pytest.fixture(scope="module")
def fleet_driver():
    return ParallelCollie("H", machines=2, budget_hours=1.5, seed=3)


@pytest.fixture(scope="module")
def small_fleet(fleet_driver):
    return fleet_driver.run()


class TestRun:
    def test_one_report_per_busy_machine(self, fleet_driver, small_fleet):
        assert 1 <= len(small_fleet.reports) <= 2
        assert fleet_driver.machines == 2

    def test_machines_search_disjoint_counters(self, small_fleet):
        rankings = [set(r.counter_ranking) for r in small_fleet.reports]
        for i, a in enumerate(rankings):
            for b in rankings[i + 1:]:
                assert not a & b

    def test_wall_clock_is_concurrent_not_additive(self, small_fleet):
        assert small_fleet.elapsed_seconds <= 1.5 * 3600 + 60
        assert small_fleet.total_experiments > max(
            r.experiments for r in small_fleet.reports
        )

    def test_merged_hits_take_earliest_time(self, small_fleet):
        merged = small_fleet.first_hit_times()
        for tag, seconds in merged.items():
            per_machine = [
                r.first_hit_times()[tag]
                for r in small_fleet.reports
                if tag in r.first_hit_times()
            ]
            assert seconds == min(per_machine)

    def test_finds_anomalies(self, small_fleet):
        assert len(small_fleet.found_tags()) >= 2

    def test_events_merged_chronologically(self, small_fleet):
        times = [e.time_seconds for e in small_fleet.events()]
        assert times == sorted(times)

    def test_one_chain_machine_m_seeds_at_seed_times_1000_plus_m(
        self, small_fleet
    ):
        assert small_fleet.seeds == [3000, 3001][:len(small_fleet.reports)]


class TestFleetSeeds:
    def test_chains_of_different_machines_never_share_a_seed(self):
        """Chain c of machine m seeds at seed*1000 + m*chains + c.

        Seeding at seed*1000 + m + c ran machine 0's chain 1 and machine
        1's chain 0 at the same seed: identical probe workloads, and two
        journal runs under one seed.  Their counter shares differ, so
        only the ranking probes show a shared seed.
        """
        runs = ParallelCollie(
            "H", machines=2, chains=2, budget_hours=0.2, seed=0
        ).run()
        assert runs.seeds == [0, 1, 2, 3]
        machine0_chain1, machine1_chain0 = runs.reports[1], runs.reports[2]
        assert (
            machine0_chain1.events[0].workload
            != machine1_chain0.events[0].workload
        )


class TestScaling:
    def test_fleet_beats_single_machine(self):
        """The §8 claim: a fleet with per-machine counter shares finds
        more of the table in the same wall-clock budget."""
        single = ParallelCollie("F", machines=1, budget_hours=4.0, seed=5).run()
        fleet = ParallelCollie("F", machines=9, budget_hours=4.0, seed=5).run()
        assert len(fleet.found_tags()) >= len(single.found_tags())
        assert fleet.elapsed_seconds <= 4.0 * 3600 + 60
