"""The one journal fold: live and post-hoc views agree by construction,
and the live aggregator's state stays flat on a long journal."""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.journaldiff import journal_metrics
from repro.analysis.serialize import workload_to_dict
from repro.core.population import PopulationCollie
from repro.core.space import SearchSpace
from repro.obs import (
    CampaignAggregator,
    FlightRecorder,
    RunJournal,
    journal_summary,
    per_chain_diagnostics,
    read_journal,
)
from repro.obs.rollup import JournalRollup

CHAINS = 4


@pytest.fixture(scope="module")
def population_journal(tmp_path_factory):
    """A 4-chain tempering population journal (interleaved chains)."""
    path = tmp_path_factory.mktemp("rollup") / "population.jsonl"
    recorder = FlightRecorder(journal=RunJournal(path))
    PopulationCollie(
        "H", chains=CHAINS, budget_hours=2.0, seed=4, recorder=recorder,
        temperature_ladder=(1.0, 0.5, 0.25, 0.125), exchange_every=2,
    ).run()
    recorder.close()
    return path


def fold_in_chunks(source, tmp_path, parts):
    """Aggregate ``source`` as if it were written in ``parts`` torn chunks."""
    data = source.read_bytes()
    partial = tmp_path / "partial.jsonl"
    agg = CampaignAggregator([partial])
    step = max(1, len(data) // parts)
    for end in range(step, len(data) + step, step):
        partial.write_bytes(data[:end])
        agg.refresh()
    return agg


class TestPopulationLiveEqualsPostHoc:
    @pytest.mark.parametrize("parts", [1, 13])
    def test_source_rollup_equals_journal_metrics(
        self, population_journal, tmp_path, parts
    ):
        records = read_journal(population_journal)
        assert len({r.get("chain") for r in records}) == CHAINS
        agg = fold_in_chunks(population_journal, tmp_path, parts)
        expected = journal_metrics(records)
        shape = journal_summary(records)
        (source,) = agg.snapshot(now=0.0)["sources"]
        assert source["records"] == shape["records"]
        assert source["runs"] == shape["runs"] == CHAINS
        assert source["complete_runs"] == shape["complete_runs"] == CHAINS
        for key in ("experiments", "anomalies", "skips", "coverage_fraction",
                    "acceptance_rate", "time_to_first_anomaly_seconds",
                    "latency_p99_us_median"):
            assert source[key] == expected[key], key
        assert agg.sources[0].rollup.metrics() == expected

    @pytest.mark.parametrize("parts", [1, 13])
    def test_chain_diagnostics_equal_per_chain_diagnostics(
        self, population_journal, tmp_path, parts
    ):
        agg = fold_in_chunks(population_journal, tmp_path, parts)
        live = [diag for _, diag in agg.chain_diagnostics()]
        post_hoc = per_chain_diagnostics(read_journal(population_journal))
        assert [d.chain for d in post_hoc] == list(range(CHAINS))
        assert len({d.t0 for d in post_hoc}) == CHAINS  # one rung each
        assert sum(d.exchanges for d in post_hoc) > 0
        assert live == post_hoc


# -- memory and cost -------------------------------------------------------

#: Experiment + transition records in the long synthetic journal.
LONG_RECORDS = 200_000
SHORT_RECORDS = 50_000
#: Records per poll (one parsed chunk, shared by every poll).
CHUNK = 1_000


def synthetic_chunk(temperature):
    """One poll's worth of a long SA run: an experiment per 3 transitions.

    Experiments cycle through 16 workloads (coverage state is bounded
    by the unique points) and every 97th is anomalous (the timeline and
    TTFA state are bounded too).
    """
    space = SearchSpace.for_subsystem("F")
    rng = np.random.default_rng(0)
    workloads = [workload_to_dict(space.random(rng)) for _ in range(16)]
    actions = ("improve", "accept", "reject")
    chunk = []
    for index in range(CHUNK):
        if index % 4 == 0:
            chunk.append({
                "v": 7, "t": "experiment", "time_seconds": float(index),
                "symptom": "pause frame" if index % 97 == 0 else "healthy",
                "counter": "pause", "counter_value": 0.0,
                "workload": workloads[index % len(workloads)],
            })
        else:
            chunk.append({
                "v": 7, "t": "transition", "time_seconds": float(index),
                "action": actions[index % len(actions)],
                "temperature": temperature, "delta": 0.0,
                "mutated": ["mtu"],
            })
    return chunk


RUN_START = {
    "v": 7, "t": "run_start", "approach": "collie", "subsystem": "F",
    "budget_hours": 10.0, "seed": 1, "config": {},
}


def synthetic_aggregator(tmp_path, monkeypatch, polls):
    """An aggregator whose one source polls ``polls`` in order.

    The follower's parse is transient (and pinned by the stream suite);
    handing the aggregator parsed chunks isolates what *it* retains.
    """
    agg = CampaignAggregator([tmp_path / "long.jsonl"])
    pending = iter(polls)
    monkeypatch.setattr(
        agg.sources[0].follower, "poll", lambda: next(pending, [])
    )
    return agg


class TestAggregatorStaysFlat:
    def test_retained_memory_does_not_grow_with_record_count(
        self, tmp_path, monkeypatch
    ):
        # Two temperature epochs: the cooling step lands mid-journal.
        hot, cold = synthetic_chunk(1.0), synthetic_chunk(0.5)
        polls = [[RUN_START]] + [
            hot if index < LONG_RECORDS // CHUNK // 2 else cold
            for index in range(LONG_RECORDS // CHUNK)
        ]
        agg = synthetic_aggregator(tmp_path, monkeypatch, polls)
        agg.refresh()  # run_start: the coverage tracker exists up front
        growth = {}
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for folded in range(CHUNK, LONG_RECORDS + 1, CHUNK):
                agg.refresh()
                if folded in (SHORT_RECORDS, LONG_RECORDS):
                    agg.snapshot(now=0.0)
                    growth[folded] = (
                        tracemalloc.get_traced_memory()[0] - baseline
                    )
        finally:
            tracemalloc.stop()
        assert agg.sources[0].rollup.records == LONG_RECORDS + 1
        # Four times the records, the same retained state: keeping even
        # one pointer per record would add 8 bytes x 150k = 1.2 MB.
        extra = growth[LONG_RECORDS] - growth[SHORT_RECORDS]
        assert extra < 64 * 1024, growth

    def test_idle_refresh_snapshot_and_chain_rows_fold_nothing(
        self, tmp_path, monkeypatch
    ):
        agg = synthetic_aggregator(
            tmp_path, monkeypatch, [[RUN_START], synthetic_chunk(1.0)]
        )
        assert agg.refresh() == 1 and agg.refresh() == CHUNK
        folded = []
        original = JournalRollup.add

        def counting_add(self, record):
            folded.append(record)
            original(self, record)

        monkeypatch.setattr(JournalRollup, "add", counting_add)
        assert agg.refresh() == 0
        agg.snapshot(now=0.0)
        assert agg.chain_diagnostics()
        assert folded == []
