"""Batched vectorized evaluation (S31): the bit-identity contract.

The batched engine's entire value rests on one promise: with a known
point set, ``evaluate_many`` is *bit-identical* to the scalar loop —
measurements, counters, fired rules, features, sample streams, and the
caller's RNG (draw count, order, final state).  These tests pin that
promise property-style across all eight subsystems, then pin every
wired consumer (MFS ladders and box validation, the Perftest sweep,
random search, Collie end to end) against its scalar twin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.perftest
import repro.baselines.random_search
import repro.core.collie
from repro.analysis.serialize import mfs_to_dict, workload_to_dict
from repro.baselines.perftest import PerftestGenerator
from repro.baselines.random_search import RandomSearch
from repro.cluster.clock import SimulatedClock
from repro.cluster.testbed import Testbed
from repro.core import Collie, EvalCache
from repro.core.batcheval import BatchEvaluator
from repro.core.mfs import MFSExtractor
from repro.core.monitor import AnomalyMonitor
from repro.core.space import SearchSpace
from repro.hardware.coexist import CoRunModel
from repro.hardware.model import SteadyStateModel, solve_batch
from repro.hardware.subsystems import get_subsystem
from repro.obs.metrics import MetricsRegistry
from repro.workloads.appendix import APPENDIX_SETTINGS

LETTERS = "ABCDEFGH"

letters = st.sampled_from(LETTERS)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_points(letter, seed, count):
    """Random batch with duplicates mixed in (the dedup-relevant shape)."""
    space = SearchSpace.for_subsystem(get_subsystem(letter))
    rng = np.random.default_rng(seed)
    points = [space.random(rng) for _ in range(count)]
    # Repeat a prefix so the batch always contains exact duplicates.
    return points + points[: max(1, count // 3)]


class ScalarTestbed(Testbed):
    """Reference testbed: every experiment through the one-point solve.

    ``run_many`` is the scalar loop and ``presolve`` does nothing, so a
    search built on it never touches the batched engine.
    """

    __test__ = False

    def run_many(self, workloads, rng=None, phase="search"):
        return [self.run(w, rng=rng, phase=phase) for w in workloads]

    def presolve(self, workloads, phase="search"):
        return 0


def scalar_reference(monkeypatch, build):
    """``build()`` with every search's Testbed swapped for ScalarTestbed."""
    with monkeypatch.context() as patch:
        for module in (
            repro.baselines.perftest,
            repro.baselines.random_search,
            repro.core.collie,
        ):
            patch.setattr(module, "Testbed", ScalarTestbed)
        return build()


def assert_solves_equal(left, right):
    """Field-by-field CachedSolve identity (key order and types too)."""
    assert left.directions == right.directions
    assert left.fired == right.fired
    assert list(left.features.items()) == list(right.features.items())
    assert [type(v) for v in left.features.values()] \
        == [type(v) for v in right.features.values()]
    assert list(left.ideal_counters.items()) \
        == list(right.ideal_counters.items())


def kernel_points(letter):
    """Appendix witnesses, their MFS ladder points and random points."""
    subsystem = get_subsystem(letter)
    space = SearchSpace.for_subsystem(subsystem)
    topology = subsystem.topology
    witnesses = [
        s.workload for s in APPENDIX_SETTINGS
        if topology.has_device(s.workload.src_device)
        and topology.has_device(s.workload.dst_device)
    ]
    ladders = MFSExtractor(space, None)
    points = list(witnesses)
    for witness in witnesses:
        points.extend(ladders._ladder_points(witness, set()))
    return points + random_points(letter, seed=7, count=40)


def assert_measurements_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.workload == b.workload
        assert a.subsystem_name == b.subsystem_name
        assert list(a.counters.items()) == list(b.counters.items())
        assert a.samples == b.samples
        assert a.directions == b.directions
        assert a.fired == b.fired
        assert list(a.features.items()) == list(b.features.items())
        assert a.latency == b.latency


class TestEvaluateManyBitIdentity:
    """evaluate_many == the scalar loop, RNG stream included."""

    @given(letter=letters, seed=seeds)
    @settings(max_examples=12, deadline=None)
    def test_bit_identical_to_scalar_loop(self, letter, seed):
        subsystem = get_subsystem(letter)
        points = random_points(letter, seed, 8)
        scalar_rng = np.random.default_rng(seed)
        scalar = [
            SteadyStateModel(subsystem).evaluate(p, scalar_rng)
            for p in points
        ]
        batched_rng = np.random.default_rng(seed)
        batched = BatchEvaluator(SteadyStateModel(subsystem)).evaluate_many(
            points, rng=batched_rng
        )
        assert_measurements_equal(scalar, batched)
        assert scalar_rng.bit_generator.state == batched_rng.bit_generator.state

    @given(letter=letters, seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_cache_backed_batches_stay_identical(self, letter, seed):
        subsystem = get_subsystem(letter)
        points = random_points(letter, seed, 6)
        scalar_rng = np.random.default_rng(seed)
        scalar = [
            SteadyStateModel(subsystem).evaluate(p, scalar_rng)
            for p in points
        ]
        cache = EvalCache()
        evaluator = BatchEvaluator(SteadyStateModel(subsystem, cache=cache))
        cold_rng = np.random.default_rng(seed)
        cold = evaluator.evaluate_many(points, rng=cold_rng)
        warm_rng = np.random.default_rng(seed)
        warm = evaluator.evaluate_many(points, rng=warm_rng)
        assert_measurements_equal(scalar, cold)
        assert_measurements_equal(scalar, warm)
        assert scalar_rng.bit_generator.state == warm_rng.bit_generator.state
        assert len(cache) == len({str(workload_to_dict(p)) for p in points})

    def test_solve_batch_matches_scalar_solver(self):
        """Column mode == scalar mode over witnesses, ladders, random."""
        for letter in LETTERS:
            subsystem = get_subsystem(letter)
            model = SteadyStateModel(subsystem)
            points = kernel_points(letter)
            scalar = [model._solve(point, phase="search") for point in points]
            batched = solve_batch(subsystem, points)
            for solve, reference in zip(batched, scalar):
                assert_solves_equal(solve, reference)
            # n=1 runs the scalar mode through the batch entry point.
            for point, reference in zip(points[:12], scalar):
                (single,) = solve_batch(subsystem, [point])
                assert_solves_equal(single, reference)

    def test_corun_solve_points_match_scalar_solves(self):
        for letter in LETTERS:
            subsystem = get_subsystem(letter)
            points = kernel_points(letter)[:24]
            model = CoRunModel(subsystem, victim=points[0])
            batched = model.solve_points(points)
            for point, solve in zip(points, batched):
                assert_solves_equal(
                    solve, model._solve(point, phase="search")
                )


class TestBulkCacheApi:
    """get_many/put_many/peek_many: one fingerprint, exact statistics."""

    def _solves(self, subsystem, points):
        return solve_batch(subsystem, points)

    def test_get_many_counts_like_scalar_lookups(self):
        subsystem = get_subsystem("F")
        points = random_points("F", seed=3, count=4)
        unique = points[: len(set(map(str, points)))]
        cache = EvalCache()
        cache.put_many(subsystem, unique[:2], self._solves(subsystem, unique[:2]))
        got = cache.get_many(subsystem, unique, phase="search")
        assert [s is not None for s in got[:2]] == [True, True]
        assert all(s is None for s in got[2:])
        assert cache.hits == 2
        assert cache.misses == len(unique) - 2
        stats = cache.phase_stats()["search"]
        assert stats.hits == 2 and stats.misses == len(unique) - 2

    def test_peek_many_is_statless(self):
        subsystem = get_subsystem("F")
        points = random_points("F", seed=4, count=3)
        cache = EvalCache()
        cache.put_many(subsystem, points[:1], self._solves(subsystem, points[:1]))
        present = cache.peek_many(subsystem, points)
        assert present[0] is True
        assert cache.hits == 0 and cache.misses == 0
        assert cache.phase_stats() == {}
        # peek agrees with contains
        for point, hit in zip(points, present):
            assert hit == cache.contains(subsystem, point)

    def test_get_many_fires_observer_per_point_in_order(self):
        subsystem = get_subsystem("F")
        points = random_points("F", seed=5, count=3)[:3]
        cache = EvalCache()
        cache.put_many(subsystem, points[:1], self._solves(subsystem, points[:1]))
        events = []
        cache.observer = lambda phase, hit: events.append((phase, hit))
        cache.get_many(subsystem, points, phase="mfs")
        assert events == [("mfs", True), ("mfs", False), ("mfs", False)]

    def test_put_many_roundtrips_through_export_import(self):
        subsystem = get_subsystem("G")
        points = random_points("G", seed=6, count=3)
        cache = EvalCache()
        cache.put_many(subsystem, points, self._solves(subsystem, points))
        clone = EvalCache()
        clone.import_entries(cache.export_entries())
        got = clone.get_many(subsystem, points)
        direct = cache.get_many(subsystem, points)
        for a, b in zip(got, direct):
            assert a is not None and b is not None
            assert a.ideal_counters == b.ideal_counters
            assert a.directions == b.directions
            assert a.fired == b.fired
            assert a.features == b.features


class TestMFSPresolve:
    """Presolved MFS extraction == scalar extraction, probe for probe."""

    def _extract(self, batch, cache):
        setting = next(s for s in APPENDIX_SETTINGS if s.subsystem == "H")
        subsystem = get_subsystem("H")
        space = SearchSpace.for_subsystem(subsystem)
        monitor = AnomalyMonitor(subsystem)
        testbed = (Testbed if batch else ScalarTestbed)(
            subsystem, clock=SimulatedClock(), cache=cache
        )
        rng = np.random.default_rng(0)

        def probe(candidate):
            result = testbed.run(candidate, rng=rng, phase="mfs")
            return monitor.classify(result.measurement).symptom

        presolve = (
            (lambda pts: testbed.presolve(pts, phase="mfs"))
            if batch else None
        )
        extractor = MFSExtractor(space, probe, presolve=presolve)
        mfs = extractor.construct(
            setting.workload, setting.expected_symptom, at_seconds=0.0
        )
        return mfs, extractor.experiments, testbed, rng

    def test_presolved_extraction_matches_scalar(self):
        scalar_mfs, scalar_probes, scalar_testbed, scalar_rng = self._extract(
            batch=False, cache=None
        )
        cache = EvalCache()
        batched_mfs, batched_probes, batched_testbed, batched_rng = (
            self._extract(batch=True, cache=cache)
        )
        assert scalar_mfs is not None
        assert mfs_to_dict(batched_mfs) == mfs_to_dict(scalar_mfs)
        assert batched_probes == scalar_probes
        assert batched_testbed.clock.now == scalar_testbed.clock.now
        assert (
            scalar_rng.bit_generator.state == batched_rng.bit_generator.state
        )
        assert len(cache) > 0
        # The ladder presolve deduplicates and back-fills: the scalar
        # replay over it must be mostly hits.
        stats = cache.phase_stats()["mfs"]
        assert stats.hits > stats.misses


class TestWiredConsumers:
    """Every batched call site against its scalar twin."""

    def test_perftest_sweep_batched_equals_scalar(self):
        scalar = PerftestGenerator("C")
        batched = PerftestGenerator("C")
        found_scalar = scalar.sweep(seed=0, limit=260, batch_size=0)
        found_batched = batched.sweep(seed=0, limit=260, batch_size=64)
        assert found_scalar == found_batched
        assert scalar.testbed.clock.now == batched.testbed.clock.now
        assert (
            scalar.testbed.experiments_run == batched.testbed.experiments_run
        )

    def test_perftest_batch_size_one_is_the_scalar_path(self, monkeypatch):
        generator = PerftestGenerator("C")
        baseline = scalar_reference(
            monkeypatch, lambda: PerftestGenerator("C")
        )
        assert generator.sweep(seed=0, limit=40, batch_size=1) \
            == baseline.sweep(seed=0, limit=40)

    @staticmethod
    def _event_key(event):
        return (
            event.time_seconds,
            event.symptom,
            event.tags,
            workload_to_dict(event.workload),
            sorted(event.counters.items()),
        )

    def test_random_search_matches_scalar_testbed(self, monkeypatch):
        on = RandomSearch("F", budget_hours=0.05, seed=9).run()
        off = scalar_reference(
            monkeypatch,
            lambda: RandomSearch("F", budget_hours=0.05, seed=9),
        ).run()
        assert [self._event_key(e) for e in on.events] \
            == [self._event_key(e) for e in off.events]

    def test_random_search_batch_probes_deterministic(self):
        def run():
            return RandomSearch(
                "F", budget_hours=0.05, seed=9,
                batch_probes=True, cache=EvalCache(),
            ).run()

        first, second = run(), run()
        assert [self._event_key(e) for e in first.events] \
            == [self._event_key(e) for e in second.events]

    def test_collie_matches_scalar_testbed(self, monkeypatch):
        def report_key(report):
            return (
                [self._event_key(e) for e in report.events],
                [mfs_to_dict(m) for m in report.anomalies],
                report.experiments,
                report.skipped_points,
                report.elapsed_seconds,
                report.counter_ranking,
            )

        on = Collie.for_subsystem(
            "H", budget_hours=0.12, seed=3, cache=EvalCache()
        ).run()
        off = scalar_reference(
            monkeypatch,
            lambda: Collie.for_subsystem("H", budget_hours=0.12, seed=3),
        ).run()
        assert report_key(on) == report_key(off)

    def test_batched_run_reports_vectorized_metrics(self):
        metrics = MetricsRegistry()
        testbed = Testbed(
            "F", clock=SimulatedClock(), cache=EvalCache(),
            metrics=metrics,
        )
        space = SearchSpace.for_subsystem(testbed.subsystem)
        rng = np.random.default_rng(0)
        points = [space.random(rng) for _ in range(6)] * 2
        testbed.run_many(points, rng=rng)
        assert metrics.value("batcheval.points", mode="vectorized") \
            == len(points)
        batch_sizes = metrics.histogram("batcheval.batch_size", phase="search")
        assert batch_sizes.count == 1 and batch_sizes.maximum == 6.0
        # One per-point-seconds observation per evaluate_many call.
        assert metrics.histogram(
            "batcheval.point_seconds", phase="search"
        ).count == 1
