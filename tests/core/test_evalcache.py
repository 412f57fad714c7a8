"""Memoized experiment evaluation: bit-identity, keys, persistence."""

import dataclasses
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evalcache import (
    FORMAT_VERSION,
    EvalCache,
    canonical_point,
    describe_stats,
    solver_fingerprint,
    subsystem_fingerprint,
)
from repro.core.space import SearchSpace
from repro.hardware.features import extract_features
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import get_subsystem

LETTERS = "ABCDEFGH"

letters = st.sampled_from(LETTERS)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_point(letter, seed):
    space = SearchSpace.for_subsystem(get_subsystem(letter))
    return space.random(np.random.default_rng(seed))


class TestBitIdentity:
    """Caching must be observably transparent, noise included."""

    @given(letter=letters, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_cached_evaluation_bit_identical(self, letter, seed):
        subsystem = get_subsystem(letter)
        workload = random_point(letter, seed)
        cache = EvalCache()
        plain = SteadyStateModel(subsystem).evaluate(
            workload, np.random.default_rng(seed)
        )
        miss = SteadyStateModel(subsystem, cache=cache).evaluate(
            workload, np.random.default_rng(seed)
        )
        hit = SteadyStateModel(subsystem, cache=cache).evaluate(
            workload, np.random.default_rng(seed)
        )
        for via_cache in (miss, hit):
            assert via_cache.counters == plain.counters
            assert via_cache.pause_ratio == plain.pause_ratio
            assert via_cache.directions == plain.directions
            assert via_cache.fired == plain.fired
            assert via_cache.features == plain.features
            assert via_cache.samples == plain.samples
        assert cache.hits == 1 and cache.misses == 1

    @given(letter=letters, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_noise_still_follows_the_rng(self, letter, seed):
        """A hit consumes the caller's RNG exactly like a miss would."""
        subsystem = get_subsystem(letter)
        workload = random_point(letter, seed)
        cache = EvalCache()
        model = SteadyStateModel(subsystem, cache=cache)
        rng = np.random.default_rng(seed)
        first = model.evaluate(workload, rng)
        second = model.evaluate(workload, rng)  # hit, fresh noise draws
        plain_rng = np.random.default_rng(seed)
        plain_model = SteadyStateModel(subsystem)
        assert plain_model.evaluate(workload, plain_rng).counters \
            == first.counters
        assert plain_model.evaluate(workload, plain_rng).counters \
            == second.counters


class TestKeys:
    @given(letter=letters, seed_a=seeds, seed_b=seeds)
    @settings(max_examples=40, deadline=None)
    def test_no_collision_across_feature_vectors(self, letter, seed_a, seed_b):
        """Different feature vectors can never share a cache key."""
        subsystem = get_subsystem(letter)
        point_a = random_point(letter, seed_a)
        point_b = random_point(letter, seed_b)
        if extract_features(point_a, subsystem) != extract_features(
            point_b, subsystem
        ):
            assert canonical_point(point_a) != canonical_point(point_b)

    @given(letter=letters, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_identical_points_share_a_key(self, letter, seed):
        point = random_point(letter, seed)
        clone = dataclasses.replace(point)
        assert canonical_point(point) == canonical_point(clone)

    def test_duty_cycle_distinguishes_points(self):
        point = random_point("F", 7)
        shifted = dataclasses.replace(point, duty_cycle=0.125)
        assert canonical_point(point) != canonical_point(shifted)

    def test_fingerprint_tracks_content_not_name(self):
        """Same Table 1 letter, different config → different entries."""
        original = get_subsystem("A")
        modified = dataclasses.replace(original, rnic=get_subsystem("B").rnic)
        assert modified.name == original.name
        assert subsystem_fingerprint(modified) != subsystem_fingerprint(
            original
        )

    def test_fingerprints_unique_across_table1(self):
        prints = {subsystem_fingerprint(get_subsystem(x)) for x in LETTERS}
        assert len(prints) == len(LETTERS)


class TestDiskStore:
    def test_round_trip_serves_hits(self, tmp_path):
        subsystem = get_subsystem("H")
        path = str(tmp_path / "cache.json")
        cache = EvalCache(path=path)
        model = SteadyStateModel(subsystem, cache=cache)
        points = [random_point("H", seed) for seed in range(5)]
        for point in points:
            model.evaluate(point, np.random.default_rng(0))
        cache.save()

        warm = EvalCache(path=path)
        assert warm.loaded_entries == len(points)
        warm_model = SteadyStateModel(subsystem, cache=warm)
        for seed, point in enumerate(points):
            fresh = SteadyStateModel(subsystem).evaluate(
                point, np.random.default_rng(seed)
            )
            served = warm_model.evaluate(point, np.random.default_rng(seed))
            assert served.counters == fresh.counters
        assert warm.hits == len(points) and warm.misses == 0

    def test_stale_rule_tags_drop_the_entry(self, tmp_path):
        subsystem = get_subsystem("H")
        path = str(tmp_path / "cache.json")
        cache = EvalCache(path=path)
        point = random_point("H", 3)
        SteadyStateModel(subsystem, cache=cache).evaluate(
            point, np.random.default_rng(0)
        )
        cache.save()

        payload = json.loads((tmp_path / "cache.json").read_text())
        for entry in payload["entries"].values():
            entry["fired"] = [{"tag": "GONE-AFTER-FIX", "factor": 1.0}]
        (tmp_path / "cache.json").write_text(json.dumps(payload))

        warm = EvalCache(path=path)
        assert warm.lookup(subsystem, point) is None  # dropped, not replayed
        served = SteadyStateModel(subsystem, cache=warm).evaluate(
            point, np.random.default_rng(0)
        )
        fresh = SteadyStateModel(subsystem).evaluate(
            point, np.random.default_rng(0)
        )
        assert served.counters == fresh.counters

    def test_crash_mid_save_keeps_the_previous_store(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "cache.json")
        cache = EvalCache(path=path)
        model = SteadyStateModel(get_subsystem("H"), cache=cache)
        model.evaluate(random_point("H", 1), np.random.default_rng(0))
        cache.save()
        model.evaluate(random_point("H", 2), np.random.default_rng(0))

        def crashing_dump(payload, handle, **kwargs):
            handle.write(json.dumps(payload, **kwargs)[:100])
            raise KeyboardInterrupt("killed mid-save")

        monkeypatch.setattr("repro.core.evalcache.json.dump", crashing_dump)
        with pytest.raises(KeyboardInterrupt):
            cache.save()
        monkeypatch.undo()

        assert EvalCache(path=path).loaded_entries == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(
            {"format_version": FORMAT_VERSION + 1, "entries": {}}
        ))
        with pytest.raises(ValueError, match="unsupported cache format"):
            EvalCache(path=str(path))

    def _stored(self, tmp_path):
        """A saved one-entry store: (path, payload, subsystem, point)."""
        subsystem = get_subsystem("H")
        path = tmp_path / "cache.json"
        cache = EvalCache(path=str(path))
        point = random_point("H", 4)
        SteadyStateModel(subsystem, cache=cache).evaluate(
            point, np.random.default_rng(0)
        )
        cache.save()
        return path, json.loads(path.read_text()), subsystem, point

    def test_matching_solver_stamp_warm_starts(self, tmp_path, caplog):
        path, payload, subsystem, point = self._stored(tmp_path)
        assert payload["solver_fingerprint"] == solver_fingerprint()
        warm = EvalCache(path=str(path))
        assert warm.loaded_entries == 1
        assert warm.lookup(subsystem, point) is not None
        assert "different solver code" not in caplog.text

    def test_changed_solver_stamp_starts_cold(self, tmp_path, caplog):
        path, payload, subsystem, point = self._stored(tmp_path)
        payload["solver_fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload))
        with caplog.at_level("WARNING", logger="repro.core.evalcache"):
            cold = EvalCache(path=str(path))
        assert cold.loaded_entries == 0 and len(cold) == 0
        assert cold.lookup(subsystem, point) is None
        assert "different solver code" in caplog.text

    def test_unstamped_store_starts_cold(self, tmp_path, caplog):
        path, payload, subsystem, point = self._stored(tmp_path)
        del payload["solver_fingerprint"]
        path.write_text(json.dumps(payload))
        with caplog.at_level("WARNING", logger="repro.core.evalcache"):
            cold = EvalCache(path=str(path))
        assert cold.loaded_entries == 0 and len(cold) == 0
        assert cold.lookup(subsystem, point) is None
        assert "different solver code" in caplog.text

    def test_load_stats_reads_persisted_statistics(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = EvalCache(path=path)
        SteadyStateModel(get_subsystem("H"), cache=cache).evaluate(
            random_point("H", 1), np.random.default_rng(0), phase="probe"
        )
        cache.save()
        stats = EvalCache.load_stats(path)
        assert stats["misses"] == 1
        assert "probe" in stats["phases"]
        assert "probe" in describe_stats(stats)


class TestTransportAndStats:
    def test_import_keeps_existing_entries(self):
        subsystem = get_subsystem("F")
        point = random_point("F", 1)
        donor = EvalCache()
        SteadyStateModel(subsystem, cache=donor).evaluate(
            point, np.random.default_rng(0)
        )
        receiver = EvalCache()
        solve = SteadyStateModel(subsystem, cache=receiver).evaluate(
            point, np.random.default_rng(0)
        )
        added = receiver.import_entries(donor.export_entries())
        assert added == 0  # existing key wins
        again = SteadyStateModel(subsystem, cache=receiver).evaluate(
            point, np.random.default_rng(0)
        )
        assert again.counters == solve.counters

    def test_merge_stats_accumulates_phases(self):
        cache = EvalCache()
        cache.merge_stats(
            {"phases": {"mfs": {"hits": 3, "misses": 1, "seconds": 0.5}}}
        )
        cache.merge_stats(
            {"phases": {"mfs": {"hits": 1, "misses": 1, "seconds": 0.25}}}
        )
        phases = cache.phase_stats()
        assert phases["mfs"].hits == 4
        assert phases["mfs"].misses == 2
        assert phases["mfs"].seconds == pytest.approx(0.75)
        assert phases["mfs"].hit_rate == pytest.approx(4 / 6)

    def test_snapshot_scopes_a_subphase(self):
        subsystem = get_subsystem("F")
        cache = EvalCache()
        model = SteadyStateModel(subsystem, cache=cache)
        model.evaluate(random_point("F", 1), np.random.default_rng(0))
        before = cache.snapshot()
        model.evaluate(random_point("F", 1), np.random.default_rng(0))
        hits, misses = cache.snapshot()
        assert (hits - before[0], misses - before[1]) == (1, 0)

    def test_timed_charges_the_phase(self):
        cache = EvalCache()
        with cache.timed("rank"):
            pass
        assert cache.phase_stats()["rank"].seconds >= 0.0
        assert "rank" in cache.describe()

    def test_thread_safety_under_concurrent_evaluation(self):
        subsystem = get_subsystem("F")
        cache = EvalCache()
        points = [random_point("F", seed) for seed in range(8)]

        def worker(offset):
            model = SteadyStateModel(subsystem, cache=cache)
            for point in points[offset::2] + points:
                model.evaluate(point, np.random.default_rng(0))

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == len(points)
        assert cache.hits + cache.misses == 3 * len(points)
