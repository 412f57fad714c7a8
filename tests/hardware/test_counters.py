"""Counter definitions and the vendor monitor's sampling."""

import numpy as np
import pytest

from repro.hardware.counters import (
    ALL_COUNTERS,
    DIAGNOSTIC_COUNTERS,
    MINIMIZED_COUNTERS,
    PERFORMANCE_COUNTERS,
    VendorMonitor,
    average_counters,
    is_diagnostic,
    is_performance,
)


class TestCounterSets:
    def test_exactly_nine_diagnostic_counters(self):
        """§7.2: "Our vendors provide us with 9 diagnostic counters"."""
        assert len(DIAGNOSTIC_COUNTERS) == 9

    def test_families_are_disjoint_and_cover_all(self):
        assert not set(DIAGNOSTIC_COUNTERS) & set(PERFORMANCE_COUNTERS)
        assert set(ALL_COUNTERS) == (
            set(DIAGNOSTIC_COUNTERS) | set(PERFORMANCE_COUNTERS)
        )

    def test_classifiers(self):
        assert is_diagnostic("rx_wqe_cache_miss")
        assert is_performance("tx_bytes_per_sec")
        assert not is_diagnostic("tx_bytes_per_sec")

    def test_minimized_set_is_throughput_only(self):
        assert MINIMIZED_COUNTERS <= set(PERFORMANCE_COUNTERS)
        assert "pause_duration_us_per_sec" not in MINIMIZED_COUNTERS


class TestVendorMonitor:
    def test_noise_validation(self):
        with pytest.raises(ValueError):
            VendorMonitor(np.random.default_rng(0), noise=-0.1)

    def test_noiseless_sampling_is_exact(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.0)
        sample = monitor.sample({"tx_bytes_per_sec": 123.0}, second=0)
        assert sample["tx_bytes_per_sec"] == 123.0
        assert sample.get("rx_wqe_cache_miss") == 0.0

    def test_noise_perturbs_but_stays_close(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.02)
        values = [
            monitor.sample({"tx_bytes_per_sec": 1e9}, second=i)[
                "tx_bytes_per_sec"
            ]
            for i in range(200)
        ]
        assert np.std(values) / np.mean(values) == pytest.approx(0.02, abs=0.01)
        assert all(v >= 0 for v in values)

    def test_zero_values_stay_zero(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.5)
        sample = monitor.sample({}, second=0)
        assert all(sample.get(name) == 0.0 for name in ALL_COUNTERS)

    def test_sample_window_length_and_seconds(self):
        monitor = VendorMonitor(np.random.default_rng(0))
        window = monitor.sample_window({"tx_bytes_per_sec": 1.0}, 4,
                                       start_second=10)
        assert [s.second for s in window] == [10, 11, 12, 13]


class TestAveraging:
    def test_average_of_empty_is_zero(self):
        averaged = average_counters([])
        assert averaged["tx_bytes_per_sec"] == 0.0

    def test_average_matches_mean(self):
        monitor = VendorMonitor(np.random.default_rng(0), noise=0.0)
        samples = monitor.sample_window({"qpc_cache_miss": 7.0}, 4)
        assert average_counters(samples)["qpc_cache_miss"] == pytest.approx(7.0)


def numpy_window(ideal, seconds, rng, noise):
    """The array formulation the plain-float sampler replaced.

    Kept here only as the reference: one ``normal`` draw over the
    active (ideal > 0) counters, scattered into a tiled matrix.
    """
    base = np.array([float(ideal.get(name, 0.0)) for name in ALL_COUNTERS])
    rows = np.tile(base, (seconds, 1))
    if noise > 0:
        jitter = base > 0
        active = int(jitter.sum())
        if active:
            draws = rng.normal(0.0, noise, size=(seconds, active))
            rows[:, jitter] *= np.maximum(0.0, 1.0 + draws)
    return rows


def identity_ideals(seed):
    """All-zero, partly-zero and fully-populated ideal counter sets."""
    gen = np.random.default_rng(10_000 + seed)
    magnitudes = 10.0 ** gen.uniform(-3, 11, size=len(ALL_COUNTERS))
    full = dict(zip(ALL_COUNTERS, magnitudes.tolist()))
    partly = {
        name: value
        for name, value, keep in zip(
            ALL_COUNTERS, magnitudes.tolist(), gen.random(len(ALL_COUNTERS))
        )
        if keep < 0.5
    }
    return ({}, partly, full)


IDENTITY_SEEDS = range(500)
IDENTITY_WINDOWS = range(1, 17)


class TestWindowIdentity:
    """The plain-float window equals the numpy formulation bit for bit:
    rows, averages and the generator state afterwards."""

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_rows_averages_and_state_match_numpy(self, noise):
        for seed in IDENTITY_SEEDS:
            for ideal in identity_ideals(seed):
                rng = np.random.default_rng(seed)
                reference_rng = np.random.default_rng(seed)
                monitor = VendorMonitor(rng, noise=noise)
                for seconds in IDENTITY_WINDOWS:
                    window = monitor.sample_window(ideal, seconds)
                    expected = numpy_window(
                        ideal, seconds, reference_rng, noise
                    )
                    assert [
                        [s.get(name) for name in ALL_COUNTERS] for s in window
                    ] == expected.tolist()
                    assert list(average_counters(window).values()) == (
                        expected.mean(axis=0).tolist()
                    )
                assert (
                    rng.bit_generator.state
                    == reference_rng.bit_generator.state
                )

    def test_readings_are_python_floats(self):
        monitor = VendorMonitor(np.random.default_rng(0))
        for sample in monitor.sample_window({"tx_bytes_per_sec": 1e9}, 4):
            assert type(sample.get("tx_bytes_per_sec")) is float
            assert type(sample["rx_wqe_cache_miss"]) is float
