"""The anomaly monitor's detection conditions (§5.2)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.monitor import (
    HEALTHY,
    LOW_THROUGHPUT,
    PAUSE_FRAME,
    AnomalyMonitor,
    _numpy_sum,
)
from repro.hardware.counters import VendorMonitor
from repro.hardware.model import SteadyStateModel
from repro.hardware.workload import WorkloadDescriptor
from repro.workloads.appendix import setting
from tests.hardware.test_counters import (
    IDENTITY_SEEDS,
    IDENTITY_WINDOWS,
    identity_ideals,
)


@pytest.fixture
def monitor(subsystem_f):
    return AnomalyMonitor(subsystem_f)


def measure(subsystem, workload, noise=0.0, seed=0):
    return SteadyStateModel(subsystem, noise=noise).evaluate(
        workload, np.random.default_rng(seed)
    )


class TestClassification:
    def test_healthy_baseline(self, monitor, subsystem_f):
        verdict = monitor.classify(measure(subsystem_f, WorkloadDescriptor()))
        assert verdict.symptom == HEALTHY
        assert not verdict.is_anomalous

    def test_pause_detection(self, monitor, subsystem_f):
        verdict = monitor.classify(measure(subsystem_f, setting(1).workload))
        assert verdict.symptom == PAUSE_FRAME
        assert verdict.pause_ratio > monitor.pause_threshold

    def test_low_throughput_detection(self, monitor, subsystem_f):
        verdict = monitor.classify(measure(subsystem_f, setting(2).workload))
        assert verdict.symptom == LOW_THROUGHPUT
        assert verdict.pause_ratio <= monitor.pause_threshold

    def test_pause_takes_precedence_over_throughput(self, monitor,
                                                    subsystem_f):
        # Setting 4 collapses throughput AND pauses; Table 2 reports it
        # as a pause-frame anomaly.
        verdict = monitor.classify(measure(subsystem_f, setting(4).workload))
        assert verdict.symptom == PAUSE_FRAME

    def test_pps_bound_workload_is_healthy_despite_low_bits(
        self, monitor, subsystem_f
    ):
        """§5.2: bottlenecked by either bits/s OR packets/s is healthy."""
        from repro.verbs.constants import Opcode, QPType

        tiny = WorkloadDescriptor(
            qp_type=QPType.UD, opcode=Opcode.SEND, mtu=1024,
            msg_sizes_bytes=(64,), wqe_batch=32, num_qps=16,
        )
        verdict = monitor.classify(measure(subsystem_f, tiny))
        assert verdict.symptom == HEALTHY
        assert verdict.min_wire_gbps < 0.8 * subsystem_f.rnic.line_rate_gbps

    def test_mtu_framing_overhead_is_not_an_anomaly(self, monitor,
                                                    subsystem_f):
        small_mtu = WorkloadDescriptor(mtu=256, msg_sizes_bytes=(1048576,))
        verdict = monitor.classify(measure(subsystem_f, small_mtu))
        assert verdict.symptom == HEALTHY


class TestThresholds:
    def test_pause_threshold_is_paper_value(self, monitor):
        assert monitor.pause_threshold == pytest.approx(0.001)

    def test_throughput_fraction_is_paper_value(self, monitor):
        assert monitor.throughput_fraction == pytest.approx(0.8)

    def test_custom_thresholds(self, subsystem_f):
        # With an absurd 90% pause threshold, setting 1's 22% pause no
        # longer classifies as a pause anomaly; its throughput collapse
        # is still caught by the second condition.
        lax = AnomalyMonitor(subsystem_f, pause_threshold=0.9)
        verdict = lax.classify(measure(subsystem_f, setting(1).workload))
        assert verdict.symptom == LOW_THROUGHPUT


class TestStability:
    def test_low_noise_measurements_are_stable(self, monitor, subsystem_f):
        measurement = measure(subsystem_f, WorkloadDescriptor(), noise=0.02)
        assert monitor.is_stable(measurement)

    def test_wild_noise_flags_instability(self, subsystem_f):
        monitor = AnomalyMonitor(subsystem_f, stability_cv=0.01)
        measurement = measure(
            subsystem_f, WorkloadDescriptor(), noise=0.5, seed=3
        )
        assert not monitor.is_stable(measurement)


class TestStabilityIdentity:
    """The plain-float stability check gives numpy's verdict bit for
    bit: ``np.std(r) / np.mean(r)`` over the window's tx readings."""

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_verdicts_match_numpy(self, subsystem_f, noise):
        monitor = AnomalyMonitor(subsystem_f)
        for seed in IDENTITY_SEEDS:
            for ideal in identity_ideals(seed):
                vendor = VendorMonitor(np.random.default_rng(seed), noise)
                for seconds in IDENTITY_WINDOWS:
                    samples = vendor.sample_window(ideal, seconds)
                    readings = np.array(
                        [s.get("tx_bytes_per_sec") for s in samples]
                    )
                    mean = readings.mean()
                    cv = float(readings.std() / mean) if mean > 0 else 0.0
                    # At the reference CV the check passes and one ulp
                    # below it fails, so every bit of the CV is pinned.
                    measurement = SimpleNamespace(samples=samples)
                    monitor.stability_cv = cv
                    assert monitor.is_stable(measurement)
                    monitor.stability_cv = np.nextafter(cv, -1.0)
                    assert monitor.is_stable(measurement) == (mean <= 0)

    def test_sum_follows_numpy_pairwise_order(self):
        rng = np.random.default_rng(7)
        for n in range(300):
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 12, n)
            assert _numpy_sum(values.tolist()) == np.sum(values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_window_is_unstable_without_warnings(
        self, monitor, subsystem_f
    ):
        measurement = SteadyStateModel(subsystem_f).evaluate(
            WorkloadDescriptor(), np.random.default_rng(0), sample_seconds=0
        )
        assert measurement.samples == []
        assert not monitor.is_stable(measurement)
        assert monitor.classify(measurement).stable is False
