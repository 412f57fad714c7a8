"""Bayesian Optimization baseline: GP correctness and the search loop."""

import numpy as np
import pytest

from repro.baselines.bayesopt import (
    BayesOptSearch,
    GaussianProcess,
    encode_workload,
    encode_workload_modern,
    expected_improvement,
)
from repro.hardware.workload import Direction, WorkloadDescriptor
from repro.verbs.constants import Opcode, QPType


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        x = rng.random((20, 3))
        y = np.sin(x.sum(axis=1)) * 5
        gp = GaussianProcess(noise=1e-6)
        gp.fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=0.05)
        assert (std < 0.2).all()

    def test_uncertainty_grows_away_from_data(self):
        gp = GaussianProcess()
        gp.fit(np.zeros((5, 2)), np.arange(5.0))
        _, near = gp.predict(np.zeros((1, 2)))
        _, far = gp.predict(np.full((1, 2), 10.0))
        assert far[0] > near[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))


class TestExpectedImprovement:
    def test_zero_std_no_improvement(self):
        ei = expected_improvement(
            np.array([1.0]), np.array([1e-12]), best=2.0
        )
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_higher_mean_higher_ei(self):
        ei = expected_improvement(
            np.array([1.0, 3.0]), np.array([0.5, 0.5]), best=2.0
        )
        assert ei[1] > ei[0]

    def test_uncertainty_adds_ei_below_best(self):
        ei = expected_improvement(
            np.array([1.0, 1.0]), np.array([0.01, 2.0]), best=2.0
        )
        assert ei[1] > ei[0]


class TestEncoding:
    def test_encoding_is_deterministic_and_bounded(self):
        w = WorkloadDescriptor(num_qps=512, mtu=4096,
                               msg_sizes_bytes=(128, 65536))
        a, b = encode_workload(w), encode_workload(w)
        assert np.array_equal(a, b)
        assert (a >= 0).all() and (a <= 1.5).all()

    def test_distinct_workloads_encode_differently(self):
        a = encode_workload(WorkloadDescriptor(num_qps=8))
        b = encode_workload(WorkloadDescriptor(num_qps=8192))
        assert not np.array_equal(a, b)

    def test_paper_encoding_is_ordinal(self):
        """The ref-[31]-faithful encoding treats transports as ordinals
        on one continuous axis — the representation pathology §7.2's BO
        result stems from."""
        rc = encode_workload(WorkloadDescriptor(qp_type=QPType.RC))
        uc = encode_workload(
            WorkloadDescriptor(qp_type=QPType.UC, opcode=Opcode.WRITE)
        )
        ud = encode_workload(
            WorkloadDescriptor(qp_type=QPType.UD, opcode=Opcode.SEND,
                               msg_sizes_bytes=(512,))
        )
        assert rc[0] < uc[0] < ud[0]  # artificial ordering, one axis

    def test_paper_encoding_compresses_raw_ladders(self):
        low = encode_workload(WorkloadDescriptor(num_qps=1))
        mid = encode_workload(WorkloadDescriptor(num_qps=128))
        # 1 and 128 QPs are nearly indistinguishable on a raw-linear axis.
        assert abs(mid[7] - low[7]) < 0.01

    def test_modern_encoding_onehot(self):
        rc = encode_workload_modern(WorkloadDescriptor(qp_type=QPType.RC))
        ud = encode_workload_modern(
            WorkloadDescriptor(qp_type=QPType.UD, opcode=Opcode.SEND,
                               msg_sizes_bytes=(512,))
        )
        assert rc[0] == 1.0 and rc[2] == 0.0
        assert ud[0] == 0.0 and ud[2] == 1.0

    def test_direction_bit(self):
        bi = encode_workload_modern(
            WorkloadDescriptor(direction=Direction.BIDIRECTIONAL)
        )
        uni = encode_workload_modern(WorkloadDescriptor())
        assert bi[6] == 1.0 and uni[6] == 0.0

    def test_encoding_choice_validated(self):
        with pytest.raises(ValueError):
            BayesOptSearch("F", encoding="quantum")


class TestSearchLoop:
    def test_short_run_produces_report(self):
        report = BayesOptSearch("F", budget_hours=1.0, seed=3).run()
        assert report.name == "bayesopt"
        assert report.experiments > 10
        assert report.elapsed_seconds <= 1.0 * 3600 + 60

    def test_finds_easy_anomalies(self):
        report = BayesOptSearch("F", budget_hours=2.0, seed=4).run()
        assert len(report.found_tags()) >= 2

    def test_no_mfs_variant(self):
        report = BayesOptSearch(
            "F", budget_hours=0.5, seed=5, use_mfs=False
        ).run()
        assert report.name == "bayesopt-nomfs"
        assert all(e.kind != "mfs" for e in report.events)


#: (use_mfs, seed) -> (experiments, first_hit_times()) of a 0.5 h run on F,
#: recorded with the per-point sequential sampler that ``random_many``
#: replaced.  Any change to how BO draws candidates shows up here.
PINNED_RUNS = {
    (True, 1): (75, {"A12": 20.0352, "A13": 20.0352}),
    (True, 2): (83, {
        "A13": 48.870400000000004, "A12": 460.4144000000002,
        "A11": 1139.8250000000003, "A9": 1139.8250000000003,
    }),
    (False, 1): (64, {
        "A12": 20.0352, "A13": 20.0352, "A11": 40.3936, "A9": 40.3936,
        "A2": 213.8408, "A1": 516.7536, "A3": 1525.0236,
    }),
    (False, 2): (63, {
        "A13": 48.870400000000004, "A1": 263.54080000000005,
        "A11": 345.2112000000001, "A9": 345.2112000000001,
        "A2": 423.3464000000001, "A12": 483.9168000000001,
    }),
}


class TestPinnedBehaviour:
    @pytest.mark.parametrize("use_mfs, seed", sorted(PINNED_RUNS))
    def test_runs_match_recorded_constants(self, use_mfs, seed):
        report = BayesOptSearch(
            "F", budget_hours=0.5, seed=seed, use_mfs=use_mfs
        ).run()
        experiments, hits = PINNED_RUNS[(use_mfs, seed)]
        assert report.experiments == experiments
        assert report.first_hit_times() == hits
