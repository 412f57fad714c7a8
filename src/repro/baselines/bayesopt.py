"""Bayesian Optimization baseline (paper §7.2, following ref. [31]).

A Gaussian-process surrogate with an RBF kernel over an encoded workload
vector, expected-improvement acquisition over a random candidate pool,
and — for fairness, exactly as the paper does — the same MFS enhancement
Collie uses (known anomaly regions are skipped and extracted).

The paper's observation, which this implementation reproduces, is that
BO struggles here because counter values jump discontinuously across
the discrete dimensions (QP type flips change everything), violating the
GP's smoothness prior (§7.2).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from repro.baselines.random_search import BaselineReport
from repro.cluster.clock import SimulatedClock
from repro.cluster.testbed import Testbed
from repro.core.annealing import SearchSignal, TraceEvent
from repro.core.collie import rank_by_dispersion
from repro.core.mfs import MFSExtractor, MinimalFeatureSet, match_any
from repro.core.monitor import AnomalyMonitor
from repro.core.space import SearchSpace
from repro.hardware.counters import DIAGNOSTIC_COUNTERS
from repro.hardware.subsystems import Subsystem, get_subsystem
from repro.hardware.workload import Colocation, Direction, WorkloadDescriptor
from repro.verbs.constants import Opcode, QPType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache

#: Observations beyond this are dropped (oldest first) to bound the
#: O(n^3) GP fit.
MAX_OBSERVATIONS = 120

#: Candidate pool size per acquisition round.
CANDIDATE_POOL = 192


def encode_workload(workload: WorkloadDescriptor) -> np.ndarray:
    """The paper-faithful ref-[31] encoding: one continuous box axis per
    parameter, linearly normalised raw values, categoricals as ordinals.

    The fmfn/BayesianOptimization package the paper cites optimises over
    a continuous box; discrete transport choices become artificial
    ordinals and the huge raw ranges (1…16384 QPs, 64B…4MB messages)
    compress most of the ladder into a sliver of the axis.  These are
    precisely the pathologies behind the paper's observation that "BO is
    not able to optimize the corresponding counters" — §7.2's sudden
    counter changes across discrete dimensions.
    """
    qp_ordinal = (QPType.RC, QPType.UC, QPType.UD).index(workload.qp_type)
    op_ordinal = (Opcode.SEND, Opcode.WRITE, Opcode.READ).index(
        workload.opcode
    ) if workload.opcode in (Opcode.SEND, Opcode.WRITE, Opcode.READ) else 0
    return np.array(
        [
            qp_ordinal / 2.0,
            op_ordinal / 2.0,
            1.0 if workload.direction is Direction.BIDIRECTIONAL else 0.0,
            1.0 if workload.colocation is Colocation.MIXED_LOOPBACK else 0.0,
            1.0 if workload.src_device.startswith("gpu") else (
                0.5 if workload.src_device != "numa0" else 0.0
            ),
            1.0 if workload.dst_device.startswith("gpu") else (
                0.5 if workload.dst_device != "numa0" else 0.0
            ),
            workload.mtu / 4096.0,
            workload.num_qps / 16384.0,
            workload.wqe_batch / 128.0,
            workload.sge_per_wqe / 8.0,
            workload.wq_depth / 4096.0,
            workload.mrs_per_qp / 1024.0,
            workload.mr_bytes / 4194304.0,
            workload.avg_msg_bytes / 4194304.0,
        ]
    )


def encode_workload_modern(workload: WorkloadDescriptor) -> np.ndarray:
    """A modernised encoding: one-hot categoricals, log-scaled ladders.

    Not what the paper ran — kept (and benchmarked in EXPERIMENTS.md)
    because it shows how much of BO's deficit was representation rather
    than algorithm: with this encoding BO closes most of the gap to
    Collie on our substrate.
    """

    def log_scale(value: float, max_log2: float) -> float:
        return math.log2(max(value, 1)) / max_log2

    qp_onehot = [
        1.0 if workload.qp_type is t else 0.0
        for t in (QPType.RC, QPType.UC, QPType.UD)
    ]
    op_onehot = [
        1.0 if workload.opcode is o else 0.0
        for o in (Opcode.SEND, Opcode.WRITE, Opcode.READ)
    ]
    return np.array(
        qp_onehot
        + op_onehot
        + [
            1.0 if workload.direction is Direction.BIDIRECTIONAL else 0.0,
            1.0 if workload.colocation is Colocation.MIXED_LOOPBACK else 0.0,
            1.0 if workload.src_device.startswith("gpu") else 0.0,
            1.0 if workload.dst_device.startswith("gpu") else 0.0,
            1.0 if workload.src_device != workload.dst_device else 0.0,
            log_scale(workload.mtu, 12.0),
            log_scale(workload.num_qps, 14.0),
            log_scale(workload.wqe_batch, 7.0),
            workload.sge_per_wqe / 8.0,
            log_scale(workload.wq_depth, 12.0),
            log_scale(workload.mrs_per_qp, 10.0),
            log_scale(workload.mr_bytes, 22.0),
            log_scale(workload.avg_msg_bytes, 22.0),
            workload.small_message_fraction,
            workload.large_message_fraction,
        ]
    )


class GaussianProcess:
    """Minimal RBF-kernel GP regressor with Cholesky inference."""

    def __init__(self, length_scale: float = 0.35, noise: float = 1e-2) -> None:
        self.length_scale = length_scale
        self.noise = noise
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._chol = None
        self._alpha: Optional[np.ndarray] = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(a ** 2, axis=1)[:, None]
            + np.sum(b ** 2, axis=1)[None, :]
            - 2.0 * a @ b.T
        )
        return np.exp(-0.5 * np.maximum(sq, 0.0) / self.length_scale ** 2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._x = x
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        normalised = (y - self._y_mean) / self._y_std
        gram = self._kernel(x, x) + self.noise * np.eye(len(x))
        self._chol = cho_factor(gram, lower=True)
        self._alpha = cho_solve(self._chol, normalised)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points."""
        if self._x is None:
            raise RuntimeError("fit() must be called before predict()")
        cross = self._kernel(x, self._x)
        mean = cross @ self._alpha
        v = cho_solve(self._chol, cross.T)
        var = 1.0 + self.noise - np.sum(cross.T * v, axis=0)
        std = np.sqrt(np.maximum(var, 1e-12))
        return mean * self._y_std + self._y_mean, std * self._y_std


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI for maximisation."""
    improve = mean - best - xi
    z = improve / np.maximum(std, 1e-12)
    return improve * norm.cdf(z) + std * norm.pdf(z)


class BayesOptSearch:
    """Per-counter BO passes, ranked and budgeted like Collie's."""

    def __init__(
        self,
        subsystem: "Subsystem | str",
        budget_hours: float = 10.0,
        seed: int = 0,
        use_mfs: bool = True,
        noise: float = 0.02,
        warmup_points: int = 10,
        encoding: str = "paper",
        cache: Optional["EvalCache"] = None,
    ) -> None:
        if encoding not in ("paper", "modern"):
            raise ValueError("encoding must be 'paper' or 'modern'")
        self.encode = (
            encode_workload if encoding == "paper" else encode_workload_modern
        )
        self.encoding = encoding
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        self.subsystem = subsystem
        self.space = SearchSpace.for_subsystem(subsystem)
        self.clock = SimulatedClock(budget_hours * 3600.0)
        self.testbed = Testbed(
            subsystem, clock=self.clock, noise=noise, cache=cache
        )
        self.monitor = AnomalyMonitor(subsystem)
        self.rng = np.random.default_rng(seed)
        self.use_mfs = use_mfs
        self.warmup_points = warmup_points
        self.anomalies: list[MinimalFeatureSet] = []
        self.events: list[TraceEvent] = []

    # -- measurement ---------------------------------------------------------

    def _measure(self, workload: WorkloadDescriptor, signal: SearchSignal, kind):
        result = self.testbed.run(workload, rng=self.rng, phase=kind)
        measurement = result.measurement
        verdict = self.monitor.classify(measurement)
        self.events.append(
            TraceEvent(
                time_seconds=result.finished_at,
                counter=signal.counter,
                counter_value=signal.value(measurement),
                symptom=verdict.symptom,
                tags=measurement.tags,
                workload=workload,
                kind=kind,
                counters=dict(measurement.counters),
            )
        )
        if (
            self.use_mfs
            and verdict.is_anomalous
            and match_any(self.anomalies, workload) is None
        ):
            self._extract_mfs(workload, verdict.symptom, signal)
        return measurement

    def _extract_mfs(self, workload, symptom, signal) -> None:
        def probe(candidate: WorkloadDescriptor) -> str:
            if self.clock.expired:
                return "healthy"
            probed = self._probe_measure(candidate, signal)
            return self.monitor.classify(probed).symptom

        extractor = MFSExtractor(self.space, probe, probes_per_dimension=2)
        mfs = extractor.construct(
            workload, symptom, at_seconds=self.clock.now, known=self.anomalies
        )
        if mfs is not None:
            self.anomalies.append(mfs)

    def _probe_measure(self, workload, signal):
        result = self.testbed.run(workload, rng=self.rng, phase="mfs")
        verdict = self.monitor.classify(result.measurement)
        self.events.append(
            TraceEvent(
                time_seconds=result.finished_at,
                counter=signal.counter,
                counter_value=signal.value(result.measurement),
                symptom=verdict.symptom,
                tags=result.measurement.tags,
                workload=workload,
                kind="mfs",
            )
        )
        return result.measurement

    # -- the BO loop ---------------------------------------------------------

    def run(self) -> BaselineReport:
        ranking = self._rank_counters()
        remaining = list(ranking)
        while remaining and not self.clock.expired:
            counter = remaining.pop(0)
            slots_left = len(remaining) + 1
            slice_seconds = max(
                self.clock.remaining * 0.30,
                self.clock.remaining / slots_left,
            )
            self._run_pass(SearchSignal(counter), self.clock.now + slice_seconds)
        return BaselineReport(
            name="bayesopt" if self.use_mfs else "bayesopt-nomfs",
            subsystem_name=self.subsystem.name,
            events=self.events,
            experiments=len(self.events),
            elapsed_seconds=self.clock.now,
        )

    def _rank_counters(self) -> list[str]:
        signal = SearchSignal(DIAGNOSTIC_COUNTERS[0])
        observations: dict = {name: [] for name in DIAGNOSTIC_COUNTERS}
        for _ in range(self.warmup_points):
            if self.clock.expired:
                break
            workload = self.space.random(self.rng)
            measurement = self._measure(workload, signal, kind="probe")
            for name in DIAGNOSTIC_COUNTERS:
                observations[name].append(float(measurement.counters[name]))
        return rank_by_dispersion(observations)[0]

    def _run_pass(self, signal: SearchSignal, deadline: float) -> None:
        xs: list[np.ndarray] = []
        ys: list[float] = []

        def observe(workload: WorkloadDescriptor) -> None:
            measurement = self._measure(workload, signal, kind="search")
            xs.append(self.encode(workload))
            # log1p compresses the counter's orders of magnitude so one
            # extreme observation does not flatten the GP posterior.
            ys.append(math.log1p(max(signal.value(measurement), 0.0)))

        for _ in range(3):
            if self.clock.now >= deadline or self.clock.expired:
                return
            observe(self.space.random(self.rng))

        gp = GaussianProcess()
        while self.clock.now < deadline and not self.clock.expired:
            keep = slice(-MAX_OBSERVATIONS, None)
            gp.fit(np.array(xs[keep]), np.array(ys[keep]))
            candidates = self._candidates()
            if not candidates:
                observe(self.space.random(self.rng))
                continue
            encoded = np.array([self.encode(c) for c in candidates])
            mean, std = gp.predict(encoded)
            best = max(ys[keep])
            scores = expected_improvement(mean, std, best)
            observe(candidates[int(np.argmax(scores))])

    def _candidates(self) -> list[WorkloadDescriptor]:
        pool = self.space.random_many(self.rng, CANDIDATE_POOL)
        if not self.use_mfs:
            return pool
        return [
            point for point in pool
            if match_any(self.anomalies, point) is None
        ]
