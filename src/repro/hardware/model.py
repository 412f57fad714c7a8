"""Steady-state performance model of one experiment.

Given a :class:`~repro.hardware.workload.WorkloadDescriptor` and a
:class:`~repro.hardware.subsystems.Subsystem`, the model prices every
resource a message consumes on its way through the subsystem — wire slots,
RNIC packet-processing events, PCIe bytes in each bus direction, DMA-path
bandwidth — takes the binding constraint per traffic direction, applies
the quirk rules (:mod:`repro.hardware.rules`), and converts any
receiver-side shortfall into PFC pause time exactly as a lossless ingress
buffer would (:mod:`repro.hardware.pfc`).

The result is a :class:`Measurement`: noisy per-second counter samples
(what Collie sees) plus ground-truth fields — fired rule tags, ideal
rates — that only the test suite and benchmarks read.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.hardware.caches import miss_stall_us, pressure_score
from repro.hardware.counters import (
    CounterSample,
    VendorMonitor,
    average_counters,
)
from repro.hardware.features import extract_features
from repro.hardware.ops import SCALAR, ops_for
from repro.hardware.pcie import CQE_BYTES, DOORBELL_BYTES, TLP_HEADER_BYTES
from repro.hardware.pfc import pause_stall_us, steady_state_pause_ratio
from repro.hardware.rules import FiredRule, fired_latency_rules, gate_rules
from repro.hardware.workload import WorkloadDescriptor, packets_for
from repro.verbs.constants import ROCE_HEADER_BYTES, Opcode, QPType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.evalcache import EvalCache
    from repro.hardware.subsystems import Subsystem


@dataclasses.dataclass(frozen=True)
class DirectionRates:
    """Resolved steady-state rates of one traffic direction."""

    name: str  #: ``fwd`` or ``rev``.
    achieved_msgs_per_sec: float
    injection_msgs_per_sec: float  #: what the sender offers before PFC.
    payload_bytes_per_sec: float
    wire_bytes_per_sec: float
    packets_per_sec: float  #: data + ACK/response packet events.
    pause_ratio: float

    @property
    def wire_gbps(self) -> float:
        return self.wire_bytes_per_sec * 8 / 1e9

    @property
    def goodput_gbps(self) -> float:
        return self.payload_bytes_per_sec * 8 / 1e9


@dataclasses.dataclass(frozen=True)
class CachedSolve:
    """The deterministic outputs of one steady-state evaluation."""

    directions: tuple[DirectionRates, ...]
    fired: tuple[FiredRule, ...]
    features: dict
    ideal_counters: dict


#: Fraction of a cache-refill stall that survives to the completion
#: path.  The packet-engine pipeline overlaps context refills with the
#: WRs already in flight, so in steady state only a sliver of each
#: refill round trip is visible per WR; the regimes where the hiding
#: breaks down are encoded as explicit latency quirks
#: (``RNICProfile.latency_rules``), mirroring how the throughput model
#: keeps its generic accounting conservative and pushes the cliffs into
#: the Appendix A rule tables.  The bound matters: with visibility
#: ``v``, generic inflation is at most ``1 + ln(100)·3.6·v`` (the miss
#: terms sum to ≤ 3.6 refills and the floor always contains the same
#: round trip), which at 0.12 stays below 3 — strictly under the
#: monitor's trigger multiple.  Rule-free workloads therefore can never
#: trip the tail-latency trigger, however hard their caches thrash.
LATENCY_REFILL_VISIBILITY = 0.12

#: Resolution of the deterministic quantile grid a latency profile is
#: summarized through (``LatencyProfile.histogram``).
LATENCY_QUANTILE_POINTS = 128

#: Memoized ``(expo_grid, bucket_bounds)`` arrays of the summary
#: estimator (lazy: ``repro.obs`` must not be imported at module load).
_LATENCY_GRID = None


def _latency_grid():
    global _LATENCY_GRID
    if _LATENCY_GRID is None:
        from repro.obs.metrics import BUCKET_BOUNDS

        points = LATENCY_QUANTILE_POINTS
        expo = -np.log1p(-(np.arange(points) + 0.5) / points)
        _LATENCY_GRID = (
            expo, np.asarray(BUCKET_BOUNDS), expo.tolist(), BUCKET_BOUNDS
        )
    return _LATENCY_GRID


@dataclasses.dataclass(frozen=True)
class LatencyProfile:
    """Analytic per-WR completion-latency distribution of one experiment.

    Derived (:func:`derive_latency`) from the delay components the
    steady-state solve already prices: a *deterministic floor*
    ``base_us`` (wire serialization + packet-engine pipeline + PCIe
    round trips + link queueing) plus an exponential stall tail of mean
    ``tail_mean_us`` (pipeline-damped cache-miss refills, PFC pause
    stretching, and any latency-quirk stalls the part's
    ``latency_rules`` table charges).  The quantile function is
    closed-form::

        latency(q) = base_us + tail_mean_us * -ln(1 - q)

    Consumes no RNG and is a pure function of the solve outputs, so the
    profile is bit-identical between the scalar and batched evaluation
    paths and its presence cannot perturb a search.
    """

    base_us: float  #: deterministic floor (p0 of the distribution).
    tail_mean_us: float  #: mean of the exponential stall tail.
    #: Named per-WR breakdown in microseconds: ``serialization_us``,
    #: ``pipeline_us``, ``pcie_us``, ``queueing_us`` (the floor) and
    #: ``cache_us``, ``pause_us``, ``stall_us`` (the tail).
    components: dict
    #: Ground-truth tags of the latency quirks that fired (``L1``…);
    #: benchmark/test surface only, like ``Measurement.tags``.
    tags: tuple = ()

    @property
    def mean_us(self) -> float:
        return self.base_us + self.tail_mean_us

    def quantile(self, q: float) -> float:
        """Closed-form latency quantile, microseconds."""
        q = min(max(q, 0.0), 1.0 - 1e-12)
        return self.base_us + self.tail_mean_us * -math.log1p(-q)

    def histogram(self):
        """The profile observed into the obs percentile machinery.

        A deterministic mid-point quantile grid feeds a streaming
        :class:`~repro.obs.metrics.HistogramSummary`, so the recorded
        p50/p90/p99 go through exactly the same bucket-interpolation
        estimator every other journaled histogram uses.  The grid is
        bucketed in one vectorized pass: the summary runs once per
        experiment inside the monitor, and a per-point ``observe``
        loop here is what the latency-overhead bench gate caught.
        """
        from repro.obs.metrics import HistogramSummary

        expo, bounds = _latency_grid()[:2]
        values = self.base_us + self.tail_mean_us * expo
        counts = np.bincount(
            np.searchsorted(bounds, values, side="left"),
            minlength=len(bounds) + 1,
        )
        # The quantile function is monotone, so the grid is sorted.
        return HistogramSummary(
            count=len(values),
            total=float(values.sum()),
            minimum=float(values[0]),
            maximum=float(values[-1]),
            bucket_counts=counts.tolist(),
        )

    def summary(self) -> dict:
        """Journal-ready percentile summary (memoized; plain JSON).

        ``baseline_us`` is the workload's own deterministic floor and
        ``inflation`` the p99-over-baseline ratio the anomaly monitor's
        tail-latency trigger compares against its threshold multiple.
        """
        cached = self.__dict__.get("_summary")
        if cached is None:
            p50, p90, p99 = self._estimator_percentiles()
            cached = {
                "p50_us": p50,
                "p90_us": p90,
                "p99_us": p99,
                "mean_us": self.mean_us,
                "baseline_us": self.base_us,
                "inflation": p99 / self.base_us if self.base_us > 0 else 0.0,
                "components": dict(self.components),
                "tags": list(self.tags),
            }
            object.__setattr__(self, "_summary", cached)
        return cached

    def cached_summary(self) -> Optional[dict]:
        """The memoized :meth:`summary`, or ``None`` before first use."""
        return self.__dict__.get("_summary")

    def may_exceed(self, multiple: float) -> bool:
        """Can the estimator's p99 possibly exceed ``multiple`` x floor?

        Conservative O(1) bound: the estimator clamps p99 to the grid
        maximum ``base_us + tail_mean_us * expo[-1]``, so a profile
        whose maximum sits at or under the threshold is healthy without
        building the percentile summary.  The anomaly monitor's hot
        path leans on this — the full estimator only runs for profiles
        near or over the trigger.
        """
        if self.base_us <= 0:
            return False
        return self.may_exceed_value(multiple * self.base_us)

    def may_exceed_value(self, threshold_us: float) -> bool:
        """Can the estimator's p99 possibly exceed ``threshold_us``?

        The absolute-threshold twin of :meth:`may_exceed`, for triggers
        comparing against an *external* floor (the isolation monitor's
        victim alone-p99 rather than this profile's own base).
        """
        maximum = self.base_us + self.tail_mean_us * _latency_grid()[2][-1]
        return maximum > threshold_us

    def _estimator_percentiles(self):
        """p50/p90/p99 of :meth:`histogram`, without building it.

        Bit-identical to ``histogram().percentile(q)`` — same grid,
        same bucketing, same interpolation arithmetic — but touching
        only the handful of buckets the grid actually occupies.  This
        runs once per experiment on the monitor's hot path, which is
        what the latency-overhead bench gates.
        """
        expo, bounds = _latency_grid()[2:]
        base, tail = self.base_us, self.tail_mean_us
        count = LATENCY_QUANTILE_POINTS
        minimum = base + tail * expo[0]
        maximum = base + tail * expo[-1]
        first = bisect.bisect_left(bounds, minimum)
        last = bisect.bisect_left(bounds, maximum)
        # Cumulative grid points at or below each occupied bucket's
        # upper bound (the last occupied bucket absorbs the rest).
        # The grid is monotone, so each bound's rank is found by a
        # binary search resuming from the previous bound's rank.
        cums = []
        lo = 0
        for j in range(first, last):
            bound = bounds[j]
            hi = count
            while lo < hi:
                mid = (lo + hi) // 2
                if base + tail * expo[mid] <= bound:
                    lo = mid + 1
                else:
                    hi = mid
            cums.append(lo)
        cums.append(count)

        def percentile(quantile):
            rank = quantile * count
            cumulative_before = 0
            for offset, cumulative in enumerate(cums):
                bucket_count = cumulative - cumulative_before
                cumulative_before = cumulative
                if cumulative >= rank and bucket_count:
                    index = first + offset
                    upper = (
                        bounds[index] if index < len(bounds) else maximum
                    )
                    lower = bounds[index - 1] if index > 0 else minimum
                    upper = min(upper, maximum)
                    lower = min(max(lower, minimum), upper)
                    position = (rank - (cumulative - bucket_count)) / bucket_count
                    estimate = lower + (upper - lower) * position
                    return min(max(estimate, minimum), maximum)
            return maximum

        return percentile(0.50), percentile(0.90), percentile(0.99)


class LatencySummaryView:
    """Mapping view over :meth:`LatencyProfile.summary`, built lazily.

    Trace events carry this instead of the summary dict so a search
    that nobody journals never pays for percentile summaries nobody
    reads; journal writers subscript the view, which computes (and
    memoizes) the summary on the underlying profile at that point.
    """

    __slots__ = ("profile",)

    def __init__(self, profile: LatencyProfile) -> None:
        self.profile = profile

    def __getitem__(self, key):
        return self.profile.summary()[key]

    def get(self, key, default=None):
        return self.profile.summary().get(key, default)

    def keys(self):
        return self.profile.summary().keys()

    def items(self):
        return self.profile.summary().items()

    def __iter__(self):
        return iter(self.profile.summary())

    def __len__(self):
        return len(self.profile.summary())

    def __eq__(self, other):
        if isinstance(other, LatencySummaryView):
            other = other.profile.summary()
        return self.profile.summary() == other

    def __repr__(self):
        return f"LatencySummaryView({self.profile.summary()!r})"


def latency_for_solve(subsystem: "Subsystem", solve) -> LatencyProfile:
    """:func:`derive_latency` memoized on the (frozen) solve object.

    The profile is a pure function of the solve, so duplicate points
    sharing one cached solve — MFS ladders re-probing a witness, chains
    of a population rediscovering each other's regions — share one
    profile computation too.  Cache-less paths get a fresh solve per
    evaluation and pay full price, exactly as before.
    """
    memo = getattr(solve, "_latency", None)
    if memo is None:
        memo = derive_latency(subsystem, solve.features, solve.directions)
        object.__setattr__(solve, "_latency", memo)
    return memo


def derive_latency(
    subsystem: "Subsystem",
    features: dict,
    directions: tuple[DirectionRates, ...],
) -> LatencyProfile:
    """Per-WR latency decomposition from one solved experiment.

    A pure scalar function of the solve outputs (feature vector and
    per-direction rates) plus subsystem constants: both the scalar and
    the batched evaluation paths call it on bit-identical inputs, so
    the resulting profiles are bit-identical too.  No RNG is consumed.
    See docs/MODEL.md ("Per-WR latency") for the derivation.
    """
    rnic = subsystem.rnic
    pcie = subsystem.pcie
    fwd = directions[0]

    # Deterministic floor: wire serialization of one message, the fixed
    # packet-engine pipeline traversal, the PCIe round trips a WR cannot
    # avoid (WQE fetch + amortized doorbell, payload DMA, and READ's
    # extra request round trip), and M/M/1-style queueing on the shared
    # PCIe link at its current utilization.
    achieved = fwd.achieved_msgs_per_sec
    wire_per_msg = fwd.wire_bytes_per_sec / achieved if achieved > 0 else 0.0
    serialization = wire_per_msg / rnic.line_rate_bytes_per_sec * 1e6
    pipeline = rnic.pipeline_latency_us
    round_trip = pcie.read_latency_us
    transfer = pcie.transfer_us(int(round(features["avg_msg"])))
    is_read = features["opcode"] == "READ"
    pcie_us = (
        round_trip
        + round_trip / features["wqe_batch"]
        + (round_trip if is_read else 0.0)
        + transfer
    )
    bytes_total = sum(d.payload_bytes_per_sec for d in directions)
    utilization = min(0.95, bytes_total / pcie.effective_bytes_per_sec)
    queueing = transfer * utilization / (1.0 - utilization)

    # Stall tail: each QPC/MTT/receive-WQE miss costs a refill round
    # trip, damped by the pipeline's refill hiding (the same smooth
    # pressure terms the diagnostic counters carry, so the tail has a
    # gradient before any quirk fires, but analytically bounded under
    # the monitor's trigger — see LATENCY_REFILL_VISIBILITY), and PFC
    # pause stretches the wire time.
    miss_fraction = (
        features["qpc_miss"]
        + 0.3 * pressure_score(features["total_qps"], rnic.qpc_cache_entries)
        + features["mtt_miss"]
        + 0.3 * pressure_score(features["total_mrs"], rnic.mtt_cache_entries)
        + min(1.0, features["rxq_capacity_miss"] + features["rxq_burst_miss"])
    )
    cache_us = miss_stall_us(
        miss_fraction * LATENCY_REFILL_VISIBILITY, round_trip
    )
    pause_ratio = max(d.pause_ratio for d in directions)
    pause_us = pause_stall_us(pause_ratio, serialization + transfer)

    # Latency quirks: capacity-neutral stalls from the part's
    # ``latency_rules`` table — the regimes where refill hiding breaks
    # down (serialized double refills, RNR backoff storms).  This is the
    # only term that can push the tail past the trigger multiple.
    stall_us = 0.0
    tags = []
    for rule, stall in fired_latency_rules(rnic.latency_rules, features):
        stall_us += stall
        tags.append(rule.tag)

    base = serialization + pipeline + pcie_us + queueing
    tail = cache_us + pause_us + stall_us
    return LatencyProfile(
        base_us=base,
        tail_mean_us=tail,
        components={
            "serialization_us": serialization,
            "pipeline_us": pipeline,
            "pcie_us": pcie_us,
            "queueing_us": queueing,
            "cache_us": cache_us,
            "pause_us": pause_us,
            "stall_us": stall_us,
        },
        tags=tuple(tags),
    )


@dataclasses.dataclass
class Measurement:
    """Everything one experiment produced.

    ``samples``/``counters`` are the observable surface (what the paper's
    monitor fetches from vendor tools); ``directions``, ``fired`` and
    ``features`` are simulation ground truth used by tests and the
    benchmark harness, never by the search itself.
    """

    workload: WorkloadDescriptor
    subsystem_name: str
    samples: list[CounterSample]
    counters: dict
    directions: tuple[DirectionRates, ...]
    fired: tuple[FiredRule, ...]
    features: dict
    #: Analytic per-WR latency distribution (:func:`derive_latency`).
    #: Optional so bare-hands Measurement construction in tests stays valid.
    latency: Optional[LatencyProfile] = None

    @property
    def pause_ratio(self) -> float:
        return max(d.pause_ratio for d in self.directions)

    @property
    def tags(self) -> tuple[str, ...]:
        """Ground-truth anomaly tags active in this experiment."""
        return tuple(sorted({f.tag for f in self.fired}))

    @property
    def total_packets_per_sec(self) -> float:
        return sum(d.packets_per_sec for d in self.directions)

    @property
    def min_direction_wire_gbps(self) -> float:
        return min(d.wire_gbps for d in self.directions)


class SteadyStateModel:
    """Resolves workloads against one subsystem.

    With an :class:`~repro.core.evalcache.EvalCache` attached, the
    deterministic half of each evaluation — feature extraction, rule
    firing, the per-direction solve and the ideal counter synthesis — is
    memoized by canonical workload point.  Observation noise is *never*
    cached: it is re-sampled from the caller's RNG on every call, hit or
    miss, consuming exactly the same draws either way, so attaching a
    cache cannot change any result bit.
    """

    def __init__(
        self,
        subsystem: "Subsystem",
        noise: float = 0.02,
        cache: Optional["EvalCache"] = None,
    ) -> None:
        self.subsystem = subsystem
        self.noise = noise
        self.cache = cache

    # -- public API -----------------------------------------------------------

    def evaluate(
        self,
        workload: WorkloadDescriptor,
        rng: Optional[np.random.Generator] = None,
        sample_seconds: int = 4,
        phase: str = "search",
    ) -> Measurement:
        """Run one experiment and return its measurement.

        ``sample_seconds`` mirrors the paper's monitor, which fetches
        counters four times per iteration and averages (§6).  ``phase``
        attributes the evaluation in the cache's statistics (``probe``,
        ``search``, ``mfs``...).
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        solve = self._solve(workload, phase)
        monitor = VendorMonitor(rng, noise=self.noise)
        samples = monitor.sample_window(solve.ideal_counters, sample_seconds)
        return Measurement(
            workload=workload,
            subsystem_name=self.subsystem.name,
            samples=samples,
            counters=average_counters(samples),
            directions=solve.directions,
            fired=solve.fired,
            features=solve.features,
            latency=latency_for_solve(self.subsystem, solve),
        )

    def evaluate_many(
        self,
        workloads: "list[WorkloadDescriptor]",
        rng: Optional[np.random.Generator] = None,
        sample_seconds: int = 4,
        phase: str = "search",
    ) -> list[Measurement]:
        """Batched :meth:`evaluate` — bit-identical to a scalar loop.

        The deterministic solve runs once per *unique* point as array
        arithmetic; observation noise is still drawn from ``rng`` in the
        exact per-point order of the scalar loop (one flat draw sliced
        per point — provably the same stream).  See
        :mod:`repro.core.batcheval` for the engine.
        """
        from repro.core.batcheval import BatchEvaluator

        return BatchEvaluator(self).evaluate_many(
            workloads, rng=rng, sample_seconds=sample_seconds, phase=phase
        )

    def solve_points(self, workloads: "list[WorkloadDescriptor]") -> list:
        """Deterministic solves for a set of points — the batch seam.

        The batch evaluator calls this instead of reaching for
        :func:`solve_batch` directly, so model subclasses with a
        different datapath (:class:`~repro.hardware.coexist.CoRunModel`)
        plug into batched evaluation by overriding one method.
        Workloads are assumed validated and deduplicated by the caller.
        """
        return solve_batch(self.subsystem, workloads)

    def _solve(self, workload: WorkloadDescriptor, phase: str):
        """Deterministic solve, memoized when a cache is attached."""
        cache = self.cache
        if cache is not None:
            cached = cache.lookup(self.subsystem, workload, phase=phase)
            if cached is not None:
                return cached
        started = time.perf_counter()
        self._validate(workload)
        solve = self._solve_point(workload)
        if cache is not None:
            cache.store(self.subsystem, workload, solve)
            cache.charge("solve", time.perf_counter() - started)
        return solve

    def _solve_point(self, workload: WorkloadDescriptor):
        """Uncached solve of one validated point (the override seam)."""
        return steady_state_solve(self.subsystem, [workload])[0]

    # -- validation -----------------------------------------------------------

    def _validate(self, workload: WorkloadDescriptor) -> None:
        """Reject workloads that no real testbed could even set up."""
        topo = self.subsystem.topology
        for device in (workload.src_device, workload.dst_device):
            if not topo.has_device(device):
                raise ValueError(
                    f"subsystem {self.subsystem.name} has no memory device "
                    f"{device!r}; available: {topo.device_names()}"
                )


# -- the solver kernel --------------------------------------------------------
#
# Each stage is written once against ``ops`` (repro.hardware.ops): with
# SCALAR, ``w`` is one WorkloadDescriptor and every value a Python
# number; with ColumnOps, ``w`` is a column view and every value a
# float64 column.  Both modes run the same IEEE operations in the same
# order, so batched solves are bit-identical to scalar ones.


def solve_batch(subsystem: "Subsystem", workloads: "list[WorkloadDescriptor]"):
    """Deterministic solve of N validated points — the batch seam.

    Callers dedupe and cache around this function
    (:mod:`repro.core.batcheval`); the kernel picks the execution mode.
    One-point solves (:meth:`SteadyStateModel._solve`) call the kernel
    directly, so only batch solves pass through this name.
    """
    return steady_state_solve(subsystem, workloads)


def steady_state_solve(
    subsystem: "Subsystem", workloads: "list[WorkloadDescriptor]"
) -> list:
    """The solver kernel: features → rule gates → directions → counters.

    Returns one :class:`CachedSolve` per point, in order.  A single
    point runs in scalar mode, larger sets as columns
    (:func:`repro.hardware.ops.ops_for`).
    """
    if not workloads:
        return []
    ops, w = ops_for(workloads)
    features = extract_features(w, subsystem, ops)
    rows = gate_rules(subsystem.rnic.rules, features, ops)
    directions = solve_directions(subsystem, w, features, rows, ops)
    counters = ideal_counters(subsystem, w, features, rows, directions, ops)
    return assemble_solves(w, features, rows, directions, counters, ops)


def _wire_bytes_per_message(sizes: tuple, mtu: int) -> float:
    """Mean wire bytes of one message of the pattern, headers included."""
    return sum(
        s + packets_for(s, mtu) * ROCE_HEADER_BYTES for s in sizes
    ) / len(sizes)


def _squared(u: float) -> float:
    # Python pow: scalar ``u ** 2`` is not always the same float as a
    # multiply (which is what a numpy square would do), so the kernel
    # applies it per point in both modes.
    return u ** 2


def solve_directions(
    subsystem: "Subsystem",
    w: WorkloadDescriptor,
    features: dict,
    rows: list,
    ops=SCALAR,
) -> tuple[DirectionRates, ...]:
    """Steady-state rates per traffic direction: ``(fwd,)`` or ``(fwd, rev)``.

    ``rows`` are the fired rules (:func:`~repro.hardware.rules.gate_rules`).
    With columns, ``rev`` is solved for every point as soon as one point
    is bidirectional; only bidirectional points keep it.
    """
    rnic = subsystem.rnic
    pcie = subsystem.pcie
    topo = subsystem.topology

    tx_factor = 1.0
    rx_factor = 1.0
    for rule, mask, factor in rows:
        if rule.side == "tx":
            tx_factor = tx_factor * ops.where(mask, factor, 1.0)
        else:
            rx_factor = rx_factor * ops.where(mask, factor, 1.0)

    bidi = w.is_bidirectional
    is_read = w.opcode == Opcode.READ
    payload = w.avg_msg_bytes
    data_pkts = features["avg_pkts_per_msg"]
    wire_per_msg = ops.apply(_wire_bytes_per_message, w.msg_sizes_bytes, w.mtu)
    # Packet-processing events per message, including ACK traffic.
    pkt_events = ops.where(
        w.qp_type == QPType.RC,
        ops.where(
            is_read,
            data_pkts + 1.0,  # response packets + read request
            data_pkts * (1.0 + 1.0 / rnic.ack_coalesce),
        ),
        data_pkts,
    )

    # WQE issue cost: the initiator fetches its WQEs over PCIe; the
    # doorbell and the batch's TLP header amortise over the batch.
    # Cache-refill and receive-WQE-refetch traffic is deliberately NOT
    # charged here: the RNIC pipeline hides those penalties except in
    # the regimes Appendix A describes, which enter through the quirk
    # rules — keeping the structural accounting conservative ensures a
    # workload is anomalous if and only if a documented rule fires.
    issue_down = (
        w.wqe_bytes + (TLP_HEADER_BYTES + DOORBELL_BYTES) / w.wqe_batch
    )
    payload_down = pcie.transfer_bytes(ops.rint(payload), ops)
    payload_up = payload_down

    # READ: the data receiver is the initiator — it issues the read
    # WQEs and absorbs the response payload.
    sender_down = ops.where(is_read, payload_down, payload_down + issue_down)
    sender_up = ops.where(is_read, 0.0, CQE_BYTES)
    receiver_down = ops.where(is_read, issue_down, 0.0)
    receiver_up = payload_up + ops.where(
        is_read, CQE_BYTES, ops.where(w.uses_recv_wqes, CQE_BYTES, 0.0)
    )

    # Bidirectional: each NIC plays sender for one direction and
    # receiver for the other, sharing each PCIe bus direction between
    # the two roles.
    budget = pcie.effective_bytes_per_sec
    down = ops.where(
        bidi,
        sender_down + receiver_down,
        ops.maximum(sender_down, receiver_down),
    )
    up = ops.where(
        bidi, sender_up + receiver_up, ops.maximum(sender_up, receiver_up)
    )
    cap_down = budget / ops.maximum(down, 1e-9)
    cap_up = budget / ops.maximum(up, 1e-9)

    wire_cap = rnic.line_rate_bytes_per_sec / wire_per_msg
    pps_cap = rnic.max_pps / ops.where(bidi, 2, 1) / pkt_events

    # DMA-path caps; an unlimited (infinite) path bandwidth stays inf.
    dma_floor = ops.maximum(payload, 1.0)
    src_bw = ops.apply(topo.dma_path, w.src_device).bandwidth_gbps
    dst_bw = ops.apply(topo.dma_path, w.dst_device).bandwidth_gbps
    src_dma = src_bw * 1e9 / 8 / dma_floor
    dst_dma = dst_bw * 1e9 / 8 / dma_floor

    receiver_pcie_cap = ops.minimum(cap_down, cap_up)
    sender_pcie_cap = ops.where(is_read, cap_down, receiver_pcie_cap)

    def direction(name, tx_dma, rx_dma):
        # A sender that idles between requests (duty cycle < 1, the §8
        # inter-arrival extension) offers proportionally less load; the
        # receiver-side effects then only manifest when the *offered*
        # rate still exceeds the degraded service rate.
        injection = (
            ops.minimum(wire_cap, pps_cap, sender_pcie_cap, tx_dma)
            * tx_factor
            * w.duty_cycle
        )
        service = (
            ops.minimum(pps_cap, receiver_pcie_cap, rx_dma, wire_cap)
            * rx_factor
        )
        achieved = ops.minimum(injection, service)
        return DirectionRates(
            name=name,
            achieved_msgs_per_sec=achieved,
            injection_msgs_per_sec=injection,
            payload_bytes_per_sec=achieved * payload,
            wire_bytes_per_sec=achieved * wire_per_msg,
            packets_per_sec=achieved * pkt_events,
            pause_ratio=steady_state_pause_ratio(injection, service, ops),
        )

    fwd = direction("fwd", src_dma, dst_dma)
    if not ops.any(bidi):
        return (fwd,)
    return (fwd, direction("rev", dst_dma, src_dma))


def ideal_counters(
    subsystem: "Subsystem",
    w: WorkloadDescriptor,
    features: dict,
    rows: list,
    directions: tuple[DirectionRates, ...],
    ops=SCALAR,
) -> dict:
    """Noise-free counter rates of solved directions (the monitor's truth)."""
    rnic = subsystem.rnic
    rxq = rnic.rx_wqe_cache
    bidi = w.is_bidirectional
    is_read = w.opcode == Opcode.READ
    data_pkts = features["avg_pkts_per_msg"]
    fwd = directions[0]
    rev = directions[-1]  # only read where bidirectional

    def total(rate):
        return getattr(fwd, rate) + ops.where(bidi, getattr(rev, rate), 0.0)

    msgs_total = total("achieved_msgs_per_sec")
    pkts_total = total("packets_per_sec")
    bytes_total = total("payload_bytes_per_sec")
    pause_ratio = ops.where(
        bidi, ops.maximum(fwd.pause_ratio, rev.pause_ratio), fwd.pause_ratio
    )

    counters: dict = {
        "tx_bytes_per_sec": fwd.wire_bytes_per_sec,
        "rx_bytes_per_sec": ops.where(bidi, rev.wire_bytes_per_sec, 0.0),
        "tx_packets_per_sec": fwd.packets_per_sec,
        "rx_packets_per_sec": ops.where(bidi, rev.packets_per_sec, 0.0),
        "pause_duration_us_per_sec": pause_ratio * 1e6,
    }

    # Diagnostic counters: a smooth pressure term (the gradient the
    # search climbs) plus the realised miss/stall events.
    #
    # Multi-packet SENDs pin their receive WQE across all packets of the
    # message, so mid-size messages at small MTU stress the cache harder
    # than single-packet ones.
    pinning = 1.0 + ops.minimum(data_pkts, 8.0) / 4.0
    rx_wqe = ops.where(
        w.uses_recv_wqes,
        (
            ops.minimum(
                1.0, features["rxq_capacity_miss"] + features["rxq_burst_miss"]
            )
            + 0.3 * pressure_score(
                w.total_outstanding_recv_wqes, rxq.total_entries
            )
            + 0.2
            * pressure_score(w.wq_depth, max(rxq.per_qp_entries, 1))
            * (w.wqe_batch / (w.wqe_batch + rxq.prefetch_window))
        ) * msgs_total * pinning,
        0.0,
    )

    # Context-switch intensity: shallow work queues and unbatched
    # posting force the scheduler to rotate across QPs per request,
    # touching a different QPC each time; deep per-QP bursts keep the
    # context hot.
    switch_intensity = (
        32.0 / (32.0 + w.wq_depth) + 2.0 / (2.0 + w.wqe_batch)
    )
    qpc = (
        features["qpc_miss"]
        + 0.3 * pressure_score(features["total_qps"], rnic.qpc_cache_entries)
    ) * msgs_total * switch_intensity
    mtt = (
        features["mtt_miss"]
        + 0.3 * pressure_score(w.total_mrs, rnic.mtt_cache_entries)
    ) * msgs_total

    mix = features["small_frac"] * features["large_frac"] * 4.0
    ordering = (
        features["strict_ordering"]
        * (0.3 + 0.7 * features["bidirectional"])
        * ops.minimum(1.0, w.sge_per_wqe / 3.0)
        * (0.3 + 0.7 * features["sg_entry_mix"])
        * (mix + 0.05)
        * pkts_total
        * 0.1
    )

    cross_socket = (
        features["crosses_socket"]
        * (1.0 + features["bidirectional"])
        * (1.0 + features["weak_cross_socket"])
        * bytes_total
        * 1e-5
    )

    incast = features["loopback"] * msgs_total * (
        0.5 if not rnic.loopback_rate_limited else 0.1
    )

    def overload_of(d):
        achieved = d.achieved_msgs_per_sec
        safe = ops.where(achieved > 0, achieved, 1.0)
        return ops.where(
            achieved > 0, d.injection_msgs_per_sec / safe - 1.0, 0.0
        )

    overload = ops.maximum(
        0.0,
        ops.where(
            bidi,
            ops.maximum(overload_of(fwd), overload_of(rev)),
            overload_of(fwd),
        ),
    )
    read_pressure = (
        ops.where(is_read, 1.0, 0.0)
        * ops.minimum(1.0, data_pkts / 16.0)
        * (1024.0 / w.mtu)
    )
    # Short-request storms pressure the shared (not fully
    # bidirectional) packet processor from both sides at once; RC's
    # packet-level ACKs add processing events per request, and the
    # storm only blocks anything when long messages are present.
    rc_ack_load = ops.where(w.qp_type == QPType.RC, 1.5, 1.0)
    short_pressure = (
        pressure_score(
            features["short_req_outstanding"]
            * (1.0 + features["bidirectional"])
            * rc_ack_load,
            # Knee past the quirk threshold so the gradient survives
            # through the whole approach to the trigger region.
            4 * 12288,
        )
        * (0.4 + 0.6 * ops.minimum(1.0, 4.0 * features["large_frac"]))
        * rc_ack_load
    )
    rx_buffer = (
        pause_ratio * 10.0
        + ops.minimum(overload, 10.0)
        + 0.5 * short_pressure
        + 0.3 * read_pressure
    ) * 1e4

    # WQE-fetch pressure doubles for bidirectional traffic (both NICs
    # fetch) and grows for READ (response-tracking state per WQE).
    wqe_pressure_bytes = (
        features["wqe_outstanding_bytes"]
        * (1.0 + features["bidirectional"])
        * ops.where(is_read, 1.5, 1.0)
    )
    tx_wqe_fetch = (
        pressure_score(wqe_pressure_bytes, 256 * 1024)
        + 0.2 * ops.minimum(1.0, w.sge_per_wqe / 4.0)
    ) * msgs_total * 0.1

    down_util = ops.minimum(
        1.0, bytes_total / subsystem.pcie.effective_bytes_per_sec
    )
    backpressure = ops.apply(_squared, down_util) * 5e3

    counters.update(
        {
            "rx_wqe_cache_miss": rx_wqe,
            "qpc_cache_miss": qpc,
            "mtt_cache_miss": mtt,
            "pcie_ordering_stall": ordering,
            "cross_socket_pressure": cross_socket,
            "internal_incast_events": incast,
            "rx_buffer_full_events": rx_buffer,
            "tx_wqe_fetch_stall": tx_wqe_fetch,
            "pcie_internal_backpressure": backpressure,
        }
    )

    # A fired quirk drives its designated counter to an extreme region
    # (paper §7.2: "most anomalies are found when the diagnostic
    # counter value is high").
    for rule, mask, factor in rows:
        spike = (1.0 - factor) * ops.maximum(msgs_total, 1.0) * 2.0
        counters[rule.counter] = counters.get(rule.counter, 0.0) + ops.where(
            mask, spike, 0.0
        )
    return counters


def assemble_solves(
    w: WorkloadDescriptor,
    features: dict,
    rows: list,
    directions: tuple[DirectionRates, ...],
    counters: dict,
    ops=SCALAR,
) -> list:
    """Per-point :class:`CachedSolve` records.

    A unidirectional point keeps only its ``fwd`` direction; fired rules
    are listed in table order.
    """
    fwd = ops.records(directions[0])
    rev = ops.records(directions[1]) if len(directions) > 1 else fwd
    two_sided = ops.records(w.is_bidirectional)
    fired: list = [[] for _ in two_sided]
    for rule, mask, factor in rows:
        hits = zip(fired, ops.records(mask), ops.records(factor))
        for point, hit, value in hits:
            if hit:
                point.append(FiredRule(rule=rule, factor=value))
    return [
        CachedSolve(
            directions=(f, r) if both else (f,),
            fired=tuple(point),
            features=point_features,
            ideal_counters=point_counters,
        )
        for f, r, both, point, point_features, point_counters in zip(
            fwd,
            rev,
            two_sided,
            fired,
            ops.records(features),
            ops.records(counters),
        )
    ]
