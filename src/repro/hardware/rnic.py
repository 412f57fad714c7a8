"""RNIC models: engine capabilities, on-chip caches and per-part quirks.

Figure 1 of the paper decomposes an RNIC into TX/RX engines, an MMU with a
translation cache, an SRAM cache for per-connection metadata, and packet
buffers.  :class:`RNICProfile` captures the capacity of each of those
components for one part number, plus the *quirk rules* — the declarative
trigger conditions of the Appendix A anomalies — that the steady-state
model applies on top of the generic resource accounting.

The concrete profiles (ConnectX-5/6, P2100G) live in
:mod:`repro.hardware.parts`.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.ops import SCALAR
from repro.hardware.rules import AnomalyRule, LatencyRule

#: Traversal latency of one packet-engine pipeline stage, nanoseconds.
#: Multiplied by ``pipeline_stages`` it is the fixed on-chip share of a
#: WR's completion latency (the `pipeline` component of the per-WR
#: latency decomposition, docs/MODEL.md).
PIPELINE_STAGE_NS = 250.0


@dataclasses.dataclass(frozen=True)
class RxWqeCacheSpec:
    """The receive-WQE prefetch cache (Appendix A, root cause #1).

    The RX engine prefetches receive WQEs into a small SRAM so it can place
    incoming SENDs without a PCIe round trip.  Two failure paths exist:

    * **capacity**: the total posted receive WQEs across QPs
      (``num_qps × wq_depth``) exceed ``total_entries``;
    * **burst**: a doorbell batch of back-to-back messages overruns the
      per-QP ``prefetch_window`` when the work queue is deeper than the
      ``per_qp_entries`` the cache will pin for one QP.
    """

    total_entries: int
    per_qp_entries: int
    prefetch_window: int

    def capacity_miss(self, outstanding: int, ops=SCALAR) -> float:
        """Steady-state miss fraction of the capacity path."""
        posted = outstanding > 0
        safe = ops.where(posted, outstanding, 1)
        return ops.where(
            posted, ops.maximum(0.0, 1.0 - self.total_entries / safe), 0.0
        )

    def burst_miss(self, wq_depth: int, batch: int, ops=SCALAR) -> float:
        """Miss fraction of the burst path (0 while the WQ fits the cache)."""
        overrun = ops.and_(wq_depth > self.per_qp_entries, batch > 0)
        safe = ops.where(batch > 0, batch, 1)
        return ops.where(
            overrun, ops.maximum(0.0, 1.0 - self.prefetch_window / safe), 0.0
        )


@dataclasses.dataclass(frozen=True)
class RNICProfile:
    """Capabilities and microarchitectural parameters of one RNIC model.

    ``line_rate_gbps`` and ``max_pps`` are the two specification ceilings
    Collie's anomaly definition compares against (§3): a healthy workload
    is bottlenecked by one of them.  The cache sizes and the ``rules``
    table drive everything anomalous.
    """

    name: str
    line_rate_gbps: float
    max_pps: float
    #: PUs × pipeline stages bounds the outstanding-request interaction
    #: window; the search space uses the product as its message-pattern
    #: vector length (paper §4, Dimension 4).
    processing_units: int = 2
    pipeline_stages: int = 2
    #: RNIC splits long requests into bursts of this size (HoL avoidance).
    burst_bytes: int = 16 * 1024
    rx_buffer_kb: int = 2048
    tx_buffer_kb: int = 2048
    #: Connection-context (QPC) cache entries — root cause #2, anomaly #8.
    qpc_cache_entries: int = 1 << 16
    #: Memory-translation (MTT) cache entries — root cause #2, anomaly #7.
    mtt_cache_entries: int = 1 << 18
    rx_wqe_cache: RxWqeCacheSpec = RxWqeCacheSpec(
        total_entries=1 << 15, per_qp_entries=1 << 10, prefetch_window=64
    )
    #: RC ACK coalescing: one ACK per this many data packets.
    ack_coalesce: int = 4
    #: Whether the part rate-limits loopback traffic internally; the CX-6
    #: generation does not, which is root cause #6 (anomaly #13).
    loopback_rate_limited: bool = True
    #: Quirk rules: the declarative Appendix A trigger conditions.
    rules: tuple[AnomalyRule, ...] = ()
    #: Latency quirks: capacity-neutral stalls only the per-WR latency
    #: decomposition sees (tags ``L1``…, distinct from Table 2 rows).
    latency_rules: tuple[LatencyRule, ...] = ()

    def __post_init__(self) -> None:
        if self.line_rate_gbps <= 0 or self.max_pps <= 0:
            raise ValueError("line_rate_gbps and max_pps must be positive")

    @property
    def line_rate_bytes_per_sec(self) -> float:
        return self.line_rate_gbps * 1e9 / 8

    @property
    def pattern_length(self) -> int:
        """Search-space message-vector length: PUs × pipeline stages."""
        return self.processing_units * self.pipeline_stages

    @property
    def pipeline_latency_us(self) -> float:
        """Fixed packet-engine traversal latency per WR, microseconds."""
        return self.pipeline_stages * PIPELINE_STAGE_NS / 1e3

    def wire_payload_cap_bytes_per_sec(self, mtu: int) -> float:
        """Payload bytes/s the wire sustains at a given MTU.

        RoCEv2 headers eat a per-packet share of the line rate; the
        anomaly monitor uses this MTU-aware bound as the bits/s
        expectation (a 256-byte MTU cannot reach nominal line rate and
        that is not an anomaly).
        """
        from repro.verbs.constants import ROCE_HEADER_BYTES

        return self.line_rate_bytes_per_sec * mtu / (mtu + ROCE_HEADER_BYTES)
