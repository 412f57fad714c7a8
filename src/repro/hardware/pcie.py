"""PCIe link model: bandwidth, TLP overheads, latency, ordering.

The RNIC talks to every memory device through PCIe; Neugebauer et al.
(SIGCOMM'18, paper ref [30]) showed the link's *effective* bandwidth after
TLP overheads is what bounds host networking, and several Collie anomalies
(#4, #9, #13) are PCIe-side.  This model prices DMA payload movement, WQE
fetches, doorbells and CQE writes, and carries the relaxed-ordering flag
whose absence triggers anomaly #9 on strict-ordering AMD root complexes.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.ops import SCALAR

#: Per-generation raw signalling rate per lane in GT/s and encoding
#: efficiency (gen1/2 use 8b/10b, gen3+ 128b/130b).
_GEN_GTS = {1: 2.5, 2: 5.0, 3: 8.0, 4: 16.0, 5: 32.0}
_GEN_ENCODING = {1: 0.8, 2: 0.8, 3: 128 / 130, 4: 128 / 130, 5: 128 / 130}

#: TLP header bytes per transaction (3-4 DW header + framing).
TLP_HEADER_BYTES = 24
#: Doorbell (MMIO write) bytes, charged once per posted batch.
DOORBELL_BYTES = 8
#: CQE DMA write bytes, charged per signaled completion.
CQE_BYTES = 64
#: Bytes fetched on a QPC or MTT cache refill.
CACHE_REFILL_BYTES = 64


@dataclasses.dataclass(frozen=True)
class PCIeLink:
    """One PCIe slot: generation, lane count and payload configuration."""

    gen: int = 3
    lanes: int = 16
    #: MaxPayloadSize; datacenter BIOSes run 512 (256 doubles the TLP
    #: overhead on small DMAs and starves 200 Gbps parts of headroom).
    max_payload_bytes: int = 512
    #: Whether the platform honours relaxed-ordering DMA.  On the paper's
    #: AMD testbeds the RNIC had to be *forced* into relaxed ordering to fix
    #: anomaly #9; ``False`` here means strict ordering applies.
    relaxed_ordering: bool = True
    #: Round-trip time of a DMA read (doorbell-to-data), nanoseconds.
    read_latency_ns: float = 900.0

    def __post_init__(self) -> None:
        if self.gen not in _GEN_GTS:
            raise ValueError(f"unknown PCIe generation {self.gen}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid lane count {self.lanes}")

    @property
    def raw_gbps(self) -> float:
        """Raw link rate after encoding, both directions symmetric."""
        return _GEN_GTS[self.gen] * self.lanes * _GEN_ENCODING[self.gen]

    @property
    def effective_gbps(self) -> float:
        """Usable data bandwidth after TLP header overhead at max payload."""
        payload = self.max_payload_bytes
        return self.raw_gbps * payload / (payload + TLP_HEADER_BYTES)

    @property
    def effective_bytes_per_sec(self) -> float:
        return self.effective_gbps * 1e9 / 8

    @property
    def read_latency_us(self) -> float:
        """DMA read round trip in microseconds (latency-model unit)."""
        return self.read_latency_ns / 1e3

    def transfer_bytes(self, payload_bytes: int, ops=SCALAR) -> int:
        """Bytes on the link to move ``payload_bytes`` of DMA payload.

        Payload is split into max-payload-sized TLPs, each with its header.
        """
        tlps = -(-payload_bytes // self.max_payload_bytes)
        return ops.where(
            payload_bytes <= 0, 0, payload_bytes + tlps * TLP_HEADER_BYTES
        )

    def transfer_us(self, payload_bytes: int) -> float:
        """Microseconds to move one DMA payload at the effective rate."""
        return (
            self.transfer_bytes(payload_bytes)
            / self.effective_bytes_per_sec
            * 1e6
        )

    def describe(self) -> str:
        """Human-readable slot description, e.g. ``3.0 x16``."""
        return f"{self.gen}.0 x{self.lanes}"
