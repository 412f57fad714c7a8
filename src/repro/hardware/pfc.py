"""Priority-based Flow Control (802.1Qbb) accounting.

RoCEv2 relies on PFC for losslessness: when an ingress buffer passes its
XOFF threshold the receiver pauses the upstream sender.  Collie's first
anomaly condition is *any* sustained pause traffic on an uncongested
two-node network (pause duration ratio above 0.1%, paper §5.2).

Two granularities are provided: :func:`steady_state_pause_ratio` is the
closed-form duty cycle the solver uses, and :class:`PFCIngressQueue` is a
token-level queue used in tests to validate that the closed form matches
an event-by-event simulation.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.ops import SCALAR

#: The paper's anomaly threshold: transmission paused more than 0.1% of
#: wall time on an uncongested network.
PAUSE_RATIO_THRESHOLD = 0.001

#: Bytes of one PFC pause frame on the wire.
PAUSE_FRAME_BYTES = 64

#: Pause quanta are expressed in units of 512 bit times (802.1Qbb).
QUANTA_BITS = 512


def steady_state_pause_ratio(
    arrival_rate: float, service_rate: float, ops=SCALAR
) -> float:
    """Fraction of time the receiver keeps the sender paused.

    With a finite lossless ingress buffer, a receiver that drains at
    ``service_rate`` while traffic arrives at ``arrival_rate`` must pause
    the link for exactly the excess fraction in steady state:
    ``1 - service/arrival`` (clamped to [0, 1)).  Below capacity, no
    pauses are needed.  The rates may be columns
    (``ops``, :mod:`repro.hardware.ops`).
    """
    safe = ops.where(arrival_rate > 0, arrival_rate, 1.0)
    starved = 1.0 - service_rate / safe
    return ops.where(
        arrival_rate <= 0,
        0.0,
        ops.where(
            service_rate >= arrival_rate,
            0.0,
            ops.where(service_rate <= 0, 1.0, starved),
        ),
    )


def pause_stall_us(pause_ratio: float, per_wr_us: float) -> float:
    """Mean extra per-WR stall a PFC pause duty cycle induces.

    A link paused a fraction ``p`` of the time is usable only ``1 - p``
    of it, so the wire time of one WR stretches by ``p / (1 - p)`` on
    average (clamped near full saturation to keep the closed form
    finite).
    """
    p = min(max(pause_ratio, 0.0), 0.99)
    if p <= 0.0:
        return 0.0
    return per_wr_us * p / (1.0 - p)


def pause_frames_per_second(
    pause_ratio: float, line_rate_gbps: float, quanta_per_frame: int = 0xFFFF
) -> float:
    """Estimate the pause-frame rate that sustains a given duty cycle.

    Each frame requests ``quanta_per_frame`` quanta of 512 bit-times, so
    the frame rate needed to keep the link paused ``pause_ratio`` of the
    time scales with the line rate.
    """
    if pause_ratio <= 0:
        return 0.0
    pause_seconds_per_frame = quanta_per_frame * QUANTA_BITS / (line_rate_gbps * 1e9)
    return pause_ratio / pause_seconds_per_frame


@dataclasses.dataclass
class PFCIngressQueue:
    """Event-level lossless ingress queue for validation tests.

    Bytes arrive and drain in discrete ticks; when occupancy crosses
    ``xoff_bytes`` the queue asserts pause until it falls below
    ``xon_bytes``.  The measured pause duty cycle should approach
    :func:`steady_state_pause_ratio` for constant rates.
    """

    capacity_bytes: int
    xoff_bytes: int
    xon_bytes: int
    occupancy: int = 0
    paused: bool = False
    paused_ticks: int = 0
    total_ticks: int = 0
    pause_transitions: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.xon_bytes <= self.xoff_bytes <= self.capacity_bytes:
            raise ValueError(
                "need 0 < xon <= xoff <= capacity, got "
                f"xon={self.xon_bytes} xoff={self.xoff_bytes} "
                f"capacity={self.capacity_bytes}"
            )

    def tick(self, arriving_bytes: int, draining_bytes: int) -> bool:
        """Advance one tick; returns whether the queue is pausing upstream.

        While paused, the upstream sends nothing, so arrivals are
        suppressed; draining continues.
        """
        self.total_ticks += 1
        if not self.paused:
            self.occupancy += arriving_bytes
        self.occupancy = max(0, self.occupancy - draining_bytes)
        if self.occupancy > self.capacity_bytes:
            raise AssertionError(
                "lossless queue overflowed: PFC thresholds misconfigured"
            )
        previously = self.paused
        if self.paused and self.occupancy <= self.xon_bytes:
            self.paused = False
        elif not self.paused and self.occupancy >= self.xoff_bytes:
            self.paused = True
        if self.paused != previously:
            self.pause_transitions += 1
        if self.paused:
            self.paused_ticks += 1
        return self.paused

    @property
    def pause_ratio(self) -> float:
        return self.paused_ticks / self.total_ticks if self.total_ticks else 0.0
