"""Cache models for RNIC on-chip SRAM structures.

RNICs cache connection context (QPC), memory-translation entries (MTT) and
prefetched receive WQEs in a small SRAM (paper Fig. 1, circles 5/8).  Two
views are provided:

* :class:`LRUCache` — an exact LRU used by fine-grained simulation and as
  the reference implementation for property tests;
* :func:`steady_state_miss_rate` — the closed-form miss-rate estimate the
  steady-state solver uses, validated against :class:`LRUCache` in the
  test suite.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable

from repro.hardware.ops import SCALAR


class LRUCache:
    """Exact least-recently-used cache with hit/miss accounting."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def access(self, key: Hashable) -> bool:
        """Touch ``key``; returns True on hit, False on miss (and inserts)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return False

    def access_many(self, keys: Iterable[Hashable]) -> int:
        """Touch a sequence of keys; returns the number of misses."""
        before = self.misses
        for key in keys:
            self.access(key)
        return self.misses - before

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0


def steady_state_miss_rate(
    working_set: float, capacity: float, ops=SCALAR
) -> float:
    """Closed-form LRU miss rate for uniform-random access.

    With a working set of ``w`` equally likely entries and ``c`` cache
    slots, steady-state LRU keeps an (approximately) uniform random subset
    of size ``min(w, c)`` resident, so the miss probability of the next
    access is ``max(0, 1 - c/w)``.  This matches :class:`LRUCache` measured
    on long uniform traces (see ``tests/hardware/test_caches.py``) and is
    exact in the limits (0 when the set fits, →1 as the set grows).
    ``working_set`` may be a column (``ops``, :mod:`repro.hardware.ops`).
    """
    occupied = working_set > 0
    if capacity <= 0:
        return ops.where(occupied, 1.0, 0.0)
    safe = ops.where(occupied, working_set, 1.0)
    return ops.where(occupied, ops.maximum(0.0, 1.0 - capacity / safe), 0.0)


def miss_stall_us(miss_fraction: float, refill_us: float) -> float:
    """Mean per-access stall of a cache path, microseconds.

    Each miss costs one refill round trip (a PCIe read for the RNIC's
    SRAM structures); the steady-state mean stall is simply the miss
    fraction times that round trip.  Kept as a named helper so the
    latency decomposition (docs/MODEL.md) reads in domain terms.
    """
    return max(0.0, miss_fraction) * refill_us


def pressure_score(working_set: float, capacity: float, knee: float = 1.0) -> float:
    """Smooth [0, 1) pressure signal for diagnostic counters.

    Unlike :func:`steady_state_miss_rate`, which is zero until the working
    set exceeds capacity, the pressure score starts rising *before* the
    cache overflows (``knee`` < 1 moves the onset earlier).  This is what
    gives the search algorithm a gradient to climb: the paper's diagnostic
    counters tick up under load well before the anomaly manifests (§7.2).
    Plain arithmetic, so ``working_set`` may equally be a column.
    """
    if capacity <= 0:
        return 1.0
    x = working_set / (capacity * knee)
    return x / (1.0 + x)
