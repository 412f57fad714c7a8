"""Declarative anomaly rules: the quirk tables of each RNIC part.

Appendix A of the paper documents 18 anomalies, each a conjunction of
workload features ("Bidirectional RC READ with WQE batch ≥ 32, SG list
≥ 4, ≈160 connections…").  We encode each as an :class:`AnomalyRule`: a
:class:`Gate` over the extracted workload feature vector plus an effect —
a multiplicative capacity factor on the sender (``tx``) or receiver
(``rx``) side.  Receiver-side effects produce PFC pauses (the RX buffer
fills and the NIC pauses the link); sender-side effects produce silent
throughput loss, exactly the two symptom classes of Table 2.

The rules are *ground truth* for the benchmarks: the steady-state model
reports which rules fired (``tags``), letting the evaluation count
distinct anomalies found, while Collie itself never sees the tags — it
only sees counters, like the paper's tool.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Union

from repro.hardware.ops import SCALAR

FeatureValue = Union[float, str]


@dataclasses.dataclass(frozen=True)
class Gate:
    """A conjunction of bounds/membership tests over workload features.

    ``bounds`` maps a numeric feature to an inclusive ``(low, high)``
    interval (either side may be ``None``); ``isin`` maps a categorical
    feature to its accepted values.  A gate with no conditions matches
    everything, which no rule should want — the constructor rejects it.
    """

    bounds: Mapping[str, tuple[Optional[float], Optional[float]]] = (
        dataclasses.field(default_factory=dict)
    )
    isin: Mapping[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bounds and not self.isin:
            raise ValueError("a gate must constrain at least one feature")
        for feature, (low, high) in self.bounds.items():
            if low is None and high is None:
                raise ValueError(f"gate bound on {feature!r} is vacuous")
            if low is not None and high is not None and low > high:
                raise ValueError(
                    f"gate bound on {feature!r} is empty: ({low}, {high})"
                )

    def matches(
        self, features: Mapping[str, FeatureValue], ops=SCALAR
    ) -> bool:
        """Whether a feature vector satisfies every condition.

        With column features (``ops``, :mod:`repro.hardware.ops`) the
        answer is a per-point mask; either way the evaluation stops as
        soon as no point can match.
        """
        and_, any_ = ops.and_, ops.any
        mask = True
        for feature, accepted in self.isin.items():
            value = features.get(feature)
            if value is None:
                return False
            mask = and_(mask, ops.isin(value, accepted))
            if not any_(mask):
                return mask
        for feature, (low, high) in self.bounds.items():
            value = features.get(feature)
            if value is None:
                return False
            if low is not None:
                mask = and_(mask, value >= low)
            if high is not None:
                mask = and_(mask, value <= high)
            if not any_(mask):
                return mask
        return mask


@dataclasses.dataclass(frozen=True)
class AnomalyRule:
    """One quirk: gate + capacity effect + ground-truth tag.

    ``side`` is ``"rx"`` (receiver can't keep up → PFC pause frames) or
    ``"tx"`` (sender injects slowly → reduced throughput, no pauses).
    ``factor`` multiplies that side's capacity when the gate matches.  If
    ``scale_feature`` is set, the factor instead degrades linearly with
    that feature's value: ``1 - scale_coeff × feature`` (clamped to
    ``[floor, 1]``) — used by the cache-miss anomalies whose severity
    grows with the miss rate.
    """

    tag: str  #: Table 2 anomaly id, e.g. ``"A4"``.
    title: str  #: human-readable one-liner.
    root_cause: str  #: Appendix A root-cause family, e.g. ``"rx_wqe_cache"``.
    gate: Gate
    side: str
    factor: float = 0.5
    scale_feature: Optional[str] = None
    scale_coeff: float = 0.0
    floor: float = 0.05
    #: Diagnostic counter this quirk inflates when it fires.
    counter: str = "pcie_internal_backpressure"

    def __post_init__(self) -> None:
        if self.side not in ("rx", "tx"):
            raise ValueError(f"rule side must be 'rx' or 'tx', got {self.side!r}")
        if not 0 < self.factor <= 1:
            raise ValueError(f"rule factor must be in (0, 1], got {self.factor}")

    @property
    def symptom(self) -> str:
        """Table 2 symptom column for this rule."""
        return "pause frame" if self.side == "rx" else "low throughput"

    def matches(
        self, features: Mapping[str, FeatureValue], ops=SCALAR
    ) -> bool:
        return self.gate.matches(features, ops)

    def effect_factor(
        self, features: Mapping[str, FeatureValue], ops=SCALAR
    ) -> float:
        """Capacity multiplier when the gate matches."""
        if self.scale_feature is None:
            return self.factor
        value = features.get(self.scale_feature, 0.0)
        return ops.maximum(
            self.floor, ops.minimum(1.0, 1.0 - self.scale_coeff * value)
        )


@dataclasses.dataclass(frozen=True)
class LatencyRule:
    """One latency quirk: gate + per-WR stall + ground-truth tag.

    Unlike :class:`AnomalyRule`, a latency rule leaves capacity (and so
    every throughput counter) untouched — the wire stays full — and
    instead lengthens the mean of the exponential per-WR stall tail the
    latency decomposition derives (:func:`repro.hardware.model.derive_latency`).
    That is the anomaly class the paper's two symptoms cannot see: the
    RNIC sustains its message rate while individual WRs crawl through
    serialized context refills or RNR backoff.

    ``stall_us`` is the stall-tail mean added when the gate matches; if
    ``scale_feature`` is set the stall scales linearly with that
    feature's value (used by the cache-thrash quirks whose severity
    grows with the miss rate).  Tags use an ``L`` prefix (``L1``…) so
    ground-truth accounting keeps them distinct from the Table 2 rows.
    """

    tag: str
    title: str
    root_cause: str
    gate: Gate
    stall_us: float
    scale_feature: Optional[str] = None
    #: Diagnostic counter whose gradient leads the search into the gate
    #: (latency rules never inflate counters themselves).
    counter: str = "qpc_cache_miss"

    def __post_init__(self) -> None:
        if self.stall_us <= 0:
            raise ValueError(
                f"latency rule stall must be positive, got {self.stall_us}"
            )

    @property
    def symptom(self) -> str:
        return "latency inflation"

    def matches(self, features: Mapping[str, FeatureValue]) -> bool:
        return self.gate.matches(features)

    def stall(self, features: Mapping[str, FeatureValue]) -> float:
        """Stall-tail mean (µs) contributed when the gate matches."""
        if self.scale_feature is None:
            return self.stall_us
        return self.stall_us * float(features.get(self.scale_feature, 0.0))


def fired_latency_rules(
    rules: tuple[LatencyRule, ...], features: Mapping[str, FeatureValue]
) -> list[tuple[LatencyRule, float]]:
    """Evaluate a latency-rule table; ``(rule, stall_us)`` in table order."""
    fired = []
    for rule in rules:
        if rule.matches(features):
            fired.append((rule, rule.stall(features)))
    return fired


@dataclasses.dataclass(frozen=True)
class FiredRule:
    """A rule that matched a workload, with its resolved factor."""

    rule: AnomalyRule
    factor: float

    @property
    def tag(self) -> str:
        return self.rule.tag


def gate_rules(
    rules: tuple[AnomalyRule, ...],
    features: Mapping[str, FeatureValue],
    ops=SCALAR,
) -> list[tuple[AnomalyRule, object, object]]:
    """Gate a rule table: ``(rule, mask, factor)`` per rule that fired.

    Rows come in table order, so multiplying their factors reproduces
    the fired list's products exactly; with column features a row is
    kept when the rule fired for at least one point.
    """
    rows = []
    for rule in rules:
        mask = rule.matches(features, ops)
        if ops.any(mask):
            rows.append((rule, mask, rule.effect_factor(features, ops)))
    return rows


def fired_rules(
    rules: tuple[AnomalyRule, ...], features: Mapping[str, FeatureValue]
) -> list[FiredRule]:
    """Evaluate a rule table against a feature vector."""
    return [
        FiredRule(rule=rule, factor=factor)
        for rule, _, factor in gate_rules(rules, features)
    ]
