"""Workload feature extraction for the rule gates and pressure counters.

Turns a :class:`~repro.hardware.workload.WorkloadDescriptor` evaluated on a
concrete subsystem into a flat feature vector: the raw search dimensions,
the derived verbs-level quantities (packets per message, WQE bytes), the
cache-model outputs (miss fractions), and the host/platform flags (strict
PCIe ordering, cross-socket paths).  Both the quirk gates
(:mod:`repro.hardware.rules`) and the diagnostic-counter pressures read
this vector.

The extraction is written once against an ``ops`` namespace
(:mod:`repro.hardware.ops`): called with one workload it returns the
scalar feature dict; the batched solve calls it with a column view and
gets one column per feature, in the same key order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.caches import steady_state_miss_rate
from repro.hardware.ops import SCALAR
from repro.hardware.workload import WorkloadDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.subsystems import Subsystem




def extract_features(
    workload: WorkloadDescriptor, subsystem: "Subsystem", ops=SCALAR
) -> dict:
    """Compute the feature vector of a workload on a subsystem."""
    w = workload
    rnic = subsystem.rnic
    rxq = rnic.rx_wqe_cache
    src_path = ops.apply(subsystem.topology.dma_path, w.src_device)
    dst_path = ops.apply(subsystem.topology.dma_path, w.dst_device)
    bidi = w.is_bidirectional

    # Receive-WQE cache paths only exist for 2-sided traffic.
    uses_recv = w.uses_recv_wqes
    rxq_capacity_miss = ops.where(
        uses_recv, rxq.capacity_miss(w.total_outstanding_recv_wqes, ops), 0.0
    )
    rxq_burst_miss = ops.where(
        uses_recv, rxq.burst_miss(w.wq_depth, w.wqe_batch, ops), 0.0
    )

    qps_working_set = w.num_qps * ops.where(bidi, 2, 1)
    qpc_miss = steady_state_miss_rate(
        qps_working_set, rnic.qpc_cache_entries, ops
    )
    mtt_miss = steady_state_miss_rate(w.total_mrs, rnic.mtt_cache_entries, ops)

    flag = ops.to_float  # bool → 1.0 / 0.0
    features: dict = {
        # raw transport dimensions
        "qp_type": w.qp_type.value,
        "opcode": w.opcode.value,
        "bidirectional": flag(bidi),
        "mtu": ops.to_float(w.mtu),
        "num_qps": ops.to_float(w.num_qps),
        "total_qps": ops.to_float(qps_working_set),
        "wqe_batch": ops.to_float(w.wqe_batch),
        "sge_per_wqe": ops.to_float(w.sge_per_wqe),
        "wq_depth": ops.to_float(w.wq_depth),
        # message pattern
        "avg_msg": w.avg_msg_bytes,
        "min_msg": ops.to_float(w.min_msg_bytes),
        "max_msg": ops.to_float(w.max_msg_bytes),
        "avg_pkts_per_msg": w.packets_per_message(),
        "small_frac": w.small_message_fraction,
        "large_frac": w.large_message_fraction,
        "mixes_small_and_large": flag(w.mixes_small_and_large),
        "sg_entry_mix": flag(w.sg_entry_mix),
        "sg_layout": w.sg_layout.value,
        # memory allocation
        "mrs_per_qp": ops.to_float(w.mrs_per_qp),
        "total_mrs": ops.to_float(w.total_mrs),
        "mr_bytes": ops.to_float(w.mr_bytes),
        # derived cache metrics
        "rxq_capacity_miss": rxq_capacity_miss,
        "rxq_burst_miss": rxq_burst_miss,
        "qpc_miss": qpc_miss,
        "mtt_miss": mtt_miss,
        # load-shape aggregates used by the packet-processing quirks
        "short_req_outstanding": (
            w.num_qps * w.wqe_batch * w.small_message_fraction
        ),
        "wqe_outstanding_bytes": ops.to_float(
            w.num_qps * w.wqe_batch * w.wqe_bytes
        ),
        # host topology and platform flags
        "src_device": w.src_device,
        "dst_device": w.dst_device,
        "crosses_socket": flag(
            ops.or_(src_path.crosses_socket, dst_path.crosses_socket)
        ),
        "via_root_complex": flag(
            ops.or_(src_path.via_root_complex, dst_path.via_root_complex)
        ),
        # The data *sink* sits behind a root-complex detour: the forward
        # direction's destination always counts; with bidirectional
        # traffic the source memory is the reverse direction's sink.
        "sink_via_root_complex": flag(
            ops.or_(
                dst_path.via_root_complex,
                ops.and_(bidi, src_path.via_root_complex),
            )
        ),
        "uses_gpu_memory": flag(
            ops.or_(
                src_path.device.kind == "gpu", dst_path.device.kind == "gpu"
            )
        ),
        "loopback": flag(w.has_loopback),
        "duty_cycle": w.duty_cycle,
        "strict_ordering": 0.0 if subsystem.pcie.relaxed_ordering else 1.0,
        "weak_cross_socket": 1.0 if subsystem.weak_cross_socket else 0.0,
        "loopback_unlimited": 0.0 if rnic.loopback_rate_limited else 1.0,
    }
    return features
