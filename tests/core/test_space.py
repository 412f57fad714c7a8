"""The search space: sampling, mutation, coercion invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.space import (
    CATEGORICAL_DIMENSIONS,
    MAX_QPS,
    MAX_TOTAL_MRS,
    ORDERED_DIMENSIONS,
    SearchSpace,
)
from repro.hardware.subsystems import get_subsystem
from repro.hardware.workload import SGLayout, WorkloadDescriptor
from repro.verbs.constants import SUPPORTED_OPCODES, Opcode, QPType


@pytest.fixture
def space():
    return SearchSpace.for_subsystem(get_subsystem("F"))


class TestConstruction:
    def test_for_subsystem_picks_up_devices_and_pattern_length(self, space):
        assert space.memory_devices == ("numa0", "numa1", "gpu0")
        assert space.pattern_length == 8

    def test_restriction_kwargs(self):
        restricted = SearchSpace.for_subsystem(
            "B", qp_types=(QPType.RC,), opcodes=(Opcode.WRITE,)
        )
        assert restricted.qp_types == (QPType.RC,)
        assert restricted.opcodes == (Opcode.WRITE,)

    def test_space_is_large(self, space):
        """The paper puts the space around 10^36; ours is coarser but
        still far beyond exhaustive search."""
        assert space.log10_size() > 12

    def test_choice_accessors(self, space):
        assert space.ordered_choices("num_qps")[-1] <= MAX_QPS
        assert QPType.RC in space.categorical_choices("qp_type")
        with pytest.raises(KeyError):
            space.ordered_choices("qp_type")
        with pytest.raises(KeyError):
            space.categorical_choices("num_qps")


class TestRandomSampling:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_every_sample_is_valid(self, seed):
        """Sampling + coercion always yields a constructible workload
        satisfying the verbs couplings (constructor raises otherwise)."""
        space = SearchSpace.for_subsystem(get_subsystem("F"))
        workload = space.random(np.random.default_rng(seed))
        assert workload.opcode in SUPPORTED_OPCODES[workload.qp_type]
        assert workload.total_mrs <= MAX_TOTAL_MRS
        assert workload.num_qps <= MAX_QPS
        assert len(workload.msg_sizes_bytes) == space.pattern_length
        if workload.qp_type is QPType.UD:
            assert workload.max_msg_bytes <= workload.mtu
        if workload.sge_per_wqe == 1:
            assert workload.sg_layout is SGLayout.EVEN

    def test_samples_cover_transports(self, space, rng):
        seen = {space.random(rng).qp_type for _ in range(100)}
        assert seen == {QPType.RC, QPType.UC, QPType.UD}

    def test_restricted_space_respects_restriction(self, rng):
        restricted = SearchSpace.for_subsystem("F", qp_types=(QPType.RC,))
        for _ in range(50):
            assert restricted.random(rng).qp_type is QPType.RC


def sequential_random(space, rng):
    """The reference sampler: one ``rng.choice`` per dimension, in order.

    A frozen copy of the per-point sampler ``random_many`` replaced;
    the batched draw must read the generator exactly like this.
    """
    choice = rng.choice
    raw = {
        "qp_type": space.qp_types[choice(len(space.qp_types))],
        "opcode": space.opcodes[choice(len(space.opcodes))],
        "direction": space.directions[choice(len(space.directions))],
        "colocation": space.colocations[choice(len(space.colocations))],
        "sg_layout": space.sg_layouts[choice(len(space.sg_layouts))],
        "src_device": space.memory_devices[choice(len(space.memory_devices))],
        "dst_device": space.memory_devices[choice(len(space.memory_devices))],
        "mtu": int(choice(space.mtus)),
        "num_qps": int(choice(space.qps_choices)),
        "wqe_batch": int(choice(space.batch_choices)),
        "sge_per_wqe": int(choice(space.sge_choices)),
        "wq_depth": int(choice(space.wq_depth_choices)),
        "mrs_per_qp": int(choice(space.mrs_per_qp_choices)),
        "mr_bytes": int(choice(space.mr_bytes_choices)),
        "duty_cycle": float(choice(space.duty_cycles)),
        "msg_sizes_bytes": tuple(
            int(choice(space.msg_size_choices))
            for _ in range(space.pattern_length)
        ),
    }
    return space.coerce(raw)


IDENTITY_SPACES = {
    **{name: SearchSpace.for_subsystem(name) for name in "ABCDEFGH"},
    "F-duty": SearchSpace.for_subsystem("F", duty_cycles=(0.25, 0.5, 1.0)),
    "F-ud-only": SearchSpace.for_subsystem("F", qp_types=(QPType.UD,)),
    "F-rc-read": SearchSpace.for_subsystem(
        "F", qp_types=(QPType.RC,), opcodes=(Opcode.READ,)
    ),
    "F-single-rung": SearchSpace.for_subsystem(
        "F", mtus=(1024,), qps_choices=(64,), memory_devices=("numa0",),
        msg_size_choices=(4096,),
    ),
}


class TestBatchedSampling:
    """``random_many`` is bit-identical to the sequential sampler: the
    same points and the same generator state afterwards."""

    @pytest.mark.parametrize("n", [0, 1, 7, 192])
    @pytest.mark.parametrize("name", sorted(IDENTITY_SPACES))
    def test_matches_sequential_reference(self, name, n):
        space = IDENTITY_SPACES[name]
        for seed in (0, 1, 9001):
            reference_rng = np.random.default_rng(seed)
            batched_rng = np.random.default_rng(seed)
            expected = [
                sequential_random(space, reference_rng) for _ in range(n)
            ]
            assert space.random_many(batched_rng, n) == expected
            assert (
                batched_rng.bit_generator.state
                == reference_rng.bit_generator.state
            )

    @pytest.mark.parametrize("name", sorted(IDENTITY_SPACES))
    def test_random_is_one_point_batch(self, name):
        space = IDENTITY_SPACES[name]
        single_rng = np.random.default_rng(3)
        batch_rng = np.random.default_rng(3)
        for _ in range(5):
            single = space.random(single_rng)
            assert single == space.random_many(batch_rng, 1)[0]
        assert single_rng.bit_generator.state == batch_rng.bit_generator.state

    def test_consecutive_batches_continue_the_stream(self):
        space = IDENTITY_SPACES["F"]
        reference_rng = np.random.default_rng(5)
        batched_rng = np.random.default_rng(5)
        expected = [sequential_random(space, reference_rng) for _ in range(12)]
        got = space.random_many(batched_rng, 5) + space.random_many(
            batched_rng, 7
        )
        assert got == expected


class TestMutation:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_mutants_stay_valid(self, seed):
        space = SearchSpace.for_subsystem(get_subsystem("F"))
        rng = np.random.default_rng(seed)
        workload = space.random(rng)
        for _ in range(10):
            workload = space.mutate(workload, rng)
            assert workload.opcode in SUPPORTED_OPCODES[workload.qp_type]
            assert workload.total_mrs <= MAX_TOTAL_MRS

    def test_mutation_changes_few_dimensions(self, space, rng):
        from repro.core.space import PATTERN_DIMENSION  # noqa: F401

        workload = space.random(rng)
        for _ in range(30):
            mutant = space.mutate(workload, rng)
            differing = sum(
                1
                for dim in ORDERED_DIMENSIONS + CATEGORICAL_DIMENSIONS
                if getattr(mutant, dim) != getattr(workload, dim)
            )
            pattern_changed = (
                mutant.msg_sizes_bytes != workload.msg_sizes_bytes
            )
            # one or two mutated dims, plus possible coercion fix-ups
            assert differing + (1 if pattern_changed else 0) <= 4

    def test_mutation_eventually_moves_every_dimension(self, space, rng):
        workload = space.random(rng)
        moved = set()
        current = workload
        for _ in range(500):
            mutant = space.mutate(current, rng)
            for dim in ORDERED_DIMENSIONS + CATEGORICAL_DIMENSIONS:
                if getattr(mutant, dim) != getattr(current, dim):
                    moved.add(dim)
            if mutant.msg_sizes_bytes != current.msg_sizes_bytes:
                moved.add("msg_pattern")
            current = mutant
        assert len(moved) >= 12


class TestWithValue:
    def test_sets_ordered_dimension(self, space, rng):
        workload = space.random(rng)
        probe = space.with_value(workload, "num_qps", 4096)
        assert probe.num_qps == 4096

    def test_sets_pattern(self, space, rng):
        workload = space.random(rng)
        pattern = (2048,) * space.pattern_length
        probe = space.with_value(workload, "msg_pattern", pattern)
        if probe.qp_type is not QPType.UD or probe.mtu >= 2048:
            assert probe.msg_sizes_bytes == pattern

    def test_coercion_can_roll_back_invalid_values(self, space, rng):
        base = space.with_value(
            space.random(rng), "qp_type", QPType.UD
        )
        probe = space.with_value(base, "opcode", Opcode.READ)
        assert probe.opcode is Opcode.SEND  # UD cannot READ


class TestCoercion:
    def test_mr_budget_steps_down(self, space):
        raw = space._to_raw(WorkloadDescriptor())
        raw["num_qps"] = 16384
        raw["mrs_per_qp"] = 1024  # 16M MRs: way over the 200K budget
        workload = space.coerce(raw)
        assert workload.total_mrs <= MAX_TOTAL_MRS

    def test_ud_messages_clipped_to_mtu(self, space):
        raw = space._to_raw(WorkloadDescriptor())
        raw["qp_type"] = QPType.UD
        raw["opcode"] = Opcode.SEND
        raw["mtu"] = 512
        raw["msg_sizes_bytes"] = (4096, 100, 512)
        workload = space.coerce(raw)
        assert workload.msg_sizes_bytes == (512, 100, 512)
