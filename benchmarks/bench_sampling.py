"""Sampling bench: the batched uniform sampler against the per-point one.

``SearchSpace.random_many`` draws every ladder index of ``n`` points in
one ``rng.integers`` call, then coerces each point.  The reference is
the sampler it replaced: one ``rng.choice`` per dimension per point
(``tests.core.test_space.sequential_random``), which reads the
generator identically.  Both produce the same points from the same
seed; this bench prices the difference on subsystem F in microseconds
of process time per point, at n = 1 (what ``random`` pays) and at
n = 192 (one BO acquisition pool).

Each side's cost is the minimum over interleaved rounds: a busy host
only ever inflates a measurement, so minima keep its load out of the
gate.  The gate is a 5x floor at n = 192.
"""

import time

import numpy as np

from benchmarks.conftest import print_artifact, record_result
from repro.core.space import SearchSpace
from tests.core.test_space import sequential_random

#: Interleaved timing rounds; each side keeps its minimum.
ROUNDS = 7
SUBSYSTEM = "F"
POOL = 192
#: Points timed per side per round.
POINTS = POOL * 4
SEED = 1
#: The acceptance floor on the n = 192 batch against the reference.
GATE = 5.0


def timed(sample):
    """(process-time µs per point, points) of one sampling pass."""
    rng = np.random.default_rng(SEED)
    started = time.process_time()
    points = sample(rng)
    elapsed = time.process_time() - started
    return elapsed * 1e6 / len(points), points, rng.bit_generator.state


def run_sampling():
    space = SearchSpace.for_subsystem(SUBSYSTEM)
    sides = {
        "reference": lambda rng: [
            sequential_random(space, rng) for _ in range(POINTS)
        ],
        "n1": lambda rng: [
            space.random_many(rng, 1)[0] for _ in range(POINTS)
        ],
        "n192": lambda rng: [
            point
            for _ in range(POINTS // POOL)
            for point in space.random_many(rng, POOL)
        ],
    }
    best = dict.fromkeys(sides, float("inf"))
    outputs = {}
    for round_index in range(ROUNDS):
        # Alternate the order so host drift does not favour one side.
        order = list(sides) if round_index % 2 == 0 else list(sides)[::-1]
        for name in order:
            us_per_point, points, state = timed(sides[name])
            best[name] = min(best[name], us_per_point)
            outputs[name] = (points, state)
    identical = all(
        outputs[name] == outputs["reference"] for name in ("n1", "n192")
    )
    return best, identical


def test_sampling_speedup(benchmark):
    best, identical = benchmark.pedantic(run_sampling, rounds=1, iterations=1)
    speedup_n1 = best["reference"] / max(best["n1"], 1e-9)
    speedup_n192 = best["reference"] / max(best["n192"], 1e-9)
    record_result(
        "sampling",
        subsystem=SUBSYSTEM,
        points=POINTS,
        rounds=ROUNDS,
        reference_us_per_point=best["reference"],
        n1_us_per_point=best["n1"],
        n192_us_per_point=best["n192"],
        speedup_n1=speedup_n1,
        speedup_n192=speedup_n192,
        gate=GATE,
    )
    print_artifact(
        f"Uniform sampling on subsystem {SUBSYSTEM}: process-time us/point, "
        f"min of {ROUNDS} interleaved rounds of {POINTS} points",
        "\n".join(
            [
                f"  sequential rng.choice: {best['reference']:.1f}",
                f"  random_many(n=1):      {best['n1']:.1f} "
                f"({speedup_n1:.2f}x)",
                f"  random_many(n={POOL}):    {best['n192']:.1f} "
                f"({speedup_n192:.2f}x)",
            ]
        ),
    )
    # Identity first: the batched draw must not change a single bit.
    assert identical, "random_many diverged from the sequential sampler"
    assert speedup_n192 >= GATE, (
        f"random_many(n={POOL}) speedup {speedup_n192:.2f}x < {GATE}x"
    )
