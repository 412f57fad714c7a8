"""Extension bench: the batched vectorized evaluation engine (S31).

The acceptance scenario for the batched solver front end: an MFS-heavy
point multiset — the necessity-ladder probes of every appendix-H
witness, duplicates included, exactly as ``MFSExtractor`` would submit
them — evaluated once through the scalar loop and once through
``evaluate_many`` from a cold start.  The batched pass must take at
least 3x less process time while producing bit-identical measurements
and leaving the caller's RNG in the bit-identical state.

A second scenario chunks the Perftest exhaustive sweep (the other big
known-point-set consumer) through ``Testbed.run_many`` and re-checks
identity there; its speedup is recorded but not gated (the sweep spends
part of its time in the monitor, outside the batched region).

Times are the minimum over several rounds of process CPU time
(``time.process_time``): the quantity under test is the engine's cost,
not the host's scheduling jitter or other processes on a busy host.
"""

import time

import numpy as np

from benchmarks.conftest import print_artifact, record_result
from repro.baselines.perftest import PerftestGenerator
from repro.core.batcheval import BatchEvaluator
from repro.core.mfs import MFSExtractor
from repro.core.space import SearchSpace
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import get_subsystem
from repro.workloads.appendix import APPENDIX_SETTINGS

#: Timing rounds per side; the minimum is reported.
ROUNDS = 5
#: Ladder replications (an anomaly is typically re-extracted a few
#: times per campaign as the search re-enters uncovered corners).
LADDER_REPEATS = 2
SUBSYSTEM = "H"
PERFTEST_SUBSYSTEM = "C"
PERFTEST_LIMIT = 250
PERFTEST_BATCH = 64


def mfs_heavy_points():
    """The probe multiset of every appendix-H witness's MFS ladder."""
    subsystem = get_subsystem(SUBSYSTEM)
    space = SearchSpace.for_subsystem(subsystem)
    extractor = MFSExtractor(space, classify=lambda workload: "healthy")
    points = []
    for setting in APPENDIX_SETTINGS:
        if setting.subsystem != SUBSYSTEM:
            continue
        points.extend(extractor._ladder_points(setting.workload, set()))
    return points * LADDER_REPEATS


def measurement_key(measurement):
    return (
        list(measurement.counters.items()),
        [list(s.values.items()) for s in measurement.samples],
        measurement.directions,
        measurement.fired,
        list(measurement.features.items()),
    )


def run_mfs_scenario():
    subsystem = get_subsystem(SUBSYSTEM)
    points = mfs_heavy_points()

    def scalar_pass():
        model = SteadyStateModel(subsystem)
        rng = np.random.default_rng(0)
        return [model.evaluate(p, rng) for p in points], rng

    def batched_pass():
        evaluator = BatchEvaluator(SteadyStateModel(subsystem))
        rng = np.random.default_rng(0)
        return evaluator.evaluate_many(points, rng=rng), rng

    def best_of(runner):
        best, keep = float("inf"), None
        for _ in range(ROUNDS):
            started = time.process_time()
            keep = runner()
            best = min(best, time.process_time() - started)
        return best, keep

    scalar_seconds, (scalar, scalar_rng) = best_of(scalar_pass)
    batched_seconds, (batched, batched_rng) = best_of(batched_pass)
    identical = (
        [measurement_key(m) for m in scalar]
        == [measurement_key(m) for m in batched]
        and scalar_rng.bit_generator.state == batched_rng.bit_generator.state
    )
    return {
        "points": len(points),
        "unique_points": len({str(p) for p in points}),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "identical": identical,
    }


def run_perftest_scenario():
    def sweep(batch):
        # batch_size=0 is the sweep's scalar loop over Testbed.run.
        generator = PerftestGenerator(PERFTEST_SUBSYSTEM)
        started = time.process_time()
        found = generator.sweep(
            seed=0, limit=PERFTEST_LIMIT,
            batch_size=PERFTEST_BATCH if batch else 0,
        )
        return time.process_time() - started, found, generator.testbed

    scalar_seconds = batched_seconds = float("inf")
    for _ in range(ROUNDS):
        seconds, scalar_found, scalar_testbed = sweep(batch=False)
        scalar_seconds = min(scalar_seconds, seconds)
        seconds, batched_found, batched_testbed = sweep(batch=True)
        batched_seconds = min(batched_seconds, seconds)
    return {
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "identical": (
            scalar_found == batched_found
            and scalar_testbed.clock.now == batched_testbed.clock.now
        ),
    }


def test_batch_eval_speedup(benchmark):
    data = benchmark.pedantic(run_mfs_scenario, rounds=1, iterations=1)
    sweep = run_perftest_scenario()
    speedup = data["scalar_seconds"] / max(data["batched_seconds"], 1e-9)
    sweep_speedup = (
        sweep["scalar_seconds"] / max(sweep["batched_seconds"], 1e-9)
    )
    record_result(
        "batch_eval",
        points=data["points"],
        unique_points=data["unique_points"],
        scalar_seconds=data["scalar_seconds"],
        batched_seconds=data["batched_seconds"],
        speedup=speedup,
        perftest_scalar_seconds=sweep["scalar_seconds"],
        perftest_batched_seconds=sweep["batched_seconds"],
        perftest_speedup=sweep_speedup,
    )
    print_artifact(
        "Batched evaluation: MFS-heavy ladder multiset on subsystem "
        f"{SUBSYSTEM} ({data['points']} points, "
        f"{data['unique_points']} unique)",
        "\n".join(
            [
                f"  scalar loop:   {data['scalar_seconds'] * 1e3:.1f}ms",
                f"  evaluate_many: {data['batched_seconds'] * 1e3:.1f}ms "
                f"({speedup:.2f}x)",
                f"  perftest sweep ({PERFTEST_LIMIT} pts, "
                f"batch={PERFTEST_BATCH}): "
                f"{sweep['scalar_seconds'] * 1e3:.1f}ms -> "
                f"{sweep['batched_seconds'] * 1e3:.1f}ms "
                f"({sweep_speedup:.2f}x)",
            ]
        ),
    )
    # Identity first: speed must not change a single bit.
    assert data["identical"], "batched MFS evaluation diverged from scalar"
    assert sweep["identical"], "batched perftest sweep diverged from scalar"
    # The acceptance floor: 3x on the MFS-heavy path, cold cache.
    assert speedup >= 3.0, f"batched speedup {speedup:.2f}x < 3x"
