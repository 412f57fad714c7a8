"""Extension bench: the population-stepped SA driver.

The acceptance scenario for population vectorization: one real
population run on the MFS-heaviest subsystem, its generation stream
captured wholesale, replayed through both evaluation paths:

* **scalar** — cache-less per-point ``model.evaluate``, exactly what
  every chain-step of the legacy ``search --seeds N`` path pays;
* **generation-batched** — one ``evaluate_each`` per generation through
  a shared :class:`EvalCache` cold-started with the pass, exactly what
  the population driver's ``_prepare`` pays.

The batched replay must take at least 3x less process time while
producing bit-identical measurements and leaving every chain RNG in
the bit-identical state.  The gate compares *paired* rounds (scalar
and batched back-to-back, best round wins) so host scheduling jitter
— which only ever inflates a measurement — cannot fail a genuinely
fast engine; the median paired speedup is recorded alongside.  All
times are process CPU time (``time.process_time``), which other
processes on a busy host do not inflate.

End-to-end numbers are recorded, not gated: the same run is timed
against the ``search --seeds N`` campaign path at equal total
simulated budget, with every chain report asserted bit-identical to
its campaign twin.  The end-to-end ratio is Amdahl-bound well below
the evaluation-layer speedup because the per-chain SA/MFS/monitor
bookkeeping — identical in both paths by the bit-identity contract —
dominates once evaluation is batched; docs/DESIGN.md quantifies this.
"""

import os
import time

import numpy as np

from benchmarks.conftest import print_artifact, record_result
from repro.analysis.campaign import run_campaign
from repro.analysis.serialize import mfs_to_dict, workload_to_dict
from repro.core.batcheval import BatchEvaluator
from repro.core.evalcache import EvalCache, canonical_point
from repro.core.population import PopulationCollie
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import get_subsystem

#: Paired timing rounds; the best round gates, the median is recorded.
ROUNDS = 5
SUBSYSTEM = "H"
CHAINS = int(os.environ.get("REPRO_POP_BENCH_CHAINS", "64"))
HOURS = float(os.environ.get("REPRO_POP_BENCH_HOURS", "0.3"))
SEED = 1
#: The acceptance floor on the generation-batched evaluation replay.
GATE = 3.0


def event_key(event):
    """Everything observable about one experiment, exactly."""
    return (
        event.time_seconds,
        event.counter,
        event.counter_value,
        event.symptom,
        event.tags,
        event.kind,
        workload_to_dict(event.workload),
        sorted(event.counters.items()),
    )


def report_key(report):
    """Anomaly set + full trajectory of one search run."""
    return (
        [mfs_to_dict(a) for a in report.anomalies],
        [event_key(e) for e in report.events],
    )


def measurement_key(measurement):
    return (
        list(measurement.counters.items()),
        [list(s.values.items()) for s in measurement.samples],
        measurement.directions,
        measurement.fired,
        list(measurement.features.items()),
    )


def run_population_and_campaign():
    """One timed population run (generation stream captured) and its
    timed ``search --seeds N`` campaign twin."""
    population = PopulationCollie(
        SUBSYSTEM, chains=CHAINS, budget_hours=HOURS, seed=SEED
    )
    batch = population._collies[0].testbed.engine.batch
    generations = []
    inner = batch.evaluate_each

    def tap(workloads, rngs, *args, **kwargs):
        generations.append(list(workloads))
        return inner(workloads, rngs, *args, **kwargs)

    batch.evaluate_each = tap
    started = time.process_time()
    report = population.run()
    population_seconds = time.process_time() - started

    started = time.process_time()
    campaign = run_campaign(
        "collie", subsystem=SUBSYSTEM,
        seeds=range(SEED, SEED + CHAINS),
        budget_hours=HOURS, workers=1,
    )
    campaign_seconds = time.process_time() - started
    identical = (
        [report_key(r) for r in report.reports]
        == [report_key(r) for r in campaign.reports]
    )
    generations = [g for g in generations if len(g) >= 2]
    return {
        "population": report,
        "generations": generations,
        "population_seconds": population_seconds,
        "campaign_seconds": campaign_seconds,
        "end_to_end_identical": identical,
    }


def replay_generations(generations):
    """Time the generation stream through both evaluation paths.

    Chain RNGs are rebuilt outside each timed region (neither path
    constructs generators); each round times scalar then batched
    back-to-back so host jitter hits both sides of a pair.
    """
    subsystem = get_subsystem(SUBSYSTEM)

    def fresh_rngs():
        return [
            [np.random.default_rng(7919 + j) for j in range(len(g))]
            for g in generations
        ]

    pairs = []
    scalar_keep = batched_keep = None
    scalar_rngs_keep = batched_rngs_keep = None
    for _ in range(ROUNDS):
        rngs = fresh_rngs()
        model = SteadyStateModel(subsystem)
        started = time.process_time()
        scalar_keep = [
            [model.evaluate(p, rng=r) for p, r in zip(g, rs)]
            for g, rs in zip(generations, rngs)
        ]
        scalar_seconds = time.process_time() - started
        scalar_rngs_keep = rngs

        rngs = fresh_rngs()
        evaluator = BatchEvaluator(
            SteadyStateModel(subsystem, cache=EvalCache())
        )
        started = time.process_time()
        batched_keep = [
            evaluator.evaluate_each(g, rs)
            for g, rs in zip(generations, rngs)
        ]
        batched_seconds = time.process_time() - started
        batched_rngs_keep = rngs
        pairs.append((scalar_seconds, batched_seconds))

    identical = all(
        measurement_key(s) == measurement_key(b)
        and sr.bit_generator.state == br.bit_generator.state
        for sg, bg, srs, brs in zip(
            scalar_keep, batched_keep, scalar_rngs_keep, batched_rngs_keep
        )
        for s, b, sr, br in zip(sg, bg, srs, brs)
    )
    ratios = sorted(s / max(b, 1e-9) for s, b in pairs)
    best_scalar, best_batched = max(
        pairs, key=lambda p: p[0] / max(p[1], 1e-9)
    )
    return {
        "scalar_seconds": best_scalar,
        "batched_seconds": best_batched,
        "speedup": ratios[-1],
        "median_speedup": ratios[len(ratios) // 2],
        "identical": identical,
    }


def test_population_speedup(benchmark):
    data = benchmark.pedantic(
        run_population_and_campaign, rounds=1, iterations=1
    )
    generations = data["generations"]
    points = sum(len(g) for g in generations)
    unique = len({canonical_point(p) for g in generations for p in g})
    replay = replay_generations(generations)
    end_to_end = (
        data["campaign_seconds"] / max(data["population_seconds"], 1e-9)
    )
    record_result(
        "population",
        subsystem=SUBSYSTEM,
        chains=CHAINS,
        budget_hours=HOURS,
        generations=len(generations),
        points=points,
        unique_points=unique,
        scalar_seconds=replay["scalar_seconds"],
        batched_seconds=replay["batched_seconds"],
        generation_eval_speedup=replay["speedup"],
        generation_eval_speedup_median=replay["median_speedup"],
        campaign_seconds=data["campaign_seconds"],
        population_seconds=data["population_seconds"],
        end_to_end_speedup=end_to_end,
    )
    print_artifact(
        f"Population-stepped SA on subsystem {SUBSYSTEM} "
        f"({CHAINS} chains x {HOURS}h, {len(generations)} generations, "
        f"{points} points, {unique} unique)",
        "\n".join(
            [
                "  generation stream, scalar per-point eval: "
                f"{replay['scalar_seconds'] * 1e3:.0f}ms",
                "  generation stream, one evaluate_each/generation: "
                f"{replay['batched_seconds'] * 1e3:.0f}ms "
                f"({replay['speedup']:.2f}x best, "
                f"{replay['median_speedup']:.2f}x median)",
                f"  end to end: search --seeds {CHAINS} "
                f"{data['campaign_seconds']:.2f}s -> population "
                f"{data['population_seconds']:.2f}s ({end_to_end:.2f}x)",
            ]
        ),
    )
    # Identity first: speed must not change a single bit.
    assert data["end_to_end_identical"], (
        "population chains diverged from the --seeds campaign path"
    )
    assert replay["identical"], (
        "generation-batched evaluation diverged from the scalar loop"
    )
    # The acceptance floor: 3x on the generation evaluation layer.
    assert replay["speedup"] >= GATE, (
        f"generation-batched speedup {replay['speedup']:.2f}x < {GATE}x"
    )
