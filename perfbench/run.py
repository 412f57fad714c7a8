"""Host-time benchmark of the Collie reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search-F --seed 1 --seconds 10 --trace 0

Workloads: ``search-F``, ``population-F``, ``canary-check`` and ``bo-F``
(see ``workloads.py`` and ``BENCHMARK.json``).  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: set-up time
from a fresh interpreter to the first experiment (median of several
child interpreters), wall and CPU time of the timed part, simulated
experiments per host second, the p50/p99 gap between consecutive
experiments of a search, peak RSS, anomalies found, and the mean
simulated hours to each found anomaly's first hit.  With ``--trace 1`` the operations run once
untraced and once with every layer wrapped from the outside
(``tracer.py``), and the metrics are the per-layer ones; the spans are
written as a Chrome trace under ``.perfbench_runs/``.  A traced run
plans half the operations, so both passes fit in ``--seconds``.

Outputs are checked after the timed part (``workloads.py``).  The
benchmark imports ``repro`` from the checkout's ``src/`` and exits 2
without a result when it is missing.

Claims made with this benchmark are confirmed on the held-out seed
:data:`HELD_OUT_SEED`, which is never used while tuning a change.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

#: Seed kept out of tuning; later performance claims are re-run on it.
HELD_OUT_SEED = 9001

#: Child interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 3

#: Steps per block for ``step_p99_us`` (10 samples beyond the p99).
P99_BLOCK = 1000

#: Printed by a set-up probe when its first experiment starts.
READY = "perfbench-first-experiment"


class FirstExperiment(BaseException):
    """Stops a set-up probe at its first experiment.

    A BaseException, so no ``except Exception`` on the way up treats
    it as a failed experiment.
    """


def _import_repro():
    """Import ``repro`` from this checkout's ``src/``, or exit 2.

    Also pins BLAS to one thread before numpy loads: the benchmark is one
    process doing one thread of work, and the BO baseline's GP would
    otherwise add spinning helper threads to the measured CPU time.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(
            f"perfbench: repro imported from {repro.__file__}, not {SRC}",
            file=sys.stderr,
        )
        sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: child interpreter timed for setup_s",
    )
    return parser.parse_args(argv)


# -- the timed part ---------------------------------------------------------


@dataclasses.dataclass
class Timing:
    """What one pass over the operations measured."""

    wall: float
    cpu: float
    steps: object  #: the pass's ``tracer.StepClock``
    outcomes: list  #: ``(op, result or None, traceback or None)``
    journals: object = None  #: journal path -> bytes, traced passes only


def timed_pass(workload, ops, tracer=None) -> Timing:
    """Run every operation once, serially, with the clocks running."""
    from repro.cluster.testbed import Testbed
    from tracer import Patcher, StepClock, install_layers

    steps = StepClock()
    patcher = Patcher()
    patcher.method(Testbed, "run", steps.wrap)
    journals = None
    outcomes = []
    try:
        if tracer is not None:
            journals = install_layers(tracer, patcher)
        gc.collect()
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        for op in ops:
            try:
                outcomes.append((op, workload.run(op), None))
            except Exception:  # one failed operation must not end the run
                outcomes.append((op, None, traceback.format_exc()))
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
    finally:
        patcher.restore()
    return Timing(wall, cpu, steps, outcomes, journals)


def collect_tasks(workload, timing: Timing) -> list:
    """Check every operation's outputs (untimed); one Task per task."""
    from workloads import Task

    tasks = []
    for op, result, error in timing.outcomes:
        if error is None:
            try:
                tasks.extend(workload.collect(op, result))
                continue
            except Exception:  # a check that crashes fails its operation
                error = traceback.format_exc()
        tasks.extend(
            Task(label=f"op {op}", subsystem="?", problems=[error])
            for _ in range(workload.tasks_in(op))
        )
    for task in tasks:
        for problem in task.problems:
            print(f"perfbench: FAILED {task.label}: {problem}",
                  file=sys.stderr)
    return tasks


def same_outputs(first: list, second: list) -> bool:
    """Whether two passes over the same operations produced equal tasks."""
    key = [(t.label, t.experiments, t.first_hits) for t in first]
    return key == [(t.label, t.experiments, t.first_hits) for t in second]


# -- set-up time ------------------------------------------------------------


def setup_probe(name: str, seed: int, seconds: float) -> int:
    """Child side: build the first operation, stop at its first experiment."""
    from repro.cluster.testbed import Testbed
    import workloads

    def first_run(*args, **kwargs):
        raise FirstExperiment

    os.makedirs(RUNS, exist_ok=True)
    out_dir = os.path.join(RUNS, f"probe-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        workload = workloads.make(name, out_dir)
        op = workload.ops(seed, seconds)[0]
        Testbed.run = first_run
        workload.run(op)
    except FirstExperiment:
        pass
    else:
        print("perfbench: set-up probe ran no experiment", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(READY, flush=True)
    os._exit(0)  # interpreter teardown is not set-up time


def setup_seconds(name: str, seed: int, seconds: float, probes: int) -> float:
    """Median time from a fresh interpreter to its first experiment."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
    ]
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120
        )
        samples.append(time.perf_counter() - start)
        if child.returncode != 0 or child.stdout.strip() != READY:
            raise RuntimeError(f"set-up probe failed: {child.stdout!r}")
    return statistics.median(samples)


# -- metrics ----------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(name, seed, seconds, timing, tasks, probes, rss_kb) -> dict:
    import numpy as np
    from workloads import summarize

    gaps_us = np.asarray(timing.steps.gaps_ns, dtype=float) / 1e3
    p50 = np.percentile(gaps_us, 50)
    # p99 per block of consecutive steps (10 samples beyond each), then
    # the mean over blocks.  A workload whose tail has a density gap at
    # its p99 (canary-check) flips a single p99 between the two sides of
    # the gap from run to run; the mean over blocks averages the flips.
    blocks = max(1, gaps_us.size // P99_BLOCK)
    p99 = np.mean([
        np.percentile(block, 99) for block in np.array_split(gaps_us, blocks)
    ])
    found, ttfa = summarize(tasks)
    print(
        f"perfbench: {name} seed {seed}: {len(timing.outcomes)} operations,"
        f" {timing.steps.experiments} experiments, {gaps_us.size} steps",
        file=sys.stderr,
    )
    return {
        "setup_s": _metric(setup_seconds(name, seed, seconds, probes), "s"),
        "wall_s": _metric(timing.wall, "s"),
        "cpu_s": _metric(timing.cpu, "s"),
        "experiments_per_s": _metric(
            timing.steps.experiments / timing.wall, "1/s"
        ),
        "step_p50_us": _metric(p50, "us"),
        "step_p99_us": _metric(p99, "us"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
        "anomalies_found": _metric(found, "count"),
        "ttfa_hours": _metric(ttfa, "sim_h"),
    }


def per_layer(name, workload, plain, traced, tracer) -> tuple[dict, bool]:
    from tracer import layer_metrics

    hits = lookups = 0
    for _op, result, error in traced.outcomes:
        if error is None:
            h, m = workload.cache_stats(result)
            hits, lookups = hits + h, lookups + h + m
    metrics = {
        key: _metric(value, unit)
        for key, (value, unit) in layer_metrics(
            tracer, traced.journals, hits, lookups
        ).items()
    }
    print(f"perfbench: untraced {plain.wall:.3f}s, traced {traced.wall:.3f}s",
          file=sys.stderr)
    metrics["trace.overhead_frac"] = _metric(
        traced.wall / plain.wall - 1.0, "ratio"
    )
    path = os.path.join(RUNS, f"trace-{name}.json")
    errors = tracer.write_chrome_trace(path)
    print(
        f"perfbench: {len(tracer.names)} spans -> {path}"
        + (f"; INVALID: {errors[:3]}" if errors else ""),
        file=sys.stderr,
    )
    return metrics, not errors


def measure(name, seed, seconds, trace, tiny=False) -> dict:
    """One benchmark run; returns the result object that gets printed."""
    import workloads
    from tracer import Tracer

    os.makedirs(RUNS, exist_ok=True)
    out_dir = os.path.join(RUNS, f"{name}-s{seed}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        workload = workloads.make(name, out_dir, tiny=tiny)
        # A traced run times its operations twice (untraced, traced), so
        # it plans half the work to stay within the same run length.
        ops = workload.ops(seed, seconds / 2 if trace else seconds)
        # Fill lazy module state before the clocks start.
        workloads.SearchF(0.25).run(seed)
        plain = timed_pass(workload, ops)
        if trace:
            tasks = collect_tasks(workload, plain)
            # Free the untraced results first: a larger live heap slows
            # the collector and would count as tracing overhead.
            plain.outcomes = None
            tracer = Tracer()
            traced = timed_pass(workload, ops, tracer)
            traced_tasks = collect_tasks(workload, traced)
            metrics, trace_ok = per_layer(name, workload, plain, traced, tracer)
            correct = trace_ok and same_outputs(tasks, traced_tasks)
            if not correct:
                print("perfbench: tracing changed the outputs or the trace "
                      "is invalid", file=sys.stderr)
        else:
            # Peak RSS of the timed part, before the checks allocate.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tasks = collect_tasks(workload, plain)
            metrics = end_to_end(
                name, seed, seconds, plain, tasks,
                1 if tiny else SETUP_PROBES, rss_kb,
            )
            correct = True
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = sum(1 for t in tasks if t.problems)
    return {
        "correct": bool(correct and failed == 0 and tasks),
        "attempted": len(tasks),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None, tiny: bool = False) -> int:
    args = _parse(argv)
    _import_repro()
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.seconds)
    result = measure(args.workload, args.seed, args.seconds, args.trace, tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
