"""Self-test of the benchmark at a tiny budget.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that, for every workload in ``BENCHMARK.json``:

* ``--trace 0`` prints exactly the end-to-end metrics and ``--trace 1``
  exactly the per-layer metrics, each with its declared unit, with no
  failed operation;
* the traced run's Chrome trace validates;

and that a deliberately tampered MFS fails its operation, and that the
benchmark refuses to run without the ``repro`` sources next to it.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


class SelfTestFailure(Exception):
    pass


def _expect(condition, detail) -> None:
    """Raise unless ``condition``; unlike ``assert``, survives ``-O``."""
    if not condition:
        raise SelfTestFailure(repr(detail)[:2000])


def _run_quiet(argv) -> dict:
    """``run.main(argv)`` at a tiny budget; the parsed last stdout line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny=True)
    _expect(code == 0, f"{argv}: exit {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    from repro.obs.profiler import validate_chrome_trace

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result = _run_quiet([
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace),
            ])
            _expect(set(result) == {"correct", "attempted", "failed",
                                    "metrics"}, result.keys())
            _expect(result["correct"] and result["failed"] == 0, result)
            _expect(result["attempted"] >= 1, result)
            units = {m["name"]: m["unit"] for m in declared}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(printed == units, (workload, trace, printed, units))
            if trace:
                path = os.path.join(run.RUNS, f"trace-{workload}.json")
                with open(path, encoding="utf-8") as handle:
                    errors = validate_chrome_trace(json.load(handle))
                _expect(not errors, errors[:3])
            print(f"selftest: {workload} --trace {trace}: "
                  f"{len(printed)} metrics ok", file=sys.stderr)


def check_tampered_mfs() -> None:
    import workloads

    workload = workloads.SearchF(hours=0.5, chains=1)
    op = 3
    report = workload.run(op)
    _expect(report.anomalies, "tiny search found no MFS to tamper with")
    honest = run.Timing(0.0, 0.0, None, [(op, report, None)])
    tasks = run.collect_tasks(workload, honest)
    _expect([t.problems for t in tasks] == [[]], tasks)
    mfs = report.anomalies[0]
    other = "healthy" if mfs.symptom != "healthy" else "pause frame"
    report.anomalies[0] = dataclasses.replace(mfs, symptom=other)
    tampered = run.Timing(0.0, 0.0, None, [(op, report, None)])
    tasks = run.collect_tasks(workload, tampered)
    _expect(sum(1 for t in tasks if t.problems) == 1, tasks)
    print("selftest: tampered MFS counted as failed", file=sys.stderr)


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.RUNS, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(SPEC, bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search-F",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(done.returncode != 0 and not done.stdout.strip(), done)
    print("selftest: refuses to run without src/", file=sys.stderr)


def main() -> int:
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    run._import_repro()
    check_tampered_mfs()
    check_refuses_without_sources()
    check_metrics(spec)
    print("selftest: OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
