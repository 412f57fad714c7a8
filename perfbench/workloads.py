"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload turns ``(seed, seconds)`` into a list of operations,
runs one operation at a time (the timed part), and afterwards turns
every result into :class:`Task` records with their output checks (the
untimed part).  One task is one search, population chain, canary cell
or BO search; a task fails when its operation raised or a check below
found a problem:

* a found anomaly tag is not in the subsystem's ground truth;
* a reported MFS does not match its own triggering workload;
* a reported MFS does not reproduce on a fresh testbed;
* a population chain differs from the serial search at its seed;
* the canary check did not exit ``CHECK_OK``.

Operation counts derive from ``seconds`` through a nominal cost per
operation measured on a 2-vCPU 2.1 GHz Xeon VM, so a given
``(seed, seconds)`` always runs the same work.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import tempfile

from repro.baselines.bayesopt import BayesOptSearch
import repro.canary
from repro.canary import CHECK_OK, load_manifest
from repro.core import Collie
from repro.core.population import PopulationCollie
from repro.core.reproducer import reproduce_mfs
from repro.hardware.subsystems import get_subsystem
from repro.obs.journal import reports_from_journal

#: The paper's headline campaign: subsystem F, 10 simulated hours.
SUBSYSTEM = "F"
SEARCH_HOURS = 10.0
#: BO is cut to 4 h: at 10 h one search costs ~43 s of host time.
BO_HOURS = 4.0
#: Seeds per round of search-F, and chains per population of
#: population-F, so both workloads run the same seeds.
CHAINS = 8
#: The committed canary corpus, in the checkout this file belongs to.
CORPUS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "canary", "corpus",
)

#: Nominal host seconds per operation on that 2-vCPU Xeon VM.
ROUND_SECONDS = 3.9  # 8 serial F searches, or one 8-chain population
CANARY_SECONDS = 3.2
BO_SECONDS = 2.9


@dataclasses.dataclass
class Task:
    """One operation's outcome and what its checks found wrong."""

    label: str
    subsystem: str
    experiments: int = 0
    #: Ground-truth tag -> simulated seconds of its first anomalous hit.
    first_hits: dict = dataclasses.field(default_factory=dict)
    anomalies: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)


def ground_truth(letter: str) -> set:
    """Every anomaly tag the subsystem's quirk tables can fire."""
    rnic = get_subsystem(letter).rnic
    return {r.tag for r in rnic.rules} | {r.tag for r in rnic.latency_rules}


def check_task(task: Task) -> Task:
    """Tag and MFS checks shared by every workload; fills ``problems``."""
    truth = ground_truth(task.subsystem)
    stray = sorted(set(task.first_hits) - truth)
    if stray:
        task.problems.append(f"tags outside ground truth: {stray}")
    for index, mfs in enumerate(task.anomalies):
        if not mfs.matches(mfs.witness):
            task.problems.append(f"MFS #{index} misses its own witness")
            continue
        replay = reproduce_mfs(mfs, task.subsystem)
        if not replay.reproduced:
            task.problems.append(f"MFS #{index}: {replay.describe()}")
    return task


def search_task(label: str, report) -> Task:
    return Task(
        label=label,
        subsystem=report.subsystem_name,
        experiments=report.experiments,
        first_hits=report.first_hit_times(),
        anomalies=list(report.anomalies),
    )


def _rounds(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


class Workload:
    """Defaults for a workload whose operation is one task, no cache."""

    def tasks_in(self, op) -> int:
        """Tasks an operation accounts for, used when it raised."""
        return 1

    def cache_stats(self, result) -> tuple[int, int]:
        """``(hits, misses)`` of the evaluation cache the operation used."""
        return 0, 0


class SearchF(Workload):
    """Serial ``Collie.for_subsystem("F")`` searches over consecutive seeds."""

    def __init__(self, hours: float = SEARCH_HOURS, chains: int = CHAINS):
        self.hours = hours
        self.chains = chains

    def ops(self, seed: int, seconds: float) -> list:
        count = self.chains * _rounds(seconds, ROUND_SECONDS)
        return [seed + i for i in range(count)]

    def run(self, op):
        return Collie.for_subsystem(
            SUBSYSTEM, budget_hours=self.hours, seed=op
        ).run()

    def collect(self, op, result) -> list[Task]:
        return [check_task(search_task(f"seed {op}", result))]


class PopulationF(Workload):
    """``PopulationCollie("F")``: chain c is search-F at seed (seed + c)."""

    def __init__(self, hours: float = SEARCH_HOURS, chains: int = CHAINS):
        self.hours = hours
        self.chains = chains

    def ops(self, seed: int, seconds: float) -> list:
        return [
            seed + self.chains * k
            for k in range(_rounds(seconds, ROUND_SECONDS))
        ]

    def run(self, op):
        population = PopulationCollie(
            SUBSYSTEM, chains=self.chains, budget_hours=self.hours, seed=op
        )
        report = population.run()
        return report, population.cache.hits, population.cache.misses

    def tasks_in(self, op) -> int:
        return self.chains

    def collect(self, op, result) -> list[Task]:
        report = result[0]
        tasks = [
            check_task(search_task(f"chain {c} (seed {op + c})", chain))
            for c, chain in enumerate(report.reports)
        ]
        # The determinism contract: one chain per population, rotating
        # with the seed, is re-run as a plain serial search.
        chain = op % self.chains
        serial = SearchF(self.hours).run(op + chain)
        got = report.reports[chain]
        for what, mine, theirs in (
            ("experiments", got.experiments, serial.experiments),
            ("found tags", got.found_tags(), serial.found_tags()),
            ("first-hit times", got.first_hit_times(),
             serial.first_hit_times()),
        ):
            if mine != theirs:
                tasks[chain].problems.append(
                    f"{what} differ from serial seed {op + chain}"
                )
        return tasks

    def cache_stats(self, result) -> tuple[int, int]:
        return result[1], result[2]


class CanaryCheck(Workload):
    """``canary_check`` on the committed A-H x 3-seed corpus."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.cells = load_manifest(CORPUS)["cells"]

    def ops(self, seed: int, seconds: float) -> list:
        # The corpus is the input and it is fixed; the seed only labels.
        return list(range(_rounds(seconds, CANARY_SECONDS)))

    def run(self, op):
        fresh = tempfile.mkdtemp(prefix="canary-", dir=self.out_dir)
        # Through the package attribute, so a traced run sees the call.
        return repro.canary.canary_check(CORPUS, fresh), fresh

    def tasks_in(self, op) -> int:
        return len(self.cells)

    def collect(self, op, result) -> list[Task]:
        check, fresh = result
        tasks = []
        for name, meta in sorted(self.cells.items()):
            path = os.path.join(fresh, f"{name}.jsonl")
            if not os.path.exists(path):
                tasks.append(Task(label=name, subsystem=meta["subsystem"],
                                  problems=["no fresh journal"]))
                continue
            (report,) = reports_from_journal(path)
            tasks.append(check_task(search_task(name, report)))
        if check.exit_code != CHECK_OK:
            for task in tasks:
                task.problems.append(
                    f"canary exit {check.exit_code}: "
                    f"{check.error or 'drift or invariant violation'}"
                )
        return tasks


class BayesOptF(Workload):
    """``BayesOptSearch("F", use_mfs=True)``, the Fig. 4 baseline."""

    def __init__(self, hours: float = BO_HOURS):
        self.hours = hours

    def ops(self, seed: int, seconds: float) -> list:
        # Fixed seeds, as in the Fig. 4 campaign: over five seeds the
        # time to first anomaly of a seed-derived set swung by 20-70%.
        return list(range(1, 1 + _rounds(seconds, BO_SECONDS)))

    def run(self, op):
        search = BayesOptSearch(
            SUBSYSTEM, budget_hours=self.hours, seed=op, use_mfs=True
        )
        return search.run(), search.anomalies

    def collect(self, op, result) -> list[Task]:
        report, anomalies = result
        task = Task(
            label=f"seed {op}",
            subsystem=report.subsystem_name,
            experiments=report.experiments,
            first_hits=report.first_hit_times(),
            anomalies=list(anomalies),
        )
        return [check_task(task)]


NAMES = ("search-F", "population-F", "canary-check", "bo-F")


def make(name: str, out_dir: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks budgets for the self-test."""
    if name == "search-F":
        return SearchF(0.5, 2) if tiny else SearchF()
    if name == "population-F":
        return PopulationF(0.5, 2) if tiny else PopulationF()
    if name == "canary-check":
        return CanaryCheck(out_dir)
    if name == "bo-F":
        return BayesOptF(0.5) if tiny else BayesOptF()
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def summarize(tasks: list[Task]) -> tuple[int, float]:
    """``(anomalies_found, ttfa_hours)`` over a run's tasks.

    ``ttfa_hours`` is the mean, over every anomaly each task found, of
    the simulated hours to its first hit: Fig. 4's "mean time to find".
    The median over tasks of only the first anomaly is set by the ten
    random ranking probes, and across disjoint sets of 32 seeds it
    varied by 40% (IQR/median) against 10% for this mean.
    """
    found = sum(len(t.first_hits) for t in tasks)
    hits = [h / 3600.0 for t in tasks for h in t.first_hits.values()]
    return found, statistics.mean(hits) if hits else float("nan")
