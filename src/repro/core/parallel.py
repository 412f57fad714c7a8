"""Parallel Collie: the §8 "multiple machines" extension.

"Though powerful data centers can run Collie on multiple machines for a
longer time, the search algorithm is also important" (§8).  This module
implements the natural fleet parallelisation: the diagnostic counters
are ranked once on a shared probe set, partitioned round-robin across
``machines`` independent two-server testbeds, and each machine runs the
full SA search on its counter share for the whole budget.  Results merge
by earliest discovery; wall-clock time is the *maximum* machine clock
(they run concurrently), so a counter that previously shared a 10-hour
budget with eight siblings now gets hours of dedicated attention.

With ``workers > 1`` the machines really do run concurrently: each
machine is one task for the :class:`~repro.core.executor.CampaignExecutor`
process pool.  Every machine's RNG and clock are built inside the worker
from the machine's own seed, so the merged
:class:`~repro.core.runset.RunSet` is bit-identical to a serial fleet
run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.annealing import SAParams
from repro.core.collie import RANKING_PROBES, rank_by_dispersion
from repro.core.evalcache import EvalCache
from repro.core.executor import CampaignExecutor, fan_out
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.population import PopulationCollie
from repro.core.runset import RunSet
from repro.core.space import SearchSpace
from repro.hardware.counters import DIAGNOSTIC_COUNTERS
from repro.hardware.model import SteadyStateModel
from repro.hardware.subsystems import Subsystem, get_subsystem


def _run_machine(payload: dict, cache: Optional[EvalCache]) -> list:
    """One fleet machine, executed inside a worker process.

    The driver — clocks, RNGs, testbeds — is built here from the
    payload's seed, so the machine's trajectory does not depend on which
    process runs it.  The machine steps a lockstep SA population over
    its counter share: chain ``c`` seeds at ``seed + c`` and contributes
    one report (a 1-chain population *is* the plain single trajectory).
    """
    return PopulationCollie(
        payload["subsystem"],
        chains=payload["chains"],
        space=payload["space"],
        counters=payload["share"],
        budget_hours=payload["budget_hours"],
        seed=payload["seed"],
        sa_params=payload["sa_params"],
        noise=payload["noise"],
        cache=cache,
        latency=payload["latency"],
    ).run().reports


class ParallelCollie:
    """Runs Collie's counter passes across a fleet of testbeds."""

    def __init__(
        self,
        subsystem: "Subsystem | str",
        machines: int = 3,
        budget_hours: float = 10.0,
        seed: int = 0,
        space: Optional[SearchSpace] = None,
        sa_params: SAParams = SAParams(),
        noise: float = 0.02,
        workers: int = 1,
        cache: Optional[EvalCache] = None,
        recorder=None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        latency: bool = True,
        chains: int = 1,
    ) -> None:
        if machines <= 0:
            raise ValueError("need at least one machine")
        if chains <= 0:
            raise ValueError("need at least one chain per machine")
        if isinstance(subsystem, str):
            subsystem = get_subsystem(subsystem)
        self.subsystem = subsystem
        self.machines = machines
        self.budget_hours = budget_hours
        self.seed = seed
        self.space = space or SearchSpace.for_subsystem(subsystem)
        self.sa_params = sa_params
        self.noise = noise
        #: Optional flight recorder.  A recorder's journal handle cannot
        #: cross the process boundary, so the fleet journals post-hoc:
        #: each machine's report is replayed into the journal on return.
        self.recorder = recorder
        self.executor = CampaignExecutor(
            workers=workers,
            metrics=recorder.metrics if recorder is not None else None,
            progress=recorder.task_progress if recorder is not None else None,
            retry=retry,
            faults=faults,
            recorder=recorder,
        )
        #: Parent-side cache: warm-starts every machine and absorbs
        #: their entries/stats after the fleet completes.
        self.cache = cache
        #: Threaded into every machine's Collie (``--no-latency``).
        self.latency = latency
        #: SA chains per machine: each machine steps a lockstep
        #: population over its counter share (chain ``c`` of machine
        #: ``m`` seeds at ``seed * 1000 + m * chains + c``, so no two
        #: chains of the fleet share a seed) and contributes one report
        #: per chain to the merge.
        self.chains = chains

    def _rank_counters(self) -> list[str]:
        """Shared ranking pass: 10 random probes, std/mean descending."""
        rng = np.random.default_rng(self.seed)
        model = SteadyStateModel(self.subsystem, noise=self.noise)
        observations: dict = {name: [] for name in DIAGNOSTIC_COUNTERS}
        for _ in range(RANKING_PROBES):
            measurement = model.evaluate(self.space.random(rng), rng)
            for name in DIAGNOSTIC_COUNTERS:
                observations[name].append(float(measurement.counters[name]))
        return rank_by_dispersion(observations)[0]

    def _partition(self, ranked: list[str]) -> list[tuple[str, ...]]:
        """Round-robin counter shares, one per machine."""
        shares: list[list[str]] = [[] for _ in range(self.machines)]
        for index, counter in enumerate(ranked):
            shares[index % self.machines].append(counter)
        return [tuple(share) for share in shares if share]

    def run(self) -> RunSet:
        shares = self._partition(self._rank_counters())
        first_seeds = [
            self.seed * 1000 + machine * self.chains
            for machine in range(len(shares))
        ]
        payloads = [
            {
                "subsystem": self.subsystem,
                "space": self.space,
                "share": share,
                "budget_hours": self.budget_hours,
                "seed": seed,
                "sa_params": self.sa_params,
                "noise": self.noise,
                "latency": self.latency,
                "chains": self.chains,
            }
            for seed, share in zip(first_seeds, shares)
        ]
        return fan_out(
            self.executor, _run_machine, payloads,
            seeds=[
                seed + chain
                for seed in first_seeds for chain in range(self.chains)
            ],
            budget_hours=self.budget_hours,
            cache=self.cache,
            recorder=self.recorder,
        )
