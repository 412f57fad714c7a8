"""Collie's core: search space, workload engine, anomaly monitor, MFS
algorithm, simulated-annealing search, and the top-level orchestration.

The quickest route in::

    from repro.core import Collie
    report = Collie.for_subsystem("F", seed=0, budget_hours=10.0).run()
    for anomaly in report.anomalies:
        print(anomaly.describe())
"""

from repro.core.collie import Collie, SearchReport
from repro.core.engine import WorkloadEngine
from repro.core.evalcache import EvalCache
from repro.core.executor import CampaignExecutor, ExecutorStats
from repro.core.faults import (
    FaultPlan,
    FaultSpec,
    FaultyTestbed,
    RetryPolicy,
    TaskFailed,
)
from repro.core.mfs import MinimalFeatureSet
from repro.core.monitor import AnomalyMonitor, AnomalyVerdict
from repro.core.population import PopulationCollie
from repro.core.runset import RunSet
from repro.core.space import SearchSpace

__all__ = [
    "Collie",
    "SearchReport",
    "WorkloadEngine",
    "EvalCache",
    "CampaignExecutor",
    "ExecutorStats",
    "FaultPlan",
    "FaultSpec",
    "FaultyTestbed",
    "RetryPolicy",
    "TaskFailed",
    "MinimalFeatureSet",
    "AnomalyMonitor",
    "AnomalyVerdict",
    "PopulationCollie",
    "RunSet",
    "SearchSpace",
]
