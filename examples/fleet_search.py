#!/usr/bin/env python
"""§8's fleet extension: Collie across multiple testbed machines.

"Powerful data centers can run Collie on multiple machines for a longer
time."  This example ranks the nine diagnostic counters once, hands each
machine a share, and lets the fleet search concurrently.  On a single
testbed the nine counters dilute the 10-hour budget and the
conditions-heavy anomalies often stay out of reach; with one counter per
machine the full Table 2 suite of subsystem F is usually recovered.

A fleet run returns a ``RunSet``: one report per machine, the seed each
machine ran at, and the merged view (earliest hit per tag, summed
experiments, wall-clock time of the slowest machine).
"""

import sys

from repro.core.parallel import ParallelCollie


def main() -> None:
    letter = sys.argv[1] if len(sys.argv) > 1 else "F"
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 10.0

    print(f"{'machines':>9} | {'anomaly tags found':>18} | experiments | "
          f"wall-clock")
    print("-" * 60)
    for machines in (1, 3, 9):
        report = ParallelCollie(
            letter, machines=machines, budget_hours=budget, seed=1
        ).run()
        print(f"{machines:>9} | {len(report.found_tags()):>18} | "
              f"{report.total_experiments:>11} | "
              f"{report.elapsed_seconds / 3600:>7.1f}h")

    fleet = ParallelCollie(letter, machines=9, budget_hours=budget,
                           seed=1).run()
    print("\nFleet (9 machines) runs, one per machine:")
    for seed, report in zip(fleet.seeds, fleet.reports):
        print(f"  seed {seed}: {'/'.join(report.counter_ranking):<28} "
              f"{len(report.anomalies)} anomalies")
    print("\nFleet (9 machines) anomaly set:")
    for index, mfs in enumerate(fleet.anomalies, 1):
        print(f"  {index:2d}: {mfs.describe()}")


if __name__ == "__main__":
    main()
