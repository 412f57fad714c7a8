"""Simulated-annealing diagnostics from a run journal.

The numbers behind the paper's Fig. 5 ablation, from the recorder's
``transition`` stream (improve / accept / reject / restart / reheat):
per-temperature-epoch acceptance rates (is the Metropolis schedule
cooling, or is the search a random walk?), per-dimension mutation
effectiveness (schema-v3 transitions name the mutated dimensions), and
time to first anomaly, from ``experiment`` records so it also works for
baselines that never record transitions.  Population journals (schema
v5) split per chain; a tempering chain's ``t0`` — the hottest
temperature it journaled — is its ladder rung.  Unstamped journals
fold into a single ``chain=None`` stream.

Every number is a read of the one journal fold in
:mod:`repro.obs.rollup` (the state the live aggregator also keeps);
this module adds the terminal rendering.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.rollup import (
    ChainDiagnostics,
    DimensionStats,
    EpochStats,
    fold_records,
)


def fold_epochs(records) -> list[EpochStats]:
    """Temperature epochs, in journal order."""
    return fold_records(records).epochs


def acceptance_rate(records) -> Optional[float]:
    """Overall Metropolis acceptance rate (None without decisions)."""
    return fold_records(records).acceptance_rate()


def mutation_effectiveness(records) -> list[DimensionStats]:
    """Per-dimension mutation outcomes, most effective first (needs the
    schema-v3 ``mutated`` labels; a two-dimension mutation credits both).
    """
    return fold_records(records).mutation_effectiveness()


def per_chain_diagnostics(records) -> list[ChainDiagnostics]:
    """Acceptance, effectiveness, exchanges and TTFA split per chain.

    Unstamped journals yield one ``chain=None`` entry holding the
    whole-journal numbers.
    """
    return fold_records(records).chain_diagnostics()


def time_to_first_anomaly(records) -> Optional[float]:
    """Simulated seconds until the first anomalous experiment (None
    when the run stayed healthy); works for any recorded approach.
    """
    return fold_records(records).ttfa


def time_to_first_anomaly_by_symptom(records) -> dict:
    """Symptom → simulated seconds until its first anomalous
    experiment, earliest first; unseen symptoms are absent.
    """
    return fold_records(records).ttfa_by_symptom()


def worst_interference(records) -> Optional[tuple]:
    """``(interference, time_seconds)`` of the worst co-run experiment
    (None for solo journals; non-finite sentinels are ignored).
    """
    return fold_records(records).worst_interference


def render_sa_diagnostics(records) -> str:
    """Terminal rendering of the full SA diagnostic fold."""
    rollup = fold_records(records)
    lines = ["simulated-annealing diagnostics"]
    ttfa = rollup.ttfa
    lines.append(
        "  time to first anomaly: "
        + (f"{ttfa:.0f}s simulated" if ttfa is not None else "never")
    )
    by_symptom = rollup.ttfa_by_symptom()
    if len(by_symptom) > 1:
        for symptom, seconds in by_symptom.items():
            lines.append(f"    {symptom}: {seconds:.0f}s simulated")
    interference = rollup.worst_interference
    if interference is not None:
        lines.append(
            f"  worst victim interference: {interference[0]:.2f} of fair "
            f"share at {interference[1]:.0f}s simulated"
        )
    prelude = len(lines)
    overall = rollup.acceptance_rate()
    if overall is not None:
        lines.append(f"  overall acceptance rate: {overall:.1%}")
    epochs = rollup.epochs
    if epochs:
        lines.append("  temperature epochs:")
        lines.append(
            f"    {'temp':>8} {'improve':>8} {'accept':>7} {'reject':>7} "
            f"{'restart':>8} {'reheat':>7} {'accept %':>9}"
        )
        for epoch in epochs:
            rate = epoch.acceptance_rate
            lines.append(
                f"    {epoch.temperature:>8.4f} {epoch.improve:>8d} "
                f"{epoch.accept:>7d} {epoch.reject:>7d} {epoch.restart:>8d} "
                f"{epoch.reheat:>7d} "
                + (f"{rate:>8.1%}" if rate is not None else f"{'—':>9}")
            )
    dimensions = rollup.mutation_effectiveness()
    if dimensions:
        lines.append("  mutation effectiveness by dimension:")
        lines.append(
            f"    {'dimension':<14} {'mutations':>9} {'improved':>9} "
            f"{'accepted':>9} {'rejected':>9} {'improve %':>10}"
        )
        for entry in dimensions:
            effectiveness = entry.effectiveness
            lines.append(
                f"    {entry.dimension:<14} {entry.mutations:>9d} "
                f"{entry.improvements:>9d} {entry.accepts:>9d} "
                f"{entry.rejects:>9d} "
                + (
                    f"{effectiveness:>9.1%}"
                    if effectiveness is not None else f"{'—':>10}"
                )
            )
    if len(lines) == prelude:
        lines.append("  no transition records in this journal")
    chains = rollup.chain_diagnostics()
    if any(entry.chain is not None for entry in chains):
        lines.append("  per-chain split:")
        lines.append(
            f"    {'chain':>5} {'t0':>8} {'decisions':>9} {'accept %':>9} "
            f"{'exchanges':>9} {'ttfa':>8}  best dimension"
        )
        for entry in chains:
            chain = "—" if entry.chain is None else str(entry.chain)
            t0 = f"{entry.t0:.4f}" if entry.t0 is not None else "—"
            accept = (
                f"{entry.acceptance:.1%}"
                if entry.acceptance is not None else "—"
            )
            ttfa = f"{entry.ttfa:.0f}s" if entry.ttfa is not None else "never"
            lines.append(
                f"    {chain:>5} {t0:>8} {entry.decisions:>9d} "
                f"{accept:>9} {entry.exchanges:>9d} {ttfa:>8}  "
                + (entry.best_dimension or "—")
            )
    return "\n".join(lines)
