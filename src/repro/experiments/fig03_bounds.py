"""Figure 3: sequential versus perfect IPC bounds.

"Figure 3 presents the harmonic mean of the IPC for sequential and
perfect for the integer and floating-point benchmarks" — the motivation
figure: the gap between the realistic lower bound and the fetch-bandwidth
upper bound justifies better fetch mechanisms, especially for integer
code at higher issue rates.
"""

from __future__ import annotations

from repro.experiments.common import (
    BENCHMARK_CLASSES,
    DEFAULT_CONFIG,
    BarRow,
    Cell,
    ExperimentConfig,
    ExperimentResult,
    Results,
    all_machines,
    bar_cells,
    bar_rows,
    ipc_bar,
    resolve,
)

#: Paper's qualitative claims for this figure.
PAPER_NOTES = (
    "Paper: the sequential-vs-perfect gap widens with issue rate and is "
    "larger for integer code; loop-intensive FP code on PI4 has the least "
    "need for better fetch mechanisms."
)


def _rows(config: ExperimentConfig) -> list[BarRow]:
    return [
        (
            [class_name, machine.name],
            [
                ipc_bar(benchmarks, machine, scheme, config)
                for scheme in ("sequential", "perfect")
            ],
        )
        for class_name, benchmarks in BENCHMARK_CLASSES
        for machine in all_machines()
    ]


def cells(config: ExperimentConfig) -> list[Cell]:
    return bar_cells(_rows(config))


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig03",
        title="Figure 3: harmonic-mean IPC, sequential vs perfect",
        headers=["class", "machine", "sequential", "perfect", "gap %"],
        notes=PAPER_NOTES,
    )
    for row in bar_rows(results, _rows(config)):
        seq, perfect = row[2:]
        result.rows.append(row + [100.0 * (perfect - seq) / perfect])
    return result


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))
