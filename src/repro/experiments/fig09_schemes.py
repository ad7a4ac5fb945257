"""Figure 9: IPC of all four hardware schemes plus perfect.

Panel (a) integer benchmarks, panel (b) floating-point; harmonic means
per machine model.  The paper's conclusions: interleaving gives a slight
boost; banked and the collapsing buffer give distinct improvements,
especially for integer code at higher issue rates; the collapsing buffer
is the most successful mechanism across all designs.
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
    ipc_cell,
    resolve,
)
from repro.fetch.factory import HARDWARE_SCHEMES
from repro.workloads.profiles import ALL_BENCHMARKS, get_profile

ALL_SCHEMES = HARDWARE_SCHEMES + ("perfect",)


def _rows(config: ExperimentConfig) -> list[BarRow]:
    return [
        (
            [class_name, machine.name],
            [ipc_bar(benchmarks, machine, scheme, config) for scheme in ALL_SCHEMES],
        )
        for class_name, benchmarks in BENCHMARK_CLASSES
        for machine in all_machines()
    ]


def cells(config: ExperimentConfig) -> list[Cell]:
    """The cells of both :func:`run` and :func:`run_detail`."""
    return bar_cells(_rows(config))


def render_detail(config: ExperimentConfig, results: Results) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig09_detail",
        title="Figure 9 (detail): per-benchmark IPC per fetch scheme",
        headers=["class", "benchmark", "machine"] + list(ALL_SCHEMES),
    )
    for benchmark in ALL_BENCHMARKS:
        for machine in all_machines():
            result.rows.append(
                [get_profile(benchmark).workload_class, benchmark, machine.name]
                + [
                    results[ipc_cell(benchmark, machine, scheme, config)].useful_ipc
                    for scheme in ALL_SCHEMES
                ]
            )
    return result


def run_detail(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Per-benchmark variant of Figure 9 (the paper plots harmonic means;
    this exposes the underlying distribution)."""
    return render_detail(config, resolve(cells(config)))


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    return ExperimentResult(
        experiment="fig09",
        title="Figure 9: harmonic-mean IPC per fetch scheme",
        headers=["class", "machine"] + list(ALL_SCHEMES),
        rows=bar_rows(results, _rows(config)),
        notes=(
            "Expected shape: sequential <= interleaved <= banked <= "
            "collapsing buffer <= perfect, with gaps widening from PI4 "
            "to PI12 (paper Section 3.4)."
        ),
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))
