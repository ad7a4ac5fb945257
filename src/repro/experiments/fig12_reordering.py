"""Figure 12: performance of the hardware schemes after code reordering.

Integer benchmarks only (the paper excludes SPECfp92: already highly
sequential).  Paper conclusions: sequential(reordered) nearly reaches
perfect(unordered) at PI4; interleaved(reordered) matches
perfect(unordered) across all machines — i.e. reordering lets simple
hardware match the hardware-only collapsing buffer; collapsing
buffer + reordering nearly reaches perfect(reordered) everywhere.
"""

from __future__ import annotations

from repro.experiments.common import (
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
from repro.workloads.profiles import INTEGER_BENCHMARKS

SERIES = (
    ("sequential", "orig"),
    ("sequential", "reordered"),
    ("interleaved_sequential", "reordered"),
    ("banked_sequential", "reordered"),
    ("collapsing_buffer", "reordered"),
    ("perfect", "reordered"),
    ("perfect", "orig"),
)


def _rows(config: ExperimentConfig) -> list[BarRow]:
    return [
        (
            [machine.name],
            [
                ipc_bar(INTEGER_BENCHMARKS, machine, scheme, config, variant=variant)
                for scheme, variant in SERIES
            ],
        )
        for machine in all_machines()
    ]


def cells(config: ExperimentConfig) -> list[Cell]:
    return bar_cells(_rows(config))


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    return ExperimentResult(
        experiment="fig12",
        title="Figure 12: integer harmonic-mean IPC after code reordering",
        headers=["machine"]
        + [
            f"{scheme}({'unordered' if variant == 'orig' else variant})"
            for scheme, variant in SERIES
        ],
        rows=bar_rows(results, _rows(config)),
        notes=(
            "Expected shape: reordering lifts every scheme; "
            "interleaved(reordered) approaches perfect(unordered); "
            "collapsing(reordered) approaches perfect(reordered)."
        ),
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))
