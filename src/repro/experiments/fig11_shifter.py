"""Figure 11: the shifter-implemented collapsing buffer (3-cycle penalty).

The shifter implementation of the collapsing buffer cannot keep the
2-cycle fetch misprediction penalty of the crossbar; this experiment
re-runs the integer comparison with the collapsing buffer at a 3-cycle
penalty while every other scheme keeps 2 cycles.  Paper finding: banked
sequential performs slightly *better* than the 3-cycle collapsing buffer
at PI4 and only slightly worse at PI12 — arguing for the crossbar.
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

SCHEMES = (
    ("sequential", None),
    ("interleaved_sequential", None),
    ("banked_sequential", None),
    ("collapsing_buffer", 3),  # shifter implementation
    ("perfect", None),
)


def _rows(config: ExperimentConfig) -> list[BarRow]:
    return [
        (
            [machine.name],
            [
                ipc_bar(
                    INTEGER_BENCHMARKS, machine, scheme, config, fetch_penalty=penalty
                )
                for scheme, penalty in SCHEMES
            ],
        )
        for machine in all_machines()
    ]


def cells(config: ExperimentConfig) -> list[Cell]:
    return bar_cells(_rows(config))


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    return ExperimentResult(
        experiment="fig11",
        title=(
            "Figure 11: integer IPC with the collapsing buffer at a "
            "3-cycle fetch misprediction penalty (shifter implementation)"
        ),
        headers=["machine"]
        + [
            f"{scheme}(p{penalty})" if penalty else scheme
            for scheme, penalty in SCHEMES
        ],
        rows=bar_rows(results, _rows(config)),
        notes=(
            "Expected shape: the 3-cycle collapsing buffer loses most of "
            "its advantage over banked sequential (paper Section 3.4)."
        ),
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))
