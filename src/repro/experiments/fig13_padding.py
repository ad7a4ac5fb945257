"""Figure 13: performance of pad-all and pad-trace for *sequential*.

pad-all augments the unordered program; pad-trace augments the reordered
one.  Paper findings: pad-all gains only at PI4 and *hurts* on larger
cache-block machines (excessive nop insertion destroys locality and eats
fetch slots); pad-trace is a cheap refinement of reordering with marginal
gains.
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
    ("sequential", "pad_all"),
    ("sequential", "reordered"),
    ("sequential", "pad_trace"),
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
        experiment="fig13",
        title="Figure 13: integer IPC of sequential with nop padding",
        headers=["machine"]
        + [
            f"{scheme}({'unordered' if variant == 'orig' else variant})"
            for scheme, variant in SERIES
        ],
        rows=bar_rows(results, _rows(config)),
        notes=(
            "Expected shape: pad-all helps at most on PI4 and degrades at "
            "larger block sizes; pad-trace stays at or slightly above "
            "sequential(reordered)."
        ),
    )


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))
