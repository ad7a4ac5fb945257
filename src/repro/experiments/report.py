"""Run every experiment and render a combined report."""

from __future__ import annotations

from collections.abc import Iterable
from types import ModuleType

from repro.experiments import (
    fig03_bounds,
    fig09_schemes,
    fig10_eir,
    fig11_shifter,
    fig12_reordering,
    fig13_padding,
    table2_intra_block,
    table3_taken_reduction,
    table4_nop_padding,
)
from repro.experiments.common import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    ExperimentResult,
    resolve,
)
from repro.metrics.chart import result_chart

#: Chartable columns per figure-type experiment (tables stay tabular;
#: derived columns with different units are excluded from the bars).
FIGURE_CHART_COLUMNS: dict[str, list[str] | None] = {
    "fig03": ["sequential", "perfect"],
    "fig09": None,  # all numeric columns share the IPC axis
    "fig10": [
        "sequential %",
        "interleaved_sequential %",
        "banked_sequential %",
        "collapsing_buffer %",
    ],
    "fig11": None,
    "fig12": None,
    "fig13": None,
}


def render(result: ExperimentResult, chart: bool = False) -> str:
    """Text rendering of *result*; with *chart*, figure-type experiments
    are drawn as grouped bar charts instead of tables."""
    if chart and result.experiment in FIGURE_CHART_COLUMNS:
        text = result_chart(
            result, columns=FIGURE_CHART_COLUMNS[result.experiment]
        )
        if result.notes:
            text += f"\n\n{result.notes}"
        return text
    return result.as_text()


#: All experiments in the paper's presentation order: each module lists
#: the cells it reads (``cells(config)``) and renders its result from
#: their values (``render(config, results)``).
EXPERIMENTS: dict[str, ModuleType] = {
    "fig03": fig03_bounds,
    "table2": table2_intra_block,
    "fig09": fig09_schemes,
    "fig10": fig10_eir,
    "fig11": fig11_shifter,
    "fig12": fig12_reordering,
    "table3": table3_taken_reduction,
    "table4": table4_nop_padding,
    "fig13": fig13_padding,
}


def run_experiments(
    names: Iterable[str] | None = None,
    config: ExperimentConfig = DEFAULT_CONFIG,
    processes: int | None = None,
) -> list[ExperimentResult]:
    """Run the named experiments (all by default), in paper order.

    Artifacts share cells (Figure 9 reads Figure 3's, Figure 11
    Figure 9's, Table 3 Table 2's), so the selected artifacts' cells
    are gathered first and each distinct one is loaded or computed
    once (:func:`~repro.experiments.common.resolve`: cache misses run
    on up to *processes* workers, default one per CPU; 1 computes them
    in turn in this process).  Rendering stays here, and the values
    live only for this call.
    """
    selected = list(names) if names is not None else list(EXPERIMENTS)
    artifacts = []
    for name in selected:
        try:
            artifacts.append(EXPERIMENTS[name])
        except KeyError:
            known = ", ".join(EXPERIMENTS)
            raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
    results = resolve(
        (cell for artifact in artifacts for cell in artifact.cells(config)),
        processes,
    )
    return [artifact.render(config, results) for artifact in artifacts]
