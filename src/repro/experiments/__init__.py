"""Reproductions of every table and figure in the paper's evaluation."""

from repro.experiments import variance
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
    eir_stats,
    sim_stats,
    variant_program,
    variant_trace,
)

__all__ = [
    "DEFAULT_CONFIG",
    "variance",
    "ExperimentConfig",
    "ExperimentResult",
    "eir_stats",
    "fig03_bounds",
    "fig09_schemes",
    "fig10_eir",
    "fig11_shifter",
    "fig12_reordering",
    "fig13_padding",
    "sim_stats",
    "table2_intra_block",
    "table3_taken_reduction",
    "table4_nop_padding",
    "variant_program",
    "variant_trace",
]
