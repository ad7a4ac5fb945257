"""Table 3: percent reduction in dynamic taken branches from reordering.

Profile-driven trace selection and layout (five profiling seeds, one
held-out test seed) flips likely-taken branches so the hot path falls
through.  Paper values range from 15.7% (li) to 44.2% (compress).
"""

from __future__ import annotations

from repro.compiler.layout_opt import reorder_program
from repro.compiler.superblock import form_superblocks
from repro.experiments.common import (
    ABLATION_BENCHMARKS,
    DEFAULT_CONFIG,
    Cell,
    ExperimentConfig,
    ExperimentResult,
    Results,
    branch_cell,
    resolve,
)
from repro.metrics.branches import reduction_between, taken_branch_reduction
from repro.workloads.profiles import INTEGER_BENCHMARKS
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace

#: Paper Table 3 (percent reduction).
PAPER_TABLE3: dict[str, float] = {
    "bison": 25.26,
    "compress": 44.20,
    "eqntott": 24.52,
    "espresso": 22.42,
    "flex": 25.17,
    "gcc": 37.20,
    "li": 15.72,
    "mpeg_play": 25.26,
    "sc": 28.84,
}


def _cells(benchmark: str, config: ExperimentConfig) -> list[Cell]:
    """The ``orig`` and ``reordered`` statistics at 4 words (the ``orig``
    one is also Table 2's PI4 cell)."""
    return [
        branch_cell(benchmark, variant, config.stats_length, config.seed, 4)
        for variant in ("orig", "reordered")
    ]


def cells(config: ExperimentConfig) -> list[Cell]:
    return [
        cell for benchmark in INTEGER_BENCHMARKS for cell in _cells(benchmark, config)
    ]


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    result = ExperimentResult(
        experiment="table3",
        title="Table 3: % reduction in dynamic taken branches (reordering)",
        headers=["benchmark", "measured %", "paper %"],
        notes=(
            "Reduction is per work (non-control, non-nop) instruction so "
            "layouts of different code size compare fairly."
        ),
    )
    for benchmark in INTEGER_BENCHMARKS:
        original, reordered = (results[cell] for cell in _cells(benchmark, config))
        reduction = 100.0 * reduction_between(original, reordered)
        result.rows.append(
            [benchmark, reduction, PAPER_TABLE3[benchmark]]
        )
    return result


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))


def run_superblock(
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> ExperimentResult:
    """Superblock formation (tail duplication) versus plain trace layout.

    The paper cites the superblock [18] as the scheduling-oriented sibling
    of its trace layout.  For *fetch* metrics the tail duplication buys
    nothing by itself — side entrances are redirected to displaced
    originals, adding jumps — which is consistent with the paper choosing
    plain reordering for its study.
    """
    result = ExperimentResult(
        experiment="ablation_superblock",
        title="Extension: superblock formation vs plain trace layout",
        headers=[
            "benchmark",
            "reorder taken red. %",
            "superblock taken red. %",
            "code growth %",
            "duplicated blocks",
        ],
        notes=(
            "Finding: without a global scheduler to exploit single-entry "
            "regions, tail duplication costs a little code and a few "
            "taken branches versus plain trace layout — consistent with "
            "the paper studying plain reordering for fetch."
        ),
    )
    for benchmark in ABLATION_BENCHMARKS:
        workload = load_workload(benchmark)
        superblocked = form_superblocks(workload.program, workload.behavior)
        reordered = reorder_program(workload.program, workload.behavior)
        original, re_trace, sb_trace = (
            generate_trace(
                program, workload.behavior, config.stats_length, seed=config.seed
            )
            for program in (
                workload.program,
                reordered.program,
                superblocked.program,
            )
        )
        result.rows.append(
            [
                benchmark,
                100.0 * taken_branch_reduction(original, re_trace),
                100.0 * taken_branch_reduction(original, sb_trace),
                100.0 * superblocked.code_growth,
                superblocked.duplicated_blocks,
            ]
        )
    return result
