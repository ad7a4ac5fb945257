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
    ExperimentConfig,
    ExperimentResult,
    variant_trace,
)
from repro.metrics.branches import taken_branch_reduction
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


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
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
        original = variant_trace(
            benchmark, "orig", config.stats_length, config.seed
        )
        reordered = variant_trace(
            benchmark, "reordered", config.stats_length, config.seed
        )
        reduction = 100.0 * taken_branch_reduction(original, reordered)
        result.rows.append(
            [benchmark, reduction, PAPER_TABLE3[benchmark]]
        )
    return result


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
        original = generate_trace(
            workload.program, workload.behavior, config.stats_length
        )
        re_trace = generate_trace(
            reordered.program, workload.behavior, config.stats_length
        )
        sb_trace = generate_trace(
            superblocked.program, workload.behavior, config.stats_length
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
