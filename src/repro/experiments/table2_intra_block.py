"""Table 2: percentage of taken branches with intra-block targets.

Measured over the dynamic trace at each machine's cache-block size
(16B/32B/64B -> 4/8/16 instructions).  These ratios motivate the
collapsing buffer: at PI12 nearly half the taken branches of eqntott,
espresso and wave5 stay inside one block.
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_CONFIG,
    Cell,
    ExperimentConfig,
    ExperimentResult,
    Results,
    all_machines,
    branch_cell,
    resolve,
)
from repro.workloads.profiles import ALL_BENCHMARKS, get_profile

#: The paper's published values (percent; PI4/PI8/PI12).  bison and doduc
#: are illegible in the source scan and omitted from comparisons.
PAPER_TABLE2: dict[str, tuple[float, float, float]] = {
    "compress": (14.58, 14.59, 34.63),
    "eqntott": (6.13, 29.26, 41.40),
    "espresso": (1.40, 14.86, 45.68),
    "flex": (1.29, 3.88, 24.79),
    "gcc": (4.98, 14.08, 24.73),
    "li": (0.00, 5.74, 19.07),
    "mpeg_play": (0.70, 7.66, 11.96),
    "sc": (0.17, 11.02, 21.59),
    "mdljdp2": (0.26, 24.37, 66.10),
    "nasa7": (0.03, 0.06, 0.08),
    "ora": (0.01, 19.01, 23.16),
    "tomcatv": (0.08, 0.17, 13.97),
    "wave5": (2.71, 35.21, 41.73),
}


def _cell(benchmark: str, machine, config: ExperimentConfig) -> Cell:
    return branch_cell(
        benchmark, "orig", config.stats_length, config.seed, machine.words_per_block
    )


def cells(config: ExperimentConfig) -> list[Cell]:
    return [
        _cell(benchmark, machine, config)
        for benchmark in ALL_BENCHMARKS
        for machine in all_machines()
    ]


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    result = ExperimentResult(
        experiment="table2",
        title="Table 2: % taken branches with target in the same cache block",
        headers=["class", "benchmark"]
        + [f"{m.name} ({m.icache_block_bytes}B)" for m in all_machines()],
        notes=(
            "Paper values in PAPER_TABLE2; workload profiles are "
            "calibrated against them (see DESIGN.md)."
        ),
    )
    for benchmark in ALL_BENCHMARKS:
        row = [get_profile(benchmark).workload_class, benchmark]
        for machine in all_machines():
            stats = results[_cell(benchmark, machine, config)]
            row.append(100.0 * stats.intra_block_fraction)
        result.rows.append(row)
    return result


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))
