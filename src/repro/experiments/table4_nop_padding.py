"""Table 4: static nop expansion of pad-all versus pad-trace.

pad-all aligns every basic block to a cache-block boundary; pad-trace
aligns only trace ends (after reordering).  Expansion is reported as
inserted nops over original code size, per block size (16B/32B/64B).
Paper: pad-trace stays cheap (0.1-42%), pad-all explodes (16-255%).
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_CONFIG,
    Cell,
    ExperimentConfig,
    ExperimentResult,
    Results,
    all_machines,
    pad_cell,
    resolve,
)
from repro.workloads.profiles import INTEGER_BENCHMARKS

#: Paper Table 4 (percent of nops vs original code size) at 16B blocks.
PAPER_TABLE4_16B = {
    "bison": (28.45, 2.22),
    "compress": (29.53, 0.08),
    "eqntott": (40.15, 7.17),
    "espresso": (28.85, 5.60),
    "flex": (27.75, 5.27),
    "gcc": (32.31, 5.94),
    "li": (33.20, 8.68),
    "mpeg_play": (16.07, 3.45),
    "sc": (37.89, 3.44),
}


#: Table 4's padded variants, in column order.
PADS = ("pad_all", "pad_trace")


def cells(config: ExperimentConfig) -> list[Cell]:
    return [
        pad_cell(benchmark, variant, machine.words_per_block)
        for benchmark in INTEGER_BENCHMARKS
        for machine in all_machines()
        for variant in PADS
    ]


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    block_sizes = [m.words_per_block for m in all_machines()]
    headers = ["benchmark"]
    for words in block_sizes:
        headers += [f"pad-all {words * 4}B %", f"pad-trace {words * 4}B %"]
    result = ExperimentResult(
        experiment="table4",
        title="Table 4: nop expansion of pad-all vs pad-trace",
        headers=headers,
        notes=(
            "Expected shape: pad-trace an order of magnitude cheaper than "
            "pad-all; both grow with block size."
        ),
    )
    for benchmark in INTEGER_BENCHMARKS:
        row = [benchmark]
        for words in block_sizes:
            for variant in PADS:
                row.append(100.0 * results[pad_cell(benchmark, variant, words)])
        result.rows.append(row)
    return result


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))
