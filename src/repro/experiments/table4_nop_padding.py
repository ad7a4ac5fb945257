"""Table 4: static nop expansion of pad-all versus pad-trace.

pad-all aligns every basic block to a cache-block boundary; pad-trace
aligns only trace ends (after reordering).  Expansion is reported as
inserted nops over original code size, per block size (16B/32B/64B).
Paper: pad-trace stays cheap (0.1-42%), pad-all explodes (16-255%).
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    ExperimentResult,
    all_machines,
    pad_expansion,
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


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
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
            for variant in ("pad_all", "pad_trace"):
                row.append(100.0 * pad_expansion(benchmark, variant, words))
        result.rows.append(row)
    return result
