"""Workload characterisation.

Quantifies the properties the paper's discussion leans on — dynamic
branch frequency, taken ratio, run length between taken branches,
instruction mix, and intra-block branch ratios — for any workload.  Used
by the CLI (``python -m repro characterize``) and the workload example,
and handy when writing new profiles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.metrics.branches import taken_branch_stats
from repro.workloads.generator import Workload
from repro.workloads.trace import TEST_INPUT_SEED, generate_trace


@dataclass(slots=True)
class WorkloadCharacter:
    """Static and dynamic character of one workload.

    Attributes:
        name / workload_class: Identity.
        static_instructions: Program size in instructions.
        static_branch_sites: Static control-transfer instructions.
        control_fraction: Dynamic fraction of control instructions.
        taken_fraction: Taken transfers per control instruction.
        run_length: Mean instructions between taken transfers.
        mix: Dynamic fraction per operation class.
        intra_block: Block-words -> fraction of taken branches with
            intra-block targets (paper Table 2's metric).
    """

    name: str
    workload_class: str
    static_instructions: int
    static_branch_sites: int
    control_fraction: float
    taken_fraction: float
    run_length: float
    mix: dict[str, float] = field(default_factory=dict)
    intra_block: dict[int, float] = field(default_factory=dict)

    def summary_row(self) -> list:
        """Row for the characterisation table."""
        return [
            self.name,
            self.workload_class,
            self.static_instructions,
            100.0 * self.control_fraction,
            100.0 * self.taken_fraction,
            self.run_length,
            100.0 * self.mix.get("LOAD", 0.0),
            100.0 * self.mix.get("FALU", 0.0),
            100.0 * self.intra_block.get(4, 0.0),
            100.0 * self.intra_block.get(16, 0.0),
        ]

    @staticmethod
    def headers() -> list[str]:
        return [
            "benchmark",
            "class",
            "static",
            "ctrl %",
            "taken %",
            "run len",
            "load %",
            "fp %",
            "intra 16B %",
            "intra 64B %",
        ]


#: Dynamic trace length of one characterisation (``repro characterize``).
CHARACTERIZE_LENGTH = 40_000


def characterize(
    workload: Workload,
    trace_length: int = CHARACTERIZE_LENGTH,
    seed: int = TEST_INPUT_SEED,
    block_sizes: tuple[int, ...] = (4, 8, 16),
) -> WorkloadCharacter:
    """Measure *workload*'s character over one dynamic trace."""
    trace = generate_trace(
        workload.program, workload.behavior, trace_length, seed=seed
    )
    total = len(trace.instructions)
    ops = Counter(instr.op for instr in trace.instructions)
    control = sum(
        count for op, count in ops.items() if op.name in
        ("BR_COND", "JUMP", "CALL", "RET")
    )
    taken = trace.taken_branch_count()
    intra = {
        words: taken_branch_stats(trace, words).intra_block_fraction
        for words in block_sizes
    }
    return WorkloadCharacter(
        name=workload.name,
        workload_class=workload.workload_class,
        static_instructions=workload.program.num_instructions,
        static_branch_sites=sum(
            1 for instr in workload.program.instructions if instr.is_control
        ),
        control_fraction=control / total,
        taken_fraction=taken / control if control else 0.0,
        run_length=total / taken if taken else float("inf"),
        mix={op.name: count / total for op, count in ops.items()},
        intra_block=intra,
    )


def characterization_table(workloads: list[Workload], **kwargs) -> str:
    """Plain-text characterisation table for *workloads*."""
    from repro.metrics.summary import format_table

    rows = [characterize(w, **kwargs).summary_row() for w in workloads]
    return format_table(
        WorkloadCharacter.headers(),
        rows,
        title="Workload characterisation",
    )
