"""Dynamic branch statistics over traces (paper Tables 2 and 3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.trace import DynamicTrace


@dataclass(slots=True)
class TakenBranchStats:
    """Dynamic taken-branch statistics for one trace."""

    total_taken: int
    intra_block: int
    work_instructions: int  #: non-control, non-nop instructions

    @property
    def intra_block_fraction(self) -> float:
        """Fraction of taken branches whose target is in the same cache
        block (paper Table 2)."""
        return self.intra_block / self.total_taken if self.total_taken else 0.0

    @property
    def taken_per_work_instruction(self) -> float:
        """Taken branches per unit of real work; layout-independent
        denominator used for the paper's Table 3 reduction metric."""
        if not self.work_instructions:
            return 0.0
        return self.total_taken / self.work_instructions


def taken_branch_stats(trace: DynamicTrace, block_words: int) -> TakenBranchStats:
    """Measure taken-branch statistics of *trace* at the given block size."""
    if block_words <= 0:
        raise ValueError("block_words must be positive")
    total = intra = work = 0
    instructions = trace.instructions
    for index, instr in enumerate(instructions):
        if not instr.is_control:
            if not instr.is_nop:
                work += 1
            continue
        next_address = trace.next_address(index)
        if next_address >= 0 and next_address != instr.address + 1:
            total += 1
            if instr.address // block_words == next_address // block_words:
                intra += 1
    return TakenBranchStats(
        total_taken=total, intra_block=intra, work_instructions=work
    )


def taken_branch_reduction(
    original: DynamicTrace,
    optimized: DynamicTrace,
    block_words: int = 4,
) -> float:
    """Fractional reduction in dynamic taken branches (paper Table 3)
    between two traces; see :func:`reduction_between`."""
    return reduction_between(
        taken_branch_stats(original, block_words),
        taken_branch_stats(optimized, block_words),
    )


def reduction_between(
    original: TakenBranchStats, optimized: TakenBranchStats
) -> float:
    """Fractional reduction in dynamic taken branches (paper Table 3).

    Normalised per *work* instruction so traces of differing lengths (the
    optimized layout adds/removes jumps and nops) compare fairly.
    """
    before = original.taken_per_work_instruction
    after = optimized.taken_per_work_instruction
    if before == 0:
        return 0.0
    return 1.0 - after / before
