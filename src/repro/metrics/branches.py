"""Dynamic branch statistics over traces (paper Tables 2 and 3)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from repro.isa.opcodes import CONTROL_OPS, OpClass
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
    # Local lists rather than the trace's cached arrays: a statistics
    # trace is read once per block size, and caching five arrays on
    # every such trace would keep them for the life of the process.
    instrs = trace.instructions
    ops = [i.op for i in instrs]
    addresses = [i.address for i in instrs]
    successors = addresses[1:]
    successors.append(-1)
    control = list(map(CONTROL_OPS.__contains__, ops))
    # Taken control transfers: a successor that is not the next word.
    taken = [
        c and s >= 0 and s != a + 1
        for c, a, s in zip(control, addresses, successors)
    ]
    total = taken.count(True)
    intra = sum(
        a // block_words == s // block_words
        for a, s in zip(compress(addresses, taken), compress(successors, taken))
    )
    # A nop is never a control transfer, so the two counts are disjoint.
    work = len(ops) - control.count(True) - ops.count(OpClass.NOP)
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
