"""Edge profiling for profile-driven code reordering.

The paper generates profile statistics from five training inputs per
benchmark and holds out a sixth input for the processor simulations
(Section 4).  Here each profiling input is a behaviour-model seed; the
profiler walks the CFG at basic-block granularity (far cheaper than full
instruction traces) counting block executions and *layout successor*
transitions — the edges trace selection cares about:

* COND: taken / fall-through edge per the behaviour model;
* JUMP / FALLTHROUGH: the single static successor;
* CALL: the edge goes to the *return continuation* (the callee lives in
  another function and is laid out separately);
* RET: no layout edge (the successor is call-site dependent).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.program.basic_block import TermKind
from repro.program.program import Program
from repro.workloads.behavior import BehaviorModel
from repro.workloads.trace import PROFILING_SEEDS


@dataclass(slots=True)
class EdgeProfile:
    """Execution counts gathered over the profiling inputs, keyed in
    first-visit order (trace selection breaks ties on that order)."""

    block_counts: Counter = field(default_factory=Counter)
    edge_counts: Counter = field(default_factory=Counter)


def collect_profile(
    program: Program,
    behavior: BehaviorModel,
    seeds: tuple[int, ...] = PROFILING_SEEDS,
    max_transitions: int = 60_000,
) -> EdgeProfile:
    """Profile *program* over the given behaviour seeds.

    Each seed contributes up to *max_transitions* block transitions
    (restarting the program when it halts), mirroring the paper's
    multiple-training-input methodology.
    """
    block_counts: dict[int, int] = {}
    edge_counts: dict[tuple[int, int], int] = {}
    cfg = program.cfg
    entry = cfg.entry_block_id
    # One row per block: kind, the COND behaviour's decide(), and the
    # (edge, successor) pairs of the taken and fall-through paths, swapped
    # for a flipped COND so decide() == True picks the original target.
    table = []
    for block in cfg.blocks:
        kind, src = block.term_kind, block.block_id
        taken = ((src, block.taken_id), block.taken_id)
        fall = ((src, block.fall_id), block.fall_id)
        if kind is TermKind.COND and block.flipped:
            taken, fall = fall, taken
        branch = behavior.branches.get(block.branch_key)
        table.append((kind, None if branch is None else branch.decide, taken, fall))
    COND, JUMP, CALL, RET = TermKind.COND, TermKind.JUMP, TermKind.CALL, TermKind.RET
    for seed in seeds:
        rng = random.Random(seed)
        behavior.reset()
        call_stack: list[int] = []
        current = entry
        for _ in range(max_transitions):
            block_counts[current] = block_counts.get(current, 0) + 1
            kind, decide, taken, fall = table[current]
            if kind is COND:
                if decide is None:
                    key = cfg.block(current).branch_key
                    raise KeyError(f"no behaviour for branch key {key}")
                edge, current = taken if decide(rng) else fall
            elif kind is JUMP:
                edge, current = taken
            elif kind is CALL:
                # Layout edge to the return continuation; execution enters
                # the callee.
                edge, continuation = fall
                call_stack.append(continuation)
                current = taken[1]
            elif kind is RET:
                current = call_stack.pop() if call_stack else entry
                continue
            else:  # FALLTHROUGH
                edge, current = fall
            edge_counts[edge] = edge_counts.get(edge, 0) + 1
    return EdgeProfile(Counter(block_counts), Counter(edge_counts))
