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
    block_counts: Counter = Counter()
    edge_counts: Counter = Counter()
    cfg = program.cfg
    entry = cfg.entry_block_id
    # Each behaviour's Markov step is inlined (see BranchBehavior.decide):
    # its state lives in ``last[b]`` (-1 unset, else the last outcome)
    # and ``probs[b]`` holds its thresholds indexed by that state —
    # after not-taken, after taken, unset.  Blocks sharing a branch key
    # share one behaviour, and so one state.
    behaviors: list = []
    probs: list[tuple[float, float, float]] = []
    index_of: dict[int, int] = {}
    # One row per block: kind, behaviour index (COND; None if the model
    # has none), and the (edge, successor) pairs of the taken and
    # fall-through paths, swapped for a flipped COND so outcome True
    # picks the original target.
    table = []
    for block in cfg.blocks:
        kind, src = block.term_kind, block.block_id
        taken = ((src, block.taken_id), block.taken_id)
        fall = ((src, block.fall_id), block.fall_id)
        b = None
        if kind is TermKind.COND:
            if block.flipped:
                taken, fall = fall, taken
            branch = behavior.branches.get(block.branch_key)
            if branch is not None:
                b = index_of.get(id(branch))
                if b is None:
                    b = index_of[id(branch)] = len(behaviors)
                    behaviors.append(branch)
                    p, r = branch.probability, branch.burstiness
                    probs.append((p * (1.0 - r), p + r * (1.0 - p), p))
        table.append((kind, b, taken, fall))
    COND, JUMP, CALL, RET = TermKind.COND, TermKind.JUMP, TermKind.CALL, TermKind.RET
    last: list = []
    try:
        for seed in seeds:
            rng = random.Random(seed).random
            behavior.reset()
            last = [-1] * len(behaviors)
            visits: list[int] = []
            edges: list[tuple[int, int]] = []
            visit, take = visits.append, edges.append
            call_stack: list[int] = []
            current = entry
            for _ in range(max_transitions):
                visit(current)
                kind, b, taken, fall = table[current]
                if kind is COND:
                    if b is None:
                        key = cfg.block(current).branch_key
                        raise KeyError(f"no behaviour for branch key {key}")
                    outcome = last[b] = rng() < probs[b][last[b]]
                    edge, current = taken if outcome else fall
                elif kind is JUMP:
                    edge, current = taken
                elif kind is CALL:
                    # Layout edge to the return continuation; execution
                    # enters the callee.
                    edge, continuation = fall
                    call_stack.append(continuation)
                    current = taken[1]
                elif kind is RET:
                    current = call_stack.pop() if call_stack else entry
                    continue
                else:  # FALLTHROUGH
                    edge, current = fall
                take(edge)
            block_counts.update(visits)
            edge_counts.update(edges)
    finally:
        # Leave each behaviour in the state decide() would have.
        for branch, state in zip(behaviors, last):
            branch._last = int(state)
    return EdgeProfile(block_counts, edge_counts)
