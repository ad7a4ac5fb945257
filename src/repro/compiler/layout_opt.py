"""Trace layout: profile-driven code reordering (paper Section 4).

Blocks are permuted into trace order, then control flow is repaired so
the fall-through invariant holds:

* a conditional branch whose *taken* successor was placed next is
  **flipped** (condition inverted, successors swapped) — the hot path
  falls through, which is the mechanism that removes dynamic taken
  branches (paper Table 3);
* a conditional branch with neither successor adjacent keeps its taken
  target and gets a **trampoline jump** for the fall-through path;
* an unconditional jump whose target lands adjacent is **deleted**
  (the block becomes a fall-through);
* a call's return continuation must stay adjacent; a trampoline jump is
  inserted when layout moved it away.

The behaviour model is address-independent (keyed by branch identity,
with flips handled logically), so original and reordered programs follow
identical logical paths from the same input seed — exactly the setup the
paper needs to compare layouts fairly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.profile import collect_profile
from repro.compiler.trace_selection import TraceSet, select_traces
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.program.basic_block import NO_BLOCK, BasicBlock, TermKind
from repro.program.program import Program, clone_cfg
from repro.workloads.behavior import BehaviorModel
from repro.workloads.trace import PROFILING_SEEDS


@dataclass(slots=True)
class ReorderResult:
    """Outcome of code reordering.

    Attributes:
        program: The re-laid-out program (freshly cloned CFG).
        traces: Block ids per trace in final order, including any
            trampoline blocks appended during fix-up (used by pad-trace).
        trace_heats: Peak profiled block count per trace (aligned with
            ``traces``); pad-trace pads only hot traces.  Empty when the
            trace set carried no heats (pad-trace then pads every trace).
        flipped_branches: Conditional branches whose condition was
            inverted so the hot successor falls through.
        inserted_jumps: Trampoline jumps (and fall-through conversions)
            added to preserve semantics.
        removed_jumps: Unconditional jumps deleted because their target
            became adjacent.
    """

    program: Program
    traces: list[list[int]] = field(default_factory=list)
    trace_heats: list[int] = field(default_factory=list)
    flipped_branches: int = 0
    inserted_jumps: int = 0
    removed_jumps: int = 0


def reorder_program(
    program: Program,
    behavior: BehaviorModel,
    seeds: tuple[int, ...] = PROFILING_SEEDS,
    max_transitions: int = 60_000,
) -> ReorderResult:
    """Profile *program*, select traces, and apply the new layout."""
    profile = collect_profile(program, behavior, seeds, max_transitions)
    traces = select_traces(program.cfg, profile)
    return apply_layout(program, traces)


def apply_layout(
    program: Program,
    trace_set: TraceSet,
    cfg_override=None,
) -> ReorderResult:
    """Permute *program* into *trace_set* order with control-flow fix-ups.

    *cfg_override* supplies an already-transformed CFG (e.g. with
    superblock tail duplicates) instead of a fresh clone of the
    program's; the trace set must then cover exactly its blocks.
    """
    cfg = cfg_override if cfg_override is not None else clone_cfg(program.cfg)
    traces = [list(trace) for trace in trace_set.traces]
    flat = [block_id for trace in traces for block_id in trace]
    if sorted(flat) != list(range(len(cfg.blocks))):
        raise ValueError("trace set is not a permutation of the CFG's blocks")

    result_traces: list[list[int]] = []
    flipped = inserted = removed = 0

    # Successor of each block in the flat order (None for the last).
    def _next_of(index: int) -> int | None:
        return flat[index + 1] if index + 1 < len(flat) else None

    position = 0
    for trace in traces:
        new_trace: list[int] = []
        for block_id in trace:
            block = cfg.block(block_id)
            new_trace.append(block_id)
            nxt = _next_of(position)
            position += 1
            kind = block.term_kind

            if kind is TermKind.RET:
                continue
            if kind is TermKind.JUMP:
                if block.taken_id == nxt and block.body:
                    # The jump became redundant: fall through instead.
                    block.term_kind = TermKind.FALLTHROUGH
                    block.terminator = None
                    block.fall_id = block.taken_id
                    block.taken_id = NO_BLOCK
                    removed += 1
                continue
            if kind is TermKind.FALLTHROUGH:
                if block.fall_id != nxt:
                    # Layout separated the block from its successor.
                    block.term_kind = TermKind.JUMP
                    block.terminator = Instruction(OpClass.JUMP)
                    block.taken_id = block.fall_id
                    block.fall_id = NO_BLOCK
                    inserted += 1
                continue
            if kind is TermKind.CALL and block.fall_id == nxt:
                continue
            if kind is TermKind.COND:
                if block.fall_id == nxt:
                    continue
                if block.taken_id == nxt:
                    block.taken_id, block.fall_id = (
                        block.fall_id,
                        block.taken_id,
                    )
                    block.flipped = not block.flipped
                    flipped += 1
                    continue
            # COND with neither successor adjacent, or CALL whose return
            # continuation moved: trampoline the fall-through path.
            trampoline = BasicBlock(
                term_kind=TermKind.JUMP,
                terminator=Instruction(OpClass.JUMP),
                taken_id=block.fall_id,
            )
            cfg.add_block(trampoline, cfg.function(block.func_id))
            block.fall_id = trampoline.block_id
            new_trace.append(trampoline.block_id)
            inserted += 1
        result_traces.append(new_trace)

    order = [block_id for trace in result_traces for block_id in trace]
    new_program = Program.from_order(
        cfg, order, base_address=program.base_address, name=program.name
    )
    return ReorderResult(
        program=new_program,
        traces=result_traces,
        trace_heats=list(trace_set.heats),
        flipped_branches=flipped,
        inserted_jumps=inserted,
        removed_jumps=removed,
    )
