"""Superblock formation: trace layout plus tail duplication.

The paper's code reordering uses *traces* (Fisher [17]); its reference
[18] — Hwu et al., "The superblock: an effective structure for VLIW and
superscalar compilation" — removes the remaining obstacle, side
entrances, by duplicating the trace tail from the first side entrance
onward.  The hot path then has a single entry: later passes can treat it
as straight-line code, and its fall-through chain is never broken by
merge points.

This module is a beyond-paper extension: it reuses the profiler and
trace selector, duplicates side-entered tails, and lays out the result
with the same fix-up machinery as plain reordering.  Duplicated blocks
share their original's ``branch_key``, so the behaviour model (and RNG
alignment across program variants) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.layout_opt import ReorderResult, apply_layout
from repro.compiler.profile import collect_profile
from repro.compiler.trace_selection import TraceSet, select_traces
from repro.program.basic_block import BasicBlock, TermKind
from repro.program.program import Program, clone_block, clone_cfg
from repro.workloads.behavior import BehaviorModel
from repro.workloads.trace import PROFILING_SEEDS


@dataclass(slots=True)
class SuperblockResult:
    """Outcome of superblock formation.

    Attributes:
        reorder: The underlying layout result (program, traces, fix-up
            counters).
        duplicated_blocks: Tail blocks copied to remove side entrances.
        duplicated_instructions: Instructions added by duplication.
        original_size: Instruction count before formation.
    """

    reorder: ReorderResult
    duplicated_blocks: int
    duplicated_instructions: int
    original_size: int

    @property
    def program(self) -> Program:
        return self.reorder.program

    @property
    def code_growth(self) -> float:
        """Added instructions as a fraction of the original size."""
        if not self.original_size:
            return 0.0
        return self.duplicated_instructions / self.original_size


def form_superblocks(
    program: Program,
    behavior: BehaviorModel,
    seeds: tuple[int, ...] = PROFILING_SEEDS,
    max_transitions: int = 60_000,
    min_trace_heat: float = 0.05,
) -> SuperblockResult:
    """Profile, select traces, duplicate side-entered tails, and lay out.

    Only traces whose heat reaches *min_trace_heat* of the hottest trace
    become superblocks (duplicating cold code would inflate the binary
    for nothing); the rest go through plain trace layout.
    """
    profile = collect_profile(program, behavior, seeds, max_transitions)
    traces = select_traces(program.cfg, profile)
    cfg = clone_cfg(program.cfg)

    predecessors: dict[int, set[int]] = {}
    for block in cfg.blocks:
        for successor in block.successors():
            predecessors.setdefault(successor, set()).add(block.block_id)

    heats = traces.heats or [0] * len(traces.traces)
    threshold = max(1, int(min_trace_heat * max(heats, default=1)))

    new_traces: list[list[int]] = []
    new_heats: list[int] = []
    displaced_traces: list[list[int]] = []
    duplicated_blocks = 0
    duplicated_instructions = 0

    for trace, heat in zip(traces.traces, heats):
        split = (
            _first_side_entrance(trace, predecessors)
            if len(trace) >= 2 and heat >= threshold
            else -1
        )
        if split < 0:
            new_traces.append(list(trace))
            new_heats.append(heat)
            continue

        tail = trace[split:]
        remap: dict[int, int] = {}
        copies: list[int] = []
        for block_id in tail:
            original = cfg.block(block_id)
            duplicate = clone_block(original)
            duplicate.is_func_entry = False
            cfg.add_block(duplicate, cfg.function(original.func_id))
            remap[block_id] = duplicate.block_id
            copies.append(duplicate.block_id)
            duplicated_blocks += 1
            duplicated_instructions += duplicate.size

        # The block before the split enters the duplicated tail; within
        # the copies, edges into the tail are remapped (calls are never
        # remapped: callee entries live in other functions, outside any
        # trace of this function).
        _redirect(cfg.block(trace[split - 1]), {tail[0]: remap[tail[0]]})
        for copy_id in copies:
            _redirect(cfg.block(copy_id), remap)

        new_traces.append(trace[:split] + copies)
        new_heats.append(heat)
        # The displaced originals stay together as their own colder trace,
        # still serving the side entrances.
        displaced_traces.append(tail)

    for tail in displaced_traces:
        new_traces.append(tail)
        new_heats.append(0)

    trace_set = TraceSet(traces=new_traces, heats=new_heats)
    reorder = apply_layout(program, trace_set, cfg_override=cfg)
    return SuperblockResult(
        reorder=reorder,
        duplicated_blocks=duplicated_blocks,
        duplicated_instructions=duplicated_instructions,
        original_size=program.num_instructions,
    )


def _redirect(block: BasicBlock, remap: dict[int, int]) -> None:
    """Remap *block*'s layout successors through *remap* (never the
    callee edge of a CALL)."""
    if block.term_kind is not TermKind.CALL and block.taken_id in remap:
        block.taken_id = remap[block.taken_id]
    if block.fall_id in remap:
        block.fall_id = remap[block.fall_id]


def _first_side_entrance(
    trace: list[int], predecessors: dict[int, set[int]]
) -> int:
    """First trace position (>=1) entered from outside the trace, -1 if
    none."""
    for position in range(1, len(trace)):
        preds = predecessors.get(trace[position], set())
        if preds - {trace[position - 1]}:
            return position
    return -1

