"""Dynamic instruction traces.

Replaces the paper's `spike` tracing step: the interpreter walks the
program's CFG, resolving conditional branches through the behaviour model
with a seeded RNG, and emits the dynamic instruction stream the processor
simulator consumes.  Different seeds play the role of different program
inputs (the paper uses five profiling inputs plus one test input).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, is_control
from repro.program.basic_block import TermKind
from repro.program.program import Program
from repro.workloads.behavior import BehaviorModel

#: Seed playing the role of the paper's held-out *test* input.
TEST_INPUT_SEED = 0
#: Seeds playing the role of the paper's five profiling inputs.
PROFILING_SEEDS: tuple[int, ...] = (1, 2, 3, 4, 5)


@dataclass(slots=True)
class DynamicTrace:
    """A dynamic instruction stream plus light bookkeeping.

    ``instructions[i]`` executed at dynamic position *i*; its successor's
    address is ``instructions[i + 1].address``.  A control transfer is
    *taken* when the successor is not the next sequential word.
    """

    name: str
    seed: int
    instructions: list[Instruction] = field(default_factory=list)
    # Precomputed per-trace arrays (built lazily, invalidated by length
    # change) so hot loops index plain lists instead of calling methods
    # or chasing ``Instruction`` attributes per dynamic instruction.
    _addresses: list[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _next_addresses: list[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _taken: list[bool] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _control: list[bool] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _nop: list[bool] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Compiled-kernel tables (repro.sim.kernel) cached per trace: trace
    # tables, training flags and fetch-outcome tapes, each keyed by a
    # tuple ending in the length, which doubles as the staleness check,
    # mirroring ``_arrays_stale``.
    _kernel_tables: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Branch/taken/nop counts over [start, length) regions, cached for
    # Simulator._collect_stats (the same warmup start recurs run after
    # run).  See region_mix().
    _region_mix: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.instructions)

    # -- precomputed arrays ----------------------------------------------------

    def _build_arrays(self) -> None:
        instrs = self.instructions
        addresses = [i.address for i in instrs]
        nxt = addresses[1:]
        nxt.append(-1)
        self._addresses = addresses
        self._next_addresses = nxt
        self._taken = [
            n >= 0 and n != a + 1 for a, n in zip(addresses, nxt)
        ]
        self._control = [is_control(i.op) for i in instrs]
        self._nop = [i.op is OpClass.NOP for i in instrs]

    def _arrays_stale(self) -> bool:
        return self._addresses is None or len(self._addresses) != len(
            self.instructions
        )

    def address_array(self) -> list[int]:
        """``address`` of every dynamic instruction, as a plain list."""
        if self._arrays_stale():
            self._build_arrays()
        return self._addresses

    def next_address_array(self) -> list[int]:
        """Successor address at each position (-1 at the trace end)."""
        if self._arrays_stale():
            self._build_arrays()
        return self._next_addresses

    def taken_array(self) -> list[bool]:
        """Taken flag of the control transfer at each position."""
        if self._arrays_stale():
            self._build_arrays()
        return self._taken

    def control_array(self) -> list[bool]:
        """``is_control`` flag at each position."""
        if self._arrays_stale():
            self._build_arrays()
        return self._control

    def nop_array(self) -> list[bool]:
        """``is_nop`` flag at each position."""
        if self._arrays_stale():
            self._build_arrays()
        return self._nop

    def region_mix(self, start: int) -> tuple[int, int, int]:
        """(branches, taken branches, nops) over ``[start, len)``, cached.

        A pure function of the trace, so the result is memoized per start
        index (keyed with the length as the staleness check, like the
        lazy arrays).
        """
        n = len(self.instructions)
        cache = self._region_mix
        if cache is None:
            cache = {}
            self._region_mix = cache
        key = (start, n)
        mix = cache.get(key)
        if mix is None:
            if len(cache) > 64 or any(k[1] != n for k in cache):
                cache.clear()
            is_control = self.control_array()
            is_taken = self.taken_array()
            is_nop = self.nop_array()
            branches = taken = nops = 0
            for index in range(start, n):
                if is_control[index]:
                    branches += 1
                    if is_taken[index]:
                        taken += 1
                elif is_nop[index]:
                    nops += 1
            mix = (branches, taken, nops)
            cache[key] = mix
        return mix

    def next_address(self, index: int) -> int:
        """Address executed after dynamic position *index* (-1 at the end)."""
        if index + 1 >= len(self.instructions):
            return -1
        return self.instructions[index + 1].address

    def is_taken(self, index: int) -> bool:
        """True if the control transfer at *index* was taken."""
        nxt = self.next_address(index)
        return nxt >= 0 and nxt != self.instructions[index].address + 1

    def taken_branch_count(self) -> int:
        """Number of dynamic taken control transfers."""
        count = 0
        for i, instr in enumerate(self.instructions):
            if instr.is_control and self.is_taken(i):
                count += 1
        return count

    def control_count(self) -> int:
        """Number of dynamic control instructions."""
        return sum(1 for instr in self.instructions if instr.is_control)

    def non_nop_count(self) -> int:
        """Number of dynamic instructions excluding nops."""
        return sum(1 for instr in self.instructions if not instr.is_nop)

    def block_sequence(self) -> list[int]:
        """Dynamic sequence of branch keys of executed basic blocks."""
        keys = []
        last_block = None
        for instr in self.instructions:
            if instr.block_id != last_block:
                keys.append(instr.block_id)
                last_block = instr.block_id
        return keys


class TraceGenerationError(RuntimeError):
    """Raised when a trace cannot be generated (e.g. missing behaviour)."""


def generate_trace(
    program: Program,
    behavior: BehaviorModel,
    max_instructions: int,
    seed: int = TEST_INPUT_SEED,
    restart_on_halt: bool = True,
) -> DynamicTrace:
    """Interpret *program* and emit up to *max_instructions* instructions.

    Execution starts at the entry function.  A ``RET`` with an empty call
    stack halts the program; with *restart_on_halt* the program is
    re-entered (modelling repeated invocations) until the budget is
    reached, otherwise the trace ends there.
    """
    if max_instructions <= 0:
        raise ValueError("max_instructions must be positive")
    rng = random.Random(seed)
    behavior.reset()  # deterministic traces; variants stay RNG-aligned
    cfg = program.cfg
    trace = DynamicTrace(name=program.name, seed=seed)
    out = trace.instructions
    call_stack: list[int] = []
    current = cfg.entry_block_id

    while len(out) < max_instructions:
        block = cfg.block(current)
        out.extend(block.body)
        if block.terminator is not None:
            out.append(block.terminator)
        kind = block.term_kind
        if kind is TermKind.FALLTHROUGH:
            current = block.fall_id
        elif kind is TermKind.COND:
            current = behavior.decide_successor(block, rng)
        elif kind is TermKind.JUMP:
            current = block.taken_id
        elif kind is TermKind.CALL:
            call_stack.append(block.fall_id)
            current = block.taken_id
        else:  # RET
            if call_stack:
                current = call_stack.pop()
            elif restart_on_halt:
                current = cfg.entry_block_id
            else:
                break

    del out[max_instructions:]
    return trace
