"""Program: a CFG laid out in instruction memory.

Layout assigns a contiguous word address to every instruction in block
order, patches control-transfer targets, and enforces the fall-through
invariant: any block whose sequential successor (``fall_id``) is executed
by *falling through* (FALLTHROUGH, COND not-taken, CALL return) must be
immediately followed in memory by that successor.  Compiler passes that
permute blocks are responsible for inserting fix-up jumps to preserve the
invariant; :meth:`Program.from_order` checks it.
"""

from __future__ import annotations

from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.program.basic_block import NO_BLOCK, BasicBlock, TermKind
from repro.program.cfg import ControlFlowGraph, Function


class LayoutError(ValueError):
    """Raised when a block order violates the fall-through invariant."""


class Program:
    """An executable program: CFG + memory layout.

    Use :meth:`from_order` (or the :class:`~repro.program.builder.
    ProgramBuilder`) to construct one; the constructor performs layout.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        block_order: list[int],
        base_address: int = 0,
        name: str = "program",
    ) -> None:
        self.cfg = cfg
        self.block_order = list(block_order)
        self.base_address = base_address
        self.name = name
        self.instructions: list[Instruction] = []
        self.block_start: dict[int, int] = {}
        self._layout()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_order(
        cls,
        cfg: ControlFlowGraph,
        block_order: list[int] | None = None,
        base_address: int = 0,
        name: str = "program",
    ) -> "Program":
        """Lay out *cfg* using *block_order* (default: block-id order)."""
        if block_order is None:
            block_order = [b.block_id for b in cfg.blocks]
        return cls(cfg, block_order, base_address=base_address, name=name)

    def _layout(self) -> None:
        cfg = self.cfg
        order = self.block_order
        if sorted(order) != list(range(len(cfg.blocks))):
            raise LayoutError("block order must be a permutation of all blocks")
        cfg.validate()

        # Assign addresses.
        addr = self.base_address
        self.instructions = []
        self.block_start = {}
        for block_id in order:
            block = cfg.block(block_id)
            self.block_start[block_id] = addr
            for instr in block.instructions:
                instr.address = addr
                instr.block_id = block_id
                self.instructions.append(instr)
                addr += 1

        # Enforce the fall-through invariant and patch targets.
        position = {block_id: i for i, block_id in enumerate(order)}
        for block_id in order:
            block = cfg.block(block_id)
            if block.term_kind in (
                TermKind.FALLTHROUGH,
                TermKind.COND,
                TermKind.CALL,
            ):
                pos = position[block_id]
                if pos + 1 >= len(order) or order[pos + 1] != block.fall_id:
                    raise LayoutError(
                        f"block {block_id} falls through to {block.fall_id}, "
                        "which is not physically next"
                    )
            if block.terminator is not None and block.taken_id != NO_BLOCK:
                block.terminator.target = self.block_start[block.taken_id]

    # -- queries -----------------------------------------------------------

    @property
    def entry_address(self) -> int:
        """Address of the first instruction executed."""
        return self.block_start[self.cfg.entry_block_id]

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    @property
    def end_address(self) -> int:
        """One past the last instruction address."""
        return self.base_address + len(self.instructions)

    def instruction_at(self, address: int) -> Instruction:
        """Instruction stored at word *address*."""
        index = address - self.base_address
        if not 0 <= index < len(self.instructions):
            raise IndexError(f"address out of program range: {address}")
        return self.instructions[index]

    def block_at(self, address: int) -> BasicBlock:
        """Block owning the instruction at *address*."""
        return self.cfg.block(self.instruction_at(address).block_id)

    def image(self) -> bytes:
        """Binary image of the program (4 bytes per instruction)."""
        words = bytearray()
        for instr in self.instructions:
            words += encode(instr).to_bytes(4, "little")
        return bytes(words)

    def static_nop_fraction(self) -> float:
        """Fraction of static instructions that are nops."""
        if not self.instructions:
            return 0.0
        nops = sum(1 for i in self.instructions if i.is_nop)
        return nops / len(self.instructions)


def clone_block(block: BasicBlock) -> BasicBlock:
    """Copy *block* field by field, with its own body and instructions."""
    term = block.terminator
    return BasicBlock(
        block.block_id,
        block.func_id,
        [_clone_instruction(instr) for instr in block.body],
        block.term_kind,
        None if term is None else _clone_instruction(term),
        block.taken_id,
        block.fall_id,
        block.branch_key,
        block.flipped,
        block.is_func_entry,
    )


def _clone_instruction(i: Instruction) -> Instruction:
    return Instruction(i.op, i.dest, i.src1, i.src2, i.address, i.target, i.block_id)


def clone_cfg(cfg: ControlFlowGraph) -> ControlFlowGraph:
    """Copy a CFG so a transform can relayout without aliasing.

    Functions, blocks and instructions are fresh objects with equal
    fields.  No deeper copy is needed: layout writes each instruction's
    ``address``, so no instruction is ever shared between blocks.
    """
    clone = ControlFlowGraph()
    clone.functions.extend(
        Function(f.func_id, f.name, f.entry_id, list(f.block_ids))
        for f in cfg.functions
    )
    clone.blocks.extend(clone_block(block) for block in cfg.blocks)
    clone.entry_func_id = cfg.entry_func_id
    return clone
