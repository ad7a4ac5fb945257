"""Unit tests for basic blocks, the CFG, layout, and the builder."""

import pytest

from repro.isa import Instruction, OpClass
from repro.program import (
    BasicBlock,
    BuildError,
    ControlFlowGraph,
    LayoutError,
    Program,
    ProgramBuilder,
    TermKind,
    clone_cfg,
)


def simple_loop_program(trip_probability: float = 0.8) -> Program:
    """main: 3 ALU ops, loop back once, then return."""
    b = ProgramBuilder("loop")
    b.begin_function("main")
    loop = b.new_label()
    b.bind(loop)
    b.ialu(1, 1)
    b.ialu(2, 1)
    b.ialu(3, 2)
    b.branch_if(3, loop, probability=trip_probability)
    b.ialu(4, 3)
    b.ret()
    b.end_function()
    return b.finish()


class TestBasicBlock:
    def test_validate_rejects_control_in_body(self):
        block = BasicBlock(body=[Instruction(OpClass.JUMP)])
        with pytest.raises(ValueError, match="control instruction inside"):
            block.validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            BasicBlock(fall_id=1).validate()

    def test_validate_rejects_kind_mismatch(self):
        block = BasicBlock(
            body=[Instruction(OpClass.IALU, dest=1)],
            term_kind=TermKind.JUMP,
            terminator=Instruction(OpClass.BR_COND),
            taken_id=0,
        )
        with pytest.raises(ValueError, match="does not match"):
            block.validate()

    def test_successors(self):
        cond = BasicBlock(
            body=[Instruction(OpClass.IALU, dest=1)],
            term_kind=TermKind.COND,
            terminator=Instruction(OpClass.BR_COND, src1=1),
            taken_id=3,
            fall_id=4,
        )
        assert cond.successors() == (3, 4)
        ret = BasicBlock(
            term_kind=TermKind.RET, terminator=Instruction(OpClass.RET)
        )
        assert ret.successors() == ()

    def test_taken_probability_flip(self):
        block = BasicBlock()
        assert block.taken_probability(0.3) == 0.3
        block.flipped = True
        assert block.taken_probability(0.3) == pytest.approx(0.7)


class TestBuilderAndLayout:
    def test_simple_loop_layout(self):
        prog = simple_loop_program()
        assert prog.num_instructions == 6
        # Addresses are dense from base 0.
        assert [i.address for i in prog.instructions] == list(range(6))
        # The backward branch targets the loop head.
        branch = prog.instructions[3]
        assert branch.op is OpClass.BR_COND
        assert branch.target == 0

    def test_entry_address(self):
        prog = simple_loop_program()
        assert prog.entry_address == 0

    def test_instruction_at_and_block_at(self):
        prog = simple_loop_program()
        assert prog.instruction_at(3).op is OpClass.BR_COND
        assert prog.block_at(0).block_id == prog.instruction_at(0).block_id
        with pytest.raises(IndexError):
            prog.instruction_at(99)

    def test_branch_probability_recorded(self):
        b = ProgramBuilder()
        b.begin_function("main")
        skip = b.new_label()
        b.ialu(1)
        b.branch_if(1, skip, probability=0.25)
        b.ialu(2)
        b.bind(skip)
        b.ialu(3)
        b.ret()
        b.end_function()
        prog = b.finish()
        cond_blocks = prog.cfg.conditional_blocks()
        assert len(cond_blocks) == 1
        assert b.branch_probabilities[cond_blocks[0].branch_key] == 0.25

    def test_forward_branch_target(self):
        b = ProgramBuilder()
        b.begin_function("main")
        skip = b.new_label()
        b.ialu(1)
        b.branch_if(1, skip, probability=0.5)
        b.ialu(2)
        b.ialu(2)
        b.bind(skip)
        b.ialu(3)
        b.ret()
        b.end_function()
        prog = b.finish()
        branch = next(i for i in prog.instructions if i.is_conditional_branch)
        # Skips the two filler instructions.
        assert branch.target == branch.address + 3

    def test_call_and_ret(self):
        b = ProgramBuilder()
        b.begin_function("main")
        b.ialu(1)
        b.call("helper")
        b.ialu(2)
        b.ret()
        b.end_function()
        b.begin_function("helper")
        b.ialu(3)
        b.ret()
        b.end_function()
        prog = b.finish()
        call = next(i for i in prog.instructions if i.op is OpClass.CALL)
        helper_entry = prog.cfg.functions[1].entry_id
        assert call.target == prog.block_start[helper_entry]

    def test_unbound_label_rejected(self):
        b = ProgramBuilder()
        b.begin_function("main")
        b.ialu(1)
        b.jump(b.new_label())
        b.end_function()
        with pytest.raises(BuildError, match="never bound"):
            b.finish()

    def test_unknown_callee_rejected(self):
        b = ProgramBuilder()
        b.begin_function("main")
        b.ialu(1)
        b.call("nowhere")
        b.ialu(1)
        b.ret()
        b.end_function()
        with pytest.raises(BuildError, match="unknown function"):
            b.finish()

    def test_function_must_end_in_control(self):
        b = ProgramBuilder()
        b.begin_function("main")
        b.ialu(1)
        with pytest.raises(BuildError, match="control transfer"):
            b.end_function()

    def test_double_bind_rejected(self):
        b = ProgramBuilder()
        b.begin_function("main")
        label = b.new_label()
        b.bind(label)
        b.ialu(1)
        with pytest.raises(BuildError, match="bound twice"):
            b.bind(label)

    def test_layout_rejects_broken_fallthrough(self):
        prog = simple_loop_program()
        order = list(prog.block_order)
        order.reverse()
        with pytest.raises(LayoutError):
            Program.from_order(prog.cfg, order)

    def test_layout_rejects_non_permutation(self):
        prog = simple_loop_program()
        with pytest.raises(LayoutError, match="permutation"):
            Program.from_order(prog.cfg, prog.block_order[:-1])

    def test_image_size(self):
        prog = simple_loop_program()
        assert len(prog.image()) == 4 * prog.num_instructions

    def test_clone_cfg_is_independent(self):
        prog = simple_loop_program()
        cloned = clone_cfg(prog.cfg)
        cloned.block(0).body[0].dest = 31
        assert prog.cfg.block(0).body[0].dest != 31
        # Relayout of the clone must not disturb the original's addresses.
        Program.from_order(cloned, None, base_address=100)
        assert prog.instructions[0].address == 0

    def test_nop_fraction(self):
        b = ProgramBuilder()
        b.begin_function("main")
        b.ialu(1)
        b.nop()
        b.nop()
        b.ialu(1)
        b.ret()
        b.end_function()
        prog = b.finish()
        assert prog.static_nop_fraction() == pytest.approx(2 / 5)


class TestCFG:
    def test_num_instructions(self):
        prog = simple_loop_program()
        assert prog.cfg.num_instructions() == 6

    def test_call_to_non_entry_rejected(self):
        cfg = ControlFlowGraph()
        func = cfg.add_function("main")
        b0 = BasicBlock(
            body=[Instruction(OpClass.IALU, dest=1)],
            term_kind=TermKind.CALL,
            terminator=Instruction(OpClass.CALL),
        )
        cfg.add_block(b0, func)
        b1 = BasicBlock(
            term_kind=TermKind.RET, terminator=Instruction(OpClass.RET)
        )
        cfg.add_block(b1, func)
        b0.taken_id = b1.block_id  # not a function entry
        b0.fall_id = b1.block_id
        with pytest.raises(ValueError, match="non-entry"):
            cfg.validate()


class TestLayoutEdgeCases:
    def test_call_continuation_must_be_adjacent(self):
        """A CALL's return continuation (fall_id) must physically follow
        the call block."""
        b = ProgramBuilder()
        b.begin_function("main")
        b.ialu(1)
        b.call("helper")
        b.ialu(2)
        b.ret()
        b.end_function()
        b.begin_function("helper")
        b.ialu(3)
        b.ret()
        b.end_function()
        prog = b.finish()
        call_block = next(
            blk for blk in prog.cfg.blocks if blk.term_kind is TermKind.CALL
        )
        order = list(prog.block_order)
        # Move the continuation away from the call.
        order.remove(call_block.fall_id)
        order.append(call_block.fall_id)
        with pytest.raises(LayoutError):
            Program.from_order(prog.cfg, order)

    def test_base_address_offsets_everything(self):
        prog = simple_loop_program()
        shifted = Program.from_order(
            clone_cfg(prog.cfg), list(prog.block_order), base_address=1000
        )
        assert shifted.entry_address == 1000
        assert shifted.instructions[0].address == 1000
        assert shifted.end_address == 1000 + shifted.num_instructions

    def test_branch_targets_follow_relayout(self):
        prog = simple_loop_program()
        shifted = Program.from_order(
            clone_cfg(prog.cfg), list(prog.block_order), base_address=500
        )
        branch = next(
            i for i in shifted.instructions if i.is_conditional_branch
        )
        assert branch.target == 500  # loop head moved with the base

    def test_block_start_map_consistent(self):
        prog = simple_loop_program()
        for block_id, start in prog.block_start.items():
            block = prog.cfg.block(block_id)
            if block.instructions:
                assert block.instructions[0].address == start


class TestCloneCfg:
    """``clone_cfg`` is a structural copy: fresh objects, equal values."""

    @staticmethod
    def _objects(cfg):
        """Every mutable object a CFG owns, by kind."""
        blocks = list(cfg.blocks)
        return {
            "block": blocks,
            "body": [block.body for block in blocks],
            "instruction": [
                instr for block in blocks for instr in block.instructions
            ],
            "function": list(cfg.functions),
            "block_ids": [func.block_ids for func in cfg.functions],
        }

    @pytest.fixture(scope="class")
    def gcc(self):
        from repro.workloads import load_workload

        program = load_workload("gcc").program
        return program, clone_cfg(program.cfg)

    def test_shares_no_mutable_object(self, gcc):
        program, cloned = gcc
        source, clone = self._objects(program.cfg), self._objects(cloned)
        for kind, objects in source.items():
            ids = {id(obj) for obj in objects}
            assert len(ids) == len(objects), kind
            assert ids.isdisjoint(id(obj) for obj in clone[kind]), kind

    def test_every_field_equal(self, gcc):
        from dataclasses import astuple

        program, cloned = gcc
        src_cfg = program.cfg
        assert cloned.entry_func_id == src_cfg.entry_func_id
        assert [astuple(f) for f in cloned.functions] == [
            astuple(f) for f in src_cfg.functions
        ]
        assert len(cloned.blocks) == len(src_cfg.blocks)
        for mine, theirs in zip(cloned.blocks, src_cfg.blocks):
            # astuple recurses into the body list, the body instructions
            # and the terminator.
            assert astuple(mine) == astuple(theirs)

    def test_same_layout(self, gcc):
        program, _ = gcc
        relaid = Program.from_order(
            clone_cfg(program.cfg),
            list(program.block_order),
            base_address=program.base_address,
        )
        assert relaid.image() == program.image()
        assert relaid.block_start == program.block_start

    def test_block_ids_list_is_independent(self):
        prog = simple_loop_program()
        cloned = clone_cfg(prog.cfg)
        before = list(prog.cfg.functions[0].block_ids)
        cloned.functions[0].block_ids.append(99)
        cloned.functions[0].block_ids.reverse()
        assert prog.cfg.functions[0].block_ids == before
