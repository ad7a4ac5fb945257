"""Tests for the compiler subsystem: profiling, trace selection, layout,
padding, and the local scheduler."""

import pytest

from repro.compiler import (
    collect_profile,
    pad_all,
    pad_trace,
    reorder_program,
    schedule_block_body,
    schedule_program,
    select_traces,
)
from repro.isa import Instruction, OpClass
from repro.program import ProgramBuilder, TermKind
from repro.workloads import generate_trace, load_workload


def hot_hammock_program(taken_prob=0.9):
    """main: loop { if (cond) skip 3 cold instructions } — the taken
    branch should be flipped by reordering."""
    b = ProgramBuilder("hammock")
    b.begin_function("main")
    loop = b.new_label()
    skip = b.new_label()
    b.bind(loop)
    b.ialu(1, 1)
    b.branch_if(1, skip, probability=taken_prob)
    b.ialu(2, 1)
    b.ialu(2, 2)
    b.ialu(2, 2)
    b.bind(skip)
    b.ialu(3, 1)
    b.branch_if(3, loop, probability=0.95)
    b.ret()
    b.end_function()
    return b, b.finish()


class TestProfile:
    def test_counts_follow_probabilities(self):
        from repro.workloads import BehaviorModel

        builder, program = hot_hammock_program(taken_prob=0.9)
        behavior = BehaviorModel.from_probabilities(
            builder.branch_probabilities
        )
        profile = collect_profile(program, behavior, seeds=(1, 2, 3))
        cond_blocks = program.cfg.conditional_blocks()
        hammock = min(cond_blocks, key=lambda blk: blk.block_id)
        taken = profile.edge_counts.get(
            (hammock.block_id, hammock.taken_id), 0
        )
        fall = profile.edge_counts.get(
            (hammock.block_id, hammock.fall_id), 0
        )
        assert taken > 5 * fall  # ~9:1 expected

    def test_all_executed_blocks_counted(self):
        workload = load_workload("ora")
        profile = collect_profile(
            workload.program, workload.behavior, seeds=(1,), max_transitions=5000
        )
        assert sum(profile.block_counts.values()) == 5000


    # SHA-256 of the ordered (edge_counts, block_counts) items at the
    # default seeds.  Insertion order is part of the contract: trace
    # selection breaks ties on it.
    PROFILE_DIGESTS = {
        "compress": "becfaa956ab51616591dabcbf5848708"
        "ede3144ac0010a29af6ad9f784c729c4",
        "li": "69b41c690eaddb0aae4e53f030b9c53b"
        "f289fb1dd35dbf1770b4e93cdbd5d10c",
    }

    @pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
    def test_profile_locked(self, name):
        import hashlib

        workload = load_workload(name)
        profile = collect_profile(workload.program, workload.behavior)
        ordered = (
            list(profile.edge_counts.items()),
            list(profile.block_counts.items()),
        )
        digest = hashlib.sha256(repr(ordered).encode()).hexdigest()
        assert digest == self.PROFILE_DIGESTS[name]

    def test_flipped_branches_follow_the_logical_path(self):
        workload = load_workload("compress")
        reordered = reorder_program(workload.program, workload.behavior)
        # Same block set (no trampolines), many flipped branches: the
        # walk must take the same logical path, so the counts are equal.
        assert len(reordered.program.cfg.blocks) == len(
            workload.program.cfg.blocks
        )
        assert reordered.flipped_branches > 0
        before = collect_profile(workload.program, workload.behavior)
        after = collect_profile(reordered.program, workload.behavior)
        assert after.edge_counts == before.edge_counts
        assert after.block_counts == before.block_counts

    @staticmethod
    def _branchy_program(branch_in_main):
        """main (optionally with a branch) plus a helper with a branch;
        the helper is never called."""
        b = ProgramBuilder("branchy")
        b.begin_function("main")
        top = b.new_label()
        b.bind(top)
        b.ialu(1, 1)
        if branch_in_main:
            b.branch_if(1, top, probability=0.5)
        b.ret()
        b.end_function()
        b.begin_function("helper")
        loop = b.new_label()
        b.bind(loop)
        b.ialu(2, 2)
        b.branch_if(2, loop, probability=0.5)
        b.ret()
        b.end_function()
        return b.finish()

    def test_unreachable_branch_needs_no_behaviour(self):
        from repro.workloads import BehaviorModel

        program = self._branchy_program(branch_in_main=False)
        profile = collect_profile(
            program, BehaviorModel(), seeds=(1,), max_transitions=100
        )
        assert sum(profile.block_counts.values()) == 100

    def test_reachable_branch_without_behaviour_raises(self):
        from repro.workloads import BehaviorModel

        program = self._branchy_program(branch_in_main=True)
        key = program.cfg.conditional_blocks()[0].branch_key
        with pytest.raises(KeyError, match=f"no behaviour for branch key {key}"):
            collect_profile(
                program, BehaviorModel(), seeds=(1,), max_transitions=100
            )


class TestTraceSelection:
    def test_traces_partition_blocks(self):
        workload = load_workload("compress")
        profile = collect_profile(workload.program, workload.behavior)
        traces = select_traces(workload.program.cfg, profile)
        order = traces.layout_order()
        assert sorted(order) == list(range(len(workload.program.cfg.blocks)))

    def test_traces_stay_within_functions(self):
        workload = load_workload("li")
        profile = collect_profile(workload.program, workload.behavior)
        traces = select_traces(workload.program.cfg, profile)
        cfg = workload.program.cfg
        for trace in traces.traces:
            funcs = {cfg.block(bid).func_id for bid in trace}
            assert len(funcs) == 1

    def test_hot_path_grouped(self):
        from repro.workloads import BehaviorModel

        builder, program = hot_hammock_program(taken_prob=0.95)
        behavior = BehaviorModel.from_probabilities(
            builder.branch_probabilities
        )
        profile = collect_profile(program, behavior, seeds=(1,))
        traces = select_traces(program.cfg, profile)
        cond = min(program.cfg.conditional_blocks(), key=lambda b: b.block_id)
        # The hot trace contains the branch followed by its (hot) taken
        # successor.
        for trace in traces.traces:
            if cond.block_id in trace:
                index = trace.index(cond.block_id)
                assert trace[index + 1] == cond.taken_id
                break
        else:  # pragma: no cover
            pytest.fail("branch block not in any trace")


class TestReordering:
    def test_semantics_preserved(self):
        """Original and reordered programs execute the same logical
        instruction stream from the same seed."""
        for name in ("compress", "espresso", "ora"):
            workload = load_workload(name)
            result = reorder_program(workload.program, workload.behavior)
            original = generate_trace(
                workload.program, workload.behavior, 15000, seed=0
            )
            reordered = generate_trace(
                result.program, workload.behavior, 15000, seed=0
            )

            def signature(trace):
                return [
                    (i.op, i.dest, i.src1, i.src2)
                    for i in trace.instructions
                    if not i.is_control and not i.is_nop
                ]

            a, b = signature(original), signature(reordered)
            n = min(len(a), len(b))
            assert a[:n] == b[:n]

    def test_hot_branch_flipped(self):
        from repro.workloads import BehaviorModel

        builder, program = hot_hammock_program(taken_prob=0.9)
        behavior = BehaviorModel.from_probabilities(
            builder.branch_probabilities
        )
        result = reorder_program(program, behavior)
        assert result.flipped_branches >= 1
        flipped = [b for b in result.program.cfg.blocks if b.flipped]
        assert flipped

    def test_reduces_taken_branches_on_suite(self):
        from repro.metrics import taken_branch_reduction

        workload = load_workload("compress")
        result = reorder_program(workload.program, workload.behavior)
        original = generate_trace(workload.program, workload.behavior, 40000)
        reordered = generate_trace(result.program, workload.behavior, 40000)
        assert taken_branch_reduction(original, reordered) > 0.10

    def test_layout_is_valid_program(self):
        workload = load_workload("gcc")
        result = reorder_program(workload.program, workload.behavior)
        result.program.cfg.validate()
        # Addresses dense.
        addresses = [i.address for i in result.program.instructions]
        assert addresses == list(range(len(addresses)))


class TestPadding:
    def test_pad_all_aligns_every_block(self):
        workload = load_workload("ora")
        padded = pad_all(workload.program, 4)
        cfg = padded.program.cfg
        starts = [
            padded.program.block_start[bid]
            for bid in padded.program.block_order
            if cfg.block(bid).body and not cfg.block(bid).body[0].is_nop
        ]
        assert all(s % 4 == 0 for s in starts)

    def test_pad_trace_aligns_hot_trace_heads(self):
        workload = load_workload("compress")
        reordered = reorder_program(workload.program, workload.behavior)
        padded = pad_trace(reordered, 4)
        assert padded.nops_inserted > 0
        threshold = max(1, int(0.05 * max(reordered.trace_heats)))
        position = 0
        for trace, heat in zip(reordered.traces, reordered.trace_heats):
            if heat >= threshold and position > 0:
                start = padded.program.block_start[trace[0]]
                assert start % 4 == 0
            position += len(trace)

    def test_padding_preserves_semantics(self):
        workload = load_workload("eqntott")
        padded = pad_all(workload.program, 8)
        original = generate_trace(workload.program, workload.behavior, 10000)
        after = generate_trace(padded.program, workload.behavior, 12000)

        def signature(trace):
            return [
                (i.op, i.dest, i.src1, i.src2)
                for i in trace.instructions
                if not i.is_control and not i.is_nop
            ]

        a, b = signature(original), signature(after)
        n = min(len(a), len(b))
        assert a[:n] == b[:n]

    def test_pad_trace_without_heats_pads_every_trace(self):
        from repro.compiler.layout_opt import apply_layout
        from repro.compiler.trace_selection import TraceSet

        workload = load_workload("li")
        program = workload.program
        traces = select_traces(
            program.cfg, collect_profile(program, workload.behavior)
        )
        bare = apply_layout(program, TraceSet(traces=traces.traces))
        assert bare.trace_heats == []
        padded = pad_trace(bare, 4)
        # With no heats every trace counts as hot, so every trace after
        # the first starts on a block boundary.
        for trace in bare.traces[1:]:
            assert padded.program.block_start[trace[0]] % 4 == 0
        hot_only = pad_trace(apply_layout(program, traces), 4)
        assert padded.nops_inserted > hot_only.nops_inserted > 0

    def test_pad_trace_much_cheaper_than_pad_all(self):
        workload = load_workload("sc")
        reordered = reorder_program(workload.program, workload.behavior)
        all_cost = pad_all(workload.program, 8).expansion
        trace_cost = pad_trace(reordered, 8).expansion
        assert trace_cost < all_cost / 4

    def test_expansion_grows_with_block_size(self):
        workload = load_workload("li")
        costs = [pad_all(workload.program, k).expansion for k in (4, 8, 16)]
        assert costs[0] < costs[1] < costs[2]

    def test_rejects_bad_block_size(self):
        workload = load_workload("li")
        with pytest.raises(ValueError):
            pad_all(workload.program, 0)

    #: ``(nops inserted, SHA-256 prefix of Program.image())`` of padded
    #: programs as built before padding planned first: the plan-then-build
    #: split must lay out the very same code.
    PADDED_IMAGES = {
        ("compress", "pad_all", 4): (729, "f0abc376ccc7188b"),
        ("compress", "pad_trace", 4): (24, "7a84a7485d228ca6"),
        ("compress", "pad_all", 8): (2053, "87a87a3fa73cf78b"),
        ("compress", "pad_trace", 8): (76, "e6b303ae68fda675"),
        ("compress", "pad_all", 16): (4749, "ad8b6e7c32a39b74"),
        ("compress", "pad_trace", 16): (196, "0875dc7a0972c0ff"),
        ("espresso", "pad_all", 4): (2011, "4dd623ac25dee480"),
        ("espresso", "pad_trace", 4): (72, "c4a85fc451a1524f"),
        ("espresso", "pad_all", 8): (5099, "f6372030c7538634"),
        ("espresso", "pad_trace", 8): (168, "8b0c3b90429a1979"),
        ("espresso", "pad_all", 16): (12931, "85028d7bc1cf7f1f"),
        ("espresso", "pad_trace", 16): (376, "129764f1b59f9352"),
    }

    @pytest.mark.parametrize("block_words", (4, 8, 16))
    @pytest.mark.parametrize("name", ("compress", "espresso"))
    def test_padded_program_matches_its_plan(self, name, block_words):
        import hashlib

        def nops(program):
            return sum(1 for i in program.instructions if i.is_nop)

        workload = load_workload(name)
        original = workload.program
        reordered = reorder_program(original, workload.behavior)
        for variant, source, padded in (
            ("pad_all", original, pad_all(original, block_words)),
            ("pad_trace", reordered.program, pad_trace(reordered, block_words)),
        ):
            program = padded.program
            assert padded.program is program  # built once, on first access
            assert padded.nops_inserted == nops(program) - nops(source)
            assert padded.nops_inserted == (
                program.num_instructions - source.num_instructions
            )
            digest = hashlib.sha256(program.image()).hexdigest()[:16]
            assert (padded.nops_inserted, digest) == self.PADDED_IMAGES[
                name, variant, block_words
            ]


class TestScheduler:
    def test_preserves_instruction_multiset(self):
        body = [
            Instruction(OpClass.IALU, dest=1, src1=2),
            Instruction(OpClass.LOAD, dest=2, src1=1),
            Instruction(OpClass.IALU, dest=3, src1=1, src2=2),
            Instruction(OpClass.STORE, src1=3, src2=2),
        ]
        scheduled = schedule_block_body(body)
        assert sorted(id(i) for i in scheduled) == sorted(id(i) for i in body)

    def test_respects_raw_dependency(self):
        producer = Instruction(OpClass.IALU, dest=1)
        consumer = Instruction(OpClass.IALU, dest=2, src1=1)
        scheduled = schedule_block_body([producer, consumer])
        assert scheduled.index(producer) < scheduled.index(consumer)

    def test_respects_memory_order(self):
        store = Instruction(OpClass.STORE, src1=1, src2=2)
        load = Instruction(OpClass.LOAD, dest=3, src1=4)
        filler = Instruction(OpClass.IALU, dest=5)
        scheduled = schedule_block_body([store, filler, load])
        assert scheduled.index(store) < scheduled.index(load)

    def test_hoists_independent_work_past_long_latency(self):
        load = Instruction(OpClass.LOAD, dest=1, src1=9)
        dependent = Instruction(OpClass.IALU, dest=2, src1=1)
        independent = Instruction(OpClass.IALU, dest=3, src1=9)
        scheduled = schedule_block_body([load, dependent, independent])
        # The independent op fills the load shadow.
        assert scheduled.index(independent) < scheduled.index(dependent)

    def test_schedule_program_keeps_semantics(self):
        workload = load_workload("wave5")
        scheduled = schedule_program(workload.program)
        scheduled.cfg.validate()
        assert (
            scheduled.num_instructions == workload.program.num_instructions
        )
        original = generate_trace(workload.program, workload.behavior, 5000)
        after = generate_trace(scheduled, workload.behavior, 5000)
        # Same blocks execute in the same order (bodies permuted within).
        assert original.block_sequence() == after.block_sequence()


class TestSuperblocks:
    def test_semantics_preserved(self):
        from repro.compiler import form_superblocks

        for name in ("compress", "ora"):
            workload = load_workload(name)
            result = form_superblocks(workload.program, workload.behavior)
            original = generate_trace(
                workload.program, workload.behavior, 12000, seed=0
            )
            formed = generate_trace(
                result.program, workload.behavior, 12000, seed=0
            )

            def signature(trace):
                return [
                    (i.op, i.dest, i.src1, i.src2)
                    for i in trace.instructions
                    if not i.is_control and not i.is_nop
                ]

            a, b = signature(original), signature(formed)
            n = min(len(a), len(b))
            assert a[:n] == b[:n]

    def test_duplicates_counted_and_bounded(self):
        from repro.compiler import form_superblocks

        workload = load_workload("espresso")
        result = form_superblocks(workload.program, workload.behavior)
        assert result.duplicated_blocks > 0
        assert 0 < result.code_growth < 0.5  # modest duplication only
        assert (
            result.program.num_instructions
            == result.original_size + result.duplicated_instructions
            + result.reorder.inserted_jumps - result.reorder.removed_jumps
        )

    def test_duplicates_own_their_instructions(self):
        from repro.compiler import form_superblocks

        workload = load_workload("espresso")
        result = form_superblocks(workload.program, workload.behavior)
        # Every duplicate has instructions of its own, laid out once, and
        # none is shared with the source program.
        instructions = result.program.instructions
        assert len({id(instr) for instr in instructions}) == len(instructions)
        assert not {id(i) for i in workload.program.instructions} & {
            id(i) for i in instructions
        }

    def test_hot_superblocks_have_single_entry(self):
        """After formation, a hot trace's non-head blocks have exactly one
        static predecessor (the previous trace block)."""
        from repro.compiler import form_superblocks

        workload = load_workload("compress")
        result = form_superblocks(workload.program, workload.behavior)
        cfg = result.program.cfg
        predecessors = {}
        for block in cfg.blocks:
            for successor in block.successors():
                predecessors.setdefault(successor, set()).add(block.block_id)
        heats = result.reorder.trace_heats
        threshold = max(1, int(0.05 * max(heats)))
        checked = 0
        for trace, heat in zip(result.reorder.traces, heats):
            if heat < threshold or len(trace) < 2:
                continue
            for prev, here in zip(trace, trace[1:]):
                block = cfg.block(here)
                if block.block_id < len(workload.program.cfg.blocks):
                    continue  # an original block (head section), skip
                preds = predecessors.get(here, set())
                assert preds <= {prev}, (trace, here, preds)
                checked += 1
        assert checked > 0

    def test_cold_traces_left_alone(self):
        from repro.compiler import form_superblocks

        workload = load_workload("ora")
        result = form_superblocks(
            workload.program, workload.behavior, min_trace_heat=1.1
        )
        # Threshold above every trace: nothing duplicated.
        assert result.duplicated_blocks == 0
