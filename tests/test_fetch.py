"""Unit tests for the fetch/alignment schemes on hand-built scenarios.

All scenarios use a PI4-like machine: 4-wide issue, 16-byte blocks
(4 instructions per block, so block boundaries fall at multiples of 4).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import BranchTargetBuffer
from repro.check.rules import UNLIMITED, check_packet
from repro.fetch import (
    BankedSequentialFetch,
    CollapsingBufferFetch,
    InterleavedSequentialFetch,
    PerfectFetch,
    SequentialFetch,
    create_fetch_unit,
)
from repro.isa import Instruction, OpClass
from repro.machines import PI4, get_machine
from repro.workloads.trace import DynamicTrace


def make_trace(*addresses_and_ops) -> DynamicTrace:
    """Build a dynamic trace from (address, op[, target]) tuples."""
    instructions = []
    for spec in addresses_and_ops:
        address, op = spec[0], spec[1]
        target = spec[2] if len(spec) > 2 else -1
        instructions.append(Instruction(op, address=address, target=target))
    return DynamicTrace(name="test", seed=0, instructions=instructions)


def sequential_path(start, count, op=OpClass.IALU):
    return [(start + i, op) for i in range(count)]


def warm_taken(unit, address, target, times=2, unconditional=False):
    """Train the BTB so the branch at *address* predicts taken->*target*."""
    instr = Instruction(
        OpClass.JUMP if unconditional else OpClass.BR_COND,
        address=address,
        target=target,
    )
    for _ in range(times):
        unit.train(instr, True, target)


def prewarm(unit, blocks=None):
    for block in range(64) if blocks is None else blocks:
        unit.cache.fill(block)


def delivered_addresses(result):
    return [i.address for i in result.instructions]


class TestSequential:
    def test_full_block_from_offset_zero(self):
        trace = make_trace(*sequential_path(0, 8))
        unit = SequentialFetch(PI4, trace)
        prewarm(unit)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [0, 1, 2, 3]
        assert not result.mispredict

    def test_partial_block_from_offset(self):
        trace = make_trace(*sequential_path(2, 8))
        unit = SequentialFetch(PI4, trace)
        prewarm(unit)
        result = unit.fetch_cycle(0, 4)
        # Offset 2 within the block: only 2 instructions before the
        # boundary; sequential cannot cross it.
        assert delivered_addresses(result) == [2, 3]

    def test_stops_after_predicted_taken_branch(self):
        trace = make_trace(
            (0, OpClass.IALU),
            (1, OpClass.BR_COND, 9),
            (9, OpClass.IALU),
            (10, OpClass.IALU),
        )
        unit = SequentialFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 1, 9)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [0, 1]
        assert not result.mispredict
        # Next cycle resumes at the target.
        result = unit.fetch_cycle(2, 4)
        assert delivered_addresses(result) == [9, 10]

    def test_btb_miss_on_taken_branch_is_mispredict(self):
        trace = make_trace(
            (0, OpClass.IALU),
            (1, OpClass.BR_COND, 9),
            (9, OpClass.IALU),
        )
        unit = SequentialFetch(PI4, trace)
        prewarm(unit)
        result = unit.fetch_cycle(0, 4)
        # Fell through past the branch; divergence right after it.
        assert delivered_addresses(result) == [0, 1]
        assert result.mispredict

    def test_predicted_taken_but_not_taken_is_mispredict(self):
        trace = make_trace(
            (0, OpClass.IALU),
            (1, OpClass.BR_COND, 9),
            (2, OpClass.IALU),  # actually falls through
        )
        unit = SequentialFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 1, 9)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [0, 1]
        assert result.mispredict

    def test_cache_miss_stalls(self):
        trace = make_trace(*sequential_path(0, 4))
        unit = SequentialFetch(PI4, trace)
        result = unit.fetch_cycle(0, 4)
        assert result.instructions == []
        assert result.stall_cycles == PI4.icache_miss_latency
        # The block was filled; the retry hits.
        assert unit.fetch_cycle(0, 4).delivered == 4

    def test_limit_truncates(self):
        trace = make_trace(*sequential_path(0, 4))
        unit = SequentialFetch(PI4, trace)
        prewarm(unit)
        result = unit.fetch_cycle(0, 2)
        assert delivered_addresses(result) == [0, 1]
        assert not result.mispredict


class TestInterleavedSequential:
    def test_crosses_block_boundary(self):
        trace = make_trace(*sequential_path(2, 8))
        unit = InterleavedSequentialFetch(PI4, trace)
        prewarm(unit)
        result = unit.fetch_cycle(0, 4)
        # From offset 2, the run spans into the prefetched next block.
        assert delivered_addresses(result) == [2, 3, 4, 5]

    def test_stops_at_predicted_taken_even_across_blocks(self):
        trace = make_trace(
            (2, OpClass.IALU),
            (3, OpClass.IALU),
            (4, OpClass.BR_COND, 20),
            (20, OpClass.IALU),
        )
        unit = InterleavedSequentialFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 4, 20)
        result = unit.fetch_cycle(0, 4)
        # Delivers up to and including the branch; cannot realign to 20.
        assert delivered_addresses(result) == [2, 3, 4]
        assert not result.mispredict

    def test_prefetch_miss_truncates_without_stall(self):
        trace = make_trace(*sequential_path(2, 8))
        unit = InterleavedSequentialFetch(PI4, trace)
        unit.cache.fill(0)  # fetch block present, next block absent
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [2, 3]
        assert result.stall_cycles == 0
        # The prefetch filled block 1: the next fetch hits it.
        assert unit.fetch_cycle(2, 4).delivered == 4


class TestBankedSequential:
    def test_crosses_inter_block_taken_branch(self):
        trace = make_trace(
            (0, OpClass.IALU),
            (1, OpClass.BR_COND, 9),
            (9, OpClass.IALU),
            (10, OpClass.IALU),
        )
        unit = BankedSequentialFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 1, 9)
        result = unit.fetch_cycle(0, 4)
        # Block 0 -> branch -> target in block 2... blocks 0 and 2 share
        # bank 0: conflict; only the first part is delivered.
        assert delivered_addresses(result) == [0, 1]

    def test_crosses_to_conflict_free_bank(self):
        trace = make_trace(
            (0, OpClass.IALU),
            (1, OpClass.BR_COND, 5),
            (5, OpClass.IALU),
            (6, OpClass.IALU),
        )
        unit = BankedSequentialFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 1, 5)
        result = unit.fetch_cycle(0, 4)
        # Target block 1 is in the other bank: full crossing.
        assert delivered_addresses(result) == [0, 1, 5, 6]

    def test_cannot_handle_intra_block_branch(self):
        trace = make_trace(
            (0, OpClass.BR_COND, 3),
            (3, OpClass.IALU),
            (4, OpClass.IALU),
        )
        unit = BankedSequentialFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 0, 3)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [0]
        assert not result.mispredict

    def test_sequential_continuation_like_interleaved(self):
        trace = make_trace(*sequential_path(2, 8))
        unit = BankedSequentialFetch(PI4, trace)
        prewarm(unit)
        assert delivered_addresses(unit.fetch_cycle(0, 4)) == [2, 3, 4, 5]

    def test_second_taken_branch_ends_group(self):
        trace = make_trace(
            (2, OpClass.IALU),
            (3, OpClass.BR_COND, 5),
            (5, OpClass.BR_COND, 30),
            (30, OpClass.IALU),
        )
        unit = BankedSequentialFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 3, 5)
        warm_taken(unit, 5, 30)
        result = unit.fetch_cycle(0, 4)
        # Crosses 3->5, then the second taken branch ends the group.
        assert delivered_addresses(result) == [2, 3, 5]
        assert not result.mispredict


class TestCollapsingBuffer:
    def test_collapses_forward_intra_block_branch(self):
        # The paper's Figure 7 example: 1, 2, 5, 8 with 4-word blocks
        # rescaled: branch at 1 -> 2? Use: block 0 holds 0..3.
        trace = make_trace(
            (0, OpClass.IALU),
            (1, OpClass.BR_COND, 3),
            (3, OpClass.IALU),
            (4, OpClass.IALU),
        )
        unit = CollapsingBufferFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 1, 3)
        result = unit.fetch_cycle(0, 4)
        # Gap at address 2 collapsed; continues into the next block.
        assert delivered_addresses(result) == [0, 1, 3, 4]

    def test_collapses_multiple_intra_block_branches(self):
        # Two hammocks inside one 8-word span would need k=8; use two
        # skips within block 0 (k=4): 0 -> skip 1 -> 2 -> skip 3? Only
        # forward gaps of >= 1: 0(br->2), 2(br->?); keep within block.
        trace = make_trace(
            (0, OpClass.BR_COND, 2),
            (2, OpClass.BR_COND, 3),  # degenerate skip of zero is taken->3
            (3, OpClass.IALU),
            (4, OpClass.IALU),
        )
        unit = CollapsingBufferFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 0, 2)
        warm_taken(unit, 2, 3)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [0, 2, 3, 4]

    def test_does_not_collapse_backward_branch(self):
        trace = make_trace(
            (2, OpClass.BR_COND, 0),
            (0, OpClass.IALU),
            (1, OpClass.IALU),
        )
        unit = CollapsingBufferFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 2, 0)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [2]
        assert not result.mispredict

    def test_collapse_then_cross_then_collapse(self):
        trace = make_trace(
            (0, OpClass.BR_COND, 2),  # intra-block skip in block 0
            (2, OpClass.BR_COND, 5),  # inter-block to block 1
            (5, OpClass.BR_COND, 7),  # intra-block skip in block 1
            (7, OpClass.IALU),
        )
        unit = CollapsingBufferFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 0, 2)
        warm_taken(unit, 2, 5)
        warm_taken(unit, 5, 7)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [0, 2, 5, 7]

    def test_fine_banking_reduces_conflicts(self):
        # Block 0 -> block 2 would conflict under 2 banks but not under
        # the collapsing buffer's per-slot banking (4 banks at PI4).
        trace = make_trace(
            (1, OpClass.BR_COND, 9),
            (9, OpClass.IALU),
            (10, OpClass.IALU),
        )
        unit = CollapsingBufferFetch(PI4, trace)
        assert unit.cache.num_banks == PI4.words_per_block
        prewarm(unit)
        warm_taken(unit, 1, 9)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [1, 9, 10]


class TestPerfect:
    def test_ignores_alignment_entirely(self):
        trace = make_trace(
            (2, OpClass.BR_COND, 17),
            (17, OpClass.BR_COND, 33),
            (33, OpClass.IALU),
            (34, OpClass.IALU),
        )
        unit = PerfectFetch(PI4, trace)
        prewarm(unit)
        warm_taken(unit, 2, 17)
        warm_taken(unit, 17, 33)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [2, 17, 33, 34]
        assert not result.mispredict

    def test_still_mispredicts_via_btb(self):
        trace = make_trace(
            (0, OpClass.IALU),
            (1, OpClass.BR_COND, 9),
            (9, OpClass.IALU),
        )
        unit = PerfectFetch(PI4, trace)
        prewarm(unit)
        result = unit.fetch_cycle(0, 4)  # cold BTB: falls through
        assert delivered_addresses(result) == [0, 1]
        assert result.mispredict

    def test_first_block_miss_stalls(self):
        trace = make_trace(*sequential_path(0, 4))
        unit = PerfectFetch(PI4, trace)
        result = unit.fetch_cycle(0, 4)
        assert result.stall_cycles == PI4.icache_miss_latency

    def test_later_block_miss_truncates(self):
        trace = make_trace(*sequential_path(2, 6))
        unit = PerfectFetch(PI4, trace)
        unit.cache.fill(0)
        result = unit.fetch_cycle(0, 4)
        assert delivered_addresses(result) == [2, 3]
        assert result.stall_cycles == 0


class TestFactory:
    def test_known_schemes(self):
        trace = make_trace(*sequential_path(0, 4))
        for name in (
            "sequential",
            "interleaved_sequential",
            "banked_sequential",
            "collapsing_buffer",
            "perfect",
        ):
            unit = create_fetch_unit(name, PI4, trace)
            assert unit.name == name

    def test_unknown_scheme_rejected(self):
        trace = make_trace(*sequential_path(0, 4))
        with pytest.raises(KeyError, match="unknown fetch scheme"):
            create_fetch_unit("oracle", PI4, trace)


class TestSchemeDominance:
    """Per-cycle delivery capability is ordered:
    sequential <= interleaved <= banked <= collapsing buffer."""

    def test_delivery_ordering_on_random_paths(self):
        rng = random.Random(7)
        for _ in range(200):
            # Random short path with a couple of branches.
            address = rng.randrange(0, 32)
            path = []
            for _ in range(6):
                path.append(address)
                if rng.random() < 0.3:
                    address += rng.randrange(1, 12)
                else:
                    address += 1
            specs = []
            for here, nxt in zip(path, path[1:]):
                op = OpClass.BR_COND if nxt != here + 1 else OpClass.IALU
                specs.append((here, op, nxt if nxt != here + 1 else -1))
            specs.append((path[-1], OpClass.IALU))
            trace = make_trace(*specs)
            deliveries = []
            for cls in (
                SequentialFetch,
                InterleavedSequentialFetch,
                BankedSequentialFetch,
                CollapsingBufferFetch,
            ):
                unit = cls(PI4, trace)
                prewarm(unit, range(0, 512))
                for spec in specs[:-1]:
                    if spec[1] is OpClass.BR_COND:
                        warm_taken(unit, spec[0], spec[2])
                deliveries.append(unit.fetch_cycle(0, 4).delivered)
            seq, inter, banked, collapsing = deliveries
            assert seq <= inter <= collapsing
            assert banked <= collapsing


class TestPlansPredictTheirOwnAddresses:
    """The compiled kernel's predicted-addresses invariant (beside
    ``kernel._SUPPORTED_SCHEMES``): the one rules walk,
    ``FetchUnit.plan``, asks the BTB about exactly the addresses it
    plans, in order, for every vetted scheme, so the plan memo reads a
    packet's BTB dependencies off the packet."""

    @pytest.mark.parametrize("machine_name", ["PI4", "PI8", "PI12"])
    @pytest.mark.parametrize(
        "scheme",
        [
            "sequential",
            "interleaved_sequential",
            "banked_sequential",
            "collapsing_buffer",
            "perfect",
        ],
    )
    def test_predicted_addresses_are_the_plan(
        self, scheme, machine_name, monkeypatch
    ):
        seen: list[int] = []
        predict = BranchTargetBuffer.predict

        def recording(btb, address):
            seen.append(address)
            return predict(btb, address)

        # Patched on the class before the unit binds its slot predictor.
        monkeypatch.setattr(BranchTargetBuffer, "predict", recording)
        machine = get_machine(machine_name)
        rng = random.Random(f"{scheme}/{machine_name}")
        unit = create_fetch_unit(scheme, machine, make_trace((0, OpClass.IALU)))
        words = machine.words_per_block
        span = 64 * words
        for _ in range(300):
            for _ in range(rng.randrange(8)):
                address = rng.randrange(span)
                if rng.random() < 0.5:
                    target = address + rng.randrange(-words, 2 * words)
                else:
                    target = rng.randrange(span)
                unit.btb.update(
                    address,
                    rng.random() < 0.7,
                    max(0, target),
                    is_unconditional=rng.random() < 0.2,
                    is_call=rng.random() < 0.1,
                    is_return=rng.random() < 0.1,
                )
            for _ in range(rng.randrange(3)):
                unit.cache.fill(rng.randrange(span // words))
            seen.clear()
            plan = unit.plan(rng.randrange(span), machine.issue_rate)
            assert seen == plan.addresses


# -- the maximal-packet model -------------------------------------------------


def predicted_path(btb, start, steps):
    """*start* and the next *steps* addresses the BTB predicts after it."""
    path = [start]
    for _ in range(steps):
        prediction = btb.predict(path[-1])
        path.append(prediction.target if prediction.taken else path[-1] + 1)
    return path


def maximal_packet(rules, path, width, words_per_block, num_banks):
    """The packet *rules* allow along the predicted *path* (at least
    ``width + 1`` addresses long): its longest prefix that
    ``check_packet`` accepts within *width*, and the ``break_reason``
    naming the rule that ended it.

    A full packet whose last slot is a taken transfer the scheme does
    not merge into its block's run reads ``taken_branch`` for a bounded
    scheme (the run ended there whatever the width); the walk does not
    follow a taken branch to the next word, which ``check_packet``
    cannot tell from a sequential step, so the property's BTB holds
    none.
    """

    def stops(length):
        return {
            error.code
            for error in check_packet(
                rules,
                path[:length],
                fetch_address=path[0],
                limit=width,
                words_per_block=words_per_block,
                num_banks=num_banks,
            )
        }

    length = 1
    while not stops(length + 1):
        length += 1
    last, after = path[length - 1], path[length]
    taken = after != last + 1
    if length == width:
        merged = (
            rules.collapses_forward_intra
            and after // words_per_block == last // words_per_block
            and after > last
        )
        bounded = rules.max_blocks != UNLIMITED
        reason = "taken_branch" if taken and bounded and not merged else "full"
    elif stops(length + 1) == {"K010"}:
        reason = "bank_conflict"
    else:
        reason = "taken_branch" if taken else "alignment"
    return path[:length], reason


VETTED = [
    "sequential",
    "interleaved_sequential",
    "banked_sequential",
    "collapsing_buffer",
    "perfect",
]

@st.composite
def fetch_states(draw):
    """A fetch address and up to eight predicted branches ``(address,
    target, still predicted taken)`` just after it, within eight blocks
    of the largest machine; none is a taken branch to the next word."""
    start = draw(st.integers(0, 127))
    branches = []
    for _ in range(draw(st.integers(0, 8))):
        address = (start + draw(st.integers(0, 31))) % 128
        jump = draw(st.integers(-24, 24) | st.integers(0, 127))
        target = (address + jump) % 128
        if target != address + 1:
            branches.append((address, target, draw(st.booleans())))
    return start, branches


class TestMaximalPacket:
    """On a warm cache and a trained BTB, each vetted scheme's packet is
    exactly what its rules allow along the predicted path: the longest
    prefix ``check_packet`` accepts within the width (the model above),
    stopped for the reason that rule names, continued at the path's next
    address, and reading the packet's blocks plus, for interleaved
    sequential, the blind next-block prefetch."""

    @pytest.mark.parametrize("machine_name", ["PI4", "PI8", "PI12"])
    @pytest.mark.parametrize("scheme", VETTED)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(state=fetch_states(), width_cut=st.integers(0, 11))
    def test_plan_is_the_maximal_legal_packet(
        self, scheme, machine_name, state, width_cut
    ):
        start, branches = state
        machine = get_machine(machine_name)
        words = machine.words_per_block
        width = machine.issue_rate - width_cut % machine.issue_rate
        unit = create_fetch_unit(scheme, machine, make_trace((0, OpClass.IALU)))
        prewarm(unit, range((128 + 2 * machine.issue_rate) // words + 2))
        for address, target, taken in branches:
            warm_taken(unit, address, target)
            if not taken:
                branch = Instruction(OpClass.BR_COND, address=address, target=target)
                for _ in range(2):
                    unit.train(branch, False, target)
        path = predicted_path(unit.btb, start, width)
        packet, reason = maximal_packet(
            unit.rules, path, width, words, unit.num_banks
        )
        accesses = unit.cache.stats.accesses
        plan = unit.plan(start, width)
        assert (plan.addresses, plan.break_reason) == (packet, reason)
        assert plan.next_address == path[len(packet)]
        read = {address // words for address in packet}
        if unit.rules.consecutive_blocks_only:
            read.add(start // words + 1)
        assert unit.cache.stats.accesses - accesses == len(read)
