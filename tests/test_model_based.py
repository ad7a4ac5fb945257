"""Model-based (stateful) property tests: hardware structures checked
against trivially-correct reference models."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import BranchTargetBuffer
from repro.memory import InstructionCache


class _ReferenceBTB:
    """Dictionary reference for the direct-mapped interleaved BTB,
    counting lookups, hits, updates and allocations as ``BTBStats``
    does."""

    def __init__(self, entries: int, interleave: int) -> None:
        self.entries = entries
        self.interleave = interleave
        self.per_bank = entries // interleave
        self.slots: dict[tuple[int, int], dict] = {}
        self.stats = {"lookups": 0, "hits": 0, "updates": 0, "allocations": 0}

    def _slot(self, address: int) -> tuple[int, int]:
        return (
            address % self.interleave,
            (address // self.interleave) % self.per_bank,
        )

    def _effective(self, slot: tuple[int, int]):
        """A slot's planning-effective state: ``(tag, target)`` while it
        predicts taken, else ``None``."""
        entry = self.slots.get(slot)
        if entry is None or not (entry["unconditional"] or entry["counter"] >= 2):
            return None
        return (entry["tag"], entry["target"])

    def update(self, address, taken, target, unconditional, call, ret):
        """Train; returns the flat slot index when the slot's effective
        state changed, else -1 (``BranchTargetBuffer.update``'s
        contract)."""
        self.stats["updates"] += 1
        slot = self._slot(address)
        before = self._effective(slot)
        self._train(slot, address, taken, target, unconditional, call, ret)
        if self._effective(slot) == before:
            return -1
        bank, index = slot
        return bank * self.per_bank + index

    def _train(self, slot, address, taken, target, unconditional, call, ret):
        entry = self.slots.get(slot)
        flags = {"unconditional": unconditional, "call": call, "ret": ret}
        if entry is not None and entry["tag"] == address:
            entry["counter"] = (
                min(3, entry["counter"] + 1)
                if taken
                else max(0, entry["counter"] - 1)
            )
            if taken:
                entry["target"] = target
            entry.update(flags)
        elif taken:
            self.slots[slot] = {
                "tag": address, "target": target, "counter": 3, **flags
            }
            self.stats["allocations"] += 1

    def predict(self, address):
        """``(hit, taken, target, is_conditional, is_call, is_return)``."""
        self.stats["lookups"] += 1
        entry = self.slots.get(self._slot(address))
        if entry is None or entry["tag"] != address:
            return (False, False, -1, False, False, False)
        self.stats["hits"] += 1
        return (
            True,
            entry["unconditional"] or entry["counter"] >= 2,
            entry["target"],
            not entry["unconditional"],
            entry["call"],
            entry["ret"],
        )

    def flush(self):
        self.slots.clear()


_btb_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=19),  # 0 flush, 1-9 update, else predict
        # 16 addresses over 8 slots: every slot has two aliases.
        st.integers(min_value=0, max_value=15),  # address
        st.booleans(),  # taken
        st.integers(min_value=0, max_value=300),  # target
        st.tuples(st.booleans(), st.booleans(), st.booleans()),  # type flags
    ),
    min_size=50,  # long enough to predict, retrain and predict one slot
    max_size=200,
)


def _prediction(prediction):
    return (
        prediction.hit,
        prediction.taken,
        prediction.target,
        prediction.is_conditional,
        prediction.is_call,
        prediction.is_return,
    )


class TestBTBAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(_btb_ops)
    def test_matches_reference(self, operations):
        real = BranchTargetBuffer(num_entries=8, interleave=4)
        reference = _ReferenceBTB(entries=8, interleave=4)
        for op, address, taken, target, (unc, call, ret) in operations:
            if op == 0:
                real.flush()
                reference.flush()
            elif op < 10:
                assert real.update(
                    address, taken, target, unc, call, ret
                ) == reference.update(address, taken, target, unc, call, ret)
            else:
                assert _prediction(real.predict(address)) == reference.predict(
                    address
                )
            assert dataclasses.asdict(real.stats) == reference.stats

    def test_update_on_an_aliasing_slot_refreshes_the_prediction(self):
        """Addresses 5 and 37 share a slot of a 32-entry, 4-way BTB: a
        prediction remembered for one never answers for the other, nor
        outlives a counter or flag change."""
        real = BranchTargetBuffer(num_entries=32, interleave=4)
        reference = _ReferenceBTB(entries=32, interleave=4)
        steps = [
            (5, True, 9, False, False, False),
            (37, True, 20, False, True, False),  # evicts 5
            (37, False, 0, False, False, False),  # 3 -> 2: still taken
            (37, False, 0, False, False, False),  # 2 -> 1: not taken
            (37, False, 0, True, False, True),  # unconditional return
            (5, True, 11, False, False, False),  # evicts 37
        ]
        for step in steps:
            assert real.update(*step) == reference.update(*step)
            for address in (5, 37):
                assert _prediction(real.predict(address)) == reference.predict(
                    address
                )
        assert dataclasses.asdict(real.stats) == reference.stats

    def test_update_returns_the_slot_only_on_an_effective_change(self):
        """Aliasing allocations, flips across the taken threshold and
        taken re-trains with a new target return the slot; saturating
        re-trains, moves inside one class and not-taken misses return
        -1."""
        real = BranchTargetBuffer(num_entries=32, interleave=4)
        slot = real.slot(5)
        assert real.slot(37) == slot
        steps = [
            ((5, False, 9), -1),  # not-taken miss: nothing allocated
            ((5, True, 9), slot),  # allocation, strongly taken
            ((5, True, 9), -1),  # saturating re-train, same target
            ((5, True, 11), slot),  # same class, new target
            ((5, False, 0), -1),  # 3 -> 2: still taken
            ((5, False, 0), slot),  # 2 -> 1: falls through
            ((5, False, 0), -1),  # 1 -> 0: still falls through
            ((5, True, 13), -1),  # 0 -> 1: new target, still falls through
            ((37, False, 0), -1),  # not-taken miss on the aliased slot
            ((37, True, 20), slot),  # aliasing allocation evicts 5
            ((5, True, 20), slot),  # same target, other tag: evicts 37
        ]
        for (address, taken, target), expected in steps:
            assert real.update(address, taken, target) == expected


class _ReferenceCache:
    """Dictionary reference for the direct-mapped cache."""

    def __init__(self, sets: int) -> None:
        self.sets = sets
        self.tags: dict[int, int] = {}

    def fill(self, block):
        self.tags[block % self.sets] = block

    def probe(self, block):
        return self.tags.get(block % self.sets) == block


_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["fill", "probe", "access_and_fill", "flush"]),
        st.integers(min_value=0, max_value=500),
    ),
    max_size=200,
)


class TestCacheAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(_cache_ops)
    def test_matches_reference(self, operations):
        real = InstructionCache(size_bytes=256, block_bytes=16)  # 16 sets
        reference = _ReferenceCache(sets=16)
        for op, block in operations:
            if op == "fill":
                real.fill(block)
                reference.fill(block)
            elif op == "access_and_fill":
                hit = real.access_and_fill(block)
                assert hit == reference.probe(block)
                reference.fill(block)
            elif op == "flush":
                real.flush()
                reference.tags.clear()
            else:
                assert real.probe(block) == reference.probe(block)


class TestPreciseStateProperty:
    def test_future_file_matches_inorder_semantics(self):
        """After a full simulation, the Future file's last writer per
        register equals the last architectural writer in trace order —
        the precise-interrupt guarantee of the ROB + Future file pair."""
        from repro.machines import PI4
        from repro.sim import Simulator
        from repro.workloads import generate_trace, load_workload

        workload = load_workload("ora")
        trace = generate_trace(workload.program, workload.behavior, 4000)
        sim = Simulator(PI4, trace, "collapsing_buffer")
        sim.run()

        expected: dict[int, int] = {}
        for seq, instr in enumerate(trace.instructions):
            if instr.dest >= 0:
                expected[instr.dest] = seq
        for reg, seq in expected.items():
            assert sim.core.future_file.last_writer(reg) == seq
