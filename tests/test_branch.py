"""Unit tests for 2-bit counters, the interleaved BTB, extra predictors."""

import pytest

from repro.branch import (
    BranchTargetBuffer,
    GShare,
    STRONG_NOT_TAKEN,
    STRONG_TAKEN,
    StaticBTFNT,
    AlwaysTaken,
    TwoBitCounter,
    WEAK_NOT_TAKEN,
    WEAK_TAKEN,
)


class TestTwoBitCounter:
    def test_initial_state_predicts_taken(self):
        assert TwoBitCounter().predict_taken()

    def test_saturates_up(self):
        c = TwoBitCounter(STRONG_TAKEN)
        c.update(True)
        assert c.state == STRONG_TAKEN

    def test_saturates_down(self):
        c = TwoBitCounter(STRONG_NOT_TAKEN)
        c.update(False)
        assert c.state == STRONG_NOT_TAKEN

    def test_hysteresis(self):
        # A single not-taken from strong-taken does not flip the prediction.
        c = TwoBitCounter(STRONG_TAKEN)
        c.update(False)
        assert c.predict_taken()
        c.update(False)
        assert not c.predict_taken()

    def test_full_transition_chain(self):
        c = TwoBitCounter(STRONG_NOT_TAKEN)
        states = []
        for _ in range(4):
            c.update(True)
            states.append(c.state)
        assert states == [WEAK_NOT_TAKEN, WEAK_TAKEN, STRONG_TAKEN, STRONG_TAKEN]

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            TwoBitCounter(4)


class TestBTB:
    def make(self, entries=64, interleave=4):
        return BranchTargetBuffer(num_entries=entries, interleave=interleave)

    def test_miss_predicts_fall_through(self):
        btb = self.make()
        pred = btb.predict(100)
        assert not pred.hit
        assert not pred.taken

    def test_allocate_on_taken_only(self):
        btb = self.make()
        btb.update(100, taken=False, target=200)
        assert not btb.predict(100).hit
        btb.update(100, taken=True, target=200)
        pred = btb.predict(100)
        assert pred.hit and pred.taken and pred.target == 200

    def test_counter_trains_towards_not_taken(self):
        btb = self.make()
        btb.update(100, True, 200)
        btb.update(100, False, 200)
        btb.update(100, False, 200)
        pred = btb.predict(100)
        assert pred.hit
        assert not pred.taken
        assert pred.target == 200  # target stays cached for predictors

    def test_unconditional_always_taken_on_hit(self):
        btb = self.make()
        btb.update(40, True, 500, is_unconditional=True)
        assert btb.predict(40).taken

    def test_target_update_on_retaken(self):
        # Models RET: the cached target follows the most recent outcome.
        btb = self.make()
        btb.update(8, True, 100)
        btb.update(8, True, 300)
        assert btb.predict(8).target == 300

    def test_direct_mapped_conflict_replaces(self):
        btb = self.make(entries=16, interleave=4)  # 4 per bank
        # Addresses 0 and 16 share bank 0, index 0.
        btb.update(0, True, 99)
        btb.update(16, True, 77)
        assert not btb.predict(0).hit
        assert btb.predict(16).hit

    def test_bank_mapping_is_slot_based(self):
        btb = self.make(entries=16, interleave=4)
        # Same bank only when address % interleave matches.
        btb.update(1, True, 50)
        btb.update(2, True, 60)  # different bank, no conflict
        assert btb.predict(1).hit
        assert btb.predict(2).hit

    def test_predict_block_covers_every_slot(self):
        btb = self.make(interleave=4)
        btb.update(9, True, 42)
        preds = btb.predict_block(8)
        assert len(preds) == 4
        assert preds[1].taken and preds[1].target == 42
        assert not preds[0].taken

    def test_flush(self):
        btb = self.make()
        btb.update(5, True, 10)
        btb.flush()
        assert not btb.predict(5).hit

    def test_stats(self):
        btb = self.make()
        btb.update(5, True, 10)
        btb.predict(5)
        btb.predict(6)
        assert btb.stats.lookups == 2
        assert btb.stats.hits == 1
        assert btb.stats.allocations == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(num_entries=10, interleave=4)
        with pytest.raises(ValueError):
            BranchTargetBuffer(num_entries=0)


class TestOtherPredictors:
    def test_btfnt(self):
        p = StaticBTFNT()
        assert p.predict(address=100, target=50)  # backward: taken
        assert not p.predict(address=100, target=160)  # forward: not

    def test_always_taken(self):
        assert AlwaysTaken().predict(0, 1)

    def test_gshare_learns_pattern(self):
        p = GShare(num_entries=256, history_bits=4)
        # Alternating branch: global history disambiguates.
        for _ in range(64):
            p.update(100, 200, True)
            p.update(100, 200, False)
        correct = 0
        expected = True
        for _ in range(32):
            correct += p.predict(100, 200) == expected
            p.update(100, 200, expected)
            expected = not expected
        assert correct >= 28  # near-perfect once trained

    def test_gshare_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GShare(num_entries=100)

    @pytest.mark.parametrize("history_bits", [-1, 13])
    def test_gshare_rejects_history_beyond_index_width(self, history_bits):
        with pytest.raises(ValueError, match="history_bits out of range"):
            GShare(num_entries=4096, history_bits=history_bits)

    @pytest.mark.parametrize("history_bits", [0, 12])
    def test_gshare_accepts_history_within_index_width(self, history_bits):
        p = GShare(num_entries=4096, history_bits=history_bits)
        p.update(100, 200, True)
        assert p.predict(100, 200)


class TestTwoLevelLocal:
    def test_learns_periodic_pattern(self):
        from repro.branch import TwoLevelLocal

        predictor = TwoLevelLocal(num_branches=64, history_bits=4)
        # Period-3 pattern T T N: a 2-bit counter mispredicts every N,
        # a two-level predictor locks on after warm-up.
        pattern = [True, True, False]
        for i in range(120):
            predictor.update(40, 0, pattern[i % 3])
        correct = 0
        for i in range(30):
            outcome = pattern[i % 3]
            correct += predictor.predict(40, 0) == outcome
            predictor.update(40, 0, outcome)
        assert correct >= 28

    def test_beats_counter_on_regular_loop(self):
        from repro.branch import TwoBitCounter, TwoLevelLocal

        trips = 5  # loop: T*4 then N, repeated
        outcomes = ([True] * (trips - 1) + [False]) * 40
        predictor = TwoLevelLocal(num_branches=16, history_bits=6)
        counter = TwoBitCounter()
        two_level = counter_hits = 0
        for outcome in outcomes:
            two_level += predictor.predict(7, 0) == outcome
            predictor.update(7, 0, outcome)
            counter_hits += counter.predict_taken() == outcome
            counter.update(outcome)
        assert two_level > counter_hits

    def test_validation(self):
        from repro.branch import TwoLevelLocal

        with pytest.raises(ValueError):
            TwoLevelLocal(num_branches=100)
        with pytest.raises(ValueError):
            TwoLevelLocal(history_bits=0)
