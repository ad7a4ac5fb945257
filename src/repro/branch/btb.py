"""The interleaved branch target buffer (paper Figure 5).

A 1024-entry, direct-mapped BTB with a 2-bit counter and a cached target
address per entry.  The buffer is interleaved into as many banks as there
are instructions in a cache block, so one access yields a prediction for
*every* slot of a fetch block simultaneously.  From these per-slot
predictions a chain of comparators derives (a) the bit-pattern of valid
instructions in the block and (b) the successor block address — exactly
the query the interleaved/banked/collapsing fetch schemes need.

Entry allocation happens when a branch resolves taken (or an allocated
entry's branch resolves again); unconditional transfers are flagged so a
hit always predicts taken regardless of the counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.counters import STRONG_NOT_TAKEN, STRONG_TAKEN, WEAK_TAKEN

#: Type-flag bits of a BTB slot (:attr:`BranchTargetBuffer.flags`).
UNCONDITIONAL = 1
CALL = 2
RETURN = 4


@dataclass(slots=True)
class BTBPrediction:
    """Prediction for a single instruction address.

    Attributes:
        hit: Entry present for this address.
        taken: Predicted taken (False on miss: fall through).
        target: Cached target address (-1 on miss).
        is_conditional: Entry records a conditional branch.
        is_call / is_return: Entry records a call / return (used by the
            optional return-address-stack extension).
    """

    hit: bool
    taken: bool
    target: int
    is_conditional: bool = False
    is_call: bool = False
    is_return: bool = False


#: Shared miss prediction: returned for every BTB miss.  Treated as
#: immutable by all callers (they replace predictions, never mutate).
_MISS = BTBPrediction(hit=False, taken=False, target=-1)


@dataclass(slots=True)
class BTBStats:
    """Lookup/update counters."""

    lookups: int = 0
    hits: int = 0
    updates: int = 0
    allocations: int = 0


class BranchTargetBuffer:
    """Direct-mapped, bank-interleaved BTB with 2-bit counters.

    The table is stored as parallel lists of length *num_entries*, one
    element per slot: ``tags`` (-1 when invalid), ``targets``, 2-bit
    counter ``states``, type ``flags`` (:data:`UNCONDITIONAL`,
    :data:`CALL`, :data:`RETURN`) and ``predictions``, a memo of each
    slot's hit prediction that :meth:`update` and :meth:`flush` clear.
    Bank *b* owns slots ``b * entries_per_bank`` onwards (see
    :meth:`slot`).  The lists are only ever modified in place, so a
    reference taken once stays current.
    """

    def __init__(self, num_entries: int = 1024, interleave: int = 4) -> None:
        if num_entries <= 0 or interleave <= 0:
            raise ValueError("num_entries and interleave must be positive")
        if num_entries % interleave:
            raise ValueError("num_entries must be a multiple of the interleave")
        self.num_entries = num_entries
        self.interleave = interleave
        self.entries_per_bank = num_entries // interleave
        self.tags = [-1] * num_entries
        self.targets = [-1] * num_entries
        self.states = [WEAK_TAKEN] * num_entries
        self.flags = [0] * num_entries
        self.predictions: list[BTBPrediction | None] = [None] * num_entries
        self.stats = BTBStats()

    # -- address mapping -----------------------------------------------------

    def slot(self, address: int) -> int:
        """Slot of *address*: bank = slot within block, direct-mapped
        within the bank."""
        epb = self.entries_per_bank
        return (address % self.interleave) * epb + (
            address // self.interleave
        ) % epb

    # -- prediction ------------------------------------------------------------

    def predict(self, address: int) -> BTBPrediction:
        """Predict the instruction at *address* (one bank lookup)."""
        stats = self.stats
        stats.lookups += 1
        # slot() inlined: this is called for every planned fetch slot.
        interleave = self.interleave
        epb = self.entries_per_bank
        slot = (address % interleave) * epb + (address // interleave) % epb
        # Addresses are non-negative, so an invalid slot (tag -1) can
        # never equal one — the tag comparison covers the valid check.
        if self.tags[slot] != address:
            return _MISS
        stats.hits += 1
        prediction = self.predictions[slot]
        if prediction is None:
            flags = self.flags[slot]
            unconditional = flags & UNCONDITIONAL != 0
            prediction = self.predictions[slot] = BTBPrediction(
                hit=True,
                taken=unconditional or self.states[slot] >= WEAK_TAKEN,
                target=self.targets[slot],
                is_conditional=not unconditional,
                is_call=flags & CALL != 0,
                is_return=flags & RETURN != 0,
            )
        return prediction

    def predict_block(self, block_start: int) -> list[BTBPrediction]:
        """Predict every slot of the cache block starting at *block_start*.

        Models the single interleaved access of Figure 5: all banks are
        read in parallel, one slot each.
        """
        return [self.predict(block_start + slot) for slot in range(self.interleave)]

    # -- training ---------------------------------------------------------------

    def update(
        self,
        address: int,
        taken: bool,
        target: int,
        is_unconditional: bool = False,
        is_call: bool = False,
        is_return: bool = False,
    ) -> int:
        """Train the BTB with a resolved branch.

        Entries are allocated on taken branches; a not-taken branch only
        trains an already-present entry (standard BTB fill policy).  The
        counter saturates as :class:`~repro.branch.counters.TwoBitCounter`
        does; a fresh allocation starts strongly taken (weakly taken,
        trained once on the taken outcome).

        Returns the trained slot when its *planning-effective* state
        changed, else -1.  That state is ``(tag, target)`` while the slot
        predicts taken and one "falls through" class otherwise: it is all
        a fetch plan of a unit without a direction predictor or return
        stack reads, so counter re-trains inside one class, target
        changes of a not-taken entry and not-taken misses return -1.
        """
        self.stats.updates += 1
        slot = self.slot(address)
        self.predictions[slot] = None
        flags = (
            (UNCONDITIONAL if is_unconditional else 0)
            | (CALL if is_call else 0)
            | (RETURN if is_return else 0)
        )
        if self.tags[slot] == address:
            state = self.states[slot]
            was_taken = self.flags[slot] & UNCONDITIONAL != 0 or state >= WEAK_TAKEN
            moved = False
            if taken:
                if state < STRONG_TAKEN:
                    state = self.states[slot] = state + 1
                moved = self.targets[slot] != target
                self.targets[slot] = target
            elif state > STRONG_NOT_TAKEN:
                state = self.states[slot] = state - 1
            self.flags[slot] = flags
            is_taken = flags & UNCONDITIONAL != 0 or state >= WEAK_TAKEN
            return slot if was_taken != is_taken or (is_taken and moved) else -1
        if taken:
            # Allocate (direct-mapped: unconditionally replace).
            self.tags[slot] = address
            self.targets[slot] = target
            self.states[slot] = STRONG_TAKEN
            self.flags[slot] = flags
            self.stats.allocations += 1
            return slot
        return -1

    def flush(self) -> None:
        """Invalidate all entries (statistics preserved)."""
        n = self.num_entries
        self.tags[:] = [-1] * n
        self.targets[:] = [-1] * n
        self.states[:] = [WEAK_TAKEN] * n
        self.flags[:] = [0] * n
        self.predictions[:] = [None] * n
