"""Alternative direction predictors.

The paper's machine models use the 2-bit-counter BTB exclusively; these
extra predictors support the ablation discussed in its related-work
section (POWER2's *static* prediction is weaker than dynamic schemes) and
the concluding remarks (more sophisticated predictors for machines with
high misprediction penalty).

All predictors share the BTB's target cache; they only replace the
*direction* decision for conditional branches.
"""

from __future__ import annotations

from typing import Protocol


class DirectionPredictor(Protocol):
    """Direction prediction for conditional branches."""

    def predict(self, address: int, target: int) -> bool:
        """Predict taken/not-taken for the branch at *address*."""
        ...

    def update(self, address: int, target: int, taken: bool) -> None:
        """Train with a resolved outcome."""
        ...


class StaticBTFNT:
    """Backward-taken / forward-not-taken static prediction.

    Models the flavour of static prediction used by machines like the
    POWER2; loop back-edges predict taken, forward hammocks not-taken.
    """

    def predict(self, address: int, target: int) -> bool:
        return target <= address

    def update(self, address: int, target: int, taken: bool) -> None:
        """Static predictors do not learn."""


class AlwaysTaken:
    """Predict every branch taken (a classic lower-effort baseline)."""

    def predict(self, address: int, target: int) -> bool:
        return True

    def update(self, address: int, target: int, taken: bool) -> None:
        """Static predictors do not learn."""


class TwoLevelLocal:
    """Per-address two-level adaptive predictor (Yeh & Patt; the paper's
    reference [9] develops these for machines with high misprediction
    penalty).

    Level 1: a table of per-branch history registers (last *history_bits*
    outcomes).  Level 2: a shared pattern table of 2-bit counters indexed
    by the history.  Captures periodic patterns (e.g. regular loop trip
    counts) that a single 2-bit counter cannot.
    """

    def __init__(
        self,
        num_branches: int = 1024,
        history_bits: int = 6,
    ) -> None:
        if num_branches <= 0 or num_branches & (num_branches - 1):
            raise ValueError("num_branches must be a power of two")
        if not 1 <= history_bits <= 16:
            raise ValueError("history_bits out of range")
        self.num_branches = num_branches
        self.history_bits = history_bits
        self._branch_mask = num_branches - 1
        self._history_mask = (1 << history_bits) - 1
        self._histories = [0] * num_branches
        # Pattern table: one 2-bit counter per possible history value,
        # initialised weakly taken.
        self._patterns = [2] * (1 << history_bits)

    def _history_of(self, address: int) -> int:
        return self._histories[address & self._branch_mask]

    def predict(self, address: int, target: int) -> bool:
        return self._patterns[self._history_of(address)] >= 2

    def update(self, address: int, target: int, taken: bool) -> None:
        index = address & self._branch_mask
        history = self._histories[index]
        state = self._patterns[history]
        if taken:
            if state < 3:
                self._patterns[history] = state + 1
        elif state > 0:
            self._patterns[history] = state - 1
        self._histories[index] = (
            (history << 1) | int(taken)
        ) & self._history_mask


class GShare:
    """Global-history XOR-indexed 2-bit counter table (McFarling 1993).

    Included as the "more sophisticated predictor" the conclusion points
    to; useful with the shifter collapsing buffer's 3-cycle penalty.
    """

    def __init__(self, num_entries: int = 4096, history_bits: int = 8) -> None:
        if num_entries <= 0 or num_entries & (num_entries - 1):
            raise ValueError("num_entries must be a power of two")
        # History bits beyond the index width never reach the index.
        if not 0 <= history_bits <= num_entries.bit_length() - 1:
            raise ValueError("history_bits out of range")
        self.num_entries = num_entries
        self.history_bits = history_bits
        self._mask = num_entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        # Plain integers (0..3) rather than objects: this table is hot.
        self._table = [2] * num_entries

    def _index(self, address: int) -> int:
        return (address ^ self._history) & self._mask

    def predict(self, address: int, target: int) -> bool:
        return self._table[self._index(address)] >= 2

    def update(self, address: int, target: int, taken: bool) -> None:
        index = self._index(address)
        state = self._table[index]
        if taken:
            if state < 3:
                self._table[index] = state + 1
        elif state > 0:
            self._table[index] = state - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
