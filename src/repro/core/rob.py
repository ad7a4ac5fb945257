"""Reorder buffer: precise in-order retirement (paper Section 2).

The Messy register file alone would limit the machine to imprecise
interrupts; the reorder buffer remedies this, and retirement from it
defines the paper's performance metric (IPC = instructions retired per
cycle).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.isa.instruction import Instruction


class EntryState(enum.IntEnum):
    """Lifecycle of an in-flight instruction."""

    WAITING = 0  #: in the scheduling window, operands not all ready
    EXECUTING = 1  #: issued to a functional unit
    DONE = 2  #: result written back; eligible to retire


@dataclass(slots=True, eq=False)
class ROBEntry:
    """One in-flight dynamic instruction.

    Attributes:
        seq: Global dynamic sequence number; doubles as the Tomasulo tag.
        instruction: The static instruction.
        trace_index: Position in the dynamic trace.
        state: Execution state.
        fetch_mispredicted: The fetch unit flagged this control transfer
            as mispredicted; its resolution restarts fetch.
        actual_taken / actual_target: Resolved outcome of a control
            transfer (recorded at dispatch from the trace oracle, observed
            by the predictors only at writeback).
        pending_operands: Unsatisfied source operands while the entry
            sits in the scheduling window (the entry doubles as its own
            reservation station — one object per in-flight instruction).
    """

    seq: int
    instruction: Instruction
    trace_index: int
    state: EntryState = EntryState.WAITING
    fetch_mispredicted: bool = False
    actual_taken: bool = False
    actual_target: int = -1
    pending_operands: int = 0

    @property
    def ready(self) -> bool:
        """All operands available; eligible to fire."""
        return self.pending_operands == 0

    @property
    def rob_entry(self) -> "ROBEntry":
        """The window-entry view is the ROB entry itself (the separate
        wrapper object was merged away); kept for API compatibility."""
        return self


class ReorderBuffer:
    """Bounded FIFO of in-flight instructions with in-order retirement."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: deque[ROBEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def append(self, entry: ROBEntry) -> None:
        if self.full:
            raise OverflowError("reorder buffer overflow")
        self._entries.append(entry)

    def retire(self, width: int) -> list[ROBEntry]:
        """Retire up to *width* completed entries from the head, in order."""
        retired: list[ROBEntry] = []
        while (
            len(retired) < width
            and self._entries
            and self._entries[0].state is EntryState.DONE
        ):
            retired.append(self._entries.popleft())
        return retired
