"""The scheduling window: reservation stations with Tomasulo renaming.

Entries correspond to generic reservation stations (paper Section 2).
Renaming is performed through tags — here the global sequence number of
the producing in-flight instruction.  The *producer table* is the tag
side of the Messy register file: for each architectural register it holds
the tag of the newest in-flight producer, or ``READY`` when the value is
available in the register file itself.

The window never stores its waiting entries in a scannable list: an
entry with unsatisfied operands is reachable only through the consumer
lists of the tags it waits on, and it moves to the *ready list* when the
last one writes back.  The fire phase therefore touches only ready
entries instead of rescanning the whole window every cycle; occupancy is
a plain counter.
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.regfiles import READY, MessyTagFile
from repro.core.rob import ROBEntry
from repro.isa.registers import NO_REG, NUM_REGS

#: A reservation station IS the in-flight instruction's ROB entry: the
#: separate wrapper object was merged into :class:`ROBEntry` (its
#: ``pending_operands`` / ``ready`` members), halving the per-dispatch
#: allocations.  The old name remains for API compatibility.
WindowEntry = ROBEntry

_BY_SEQ = attrgetter("seq")


class SchedulingWindow:
    """Bounded pool of reservation stations with register renaming."""

    def __init__(self, size: int, num_regs: int = NUM_REGS) -> None:
        if size <= 0:
            raise ValueError("window size must be positive")
        self.size = size
        #: occupied reservation stations (waiting entries live in the
        #: consumer lists, ready entries in ``_ready``).
        self._occupied = 0
        self._ready: list[WindowEntry] = []
        self.messy = MessyTagFile(num_regs)
        # tag -> reservation stations waiting on it
        self._consumers: dict[int, list[WindowEntry]] = {}

    def __len__(self) -> int:
        return self._occupied

    @property
    def full(self) -> bool:
        return self._occupied >= self.size

    # -- dispatch ------------------------------------------------------------

    def dispatch(
        self,
        rob_entry: ROBEntry,
        extra_dependencies: tuple[int, ...] = (),
    ) -> WindowEntry:
        """Insert an instruction, renaming its operands.

        *extra_dependencies* are additional in-flight tags to wait on
        (e.g. memory-ordering edges); the caller must guarantee each tag
        is still in flight, or the entry would never wake.

        Raises ``OverflowError`` when no reservation station is free.
        """
        if self._occupied >= self.size:
            raise OverflowError("scheduling window overflow")
        entry = rob_entry
        instr = rob_entry.instruction
        # Renaming is inlined (rather than via MessyTagFile accessors):
        # this runs once per dynamic instruction and dominates dispatch.
        producer = self.messy._producer
        consumers = self._consumers
        pending = 0
        src = instr.src1
        if src != NO_REG:
            tag = producer[src]
            if tag != READY:
                pending += 1
                consumers.setdefault(tag, []).append(entry)
        src = instr.src2
        if src != NO_REG:
            tag = producer[src]
            if tag != READY:
                pending += 1
                consumers.setdefault(tag, []).append(entry)
        for tag in extra_dependencies:
            pending += 1
            consumers.setdefault(tag, []).append(entry)
        entry.pending_operands = pending
        dest = instr.dest
        if dest != NO_REG:
            producer[dest] = rob_entry.seq
        self._occupied += 1
        if pending == 0:
            self._ready.append(entry)
        return entry

    # -- issue ----------------------------------------------------------------

    def take_ready(self, limit: int | None = None) -> list[WindowEntry]:
        """Remove and return up to *limit* ready entries, oldest first.

        The caller decides (via functional-unit availability) which of the
        returned entries actually issue; entries it cannot issue must be
        handed back through :meth:`put_back`.
        """
        ready = self._ready
        if not ready:
            return []
        ready.sort(key=_BY_SEQ)
        if limit is None or limit >= len(ready):
            taken = ready[:]
            ready.clear()
        else:
            taken = ready[:limit]
            del ready[:limit]
        self._occupied -= len(taken)
        return taken

    def put_back(self, entries: list[WindowEntry]) -> None:
        """Return un-issued ready entries to the window (oldest-first
        order is restored by the sort in the next :meth:`take_ready`)."""
        self._ready.extend(entries)
        self._occupied += len(entries)

    # -- writeback ----------------------------------------------------------------

    def writeback(self, seq: int, dest: int) -> None:
        """Broadcast a completed result: wake consumers, free the tag."""
        ready = self._ready
        for waiter in self._consumers.pop(seq, ()):
            waiter.pending_operands -= 1
            if waiter.pending_operands == 0:
                ready.append(waiter)
        self.messy.writeback(dest, seq)
