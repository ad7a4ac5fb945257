"""The out-of-order execution core (paper Figure 1).

Full-Tomasulo engine: fetch delivers into the scheduling window (via the
simulator), independent instructions fire to functional units, results
return over the result buses, and the reorder buffer retires in order.
The core never sees wrong-path instructions — in the trace-driven harness
fetch stops at a mispredicted branch — so recovery is purely a fetch-side
stall until the flagged branch resolves here.

Per-cycle phase order (driven by the simulator, reverse pipeline order to
avoid same-cycle races): retire -> writeback -> fire -> dispatch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.regfiles import READY, FutureFile
from repro.core.rob import EntryState, ReorderBuffer, ROBEntry
from repro.core.units import FunctionalUnits, ResultBuses
from repro.core.window import SchedulingWindow
from repro.isa.registers import NO_REG
from repro.isa.instruction import Instruction
from repro.isa.opcodes import LATENCY_FOR_OP, UNIT_FOR_OP, OpClass
from repro.machines.config import MachineConfig


@dataclass(slots=True)
class CoreStats:
    """Aggregate execution-core statistics."""

    retired: int = 0
    dispatched: int = 0
    window_full_stalls: int = 0
    speculation_stalls: int = 0


class ExecutionCore:
    """Tomasulo out-of-order core with a reorder buffer."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.window = SchedulingWindow(config.window_size)
        self.rob = ReorderBuffer(config.rob_size)
        self.units = FunctionalUnits(config)
        self.buses = ResultBuses(config.num_result_buses)
        self.future_file = FutureFile()
        self.stats = CoreStats()
        #: min-heap of (result_cycle, seq, entry) awaiting writeback.
        self._inflight: list[tuple[int, int, ROBEntry]] = []
        #: unresolved conditional branches in flight (speculation depth).
        self.unresolved_branches = 0
        self._next_seq = 0
        #: last store still in flight (memory_ordering="conservative").
        self._pending_store_seq = -1
        self._conservative = config.memory_ordering == "conservative"

    # -- dispatch ------------------------------------------------------------

    def can_dispatch(self, instruction: Instruction) -> bool:
        """True if *instruction* may enter the window this cycle.

        Blocked by a full window, a full ROB, or — for a conditional
        branch — the machine's speculation depth (PI4 speculates beyond 2
        branches, PI8 beyond 4, PI12 beyond 6).
        """
        window = self.window
        rob = self.rob
        if (
            window._occupied >= window.size
            or len(rob._entries) >= rob.capacity
        ):
            self.stats.window_full_stalls += 1
            return False
        if (
            instruction.op is OpClass.BR_COND
            and self.unresolved_branches >= self.config.speculation_depth
        ):
            self.stats.speculation_stalls += 1
            return False
        return True

    def dispatch(
        self,
        instruction: Instruction,
        trace_index: int,
        fetch_mispredicted: bool = False,
        actual_taken: bool = False,
        actual_target: int = -1,
    ) -> ROBEntry:
        """Enter *instruction* into the window and ROB.

        Call :meth:`can_dispatch` first; this raises on overflow.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = ROBEntry(
            seq,
            instruction,
            trace_index,
            EntryState.WAITING,
            fetch_mispredicted,
            actual_taken,
            actual_target,
        )
        # ROB append inlined (overflow already excluded by can_dispatch).
        rob_entries = self.rob._entries
        if len(rob_entries) >= self.rob.capacity:
            raise OverflowError("reorder buffer overflow")
        rob_entries.append(entry)
        op = instruction.op
        extra: tuple[int, ...] = ()
        if self._conservative:
            if (
                op in (OpClass.LOAD, OpClass.STORE)
                and self._pending_store_seq >= 0
            ):
                # No disambiguation hardware: memory operations wait for
                # the previous store to complete.
                extra = (self._pending_store_seq,)
            if op is OpClass.STORE:
                self._pending_store_seq = seq
        self.window.dispatch(entry, extra)
        if op is OpClass.BR_COND:
            self.unresolved_branches += 1
        self.stats.dispatched += 1
        return entry

    # -- cycle phases ------------------------------------------------------------

    def do_retire(self, cycle: int) -> list[ROBEntry]:
        """Retire up to the retire width from the ROB head, updating the
        Future file (precise state)."""
        entries = self.rob._entries
        width = self.config.retire_width
        done = EntryState.DONE
        retired: list[ROBEntry] = []
        while len(retired) < width and entries and entries[0].state is done:
            retired.append(entries.popleft())
        last_writer = self.future_file._last_retired_writer
        for entry in retired:
            dest = entry.instruction.dest
            if dest != NO_REG:
                last_writer[dest] = entry.seq
        self.stats.retired += len(retired)
        return retired

    def do_writeback(self, cycle: int) -> list[ROBEntry]:
        """Complete executions whose results are due, bus-arbitrated.

        Returns the completed entries (control transfers among them have
        *resolved*; the simulator trains the BTB and restarts fetch for
        flagged mispredictions).
        """
        inflight = self._inflight
        heappop = heapq.heappop
        window = self.window
        consumers = window._consumers
        producer = window.messy._producer
        ready_append = window._ready.append
        num_buses = self.buses.num_buses
        done = EntryState.DONE
        br_cond = OpClass.BR_COND
        completed: list[ROBEntry] = []
        # Pop due completions oldest-first straight off the heap; counting
        # every due entry up front would rescan the whole in-flight list
        # each cycle.  Bus arbitration grants the `num_buses` oldest.
        while len(completed) < num_buses and inflight and inflight[0][0] <= cycle:
            _, seq, entry = heappop(inflight)
            entry.state = done
            # window.writeback inlined: wake the consumers, free the tag.
            waiters = consumers.pop(seq, None)
            if waiters:
                for waiter in waiters:
                    waiter.pending_operands -= 1
                    if waiter.pending_operands == 0:
                        ready_append(waiter)
            instruction = entry.instruction
            dest = instruction.dest
            if dest != NO_REG and producer[dest] == seq:
                producer[dest] = READY
            if instruction.op is br_cond:
                self.unresolved_branches -= 1
            if seq == self._pending_store_seq:
                self._pending_store_seq = -1
            completed.append(entry)
        if inflight and inflight[0][0] <= cycle:
            # Surplus completions slip to the next cycle (rare); only then
            # is the full scan needed, for the contention statistics.
            self.buses.grant(
                len(completed) + sum(1 for item in inflight if item[0] <= cycle)
            )
        return completed

    def do_fire(self, cycle: int) -> int:
        """Issue ready window entries to free functional units.

        Returns the number fired.  Oldest-ready-first arbitration.
        """
        units = self.units
        # begin_cycle + try_issue inlined: one dict probe per ready entry.
        used = units._used
        for unit_type in used:
            used[unit_type] = 0
        ready = self.window.take_ready()
        if not ready:
            return 0
        capacity = units.capacity
        unit_stats = units.stats
        issues = unit_stats.issues
        unit_for_op = UNIT_FOR_OP
        heappush = heapq.heappush
        inflight = self._inflight
        latency_for_op = LATENCY_FOR_OP
        executing = EntryState.EXECUTING
        not_issued = []
        fired = 0
        for entry in ready:
            op = entry.instruction.op
            unit_type = unit_for_op[op]
            if used[unit_type] < capacity[unit_type]:
                used[unit_type] += 1
                issues[unit_type] += 1
                entry.state = executing
                heappush(inflight, (cycle + latency_for_op[op], entry.seq, entry))
                fired += 1
            else:
                unit_stats.structural_stalls += 1
                not_issued.append(entry)
        if not_issued:
            self.window.put_back(not_issued)
        return fired

    # -- state -----------------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """True when nothing is in flight."""
        return self.rob.empty

    @property
    def retired_count(self) -> int:
        return self.stats.retired
