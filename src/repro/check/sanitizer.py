"""Opt-in runtime checkers: packet legality and pipeline invariants.

Two cooperating pieces:

* :class:`PacketChecker` hangs off a fetch unit (``unit.checker``) and
  verifies every *delivered* fetch packet against the scheme's
  declarative rules (:mod:`repro.check.rules`) — it sees the packets of
  both simulator loops and of the fetch-only EIR harness, because the
  hook lives in ``FetchUnit.fetch_cycle``.
* :class:`PipelineSanitizer` is created by the simulator when
  ``REPRO_SANITIZE=1`` (or ``sanitize=True``) and asserts cheap core
  invariants every cycle — retirement monotonic, fetch-queue range
  inside the trace, occupancy counters in bounds — plus a periodic
  *deep* pass (every :data:`DEEP_PERIOD`, 64, cycles)
  that cross-checks the window's ready/waiting contents and the ROB
  against the counters the fast path maintains incrementally.

Both only *read* simulator state (cache probes, no stat-recording
accesses), so a sanitized run produces bit-identical ``SimStats`` — the
guarantee ``tests/test_check.py`` locks in.
"""

from __future__ import annotations

from repro import knobs
from repro.check.errors import CheckError, CheckFailure
from repro.check.rules import SchemeRules, check_packet, rules_for
from repro.core.rob import EntryState
from repro.isa.opcodes import OpClass

#: Cycle period of the deep (O(window + ROB)) invariant pass, read when
#: a :class:`PipelineSanitizer` is built.
DEEP_PERIOD = 64


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests the opt-in sanitizer."""
    return knobs.enabled("REPRO_SANITIZE")


class PacketChecker:
    """Checks delivered fetch packets against one scheme's rule record.

    Attach to a fetch unit via ``unit.checker``; the unit calls
    :meth:`check_plan` for every non-stall plan.  With *collect* the
    violations accumulate there (lint mode); without it the first
    violation raises :class:`CheckFailure` (sanitizer mode).
    """

    def __init__(
        self,
        rules: SchemeRules,
        subject: str = "",
        collect: list[CheckError] | None = None,
    ) -> None:
        self.rules = rules
        self.subject = subject or rules.scheme
        self.collect = collect
        self.packets_checked = 0
        self.violations = 0

    @classmethod
    def for_unit(cls, unit, subject: str = "", collect=None) -> "PacketChecker":
        """Build a checker for *unit* and attach it (``unit.checker``).

        The rules are looked up by ``unit.name``, not taken from
        ``unit.rules``: the trace cache plans its misses by interleaved
        sequential's rules, but its packets are checked against its own.
        """
        checker = cls(rules_for(unit.name), subject=subject, collect=collect)
        unit.checker = checker
        return checker

    def check_plan(self, unit, fetch_address: int, plan, limit: int) -> None:
        """Verify one planned packet (called from ``fetch_cycle``)."""
        self.packets_checked += 1
        errors = check_packet(
            self.rules,
            plan.addresses,
            fetch_address=fetch_address,
            limit=limit,
            words_per_block=unit.block_words,
            num_banks=unit.num_banks,
            subject=self.subject,
        )
        if errors:
            self.violations += len(errors)
            if self.collect is None:
                raise CheckFailure(errors)
            self.collect.extend(errors)


class PipelineSanitizer:
    """Cycle-level invariant checks over a running :class:`Simulator`.

    Construction attaches a :class:`PacketChecker` to the simulator's
    fetch unit; the simulator calls :meth:`on_cycle` once per simulated
    cycle and :meth:`on_finish` when the run completes.  Any violation
    raises :class:`CheckFailure` immediately — regressions are caught in
    O(cycles) instead of via a reference-run comparison.
    """

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self.core = simulator.core
        self.total = len(simulator.trace.instructions)
        config = simulator.config
        self.queue_capacity = config.fetch_queue_groups * config.issue_rate
        self.deep_period = DEEP_PERIOD
        self.subject = (
            f"{simulator.trace.name}/{config.name}/{simulator.fetch_unit.name}"
        )
        self.packet_checker = PacketChecker.for_unit(
            simulator.fetch_unit, subject=self.subject
        )
        self.cycles_checked = 0
        self.deep_checks = 0
        self._last_retired = 0
        self._last_dispatch_head = 0
        self._last_head_seq = -1

    def _fail(self, code: str, message: str) -> None:
        raise CheckFailure([CheckError(code, self.subject, message)])

    # -- per-cycle (O(1)) ----------------------------------------------------

    def on_cycle(self, cycle: int, position: int, dispatch_head: int) -> None:
        """Cheap invariants, run every simulated cycle."""
        self.cycles_checked += 1
        core = self.core
        stats = core.stats
        retired = stats.retired
        if retired < self._last_retired:
            self._fail(
                "S001",
                f"cycle {cycle}: retired count fell from "
                f"{self._last_retired} to {retired}",
            )
        self._last_retired = retired
        if retired > stats.dispatched:
            self._fail(
                "S001",
                f"cycle {cycle}: retired {retired} exceeds dispatched "
                f"{stats.dispatched}",
            )
        if dispatch_head < self._last_dispatch_head:
            self._fail(
                "S003",
                f"cycle {cycle}: dispatch head moved backwards "
                f"({self._last_dispatch_head} -> {dispatch_head})",
            )
        self._last_dispatch_head = dispatch_head
        if not 0 <= dispatch_head <= position <= self.total:
            self._fail(
                "S003",
                f"cycle {cycle}: fetch-queue range [{dispatch_head}, "
                f"{position}) outside the {self.total}-instruction trace",
            )
        if position - dispatch_head > self.queue_capacity:
            self._fail(
                "S003",
                f"cycle {cycle}: {position - dispatch_head} queued "
                f"instructions exceed the {self.queue_capacity}-deep "
                "decoupling queue",
            )
        rob = core.rob
        if len(rob._entries) > rob.capacity:
            self._fail(
                "S006",
                f"cycle {cycle}: ROB holds {len(rob._entries)} entries, "
                f"capacity {rob.capacity}",
            )
        window = core.window
        if not 0 <= window._occupied <= window.size:
            self._fail(
                "S002",
                f"cycle {cycle}: window occupancy {window._occupied} "
                f"outside [0, {window.size}]",
            )
        if len(window._ready) > window._occupied:
            self._fail(
                "S002",
                f"cycle {cycle}: {len(window._ready)} ready entries "
                f"exceed occupancy {window._occupied}",
            )
        if core.unresolved_branches < 0:
            self._fail(
                "S004",
                f"cycle {cycle}: unresolved-branch counter is "
                f"{core.unresolved_branches}",
            )
        if self.cycles_checked % self.deep_period == 0:
            self._deep_check(cycle)

    # -- periodic deep pass (O(window + ROB)) --------------------------------

    def _deep_check(self, cycle: int) -> None:
        self.deep_checks += 1
        core = self.core
        window = core.window
        waiting_ids: set[int] = set()
        for waiters in window._consumers.values():
            for entry in waiters:
                if entry.pending_operands <= 0:
                    self._fail(
                        "S002",
                        f"cycle {cycle}: entry seq {entry.seq} sits in a "
                        "consumer list with no pending operands",
                    )
                waiting_ids.add(id(entry))
        expected = len(window._ready) + len(waiting_ids)
        if window._occupied != expected:
            self._fail(
                "S002",
                f"cycle {cycle}: window occupancy {window._occupied} != "
                f"{len(window._ready)} ready + {len(waiting_ids)} waiting",
            )
        for entry in window._ready:
            if entry.pending_operands != 0:
                self._fail(
                    "S002",
                    f"cycle {cycle}: ready entry seq {entry.seq} still has "
                    f"{entry.pending_operands} pending operands",
                )
        entries = core.rob._entries
        unresolved = 0
        previous_seq = -1
        done = EntryState.DONE
        br_cond = OpClass.BR_COND
        for entry in entries:
            if entry.seq <= previous_seq:
                self._fail(
                    "S005",
                    f"cycle {cycle}: ROB seq {entry.seq} follows "
                    f"{previous_seq}",
                )
            previous_seq = entry.seq
            if entry.instruction.op is br_cond and entry.state is not done:
                unresolved += 1
        if unresolved != core.unresolved_branches:
            self._fail(
                "S004",
                f"cycle {cycle}: {unresolved} unresolved branches in the "
                f"ROB, counter says {core.unresolved_branches}",
            )
        if entries:
            head_seq = entries[0].seq
            if head_seq < self._last_head_seq:
                self._fail(
                    "S001",
                    f"cycle {cycle}: ROB head seq {head_seq} regressed "
                    f"below {self._last_head_seq}",
                )
            self._last_head_seq = head_seq

    # -- end of run ----------------------------------------------------------

    def on_finish(self, cycle: int) -> None:
        """Final drain checks after the run loop exits."""
        core = self.core
        if core.stats.retired != self.total:
            self._fail(
                "S001",
                f"run ended at cycle {cycle} with {core.stats.retired} of "
                f"{self.total} instructions retired",
            )
        if core.rob._entries or core._inflight or core.window._occupied:
            self._fail(
                "S007",
                f"run ended at cycle {cycle} with undrained state: "
                f"{len(core.rob._entries)} ROB entries, "
                f"{len(core._inflight)} in flight, "
                f"{core.window._occupied} window entries",
            )
        if core.unresolved_branches != 0:
            self._fail(
                "S004",
                f"run ended with unresolved-branch counter at "
                f"{core.unresolved_branches}",
            )
