"""Slot-level stall attribution — the paper's accounting, made explicit.

Every cycle a machine offers ``issue_rate`` issue slots; the whole paper
is an argument about where those slots go.  This module charges each
slot of each cycle to exactly one cause, so that over any run

``sum(attribution.values()) == cycles * issue_rate``

holds bit-exactly (the conservation invariant ``tests/test_telemetry.py``
asserts across schemes and machines).  The taxonomy:

=====================  =========================================================
``delivered``          Slot carried a correct-path instruction to decode.
``taken_branch_break`` Fetch run ended at a predicted-taken branch the scheme
                       cannot fetch past (the paper's headline loss).
``misalignment``       Run ended at a cache-block boundary (or a structural
                       line limit) with no branch involved.
``bank_conflict``      The successor block mapped to the busy bank, so the
                       second fetch was dropped (banked/collapsing schemes).
``icache_miss``        Fetch stalled on a miss fill, or the run truncated at a
                       missing successor block.
``mispredict_resolve`` Fetch idled waiting for a mispredicted branch to resolve
                       or sat out the post-resolution restart penalty; also the
                       slots lost when delivery truncated at the misprediction.
``queue_full``         The decoupling queue had no room for a fetch group while
                       the core itself could still accept work.
``window_full``        Core backpressure: the scheduling window/ROB was full or
                       speculation depth was exhausted, so the full queue could
                       not drain.
``idle``               The trace is fully fetched; the core is draining.
=====================  =========================================================

The per-cycle *classification* lives here too, in one method,
:meth:`SlotObserver.classify`.  Both observers of the reference loop
(``Simulator.run_reference``) — telemetry's slot ledger and the
pipetrace recorder — call it, so they agree on precedence by
construction.
"""

from __future__ import annotations

from repro.isa.opcodes import OpClass

#: All causes, report order: useful work first, fetch-side losses,
#: core-side losses, drain.
CAUSES: tuple[str, ...] = (
    "delivered",
    "taken_branch_break",
    "misalignment",
    "bank_conflict",
    "icache_miss",
    "mispredict_resolve",
    "queue_full",
    "window_full",
    "idle",
)

#: ``FetchPlan.break_reason`` values -> attribution causes for the slots
#: a short delivery leaves empty.  An unset reason (a third-party scheme
#: that never learned to report one) conservatively reads as
#: misalignment.
BREAK_REASON_CAUSE: dict[str, str] = {
    "taken_branch": "taken_branch_break",
    "alignment": "misalignment",
    "bank_conflict": "bank_conflict",
    "cache_miss": "icache_miss",
    "full": "misalignment",
    "": "misalignment",
}


class SlotAttribution:
    """Per-run slot ledger.  Charge exactly once per cycle."""

    __slots__ = ("issue_rate", "counts")

    def __init__(self, issue_rate: int) -> None:
        self.issue_rate = issue_rate
        self.counts: dict[str, int] = dict.fromkeys(CAUSES, 0)

    def charge(self, delivered: int, cause: str) -> None:
        """Charge one cycle: *delivered* slots did work, the remaining
        ``issue_rate - delivered`` slots are lost to *cause*."""
        counts = self.counts
        if delivered:
            counts["delivered"] += delivered
        shortfall = self.issue_rate - delivered
        if shortfall:
            counts[cause] += shortfall


class SlotObserver:
    """Base of the observers of ``Simulator.run_reference``: telemetry's
    slot ledger and the pipetrace recorder.  :meth:`classify` is the one
    rule for where a cycle's fetch slots went."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.issue_rate = sim.config.issue_rate
        self.queue_capacity = sim.config.fetch_queue_groups * self.issue_rate
        #: Cause for cycles fetch sits out a timed block: set by a branch
        #: restart's penalty, or by an I-cache miss stall.
        self.blocked_cause = ""

    def classify(
        self, cycle, restarted, result, queue, waiting, blocked_until
    ) -> tuple[str, int, str]:
        """``(stall, delivered, cause)`` for one cycle of the reference
        loop: the pipetrace stall label, the slots that carried an
        instruction, and the cause the rest are charged to.

        A fetch (*result* not ``None``) is charged by its result: a
        short delivery by why the run ended, or to the misprediction it
        truncated at.  Otherwise the first gate that held fetch is
        charged (an unfetched cycle leaves the gate state as it was):
        queue capacity, then misprediction resolution, then the timed
        fetch-blocked penalty, then trace drain (``idle``).
        """
        if restarted:
            self.blocked_cause = "mispredict_resolve"
        if result is not None:
            if result.stall_cycles:
                self.blocked_cause = "icache_miss"
                return "miss", 0, "icache_miss"
            cause = BREAK_REASON_CAUSE.get(result.break_reason, "misalignment")
            if result.mispredict:  # truncated at the misprediction
                cause = "mispredict_resolve"
            return "", len(result.instructions), cause
        if len(queue) + self.issue_rate > self.queue_capacity:
            # The queue drains each cycle until its head blocks, so a full
            # queue is core backpressure (``window_full``: window or ROB
            # full, or speculation depth refusing a branch at the head)
            # unless the head could still dispatch.  Reads core state
            # directly: ``can_dispatch`` would charge stall counters.
            core = self.sim.core
            head = self.sim.trace.instructions[queue[0].trace_index] if queue else None
            if (
                core.window.full
                or core.rob.full
                or (
                    head is not None
                    and head.op is OpClass.BR_COND
                    and core.unresolved_branches >= core.config.speculation_depth
                )
            ):
                return "queue", 0, "window_full"
            return "queue", 0, "queue_full"
        if waiting:
            return "resolve", 0, "mispredict_resolve"
        if cycle < blocked_until:
            return "penalty", 0, self.blocked_cause or "mispredict_resolve"
        return "", 0, "idle"  # trace drained; the core is still retiring


def check_conservation(
    attribution: dict[str, int], cycles: int, issue_rate: int
) -> None:
    """Raise ``AssertionError`` unless the ledger sums to
    ``cycles * issue_rate`` with no negative entries."""
    negative = {c: n for c, n in attribution.items() if n < 0}
    if negative:
        raise AssertionError(f"negative slot attribution: {negative}")
    total = sum(attribution.values())
    expected = cycles * issue_rate
    if total != expected:
        raise AssertionError(
            f"slot attribution sums to {total}, expected "
            f"{cycles} cycles x {issue_rate} slots = {expected}"
        )
