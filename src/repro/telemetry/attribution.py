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

The per-cycle *rule* lives here too, in two functions of flat facts:
:func:`fetch_cause` charges a cycle that fetched and :func:`gate_cause`
one whose fetch was gated (queue, then resolution, then penalty, then
idle).  Every engine calls them: the compiled kernel
(:mod:`repro.sim.kernel`) for each cycle it iterates and, in bulk, for
each span it skips, and :meth:`SlotObserver.classify` for the observers
of the reference loop (``Simulator.run_reference``), telemetry's slot
ledger and the pipetrace recorder.  So all of them agree on precedence
by construction.
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


#: Ledger index of each cause (its position in :data:`CAUSES`).  The
#: engines charge slots by index: a compiled plan record or tape entry
#: carries the index of its short delivery's cause.
CAUSE_INDEX: dict[str, int] = {cause: i for i, cause in enumerate(CAUSES)}
DELIVERED = CAUSE_INDEX["delivered"]
ICACHE_MISS = CAUSE_INDEX["icache_miss"]
MISPREDICT_RESOLVE = CAUSE_INDEX["mispredict_resolve"]
QUEUE_FULL = CAUSE_INDEX["queue_full"]
WINDOW_FULL = CAUSE_INDEX["window_full"]
IDLE = CAUSE_INDEX["idle"]


def break_cause(break_reason: str) -> int:
    """Index of the cause a plan's ``break_reason`` charges its short
    delivery to (:data:`BREAK_REASON_CAUSE`; unknown reasons read as
    misalignment)."""
    return CAUSE_INDEX[BREAK_REASON_CAUSE.get(break_reason, "misalignment")]


def fetch_cause(stall: bool, mispredict: bool, short_cause: int) -> int:
    """Cause of the empty slots of a cycle that fetched: a stall is an
    I-cache miss, a delivery truncated at its misprediction waits on the
    resolution, any other short delivery is charged to why its plan
    ended (*short_cause*, see :func:`break_cause`)."""
    if stall:
        return ICACHE_MISS
    if mispredict:
        return MISPREDICT_RESOLVE
    return short_cause


def gate_cause(
    queue_full: bool,
    backpressure: bool,
    waiting: bool,
    penalty: bool,
    blocked_cause: int,
) -> tuple[str, int]:
    """``(stall label, cause)`` of a cycle whose fetch was gated, from
    the gate state after the cycle's fetch phase: the first gate that
    held fetch is charged.

    * *queue_full*: the decoupling queue has no room for a fetch group.
      That is core backpressure (``window_full``) when *backpressure*
      holds — window or ROB full, or the conditional branch at the queue
      head refused by the speculation depth — else ``queue_full``.
    * *waiting*: a mispredicted branch is unresolved.
    * *penalty*: the cycle is before the fetch-blocked cycle, charged to
      *blocked_cause*, the cause that last set it (a branch restart's
      penalty or an I-cache miss stall).
    * Otherwise the trace is fully fetched and the core drains.
    """
    if queue_full:
        return "queue", WINDOW_FULL if backpressure else QUEUE_FULL
    if waiting:
        return "resolve", MISPREDICT_RESOLVE
    if penalty:
        return "penalty", blocked_cause
    return "", IDLE


class SlotAttribution:
    """Per-run slot ledger, charged by cause index: one charge per cycle
    (or per span of cycles charged alike).

    ``slots`` counts slots per cause over the measured region (reset at
    the warmup snapshot); ``deliveries`` counts the run's fetch cycles
    by instructions delivered (a stall delivers zero).
    """

    __slots__ = ("issue_rate", "slots", "deliveries")

    def __init__(self, issue_rate: int) -> None:
        self.issue_rate = issue_rate
        self.slots = [0] * len(CAUSES)
        self.deliveries = [0] * (issue_rate + 1)

    def restart(self) -> None:
        """Measure from here on (the warmup snapshot)."""
        self.slots = [0] * len(CAUSES)

    def charge(self, delivered: int, cause: int, cycles: int = 1) -> None:
        """Charge *cycles* cycles alike: *delivered* slots each did work,
        the remaining ``issue_rate - delivered`` are lost to *cause*."""
        slots = self.slots
        if delivered:
            slots[DELIVERED] += delivered * cycles
        slots[cause] += (self.issue_rate - delivered) * cycles

    def fetched(self, delivered: int, cause: int) -> None:
        """Charge one cycle that fetched, and count the fetch."""
        self.deliveries[delivered] += 1
        self.charge(delivered, cause)

    @property
    def counts(self) -> dict[str, int]:
        """The measured slots per cause name, in :data:`CAUSES` order."""
        return dict(zip(CAUSES, self.slots))


class SlotObserver:
    """Base of the observers of ``Simulator.run_reference``: telemetry's
    slot ledger and the pipetrace recorder.  :meth:`classify` reads the
    reference loop's objects into the flat facts of :func:`fetch_cause`
    and :func:`gate_cause`."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.issue_rate = sim.config.issue_rate
        self.queue_capacity = sim.config.fetch_queue_groups * self.issue_rate
        #: Cause for cycles fetch sits out a timed block: set by a branch
        #: restart's penalty, or by an I-cache miss stall.
        self.blocked_cause = MISPREDICT_RESOLVE

    def classify(
        self, cycle, restarted, result, queue, waiting, blocked_until
    ) -> tuple[str, int, int]:
        """``(stall, delivered, cause)`` for one cycle of the reference
        loop: the pipetrace stall label, the slots that carried an
        instruction, and the index of the cause the rest are charged to.

        A fetch (*result* not ``None``) is charged by its result;
        otherwise by the gate that held fetch (an unfetched cycle leaves
        the gate state as it was).
        """
        if restarted:
            self.blocked_cause = MISPREDICT_RESOLVE
        if result is not None:
            stall = result.stall_cycles > 0
            if stall:
                self.blocked_cause = ICACHE_MISS
            cause = fetch_cause(
                stall, result.mispredict, break_cause(result.break_reason)
            )
            return ("miss" if stall else ""), len(result.instructions), cause
        # Reads core state directly: ``can_dispatch`` would charge stall
        # counters.
        core = self.sim.core
        head = self.sim.trace.instructions[queue[0].trace_index] if queue else None
        stall, cause = gate_cause(
            len(queue) + self.issue_rate > self.queue_capacity,
            core.window.full
            or core.rob.full
            or (
                head is not None
                and head.op is OpClass.BR_COND
                and core.unresolved_branches >= core.config.speculation_depth
            ),
            waiting,
            cycle < blocked_until,
            self.blocked_cause,
        )
        return stall, 0, cause


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
