"""Cycle-by-cycle pipeline tracing.

Wraps a :class:`~repro.sim.simulator.Simulator` run and records what
happened each cycle — fetch groups, misprediction stalls, dispatches and
retires — as a compact event log.  Intended for debugging fetch schemes
and for teaching (the rendered table makes the paper's alignment effects
visible instruction by instruction).

The tracer is an observer of :meth:`Simulator.run_reference`, the
simulator's per-cycle reference loop: it records each cycle's facts and
charges its slots with the same rule as telemetry's ledger
(:func:`repro.telemetry.attribution.gate_cause` and
:func:`~repro.telemetry.attribution.fetch_cause`, read through
:meth:`~repro.telemetry.attribution.SlotObserver.classify`), so traced
and simulated runs agree cycle for cycle by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fetch.base import FetchUnit
from repro.machines.config import MachineConfig
from repro.sim.simulator import Simulator
from repro.telemetry.attribution import CAUSES, SlotObserver
from repro.workloads.trace import DynamicTrace


@dataclass(slots=True)
class CycleEvents:
    """What happened in one cycle."""

    cycle: int
    fetched: list[int] = field(default_factory=list)  #: delivered addresses
    mispredict: bool = False
    stall: str = ""  #: "", "miss", "resolve", "penalty", "queue"
    dispatched: int = 0
    fired: int = 0
    retired: int = 0
    #: Slot ledger for this cycle: ``delivered`` slots plus the shortfall
    #: charged to one cause; values sum to the machine's issue rate.
    #: Uses the :data:`repro.telemetry.attribution.CAUSES` taxonomy, so
    #: trace totals cross-check against the telemetry ledger.
    attribution: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class PipeTrace:
    """The recorded event log."""

    machine: str
    scheme: str
    events: list[CycleEvents] = field(default_factory=list)

    def attribution_totals(self) -> dict[str, int]:
        """Per-cause slot totals over the whole trace (every cause key
        present, zero-filled).  For a run traced to completion these
        equal the telemetry ledger of a whole-trace run, summing to
        ``cycles * issue_rate``."""
        totals = {cause: 0 for cause in CAUSES}
        for event in self.events:
            for cause, slots in event.attribution.items():
                totals[cause] += slots
        return totals

    def render(self, limit: int | None = 40) -> str:
        """Human-readable table of the first *limit* cycles."""
        lines = [
            f"pipeline trace: {self.scheme} on {self.machine}",
            f"{'cyc':>4} {'fetch group':<30} {'stall':<8} "
            f"{'disp':>4} {'fire':>4} {'ret':>4}  {'slots lost to':<18}",
        ]
        for event in self.events[: limit or len(self.events)]:
            group = ",".join(str(a) for a in event.fetched)
            if event.mispredict:
                group += " !mp"
            lost = ", ".join(
                f"{cause}:{slots}"
                for cause, slots in event.attribution.items()
                if cause != "delivered" and slots
            )
            lines.append(
                f"{event.cycle:>4} {group:<30.30} {event.stall:<8} "
                f"{event.dispatched:>4} {event.fired:>4} {event.retired:>4}"
                f"  {lost:<18}"
            )
        return "\n".join(lines)


class _Stop(Exception):
    """Raised by the recorder to end a trace at ``max_cycles``."""


class _Recorder(SlotObserver):
    """Observer of :meth:`Simulator.run_reference` that appends each
    cycle's :class:`CycleEvents` to *log*, stopping at *max_cycles*."""

    def __init__(self, sim: Simulator, log: PipeTrace, max_cycles: int):
        super().__init__(sim)
        self.log = log
        self.max_cycles = max_cycles

    def on_cycle(
        self,
        cycle,
        restarted,
        result,
        queue,
        waiting,
        blocked_until,
        retired,
        fired,
        dispatched,
    ) -> None:
        stall, delivered, cause = self.classify(
            cycle, restarted, result, queue, waiting, blocked_until
        )
        events = CycleEvents(
            cycle, stall=stall, dispatched=dispatched, fired=fired, retired=retired
        )
        if delivered:
            events.fetched = [i.address for i in result.instructions]
            events.mispredict = result.mispredict
            events.attribution["delivered"] = delivered
        if delivered < self.issue_rate:
            events.attribution[CAUSES[cause]] = self.issue_rate - delivered
        self.log.events.append(events)
        if len(self.log.events) >= self.max_cycles:
            raise _Stop


def trace_pipeline(
    config: MachineConfig,
    trace: DynamicTrace,
    scheme: str | FetchUnit,
    max_cycles: int = 200,
    prewarm_cache: bool = True,
) -> PipeTrace:
    """Simulate up to *max_cycles* cycles, recording per-cycle events.

    Runs :meth:`Simulator.run_reference` under a recording observer, so
    the phase order and every state transition are the simulator's own;
    a trace cut short skips the end-of-run checks and statistics.
    """
    sim = Simulator(config, trace, scheme, prewarm_cache=prewarm_cache)
    log = PipeTrace(machine=config.name, scheme=sim.fetch_unit.name)
    if max_cycles > 0:
        sim._observer = _Recorder(sim, log, max_cycles)
        try:
            sim.run_reference()
        except _Stop:
            pass
    return log
