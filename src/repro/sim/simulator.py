"""Cycle-level simulator: fetch scheme + out-of-order core.

Each cycle runs, in reverse pipeline order: retire, writeback (branch
resolution, BTB training, misprediction restart), fire, dispatch from the
fetch queue (speculation-depth and window gating), and fetch.  Fetch is
stalled while

* a fetch-flagged mispredicted branch is unresolved (it resumes
  ``fetch_penalty`` cycles after resolution),
* an I-cache miss is outstanding, or
* the decoupling queue is full (``fetch_queue_groups`` fetch groups of
  backlog — depth 1 means fetch waits for the previous group to fully
  dispatch).

Two engines produce bit-identical statistics:

* the compiled kernel (:mod:`repro.sim.kernel`), which
  :meth:`Simulator.run` uses wherever it can reproduce the
  configuration exactly;
* :meth:`Simulator.run_reference` — the naive per-cycle loop: the
  specification every oracle compares against
  (``tests/test_equivalence.py``, ``tests/test_differential.py``), the
  engine of every run the kernel declines, and the one loop per-cycle
  consumers observe.

:meth:`~Simulator.run_reference` hands each cycle's facts to one
internal observer.  Two exist: telemetry's slot ledger (the opt-in
``telemetry`` flag or ``REPRO_TELEMETRY=1``), which fills
``SimStats.extra`` with ``slot_*`` attribution counters and leaves a
:class:`~repro.telemetry.core.TelemetryReport` on
``Simulator.telemetry_report``, and the pipetrace recorder
(:mod:`repro.sim.pipetrace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro import faults
from repro.check.sanitizer import PipelineSanitizer, sanitize_enabled
from repro.sim import kernel as compiled_kernel
from repro.core.pipeline import ExecutionCore
from repro.fetch.base import FetchUnit
from repro.fetch.factory import create_fetch_unit
from repro.machines.config import MachineConfig
from repro.sim.stats import SimStats
from repro.telemetry.attribution import SlotAttribution, SlotObserver
from repro.telemetry import trace as tracing
from repro.telemetry.core import (
    MetricsRegistry,
    TelemetryReport,
    telemetry_enabled,
)
from repro.workloads.trace import DynamicTrace


class SimulationDeadlock(RuntimeError):
    """The simulation stopped making progress (indicates a model bug)."""


@dataclass(slots=True)
class _QueuedInstruction:
    """A delivered instruction waiting to dispatch (reference loop only)."""

    trace_index: int
    fetch_mispredicted: bool


class Simulator:
    """Drives one (trace, machine, fetch scheme) simulation."""

    #: Safety factor: a run may not exceed this many cycles per traced
    #: instruction before being declared deadlocked.
    MAX_CPI = 200

    def __init__(
        self,
        config: MachineConfig,
        trace: DynamicTrace,
        scheme: str | FetchUnit,
        warmup: int = 0,
        prewarm_cache: bool = True,
        wrong_path_fetch: bool = False,
        sanitize: bool | None = None,
        telemetry: bool | None = None,
        kernel: bool | None = None,
    ) -> None:
        """Set up a run.

        *warmup* instructions at the head of the trace are simulated but
        excluded from the reported statistics — they warm the BTB and the
        pipeline.  With *prewarm_cache* (default) the I-cache is first
        swept with the program's footprint, so only steady-state
        (capacity/conflict) misses remain.  Both approximate the paper's
        full-benchmark runs, where cold-start effects vanish; disable them
        to study cold-start behaviour.

        With *wrong_path_fetch*, fetch keeps running down the predicted
        (wrong) path while a misprediction resolves, modelling the
        I-cache pollution real speculation causes (off by default: the
        correct-path timeline is identical either way, only cache state
        differs).

        *sanitize* opts into the cycle-level pipeline sanitizer and the
        per-packet legality checker (:mod:`repro.check.sanitizer`);
        ``None`` (the default) defers to the ``REPRO_SANITIZE``
        environment knob.  Sanitized runs produce bit-identical
        statistics — the checkers only read state — and raise
        :class:`~repro.check.errors.CheckFailure` on the first violated
        invariant.

        *telemetry* opts into slot-level stall attribution and phase
        timers, observed on :meth:`run_reference`; ``None`` defers to the
        ``REPRO_TELEMETRY`` environment knob.  The counted statistics
        stay identical to the kernel's; ``SimStats.extra`` gains the
        ``slot_*`` attribution, and :attr:`telemetry_report` carries the
        full record after :meth:`run`.

        *kernel* selects the compiled execution kernel
        (:mod:`repro.sim.kernel`): ``None`` (default) defers to the
        ``REPRO_KERNEL`` knob (on unless disabled), ``False`` runs the
        reference loop.  The kernel produces bit-identical statistics
        and silently declines configurations it cannot reproduce, which
        then run :meth:`run_reference` (:attr:`kernel_decline_reason`
        says why; :attr:`kernel_used` reports what actually ran).
        """
        self.config = config
        self.trace = trace
        if isinstance(scheme, FetchUnit):
            self.fetch_unit = scheme
        else:
            self.fetch_unit = create_fetch_unit(scheme, config, trace)
        self._prewarmed = bool(prewarm_cache and trace.instructions)
        self.core = ExecutionCore(config)
        self.warmup = min(max(0, warmup), len(trace.instructions) // 2)
        self.wrong_path_fetch = wrong_path_fetch
        self.wrong_path_cycles = 0
        self._snapshot: dict[str, int] | None = None
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer = PipelineSanitizer(self) if sanitize else None
        if telemetry is None:
            telemetry = telemetry_enabled()
        #: Metrics registry of a telemetry run; ``None`` leaves the
        #: kernel and the reference loop unobserved.
        self.telemetry: MetricsRegistry | None = (
            MetricsRegistry() if telemetry else None
        )
        #: Filled by :meth:`run` when telemetry is on.
        self.telemetry_report: TelemetryReport | None = None
        #: The per-cycle observer :meth:`run_reference` calls (telemetry's
        #: slot ledger or the pipetrace recorder); ``None`` otherwise.
        self._observer = None
        #: Compiled-kernel request (``None`` = environment default) and
        #: outcome: :meth:`run` sets :attr:`kernel_used` when the compiled
        #: engine ran and :attr:`kernel_decline_reason` when it fell back.
        self.kernel_requested = kernel
        self.kernel_used = False
        self.kernel_decline_reason: str | None = None
        #: How the compiled kernel executed, set by
        #: :func:`repro.sim.kernel.run_compiled`: ``"record"`` (planned
        #: live and recorded a fetch-outcome tape), ``"replay"``
        #: (replayed the tape recorded from the same fetch-unit starting
        #: state) or ``"compile"`` (planned live without a tape: the unit
        #: carries a packet checker or is past its starting state).
        #: ``None`` when the reference loop ran.
        self.kernel_mode: str | None = None
        #: Prewarm is deferred until a loop actually reads the I-cache:
        #: a kernel tape replay never touches it, and live planning and
        #: the reference loop call :meth:`_ensure_prewarmed` first.
        self._prewarm_pending = self._prewarmed

    def _ensure_prewarmed(self) -> None:
        if self._prewarm_pending:
            self._prewarm_pending = False
            self._prewarm_icache()

    def _prewarm_icache(self) -> None:
        """Sweep the program's address range through the I-cache in layout
        order (a capacity-exceeding program keeps only the last-filled
        conflicting blocks, as in steady state)."""
        cache = self.fetch_unit.cache
        addresses = self.trace.address_array()
        first_block = cache.block_index(min(addresses))
        last_block = cache.block_index(max(addresses))
        for block in range(first_block, last_block + 1):
            cache.fill(block)

    def run(self) -> SimStats:
        """Simulate to completion and return the statistics.

        With tracing on (``REPRO_TRACE``) the whole run is wrapped in a
        ``sim.run`` span carrying the configuration identity and counted
        outcome; the default path is a straight passthrough that never
        enters the tracing layer.
        """
        if not tracing.tracing_enabled():
            return self._run()
        with tracing.span(
            "sim.run",
            machine=self.config.name,
            scheme=type(self.fetch_unit).__name__,
            instructions=len(self.trace.instructions),
        ) as sp:
            stats = self._run()
            sp.set(cycles=stats.cycles, kernel=self.kernel_used)
            if self.kernel_decline_reason:
                sp.set(kernel_decline=self.kernel_decline_reason)
            return stats

    def _run(self) -> SimStats:
        """The untraced run body: the compiled kernel when it can
        reproduce this configuration, else :meth:`run_reference` (observed
        by the slot ledger when telemetry is on: same counted statistics,
        plus slot attribution in ``stats.extra``).
        """
        # Chaos site (per run, never per cycle): a no-op unless the
        # deterministic fault harness is armed via REPRO_FAULTS.
        faults.maybe_fail("sim.run")
        # Compiled-kernel selection: run the table-driven engine when it
        # is requested (argument, else REPRO_KERNEL default) and can
        # reproduce this configuration exactly; otherwise record why and
        # run the reference loop.  An injected ``sim.kernel`` fault
        # degrades to the reference loop before any state is touched —
        # results stay correct under chaos.
        requested = self.kernel_requested
        if requested is None:
            requested = compiled_kernel.kernel_enabled()
        if requested:
            reason = compiled_kernel.decline_reason(self)
            if reason is None:
                try:
                    faults.maybe_fail("sim.kernel")
                except faults.FaultInjected:
                    reason = "fault-injected"
            if reason is None:
                self.kernel_used = True
                if not tracing.tracing_enabled():
                    return compiled_kernel.run_compiled(self)
                with tracing.span("sim.kernel") as sp:
                    stats = compiled_kernel.run_compiled(self)
                    sp.set(**{"kernel.mode": self.kernel_mode or "compile"})
                    return stats
            self.kernel_decline_reason = reason
        else:
            self.kernel_decline_reason = "disabled"
        if self.telemetry is not None:
            return self._run_telemetry()
        return self.run_reference()

    def run_reference(self) -> SimStats:
        """Naive per-cycle loop: the specification, and the engine of
        every run the kernel declines.

        Spins every cycle and re-derives every condition from scratch;
        the kernel must produce field-for-field identical
        :class:`SimStats`.  Beside the sanitizer, the observer's
        ``on_cycle`` reads each cycle's facts: the cycle, whether a
        branch restart set the fetch penalty, the fetch result (``None``
        when gated), the queue, resolution and fetch-blocked state that
        gates fetch, and the entries retired, fired and dispatched.  An
        observer may stop the run by raising, skipping the end-of-run
        checks and statistics.
        """
        self._ensure_prewarmed()
        config = self.config
        core = self.core
        fetch = self.fetch_unit
        trace = self.trace
        instructions = trace.instructions
        total = len(instructions)

        cycle = 0
        position = 0  # next trace index to fetch
        queue: list[_QueuedInstruction] = []
        fetch_blocked_until = 0  # cache-miss stalls / misprediction restart
        # True while a fetch-flagged mispredicted branch is unresolved; at
        # most one can be outstanding because fetch stalls after flagging.
        waiting_for_resolution = False
        wrong_path_address = -1
        max_cycles = max(10_000, self.MAX_CPI * total)

        while core.retired_count < total:
            if cycle > max_cycles:
                raise SimulationDeadlock(
                    f"no forward progress after {cycle} cycles "
                    f"({core.retired_count}/{total} retired)"
                )
            if self._snapshot is None and core.retired_count >= self.warmup:
                self._snapshot = self._counters(cycle)

            restarted = False
            retired = core.do_retire(cycle)
            for entry in retired:
                if entry.fetch_mispredicted and config.recovery_at_retire:
                    waiting_for_resolution = False
                    fetch_blocked_until = max(
                        fetch_blocked_until, cycle + config.fetch_penalty
                    )
                    restarted = True

            for entry in core.do_writeback(cycle):
                instr = entry.instruction
                if instr.is_control:
                    fetch.train(instr, entry.actual_taken, entry.actual_target)
                if entry.fetch_mispredicted and not config.recovery_at_retire:
                    waiting_for_resolution = False
                    fetch_blocked_until = max(
                        fetch_blocked_until, cycle + config.fetch_penalty
                    )
                    restarted = True

            fired = core.do_fire(cycle)

            dispatched = self._dispatch(queue)

            queue_capacity = (
                config.fetch_queue_groups * config.issue_rate
            )
            result = None
            if (
                len(queue) + config.issue_rate <= queue_capacity
                and not waiting_for_resolution
                and cycle >= fetch_blocked_until
                and position < total
            ):
                result = fetch.fetch_cycle(position, config.issue_rate)
                if result.stall_cycles:
                    fetch_blocked_until = cycle + result.stall_cycles
                elif result.instructions:
                    count = len(result.instructions)
                    for offset in range(count):
                        queue.append(
                            _QueuedInstruction(position + offset, False)
                        )
                    if result.mispredict:
                        queue[-1].fetch_mispredicted = True
                        waiting_for_resolution = True
                        if self.wrong_path_fetch:
                            # Hardware would continue down the predicted
                            # (wrong) path; follow it for its cache
                            # side effects only.
                            last = result.instructions[-1]
                            prediction = fetch.predict_slot(last.address)
                            wrong_path_address = (
                                prediction.target
                                if prediction.taken
                                else last.address + 1
                            )
                    position += count
            elif waiting_for_resolution and wrong_path_address >= 0:
                wrong_path_address = fetch.wrong_path_cycle(
                    wrong_path_address, config.issue_rate
                )
                self.wrong_path_cycles += 1

            if not waiting_for_resolution:
                wrong_path_address = -1

            if self.sanitizer is not None:
                self.sanitizer.on_cycle(
                    cycle, position, position - len(queue)
                )
            if self._observer is not None:
                self._observer.on_cycle(
                    cycle,
                    restarted,
                    result,
                    queue,
                    waiting_for_resolution,
                    fetch_blocked_until,
                    len(retired),
                    fired,
                    dispatched,
                )

            cycle += 1

        if self.sanitizer is not None:
            self.sanitizer.on_finish(cycle)
        return self._collect_stats(cycle)

    def _dispatch(self, queue: list[_QueuedInstruction]) -> int:
        """The reference loop's dispatch phase: move *queue*'s head into
        the core until it cannot dispatch; returns how many moved."""
        core, trace = self.core, self.trace
        instructions = trace.instructions
        dispatched = 0
        while queue:
            queued = queue[0]
            instr = instructions[queued.trace_index]
            if not core.can_dispatch(instr):
                break
            taken = trace.is_taken(queued.trace_index)
            target = trace.next_address(queued.trace_index)
            core.dispatch(
                instr,
                queued.trace_index,
                fetch_mispredicted=queued.fetch_mispredicted,
                actual_taken=taken,
                actual_target=target,
            )
            queue.pop(0)
            dispatched += 1
        return dispatched

    def _run_telemetry(self) -> SimStats:
        """:meth:`run_reference` observed by a :class:`_SlotLedger`, with
        wall-clock timers shadowing each phase's bound methods for the
        run (instance attributes over the class methods, deleted in the
        ``finally``), so only telemetry runs pay the indirection."""
        registry = self.telemetry
        assert registry is not None
        core, fetch = self.core, self.fetch_unit
        timed = (
            (core, "do_retire", "retire"),
            (core, "do_writeback", "writeback"),
            (core, "do_fire", "fire"),
            (self, "_dispatch", "dispatch"),
            (fetch, "fetch_cycle", "fetch"),
            (fetch, "wrong_path_cycle", "fetch"),
            (fetch.cache, "access", "icache_lookup"),
        )
        clocks = {phase: [0.0] for _, _, phase in timed}
        for owner, name, phase in timed:
            setattr(owner, name, _timed(getattr(owner, name), clocks[phase]))
        ledger = self._observer = _SlotLedger(self, registry)
        try:
            stats = self.run_reference()
        finally:
            self._observer = None
            for owner, name, _ in timed:
                delattr(owner, name)  # restore the unwrapped class method
        for phase, (seconds,) in clocks.items():
            registry.add_time(phase, seconds)

        measured = ledger.attribution.counts
        stats.extra.update(
            {f"slot_{cause}": count for cause, count in measured.items()}
        )
        stats.extra["issue_rate"] = ledger.issue_rate
        if self.wrong_path_cycles:
            registry.inc("wrong_path_cycles", self.wrong_path_cycles)
        self.telemetry_report = TelemetryReport(
            attribution=measured,
            cycles=stats.cycles,
            issue_rate=ledger.issue_rate,
            phase_seconds=dict(registry.timers),
            counters=dict(registry.counters),
            histograms={
                name: histogram.as_dict()
                for name, histogram in registry.histograms.items()
            },
        )
        return stats

    # -- statistics --------------------------------------------------------------

    def _counters(self, cycle: int) -> dict[str, int]:
        """Snapshot of every cumulative counter the stats are derived from."""
        fetch = self.fetch_unit
        core = self.core
        return {
            "cycles": cycle,
            "retired": core.retired_count,
            "delivered": fetch.stats.delivered,
            "fetch_mispredicts": fetch.stats.mispredicts,
            "fetch_cache_accesses": fetch.cache.stats.accesses,
            "fetch_cache_misses": fetch.cache.stats.misses,
            "btb_lookups": fetch.btb.stats.lookups,
            "btb_hits": fetch.btb.stats.hits,
            "speculation_stalls": core.stats.speculation_stalls,
            "window_full_stalls": core.stats.window_full_stalls,
        }

    def _collect_stats(self, cycles: int) -> SimStats:
        trace = self.trace
        end = self._counters(cycles)
        start = self._snapshot or dict.fromkeys(end, 0)
        delta = {key: end[key] - start[key] for key in end}

        # Dynamic branch/nop statistics over the measured region (cached
        # on the trace — the warmup start recurs run after run).
        branches, taken, nops = trace.region_mix(start["retired"])

        return SimStats(
            benchmark=trace.name,
            machine=self.config.name,
            scheme=self.fetch_unit.name,
            dynamic_branches=branches,
            dynamic_taken_branches=taken,
            retired_nops=nops,
            **delta,
        )


def _timed(method: Callable, clock: list[float]) -> Callable:
    """*method*, adding its wall-clock seconds to ``clock[0]``."""

    def timed(*args):
        start = perf_counter()
        result = method(*args)
        clock[0] += perf_counter() - start
        return result

    return timed


class _SlotLedger(SlotObserver):
    """Telemetry's observer of :meth:`Simulator.run_reference`: the slot
    ledger, fetch-cycle count and delivered-per-fetch histogram."""

    def __init__(self, sim: Simulator, registry: MetricsRegistry) -> None:
        super().__init__(sim)
        self.registry = registry
        self.attribution = SlotAttribution(self.issue_rate)
        self.warm = False

    def on_cycle(self, cycle, restarted, result, queue, waiting, blocked_until, *_):
        if not self.warm and self.sim._snapshot is not None:
            self.warm = True  # measure from the warmup snapshot on
            self.attribution = SlotAttribution(self.issue_rate)
        _, delivered, cause = self.classify(
            cycle, restarted, result, queue, waiting, blocked_until
        )
        self.attribution.charge(delivered, cause)
        if result is not None:
            self.registry.inc("fetch_cycles")
            if delivered:
                self.registry.observe("delivered_per_fetch", delivered)
