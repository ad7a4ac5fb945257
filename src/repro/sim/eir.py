"""Fetch-only effective-issue-rate (EIR) measurement (paper Figure 10).

EIR captures a scheme's raw ability to *supply* aligned instructions:
the fetch unit runs unthrottled by the execution core, delivering one
group per cycle along the correct path.  Alignment failures shrink the
groups; I-cache misses stall (which is why ``EIR(perfect)`` is below the
ideal issue rate); branch resolution latency is deliberately **not**
charged — prediction quality affects all schemes identically and Figure
10 isolates alignment.  The BTB is trained continuously as resolved
outcomes become known (one group behind, approximating decode-time
update).

``EIR / EIR(perfect)`` is the paper's alignment-efficiency metric: the
collapsing buffer sustains >= 90% across PI4-PI12 while the simpler
schemes fall off as issue rates grow.

A unit of one of the kernel's vetted schemes fetches through the
compiled kernel's one fetch step, ``deliver`` of
:func:`repro.sim.kernel.plan_memo`, which ``run_compiled`` calls too: a
steady-state fetch is a dict hit that replays the memoised packet and
its BTB and cache statistic deltas.  A unit with a direction predictor,
return stack or packet checker takes the same step without the memo, so
it plans every fetch (and a checker sees every fetched packet).  Only an
unvetted scheme or ``REPRO_KERNEL=0`` runs the specification loop
over ``FetchUnit.fetch_cycle``.  The unvetted schemes are the trace
cache and subclasses of a vetted scheme, such as Figure 10's crossing
ablation: a collapsing buffer whose rules lift the block, crossing and
bank limits, planned by the same ``FetchUnit.plan`` walk.  Both loops
give the same result and leave the unit in the same state
(``tests/test_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fetch.base import FetchUnit
from repro.fetch.factory import create_fetch_unit
from repro.machines.config import MachineConfig
from repro.machines.presets import get_machine
from repro.sim import kernel
from repro.workloads.trace import DynamicTrace


@dataclass(slots=True)
class EIRResult:
    """Outcome of a fetch-only EIR run."""

    benchmark: str
    machine: str
    scheme: str
    delivered: int
    cycles: int
    mispredicts: int
    cache_misses: int

    @property
    def eir(self) -> float:
        """Instructions supplied to decode per fetch cycle."""
        return self.delivered / self.cycles if self.cycles else 0.0


def measure_eir(
    trace: DynamicTrace,
    machine: MachineConfig | str,
    scheme: str | FetchUnit,
    warmup: int = 2_000,
    prewarm_cache: bool = True,
) -> EIRResult:
    """Measure the fetch-only EIR of *scheme* on *trace*.

    *warmup* leading instructions train the BTB without being counted;
    *prewarm_cache* sweeps the program footprint through the I-cache
    first (steady-state measurement, as in the paper's full runs).
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    if isinstance(scheme, FetchUnit):
        unit = scheme
    else:
        unit = create_fetch_unit(scheme, machine, trace)
    instructions = trace.instructions
    total = len(instructions)
    warmup = min(max(0, warmup), total // 2)

    if prewarm_cache and instructions:
        unit.cache.prewarm(trace.address_array())

    run = _run_live if _plans_live(unit) else _run_kernel
    cycles, delivered, base = run(unit, trace, machine.issue_rate, warmup)
    if base is None:
        base = (0, 0, 0, 0)
    return EIRResult(
        benchmark=trace.name,
        machine=machine.name,
        scheme=unit.name,
        cycles=cycles - base[0],
        delivered=delivered - base[1],
        mispredicts=unit.stats.mispredicts - base[2],
        cache_misses=unit.cache.stats.misses - base[3],
    )


def _plans_live(unit: FetchUnit) -> bool:
    """Whether *unit* fetches through ``FetchUnit.fetch_cycle`` rather
    than the kernel's fetch step: its scheme is not vetted, or
    ``REPRO_KERNEL=0``."""
    return (
        type(unit) not in kernel._SUPPORTED_SCHEMES
        or not kernel.kernel_enabled()
    )


def _run_live(unit, trace, issue_rate, warmup):
    """The EIR loop over ``fetch_cycle``, the specification of
    :func:`_run_kernel`.  Returns (cycles, delivered, warmup
    baseline)."""
    instructions = trace.instructions
    total = len(instructions)
    # Precomputed per-trace arrays + hoisted bound methods: this loop
    # visits every dynamic instruction.
    is_control = trace.control_array()
    is_taken = trace.taken_array()
    next_addr = trace.next_address_array()
    fetch_cycle = unit.fetch_cycle
    train = unit.train

    position = 0
    cycles = 0
    delivered = 0
    base: tuple[int, int, int, int] | None = None
    while position < total:
        if base is None and position >= warmup:
            base = (
                cycles,
                delivered,
                unit.stats.mispredicts,
                unit.cache.stats.misses,
            )
        result = fetch_cycle(position, issue_rate)
        cycles += 1
        if result.stall_cycles:
            cycles += result.stall_cycles
            continue
        count = len(result.instructions)
        delivered += count
        # Train with resolved outcomes (decode-time update approximation).
        for index in range(position, position + count):
            if is_control[index]:
                train(instructions[index], is_taken[index], next_addr[index])
        position += count
    return cycles, delivered, base


def _run_kernel(unit, trace, issue_rate, warmup):
    """The EIR loop over the kernel's fetch step
    (:func:`repro.sim.kernel.plan_memo`), training at delivery time.
    Leaves *unit* exactly as :func:`_run_live` would."""
    total = len(trace.instructions)
    control_ = kernel.train_flags(trace)[0]
    full = unit.config.issue_rate
    deliver, train, install, remove, tally = kernel.plan_memo(
        unit,
        trace,
        min(issue_rate, full),
        unit.direction_predictor is None
        and unit.return_stack is None
        and unit.checker is None,
    )
    fstats = unit.stats
    cstats = unit.cache.stats
    stall_cycles = mispredicts = fulls = 0

    position = 0
    cycles = 0
    delivered = 0
    base: tuple[int, int, int, int] | None = None
    install()
    try:
        while position < total:
            if base is None and position >= warmup:
                base = (
                    cycles,
                    delivered,
                    fstats.mispredicts + mispredicts,
                    cstats.misses,
                )
            stall, matched, mispredict, _ = deliver(position)
            cycles += 1
            if stall:
                stall_cycles += stall
                cycles += stall
                continue
            delivered += matched
            if mispredict:
                mispredicts += 1
            if matched == full:
                fulls += 1
            # Train with resolved outcomes (decode-time update approximation).
            for index in range(position, position + matched):
                if control_[index]:
                    train(index)
            position += matched
    finally:
        remove()
    fetches = cycles - stall_cycles
    fstats.cycles += fetches
    fstats.cache_stall_cycles += stall_cycles
    fstats.delivered += delivered
    fstats.mispredicts += mispredicts
    fstats.full_deliveries += fulls
    tally(fetches)
    return cycles, delivered, base
