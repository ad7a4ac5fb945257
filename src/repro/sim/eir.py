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

A unit of one of the kernel's vetted schemes plans through the
compiled kernel's fetch-plan memo (:func:`repro.sim.kernel.plan_memo`):
a steady-state fetch is a dict hit that replays the memoised packet and
its BTB and cache statistic deltas.  A unit plans every fetch live
through ``FetchUnit.fetch_cycle`` when its scheme is not vetted (the
trace cache, subclasses such as Figure 10's crossing ablation), it has
a direction predictor or return stack, it carries a packet checker (so
``repro check`` sees every packet as often as it is fetched), or
``REPRO_KERNEL=0``.  Both paths give the same result and leave the unit
in the same state (``tests/test_differential.py``).
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
        addresses = trace.address_array()
        cache = unit.cache
        for block in range(
            cache.block_index(min(addresses)),
            cache.block_index(max(addresses)) + 1,
        ):
            cache.fill(block)

    run = _run_live if _plans_live(unit) else _run_memoised
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
    """Whether *unit* plans every fetch live through
    ``FetchUnit.fetch_cycle`` rather than through the kernel's plan memo
    (the cases are listed in the module docstring)."""
    return (
        type(unit) not in kernel._SUPPORTED_SCHEMES
        or unit.direction_predictor is not None
        or unit.return_stack is not None
        or unit.checker is not None
        or not kernel.kernel_enabled()
    )


def _run_live(unit, trace, issue_rate, warmup):
    """The EIR loop over ``fetch_cycle``.  Returns (cycles, delivered,
    warmup baseline)."""
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


def _run_memoised(unit, trace, issue_rate, warmup):
    """The EIR loop over the kernel's fetch-plan memo
    (:func:`repro.sim.kernel.plan_memo`): ``fetch_cycle``'s width,
    matching and full-delivery rules on memoised packets, whose BTB and
    cache statistic deltas are added here as the kernel adds them, and
    training from per-instruction flag arrays.  Leaves *unit* exactly as
    :func:`_run_live` would."""
    total = len(trace.instructions)
    addr_ = trace.address_array()
    taken_ = trace.taken_array()
    next_ = trace.next_address_array()
    control_, uncond_, call_, ret_ = kernel.train_flags(trace)
    full = unit.config.issue_rate
    memo, build, train, install, remove, tally = kernel.plan_memo(
        unit, min(issue_rate, full)
    )
    memo_get = memo.get
    bstats = unit.btb.stats
    cstats = unit.cache.stats
    # Memo-hit statistic deltas; build deltas land in the live objects.
    rlk = rht = rac = rms = 0
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
                    unit.stats.mispredicts + mispredicts,
                    cstats.misses + rms,
                )
            address = addr_[position]
            rec = memo_get(address)
            if rec is not None:
                rlk += rec[4]
                rht += rec[5]
                rac += rec[6]
                rms += rec[7]
            else:
                rec = build(address)
            cycles += 1
            stall = rec[0]
            if stall:
                stall_cycles += stall
                cycles += stall
                continue
            plan_addrs = rec[1]
            count = rec[2]
            end = position + count
            mispredict = False
            if end <= total and addr_[position:end] == plan_addrs:
                matched = count
            else:
                matched = 0
                for planned in plan_addrs:
                    index = position + matched
                    if index >= total:
                        break
                    if addr_[index] != planned:
                        mispredict = True
                        break
                    matched += 1
            if not mispredict:
                cont = position + matched
                if cont < total and rec[3] != addr_[cont]:
                    mispredict = True
            if matched == 0:
                # The plan always starts at the actual fetch address.
                raise AssertionError(
                    "fetch plan diverged at its own fetch address"
                )
            delivered += matched
            if mispredict:
                mispredicts += 1
            if matched == full:
                fulls += 1
            # Train with resolved outcomes (decode-time update approximation).
            for index in range(position, position + matched):
                if control_[index]:
                    train(
                        addr_[index],
                        taken_[index],
                        next_[index],
                        uncond_[index],
                        call_[index],
                        ret_[index],
                    )
            position += matched
    finally:
        remove()
    fetches = cycles - stall_cycles
    fstats = unit.stats
    fstats.cycles += fetches
    fstats.cache_stall_cycles += stall_cycles
    fstats.delivered += delivered
    fstats.mispredicts += mispredicts
    fstats.full_deliveries += fulls
    bstats.lookups += rlk
    bstats.hits += rht
    cstats.accesses += rac
    cstats.misses += rms
    tally(fetches)
    return cycles, delivered, base
