"""Convenience runners tying workloads, machines and schemes together."""

from __future__ import annotations

from repro.machines.config import MachineConfig
from repro.machines.presets import get_machine
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats
from repro.workloads.behavior import BehaviorModel
from repro.workloads.generator import Workload
from repro.workloads.suite import load_workload
from repro.workloads.trace import TEST_INPUT_SEED, DynamicTrace, generate_trace

#: Default dynamic-trace length for performance simulations.  The paper
#: simulates full SPEC runs; we use a seeded excerpt long enough for
#: stable IPC (override per call or via experiments' ``length`` knobs).
DEFAULT_TRACE_LENGTH = 20_000

#: Default warmup (instructions excluded from statistics while the
#: I-cache and BTB fill), approximating the paper's steady-state runs.
DEFAULT_WARMUP = 4_000


def run_trace(
    trace: DynamicTrace,
    machine: MachineConfig | str,
    scheme: str,
    warmup: int = DEFAULT_WARMUP,
    sanitize: bool | None = None,
    telemetry: bool | None = None,
    kernel: bool | None = None,
) -> SimStats:
    """Simulate *trace* on *machine* with the fetch *scheme*.

    *sanitize* opts into the ``repro.check`` pipeline sanitizer;
    *telemetry* into slot attribution on the observed reference loop,
    landing in ``SimStats.extra``; *kernel* selects the compiled execution kernel
    (each ``None`` defers to its environment knob, ``REPRO_SANITIZE`` /
    ``REPRO_TELEMETRY`` / ``REPRO_KERNEL``).
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    return Simulator(
        machine,
        trace,
        scheme,
        warmup=warmup,
        sanitize=sanitize,
        telemetry=telemetry,
        kernel=kernel,
    ).run()


def run_workload(
    workload: Workload | str,
    machine: MachineConfig | str,
    scheme: str,
    max_instructions: int = DEFAULT_TRACE_LENGTH,
    seed: int = TEST_INPUT_SEED,
    warmup: int = DEFAULT_WARMUP,
    sanitize: bool | None = None,
    telemetry: bool | None = None,
    kernel: bool | None = None,
) -> SimStats:
    """Generate a trace for *workload* and simulate it.

    *workload* may be a benchmark name from the suite or a generated
    :class:`~repro.workloads.generator.Workload` (e.g. a reordered
    variant).
    """
    if isinstance(workload, str):
        workload = load_workload(workload)
    trace = generate_trace(
        workload.program, workload.behavior, max_instructions, seed=seed
    )
    return run_trace(
        trace,
        machine,
        scheme,
        warmup=warmup,
        sanitize=sanitize,
        telemetry=telemetry,
        kernel=kernel,
    )


def run_program(
    program,
    behavior: BehaviorModel,
    machine: MachineConfig | str,
    scheme: str,
    max_instructions: int = DEFAULT_TRACE_LENGTH,
    seed: int = TEST_INPUT_SEED,
    warmup: int = DEFAULT_WARMUP,
) -> SimStats:
    """Simulate an explicit (program, behaviour) pair — used for compiler
    variants (reordered / padded programs) sharing one behaviour model."""
    trace = generate_trace(program, behavior, max_instructions, seed=seed)
    return run_trace(trace, machine, scheme, warmup=warmup)
