"""Shared infrastructure for the paper-reproduction experiments.

Each experiment module exposes ``run(config) -> ExperimentResult`` that
regenerates one of the paper's tables or figures.  Simulation outputs are
memoised per (benchmark, program variant, machine, scheme) so composite
experiments and the benchmark harness can share work.

Trace lengths default to laptop-friendly excerpts; set the environment
variable ``REPRO_SCALE`` (e.g. ``REPRO_SCALE=4``) to lengthen every trace
proportionally for higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro import faults, knobs
from repro.compiler import pad_all, pad_trace, reorder_program
from repro.machines.config import MachineConfig
from repro.machines.presets import MACHINES, get_machine
from repro.metrics.summary import format_table, harmonic_mean
from repro.sim import cache as result_cache
from repro.sim.eir import EIRResult, measure_eir
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats
from repro.workloads.suite import load_workload
from repro.workloads.trace import TEST_INPUT_SEED, generate_trace

#: Program variants produced by the compiler subsystem.
VARIANTS = ("orig", "reordered", "pad_all", "pad_trace")

#: Integer subset the beyond-paper ablations measure (keeps wall-clock
#: sane while spanning branchy/call-heavy/large-footprint behaviours).
ABLATION_BENCHMARKS = ("compress", "espresso", "li", "gcc")


def _scale() -> float:
    return max(0.1, knobs.get_float("REPRO_SCALE"))


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    #: Dynamic trace length for IPC simulations.
    trace_length: int = int(20_000 * _scale())
    #: Trace length for fetch-only EIR measurements.
    eir_length: int = int(30_000 * _scale())
    #: Trace length for pure trace statistics (Tables 2/3).
    stats_length: int = int(80_000 * _scale())
    #: Warmup instructions excluded from IPC statistics.
    warmup: int = int(4_000 * _scale())
    #: Behaviour seed of the held-out test input.
    seed: int = TEST_INPUT_SEED


DEFAULT_CONFIG = ExperimentConfig()


@dataclass(slots=True)
class ExperimentResult:
    """A regenerated table/figure: headers + rows + provenance notes."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""

    def as_text(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def as_records(self) -> list[dict]:
        """Rows as header-keyed dictionaries."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_json(self, indent: int = 2) -> str:
        """JSON document with provenance, for downstream tooling."""
        import json

        return json.dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=indent,
        )


# -- cached workload variants -------------------------------------------------


@lru_cache(maxsize=None)
def variant_program(benchmark: str, variant: str, block_words: int = 4):
    """The (program, behaviour) pair for a benchmark code variant.

    ``pad_all`` pads the original layout; ``pad_trace`` pads the reordered
    layout (paper Section 4.1).  *block_words* only matters for pads.
    """
    workload = load_workload(benchmark)
    if variant == "orig":
        return workload.program, workload.behavior
    if variant == "reordered":
        result = _reorder_cached(benchmark)
        return result.program, workload.behavior
    if variant == "pad_all":
        padded = pad_all(workload.program, block_words)
        return padded.program, workload.behavior
    if variant == "pad_trace":
        padded = pad_trace(_reorder_cached(benchmark), block_words)
        return padded.program, workload.behavior
    raise KeyError(f"unknown variant {variant!r}; known: {VARIANTS}")


@lru_cache(maxsize=None)
def _reorder_cached(benchmark: str):
    workload = load_workload(benchmark)
    return reorder_program(workload.program, workload.behavior)


@lru_cache(maxsize=None)
def variant_trace(
    benchmark: str,
    variant: str,
    length: int,
    seed: int,
    block_words: int = 4,
):
    program, behavior = variant_program(benchmark, variant, block_words)
    return generate_trace(program, behavior, length, seed=seed)


# -- cached simulations ----------------------------------------------------------


@lru_cache(maxsize=None)
def sim_stats(
    benchmark: str,
    machine_name: str,
    scheme: str,
    variant: str = "orig",
    length: int = DEFAULT_CONFIG.trace_length,
    warmup: int = DEFAULT_CONFIG.warmup,
    seed: int = DEFAULT_CONFIG.seed,
    fetch_penalty: int | None = None,
    block_words: int = 4,
    kernel: bool | None = None,
) -> SimStats:
    """Run (and memoise) one full IPC simulation.

    Memoised twice: per process via ``lru_cache``, and across processes
    via the persistent disk cache (:mod:`repro.sim.cache`) — batch
    workers, repeated experiment invocations and CI runs share results.

    ``REPRO_SANITIZE=1`` makes the simulation run under the pipeline
    sanitizer (:mod:`repro.check.sanitizer`); the disk-cache key is
    salted with that knob, but the in-process ``lru_cache`` is not —
    flip the environment before the first call, not between calls.

    *kernel* is forwarded to :class:`Simulator` (``None`` defers to the
    ``REPRO_KERNEL`` knob).  It joins the disk-cache key even though the
    kernel is bit-identical — so a result produced with the kernel
    forced off never masks (or is masked by) one produced with it on
    while either path is under suspicion.
    """
    # Chaos site: lets the harness prove a transient failure here is
    # retried (lru_cache does not memoise the raised exception).
    faults.maybe_fail("sim.stats")
    key = (
        benchmark,
        machine_name,
        scheme,
        variant,
        length,
        warmup,
        seed,
        fetch_penalty,
        block_words,
        kernel,
    )

    def compute() -> SimStats:
        machine = get_machine(machine_name)
        if fetch_penalty is not None:
            machine = machine.with_fetch_penalty(fetch_penalty)
        trace = variant_trace(benchmark, variant, length, seed, block_words)
        return Simulator(
            machine, trace, scheme, warmup=warmup, kernel=kernel
        ).run()

    return result_cache.get_or_compute("sim_stats", key, compute)


@lru_cache(maxsize=None)
def telemetry_sim_stats(
    benchmark: str,
    machine_name: str,
    scheme: str,
    variant: str = "orig",
    length: int = DEFAULT_CONFIG.trace_length,
    warmup: int = DEFAULT_CONFIG.warmup,
    seed: int = DEFAULT_CONFIG.seed,
    fetch_penalty: int | None = None,
    block_words: int = 4,
) -> SimStats:
    """:func:`sim_stats` with telemetry on (slot attribution in ``extra``).

    Returns the same counted statistics with ``extra`` carrying the
    ``slot_*`` attribution (deterministic integers, so they round-trip
    through the disk cache).  Cached under a separate kind
    (``telemetry_stats``) so plain and instrumented results never serve
    each other.  Wall-clock phase timings are *not* cached — a cache
    hit serves the attribution only.
    """
    key = (
        benchmark,
        machine_name,
        scheme,
        variant,
        length,
        warmup,
        seed,
        fetch_penalty,
        block_words,
    )
    def compute() -> SimStats:
        machine = get_machine(machine_name)
        if fetch_penalty is not None:
            machine = machine.with_fetch_penalty(fetch_penalty)
        trace = variant_trace(benchmark, variant, length, seed, block_words)
        return Simulator(
            machine, trace, scheme, warmup=warmup, telemetry=True
        ).run()

    return result_cache.get_or_compute("telemetry_stats", key, compute)


@lru_cache(maxsize=None)
def eir_stats(
    benchmark: str,
    machine_name: str,
    scheme: str,
    variant: str = "orig",
    length: int = DEFAULT_CONFIG.eir_length,
    seed: int = DEFAULT_CONFIG.seed,
) -> EIRResult:
    """Run (and memoise) one fetch-only EIR measurement.

    Disk-cached like :func:`sim_stats`.
    """
    key = (benchmark, machine_name, scheme, variant, length, seed)

    def compute() -> EIRResult:
        machine = get_machine(machine_name)
        trace = variant_trace(benchmark, variant, length, seed)
        return measure_eir(trace, machine, scheme)

    return result_cache.get_or_compute("eir_stats", key, compute)


def hmean_ipc(
    benchmarks: tuple[str, ...],
    machine: MachineConfig,
    scheme: str,
    config: ExperimentConfig,
    variant: str = "orig",
    fetch_penalty: int | None = None,
) -> float:
    """Harmonic-mean useful IPC over *benchmarks* (the paper's aggregate;
    nops retired by padded programs do not count as work)."""
    return harmonic_mean(
        sim_stats(
            bench,
            machine.name,
            scheme,
            variant=variant,
            length=config.trace_length,
            warmup=config.warmup,
            seed=config.seed,
            fetch_penalty=fetch_penalty,
            block_words=machine.words_per_block,
        ).useful_ipc
        for bench in benchmarks
    )


def all_machines() -> tuple[MachineConfig, ...]:
    return MACHINES
