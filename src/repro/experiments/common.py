"""Shared infrastructure for the paper-reproduction experiments.

Each experiment module exposes ``run(config) -> ExperimentResult`` that
regenerates one of the paper's tables or figures.  Every measured cell is
memoised in the persistent result cache (:mod:`repro.sim.cache`):
simulations per (benchmark, program variant, machine, scheme), and the
trace statistics and nop expansions of Tables 2-4 per their full
argument tuple, so a warm report reads cells instead of rebuilding
workloads, traces or compiler passes.  In process, only dynamic traces
are memoised, and at most :data:`TRACE_LIMIT` of them, so a long-lived
worker's memory stays bounded.

Trace lengths default to laptop-friendly excerpts; set the environment
variable ``REPRO_SCALE`` (e.g. ``REPRO_SCALE=4``) to lengthen every trace
proportionally for higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro import faults, knobs
from repro.compiler import PaddingResult, pad_all, pad_trace, reorder_program
from repro.machines.config import MachineConfig
from repro.machines.presets import MACHINES, get_machine
from repro.metrics.branches import TakenBranchStats, taken_branch_stats
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


# -- workload variants and the trace memo -----------------------------------

#: Dynamic traces the in-process memo holds.  A cold quarter-scale
#: report of all nine artifacts reads 117 distinct traces 720 times,
#: and an LRU of 32 regenerates none (16 or 24 regenerate 24); a
#: long-lived worker's one-off misses keep at most this many alive.
TRACE_LIMIT = 32


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
    if variant in ("pad_all", "pad_trace"):
        return _pad(benchmark, variant, block_words).program, workload.behavior
    raise KeyError(f"unknown variant {variant!r}; known: {VARIANTS}")


@lru_cache(maxsize=None)
def _reorder_cached(benchmark: str):
    workload = load_workload(benchmark)
    return reorder_program(workload.program, workload.behavior)


def _pad(benchmark: str, variant: str, block_words: int) -> PaddingResult:
    """The padding pass behind :func:`variant_program` (Figure 13) and
    :func:`pad_expansion` (Table 4).

    Not memoised: holding every padded program from Table 4 until
    Figure 13 raises a report's peak memory by over half.
    """
    if variant == "pad_all":
        return pad_all(load_workload(benchmark).program, block_words)
    if variant == "pad_trace":
        return pad_trace(_reorder_cached(benchmark), block_words)
    raise KeyError(f"not a padded variant: {variant!r}")


def variant_trace(
    benchmark: str, variant: str, length: int, seed: int, block_words: int = 4
):
    """The dynamic trace of a benchmark variant, from the process's one
    per-request memo: the :data:`TRACE_LIMIT` most recently used traces.

    Only pads depend on *block_words*, so an ``orig`` or ``reordered``
    trace is keyed without it and every machine shares one copy (and
    its kernel tables).
    """
    if variant not in ("pad_all", "pad_trace"):
        block_words = 4
    return _trace(benchmark, variant, length, seed, block_words)


@lru_cache(maxsize=TRACE_LIMIT)
def _trace(benchmark: str, variant: str, length: int, seed: int, block_words: int):
    program, behavior = variant_program(benchmark, variant, block_words)
    return generate_trace(program, behavior, length, seed=seed)


# -- cached measurements ---------------------------------------------------------


def _simulate(cell: tuple, **options) -> SimStats:
    """One full simulation of a :func:`sim_stats` cell; *options* go to
    :class:`Simulator`."""
    bench, machine_name, scheme, variant, length, warmup, seed, penalty, words = cell
    machine = get_machine(machine_name)
    if penalty is not None:
        machine = machine.with_fetch_penalty(penalty)
    trace = variant_trace(bench, variant, length, seed, words)
    return Simulator(machine, trace, scheme, warmup=warmup, **options).run()


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
    """Run (and cache) one full IPC simulation.

    Results are reused only through the persistent disk cache
    (:mod:`repro.sim.cache`), so batch workers, repeated experiment
    invocations and CI runs share them; nothing is memoised in process
    but the trace (:func:`variant_trace`).

    ``REPRO_SANITIZE=1`` makes the simulation run under the pipeline
    sanitizer (:mod:`repro.check.sanitizer`); the disk-cache key is
    salted with that knob's value, so it may be flipped between calls.

    *kernel* is forwarded to :class:`Simulator` (``None`` defers to the
    ``REPRO_KERNEL`` knob).  It joins the disk-cache key even though the
    kernel is bit-identical — so a result produced with the kernel
    forced off never masks (or is masked by) one produced with it on
    while either path is under suspicion.
    """
    # Chaos site: lets the harness prove a transient failure here is retried.
    faults.maybe_fail("sim.stats")
    cell = (
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
    return result_cache.get_or_compute(
        "sim_stats", cell + (kernel,), lambda: _simulate(cell, kernel=kernel)
    )


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
    kernel: bool | None = None,
) -> SimStats:
    """:func:`sim_stats` with telemetry on (slot attribution in ``extra``).

    Returns the same counted statistics with ``extra`` carrying the
    ``slot_*`` attribution (deterministic integers, so they round-trip
    through the disk cache).  Cached under a separate kind
    (``telemetry_stats``) so plain and instrumented results never serve
    each other.  Wall-clock phase timings are *not* cached — a cache
    hit serves the attribution only.  *kernel* selects the engine and
    joins the key, as in :func:`sim_stats`.
    """
    cell = (
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
    return result_cache.get_or_compute(
        "telemetry_stats",
        cell + (kernel,),
        lambda: _simulate(cell, telemetry=True, kernel=kernel),
    )


def eir_stats(
    benchmark: str,
    machine_name: str,
    scheme: str,
    variant: str = "orig",
    length: int = DEFAULT_CONFIG.eir_length,
    seed: int = DEFAULT_CONFIG.seed,
) -> EIRResult:
    """Run (and cache) one fetch-only EIR measurement.

    Disk-cached like :func:`sim_stats`.
    """
    key = (benchmark, machine_name, scheme, variant, length, seed)

    def compute() -> EIRResult:
        machine = get_machine(machine_name)
        trace = variant_trace(benchmark, variant, length, seed)
        return measure_eir(trace, machine, scheme)

    return result_cache.get_or_compute("eir_stats", key, compute)


def branch_stats(
    benchmark: str, variant: str, length: int, seed: int, block_words: int
) -> TakenBranchStats:
    """Taken-branch statistics of the ``orig`` or ``reordered`` trace
    (Tables 2 and 3) at *block_words*, disk-cached like
    :func:`sim_stats`.  The trace itself does not depend on
    *block_words*."""
    key = (benchmark, variant, length, seed, block_words)

    def compute() -> TakenBranchStats:
        trace = variant_trace(benchmark, variant, length, seed)
        return taken_branch_stats(trace, block_words)

    return result_cache.get_or_compute("branch_stats", key, compute)


def pad_expansion(benchmark: str, variant: str, block_words: int) -> float:
    """Static nop expansion of a ``pad_all``/``pad_trace`` variant
    (Table 4), disk-cached like :func:`sim_stats`."""
    key = (benchmark, variant, block_words)

    def compute() -> float:
        return _pad(benchmark, variant, block_words).expansion

    return result_cache.get_or_compute("pad_expansion", key, compute)


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
