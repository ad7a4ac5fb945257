"""Shared infrastructure for the paper-reproduction experiments.

Each experiment module regenerates one of the paper's tables or figures
in two parts: ``cells(config)`` lists the measured cells it reads, and
a pure ``render(config, results)`` builds its :class:`ExperimentResult`
from their values; ``run(config)`` is the two together.  A cell is a
result-cache ``(kind, key)`` pair (:data:`Cell`): simulations per
(benchmark, program variant, machine, scheme), and the trace statistics
and nop expansions of Tables 2-4 per their full argument tuple, so a
warm report reads cells instead of rebuilding workloads, traces or
compiler passes, and a cold one computes its missed cells on the
worker pool, one job per benchmark (:func:`resolve`).  In process,
only dynamic traces are memoised, and at most :data:`TRACE_LIMIT` of
them, so a long-lived worker's memory stays bounded.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any
from functools import lru_cache, partial

from repro import faults
from repro.compiler import PaddingResult, pad_all, pad_trace, reorder_program
from repro.machines.config import MachineConfig
from repro.machines.presets import MACHINES, get_machine
from repro.metrics.branches import TakenBranchStats, taken_branch_stats
from repro.metrics.summary import format_table, harmonic_mean
from repro.sim import cache as result_cache
from repro.sim.eir import EIRResult, measure_eir
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats
from repro.sim.supervisor import run_supervised
from repro.telemetry import trace as tracing
from repro.workloads.profiles import FP_BENCHMARKS, INTEGER_BENCHMARKS
from repro.workloads.suite import load_workload
from repro.workloads.trace import TEST_INPUT_SEED, generate_trace

#: Program variants produced by the compiler subsystem.
VARIANTS = ("orig", "reordered", "pad_all", "pad_trace")

#: Integer subset the beyond-paper ablations measure (keeps wall-clock
#: sane while spanning branchy/call-heavy/large-footprint behaviours).
ABLATION_BENCHMARKS = ("compress", "espresso", "li", "gcc")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    #: Dynamic trace length for IPC simulations.
    trace_length: int = 20_000
    #: Trace length for fetch-only EIR measurements.
    eir_length: int = 30_000
    #: Trace length for pure trace statistics (Tables 2/3).
    stats_length: int = 80_000
    #: Warmup instructions excluded from IPC statistics.
    warmup: int = 4_000
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
    :func:`pad_cell` (Table 4).

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

    Only pads depend on *block_words* (:func:`_layout_words`), so an
    ``orig`` or ``reordered`` trace is keyed without it and every
    machine shares one copy (and its kernel tables).
    """
    words = _layout_words(variant, block_words)
    return _trace(benchmark, variant, length, seed, words)


def _layout_words(variant: str, block_words: int) -> int:
    """The block size a variant's code layout depends on: its own for a
    pad, a fixed 4 for ``orig`` and ``reordered``, which ignore it."""
    return block_words if variant in ("pad_all", "pad_trace") else 4


@lru_cache(maxsize=TRACE_LIMIT)
def _trace(benchmark: str, variant: str, length: int, seed: int, block_words: int):
    program, behavior = variant_program(benchmark, variant, block_words)
    return generate_trace(program, behavior, length, seed=seed)


# -- measured cells ----------------------------------------------------------

#: One measured cell: its result-cache kind and key.  An artifact lists
#: the cells it reads (``cells(config)``) and renders from their values
#: (``render(config, results)``), so a report loads or computes each
#: distinct cell once.
Cell = tuple[str, tuple]

#: Cell values by cell, as :func:`resolve` returns them.
Results = Mapping[Cell, Any]


def sim_cell(
    benchmark: str,
    machine_name: str,
    scheme: str,
    variant: str = "orig",
    length: int = DEFAULT_CONFIG.trace_length,
    warmup: int = DEFAULT_CONFIG.warmup,
    seed: int = DEFAULT_CONFIG.seed,
    fetch_penalty: int | None = None,
    block_words: int = 4,
    telemetry: bool = False,
) -> Cell:
    """The cell of one full IPC simulation.

    Only pads depend on *block_words* (:func:`_layout_words`), so an
    ``orig`` or ``reordered`` cell is keyed without it and every caller
    of the same simulation shares one cache entry.  With *telemetry*
    the cell is of kind ``telemetry_stats``, so plain and instrumented
    results never serve each other.
    """
    kind = "telemetry_stats" if telemetry else "sim_stats"
    words = _layout_words(variant, block_words)
    key = (benchmark, machine_name, scheme, variant, length, warmup, seed)
    return kind, key + (fetch_penalty, words)


def _simulate(key: tuple, telemetry: bool = False) -> SimStats:
    bench, machine_name, scheme, variant, length, warmup, seed, penalty, words = key
    machine = get_machine(machine_name)
    if penalty is not None:
        machine = machine.with_fetch_penalty(penalty)
    trace = variant_trace(bench, variant, length, seed, words)
    return Simulator(
        machine, trace, scheme, warmup=warmup, telemetry=telemetry
    ).run()


def eir_cell(
    benchmark: str,
    machine_name: str,
    scheme: str,
    variant: str = "orig",
    length: int = DEFAULT_CONFIG.eir_length,
    seed: int = DEFAULT_CONFIG.seed,
) -> Cell:
    """The cell of one fetch-only EIR measurement."""
    return "eir_stats", (benchmark, machine_name, scheme, variant, length, seed)


def _measure_eir(key: tuple) -> EIRResult:
    benchmark, machine_name, scheme, variant, length, seed = key
    trace = variant_trace(benchmark, variant, length, seed)
    return measure_eir(trace, get_machine(machine_name), scheme)


def branch_cell(
    benchmark: str, variant: str, length: int, seed: int, block_words: int
) -> Cell:
    """The cell of the taken-branch statistics of the ``orig`` or
    ``reordered`` trace (Tables 2 and 3) at *block_words*.  The trace
    itself does not depend on *block_words*."""
    return "branch_stats", (benchmark, variant, length, seed, block_words)


def _branch_stats(key: tuple) -> TakenBranchStats:
    benchmark, variant, length, seed, block_words = key
    trace = variant_trace(benchmark, variant, length, seed)
    return taken_branch_stats(trace, block_words)


def pad_cell(benchmark: str, variant: str, block_words: int) -> Cell:
    """The cell of the static nop expansion of a ``pad_all`` or
    ``pad_trace`` variant (Table 4)."""
    return "pad_expansion", (benchmark, variant, block_words)


def _pad_expansion(key: tuple) -> float:
    return _pad(*key).expansion


#: How a missed cell of each kind is computed from its key.
_COMPUTE: dict[str, Callable[[tuple], Any]] = {
    "sim_stats": _simulate,
    "telemetry_stats": partial(_simulate, telemetry=True),
    "eir_stats": _measure_eir,
    "branch_stats": _branch_stats,
    "pad_expansion": _pad_expansion,
}


def request(cell: Cell, missed: bool = False):
    """One cell's value: a result-cache hit, or computed and stored.

    Results are reused only through the persistent disk cache
    (:mod:`repro.sim.cache`), so batch workers, repeated experiment
    invocations and CI runs share them; nothing is memoised in process
    but the trace (:func:`variant_trace`).  The engine options that
    never change a result (``REPRO_SANITIZE``, ``REPRO_KERNEL``) are
    environment knobs salted into the disk-cache key, so they may be
    flipped between calls.  *missed* says a cache load of the cell has
    already missed (:func:`resolve`'s probe), so it is not loaded again.
    """
    kind, key = cell
    if kind in ("sim_stats", "telemetry_stats"):
        # Chaos site: lets the harness prove a transient failure here is retried.
        faults.maybe_fail("sim.stats")
    return result_cache.get_or_compute(
        kind, key, lambda: _COMPUTE[kind](key), missed=missed
    )


@dataclass(frozen=True, slots=True)
class CellGroup:
    """One benchmark's missed cells: one pool job, so the worker that
    runs it builds the benchmark's workload, reordering and traces
    once."""

    benchmark: str
    cells: tuple[Cell, ...]


def _compute_group(group: CellGroup) -> list:
    return [request(cell, missed=True) for cell in group.cells]


#: Where a kind's key holds the length of the trace its cell runs.
_LENGTH_FIELD = {
    "sim_stats": 4,
    "telemetry_stats": 4,
    "eir_stats": 4,
    "branch_stats": 2,
}


def _cost(group: CellGroup) -> int:
    """A group's estimated cost: the trace instructions its cells run
    (a static nop expansion runs none)."""
    return sum(
        key[_LENGTH_FIELD[kind]] for kind, key in group.cells if kind in _LENGTH_FIELD
    )


def resolve(cells: Iterable[Cell], processes: int | None = None) -> dict[Cell, Any]:
    """The value of each distinct cell in *cells*, requested once each,
    in first-request order.

    With *processes* <= 1 each cell is requested in turn on this thread.
    Otherwise (default: one worker per CPU) the cells the result cache
    holds are loaded here first, so a warm call starts no process.  The
    missed cells are grouped by benchmark (the first field of every
    key), and the groups run costliest first on a
    :func:`~repro.sim.supervisor.run_supervised` pool of at most
    *processes* workers, one per group at most; a lone group is
    computed here.  Values come back over the pool's result pipes, and
    the workers' result-cache counters are added to this process's.
    """
    order = list(dict.fromkeys(cells))
    if processes is None:
        processes = os.cpu_count() or 1
    if processes <= 1:
        return {cell: request(cell) for cell in order}
    values = {}
    misses: dict[str, list[Cell]] = {}
    for cell in order:
        value = result_cache.load(*cell)
        if value is None:
            misses.setdefault(cell[1][0], []).append(cell)
        else:
            values[cell] = value
    groups = sorted(
        (CellGroup(benchmark, tuple(group)) for benchmark, group in misses.items()),
        key=_cost,
        reverse=True,
    )
    if len(groups) == 1:
        values.update(zip(groups[0].cells, _compute_group(groups[0])))
    elif groups:
        processes = min(processes, len(groups))
        with tracing.span("batch.run", jobs=len(groups), processes=processes):
            run = run_supervised(groups, _compute_group, processes=processes)
        for group, group_values in zip(groups, run.results):
            values.update(zip(group.cells, group_values))
    return {cell: values[cell] for cell in order}


def sim_stats(*args, **kwargs) -> SimStats:
    """Run (and cache) one full IPC simulation: the value of
    :func:`sim_cell`'s cell for the same arguments.

    With ``telemetry=True``, ``extra`` also carries the ``slot_*``
    attribution (deterministic integers, so they round-trip through the
    disk cache).  Wall-clock phase timings are *not* cached — a cache
    hit serves the attribution only.
    """
    return request(sim_cell(*args, **kwargs))


def eir_stats(*args, **kwargs) -> EIRResult:
    """Run (and cache) one fetch-only EIR measurement: the value of
    :func:`eir_cell`'s cell for the same arguments."""
    return request(eir_cell(*args, **kwargs))


#: The paper's two benchmark classes, in its panel order.
BENCHMARK_CLASSES = (("int", INTEGER_BENCHMARKS), ("fp", FP_BENCHMARKS))


def ipc_cell(
    benchmark: str,
    machine: MachineConfig,
    scheme: str,
    config: ExperimentConfig,
    variant: str = "orig",
    fetch_penalty: int | None = None,
) -> Cell:
    """The simulation of *benchmark* behind an IPC figure's bar."""
    return sim_cell(
        benchmark,
        machine.name,
        scheme,
        variant=variant,
        length=config.trace_length,
        warmup=config.warmup,
        seed=config.seed,
        fetch_penalty=fetch_penalty,
        block_words=machine.words_per_block,
    )


def ipc_bar(
    benchmarks: tuple[str, ...],
    machine: MachineConfig,
    scheme: str,
    config: ExperimentConfig,
    variant: str = "orig",
    fetch_penalty: int | None = None,
) -> list[Cell]:
    """The cells of one harmonic-mean IPC bar, one per benchmark."""
    return [
        ipc_cell(bench, machine, scheme, config, variant, fetch_penalty)
        for bench in benchmarks
    ]


def hmean_ipc(results: Results, bar: list[Cell]) -> float:
    """Harmonic-mean useful IPC over the simulations of *bar* (the
    paper's aggregate; nops retired by padded programs do not count as
    work)."""
    return harmonic_mean(results[cell].useful_ipc for cell in bar)


#: One row of an IPC figure: its label columns, then one bar (a list of
#: cells, see :func:`ipc_bar`) per IPC column.
BarRow = tuple[list, list[list[Cell]]]


def bar_cells(rows: list[BarRow]) -> list[Cell]:
    """Every cell of a figure's ``(label, bars)`` rows, in order."""
    return [cell for _, bars in rows for bar in bars for cell in bar]


def bar_rows(results: Results, rows: list[BarRow]) -> list[list]:
    """A figure's table rows: each row's label, then its bars' means."""
    return [label + [hmean_ipc(results, bar) for bar in bars] for label, bars in rows]


def all_machines() -> tuple[MachineConfig, ...]:
    return MACHINES
