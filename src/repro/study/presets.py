"""Named study presets: the registry of the beyond-paper ablations.

Each ablation table is a :class:`~repro.study.spec.StudySpec` plus a
renderer that turns the executed study back into its
:class:`~repro.experiments.common.ExperimentResult` (titles, headers,
notes, cell values and row order locked by
``tests/test_study.py::test_ablation_tables_golden``).
``repro ablate run NAME`` prints that table under the study summary;
:func:`run_preset_table` builds it in-process.

Two ablation tables are not studies and live next to the artifact they
explain: ``run_superblock`` (compiler metrics) in
:mod:`repro.experiments.table3_taken_reduction` and
``run_cb_crossing_limit`` (an idealised fetch unit) in
:mod:`repro.experiments.fig10_eir`.

Presets without a table (``fig11-shifter``, ``smoke``) are the worked
example in ``docs/studies.md`` and the tiny CI chaos study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.common import (
    ABLATION_BENCHMARKS,
    DEFAULT_CONFIG,
    ExperimentConfig,
    ExperimentResult,
)
from repro.metrics.summary import harmonic_mean
from repro.study.engine import run_jobs
from repro.study.spec import (
    PREDICTOR_KINDS,
    Expansion,
    StudySpec,
    Toggle,
    expand,
)

#: Machine models the multi-machine ablations sweep, in table row order.
MACHINE_NAMES = ("PI4", "PI8", "PI12")


@dataclass(frozen=True, slots=True)
class StudyPreset:
    """A named, parameterised study.

    Attributes:
        name: CLI name (``repro ablate run <name>``).
        description: One line for ``repro ablate list``.
        build: ``config -> StudySpec`` (config scales trace lengths).
        table: Optional ablation-table renderer
            ``(spec, expansion, metrics_by_run) -> ExperimentResult``.
    """

    name: str
    description: str
    build: Callable[[ExperimentConfig], StudySpec]
    table: Callable | None = None


def _base(config: ExperimentConfig, name: str, **overrides) -> StudySpec:
    """An IPC-only spec over the ablation benchmarks at *config*'s scale."""
    fields = dict(
        name=name,
        benchmarks=ABLATION_BENCHMARKS,
        length=config.trace_length,
        eir_length=config.eir_length,
        warmup=config.warmup,
        seed=config.seed,
        metrics=("ipc",),
    )
    fields.update(overrides)
    return StudySpec(**fields)


def _values(spec: StudySpec, toggle_name: str) -> tuple:
    """The declared values of *toggle_name* (single source of truth for
    the table renderers)."""
    for toggle in spec.toggles:
        if toggle.name == toggle_name:
            return toggle.values
    raise KeyError(toggle_name)


def _ipc(metrics_by_run: dict, run_id: str) -> float:
    return metrics_by_run[run_id]["ipc"]


# -- ablation tables ----------------------------------------------------------


def _build_spec_depth(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "spec-depth",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("machine", "machine", MACHINE_NAMES),
            Toggle("depth", "speculation_depth", (1, 2, 4, 6, 8)),
        ),
        pairwise=(("machine", "depth"),),
    )


def _table_spec_depth(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    depths = _values(spec, "depth")
    result = ExperimentResult(
        experiment="ablation_spec_depth",
        title="Ablation: IPC (collapsing buffer) vs speculation depth",
        headers=["machine"] + [f"depth {d}" for d in depths],
        notes=(
            "Expected: IPC saturates near each machine's paper depth "
            "(2 / 4 / 6); depth 1 starves every machine."
        ),
    )
    for name in _values(spec, "machine"):
        row: list = [name]
        for depth in depths:
            row.append(
                _ipc(metrics, expansion.pair_id("machine", name, "depth", depth))
            )
        result.rows.append(row)
    return result


def _build_banks(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "banks",
        machine="PI8",
        scheme="banked_sequential",
        toggles=(
            Toggle(
                "scheme", "scheme", ("banked_sequential", "collapsing_buffer")
            ),
            Toggle("banks", "num_banks", (2, 4, 8)),
        ),
        pairwise=(("scheme", "banks"),),
    )


def _table_banks(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    bank_counts = _values(spec, "banks")
    result = ExperimentResult(
        experiment="ablation_banks",
        title="Ablation: banked-sequential IPC vs cache bank count (PI8)",
        headers=["scheme"] + [f"{b} banks" for b in bank_counts],
        notes="Expected: IPC rises monotonically with bank count.",
    )
    for scheme in _values(spec, "scheme"):
        row: list = [scheme]
        for banks in bank_counts:
            row.append(
                _ipc(metrics, expansion.pair_id("scheme", scheme, "banks", banks))
            )
        result.rows.append(row)
    return result


def _build_predictors(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "predictors",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("impl", "fetch_penalty", (2, 3)),
            Toggle("predictor", "predictor", PREDICTOR_KINDS),
        ),
        pairwise=(("impl", "predictor"),),
    )


def _table_predictors(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    kinds = _values(spec, "predictor")
    result = ExperimentResult(
        experiment="ablation_predictors",
        title=(
            "Ablation: collapsing-buffer IPC vs predictor "
            "(PI8; crossbar p2 / shifter p3)"
        ),
        headers=["implementation"] + list(kinds),
        notes=(
            "Finding: the RAS fixes return mispredictions and lifts both "
            "implementations; gshare *hurts* here — the synthetic branch "
            "behaviour is per-branch bursty with no cross-branch "
            "correlation, so global history only adds interference and "
            "local 2-bit counters sit near the predictability ceiling.  "
            "On these workloads no direction predictor rescues the "
            "shifter's extra penalty cycle."
        ),
    )
    for label, penalty in (("crossbar (p2)", 2), ("shifter (p3)", 3)):
        row: list = [label]
        for kind in kinds:
            row.append(
                _ipc(
                    metrics,
                    expansion.pair_id("impl", penalty, "predictor", kind),
                )
            )
        result.rows.append(row)
    return result


def _build_cold_start(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "cold-start",
        machine="PI8",
        scheme="sequential",
        toggles=(
            Toggle(
                "scheme",
                "scheme",
                (
                    "sequential",
                    "interleaved_sequential",
                    "banked_sequential",
                    "collapsing_buffer",
                ),
            ),
            Toggle("cold", "prewarm", (False,)),
        ),
        pairwise=(("scheme", "cold"),),
    )


def _table_cold_start(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_cold_start",
        title="Ablation: steady-state vs cold-start IPC (PI8)",
        headers=["scheme", "steady-state", "cold", "cold penalty %"],
        notes=(
            "Expected: everyone loses when cold; interleaved sequential "
            "loses the least (its prefetch doubles as a cold-miss hider)."
        ),
    )
    for scheme in _values(spec, "scheme"):
        warm = _ipc(metrics, expansion.single_id("scheme", scheme))
        cold = _ipc(
            metrics, expansion.pair_id("scheme", scheme, "cold", False)
        )
        result.rows.append(
            [scheme, warm, cold, 100.0 * (warm - cold) / warm]
        )
    return result


def _build_btb_size(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "btb-size",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("btb", "btb_entries", (256, 512, 1024, 2048, 4096)),
        ),
    )


def _table_btb_size(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    sizes = _values(spec, "btb")
    result = ExperimentResult(
        experiment="ablation_btb",
        title="Ablation: IPC (collapsing buffer, PI8) vs BTB entries",
        headers=["machine"] + [str(s) for s in sizes],
        notes="Expected: diminishing returns past the ~1K working set.",
    )
    row: list = ["PI8"]
    for size in sizes:
        row.append(_ipc(metrics, expansion.single_id("btb", size)))
    result.rows.append(row)
    return result


def _build_trace_cache(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "trace-cache",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("machine", "machine", MACHINE_NAMES),
            Toggle(
                "scheme",
                "scheme",
                (
                    "banked_sequential",
                    "collapsing_buffer",
                    "trace_cache",
                    "perfect",
                ),
            ),
        ),
        pairwise=(("machine", "scheme"),),
    )


def _table_trace_cache(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    schemes = _values(spec, "scheme")
    result = ExperimentResult(
        experiment="ablation_trace_cache",
        title="Extension: trace cache vs the paper's schemes (integer subset)",
        headers=["machine"] + list(schemes),
        notes=(
            "Expected: the trace cache is competitive with the collapsing "
            "buffer — dynamic sequences subsume alignment."
        ),
    )
    for name in _values(spec, "machine"):
        row: list = [name]
        for scheme in schemes:
            row.append(
                _ipc(
                    metrics,
                    expansion.pair_id("machine", name, "scheme", scheme),
                )
            )
        result.rows.append(row)
    return result


def _build_memory_ordering(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "memory-ordering",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("machine", "machine", MACHINE_NAMES),
            Toggle("ordering", "memory_ordering", ("conservative",)),
        ),
        pairwise=(("machine", "ordering"),),
    )


def _table_memory_ordering(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_memory",
        title="Ablation: memory-dependence policy (collapsing buffer)",
        headers=["machine", "register-only", "conservative", "loss %"],
        notes=(
            "Conservative ordering serialises memory traffic through the "
            "store stream; the gap bounds the value of disambiguation."
        ),
    )
    for name in _values(spec, "machine"):
        base = _ipc(metrics, expansion.single_id("machine", name))
        ordered = _ipc(
            metrics,
            expansion.pair_id("machine", name, "ordering", "conservative"),
        )
        result.rows.append(
            [name, base, ordered, 100.0 * (base - ordered) / base]
        )
    return result


def _build_window_size(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "window-size",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("machine", "machine", MACHINE_NAMES),
            Toggle("window", "window_size", (12, 16, 24, 32, 48, 64)),
        ),
        pairwise=(("machine", "window"),),
    )


def _table_window_size(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    sizes = _values(spec, "window")
    result = ExperimentResult(
        experiment="ablation_window",
        title="Ablation: IPC (collapsing buffer) vs window size",
        headers=["machine"] + [str(s) for s in sizes],
        notes=(
            "Expected: diminishing returns past each machine's paper "
            "window (16 / 24 / 32) — fetch, not the window, binds."
        ),
    )
    for name in _values(spec, "machine"):
        row: list = [name]
        for size in sizes:
            row.append(
                _ipc(
                    metrics,
                    expansion.pair_id("machine", name, "window", size),
                )
            )
        result.rows.append(row)
    return result


def _build_fetch_queue(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "fetch-queue",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("machine", "machine", MACHINE_NAMES),
            Toggle("queue", "fetch_queue_groups", (1, 2, 4, 8)),
        ),
        pairwise=(("machine", "queue"),),
    )


def _table_fetch_queue(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    depths = _values(spec, "queue")
    result = ExperimentResult(
        experiment="ablation_queue",
        title="Ablation: IPC (collapsing buffer) vs fetch-queue depth",
        headers=["machine"] + [f"{d} groups" for d in depths],
        notes=(
            "Expected: a small gain from depth 1 to 2 (fetch keeps "
            "running while dispatch drains), then saturation — the queue "
            "cannot manufacture bandwidth."
        ),
    )
    for name in _values(spec, "machine"):
        row: list = [name]
        for depth in depths:
            row.append(
                _ipc(
                    metrics,
                    expansion.pair_id("machine", name, "queue", depth),
                )
            )
        result.rows.append(row)
    return result


def _build_recovery(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "recovery",
        machine="PI8",
        scheme="collapsing_buffer",
        toggles=(
            Toggle("machine", "machine", MACHINE_NAMES),
            Toggle("scheme", "scheme", ("sequential", "collapsing_buffer")),
            Toggle("retire", "recovery_at_retire", (True,)),
        ),
        pairwise=(("machine", "scheme"), ("machine", "scheme", "retire")),
    )


def _table_recovery(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation_recovery",
        title="Ablation: misprediction recovery point (integer subset)",
        headers=[
            "machine",
            "seq @resolution",
            "seq @retire",
            "collapsing @resolution",
            "collapsing @retire",
        ],
        notes="Expected: retirement recovery costs IPC across the board.",
    )
    for name in _values(spec, "machine"):
        row: list = [name]
        for scheme in _values(spec, "scheme"):
            cell = ("machine", name, "scheme", scheme)
            row.append(_ipc(metrics, expansion.pair_id(*cell)))
            row.append(
                _ipc(metrics, expansion.pair_id(*cell, "retire", True))
            )
        result.rows.append(row)
    return result


def _build_issue_scaling(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "issue-scaling",
        machine="PI8",
        scheme="collapsing_buffer",
        metrics=("eir",),
        toggles=(
            Toggle("machine", "machine", (*MACHINE_NAMES, "PI16")),
            Toggle(
                "scheme",
                "scheme",
                ("sequential", "banked_sequential", "perfect"),
            ),
        ),
        pairwise=(("machine", "scheme"),),
    )


def _table_issue_scaling(
    spec: StudySpec, expansion: Expansion, metrics: dict
) -> ExperimentResult:
    schemes = ("sequential", "banked_sequential", "collapsing_buffer")
    result = ExperimentResult(
        experiment="ablation_issue_scaling",
        title="Extension: EIR/EIR(perfect) % through a 16-issue machine",
        headers=["machine", "EIR(perfect)"] + [f"{s} %" for s in schemes],
        notes=(
            "Expected: sequential keeps collapsing; the collapsing buffer "
            "degrades gently — the paper's scalability claim extrapolates."
        ),
    )

    def per_benchmark(name: str, scheme: str) -> dict:
        run_id = (
            expansion.single_id("machine", name)
            if scheme == spec.scheme
            else expansion.pair_id("machine", name, "scheme", scheme)
        )
        return metrics[run_id]["benchmarks"]

    for name in _values(spec, "machine"):
        perfect = per_benchmark(name, "perfect")
        row: list = [
            name,
            harmonic_mean(perfect[b]["eir"] for b in spec.benchmarks),
        ]
        for scheme in schemes:
            eirs = per_benchmark(name, scheme)
            row.append(
                100.0
                * harmonic_mean(
                    eirs[b]["eir"] / perfect[b]["eir"] for b in spec.benchmarks
                )
            )
        result.rows.append(row)
    return result


# -- presets without a table --------------------------------------------------


def _build_fig11_shifter(config: ExperimentConfig) -> StudySpec:
    return _base(
        config,
        "fig11-shifter",
        machine="PI8",
        scheme="collapsing_buffer",
        metrics=("ipc", "eir"),
        toggles=(
            Toggle("shifter", "fetch_penalty", (3,)),
            Toggle("predictor", "predictor", ("btb+ras", "gshare+ras")),
        ),
        pairwise=(("shifter", "predictor"),),
    )


def _build_smoke(config: ExperimentConfig) -> StudySpec:
    # Fixed tiny lengths regardless of scale: the CI chaos study must
    # cost seconds, and its report must be byte-stable across machines.
    return StudySpec(
        name="smoke",
        benchmarks=("compress",),
        machine="PI4",
        scheme="collapsing_buffer",
        length=2_500,
        eir_length=2_500,
        warmup=400,
        seed=config.seed,
        metrics=("ipc", "eir"),
        toggles=(
            Toggle("btb", "btb_entries", (256,)),
            Toggle("banks", "num_banks", (2,)),
        ),
        pairwise=(("btb", "banks"),),
    )


#: Every named preset, in ``repro ablate list`` order.
PRESETS: dict[str, StudyPreset] = {
    preset.name: preset
    for preset in (
        StudyPreset(
            name="spec-depth",
            description="IPC vs speculation depth across machines",
            build=_build_spec_depth,
            table=_table_spec_depth,
        ),
        StudyPreset(
            name="banks",
            description="banked-sequential IPC vs cache bank count (PI8)",
            build=_build_banks,
            table=_table_banks,
        ),
        StudyPreset(
            name="predictors",
            description="collapsing-buffer IPC vs predictor (crossbar/shifter)",
            build=_build_predictors,
            table=_table_predictors,
        ),
        StudyPreset(
            name="cold-start",
            description="steady-state vs cold-start IPC (PI8)",
            build=_build_cold_start,
            table=_table_cold_start,
        ),
        StudyPreset(
            name="btb-size",
            description="IPC vs BTB capacity (collapsing buffer, PI8)",
            build=_build_btb_size,
            table=_table_btb_size,
        ),
        StudyPreset(
            name="trace-cache",
            description="trace cache vs the paper's schemes",
            build=_build_trace_cache,
            table=_table_trace_cache,
        ),
        StudyPreset(
            name="memory-ordering",
            description="register-only vs conservative memory ordering",
            build=_build_memory_ordering,
            table=_table_memory_ordering,
        ),
        StudyPreset(
            name="window-size",
            description="IPC vs scheduling-window size across machines",
            build=_build_window_size,
            table=_table_window_size,
        ),
        StudyPreset(
            name="fetch-queue",
            description="IPC vs fetch/decode queue depth across machines",
            build=_build_fetch_queue,
            table=_table_fetch_queue,
        ),
        StudyPreset(
            name="recovery",
            description="misprediction recovery at resolution vs retirement",
            build=_build_recovery,
            table=_table_recovery,
        ),
        StudyPreset(
            name="issue-scaling",
            description="EIR/EIR(perfect) through a 16-issue machine",
            build=_build_issue_scaling,
            table=_table_issue_scaling,
        ),
        StudyPreset(
            name="fig11-shifter",
            description=(
                "worked example: does a better predictor rescue the "
                "shifter collapsing buffer? (docs/studies.md)"
            ),
            build=_build_fig11_shifter,
        ),
        StudyPreset(
            name="smoke",
            description="tiny 2-toggle study for the CI chaos gauntlet",
            build=_build_smoke,
        ),
    )
}



def metrics_from_report(report: dict) -> dict[str, dict]:
    """The ``metrics_by_run`` a table renderer takes, rebuilt from a
    study's ``report.json`` dict."""
    return {
        run["run_id"]: {**run["metrics"], "benchmarks": run["benchmarks"]}
        for run in report["runs"]
    }


def run_preset_table(
    name: str, config: ExperimentConfig = DEFAULT_CONFIG
) -> ExperimentResult:
    """Execute preset *name* in-process and render its ablation table.

    Runs serially (``processes=1``) with no journal; the per-job result
    cache still deduplicates work across invocations.
    """
    preset = PRESETS[name]
    if preset.table is None:
        raise ValueError(f"preset {name!r} has no table renderer")
    spec = preset.build(config)
    expansion = expand(spec)
    metrics_by_run, _ = run_jobs(spec, expansion, processes=1)
    return preset.table(spec, expansion, metrics_by_run)
