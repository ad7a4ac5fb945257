"""Named study presets: the registry of the beyond-paper ablations.

Each preset is declared once, in :data:`PRESETS`: its name, description,
non-default spec fields, toggles, pairwise entries and table renderer.
A renderer turns the executed study back into its
:class:`~repro.experiments.common.ExperimentResult` (titles, headers,
notes, cell values and row order locked by
``tests/test_study.py::test_ablation_tables_golden``).  Most tables
have one of two shapes: :func:`_grid` (one toggle down × another
across) or :func:`_loss` (baseline vs one toggled value, plus the loss
in percent); ``btb-size``, ``recovery`` and ``issue-scaling`` render
their own.  ``repro ablate run NAME`` prints that table under the
study summary; :func:`run_preset_table` builds it in-process.

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


def _preset(
    name: str,
    description: str,
    *toggles: Toggle,
    pairwise: tuple = (),
    table: Callable | None = None,
    metrics: tuple = ("ipc",),
    **fields,
) -> StudyPreset:
    """A preset over the ablation benchmarks at the config's scale.

    *fields* are the spec's other non-default fields (``machine``,
    ``scheme``); a preset computes IPC only unless *metrics* says
    otherwise.
    """

    def build(config: ExperimentConfig) -> StudySpec:
        return StudySpec(
            name=name,
            benchmarks=ABLATION_BENCHMARKS,
            length=config.trace_length,
            eir_length=config.eir_length,
            warmup=config.warmup,
            seed=config.seed,
            metrics=metrics,
            toggles=toggles,
            pairwise=pairwise,
            **fields,
        )

    return StudyPreset(name, description, build, table)


def _values(spec: StudySpec, toggle_name: str) -> tuple:
    """The declared values of *toggle_name* (single source of truth for
    the table renderers)."""
    for toggle in spec.toggles:
        if toggle.name == toggle_name:
            return toggle.values
    raise KeyError(toggle_name)


def _ipc(metrics_by_run: dict, run_id: str) -> float:
    return metrics_by_run[run_id]["ipc"]


# -- table renderers ----------------------------------------------------------


def _grid(
    rows: str,
    columns: str,
    experiment: str,
    title: str,
    notes: str,
    *,
    corner: str = "machine",
    column: str = "{}",
    labels: dict | None = None,
) -> Callable:
    """Toggle *rows* down × toggle *columns* across, one pairwise cell
    each.  *column* formats a column header from its value; *labels*
    names a row by value (default: the value itself)."""

    def render(
        spec: StudySpec, expansion: Expansion, metrics: dict
    ) -> ExperimentResult:
        across = _values(spec, columns)
        result = ExperimentResult(
            experiment=experiment,
            title=title,
            headers=[corner] + [column.format(value) for value in across],
            notes=notes,
        )
        for down in _values(spec, rows):
            row: list = [labels[down] if labels else down]
            for value in across:
                row.append(
                    _ipc(metrics, expansion.pair_id(rows, down, columns, value))
                )
            result.rows.append(row)
        return result

    return render


def _loss(
    rows: str, toggle: str, experiment: str, title: str, headers: list, notes: str
) -> Callable:
    """Per *rows* value: baseline IPC, IPC with *toggle*'s one value, and
    the loss in percent."""

    def render(
        spec: StudySpec, expansion: Expansion, metrics: dict
    ) -> ExperimentResult:
        (value,) = _values(spec, toggle)
        result = ExperimentResult(
            experiment=experiment, title=title, headers=list(headers), notes=notes
        )
        for down in _values(spec, rows):
            base = _ipc(metrics, expansion.single_id(rows, down))
            toggled = _ipc(metrics, expansion.pair_id(rows, down, toggle, value))
            result.rows.append(
                [down, base, toggled, 100.0 * (base - toggled) / base]
            )
        return result

    return render


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


# -- the registry -------------------------------------------------------------

_MACHINE = Toggle("machine", "machine", MACHINE_NAMES)

#: Every named preset, in ``repro ablate list`` order.
PRESETS: dict[str, StudyPreset] = {
    preset.name: preset
    for preset in (
        _preset(
            "spec-depth",
            "IPC vs speculation depth across machines",
            _MACHINE,
            Toggle("depth", "speculation_depth", (1, 2, 4, 6, 8)),
            pairwise=(("machine", "depth"),),
            table=_grid(
                "machine",
                "depth",
                "ablation_spec_depth",
                "Ablation: IPC (collapsing buffer) vs speculation depth",
                "Expected: IPC saturates near each machine's paper depth "
                "(2 / 4 / 6); depth 1 starves every machine.",
                column="depth {}",
            ),
        ),
        _preset(
            "banks",
            "banked-sequential IPC vs cache bank count (PI8)",
            Toggle("scheme", "scheme", ("banked_sequential", "collapsing_buffer")),
            Toggle("banks", "num_banks", (2, 4, 8)),
            pairwise=(("scheme", "banks"),),
            scheme="banked_sequential",
            table=_grid(
                "scheme",
                "banks",
                "ablation_banks",
                "Ablation: banked-sequential IPC vs cache bank count (PI8)",
                "Expected: IPC rises monotonically with bank count.",
                corner="scheme",
                column="{} banks",
            ),
        ),
        _preset(
            "predictors",
            "collapsing-buffer IPC vs predictor (crossbar/shifter)",
            Toggle("impl", "fetch_penalty", (2, 3)),
            Toggle("predictor", "predictor", PREDICTOR_KINDS),
            pairwise=(("impl", "predictor"),),
            table=_grid(
                "impl",
                "predictor",
                "ablation_predictors",
                "Ablation: collapsing-buffer IPC vs predictor "
                "(PI8; crossbar p2 / shifter p3)",
                "Finding: the RAS fixes return mispredictions and lifts both "
                "implementations; gshare *hurts* here — the synthetic branch "
                "behaviour is per-branch bursty with no cross-branch "
                "correlation, so global history only adds interference and "
                "local 2-bit counters sit near the predictability ceiling.  "
                "On these workloads no direction predictor rescues the "
                "shifter's extra penalty cycle.",
                corner="implementation",
                labels={2: "crossbar (p2)", 3: "shifter (p3)"},
            ),
        ),
        _preset(
            "cold-start",
            "steady-state vs cold-start IPC (PI8)",
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
            pairwise=(("scheme", "cold"),),
            scheme="sequential",
            table=_loss(
                "scheme",
                "cold",
                "ablation_cold_start",
                "Ablation: steady-state vs cold-start IPC (PI8)",
                ["scheme", "steady-state", "cold", "cold penalty %"],
                "Expected: everyone loses when cold; interleaved sequential "
                "loses the least (its prefetch doubles as a cold-miss hider).",
            ),
        ),
        _preset(
            "btb-size",
            "IPC vs BTB capacity (collapsing buffer, PI8)",
            Toggle("btb", "btb_entries", (256, 512, 1024, 2048, 4096)),
            table=_table_btb_size,
        ),
        _preset(
            "trace-cache",
            "trace cache vs the paper's schemes",
            _MACHINE,
            Toggle(
                "scheme",
                "scheme",
                ("banked_sequential", "collapsing_buffer", "trace_cache", "perfect"),
            ),
            pairwise=(("machine", "scheme"),),
            table=_grid(
                "machine",
                "scheme",
                "ablation_trace_cache",
                "Extension: trace cache vs the paper's schemes (integer subset)",
                "Expected: the trace cache is competitive with the collapsing "
                "buffer — dynamic sequences subsume alignment.",
            ),
        ),
        _preset(
            "memory-ordering",
            "register-only vs conservative memory ordering",
            _MACHINE,
            Toggle("ordering", "memory_ordering", ("conservative",)),
            pairwise=(("machine", "ordering"),),
            table=_loss(
                "machine",
                "ordering",
                "ablation_memory",
                "Ablation: memory-dependence policy (collapsing buffer)",
                ["machine", "register-only", "conservative", "loss %"],
                "Conservative ordering serialises memory traffic through the "
                "store stream; the gap bounds the value of disambiguation.",
            ),
        ),
        _preset(
            "window-size",
            "IPC vs scheduling-window size across machines",
            _MACHINE,
            Toggle("window", "window_size", (12, 16, 24, 32, 48, 64)),
            pairwise=(("machine", "window"),),
            table=_grid(
                "machine",
                "window",
                "ablation_window",
                "Ablation: IPC (collapsing buffer) vs window size",
                "Expected: diminishing returns past each machine's paper "
                "window (16 / 24 / 32) — fetch, not the window, binds.",
            ),
        ),
        _preset(
            "fetch-queue",
            "IPC vs fetch/decode queue depth across machines",
            _MACHINE,
            Toggle("queue", "fetch_queue_groups", (1, 2, 4, 8)),
            pairwise=(("machine", "queue"),),
            table=_grid(
                "machine",
                "queue",
                "ablation_queue",
                "Ablation: IPC (collapsing buffer) vs fetch-queue depth",
                "Expected: a small gain from depth 1 to 2 (fetch keeps "
                "running while dispatch drains), then saturation — the queue "
                "cannot manufacture bandwidth.",
                column="{} groups",
            ),
        ),
        _preset(
            "recovery",
            "misprediction recovery at resolution vs retirement",
            _MACHINE,
            Toggle("scheme", "scheme", ("sequential", "collapsing_buffer")),
            Toggle("retire", "recovery_at_retire", (True,)),
            pairwise=(("machine", "scheme"), ("machine", "scheme", "retire")),
            table=_table_recovery,
        ),
        _preset(
            "issue-scaling",
            "EIR/EIR(perfect) through a 16-issue machine",
            Toggle("machine", "machine", (*MACHINE_NAMES, "PI16")),
            Toggle(
                "scheme", "scheme", ("sequential", "banked_sequential", "perfect")
            ),
            pairwise=(("machine", "scheme"),),
            metrics=("eir",),
            table=_table_issue_scaling,
        ),
        _preset(
            "fig11-shifter",
            "worked example: does a better predictor rescue the "
            "shifter collapsing buffer? (docs/studies.md)",
            Toggle("shifter", "fetch_penalty", (3,)),
            Toggle("predictor", "predictor", ("btb+ras", "gshare+ras")),
            pairwise=(("shifter", "predictor"),),
            metrics=("ipc", "eir"),
        ),
        StudyPreset(
            "smoke",
            "tiny 2-toggle study for the CI chaos gauntlet",
            # Fixed tiny lengths regardless of scale: the CI chaos study
            # must cost seconds, and its report must be byte-stable
            # across machines.
            lambda config: StudySpec(
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
            ),
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
