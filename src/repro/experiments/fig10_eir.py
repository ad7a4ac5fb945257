"""Figure 10: EIR / EIR(perfect) — alignment efficiency.

The effective issue rate is measured fetch-only (see
:mod:`repro.sim.eir`): the scheme's raw supply of aligned correct-path
instructions per cycle.  ``EIR(perfect)`` falls short of the ideal only
through I-cache misses; the ratio isolates each scheme's alignment
ability.  Paper finding: the collapsing buffer is the most consistent
scheme, staying at/above ~90% from PI4 to PI12, while the others decay
with issue rate.
"""

from __future__ import annotations

import dataclasses

from repro.check.rules import RULES, UNLIMITED
from repro.experiments.common import (
    BENCHMARK_CLASSES,
    DEFAULT_CONFIG,
    Cell,
    ExperimentConfig,
    ExperimentResult,
    Results,
    all_machines,
    eir_cell,
    resolve,
    variant_trace,
)
from repro.fetch.collapsing import CollapsingBufferFetch
from repro.fetch.factory import HARDWARE_SCHEMES
from repro.metrics.summary import harmonic_mean
from repro.sim.eir import measure_eir
from repro.workloads.profiles import ALL_BENCHMARKS, INTEGER_BENCHMARKS, get_profile

#: Paper's harmonic-mean ratios (percent), read from Figure 10.
PAPER_FIG10 = {
    ("int", "PI4"): {"sequential": 54.5, "collapsing_buffer": 93.5},
    ("int", "PI12"): {"sequential": 43.0, "collapsing_buffer": 90.6},
    ("fp", "PI4"): {"sequential": 96.5, "collapsing_buffer": 98.5},
    ("fp", "PI12"): {"sequential": 79.5, "collapsing_buffer": 90.2},
}


def _cell(benchmark: str, machine, scheme: str, config: ExperimentConfig) -> Cell:
    # The default seed, not ``config.seed``: a known defect, kept until
    # the seed-1 report digest in bench/golden.json may change with it.
    return eir_cell(benchmark, machine.name, scheme, length=config.eir_length)


def cells(config: ExperimentConfig) -> list[Cell]:
    """The cells of both :func:`run` and :func:`run_detail`."""
    return [
        _cell(bench, machine, scheme, config)
        for _, benchmarks in BENCHMARK_CLASSES
        for machine in all_machines()
        for scheme in ("perfect",) + HARDWARE_SCHEMES
        for bench in benchmarks
    ]


def render_detail(config: ExperimentConfig, results: Results) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig10_detail",
        title="Figure 10 (detail): per-benchmark EIR/EIR(perfect) %",
        headers=["class", "benchmark", "machine", "EIR(perfect)"]
        + [f"{s} %" for s in HARDWARE_SCHEMES],
    )
    for benchmark in ALL_BENCHMARKS:
        for machine in all_machines():
            perfect = results[_cell(benchmark, machine, "perfect", config)].eir
            row = [
                get_profile(benchmark).workload_class,
                benchmark,
                machine.name,
                perfect,
            ]
            for scheme in HARDWARE_SCHEMES:
                eir = results[_cell(benchmark, machine, scheme, config)].eir
                row.append(100.0 * eir / perfect)
            result.rows.append(row)
    return result


def run_detail(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Per-benchmark variant of Figure 10."""
    return render_detail(config, resolve(cells(config)))


def render(config: ExperimentConfig, results: Results) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig10",
        title="Figure 10: EIR/EIR(perfect) percent, per fetch scheme",
        headers=["class", "machine", "EIR(perfect)"]
        + [f"{s} %" for s in HARDWARE_SCHEMES],
        notes=(
            "Expected shape: collapsing buffer most consistent and "
            "highest; sequential decays fastest with issue rate."
        ),
    )
    for class_name, benchmarks in BENCHMARK_CLASSES:
        for machine in all_machines():
            perfect = {
                bench: results[_cell(bench, machine, "perfect", config)].eir
                for bench in benchmarks
            }
            row = [
                class_name,
                machine.name,
                harmonic_mean(perfect.values()),
            ]
            for scheme in HARDWARE_SCHEMES:
                ratios = [
                    results[_cell(bench, machine, scheme, config)].eir
                    / perfect[bench]
                    for bench in benchmarks
                ]
                row.append(100.0 * harmonic_mean(ratios))
            result.rows.append(row)
    return result


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    return render(config, resolve(cells(config)))


# -- ablation: the collapsing buffer's two-block limit ------------------------


class _UnlimitedCrossingCollapsingBuffer(CollapsingBufferFetch):
    """Idealised collapsing buffer that may cross any number of taken
    inter-block branches per cycle (a multi-ported cache).  Used to
    quantify how much of the PI12 EIR gap the strict two-block fetch
    accounts for (see EXPERIMENTS.md, Figure 10 notes)."""

    name = "collapsing_buffer_unlimited"
    rules = dataclasses.replace(
        RULES["collapsing_buffer"],
        scheme=name,
        max_blocks=UNLIMITED,
        max_inter_block_crossings=UNLIMITED,
        banked_conflict_free=False,
    )


def run_cb_crossing_limit(
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> ExperimentResult:
    """EIR ratio of the real collapsing buffer versus an idealised
    unlimited-crossing variant, per machine (integer benchmarks).

    Not a study preset: registering the idealised unit as a fetch scheme
    would widen the scheme matrix every sweep and check covers.
    """
    result = ExperimentResult(
        experiment="ablation_cb_crossings",
        title=(
            "Ablation: collapsing-buffer EIR/EIR(perfect) %, two-block "
            "fetch vs unlimited crossings"
        ),
        headers=["machine", "two-block %", "unlimited %"],
        notes=(
            "The unlimited variant isolates the one-inter-block-crossing "
            "restriction as the dominant PI12 alignment loss."
        ),
    )
    for machine in all_machines():
        ratios_real = []
        ratios_ideal = []
        for benchmark in INTEGER_BENCHMARKS:
            trace = variant_trace(
                benchmark, "orig", config.eir_length, config.seed
            )
            perfect = measure_eir(trace, machine, "perfect").eir
            real = measure_eir(trace, machine, "collapsing_buffer").eir
            ideal = measure_eir(
                trace,
                machine,
                _UnlimitedCrossingCollapsingBuffer(machine, trace),
            ).eir
            ratios_real.append(real / perfect)
            ratios_ideal.append(ideal / perfect)
        result.rows.append(
            [
                machine.name,
                100.0 * harmonic_mean(ratios_real),
                100.0 * harmonic_mean(ratios_ideal),
            ]
        )
    return result
