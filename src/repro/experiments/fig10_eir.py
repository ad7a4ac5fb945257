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

from repro.experiments.common import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    ExperimentResult,
    all_machines,
    eir_stats,
    variant_trace,
)
from repro.fetch.base import FetchPlan
from repro.fetch.collapsing import CollapsingBufferFetch
from repro.fetch.factory import HARDWARE_SCHEMES
from repro.metrics.summary import harmonic_mean
from repro.sim.eir import measure_eir
from repro.workloads.profiles import FP_BENCHMARKS, INTEGER_BENCHMARKS

#: Paper's harmonic-mean ratios (percent), read from Figure 10.
PAPER_FIG10 = {
    ("int", "PI4"): {"sequential": 54.5, "collapsing_buffer": 93.5},
    ("int", "PI12"): {"sequential": 43.0, "collapsing_buffer": 90.6},
    ("fp", "PI4"): {"sequential": 96.5, "collapsing_buffer": 98.5},
    ("fp", "PI12"): {"sequential": 79.5, "collapsing_buffer": 90.2},
}


def run_detail(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Per-benchmark variant of Figure 10."""
    from repro.workloads.profiles import ALL_BENCHMARKS, get_profile

    result = ExperimentResult(
        experiment="fig10_detail",
        title="Figure 10 (detail): per-benchmark EIR/EIR(perfect) %",
        headers=["class", "benchmark", "machine", "EIR(perfect)"]
        + [f"{s} %" for s in HARDWARE_SCHEMES],
    )
    for benchmark in ALL_BENCHMARKS:
        for machine in all_machines():
            perfect = eir_stats(
                benchmark, machine.name, "perfect", length=config.eir_length
            ).eir
            row = [
                get_profile(benchmark).workload_class,
                benchmark,
                machine.name,
                perfect,
            ]
            for scheme in HARDWARE_SCHEMES:
                eir = eir_stats(
                    benchmark, machine.name, scheme, length=config.eir_length
                ).eir
                row.append(100.0 * eir / perfect)
            result.rows.append(row)
    return result


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> ExperimentResult:
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
    for class_name, benchmarks in (
        ("int", INTEGER_BENCHMARKS),
        ("fp", FP_BENCHMARKS),
    ):
        for machine in all_machines():
            perfect = {
                bench: eir_stats(
                    bench, machine.name, "perfect", length=config.eir_length
                ).eir
                for bench in benchmarks
            }
            row = [
                class_name,
                machine.name,
                harmonic_mean(perfect.values()),
            ]
            for scheme in HARDWARE_SCHEMES:
                ratios = [
                    eir_stats(
                        bench, machine.name, scheme, length=config.eir_length
                    ).eir
                    / perfect[bench]
                    for bench in benchmarks
                ]
                row.append(100.0 * harmonic_mean(ratios))
            result.rows.append(row)
    return result


# -- ablation: the collapsing buffer's two-block limit ------------------------


class _UnlimitedCrossingCollapsingBuffer(CollapsingBufferFetch):
    """Idealised collapsing buffer that may cross any number of taken
    inter-block branches per cycle (a multi-ported cache).  Used to
    quantify how much of the PI12 EIR gap the strict two-block fetch
    accounts for (see EXPERIMENTS.md, Figure 10 notes)."""

    name = "collapsing_buffer_unlimited"

    def plan(self, fetch_address: int, limit: int):
        block = self._block_of(fetch_address)
        if not self.cache.access(block):
            self.cache.fill(block)
            return FetchPlan(stall_cycles=self.cache.miss_latency)
        plan = FetchPlan()
        start = fetch_address
        while len(plan.addresses) < limit:
            target = self._walk_collapsing(start, block, limit, plan)
            if target >= 0:
                successor = self._block_of(target)
                if successor == block:
                    break  # backward intra-block: still unsupported
                start = target
            else:
                successor = block + 1
                start = self._block_end(block)
            if not self.cache.access(successor):
                self.cache.fill(successor)
                break
            block = successor
        return plan


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
