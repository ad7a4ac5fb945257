"""Plain-timer performance regression tests (no pytest-benchmark).

These guard the perf properties the hot-path overhaul and the compiled
kernel deliver:

* raw simulator throughput (simulated instructions per wall second) on
  the default run path — the compiled kernel — must stay above a floor
  chosen well below typical measurements, so only a genuine regression,
  not scheduler noise, trips it;
* the kernel must beat the reference loop with bit-identical results
  (the ``compiled_kernel`` section also feeds CI's kernel-bench step);
* a warm persistent-cache run must be a small fraction of the cold run.

Timings are best-of-N to shrug off CI noise.  Results are recorded in
``BENCH_sim_throughput.json`` at the repo root.  Deselect with
``-m "not slow"``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.machines.presets import get_machine
from repro.sim.bench import best_of as _best_of
from repro.sim.bench import measure_throughput, record_section
from repro.sim.simulator import Simulator
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_sim_throughput.json"

#: Default-path (compiled kernel, warm) floor: a 1-vCPU container
#: measures ~0.8-1.2M insn/s; noise is large but not 2x.  The
#: reference loop alone measures ~120-190k, so this floor also
#: guarantees the kernel is actually engaged on the default path.
MIN_INSN_PER_SEC = 500_000

#: Warm kernel-replay floor on the kernel-bench configuration
#: (PI8/interleaved_sequential measures ~1.0-1.2M insn/s warm).
KERNEL_MIN_INSN_PER_SEC = 500_000


def _record(section: str, payload: dict) -> None:
    record_section(BENCH_FILE, section, payload)


def test_simulator_throughput_floor():
    workload = load_workload("espresso")
    trace = generate_trace(workload.program, workload.behavior, 16_000)
    machine = get_machine("PI4")

    def simulate():
        return Simulator(machine, trace, "collapsing_buffer").run()

    # Best-of-3 on a shared trace: the first run compiles the tables and
    # records the fetch-outcome tape; the best run is a warm replay —
    # which is the steady state every sweep/service caller sees.
    best, stats = _best_of(3, simulate)
    throughput = stats.retired / best
    _record(
        "single_simulation",
        {
            "benchmark": "espresso",
            "machine": "PI4",
            "scheme": "collapsing_buffer",
            "instructions": stats.retired,
            "best_seconds": round(best, 4),
            "instructions_per_second": round(throughput),
            "floor": MIN_INSN_PER_SEC,
        },
    )
    assert throughput > MIN_INSN_PER_SEC, (
        f"simulator throughput regressed: {throughput:,.0f} insn/s "
        f"(floor {MIN_INSN_PER_SEC:,})"
    )


def test_kernel_throughput_floor():
    """Interpreted vs compiled on the kernel-bench configuration.

    ``measure_throughput`` raises if any mode's statistics diverge, so
    this doubles as an equivalence check at benchmark length.
    """
    report = measure_throughput(
        benchmark="espresso",
        machine_name="PI8",
        scheme="interleaved_sequential",
        length=20_000,
        warmup=4_000,
        repeats=3,
    )
    report["floor"] = KERNEL_MIN_INSN_PER_SEC
    _record("compiled_kernel", report)
    assert report["bit_identical"]
    warm = report["kernel"]["warm_instructions_per_second"]
    assert warm > KERNEL_MIN_INSN_PER_SEC, (
        f"warm kernel replay regressed: {warm:,.0f} insn/s "
        f"(floor {KERNEL_MIN_INSN_PER_SEC:,})"
    )
    # The kernel must actually pay off over the reference loop.
    assert report["speedup_warm_over_interpreted"] > 1.5


def test_sanitizer_overhead_bounded():
    """The opt-in pipeline sanitizer must stay a cheap always-on-able
    mode: bit-identical statistics at no more than 2.5x the runtime."""
    workload = load_workload("compress")
    trace = generate_trace(workload.program, workload.behavior, 16_000)
    machine = get_machine("PI8")

    # Both sides pinned to the reference loop: the sanitizer always
    # declines the compiled kernel, so letting the plain run use it
    # would measure the kernel's speedup, not the sanitizer's overhead.
    def simulate(sanitize):
        return Simulator(
            machine, trace, "banked_sequential", sanitize=sanitize,
            kernel=False,
        ).run()

    plain_best, plain_stats = _best_of(3, lambda: simulate(False))
    sanitized_best, sanitized_stats = _best_of(3, lambda: simulate(True))
    ratio = sanitized_best / plain_best
    _record(
        "sanitizer_overhead",
        {
            "benchmark": "compress",
            "machine": "PI8",
            "scheme": "banked_sequential",
            "plain_seconds": round(plain_best, 4),
            "sanitized_seconds": round(sanitized_best, 4),
            "sanitized_over_plain": round(ratio, 4),
            "ceiling": 2.5,
        },
    )
    assert sanitized_stats == plain_stats
    # Measured ~1.4x on a 1-vCPU container; 2.5x leaves noise headroom.
    assert ratio < 2.5, (
        f"sanitizer overhead too high: {sanitized_best:.3f}s vs "
        f"{plain_best:.3f}s plain ({ratio:.2f}x)"
    )


def test_persistent_cache_accelerates_rerun(tmp_path, monkeypatch):
    from repro.sim.batch import run_batch_report, suite_jobs

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    jobs = suite_jobs(
        ("espresso", "li"),
        ("PI4", "PI12"),
        ("sequential", "collapsing_buffer"),
        length=8_000,
        warmup=1_600,
    )

    cold = run_batch_report(jobs, processes=1)
    warm = run_batch_report(jobs, processes=1)
    ratio = warm.wall_seconds / cold.wall_seconds
    _record(
        "persistent_cache",
        {
            "jobs": len(jobs),
            "cold_seconds": round(cold.wall_seconds, 4),
            "warm_seconds": round(warm.wall_seconds, 4),
            "warm_over_cold": round(ratio, 4),
            "cold_instructions_per_second": round(
                cold.instructions_per_second
            ),
        },
    )
    assert [s.ipc for s in warm.results] == [s.ipc for s in cold.results]
    # Acceptance: warm < 10% of cold; assert 50% so noise can't flake.
    assert ratio < 0.5, (
        f"warm cache rerun not fast enough: {warm.wall_seconds:.3f}s vs "
        f"cold {cold.wall_seconds:.3f}s"
    )
