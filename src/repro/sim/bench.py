"""Single-simulation throughput measurement (reference loop vs compiled).

One measurement recipe shared by ``repro bench``, the perf regression
tests (``benchmarks/test_perf.py``) and CI's kernel-bench step, so every
number in ``BENCH_sim_throughput.json`` means the same thing:

* **interpreted** — ``Simulator(..., kernel=False).run()``, which runs
  :meth:`~repro.sim.simulator.Simulator.run_reference`, best-of-N.
* **kernel cold** — first compiled run against a fresh trace object:
  pays table compilation, per-block plan builds and fetch-outcome tape
  recording on top of the replay itself.
* **kernel warm** — compiled rerun on the same trace: tape replay only.

Throughput is retired instructions over best wall seconds (best-of-N to
shrug off scheduler noise on shared runners); ``speedup`` is warm over
interpreted.  All three runs must report identical statistics — the
measurement doubles as an equivalence check, so a kernel that got fast
by diverging fails here before any floor is consulted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.machines.presets import get_machine
from repro.sim.simulator import Simulator
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace

__all__ = ["best_of", "measure_throughput", "record_section"]


def best_of(n: int, func):
    """(best_seconds, last_result) over *n* timed calls of *func*."""
    best = float("inf")
    result = None
    for _ in range(max(1, n)):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_throughput(
    benchmark: str = "espresso",
    machine_name: str = "PI8",
    scheme: str = "interleaved_sequential",
    length: int = 20_000,
    warmup: int = 4_000,
    seed: int = 0,
    repeats: int = 3,
    modes: tuple[str, ...] = ("interpreted", "kernel"),
) -> dict:
    """Benchmark one configuration; returns the recorded section.

    *modes* limits what runs (``repro bench --mode``); the comparative
    fields (``speedup``, equivalence) need both.
    """
    workload = load_workload(benchmark)
    machine = get_machine(machine_name)
    report: dict = {
        "benchmark": benchmark,
        "machine": machine_name,
        "scheme": scheme,
        "instructions": length,
        "warmup": warmup,
        "repeats": repeats,
    }

    interp_stats = kernel_stats = None
    interp_best = None
    if "interpreted" in modes:
        trace = generate_trace(
            workload.program, workload.behavior, length, seed=seed
        )
        interp_best, interp_stats = best_of(
            repeats,
            lambda: Simulator(
                machine, trace, scheme, warmup=warmup, kernel=False
            ).run(),
        )
        report["interpreted"] = {
            "best_seconds": round(interp_best, 4),
            "instructions_per_second": round(length / interp_best),
        }

    if "kernel" in modes:
        # A fresh trace object so the cold run really compiles: tables
        # and tapes cache on the trace, not globally.
        trace = generate_trace(
            workload.program, workload.behavior, length, seed=seed
        )
        cold_start = time.perf_counter()
        sim = Simulator(machine, trace, scheme, warmup=warmup, kernel=True)
        kernel_stats = sim.run()
        cold = time.perf_counter() - cold_start
        if not sim.kernel_used:
            raise RuntimeError(
                "compiled kernel declined the benchmark configuration: "
                f"{sim.kernel_decline_reason}"
            )
        warm_best, warm_stats = best_of(
            repeats,
            lambda: Simulator(
                machine, trace, scheme, warmup=warmup, kernel=True
            ).run(),
        )
        if warm_stats != kernel_stats:
            raise AssertionError("kernel warm replay diverged from cold run")
        report["kernel"] = {
            "cold_seconds": round(cold, 4),
            "cold_instructions_per_second": round(length / cold),
            "warm_best_seconds": round(warm_best, 4),
            "warm_instructions_per_second": round(length / warm_best),
        }
        if interp_best is not None:
            report["speedup_warm_over_interpreted"] = round(
                interp_best / warm_best, 2
            )

    if interp_stats is not None and kernel_stats is not None:
        if interp_stats != kernel_stats:
            raise AssertionError(
                "kernel statistics diverged from the reference loop"
            )
        report["bit_identical"] = True
    return report


def record_section(path: str | Path, section: str, payload: dict) -> None:
    """Merge *payload* under *section* in the benchmark JSON at *path*."""
    path = Path(path)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n")
