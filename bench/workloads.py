"""The benchmark's four workloads.

``run.py`` starts one fresh process of this script per workload::

    python3 bench/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 \\
        --result FILE --work DIR [--quick] [--regen-golden]

The process writes one JSON document to FILE: end-to-end ``metrics``
(untraced runs), per-layer ``layers`` (``--trace 1``), unscaled
``details``, and the ``attempted``/``failed`` counts of the correctness
oracles.  ``paper_report`` starts further processes of this script
(``--report-phase``) because a cold report needs a fresh interpreter.

Every workload measures whole *rounds* until ``--seconds`` is best
filled, at least one round; a round repeats the same inputs, so medians
over rounds do not depend on where the clock ran out.  Operations are
either *cold* (first touch of their inputs) or *warm* (a repeat):

* ``sim_kernel`` / ``sim_declined``: one ``Simulator`` construction and
  run.  Cold is the first run on a fresh trace object, warm the two
  reruns on it.
* ``paper_report``: one ``run_experiments()`` in a fresh process, cold
  against an empty result cache, warm against the cache it filled.
* ``service_mixed``: one request.  Cold is a miss (a fresh simulation),
  warm a hit (served from the scheduler memo).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import gc
import hashlib
import http.client
import json
import math
import os
import random
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median

from common import GOLDEN, SRC
from layers import (
    UNATTRIBUTED,
    LayerProfiler,
    counter_deltas,
    installed,
    service_self_ms,
    with_ratios,
)

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

clock = time.perf_counter

#: Set-ups per untraced run (cluster boots for service_mixed, which
#: take seconds each); ``setup_s`` is their median.
SETUP_REPEATS = 5
CLUSTER_BOOTS = 3
#: Correctness sample sizes.
REFERENCE_CELLS = 4
MISS_SAMPLE_SHARE = 0.2
#: Seconds a child process of the benchmark may take.
PHASE_TIMEOUT = 150.0


class Outcome:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message)
        return ok


def derive_seed(*parts) -> int:
    """A trace seed derived from the run seed (stable across processes:
    string seeds hash with SHA-512)."""
    return random.Random(":".join(map(str, parts))).randrange(2**31)


def timed_rounds(round_fn, seconds: float) -> list:
    """Whole rounds until *seconds* is best filled (at least one):
    another round starts only if it is expected to end nearer to
    *seconds* than stopping now."""
    results = []
    start = clock()
    while True:
        begun = clock()
        results.append(round_fn())
        last = clock() - begun
        if clock() - start + last / 2 >= seconds:
            return results


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ms(samples: list[float]) -> float | None:
    return median(samples) * 1e3 if samples else None


def tail_ms(samples: list[float], q: float) -> float | None:
    """Nearest-rank *q*-quantile of *samples*, in ms."""
    if not samples:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


def detail(value, unit: str, n: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def conservation(profiler: LayerProfiler, wall: float) -> dict:
    return {"self_sum_s": sum(profiler.self_s.values()), "wall_s": wall}


# -- host speed ---------------------------------------------------------------

#: On a shared host the effective CPU speed drifts by tens of percent
#: over minutes, with the neighbours' load: more than any useful bound.
#: So every workload also times a fixed loop of interpreter work and
#: reports its end-to-end times scaled to a host on which that loop
#: takes REFERENCE_SECONDS (about its median on a 2-vCPU Xeon VM).  The
#: loop is the benchmark's own code, so no change to the program moves
#: it; the unscaled numbers stay in the details.
#:
#: The in-process workloads sample the loop on a timer, in the thread
#: doing the measured work; paper_report scales each report by the
#: samples of its own process.  service_mixed's work runs in other
#: processes, on every CPU, and a loop sampled alongside it times the
#: run's own contention; so it pauses its load every PROBE_INTERVAL
#: seconds and samples the loop on each CPU in turn, on the idle
#: cluster.
REFERENCE_ITERATIONS = 10_000
REFERENCE_SECONDS = 0.0023
#: Seconds between reference-loop samples (each costs ~1-2% of that).
SAMPLE_INTERVAL = 0.2
#: Seconds of service load between probes, and loop passes per CPU in
#: one probe.
PROBE_INTERVAL = 0.5
PROBE_PASSES = 4
_TABLE = list(range(64))
_INDEX = {i: i for i in range(64)}


def reference_loop() -> float:
    """CPU seconds of one pass of the reference loop: arithmetic,
    indexing and allocation.  Garbage collection is off during the
    pass, so its time does not depend on how many objects the process
    holds; the pass frees all it allocated."""
    table, index = _TABLE, _INDEX
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        kept = []
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            j = i & 63
            kept.append((i, j))
            acc = (acc + (table[j] ^ index[(j * 7) & 63]) + kept[i >> 1][1]) & 0xFFFF
        del kept
        return time.thread_time() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Reference-loop samples taken through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        """PROBE_PASSES samples on each CPU this process may use, timed
        by the wall clock: when the host withholds CPU time from this
        machine (steal), the loop's wall time grows with the cluster's,
        while its CPU time does not."""
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                for _ in range(PROBE_PASSES):
                    begun = clock()
                    reference_loop()
                    self.samples.append(clock() - begun)
        finally:
            os.sched_setaffinity(0, cpus)

    @contextlib.contextmanager
    def sampling(self):
        """Sample now and then every SAMPLE_INTERVAL seconds (SIGALRM,
        so only from the main thread)."""

        def sample(_signum, _frame) -> None:
            self.samples.append(reference_loop())

        sample(None, None)
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """The factor that takes a time measured alongside the samples
        to reference speed.  The host flips between a fast and a slow
        speed within a second: the samples' mean follows the share of
        time spent slow, where their median jumps between the two."""
        return REFERENCE_SECONDS / fmean(self.samples)

    def scaled(self, metrics: dict) -> tuple[dict, dict]:
        """(*metrics* at reference speed, details of the scaling)."""
        scale = self.scale()
        out = dict(metrics)
        for name in ("setup_s", "cold_ms", "warm_ms"):
            if out[name] is not None:
                out[name] *= scale
        if out["ops_per_s"] is not None:
            out["ops_per_s"] /= scale
        return out, self.details(metrics)

    def details(self, unscaled: dict) -> dict:
        """The scale, with its sample count, and the *unscaled* times."""
        details = {"host_speed_scale": detail(self.scale(), "ratio", len(self.samples))}
        for name, unit in (
            ("setup_s", "s"), ("cold_ms", "ms"), ("warm_ms", "ms"), ("ops_per_s", "1/s")
        ):
            details[f"unscaled_{name}"] = detail(unscaled[name], unit)
        return details


# -- sim_kernel / sim_declined ----------------------------------------------

#: Kernel-eligible cells: the default path of sweeps, studies and jobs.
KERNEL_GRID = [
    (bench, machine, scheme)
    for bench in ("espresso", "gcc", "li", "tomcatv")
    for machine in ("PI4", "PI8", "PI12")
    for scheme in (
        "sequential",
        "interleaved_sequential",
        "banked_sequential",
        "collapsing_buffer",
        "perfect",
    )
]
#: Cells the kernel declines: direction predictors and a return stack on
#: a collapsing buffer (as the study engine builds them), the trace
#: cache, wrong-path fetch and telemetry.
DECLINED_GRID = [
    (bench, machine, variant)
    for bench in ("gcc", "li")
    for machine in ("PI4", "PI12")
    for variant in (
        "gshare",
        "2level",
        "ras",
        "trace_cache",
        "wrong_path",
        "telemetry",
    )
]
SIM_GRIDS = {"sim_kernel": KERNEL_GRID, "sim_declined": DECLINED_GRID}
#: (trace length, warmup) per workload, and for ``--quick``.
SIM_SIZES = {"sim_kernel": (30_000, 6_000), "sim_declined": (20_000, 4_000)}
QUICK_SIM_SIZE = (3_000, 600)
#: Runs per cell per round: one cold, then warm reruns.
SIM_RUNS = 3


def sim_cells(kind: str, seed: int, quick: bool) -> list[tuple]:
    """``(benchmark, machine, variant, trace seed)`` per cell."""
    grid = SIM_GRIDS[kind]
    if quick:
        grid = grid[:: len(grid) // 3][:3]
    return [(*cell, derive_seed(seed, kind, *cell)) for cell in grid]


def build_simulator(variant: str, machine, trace, warmup: int):
    from repro.branch.predictors import GShare, TwoLevelLocal
    from repro.branch.ras import ReturnAddressStack
    from repro.fetch.factory import create_fetch_unit
    from repro.sim.simulator import Simulator

    if variant in ("gshare", "2level", "ras"):
        unit = create_fetch_unit(
            "collapsing_buffer",
            machine,
            trace,
            direction_predictor={"gshare": GShare, "2level": TwoLevelLocal}.get(
                variant, lambda: None
            )(),
            return_stack=ReturnAddressStack() if variant == "ras" else None,
        )
        return Simulator(machine, trace, unit, warmup=warmup)
    if variant in ("wrong_path", "telemetry"):
        return Simulator(
            machine,
            trace,
            "collapsing_buffer",
            warmup=warmup,
            wrong_path_fetch=variant == "wrong_path",
            telemetry=variant == "telemetry",
        )
    return Simulator(machine, trace, variant, warmup=warmup)


def counted(stats) -> tuple:
    """The counted statistics (``extra`` carries telemetry attribution,
    which the reference loop does not produce)."""
    return tuple(
        getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name != "extra"
    )


class SimRig:
    """Cells of one sim workload and the inputs they run on."""

    def __init__(self, kind: str, seed: int, quick: bool) -> None:
        from repro.machines.presets import get_machine

        self.kind = kind
        self.seed = seed
        self.cells = sim_cells(kind, seed, quick)
        self.length, self.warmup = QUICK_SIM_SIZE if quick else SIM_SIZES[kind]
        self.machines = {c[1]: get_machine(c[1]) for c in self.cells}
        self.workloads: dict = {}
        #: Cold-run statistics of each cell, from the first round.
        self.first: dict = {}
        self.speed = HostSpeed()

    def setup(self) -> None:
        """Generate the cells' programs (fresh, not the suite's memo)."""
        import repro.workloads as rw

        self.workloads = {
            bench: rw.generate_workload(rw.get_profile(bench))
            for bench in sorted({c[0] for c in self.cells})
        }

    def trace(self, cell):
        import repro.workloads as rw

        workload = self.workloads[cell[0]]
        return rw.generate_trace(
            workload.program, workload.behavior, self.length, seed=cell[3]
        )

    def round(self, outcome: Outcome) -> dict:
        """One cold run and the warm reruns of every cell."""
        cold: list[float] = []
        warm: list[float] = []
        kernel_runs = 0
        for cell in self.cells:
            trace = self.trace(cell)
            machine = self.machines[cell[1]]
            baseline = None
            for rep in range(SIM_RUNS):
                start = clock()
                try:
                    sim = build_simulator(cell[2], machine, trace, self.warmup)
                    stats = sim.run()
                except Exception as exc:  # a failed run is counted, not fatal
                    outcome.check(False, f"{cell[:3]} run {rep}: {exc!r}")
                    break
                (warm if rep else cold).append(clock() - start)
                kernel_runs += sim.kernel_used
                if rep == 0:
                    baseline = counted(stats)
                    self.first.setdefault(cell, baseline)
                    outcome.check(True, "")
                else:
                    outcome.check(
                        counted(stats) == baseline,
                        f"{cell[:3]}: warm run {rep} differs from the cold run",
                    )
        return {"cold": cold, "warm": warm, "kernel_runs": kernel_runs}

    def check_reference(self, outcome: Outcome) -> None:
        """A seeded sample of cells must equal ``run_reference()``."""
        rng = random.Random(f"{self.seed}:{self.kind}:reference")
        sample = rng.sample(self.cells, min(REFERENCE_CELLS, len(self.cells)))
        for cell in sample:
            trace = self.trace(cell)
            sim = build_simulator(
                cell[2], self.machines[cell[1]], trace, self.warmup
            )
            outcome.check(
                counted(sim.run_reference()) == self.first.get(cell),
                f"{cell[:3]}: differs from run_reference()",
            )


def sim_workload(kind: str, opts) -> dict:
    rig = SimRig(kind, opts.seed, opts.quick)
    outcome = Outcome()
    result: dict = {}
    if opts.trace:
        rig.setup()
        begun = clock()
        rig.round(outcome)
        untraced_wall = clock() - begun
        profiler = LayerProfiler()
        since = counter_deltas()
        with installed(profiler):
            start = clock()
            with profiler.frame(UNATTRIBUTED):
                rig.setup()
                begun = clock()
                rig.round(outcome)
                traced_wall = clock() - begun
            wall = clock() - start
        result["layers"] = {
            **profiler.self_s,
            **with_ratios(since()),
            "trace.overhead_frac": traced_wall / untraced_wall - 1,
        }
        result["conservation"] = conservation(profiler, wall)
    else:
        setup = []
        with rig.speed.sampling():
            for _ in range(1 if opts.quick else SETUP_REPEATS):
                begun = clock()
                rig.setup()
                setup.append(clock() - begun)
            rounds = timed_rounds(lambda: rig.round(outcome), opts.seconds)
        cold = [s for r in rounds for s in r["cold"]]
        warm = [s for r in rounds for s in r["warm"]]
        runs = len(cold) + len(warm)
        result["metrics"], scaling = rig.speed.scaled(
            {
                "setup_s": median(setup),
                "cold_ms": ms(cold),
                "warm_ms": ms(warm),
                "ops_per_s": runs / (sum(cold) + sum(warm)) if runs else None,
                "peak_rss_mb": self_rss_mb(),
            }
        )
        result["details"] = {
            **scaling,
            "cold_insn_per_s": detail(
                len(cold) * rig.length / sum(cold) if cold else None, "1/s", len(cold)
            ),
            "warm_insn_per_s": detail(
                len(warm) * rig.length / sum(warm) if warm else None, "1/s", len(warm)
            ),
            "kernel_runs": detail(sum(r["kernel_runs"] for r in rounds), "count"),
            "rounds": detail(len(rounds), "count"),
        }
    rig.check_reference(outcome)
    return {**result, **vars(outcome)}


# -- paper_report -------------------------------------------------------------

#: Quarter-scale ``ExperimentConfig`` fields (seed comes from ``--seed``).
REPORT_CONFIG = {
    "trace_length": 5_000,
    "eir_length": 7_500,
    "stats_length": 20_000,
    "warmup": 1_000,
}
QUICK_REPORT_CONFIG = {
    "trace_length": 1_000,
    "eir_length": 1_500,
    "stats_length": 4_000,
    "warmup": 200,
}
#: The report's artifacts minus fig12 and fig13, which add only more
#: simulations of reordered and padded programs: with them a cold and
#: warm pair takes 50-70 s on a 2-core host, too long to repeat 22
#: times per workload.  Every layer the full report reaches still runs:
#: table3 reorders (profile + layout) and table4 pads, cold and warm.
REPORT_ARTIFACTS = (
    "fig03", "table2", "fig09", "fig10", "fig11", "table3", "table4",
)
QUICK_ARTIFACTS = ("fig03", "table2")


def report_phase(mode: str, seed: int, quick: bool, traced: bool) -> dict:
    """Body of one ``--report-phase`` process: print ``ready`` once the
    program is imported, then run the report and return its summary."""
    from repro.experiments import report
    from repro.experiments.common import ExperimentConfig

    print("ready", flush=True)
    if mode == "setup":
        return {}
    config = ExperimentConfig(
        seed=seed, **(QUICK_REPORT_CONFIG if quick else REPORT_CONFIG)
    )
    names = list(QUICK_ARTIFACTS if quick else REPORT_ARTIFACTS)
    out: dict = {}
    if traced:
        profiler = LayerProfiler()
        since = counter_deltas()
        results = []
        artifacts = {}
        with installed(profiler):
            start = clock()
            with profiler.frame(UNATTRIBUTED):
                for name in names:
                    begun = clock()
                    results += report.run_experiments([name], config)
                    artifacts[name] = clock() - begun
            seconds = clock() - start
        out["layers"] = {**profiler.self_s, **since()}
        out["artifacts"] = artifacts
        out["conservation"] = conservation(profiler, seconds)
    else:
        speed = HostSpeed()
        with speed.sampling():
            start = clock()
            results = report.run_experiments(names, config)
            seconds = clock() - start
        out["speed_samples"] = speed.samples
        out["scale"] = speed.scale()
    text = "\n".join(result.to_json() for result in results)
    out["seconds"] = seconds
    out["digest"] = hashlib.sha256(text.encode()).hexdigest()
    out["rss_mb"] = self_rss_mb()
    return out


class ReportRig:
    """Runs report phases in fresh processes and keeps their set-up
    times (interpreter start and import, up to ``ready``)."""

    def __init__(self, opts) -> None:
        self.opts = opts
        self.setup: list[float] = []
        self.rss_mb = 0.0
        self.caches = 0
        self.speed = HostSpeed()

    def fresh_cache(self) -> Path:
        self.caches += 1
        return Path(self.opts.work) / f"report-cache-{self.caches}"

    def phase(self, mode: str, cache: Path, traced: bool = False) -> dict:
        cmd = [
            sys.executable,
            __file__,
            "--report-phase",
            mode,
            "--seed",
            str(self.opts.seed),
        ]
        cmd += ["--quick"] * self.opts.quick + ["--traced"] * traced
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        start = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
            try:
                ready = proc.stdout.readline()
                self.setup.append(clock() - start)
                output = proc.stdout.read()
                proc.wait(PHASE_TIMEOUT)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or ready != "ready\n":
            raise RuntimeError(f"report phase {mode} exited {proc.returncode}")
        out = json.loads(output.splitlines()[-1]) if mode != "setup" else {}
        self.rss_mb = max(self.rss_mb, out.get("rss_mb", 0.0))
        self.speed.samples += out.get("speed_samples", [])
        return out

    def golden_check(self, digest: str, outcome: Outcome) -> None:
        """Compare with (or, with ``--regen-golden``, record) the
        committed digest for this seed."""
        if self.opts.quick:
            return
        inputs = {"config": REPORT_CONFIG, "artifacts": list(REPORT_ARTIFACTS)}
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        seed = str(self.opts.seed)
        if self.opts.regen_golden:
            if golden.get("inputs") != inputs:
                golden = {"inputs": inputs, "digests": {}}
            golden["digests"][seed] = digest
            golden["digests"] = dict(sorted(golden["digests"].items()))
            GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
        elif seed in golden.get("digests", {}):
            outcome.check(
                golden["inputs"] == inputs and golden["digests"][seed] == digest,
                f"report for seed {seed} differs from bench/golden.json",
            )

    def round(self, outcome: Outcome, traced: bool = False) -> tuple[dict, dict]:
        """A cold report on an empty cache, then a warm one on it."""
        cache = self.fresh_cache()
        cold = self.phase("cold", cache, traced)
        outcome.check(True, "")
        warm = self.phase("warm", cache, traced)
        outcome.check(
            warm["digest"] == cold["digest"], "warm report differs from cold"
        )
        self.golden_check(cold["digest"], outcome)
        return cold, warm


def paper_report(opts) -> dict:
    rig = ReportRig(opts)
    outcome = Outcome()
    if opts.trace:
        base = rig.phase("cold", rig.fresh_cache())
        cold, warm = rig.round(outcome, traced=True)
        layers: dict = collections.defaultdict(float)
        for phase in (cold, warm):
            for name, value in phase["layers"].items():
                layers[name] += value
        layers.update(with_ratios(layers))
        for label, phase in (("cold", cold), ("warm", warm)):
            for artifact, seconds in phase["artifacts"].items():
                layers[f"experiments.{artifact}.{label}_s"] = seconds
        layers["trace.overhead_frac"] = cold["seconds"] / base["seconds"] - 1
        return {
            "layers": dict(layers),
            "conservation": {
                key: cold["conservation"][key] + warm["conservation"][key]
                for key in ("self_sum_s", "wall_s")
            },
            **vars(outcome),
        }
    for _ in range(1 if opts.quick else SETUP_REPEATS):
        rig.phase("setup", rig.fresh_cache())
    rounds = timed_rounds(lambda: rig.round(outcome), opts.seconds)
    cold = [c["seconds"] for c, _ in rounds]
    warm = [w["seconds"] for _, w in rounds]
    unscaled = {
        "setup_s": median(rig.setup),
        "cold_ms": ms(cold),
        "warm_ms": ms(warm),
        "ops_per_s": (len(cold) + len(warm)) / (sum(cold) + sum(warm)),
        "peak_rss_mb": max(rig.rss_mb, self_rss_mb()),
    }
    # A cold and a warm report run 15-20 s apart, long enough for the
    # host's speed to change: each is scaled by the samples of its own
    # process, and set-up by all of them.
    cold_ref = [c["seconds"] * c["scale"] for c, _ in rounds]
    warm_ref = [w["seconds"] * w["scale"] for _, w in rounds]
    metrics = {
        **unscaled,
        "setup_s": unscaled["setup_s"] * rig.speed.scale(),
        "cold_ms": ms(cold_ref),
        "warm_ms": ms(warm_ref),
        "ops_per_s": (len(cold) + len(warm)) / (sum(cold_ref) + sum(warm_ref)),
    }
    return {
        "metrics": metrics,
        "details": {
            **rig.speed.details(unscaled),
            "report_cold_s": detail(median(cold), "s", len(cold)),
            "report_warm_s": detail(median(warm), "s", len(warm)),
        },
        **vars(outcome),
    }


# -- service_mixed ------------------------------------------------------------

SERVICE_GRID = [
    (bench, machine, scheme)
    for bench in ("gcc", "espresso", "li", "compress")
    for machine in ("PI4", "PI8", "PI12")
    for scheme in ("sequential", "banked_sequential", "collapsing_buffer")
]
HOT_SPECS = 16
REQUESTS = 6_000
QUICK_REQUESTS = 120
MISS_SHARE = 0.05
JOB_LENGTH, JOB_WARMUP = 8_000, 1_600
#: Client threads, each with one keep-alive connection (the host's
#: core count: more would measure the load generator).
CLIENTS = 2
#: Interleaved balancer/direct request pairs behind ``balancer_hop_ms``.
HOP_PAIRS = 300
QUICK_HOP_PAIRS = 20
#: ``peak_rss_mb`` is read when this many timed requests have completed,
#: so it covers the same requests (and misses) in every run: the
#: workers keep every trace they generate, so memory grows with misses.
RSS_AFTER_REQUESTS = 2_000


def job_spec(cell: tuple, seed: int) -> dict:
    bench, machine, scheme = cell
    return {
        "benchmark": bench,
        "machine": machine,
        "scheme": scheme,
        "length": JOB_LENGTH,
        "warmup": JOB_WARMUP,
        "seed": seed,
    }


def request_list(seed: int, count: int = REQUESTS) -> tuple[list, list]:
    """``(hot specs, requests)``; a request is ``(class, key, spec)`` with
    key the hot-spec index of a hit or the list index of a miss.  Each
    miss has a seed of its own, so no two misses share a result."""
    rng = random.Random(f"{seed}:service_mixed")
    hot = [
        job_spec(cell, rng.randrange(1_000))
        for cell in rng.sample(SERVICE_GRID, HOT_SPECS)
    ]
    misses = set(rng.sample(range(count), round(count * MISS_SHARE)))
    requests = []
    for index in range(count):
        if index in misses:
            spec = job_spec(rng.choice(SERVICE_GRID), 1_000 + index)
            requests.append(("miss", index, spec))
        else:
            key = rng.randrange(HOT_SPECS)
            requests.append(("hit", key, hot[key]))
    return hot, requests


def reference_results(specs: list[dict]) -> list[dict]:
    """In-process results, as ``repro loadgen --cluster`` computes them."""
    from repro.service.loadgen import _reference_results

    return _reference_results(specs)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class Cluster:
    """One ``repro balance --replicas 2 --workers 1`` process tree on a
    fresh result-cache directory."""

    def __init__(self, work: Path, name: str, trace_dir: Path | None = None):
        self.port = _free_port()
        cmd = [
            sys.executable, "-m", "repro", "balance",
            "--port", str(self.port),
            "--replicas", "2",
            "--workers", "1",
            "--quiet",
        ]
        if trace_dir is not None:
            cmd += ["--trace", str(trace_dir)]
        env = dict(os.environ, REPRO_CACHE_DIR=str(work / f"{name}-cache"))
        self._log = open(work / f"{name}.log", "w")
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = clock() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"balancer exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if clock() > deadline:
                raise TimeoutError("cluster never became ready")
            time.sleep(0.05)

    def replicas(self) -> dict[str, tuple[str, int]]:
        from repro.service.client import ServiceClient

        with ServiceClient("127.0.0.1", self.port) as client:
            health = client.health()
        out = {}
        for replica in health["replicas"]:
            host, port = replica["address"].rsplit(":", 1)
            out[replica["name"]] = (host, int(port))
        return out

    def descendants(self) -> list[int]:
        children = collections.defaultdict(list)
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children[ppid].append(int(entry))
        found, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            found += children[pid]
            frontier += children[pid]
        return found

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the balancer and its descendants."""
        total_kb = 0
        for pid in [self.proc.pid, *self.descendants()]:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024

    def stop(self) -> None:
        """SIGTERM the balancer (it stops its replicas) and wait until
        every process of the tree has ended."""
        pids = self.descendants()
        self.proc.terminate()
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = clock() + 15
        for pid in pids:
            while _alive(pid):
                if clock() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)
        self._log.close()


@dataclasses.dataclass
class Completed:
    cls: str
    key: int
    spec: dict
    seconds: float
    result: dict
    trace_id: str | None


@dataclasses.dataclass
class Pass:
    completed: list
    errors: list
    seconds: float
    #: Cluster peak RSS when the RSS_AFTER_REQUESTS-th request completed.
    rss_mb: float | None = None


class Gate:
    """Lets the driving thread pause the client threads between
    requests: :meth:`pause` returns once every client still running has
    finished its request in flight and is parked in :meth:`checkpoint`."""

    def __init__(self, clients: int) -> None:
        self.cond = threading.Condition()
        self.running = clients
        self.parked = 0
        self.closed = False

    def checkpoint(self) -> None:
        with self.cond:
            if not self.closed:
                return
            self.parked += 1
            self.cond.notify_all()
            self.cond.wait_for(lambda: not self.closed)
            self.parked -= 1

    def leave(self) -> None:
        with self.cond:
            self.running -= 1
            self.cond.notify_all()

    def pause(self) -> bool:
        """Park the clients; False if none is running any more."""
        with self.cond:
            self.closed = True
            self.cond.wait_for(lambda: self.parked == self.running)
            return self.running > 0

    def resume(self) -> None:
        with self.cond:
            self.closed = False
            self.cond.notify_all()

    def wait_done(self, timeout: float) -> bool:
        with self.cond:
            return self.cond.wait_for(lambda: self.running == 0, timeout)


def drive(
    cluster: Cluster, requests: list, seconds: float, probe=None
) -> Pass:
    """Closed loop: :data:`CLIENTS` threads pull from one request list
    until it runs out or *seconds* of load pass.  With *probe*, every
    PROBE_INTERVAL seconds the clients finish their request in flight
    and wait while ``probe()`` runs on the idle cluster; the pauses do
    not count as load."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    pending = iter(requests)
    result = Pass([], [], 0.0)
    done = 0
    gate = Gate(CLIENTS)
    paused = 0.0
    stop_at = clock() + seconds

    def client_loop() -> None:
        nonlocal done
        local: list[Completed] = []
        local_errors: list[str] = []
        try:
            with ServiceClient("127.0.0.1", cluster.port) as client:
                while True:
                    gate.checkpoint()
                    if clock() >= stop_at + paused:
                        break
                    with lock:
                        item = next(pending, None)
                    if item is None:
                        break
                    cls, key, spec = item
                    start = clock()
                    try:
                        record = client.run_job(spec)
                    except Exception as exc:  # counted as a failed request
                        local_errors.append(f"{cls} request: {exc!r}")
                        continue
                    local.append(
                        Completed(
                            cls,
                            key,
                            spec,
                            clock() - start,
                            record.get("result"),
                            client.last_trace_id,
                        )
                    )
                    with lock:
                        done += 1
                        snapshot = done == RSS_AFTER_REQUESTS
                    if snapshot:
                        result.rss_mb = cluster.peak_rss_mb()
        except Exception as exc:  # keep the failure visible to the caller
            local_errors.append(f"client thread: {exc!r}")
        with lock:
            result.completed.extend(local)
            result.errors.extend(local_errors)
        gate.leave()

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    start = clock()
    for thread in threads:
        thread.start()
    if probe is not None:
        while not gate.wait_done(PROBE_INTERVAL):
            if gate.pause():
                begun = clock()
                probe()
                paused += clock() - begun
            gate.resume()
    for thread in threads:
        thread.join()
    result.seconds = clock() - start - paused
    return result


class ServiceRig:
    def __init__(self, opts) -> None:
        self.opts = opts
        self.work = Path(opts.work)
        count = QUICK_REQUESTS if opts.quick else REQUESTS
        self.hot, self.requests = request_list(opts.seed, count)
        self.references = reference_results(self.hot)
        self.outcome = Outcome()
        self.clusters: list[Cluster] = []

    def boot(self, name: str, trace_dir: Path | None = None) -> tuple[Cluster, dict]:
        """Start a cluster and run every hot spec once through it (the
        memo warm-up); returns it with each hot spec's owning replica."""
        from repro.service.client import ServiceClient

        cluster = Cluster(self.work, name, trace_dir)
        self.clusters.append(cluster)
        cluster.wait_ready()
        owners = {}
        with ServiceClient("127.0.0.1", cluster.port) as client:
            for key, spec in enumerate(self.hot):
                record = client.run_job(spec)
                self.check_hit(key, record.get("result"))
                owners[key] = record["balancer"]["replica"]
        return cluster, owners

    def check_hit(self, key: int, result) -> None:
        self.outcome.check(
            result == self.references[key], f"hot spec {key}: wrong result"
        )

    def check(self, run: Pass) -> list:
        """Account one pass; returns its completed misses."""
        for message in run.errors:
            self.outcome.check(False, message)
        misses = []
        for done in run.completed:
            if done.cls == "hit":
                self.check_hit(done.key, done.result)
            else:
                self.outcome.check(True, "")
                misses.append(done)
        return misses

    def check_misses(self, misses: list) -> None:
        """Recompute a seeded sample of miss results in-process."""
        rng = random.Random(f"{self.opts.seed}:service_mixed:misses")
        sample = rng.sample(misses, round(len(misses) * MISS_SAMPLE_SHARE))
        references = reference_results([done.spec for done in sample])
        for done, reference in zip(sample, references):
            self.outcome.check(
                done.result == reference, f"miss {done.key}: wrong result"
            )

    def hop_ms(self, cluster: Cluster, owners: dict) -> float:
        """p50 of hot requests through the balancer minus p50 of the
        same requests sent to their replica directly; one connection to
        each, interleaved so drift affects both alike."""
        from repro.service.client import ServiceClient

        replica = collections.Counter(owners.values()).most_common(1)[0][0]
        keys = [key for key, owner in owners.items() if owner == replica]
        host, port = cluster.replicas()[replica]
        via, direct = [], []
        pairs = QUICK_HOP_PAIRS if self.opts.quick else HOP_PAIRS
        with ServiceClient("127.0.0.1", cluster.port) as front, ServiceClient(
            host, port
        ) as back:
            for index in range(pairs):
                key = keys[index % len(keys)]
                for client, samples in ((front, via), (back, direct)):
                    start = clock()
                    record = client.run_job(self.hot[key])
                    samples.append(clock() - start)
                    self.check_hit(key, record.get("result"))
        return (median(via) - median(direct)) * 1e3

    def stop_all(self) -> None:
        while self.clusters:
            self.clusters.pop().stop()


def service_mixed(opts) -> dict:
    rig = ServiceRig(opts)
    try:
        result = (service_traced if opts.trace else service_untraced)(rig, opts)
    finally:
        rig.stop_all()
    return {**result, **vars(rig.outcome)}


def service_untraced(rig: ServiceRig, opts) -> dict:
    speed = HostSpeed()
    setup = []
    for index in range(1 if opts.quick else CLUSTER_BOOTS):
        rig.stop_all()
        begun = clock()
        cluster, _ = rig.boot(f"setup-{index}")
        setup.append(clock() - begun)
        speed.probe()
    run = drive(cluster, rig.requests, opts.seconds, speed.probe)
    rss_mb = run.rss_mb if run.rss_mb is not None else cluster.peak_rss_mb()
    rig.stop_all()
    misses = rig.check(run)
    rig.check_misses(misses)
    hits = [d.seconds for d in run.completed if d.cls == "hit"]
    miss = [d.seconds for d in misses]
    if not hits or not miss:
        rig.outcome.check(False, "a request class completed no request")
    rate = len(run.completed) / run.seconds
    metrics, scaling = speed.scaled(
        {
            "setup_s": median(setup),
            "cold_ms": ms(miss),
            "warm_ms": ms(hits),
            "ops_per_s": rate,
            "peak_rss_mb": rss_mb,
        }
    )
    return {
        "metrics": metrics,
        "details": {
            **scaling,
            "requests_per_s": detail(rate, "1/s", len(run.completed)),
            "hit_p50_ms": detail(ms(hits), "ms", len(hits)),
            "hit_p99_ms": detail(tail_ms(hits, 0.99), "ms", len(hits)),
            "miss_p50_ms": detail(ms(miss), "ms", len(miss)),
            "miss_p95_ms": detail(tail_ms(miss, 0.95), "ms", len(miss)),
            "failed_requests": detail(len(run.errors), "count"),
        },
    }


def service_traced(rig: ServiceRig, opts) -> dict:
    from repro.telemetry import timeline
    from repro.telemetry import trace as tracing

    cluster, owners = rig.boot("untraced")
    untraced = drive(cluster, rig.requests, opts.seconds)
    rig.check(untraced)
    hop_ms = rig.hop_ms(cluster, owners)
    rig.stop_all()

    trace_dir = rig.work / "spans"
    cluster, _ = rig.boot("traced", trace_dir)
    os.environ["REPRO_TRACE"] = "1"
    os.environ["REPRO_TRACE_DIR"] = str(trace_dir)
    tracing.reload()
    try:
        traced = drive(cluster, rig.requests, opts.seconds)
    finally:
        del os.environ["REPRO_TRACE"], os.environ["REPRO_TRACE_DIR"]
        tracing.reload()
    rig.stop_all()
    rig.check(traced)
    classes = {d.trace_id: d.cls for d in traced.completed if d.trace_id}
    layers = service_self_ms(timeline.load_dir(trace_dir), classes)
    layers["service.balancer_hop_ms"] = hop_ms
    # Requests per second untraced over traced: both passes start at the
    # head of the same list.
    layers["trace.overhead_frac"] = (
        len(untraced.completed) / untraced.seconds
        / (len(traced.completed) / traced.seconds)
        - 1
    )
    return {"layers": layers}


# -- entry point --------------------------------------------------------------

WORKLOAD_FUNCTIONS = {
    "sim_kernel": lambda opts: sim_workload("sim_kernel", opts),
    "sim_declined": lambda opts: sim_workload("sim_declined", opts),
    "paper_report": paper_report,
    "service_mixed": service_mixed,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOAD_FUNCTIONS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--work", default=".")
    parser.add_argument("--result")
    parser.add_argument("--report-phase", choices=("setup", "cold", "warm"))
    parser.add_argument("--traced", action="store_true")
    opts = parser.parse_args(argv)
    if opts.report_phase:
        out = report_phase(opts.report_phase, opts.seed, opts.quick, opts.traced)
        if opts.report_phase != "setup":
            print(json.dumps(out))
        return 0
    if opts.workload is None or opts.result is None:
        parser.error("a workload and --result are required")
    started = clock()
    result = WORKLOAD_FUNCTIONS[opts.workload](opts)
    result["duration_s"] = clock() - started
    Path(opts.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
