"""Parallel batch simulation.

Full-suite experiments are hundreds of independent simulations; this
module fans them out over processes.  On fork-capable platforms the
workers inherit the parent's generated-workload caches, so per-worker
start-up cost is negligible; where only ``spawn`` is available the job
function is module-level and closure-free, so workers can re-import it.
Completed jobs also land in the persistent disk cache
(:mod:`repro.sim.cache`), so results flow back to the parent — and to
every later process — even across start methods.

Each batch runs on its own :class:`~repro.sim.supervisor.WorkerPool`,
the supervised engine the service also uses: per-job timeouts, bounded
retries with backoff, dead-worker requeue (degrading to serial
execution after repeated pool failures), a per-job
:class:`~repro.sim.supervisor.JobOutcome` audit trail, and an optional
append-only journal that lets ``repro sweep --resume`` skip finished
work after any interruption.  Results come back in job order regardless
of completion order; a job that cannot be completed raises
:class:`~repro.sim.supervisor.BatchError` naming it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.sim import cache as result_cache
from repro.sim.stats import SimStats
from repro.telemetry import trace as tracing
from repro.sim.supervisor import (
    BatchError,
    JobOutcome,
    SupervisorConfig,
    SweepJournal,
    outcome_counts,
    run_supervised,
)

__all__ = [
    "BatchError",
    "BatchReport",
    "JobOutcome",
    "SimJob",
    "SupervisorConfig",
    "SweepJournal",
    "run_batch",
    "run_batch_report",
    "suite_jobs",
]


@dataclass(frozen=True, slots=True)
class SimJob:
    """One simulation to run: the key of the experiment cache."""

    benchmark: str
    machine: str
    scheme: str
    variant: str = "orig"
    length: int = 20_000
    warmup: int = 4_000
    seed: int = 0
    fetch_penalty: int | None = None
    block_words: int = 4
    #: Run with telemetry on the reference loop (slot attribution in
    #: ``SimStats.extra``; cached under a separate result-cache kind).
    telemetry: bool = False
    #: Compiled-kernel selection (:mod:`repro.sim.kernel`): ``None``
    #: defers to the ``REPRO_KERNEL`` knob, ``False`` runs the
    #: reference loop (``sweep --no-kernel``).  Joins the persistent
    #: cache key via :func:`repro.experiments.common.sim_stats`.
    kernel: bool | None = None


@dataclass(slots=True)
class BatchReport:
    """Outcome of a batch: results plus throughput accounting."""

    results: list[SimStats]
    wall_seconds: float
    processes: int
    #: Persistent result-cache counter deltas over the whole batch —
    #: parent and workers combined (workers ship their deltas back with
    #: each job result), so warm-vs-cold behaviour is directly visible.
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: Per-job supervision audit (ok/retried/timeout/crashed/skipped,
    #: attempts, failure reasons) — see :mod:`repro.sim.supervisor`.
    outcomes: list[JobOutcome] = field(default_factory=list)
    #: True when the supervisor degraded to in-process execution after
    #: repeated worker failures.
    degraded_serial: bool = False

    @property
    def simulated_instructions(self) -> int:
        """Total instructions retired in the measured (post-warmup)
        regions across all jobs."""
        return sum(s.retired for s in self.results)

    @property
    def instructions_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_instructions / self.wall_seconds

    @property
    def outcome_counts(self) -> dict[str, int]:
        """Status histogram of :attr:`outcomes`."""
        return outcome_counts(self.outcomes)


def _run_job(job: SimJob) -> SimStats:
    # Imported here so workers resolve it after fork.
    from repro.experiments.common import sim_stats, telemetry_sim_stats

    kwargs = dict(
        variant=job.variant,
        length=job.length,
        warmup=job.warmup,
        seed=job.seed,
        fetch_penalty=job.fetch_penalty,
        block_words=job.block_words,
    )
    if job.telemetry:
        # Telemetry runs never use the kernel (it declines them all), so
        # the flag stays out of their cache key.
        return telemetry_sim_stats(
            job.benchmark, job.machine, job.scheme, **kwargs
        )
    return sim_stats(
        job.benchmark, job.machine, job.scheme, kernel=job.kernel, **kwargs
    )


def run_batch(
    jobs: list[SimJob],
    processes: int | None = None,
    start_method: str | None = None,
    config: SupervisorConfig | None = None,
    journal: SweepJournal | None = None,
) -> list[SimStats]:
    """Run *jobs*, in parallel where the platform allows.

    *processes* defaults to the CPU count (capped by the job count);
    pass 1 to force serial execution.  *start_method* overrides the
    fork-preferred default (tests force ``spawn``); serial execution is
    the fallback when no start method is available.  *config* sets the
    supervision policy (timeouts, retries, backoff); *journal* records
    completions for resume.  Results are returned in job order; lost or
    permanently failed jobs raise :class:`BatchError`.
    """
    return run_batch_report(
        jobs,
        processes=processes,
        start_method=start_method,
        config=config,
        journal=journal,
    ).results


def run_batch_report(
    jobs: list[SimJob],
    processes: int | None = None,
    start_method: str | None = None,
    config: SupervisorConfig | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
) -> BatchReport:
    """:func:`run_batch` plus wall-clock, throughput, result-cache and
    per-job outcome accounting (feeds the ``BENCH_sim_throughput.json``
    perf record and the ``sweep`` summary/manifest).

    With *journal* set, completions are recorded as they happen; with
    *resume* additionally true, jobs already in the journal are served
    from it (status ``skipped``) instead of re-running.
    """
    if processes is None:
        processes = min(len(jobs), os.cpu_count() or 1) if jobs else 1
    completed = journal.load_completed() if (journal and resume) else None
    cache_before = result_cache.stats.snapshot()
    start = time.perf_counter()
    if not jobs:
        run = None
    else:
        # Sweep-level root span: every job's batch.job span (parent or
        # worker process) hangs off this one trace.
        with tracing.span("batch.run", jobs=len(jobs), processes=processes):
            run = run_supervised(
                jobs,
                _run_job,
                processes=processes,
                requested_start_method=start_method,
                config=config,
                journal=journal,
                completed=completed,
            )
    wall = time.perf_counter() - start
    return BatchReport(
        results=run.results if run else [],
        wall_seconds=wall,
        processes=max(1, processes),
        cache_stats=result_cache.stats.since(cache_before),
        outcomes=run.outcomes if run else [],
        degraded_serial=run.degraded_serial if run else False,
    )


def suite_jobs(
    benchmarks: tuple[str, ...],
    machines: tuple[str, ...],
    schemes: tuple[str, ...],
    **kwargs,
) -> list[SimJob]:
    """The cross product of benchmarks x machines x schemes as jobs."""
    return [
        SimJob(benchmark=b, machine=m, scheme=s, **kwargs)
        for b in benchmarks
        for m in machines
        for s in schemes
    ]
