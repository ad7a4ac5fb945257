"""Study execution on the supervised worker pool.

:func:`run_study` turns an expanded :class:`~repro.study.spec.StudySpec`
into one :class:`StudyJob` per (run, benchmark) and hands the batch to
:func:`repro.sim.supervisor.run_supervised`, the batch façade over the
same :class:`~repro.sim.supervisor.WorkerPool` that sweeps and the
service use: per-job timeout/retry/backoff, dead-worker respawn, the
``batch.worker`` chaos site and the digest-checked
:class:`~repro.sim.supervisor.SweepJournal`.  A study directory is
therefore resumable exactly like a sweep directory: kill the process at
any point, re-run with ``--resume``, and only unfinished jobs execute;
finished ones are served bit-identically from the journal.

The study ``manifest.json`` binds the spec digest to the same salts the
journal header carries (simulator source version + check-relevant
environment knobs), so a stale journal is detected rather than trusted.

Telemetry: the whole batch runs inside a ``study.run`` span, each job
executes inside a ``study.job`` span (nested under the pool's
``batch.job``), and :data:`METRICS` counts expansions, jobs and
reports for the registry scrapers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.sim import cache as result_cache
from repro.sim.supervisor import (
    SupervisedRun,
    SupervisorConfig,
    SweepJournal,
    outcome_counts,
    run_supervised,
)
from repro.study import analysis
from repro.study.spec import Expansion, StudySpec, expand
from repro.telemetry import trace as tracing
from repro.telemetry.core import MetricsRegistry

#: Counters for the study subsystem (scraped into manifests).
METRICS = MetricsRegistry()

#: File names written into a study output directory.
MANIFEST_NAME = "manifest.json"
REPORT_JSON = "report.json"
REPORT_MD = "report.md"
REPORT_CSV = "report.csv"
TORNADO_TXT = "tornado.txt"


@dataclass(frozen=True, slots=True)
class StudyJob:
    """One supervised unit of work: one run on one benchmark.

    Frozen, closure-free and built only from JSON-representable fields
    so it pickles under ``spawn`` and round-trips through
    :meth:`SweepJournal.job_key`.
    """

    study: str
    run_id: str
    benchmark: str
    machine: str
    #: Sorted ``(field, value)`` machine overrides (tuple: hashable).
    fields: tuple
    scheme: str
    variant: str
    prewarm: bool
    predictor: str
    num_banks: int
    length: int
    eir_length: int
    warmup: int
    seed: int
    metrics: tuple


def _resolved_machine(job: StudyJob):
    from repro.machines.presets import get_machine

    machine = get_machine(job.machine)
    if job.fields:
        machine = dataclasses.replace(machine, **dict(job.fields))
    return machine


def _fetch_unit(job: StudyJob, machine, trace):
    """The scheme name (simulator default path) or an explicit unit when
    the job customises the predictor or banking."""
    if job.predictor == "btb-2bit" and not job.num_banks:
        return job.scheme
    from repro.branch.predictors import GShare, TwoLevelLocal
    from repro.branch.ras import ReturnAddressStack
    from repro.fetch.factory import create_fetch_unit

    if job.predictor.startswith("gshare"):
        predictor = GShare()
    elif job.predictor.startswith("2level"):
        predictor = TwoLevelLocal()
    else:
        predictor = None
    stack = ReturnAddressStack() if job.predictor.endswith("+ras") else None
    return create_fetch_unit(
        job.scheme,
        machine,
        trace,
        direction_predictor=predictor,
        return_stack=stack,
        num_banks=job.num_banks or None,
    )


def _run_study_job(job: StudyJob) -> dict:
    """Compute one run's metrics on one benchmark (module-level so it
    pickles under ``spawn``; imports inside for ``fork`` friendliness).

    Disk-cached under its own kind so repeated studies, in-process
    ablation tables and CI smoke runs share work across processes.
    """
    key = tuple(
        getattr(job, field.name) for field in dataclasses.fields(StudyJob)
    )

    def compute() -> dict:
        from repro.experiments.common import variant_trace
        from repro.sim.eir import measure_eir
        from repro.sim.simulator import Simulator

        machine = _resolved_machine(job)
        out: dict = {}
        if "ipc" in job.metrics:
            trace = variant_trace(
                job.benchmark,
                job.variant,
                job.length,
                job.seed,
                block_words=machine.words_per_block,
            )
            stats = Simulator(
                machine,
                trace,
                _fetch_unit(job, machine, trace),
                warmup=job.warmup,
                prewarm_cache=job.prewarm,
            ).run()
            out["ipc"] = stats.useful_ipc
            out["cycles"] = stats.cycles
        if "eir" in job.metrics:
            trace = variant_trace(
                job.benchmark,
                job.variant,
                job.eir_length,
                job.seed,
                block_words=machine.words_per_block,
            )
            out["eir"] = measure_eir(
                trace,
                machine,
                _fetch_unit(job, machine, trace),
                prewarm_cache=job.prewarm,
            ).eir
        return out

    with tracing.span(
        "study.job", study=job.study, run=job.run_id, benchmark=job.benchmark
    ):
        return result_cache.get_or_compute("study_job", key, compute)


def study_jobs(spec: StudySpec, expansion: Expansion) -> list[StudyJob]:
    """One job per (unique run, benchmark), in deterministic order."""
    return [
        StudyJob(
            study=spec.name,
            run_id=run.run_id,
            benchmark=benchmark,
            machine=run.scenario["machine"],
            fields=tuple(sorted(run.scenario["fields"].items())),
            scheme=run.scenario["scheme"],
            variant=run.scenario["variant"],
            prewarm=run.scenario["prewarm"],
            predictor=run.scenario["predictor"],
            num_banks=run.scenario["num_banks"],
            length=spec.length,
            eir_length=spec.eir_length,
            warmup=spec.warmup,
            seed=spec.seed,
            metrics=tuple(spec.metrics),
        )
        for run in expansion.runs
        for benchmark in spec.benchmarks
    ]


def aggregate(
    spec: StudySpec,
    expansion: Expansion,
    jobs: list[StudyJob],
    results: list[dict],
) -> dict[str, dict]:
    """Fold per-benchmark job results into per-run metrics.

    Scalar metrics are the harmonic mean over the spec's benchmarks in
    declaration order — the paper's aggregate, bit-identical to a direct
    ``Simulator`` + ``harmonic_mean`` loop (``tests/test_study.py``).
    """
    from repro.metrics.summary import harmonic_mean

    per_run: dict[str, dict] = {
        run.run_id: {"benchmarks": {}} for run in expansion.runs
    }
    for job, result in zip(jobs, results):
        per_run[job.run_id]["benchmarks"][job.benchmark] = result
    for run in expansion.runs:
        benchmarks = per_run[run.run_id]["benchmarks"]
        for metric in spec.metrics:
            per_run[run.run_id][metric] = harmonic_mean(
                benchmarks[b][metric] for b in spec.benchmarks
            )
    return per_run


def run_jobs(
    spec: StudySpec,
    expansion: Expansion,
    processes: int | None = None,
    config: SupervisorConfig | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
    on_complete: Callable | None = None,
) -> tuple[dict[str, dict], SupervisedRun]:
    """Execute the expansion's jobs under supervision.

    Returns the per-run aggregated metrics and the supervised-run audit.
    """
    jobs = study_jobs(spec, expansion)
    completed: dict[str, Any] = {}
    if resume and journal is not None:
        completed = journal.load_completed()
    METRICS.inc("study.runs_expanded", len(expansion.runs))
    METRICS.inc("study.jobs_submitted", len(jobs))

    def _count(outcome) -> None:
        if outcome.status == "skipped":
            METRICS.inc("study.jobs_skipped")
        else:
            METRICS.inc("study.jobs_completed")
        if on_complete is not None:
            on_complete(outcome)

    with tracing.span(
        "study.run",
        study=spec.name,
        digest=spec.digest,
        runs=len(expansion.runs),
        jobs=len(jobs),
    ):
        supervised = run_supervised(
            jobs,
            _run_study_job,
            processes=processes,
            config=config,
            journal=journal,
            completed=completed,
            on_complete=_count,
        )
    return aggregate(spec, expansion, jobs, supervised.results), supervised


@dataclass(slots=True)
class StudyOutcome:
    """Everything one :func:`run_study` produced."""

    directory: Path
    spec: StudySpec
    expansion: Expansion
    report: dict
    manifest: dict
    supervised: SupervisedRun


def build_manifest(
    spec: StudySpec, expansion: Expansion, supervised: SupervisedRun
) -> dict:
    """Provenance record binding spec digest + code + check-env salts."""
    return {
        "study": spec.name,
        "spec": spec.as_dict(),
        "spec_digest": spec.digest,
        "source_version": result_cache.source_version(),
        "check_env": list(result_cache._check_env_fingerprint()),
        "runs": len(expansion.runs),
        "jobs": len(supervised.outcomes),
        "outcomes": outcome_counts(supervised.outcomes),
        "degraded_serial": supervised.degraded_serial,
        "worker_failures": supervised.worker_failures,
        "study_counters": dict(METRICS.counters),
    }


def run_study(
    spec: StudySpec,
    out_dir: str | Path,
    processes: int | None = None,
    config: SupervisorConfig | None = None,
    resume: bool = False,
    on_complete: Callable | None = None,
) -> StudyOutcome:
    """Expand, execute, analyse and persist one study.

    Writes ``journal.jsonl`` (during execution), ``manifest.json``,
    ``report.json``/``report.md``/``report.csv`` and ``tornado.txt``
    into *out_dir*.  ``report.json`` is fully deterministic — no
    timestamps or wall-clock — so an interrupted-then-resumed study and
    a clean one produce byte-identical reports.
    """
    expansion = expand(spec)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    journal = SweepJournal(directory)
    try:
        metrics_by_run, supervised = run_jobs(
            spec,
            expansion,
            processes=processes,
            config=config,
            journal=journal,
            resume=resume,
            on_complete=on_complete,
        )
    finally:
        journal.close()

    report = analysis.build_report(spec, expansion, metrics_by_run)
    manifest = build_manifest(spec, expansion, supervised)
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    (directory / REPORT_JSON).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    (directory / REPORT_MD).write_text(analysis.render_markdown(report))
    (directory / REPORT_CSV).write_text(analysis.render_csv(report))
    (directory / TORNADO_TXT).write_text(analysis.render_tornado(report))
    METRICS.inc("study.reports_rendered")
    return StudyOutcome(
        directory=directory,
        spec=spec,
        expansion=expansion,
        report=report,
        manifest=manifest,
        supervised=supervised,
    )
