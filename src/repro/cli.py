"""Command-line interface: ``python -m repro <command>``.

``python -m repro -h`` lists the commands and ``python -m repro
<command> -h`` one command's flags, including every benchmark, machine,
scheme and experiment name it accepts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro import knobs
from repro.check.api import DEFAULT_CHECK_LENGTH
from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig, eir_stats
from repro.experiments.report import EXPERIMENTS, run_experiments
from repro.fetch.factory import ALL_SCHEMES, HARDWARE_SCHEMES
from repro.machines.presets import MACHINES, MACHINES_BY_NAME, get_machine
from repro.sim.runner import DEFAULT_TRACE_LENGTH, DEFAULT_WARMUP
from repro.workloads.analysis import CHARACTERIZE_LENGTH, characterization_table
from repro.workloads.profiles import ALL_BENCHMARKS
from repro.workloads.suite import load_workload
from repro.workloads.trace import TEST_INPUT_SEED, generate_trace

#: Where ``repro ablate run`` writes a study without ``--out``
#: (``studies/<study-name>``).
STUDY_ROOT = Path("studies")

#: Trace length behind ``repro pipetrace``: only ``--cycles`` cycles
#: are rendered, so a short trace covers them.
PIPETRACE_LENGTH = 4_000

#: What each benchmark/machine/scheme argument accepts.
_NAMES = {
    "benchmark": ALL_BENCHMARKS,
    "machine": tuple(MACHINES_BY_NAME),
    "scheme": ALL_SCHEMES,
}

_OUTCOMES = ("ok", "retried", "timeout", "crashed", "skipped")


def _trace(args: argparse.Namespace):
    """The dynamic trace a trace-shape verb asked for."""
    workload = load_workload(args.benchmark)
    return generate_trace(
        workload.program, workload.behavior, args.length, seed=args.seed
    )


def _write_records(
    command: str,
    records: list[dict],
    *,
    directory: str | None = None,
    jsonl: Path | str | None = None,
    csv: Path | str | None = None,
    manifest: Path | str | None = None,
    arguments: dict,
    machines,
    seed: int,
    timings: dict[str, float],
    cache_stats: dict,
    outcomes: list[dict] | None = None,
    engine: str | None = None,
) -> list[Path]:
    """Write *records* as JSONL and/or CSV and the run manifest; returns
    the paths written, in that order.  A telemetry *directory* gets
    ``telemetry.jsonl`` and ``manifest.json``."""
    from repro.telemetry import (
        build_manifest,
        config_fingerprint,
        to_csv,
        to_jsonl,
        write_manifest,
    )

    if directory:
        jsonl = Path(directory) / "telemetry.jsonl"
        manifest = Path(directory) / "manifest.json"
    written = []
    if jsonl:
        written.append(to_jsonl(records, jsonl))
    if csv:
        written.append(to_csv(records, csv))
    if manifest:
        document = build_manifest(
            command=command,
            arguments=arguments,
            configs={m.name: config_fingerprint(m) for m in machines},
            seeds={"trace": seed},
            timings=timings,
            results=records,
            cache_stats=cache_stats,
            outcomes=outcomes,
            engine=engine,
        )
        written.append(write_manifest(manifest, document))
    return written


def _print_outcomes(counts: dict[str, int], *notes: str) -> None:
    """The ``job outcomes:`` line of a supervised sweep or study."""
    summary = ", ".join(
        f"{counts[status]} {status}" for status in _OUTCOMES if counts.get(status)
    )
    print(f"job outcomes: {summary or 'none'}" + "".join(notes))


def _supervisor_config(args: argparse.Namespace):
    from repro.sim.batch import SupervisorConfig

    return SupervisorConfig(
        timeout=args.timeout, max_attempts=max(1, args.retries + 1)
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import cache as result_cache
    from repro.sim.simulator import Simulator
    from repro.telemetry import CAUSES

    machine = get_machine(args.machine)
    sim = Simulator(
        machine,
        _trace(args),
        args.scheme,
        warmup=DEFAULT_WARMUP,
        telemetry=args.telemetry is not None,
        kernel=False if args.no_kernel else None,
    )
    start = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - start
    for key, value in stats.as_dict().items():
        print(f"{key:20s} {value}")
    if args.telemetry is None:
        return 0

    report = sim.telemetry_report
    assert report is not None
    rates = report.rates()
    print(f"\nengine: {report.engine}")
    print(f"\nslot attribution (of {report.issue_rate} slots/cycle):")
    for cause in CAUSES:
        slots = report.attribution.get(cause, 0)
        if slots:
            print(f"  {cause:20s} {slots:>10d}  {rates[cause]:6.3f}/cycle")
    print("\nphase wall-clock seconds:")
    for name, seconds in sorted(
        report.phase_seconds.items(), key=lambda item: -item[1]
    ):
        print(f"  {name:20s} {seconds:8.4f}")

    if args.telemetry:  # a directory was given
        jsonl_path, manifest_path = _write_records(
            "simulate",
            [stats.as_dict()],
            directory=args.telemetry,
            arguments={
                "benchmark": args.benchmark,
                "machine": machine.name,
                "scheme": args.scheme,
                "length": args.length,
            },
            machines=[machine],
            seed=args.seed,
            timings={"wall": wall, **report.phase_seconds},
            cache_stats=result_cache.stats.as_dict(),
            engine=report.engine,
        )
        print(f"\nwrote {jsonl_path} and {manifest_path}")
    return 0


def _cmd_eir(args: argparse.Namespace) -> int:
    """One benchmark and machine of Figure 10: its cached ``eir_stats``
    cells, measured on :func:`_trace`'s trace."""
    machine = get_machine(args.machine).name

    def eir(scheme: str) -> float:
        return eir_stats(
            args.benchmark, machine, scheme, length=args.length, seed=args.seed
        ).eir

    perfect = eir("perfect")
    print(f"{args.benchmark} on {machine}: EIR(perfect) = {perfect:.2f}")
    for scheme in HARDWARE_SCHEMES:
        value = eir(scheme)
        print(f"  {scheme:24s} {value:5.2f}  ({100 * value / perfect:5.1f}%)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Telemetry breakdown: where every fetch slot went, per scheme."""
    import json

    from repro.experiments.common import sim_stats
    from repro.metrics.chart import BarGroup, bar_chart, tornado_chart
    from repro.metrics.summary import format_table
    from repro.sim import cache as result_cache
    from repro.telemetry import CAUSES, check_conservation

    machine = get_machine(args.machine)
    schemes = list(args.schemes or HARDWARE_SCHEMES + ("perfect",))
    issue_rate = machine.issue_rate

    start = time.perf_counter()
    results = {
        scheme: sim_stats(
            args.benchmark,
            machine.name,
            scheme,
            length=args.length,
            warmup=args.warmup,
            seed=args.seed,
            telemetry=True,
        )
        for scheme in schemes
    }
    wall = time.perf_counter() - start

    rates: dict[str, dict[str, float]] = {}
    attributions: dict[str, dict[str, int]] = {}
    for scheme, stats in results.items():
        attribution = stats.slot_attribution()
        check_conservation(attribution, stats.cycles, issue_rate)
        attributions[scheme] = attribution
        rates[scheme] = {
            cause: attribution.get(cause, 0) / stats.cycles
            for cause in CAUSES
        }

    # Loss causes that actually occurred anywhere, in taxonomy order.
    losses = [
        cause
        for cause in CAUSES
        if cause != "delivered"
        and any(rates[scheme][cause] > 0 for scheme in schemes)
    ]

    if args.json:
        print(
            json.dumps(
                {
                    "benchmark": args.benchmark,
                    "machine": machine.name,
                    "issue_rate": issue_rate,
                    "schemes": {
                        scheme: {
                            "eir": results[scheme].eir,
                            "ipc": results[scheme].ipc,
                            "cycles": results[scheme].cycles,
                            "attribution": attributions[scheme],
                            "rates": rates[scheme],
                        }
                        for scheme in schemes
                    },
                },
                indent=2,
            )
        )
    else:
        headers = ["scheme", "EIR"] + losses
        rows = [
            [scheme, round(results[scheme].eir, 3)]
            + [round(rates[scheme][cause], 3) for cause in losses]
            for scheme in schemes
        ]
        print(
            format_table(
                headers,
                rows,
                title=(
                    f"fetch-slot attribution, slots/cycle of {issue_rate}: "
                    f"{args.benchmark} on {machine.name}"
                ),
            )
        )

        # Decompose each scheme's EIR deficit against the perfect
        # fetcher: by slot conservation the per-cause rate differences
        # account for the gap exactly.
        if "perfect" in results:
            perfect_eir = results["perfect"].eir
            print(f"\nEIR gap vs perfect ({perfect_eir:.3f}):")
            for scheme in schemes:
                if scheme == "perfect":
                    continue
                gap = perfect_eir - results[scheme].eir
                if gap <= 1e-9:
                    print(f"  {scheme}: no gap")
                    continue
                contributions = {
                    cause: rates[scheme][cause] - rates["perfect"][cause]
                    for cause in CAUSES
                    if cause != "delivered"
                }
                explained = 100 * sum(contributions.values()) / gap
                print(
                    f"  {scheme}: {gap:.3f} slots/cycle "
                    f"({explained:.1f}% explained)"
                )
                entries = [
                    (cause, 100 * delta / gap)
                    for cause, delta in contributions.items()
                    if abs(delta) > 1e-9
                ]
                if entries:
                    chart = tornado_chart(entries, width=32, unit="%")
                    print("    " + chart.replace("\n", "\n    "))

        chart_series = ["delivered"] + losses
        groups = [
            BarGroup(
                label=scheme,
                values=[rates[scheme][cause] for cause in chart_series],
            )
            for scheme in schemes
        ]
        print()
        print(
            bar_chart(
                chart_series,
                groups,
                title="slots per cycle by cause",
                unit=" slots/cyc",
            )
        )

    written = _write_records(
        "stats",
        [results[scheme].as_dict() for scheme in schemes],
        jsonl=args.export_jsonl,
        csv=args.export_csv,
        manifest=args.manifest,
        arguments={
            "benchmark": args.benchmark,
            "machine": machine.name,
            "schemes": schemes,
            "length": args.length,
            "warmup": args.warmup,
        },
        machines=[machine],
        seed=args.seed,
        timings={"wall": wall},
        cache_stats=result_cache.stats.as_dict(),
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    names = args.benchmarks or list(ALL_BENCHMARKS)
    workloads = [load_workload(name) for name in names]
    print(characterization_table(workloads, trace_length=args.length))
    return 0


def _config_for(args: argparse.Namespace) -> ExperimentConfig:
    if args.scale == 1.0:
        return DEFAULT_CONFIG
    return ExperimentConfig(
        trace_length=max(2000, int(DEFAULT_CONFIG.trace_length * args.scale)),
        eir_length=max(2000, int(DEFAULT_CONFIG.eir_length * args.scale)),
        stats_length=max(4000, int(DEFAULT_CONFIG.stats_length * args.scale)),
        warmup=max(500, int(DEFAULT_CONFIG.warmup * args.scale)),
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = args.names or list(EXPERIMENTS)
    for result in run_experiments(names, _config_for(args), args.jobs):
        print(result.to_json() if args.json else result.as_text())
        if not args.json:
            print("=" * 72)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    """Declarative study engine: ``ablate run|list|report``."""
    import json

    from repro.check.errors import CheckFailure
    from repro.study import analysis as study_analysis
    from repro.study.engine import REPORT_JSON, run_study
    from repro.study.presets import PRESETS, metrics_from_report
    from repro.study.spec import spec_from_json

    if args.action == "list":
        print("study presets:")
        for preset in PRESETS.values():
            print(f"  {preset.name:16s} {preset.description}")
        print(
            "\nrun one with 'repro ablate run NAME' "
            "(or pass a JSON StudySpec path)"
        )
        return 0

    if args.action == "report":
        path = Path(args.dir) / REPORT_JSON
        if not path.exists():
            print(f"no study report at {path}", file=sys.stderr)
            return 2
        report = json.loads(path.read_text())
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(study_analysis.render_markdown(report))
        return 0

    # action == "run"
    preset = PRESETS.get(args.spec)
    if preset is not None:
        spec = preset.build(_config_for(args))
    else:
        path = Path(args.spec)
        if not path.exists():
            known = ", ".join(PRESETS)
            print(
                f"unknown study {args.spec!r}; known presets: {known} "
                "(or pass a JSON StudySpec path)",
                file=sys.stderr,
            )
            return 2
        if args.scale != 1.0:
            print(
                "--scale applies to presets only; a JSON StudySpec sets "
                "its own length, eir_length and warmup",
                file=sys.stderr,
            )
            return 2
        try:
            spec = spec_from_json(path.read_text())
        except CheckFailure as exc:
            for error in exc.errors:
                print(error, file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"bad study spec {path}: {exc}", file=sys.stderr)
            return 1

    out_dir = Path(args.out) if args.out else STUDY_ROOT / spec.name
    from repro.sim.batch import BatchError

    try:
        outcome = run_study(
            spec,
            out_dir,
            processes=args.jobs,
            config=_supervisor_config(args),
            resume=args.resume,
        )
    except CheckFailure as exc:
        for error in exc.errors:
            print(error, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(
            f"\nstudy interrupted — completed jobs are journalled in "
            f"{out_dir}; resume with the same command plus '--resume'",
            file=sys.stderr,
        )
        return 130
    except BatchError as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return 1

    report = outcome.report
    print(
        f"study {spec.name} (spec {spec.digest}): "
        f"{len(outcome.expansion.runs)} unique runs, "
        f"{outcome.manifest['jobs']} jobs"
    )
    _print_outcomes(outcome.manifest["outcomes"])
    print()
    print(study_analysis.render_tornado(report).rstrip("\n"))
    frontier = report["pareto"]["frontier"]
    if frontier:
        print(f"\nEIR-vs-cost Pareto frontier: {len(frontier)} point(s)")
    if preset is not None and preset.table is not None:
        table = preset.table(
            spec, outcome.expansion, metrics_from_report(report)
        )
        print("\n" + table.as_text())
    print(
        f"\nwrote {outcome.directory}/report.{{json,md,csv}}, "
        "tornado.txt and manifest.json"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.api import check_matrix

    report = check_matrix(
        benchmarks=args.benchmarks or None,
        machines=args.machines or None,
        length=args.length,
        seed=args.seed,
        fetch=not args.no_fetch,
        variants=tuple(args.variants),
    )
    for finding in report.errors + report.warnings:
        print(finding)
    print(
        f"{report.checks_run} checks: {len(report.errors)} error(s), "
        f"{len(report.warnings)} warning(s)"
    )
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import Baseline, run_lint

    root = Path(args.root)
    baseline_path = (
        Path(args.baseline) if args.baseline else root / "lint_baseline.json"
    )
    try:
        baseline = Baseline.load(baseline_path)
    except (ValueError, OSError) as exc:
        print(f"repro lint: bad baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    report = run_lint(root, baseline=baseline)
    if args.write_baseline:
        written = baseline.write(baseline_path, report.findings)
        count = len(report.findings)
        print(f"wrote {count} suppression(s) to {written}")
        return 0
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.batch import (
        BatchError,
        SweepJournal,
        run_batch_report,
        suite_jobs,
    )

    # Result-neutral engine options travel as environment knobs (not
    # SimJob fields) so worker processes inherit them; both are salted
    # into the result-cache key.
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    if args.no_kernel:
        os.environ["REPRO_KERNEL"] = "0"
    benchmarks = tuple(args.benchmarks or ALL_BENCHMARKS)
    machines = tuple(args.machines or [m.name for m in MACHINES])
    schemes = tuple(args.schemes or HARDWARE_SCHEMES)
    jobs = suite_jobs(
        benchmarks,
        machines,
        schemes,
        length=args.length,
        warmup=args.warmup,
        seed=args.seed,
        telemetry=args.telemetry is not None,
    )
    journal_dir = args.resume or args.journal
    journal = SweepJournal(journal_dir) if journal_dir else None
    try:
        report = run_batch_report(
            jobs,
            processes=args.jobs,
            config=_supervisor_config(args),
            journal=journal,
            resume=args.resume is not None,
        )
    except KeyboardInterrupt:
        # Workers are already terminated and the journal flushed (the
        # supervisor guarantees both before re-raising).
        print("\nsweep interrupted — workers terminated.", file=sys.stderr)
        if journal_dir:
            print(
                f"completed jobs are journalled in {journal_dir}; resume "
                f"by rerunning with '--resume {journal_dir}' (instead of "
                f"'--journal')",
                file=sys.stderr,
            )
        else:
            print(
                "no journal was active; pass '--journal DIR' (or "
                "'--resume DIR') to make sweeps resumable",
                file=sys.stderr,
            )
        return 130
    except BatchError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if journal is not None:
            journal.close()
    header = f"{'benchmark':12s} {'machine':8s} {'scheme':24s} {'IPC':>6s}"
    print(header)
    for job, stats in zip(jobs, report.results):
        print(
            f"{job.benchmark:12s} {job.machine:8s} {job.scheme:24s} "
            f"{stats.ipc:6.2f}"
        )
    print(
        f"\n{len(jobs)} simulations in {report.wall_seconds:.2f}s "
        f"({report.instructions_per_second:,.0f} simulated instructions/s, "
        f"{report.processes} process(es))"
    )
    extra_attempts = sum(len(o.failures) for o in report.outcomes)
    _print_outcomes(
        report.outcome_counts,
        f" ({extra_attempts} failed attempt(s) retried)" if extra_attempts else "",
        " — degraded to serial execution" if report.degraded_serial else "",
    )
    cache = report.cache_stats
    print(
        "result cache: "
        f"{cache.get('hits', 0)} hit(s), {cache.get('misses', 0)} miss(es), "
        f"{cache.get('stores', 0)} store(s), "
        f"{cache.get('coalesced', 0)} coalesced, "
        f"{cache.get('corrupt_dropped', 0)} dropped"
        + (
            " — cache auto-disabled (filesystem error)"
            if cache.get("auto_disabled")
            else ""
        )
    )
    if args.telemetry:  # a directory was given
        jsonl_path, manifest_path = _write_records(
            "sweep",
            [stats.as_dict() for stats in report.results],
            directory=args.telemetry,
            arguments={
                "benchmarks": list(benchmarks),
                "machines": list(machines),
                "schemes": list(schemes),
                "length": args.length,
                "warmup": args.warmup,
                "jobs": report.processes,
                "timeout": args.timeout,
                "retries": args.retries,
                "resume": bool(args.resume),
            },
            machines=[get_machine(name) for name in machines],
            seed=args.seed,
            timings={"wall": report.wall_seconds},
            cache_stats=cache,
            outcomes=[outcome.as_dict() for outcome in report.outcomes],
        )
        print(f"wrote {jsonl_path} and {manifest_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.sim.bench import measure_throughput, record_section

    modes: tuple[str, ...] = ("interpreted", "kernel")
    if args.kernel:
        modes = ("kernel",)
    elif args.no_kernel:
        modes = ("interpreted",)
    report = measure_throughput(
        benchmark=args.benchmark,
        machine_name=args.machine,
        scheme=args.scheme,
        length=args.length,
        warmup=args.warmup,
        seed=args.seed,
        repeats=args.repeats,
        modes=modes,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        interp = report.get("interpreted")
        kernel = report.get("kernel")
        print(
            f"{args.benchmark} on {args.machine}/{args.scheme}, "
            f"{args.length:,} instructions (best of {args.repeats}):"
        )
        if interp:
            print(
                f"  interpreted  {interp['instructions_per_second']:>12,} insn/s"
            )
        if kernel:
            print(
                f"  kernel cold  {kernel['cold_instructions_per_second']:>12,} insn/s"
                "  (table + tape build)"
            )
            print(
                f"  kernel warm  {kernel['warm_instructions_per_second']:>12,} insn/s"
            )
        if "speedup_warm_over_interpreted" in report:
            print(
                f"  speedup      {report['speedup_warm_over_interpreted']:>12}x"
                "  (warm kernel over interpreted)"
            )
    if args.update:
        record_section(args.update, "compiled_kernel", report)
        print(f"updated {args.update}")
    if args.floor is not None:
        kernel = report.get("kernel")
        measured = (
            kernel["warm_instructions_per_second"]
            if kernel
            else report["interpreted"]["instructions_per_second"]
        )
        if measured < args.floor:
            print(
                f"throughput {measured:,} insn/s below floor {args.floor:,}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_pipetrace(args: argparse.Namespace) -> int:
    from repro.sim.pipetrace import trace_pipeline

    log = trace_pipeline(
        get_machine(args.machine), _trace(args), args.scheme, max_cycles=args.cycles
    )
    print(log.render(limit=args.cycles))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        job_timeout=args.timeout,
        retries=args.retries,
        drain_timeout=args.drain_timeout,
        quiet=args.quiet,
        name=args.name,
    )


def _cmd_balance(args: argparse.Namespace) -> int:
    from repro.service.cluster import run_cluster

    return run_cluster(
        replicas=args.replicas,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        job_timeout=args.timeout,
        quiet=args.quiet,
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.loadgen import run_loadgen

    output = args.output or (
        "BENCH_cluster_throughput.json"
        if args.cluster
        else "BENCH_service_throughput.json"
    )
    report = run_loadgen(
        host=args.host,
        port=args.port,
        clients=args.clients,
        duration=args.duration,
        output=None if output == "-" else output,
        cluster=args.cluster,
    )
    return 0 if report["passed"] or not args.strict else 1


def _activate_tracing(trace_dir: str) -> None:
    """Turn on ``REPRO_TRACE`` (and the spill directory) via the
    environment so worker processes inherit it — both knobs are
    cache-exempt, so traced results stay bit-identical."""
    from repro.telemetry import trace as tracing

    os.environ["REPRO_TRACE"] = "1"
    if trace_dir:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_TRACE_DIR"] = trace_dir
    tracing.reload()


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import timeline
    from repro.telemetry import trace as tracing

    directory = args.dir or tracing.trace_dir()
    if not directory:
        print(
            "no trace directory: pass --dir DIR or set REPRO_TRACE_DIR",
            file=sys.stderr,
        )
        return 2
    spans = timeline.load_dir(directory)
    if not spans:
        print(f"no spans found under {directory}", file=sys.stderr)
        return 1
    if args.trace_id is None and not args.latest:
        print(timeline.render_listing(spans))
        return 0
    if args.latest:
        trace_id = timeline.trace_summaries(spans)[0]["trace_id"]
    else:
        trace_id = args.trace_id
    try:
        bucket = timeline.find_trace(spans, trace_id)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.chrome:
        document = tracing.to_chrome(bucket)
        problems = tracing.validate_chrome(document)
        if problems:
            for problem in problems:
                print(f"chrome export: {problem}", file=sys.stderr)
            return 1
        Path(args.chrome).write_text(json.dumps(document) + "\n")
        print(f"wrote {args.chrome} ({len(bucket)} spans)")
    print(timeline.render_tree(bucket))
    print(timeline.render_critical_path(bucket, top=args.top))
    return 0


# -- shared argument groups ----------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _one_of(names):
    """Type of one value of a ``nargs="*"`` positional naming *names*.
    Not ``choices=``: before Python 3.12 argparse checks an empty list
    against the choices and rejects it."""

    def check(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} "
                f"(choose from {', '.join(map(repr, names))})"
            )
        return text

    return check


def _names(parser, *kinds: str, lists: bool = False) -> None:
    """Benchmark/machine/scheme positionals (or, with *lists*, the
    ``--benchmarks``-style lists), validated against their registries."""
    for kind in kinds:
        if lists:
            parser.add_argument(f"--{kind}s", nargs="*", choices=_NAMES[kind])
        else:
            parser.add_argument(kind, choices=_NAMES[kind])


def _trace_shape(
    parser, length: int, *, warmup: bool = False, seed: bool = True
) -> None:
    """The generated trace: ``--length``, ``--warmup`` and ``--seed``."""
    parser.add_argument(
        "--length",
        type=_positive_int,
        default=length,
        help="dynamic instructions to generate (default: %(default)s)",
    )
    if warmup:
        parser.add_argument(
            "--warmup",
            type=int,
            default=DEFAULT_WARMUP,
            help="leading instructions left out of the statistics "
            "(default: %(default)s)",
        )
    if seed:
        parser.add_argument(
            "--seed",
            type=int,
            default=TEST_INPUT_SEED,
            help="behaviour seed of the trace's input (default: %(default)s)",
        )


def _engine(parser) -> None:
    """``--no-kernel`` and ``--telemetry [DIR]`` of a simulation."""
    parser.add_argument(
        "--no-kernel",
        action="store_true",
        help=(
            "run the reference loop instead of the compiled "
            "kernel (bit-identical statistics either way)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "run instrumented (slot attribution; simulate also prints "
            "phase timings); with DIR, write telemetry.jsonl + "
            "manifest.json there"
        ),
    )


def _jobs(parser) -> None:
    """How many worker processes run: ``--jobs``."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 1 = serial)",
    )


def _supervision(parser) -> None:
    """How supervised jobs run: ``--jobs``, ``--timeout``, ``--retries``."""
    _jobs(parser)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock timeout; a stuck job is terminated "
            "and retried (default: none)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "retries per job after a crash/timeout/exception, with "
            "exponential backoff (default: 2)"
        ),
    )


def _tracing(parser) -> None:
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "trace every job or request (REPRO_TRACE=1); with DIR, spill "
            "spans there for 'repro trace' (REPRO_TRACE_DIR)"
        ),
    )


def _address(parser, port: int) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port)


def _service(parser, port: int, workers: int | None) -> None:
    """What ``serve`` and ``balance`` share: the address, each server's
    workers, admission bound and job timeout, tracing and the banner."""
    _address(parser, port)
    parser.add_argument(
        "--workers",
        type=int,
        default=workers,
        help="worker processes per server (0 = in-process serial; default: "
        + ("CPU-based)" if workers is None else "%(default)s)"),
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="unfinished jobs a server admits before answering 429",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout; timed-out jobs are retried (default: none)",
    )
    _tracing(parser)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress startup banner"
    )


def _scale(parser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply the default trace lengths (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Conte et al., 'Optimization of Instruction "
            "Fetch Mechanisms for High Issue Rates' (ISCA 1995)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, handler, summary: str):
        command = sub.add_parser(name, help=summary)
        command.set_defaults(func=handler)
        return command

    simulate = verb("simulate", _cmd_simulate, "run one IPC simulation")
    _names(simulate, "benchmark", "machine", "scheme")
    _trace_shape(simulate, DEFAULT_TRACE_LENGTH)
    _engine(simulate)

    eir = verb("eir", _cmd_eir, "fetch-only alignment efficiency")
    _names(eir, "benchmark", "machine")
    _trace_shape(eir, DEFAULT_CONFIG.eir_length)

    stats = verb(
        "stats",
        _cmd_stats,
        "telemetry slot-attribution breakdown across fetch schemes",
    )
    _names(stats, "benchmark", "machine")
    _names(stats, "scheme", lists=True)
    _trace_shape(stats, DEFAULT_TRACE_LENGTH, warmup=True)
    stats.add_argument("--json", action="store_true")
    stats.add_argument(
        "--export-jsonl", metavar="PATH", help="write per-scheme records"
    )
    stats.add_argument(
        "--export-csv", metavar="PATH", help="write per-scheme records"
    )
    stats.add_argument(
        "--manifest", metavar="PATH", help="write a run-provenance manifest"
    )

    characterize = verb(
        "characterize", _cmd_characterize, "workload characterisation table"
    )
    characterize.add_argument(
        "benchmarks",
        nargs="*",
        type=_one_of(ALL_BENCHMARKS),
        help="default: all of " + ", ".join(ALL_BENCHMARKS),
    )
    _trace_shape(characterize, CHARACTERIZE_LENGTH, seed=False)

    experiment = verb(
        "experiment", _cmd_experiment, "regenerate paper tables/figures"
    )
    experiment.add_argument(
        "names",
        nargs="*",
        type=_one_of(EXPERIMENTS),
        help="default: all, in paper order: " + ", ".join(EXPERIMENTS),
    )
    experiment.add_argument("--json", action="store_true")
    _scale(experiment)
    _jobs(experiment)

    ablate = verb(
        "ablate",
        _cmd_ablate,
        "declarative ablation studies (expand/execute/analyse)",
    )
    ablate_sub = ablate.add_subparsers(dest="action", required=True)
    ablate_sub.add_parser("list", help="list the named study presets")
    ablate_run = ablate_sub.add_parser(
        "run", help="expand and execute a study, writing its reports"
    )
    ablate_run.add_argument(
        "spec", help="preset name or path to a JSON StudySpec"
    )
    ablate_run.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help=f"output directory (default: {STUDY_ROOT}/<study-name>)",
    )
    ablate_run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve jobs already journalled in the output directory "
            "(bit-identical results) and journal new completions there"
        ),
    )
    _supervision(ablate_run)
    _scale(ablate_run)
    ablate_report = ablate_sub.add_parser(
        "report", help="re-render a finished study from its report.json"
    )
    ablate_report.add_argument("dir", help="study output directory")
    ablate_report.add_argument("--json", action="store_true")

    sweep = verb(
        "sweep", _cmd_sweep, "batch-simulate a benchmark x machine x scheme grid"
    )
    _names(sweep, "benchmark", "machine", "scheme", lists=True)
    _trace_shape(sweep, DEFAULT_TRACE_LENGTH, warmup=True)
    _supervision(sweep)
    journal_flags = sweep.add_mutually_exclusive_group()
    journal_flags.add_argument(
        "--journal",
        metavar="DIR",
        help=(
            "append each completed job to DIR/journal.jsonl so an "
            "interrupted sweep can be resumed with --resume DIR"
        ),
    )
    journal_flags.add_argument(
        "--resume",
        metavar="DIR",
        help=(
            "serve jobs already completed in DIR/journal.jsonl "
            "(bit-identical results) and journal new completions there"
        ),
    )
    sweep.add_argument(
        "--sanitize",
        action="store_true",
        help="run every simulation under the pipeline sanitizer",
    )
    _engine(sweep)
    _tracing(sweep)

    # The grid is not validated here: check reports unknown names as
    # A001-A003 findings.
    check = verb(
        "check", _cmd_check, "lint programs, configs, traces and fetch packets"
    )
    check.add_argument("--benchmarks", nargs="*", metavar="BENCH")
    check.add_argument("--machines", nargs="*", metavar="MACHINE")
    _trace_shape(check, DEFAULT_CHECK_LENGTH)
    check.add_argument(
        "--no-fetch",
        action="store_true",
        help="skip the packet-checked fetch pass (static layers only)",
    )
    check.add_argument(
        "--variants",
        nargs="*",
        default=["orig"],
        metavar="VARIANT",
        help="program variants to lint (orig reordered pad_all pad_trace)",
    )

    lint = verb(
        "lint", _cmd_lint, "static analysis of the codebase (repro.analysis)"
    )
    lint.add_argument(
        "--root",
        default=".",
        help="repository root to analyze (default: current directory)",
    )
    lint.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline file (default: ROOT/lint_baseline.json)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report on stdout",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file",
    )

    bench = verb(
        "bench",
        _cmd_bench,
        "single-simulation throughput: reference loop vs compiled kernel",
    )
    bench.add_argument("--benchmark", default="espresso", choices=_NAMES["benchmark"])
    bench.add_argument("--machine", default="PI8", choices=_NAMES["machine"])
    bench.add_argument(
        "--scheme", default="interleaved_sequential", choices=_NAMES["scheme"]
    )
    _trace_shape(bench, DEFAULT_TRACE_LENGTH, warmup=True)
    bench.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing (default 3)"
    )
    engines = bench.add_mutually_exclusive_group()
    engines.add_argument(
        "--kernel", action="store_true", help="measure only the compiled kernel"
    )
    engines.add_argument(
        "--no-kernel",
        action="store_true",
        help="measure only the reference loop",
    )
    bench.add_argument("--json", action="store_true")
    bench.add_argument(
        "--update",
        metavar="PATH",
        help="write the report into PATH as the 'compiled_kernel' section",
    )
    bench.add_argument(
        "--floor",
        type=int,
        default=None,
        metavar="INSN_PER_SEC",
        help="exit 1 if warm-kernel (or reference-only) throughput is lower",
    )

    pipetrace = verb(
        "pipetrace", _cmd_pipetrace, "cycle-by-cycle pipeline trace"
    )
    _names(pipetrace, "benchmark", "machine", "scheme")
    pipetrace.add_argument("--cycles", type=int, default=40)
    _trace_shape(pipetrace, PIPETRACE_LENGTH)

    serve = verb("serve", _cmd_serve, "start the HTTP/JSON simulation service")
    _service(serve, port=8000, workers=None)
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per job after a crash or timeout (default: 2)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight jobs on SIGTERM",
    )
    serve.add_argument(
        "--name",
        default="",
        help=(
            "replica name (prefixes job ids, e.g. r1-job-000001, so a "
            "cluster balancer can route polls to the owning replica)"
        ),
    )

    balance = verb(
        "balance", _cmd_balance, "front a fleet of serve replicas with a balancer"
    )
    _service(balance, port=8100, workers=1)
    balance.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="number of serve replicas to spawn and supervise",
    )

    loadgen = verb(
        "loadgen", _cmd_loadgen, "benchmark a running simulation service"
    )
    _address(loadgen, 8000)
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument("--duration", type=float, default=5.0)
    loadgen.add_argument(
        "--output",
        default=None,
        help=(
            "report path ('-' to skip writing; default: "
            "BENCH_service_throughput.json, or BENCH_cluster_throughput.json "
            "with --cluster)"
        ),
    )
    loadgen.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if the throughput/latency floors are missed",
    )
    loadgen.add_argument(
        "--cluster",
        action="store_true",
        help=(
            "cluster gauntlet: verify every result bit-for-bit against "
            "an in-process reference and require zero failed requests"
        ),
    )

    trace = verb(
        "trace", _cmd_trace, "inspect recorded trace spans (timeline, critical path)"
    )
    trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace id (or unique prefix) to render; omit to list traces",
    )
    trace.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="span spill directory (default: REPRO_TRACE_DIR)",
    )
    trace.add_argument(
        "--latest",
        action="store_true",
        help="render the most recently started trace",
    )
    trace.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="rows in the critical-path (self-time) table (default 10)",
    )
    trace.add_argument(
        "--chrome",
        metavar="OUT.json",
        help="also export the trace as a Chrome/Perfetto trace-event file",
    )
    return parser


def _knob_environment() -> dict[str, str]:
    return {
        name: value
        for name, value in os.environ.items()
        if name.startswith(knobs.KNOB_PREFIX)
    }


def main(argv: list[str] | None = None) -> int:
    """Run one verb.  Verbs hand engine options to their worker
    processes through ``REPRO_*`` variables (``--trace``, ``sweep
    --sanitize``/``--no-kernel``); they hold while the verb runs, so its
    manifest records them, and are restored when it returns, so a
    caller that invokes ``main`` in process keeps its own settings."""
    args = build_parser().parse_args(argv)
    saved = _knob_environment()
    try:
        if getattr(args, "trace", None) is not None:  # sweep, serve, balance
            _activate_tracing(args.trace)
        return args.func(args)
    finally:
        current = _knob_environment()
        if current != saved:
            for name in current.keys() - saved.keys():
                del os.environ[name]
            os.environ.update(saved)
            from repro.telemetry import trace as tracing

            tracing.reload()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
