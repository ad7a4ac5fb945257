"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — benchmarks, machine models, fetch schemes.
* ``simulate BENCH MACHINE SCHEME`` — one full IPC simulation;
  ``--telemetry [DIR]`` runs instrumented and prints the slot
  attribution and phase timings (writing JSONL + manifest to ``DIR``).
* ``eir BENCH MACHINE`` — fetch-only alignment efficiency of all schemes.
* ``stats BENCH MACHINE`` — telemetry breakdown: where every fetch slot
  went, per scheme, with an EIR-gap decomposition against ``perfect``.
* ``characterize [BENCH ...]`` — workload characterisation table.
* ``experiment NAME [NAME ...]`` — regenerate paper tables/figures.
* ``ablate run|list|report`` — the beyond-paper ablations on the
  declarative study engine (:mod:`repro.study`): expand a named preset
  or JSON :class:`StudySpec` into baseline/one-factor-off/pairwise runs,
  execute them under the supervised sweep engine (``--resume`` replays
  the journal), and emit importance/interaction/Pareto reports plus the
  preset's ablation table.
* ``sweep`` — batch-simulate a grid of configurations (``--jobs N``)
  under the supervised engine: ``--timeout``/``--retries`` set the
  recovery policy, ``--journal DIR`` records completions and
  ``--resume DIR`` skips work already journalled there;
  ``--sanitize`` runs every job under the pipeline sanitizer,
  ``--telemetry [DIR]`` with slot attribution, ``--no-kernel``
  runs the reference loop.
* ``bench`` — single-simulation throughput, reference loop vs compiled
  kernel (cold table build and warm tape replay); ``--update PATH``
  refreshes ``BENCH_sim_throughput.json``, ``--floor N`` gates CI.
* ``check`` — lint a benchmark x machine x scheme matrix with the
  ``repro.check`` verifiers (exit 1 on any violation).
* ``lint`` — static analysis of the codebase itself with the
  ``repro.analysis`` analyzers (knob registry, concurrency, fault
  sites, error codes; exit 1 on any non-baselined finding).
* ``serve`` — start the simulation service (HTTP/JSON job server over
  the supervised worker engine; see ``docs/service.md``).
* ``balance`` — spawn N ``serve`` replicas and front them with the
  fault-tolerant cluster balancer (consistent-hash routing, health
  gating, budgeted failover; see ``docs/service.md``).
* ``loadgen`` — benchmark a running service and write
  ``BENCH_service_throughput.json``; ``--cluster`` adds the
  zero-lost-requests bit-identity gauntlet against a balancer.
* ``trace`` — inspect spans recorded with ``REPRO_TRACE=1`` (or the
  ``--trace DIR`` flag on ``sweep``/``serve``): list traces, render one
  as a tree with a critical-path table, export Chrome/Perfetto JSON.
* ``report`` — every paper artifact, in order.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.report import EXPERIMENTS, run_experiments
from repro.fetch.factory import ALL_SCHEMES, HARDWARE_SCHEMES
from repro.machines.presets import MACHINES, get_machine
from repro.sim.eir import measure_eir
from repro.sim.runner import run_workload
from repro.workloads.analysis import characterization_table
from repro.workloads.profiles import ALL_BENCHMARKS
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace


def _cmd_list(_args: argparse.Namespace) -> int:
    print("benchmarks:")
    for name in ALL_BENCHMARKS:
        print(f"  {name} ({load_workload(name).workload_class})")
    print("\nmachines:")
    for machine in MACHINES:
        print(
            f"  {machine.name}: issue {machine.issue_rate}, "
            f"window {machine.window_size}, "
            f"{machine.icache_bytes // 1024}KB I-cache / "
            f"{machine.icache_block_bytes}B blocks"
        )
    print("\nfetch schemes:")
    for scheme in ALL_SCHEMES:
        marker = "" if scheme in HARDWARE_SCHEMES + ("perfect",) else "  [extension]"
        print(f"  {scheme}{marker}")
    print("\nexperiments:", ", ".join(EXPERIMENTS))
    from repro.study.presets import PRESETS

    print("ablate presets:", ", ".join(PRESETS))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    if args.telemetry is None:
        stats = run_workload(
            args.benchmark,
            machine,
            args.scheme,
            max_instructions=args.length,
            seed=args.seed,
            kernel=False if args.no_kernel else None,
        )
        for key, value in stats.as_dict().items():
            print(f"{key:20s} {value}")
        return 0

    # Instrumented run: build the simulator directly so the full
    # TelemetryReport (phase timers, counters) is available, not just
    # the slot_* keys that survive in SimStats.extra.
    import time

    from repro.sim import cache as result_cache
    from repro.sim.runner import DEFAULT_WARMUP
    from repro.sim.simulator import Simulator
    from repro.telemetry import (
        CAUSES,
        build_manifest,
        config_fingerprint,
        to_jsonl,
        write_manifest,
    )

    workload = load_workload(args.benchmark)
    trace = generate_trace(
        workload.program, workload.behavior, args.length, seed=args.seed
    )
    sim = Simulator(
        machine, trace, args.scheme, warmup=DEFAULT_WARMUP, telemetry=True
    )
    start = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - start
    for key, value in stats.as_dict().items():
        print(f"{key:20s} {value}")

    report = sim.telemetry_report
    assert report is not None
    rates = report.rates()
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
        from pathlib import Path

        out = Path(args.telemetry)
        record = stats.as_dict()
        jsonl_path = to_jsonl([record], out / "telemetry.jsonl")
        manifest = build_manifest(
            command="simulate",
            arguments={
                "benchmark": args.benchmark,
                "machine": machine.name,
                "scheme": args.scheme,
                "length": args.length,
            },
            configs={machine.name: config_fingerprint(machine)},
            seeds={"trace": args.seed},
            timings={"wall": wall, **report.phase_seconds},
            results=[record],
            cache_stats=result_cache.stats.as_dict(),
        )
        manifest_path = write_manifest(out / "manifest.json", manifest)
        print(f"\nwrote {jsonl_path} and {manifest_path}")
    return 0


def _cmd_eir(args: argparse.Namespace) -> int:
    workload = load_workload(args.benchmark)
    machine = get_machine(args.machine)
    trace = generate_trace(
        workload.program, workload.behavior, args.length, seed=args.seed
    )
    perfect = measure_eir(trace, machine, "perfect").eir
    print(f"{args.benchmark} on {machine.name}: EIR(perfect) = {perfect:.2f}")
    for scheme in HARDWARE_SCHEMES:
        eir = measure_eir(trace, machine, scheme).eir
        print(f"  {scheme:24s} {eir:5.2f}  ({100 * eir / perfect:5.1f}%)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Telemetry breakdown: where every fetch slot went, per scheme."""
    import json
    import time

    from repro.experiments.common import telemetry_sim_stats
    from repro.metrics.chart import BarGroup, bar_chart, tornado_chart
    from repro.metrics.summary import format_table
    from repro.sim import cache as result_cache
    from repro.telemetry import (
        CAUSES,
        build_manifest,
        check_conservation,
        config_fingerprint,
        to_csv,
        to_jsonl,
        write_manifest,
    )

    machine = get_machine(args.machine)
    schemes = list(args.schemes or HARDWARE_SCHEMES + ("perfect",))
    issue_rate = machine.issue_rate

    start = time.perf_counter()
    results = {
        scheme: telemetry_sim_stats(
            args.benchmark,
            machine.name,
            scheme,
            length=args.length,
            warmup=args.warmup,
            seed=args.seed,
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

    records = [results[scheme].as_dict() for scheme in schemes]
    if args.export_jsonl:
        print(f"wrote {to_jsonl(records, args.export_jsonl)}")
    if args.export_csv:
        print(f"wrote {to_csv(records, args.export_csv)}")
    if args.manifest:
        manifest = build_manifest(
            command="stats",
            arguments={
                "benchmark": args.benchmark,
                "machine": machine.name,
                "schemes": schemes,
                "length": args.length,
                "warmup": args.warmup,
            },
            configs={machine.name: config_fingerprint(machine)},
            seeds={"trace": args.seed},
            timings={"wall": wall},
            results=records,
            cache_stats=result_cache.stats.as_dict(),
        )
        print(f"wrote {write_manifest(args.manifest, manifest)}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    names = args.benchmarks or list(ALL_BENCHMARKS)
    workloads = [load_workload(name) for name in names]
    print(characterization_table(workloads, trace_length=args.length))
    return 0


def _config_for(args: argparse.Namespace) -> ExperimentConfig:
    scale = getattr(args, "scale", 1.0)
    if scale == 1.0:
        return DEFAULT_CONFIG
    return ExperimentConfig(
        trace_length=max(2000, int(DEFAULT_CONFIG.trace_length * scale)),
        eir_length=max(2000, int(DEFAULT_CONFIG.eir_length * scale)),
        stats_length=max(4000, int(DEFAULT_CONFIG.stats_length * scale)),
        warmup=max(500, int(DEFAULT_CONFIG.warmup * scale)),
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    for result in run_experiments(args.names, _config_for(args)):
        print(result.to_json() if args.json else result.as_text())
        if not args.json:
            print("=" * 72)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    """Declarative study engine: ``ablate run|list|report``."""
    import json
    from pathlib import Path

    from repro import knobs
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

    out_dir = Path(args.out) if args.out else (
        Path(knobs.raw("REPRO_STUDY_DIR")) / spec.name
    )
    from repro.sim.batch import BatchError, SupervisorConfig

    config = SupervisorConfig(
        timeout=args.timeout, max_attempts=max(1, args.retries + 1)
    )
    try:
        outcome = run_study(
            spec,
            out_dir,
            processes=args.jobs,
            config=config,
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
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    counts = outcome.manifest["outcomes"]
    print(
        f"study {spec.name} (spec {spec.digest}): "
        f"{len(outcome.expansion.runs)} unique runs, "
        f"{outcome.manifest['jobs']} jobs"
    )
    summary = ", ".join(
        f"{counts[status]} {status}"
        for status in ("ok", "retried", "timeout", "crashed", "skipped")
        if counts.get(status)
    )
    print(f"job outcomes: {summary or 'none'}")
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
        schemes=args.schemes or None,
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
    import json as _json
    from pathlib import Path

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
        print(_json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.sim.batch import (
        BatchError,
        SupervisorConfig,
        SweepJournal,
        run_batch_report,
        suite_jobs,
    )

    if args.sanitize:
        # Env (not a flag threaded through SimJob) so worker processes
        # inherit it; the result-cache digest includes this knob.
        os.environ["REPRO_SANITIZE"] = "1"
    if args.trace is not None:
        _activate_tracing(args.trace)
    telemetry = args.telemetry is not None
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
        telemetry=telemetry,
        kernel=False if args.no_kernel else None,
    )
    journal_dir = args.resume or args.journal
    journal = SweepJournal(journal_dir) if journal_dir else None
    config = SupervisorConfig(
        timeout=args.timeout, max_attempts=max(1, args.retries + 1)
    )
    try:
        report = run_batch_report(
            jobs,
            processes=args.jobs,
            config=config,
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
    counts = report.outcome_counts
    extra_attempts = sum(len(o.failures) for o in report.outcomes)
    summary = ", ".join(
        f"{counts[status]} {status}"
        for status in ("ok", "retried", "timeout", "crashed", "skipped")
        if counts.get(status)
    )
    print(
        f"job outcomes: {summary or 'none'}"
        + (f" ({extra_attempts} failed attempt(s) retried)" if extra_attempts else "")
        + (" — degraded to serial execution" if report.degraded_serial else "")
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
    if telemetry and args.telemetry:  # a directory was given
        from pathlib import Path

        from repro.telemetry import (
            build_manifest,
            config_fingerprint,
            to_jsonl,
            write_manifest,
        )

        out = Path(args.telemetry)
        records = [stats.as_dict() for stats in report.results]
        jsonl_path = to_jsonl(records, out / "telemetry.jsonl")
        manifest = build_manifest(
            command="sweep",
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
            configs={
                name: config_fingerprint(get_machine(name))
                for name in machines
            },
            seeds={"trace": args.seed},
            timings={"wall": report.wall_seconds},
            results=records,
            cache_stats=cache,
            outcomes=[outcome.as_dict() for outcome in report.outcomes],
        )
        manifest_path = write_manifest(out / "manifest.json", manifest)
        print(f"wrote {jsonl_path} and {manifest_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.sim.bench import measure_throughput, record_section

    if args.kernel and args.no_kernel:
        print("--kernel and --no-kernel are mutually exclusive", file=sys.stderr)
        return 2
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

    workload = load_workload(args.benchmark)
    trace = generate_trace(
        workload.program, workload.behavior, args.length, seed=args.seed
    )
    log = trace_pipeline(
        get_machine(args.machine), trace, args.scheme, max_cycles=args.cycles
    )
    print(log.render(limit=args.cycles))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    for result in run_experiments(config=_config_for(args)):
        print(result.as_text())
        print("=" * 72)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    if args.trace is not None:
        _activate_tracing(args.trace)
    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        job_timeout=args.timeout,
        retries=args.retries,
        drain_timeout=args.drain_timeout,
        start_method=args.start_method,
        quiet=args.quiet,
        name=args.name,
    )


def _cmd_balance(args: argparse.Namespace) -> int:
    from repro.service.cluster import run_cluster

    if args.trace is not None:
        _activate_tracing(args.trace)
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

    output = args.output
    if args.cluster and output == "BENCH_service_throughput.json":
        # Don't clobber the single-replica artifact by default.
        output = "BENCH_cluster_throughput.json"
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
    import os
    from pathlib import Path

    from repro.telemetry import trace as tracing

    os.environ["REPRO_TRACE"] = "1"
    if trace_dir:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_TRACE_DIR"] = trace_dir
    tracing.reload()


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Conte et al., 'Optimization of Instruction "
            "Fetch Mechanisms for High Issue Rates' (ISCA 1995)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, machines, schemes").set_defaults(
        func=_cmd_list
    )

    simulate = sub.add_parser("simulate", help="run one IPC simulation")
    simulate.add_argument("benchmark")
    simulate.add_argument("machine")
    simulate.add_argument("scheme")
    simulate.add_argument("--length", type=int, default=20_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--no-kernel",
        action="store_true",
        help=(
            "run the reference loop instead of the compiled "
            "kernel (bit-identical statistics either way)"
        ),
    )
    simulate.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "run instrumented: print slot attribution and phase timings; "
            "with DIR, also write telemetry.jsonl + manifest.json there"
        ),
    )
    simulate.set_defaults(func=_cmd_simulate)

    eir = sub.add_parser("eir", help="fetch-only alignment efficiency")
    eir.add_argument("benchmark")
    eir.add_argument("machine")
    eir.add_argument("--length", type=int, default=30_000)
    eir.add_argument("--seed", type=int, default=0)
    eir.set_defaults(func=_cmd_eir)

    stats = sub.add_parser(
        "stats",
        help="telemetry slot-attribution breakdown across fetch schemes",
    )
    stats.add_argument("benchmark")
    stats.add_argument("machine")
    stats.add_argument(
        "--schemes",
        nargs="*",
        metavar="SCHEME",
        help="schemes to break down (default: hardware schemes + perfect)",
    )
    stats.add_argument("--length", type=int, default=20_000)
    stats.add_argument("--warmup", type=int, default=4_000)
    stats.add_argument("--seed", type=int, default=0)
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
    stats.set_defaults(func=_cmd_stats)

    characterize = sub.add_parser(
        "characterize", help="workload characterisation table"
    )
    characterize.add_argument("benchmarks", nargs="*")
    characterize.add_argument("--length", type=int, default=40_000)
    characterize.set_defaults(func=_cmd_characterize)

    experiment = sub.add_parser(
        "experiment", help="regenerate paper tables/figures"
    )
    experiment.add_argument("names", nargs="+", choices=list(EXPERIMENTS))
    experiment.add_argument("--json", action="store_true")
    experiment.add_argument("--scale", type=float, default=1.0)
    experiment.set_defaults(func=_cmd_experiment)

    ablate = sub.add_parser(
        "ablate",
        help="declarative ablation studies (expand/execute/analyse)",
    )
    ablate_sub = ablate.add_subparsers(dest="action", required=True)
    ablate_list = ablate_sub.add_parser(
        "list", help="list the named study presets"
    )
    ablate_list.set_defaults(func=_cmd_ablate)
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
        help="output directory (default: $REPRO_STUDY_DIR/<study-name>)",
    )
    ablate_run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve jobs already journalled in the output directory "
            "(bit-identical results) and journal new completions there"
        ),
    )
    ablate_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 1 = serial)",
    )
    ablate_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout (default: none)",
    )
    ablate_run.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per job after a crash/timeout (default: 2)",
    )
    ablate_run.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale a preset's trace lengths (presets only)",
    )
    ablate_run.add_argument(
        "--json",
        action="store_true",
        help="print report.json to stdout instead of the summary",
    )
    ablate_run.set_defaults(func=_cmd_ablate)
    ablate_report = ablate_sub.add_parser(
        "report", help="re-render a finished study from its report.json"
    )
    ablate_report.add_argument("dir", help="study output directory")
    ablate_report.add_argument("--json", action="store_true")
    ablate_report.set_defaults(func=_cmd_ablate)

    sweep = sub.add_parser(
        "sweep", help="batch-simulate a benchmark x machine x scheme grid"
    )
    sweep.add_argument("--benchmarks", nargs="*", metavar="BENCH")
    sweep.add_argument("--machines", nargs="*", metavar="MACHINE")
    sweep.add_argument("--schemes", nargs="*", metavar="SCHEME")
    sweep.add_argument("--length", type=int, default=20_000)
    sweep.add_argument("--warmup", type=int, default=4_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 1 = serial)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock timeout; a stuck worker is terminated "
            "and the job retried (default: none)"
        ),
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "retries per job after a crash/timeout/exception, with "
            "exponential backoff (default: 2)"
        ),
    )
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
    sweep.add_argument(
        "--no-kernel",
        action="store_true",
        help="run the reference loop for every job",
    )
    sweep.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "run every job instrumented (slot attribution in results); "
            "with DIR, write telemetry.jsonl + manifest.json there"
        ),
    )
    sweep.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "trace the sweep (REPRO_TRACE=1); with DIR, spill spans "
            "there for 'repro trace' (REPRO_TRACE_DIR)"
        ),
    )
    sweep.set_defaults(func=_cmd_sweep)

    check = sub.add_parser(
        "check",
        help="lint programs, configs, traces and fetch packets",
    )
    check.add_argument("--benchmarks", nargs="*", metavar="BENCH")
    check.add_argument("--machines", nargs="*", metavar="MACHINE")
    check.add_argument("--schemes", nargs="*", metavar="SCHEME")
    check.add_argument("--length", type=int, default=4_000)
    check.add_argument("--seed", type=int, default=0)
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
    check.set_defaults(func=_cmd_check)

    lint = sub.add_parser(
        "lint",
        help="static analysis of the codebase (repro.analysis)",
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
    lint.set_defaults(func=_cmd_lint)

    bench = sub.add_parser(
        "bench",
        help="single-simulation throughput: reference loop vs compiled kernel",
    )
    bench.add_argument("--benchmark", default="espresso")
    bench.add_argument("--machine", default="PI8")
    bench.add_argument("--scheme", default="interleaved_sequential")
    bench.add_argument("--length", type=int, default=20_000)
    bench.add_argument("--warmup", type=int, default=4_000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing (default 3)"
    )
    bench.add_argument(
        "--kernel", action="store_true", help="measure only the compiled kernel"
    )
    bench.add_argument(
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
    bench.set_defaults(func=_cmd_bench)

    pipetrace = sub.add_parser(
        "pipetrace", help="cycle-by-cycle pipeline trace"
    )
    pipetrace.add_argument("benchmark")
    pipetrace.add_argument("machine")
    pipetrace.add_argument("scheme")
    pipetrace.add_argument("--cycles", type=int, default=40)
    pipetrace.add_argument("--length", type=int, default=4000)
    pipetrace.add_argument("--seed", type=int, default=0)
    pipetrace.set_defaults(func=_cmd_pipetrace)

    serve = sub.add_parser(
        "serve", help="start the HTTP/JSON simulation service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (0 = in-process serial; default: cpu-based)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="max unfinished jobs before 429 (admission control)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job timeout in seconds (timed-out jobs are retried)",
    )
    serve.add_argument("--retries", type=int, default=2)
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight jobs on SIGTERM",
    )
    serve.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method for workers",
    )
    serve.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "trace every request (REPRO_TRACE=1); with DIR, spill spans "
            "there for 'repro trace' (REPRO_TRACE_DIR)"
        ),
    )
    serve.add_argument(
        "--name",
        default="",
        help=(
            "replica name (prefixes job ids, e.g. r1-job-000001, so a "
            "cluster balancer can route polls to the owning replica)"
        ),
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress startup banner"
    )
    serve.set_defaults(func=_cmd_serve)

    balance = sub.add_parser(
        "balance",
        help="front a fleet of serve replicas with a balancer",
    )
    balance.add_argument("--host", default="127.0.0.1")
    balance.add_argument(
        "--port", type=int, default=8100, help="balancer listening port"
    )
    balance.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="number of serve replicas to spawn and supervise",
    )
    balance.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per replica (0 = in-process serial)",
    )
    balance.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="per-replica admission bound (429 beyond it)",
    )
    balance.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job timeout passed to every replica",
    )
    balance.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "trace every request (REPRO_TRACE=1); with DIR, spill spans "
            "there for 'repro trace' (REPRO_TRACE_DIR)"
        ),
    )
    balance.add_argument(
        "--quiet", action="store_true", help="suppress startup banner"
    )
    balance.set_defaults(func=_cmd_balance)

    loadgen = sub.add_parser(
        "loadgen", help="benchmark a running simulation service"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8000)
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument("--duration", type=float, default=5.0)
    loadgen.add_argument(
        "--output",
        default="BENCH_service_throughput.json",
        help="report path ('-' to skip writing)",
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
            "an in-process reference and require zero failed requests "
            "(writes BENCH_cluster_throughput.json by default)"
        ),
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    trace = sub.add_parser(
        "trace",
        help="inspect recorded trace spans (timeline, critical path)",
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
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser("report", help="all paper artifacts")
    report.add_argument("--scale", type=float, default=1.0)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
