"""Run the benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--json OUT] [--quick]
                         [--regen-golden]

Each workload runs in a fresh process (``bench/workloads.py``) with an
empty result-cache directory, under ``.bench_work/`` in the checkout,
removed afterwards.  Prints every metric as ``workload metric value
unit`` (percentiles with their sample count), then, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace`` its
per-layer metrics.  Without ``--workload`` all four run and the metric
names gain a ``workload.`` prefix.  ``--json OUT`` also writes the full
record with run metadata, for ``bench/compare.py``.

Exit status: 0 when every output passed its correctness check, 1 when
one did not, 2 when the checkout lacks the program or the catalogue.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BENCH,
    CATALOGUE,
    SRC,
    WORK_ROOT,
    WORKLOADS,
    git_sha,
    host_fingerprint,
    load_catalogue,
    source_available,
)

#: Seconds one workload process may run before it is killed.
WORKLOAD_TIMEOUT = 165.0


def child_env(work: Path) -> dict:
    """The environment without inherited ``REPRO_*`` knobs, importing
    the checkout's program and caching results under *work*."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    return env


def run_workload(name: str, args: argparse.Namespace, work: Path) -> dict:
    """Run one workload process; returns its record."""
    work.mkdir()
    result = work / "result.json"
    cmd = [
        sys.executable,
        str(BENCH / "workloads.py"),
        name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--result", str(result),
    ]
    cmd += ["--quick"] * args.quick + ["--regen-golden"] * args.regen_golden
    started = time.perf_counter()
    # Its own session, so a timeout can take down the whole process tree
    # (the service workload's cluster included).
    proc = subprocess.Popen(
        cmd, env=child_env(work), stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(WORKLOAD_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = "a timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code == 0 and result.exists():
        record = json.loads(result.read_text())
    else:
        record = {
            "attempted": 1,
            "failed": 1,
            "errors": [f"workload process ended with {code}"],
        }
    record["duration_s"] = time.perf_counter() - started
    return record


def number(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def print_lines(name: str, record: dict, specs: list[dict], trace: bool) -> None:
    values = record.get("layers" if trace else "metrics", {})
    default = 0.0 if trace else None
    for spec in specs:
        value = values.get(spec["name"], default)
        print(f"{name} {spec['name']} {number(value)} {spec['unit']}")
    listed = {spec["name"] for spec in specs}
    for layer in sorted(set(values) - listed):
        print(f"{name} {layer} {number(values[layer])} (not in the catalogue)")
    for detail, entry in record.get("details", {}).items():
        count = f" n={entry['n']}" if "n" in entry else ""
        print(f"{name} {detail} {number(entry['value'])} {entry['unit']}{count}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"{name} error_rate {number(rate)} ratio n={record['attempted']}")
    for error in record.get("errors", []):
        print(f"{name} error: {error}", file=sys.stderr)


def emitted(record: dict, specs: list[dict], trace: bool) -> dict | None:
    """The catalogue's metrics from *record*, or None if one is
    missing.  A layer the workload does not exercise reads 0."""
    values = record.get("layers" if trace else "metrics", {})
    out = {}
    for spec in specs:
        value = values.get(spec["name"], 0.0 if trace else None)
        if value is None or not math.isfinite(value):
            return None
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and print their metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument(
        "--quick", action="store_true", help="tiny inputs (smoke test)"
    )
    parser.add_argument(
        "--regen-golden",
        action="store_true",
        help="rewrite bench/golden.json with this seed's report digest",
    )
    args = parser.parse_args(argv)
    if not source_available():
        print(f"bench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    try:
        catalogue = load_catalogue()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read {CATALOGUE}: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    specs = catalogue["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    correct = True
    metrics = {}
    for name, record in records.items():
        print_lines(name, record, specs, bool(args.trace))
        values = emitted(record, specs, bool(args.trace))
        if record["failed"] or values is None:
            correct = False
        for metric, entry in (values or {}).items():
            metrics[metric if args.workload else f"{name}.{metric}"] = entry

    if args.json:
        document = {
            "meta": {
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "quick": args.quick,
                "git_sha": git_sha(),
                "host": host_fingerprint(),
            },
            "workloads": records,
        }
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records.values()),
                "failed": sum(r["failed"] for r in records.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
