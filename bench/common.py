"""Paths, the metric catalogue, summary statistics and run metadata
shared by the benchmark's scripts."""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CATALOGUE = ROOT / "BENCHMARK.json"
GOLDEN = BENCH / "golden.json"
#: Working space for one invocation (cache dirs, spans, logs); removed
#: when the invocation ends.
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("sim_kernel", "sim_declined", "paper_report", "service_mixed")


def source_available() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def load_catalogue(path: Path = CATALOGUE) -> dict:
    with open(path) as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def git_sha(root: Path = ROOT) -> str:
    """HEAD commit of the checkout, read from ``.git`` without running
    git; ``"unknown"`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
