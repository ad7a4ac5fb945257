"""Per-layer attribution for the benchmark's ``--trace`` pass.

In-process workloads: :class:`LayerProfiler` wraps public functions of
the ``repro`` package from the outside.  :func:`installed` replaces each
target at every ``repro.*`` module attribute bound to it (so callers that
imported the name directly see the wrapper too), patches
``Simulator.run`` on the class, and restores everything on exit.  A
wrapped call's *self time* is its duration minus the durations of the
wrapped calls it made; a root frame opened by the harness collects the
time spent in no wrapped function (``unattributed_s``).  Self times of
all frames therefore add up to the root's wall time.

The service workload adds no spans of its own: :func:`service_self_ms`
reads the spans the program already records and computes self time per
request the way ``repro.telemetry.timeline.critical_path`` does.

Not thread-safe: one profiler serves one thread of in-process work.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

#: (module, function, layer metric) — wrapped by :func:`installed`.
FUNCTIONS = (
    ("repro.workloads.generator", "generate_workload", "workloads.generate_workload.self_s"),
    ("repro.workloads.trace", "generate_trace", "workloads.generate_trace.self_s"),
    ("repro.compiler.profile", "collect_profile", "compiler.collect_profile.self_s"),
    ("repro.compiler.layout_opt", "reorder_program", "compiler.reorder_program.self_s"),
    ("repro.compiler.padding", "pad_all", "compiler.pad_all.self_s"),
    ("repro.compiler.padding", "pad_trace", "compiler.pad_trace.self_s"),
    ("repro.sim.kernel", "compile_trace", "sim.kernel.compile_trace.self_s"),
    ("repro.sim.eir", "measure_eir", "sim.eir.measure_eir.self_s"),
    ("repro.sim.cache", "get_or_compute", "sim.cache.get_or_compute.self_s"),
)

#: Name of the harness's root frame: time inside it but in no wrapped
#: function.
UNATTRIBUTED = "unattributed_s"

#: Spans whose per-request self time the service workload reports.
SERVICE_SPANS = (
    "client.request",
    "client.submit",
    "balance.request",
    "balance.try",
    "service.request",
    "service.job",
    "pool.queue_wait",
    "batch.job",
    "sim.cache",
    "sim.run",
    "sim.kernel",
)

#: ``repro.sim.kernel.stats`` counters reported as deltas.
KERNEL_COUNTERS = (
    "tables_compiled",
    "plans_compiled",
    "plan_replays",
    "plan_invalidations",
    "tapes_recorded",
    "tape_replays",
)


def metric_token(text: str) -> str:
    """*text* with every character outside ``[A-Za-z0-9_.-]`` as ``-``."""
    return re.sub(r"[^A-Za-z0-9_.-]", "-", text)


def simulator_run_layer(sim) -> str:
    """Layer of one ``Simulator.run``: the kernel mode that ran, or the
    reason the kernel declined."""
    if sim.kernel_used:
        return f"sim.kernel.{sim.kernel_mode}_s"
    reason = metric_token(sim.kernel_decline_reason or "unknown")
    return f"sim.simulator.declined.{reason}_s"


class LayerProfiler:
    """Self-time accounting over nested wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Open frames as ``[start, seconds spent in wrapped children]``.
        self._stack: list[list[float]] = []

    def _enter(self) -> None:
        self._stack.append([self.clock(), 0.0])

    def _exit(self, name: str) -> None:
        start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def frame(self, name: str):
        """Account the enclosed block as one call of *name*."""
        self._enter()
        try:
            yield
        finally:
            self._exit(name)

    def wrap(self, fn: Callable, name: str | Callable[[tuple], str]) -> Callable:
        """*fn* accounted under *name*; a callable *name* is given the
        call's positional arguments after the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name if isinstance(name, str) else name(args))

        return wrapper


def _rebind(old: object, new: object) -> None:
    """Point every ``repro.*`` module attribute bound to *old* at *new*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


@contextmanager
def installed(profiler: LayerProfiler):
    """Wrap :data:`FUNCTIONS` and ``Simulator.run`` for the block."""
    from repro.sim.simulator import Simulator

    swapped = []
    for module_name, attr, layer in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = profiler.wrap(original, layer)
        _rebind(original, wrapper)
        swapped.append((original, wrapper))
    original_run = Simulator.run
    Simulator.run = profiler.wrap(
        original_run, lambda args: simulator_run_layer(args[0])
    )
    try:
        yield profiler
    finally:
        Simulator.run = original_run
        for original, wrapper in reversed(swapped):
            _rebind(wrapper, original)


def counter_deltas() -> Callable[[], dict[str, float]]:
    """Snapshot the kernel and result-cache counters; the returned
    function gives the counts accumulated since."""
    from repro.sim import cache, kernel

    kernel_before = dict(kernel.stats)
    cache_before = cache.stats.snapshot()

    def since() -> dict[str, float]:
        out: dict[str, float] = {
            f"sim.kernel.{name}": kernel.stats[name] - kernel_before[name]
            for name in KERNEL_COUNTERS
        }
        cached = cache.stats.since(cache_before)
        out["sim.cache.hits"] = cached["hits"]
        out["sim.cache.misses"] = cached["misses"]
        return out

    return since


def with_ratios(counts: dict[str, float]) -> dict[str, float]:
    """*counts* plus the plan-memo and result-cache hit ratios."""
    plans = counts["sim.kernel.plans_compiled"] + counts["sim.kernel.plan_replays"]
    lookups = counts["sim.cache.hits"] + counts["sim.cache.misses"]
    return {
        **counts,
        "sim.kernel.plan_hit_ratio": (
            counts["sim.kernel.plan_replays"] / plans if plans else 0.0
        ),
        "sim.cache.hit_ratio": counts["sim.cache.hits"] / lookups if lookups else 0.0,
    }


def service_self_ms(spans, classes: dict[str, str]) -> dict[str, float]:
    """Mean self time in ms per request of each :data:`SERVICE_SPANS`
    name, per request class.

    *classes* maps a request's trace id to its class (``hit``/``miss``);
    traces of other ids are ignored.  Self time is a span's duration
    minus the part its children cover, as in the ``repro trace``
    critical-path table.
    """
    from repro.telemetry import timeline

    totals: dict[str, float] = defaultdict(float)
    for trace_id, bucket in timeline.group_traces(spans).items():
        cls = classes.get(trace_id)
        if cls is None:
            continue
        for span in bucket:
            if span.name in SERVICE_SPANS:
                totals[f"service.{span.name}.{cls}_self_ms"] += (
                    timeline._self_time(span, bucket) * 1e3
                )
    requests = Counter(classes.values())
    return {
        f"service.{name}.{cls}_self_ms": (
            totals[f"service.{name}.{cls}_self_ms"] / requests[cls]
            if requests[cls]
            else 0.0
        )
        for name in SERVICE_SPANS
        for cls in ("hit", "miss")
    }
