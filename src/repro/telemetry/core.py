"""Lightweight metrics core: counters, histograms and wall-clock timers.

The registry is deliberately tiny — plain dictionaries, no label
cardinality, no export protocol — because its job is to give a
telemetry run and the CLI somewhere cheap to record events.
:class:`NullRegistry` is the off-switch: every method is a no-op, so
library code can unconditionally call ``registry.inc(...)`` without
branching.  The simulator goes one step further: only a telemetry run
attaches its slot-ledger observer and phase timers to the reference
loop, so the kernel and the plain reference loop carry zero telemetry
cost when it is off (the
guarantee ``tests/test_telemetry.py`` locks in).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import knobs


def telemetry_enabled() -> bool:
    """True when ``REPRO_TELEMETRY`` requests telemetry by default."""
    return knobs.enabled("REPRO_TELEMETRY")


@dataclass(slots=True)
class Histogram:
    """Streaming summary of observed values (count/sum/min/max).

    A full bucketed histogram is overkill for the current consumers
    (per-cycle delivery sizes, phase durations); the four moments kept
    here reconstruct means and ranges, which is what the reports print.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Counters, histograms and accumulated wall-clock timers."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, float] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in self.histograms.items()
            },
            "timers": {
                name: round(seconds, 6)
                for name, seconds in self.timers.items()
            },
        }


class NullRegistry(MetricsRegistry):
    """The null backend: accepts every call, records nothing."""

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def add_time(self, name: str, seconds: float) -> None:
        pass

    @contextmanager
    def timer(self, name: str):
        yield


#: Shared no-op registry for callers that want an always-valid sink.
NULL_REGISTRY = NullRegistry()


@dataclass(slots=True)
class TelemetryReport:
    """Everything one telemetry run recorded."""

    #: Measured-region slot attribution (cause -> slots); sums to
    #: ``cycles * issue_rate``.
    attribution: dict[str, int]
    cycles: int
    issue_rate: int
    #: Accumulated wall-clock seconds per pipeline phase.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    @property
    def total_slots(self) -> int:
        return self.cycles * self.issue_rate

    def rates(self) -> dict[str, float]:
        """Attribution normalised to slots per cycle."""
        if not self.cycles:
            return dict.fromkeys(self.attribution, 0.0)
        return {
            cause: slots / self.cycles
            for cause, slots in self.attribution.items()
        }

    def as_dict(self) -> dict:
        return {
            "attribution": dict(self.attribution),
            "cycles": self.cycles,
            "issue_rate": self.issue_rate,
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.phase_seconds.items()
            },
            "counters": dict(self.counters),
            "histograms": dict(self.histograms),
        }
