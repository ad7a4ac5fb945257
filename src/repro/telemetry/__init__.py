"""Telemetry: metrics, stall attribution, tracing, provenance, export.

Cooperating pieces:

* :mod:`repro.telemetry.core` — a tiny metrics registry (counters,
  histograms, wall-clock timers) with a null backend, plus
  :class:`TelemetryReport`, the record one telemetry run produces.
* :mod:`repro.telemetry.attribution` — the slot-conservation ledger:
  every cycle each of the machine's ``issue_rate`` slots is charged to
  exactly one cause, so losses sum to ``cycles * issue_rate`` exactly.
  It also holds the one charging rule every engine calls.
* :mod:`repro.telemetry.trace` — distributed tracing: spans with W3C
  trace-context propagation across every process boundary, a bounded
  in-process flight recorder with crash-safe spill files, and Chrome
  trace-event (Perfetto) export.  Opt-in via ``REPRO_TRACE=1``.
* :mod:`repro.telemetry.timeline` — read-side trace analysis for the
  ``repro trace`` CLI (trace trees, critical-path self-time tables).
* :mod:`repro.telemetry.manifest` — JSON run-provenance documents
  (source digest, config fingerprints, environment knobs, host,
  timings, result-cache statistics).
* :mod:`repro.telemetry.export` — JSONL/CSV record writers plus the
  Prometheus text exposition renderer behind ``/metrics?format=prom``.

Telemetry is strictly opt-in: ``Simulator(..., telemetry=True)`` (a
telemetry ``SimJob``, ``--telemetry`` on the CLI) hands the run a slot
ledger, which the compiled kernel charges itself (a run the kernel
declines feeds it through the reference loop's observer).  With it off the
kernel's only cost is one ``None`` test per iterated cycle — nothing
measurable — and ``SimStats`` stays bit-identical.  Tracing
follows the same discipline — ``REPRO_TRACE=0`` (the default) makes
every span call a shared no-op singleton.  See ``docs/observability.md``.
"""

from repro.telemetry.attribution import (
    CAUSES,
    SlotAttribution,
    check_conservation,
)
from repro.telemetry.core import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TelemetryReport,
)
from repro.telemetry.export import read_jsonl, to_csv, to_jsonl, to_prometheus
from repro.telemetry.manifest import (
    MANIFEST_VERSION,
    build_manifest,
    config_fingerprint,
    environment_knobs,
    write_manifest,
)

__all__ = [
    "CAUSES",
    "Histogram",
    "MANIFEST_VERSION",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SlotAttribution",
    "TelemetryReport",
    "build_manifest",
    "check_conservation",
    "config_fingerprint",
    "environment_knobs",
    "read_jsonl",
    "to_csv",
    "to_jsonl",
    "to_prometheus",
    "tracing_enabled",
    "write_manifest",
]

from repro.telemetry.trace import tracing_enabled  # noqa: E402 (cycle-free)
