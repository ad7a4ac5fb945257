"""Run provenance: the JSON manifest written next to telemetry output.

A manifest answers "what exactly produced these numbers?" months later:
the command and its arguments, a digest of the simulator sources (the
same one that keys the persistent result cache, so a manifest can be
matched to the cache generation that served it), the machine-config
fingerprints, every ``REPRO_*`` environment knob, the host, the
wall-clock phase timings and, for one simulation, the engine that ran.
``runner``/``batch``/``sweep`` fill in their own ``results`` payloads.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path

#: Manifest schema version; bump on incompatible layout changes.
MANIFEST_VERSION = 1


def config_fingerprint(config) -> str:
    """Stable digest of a machine config (or any dataclass/dict)."""
    import hashlib

    if is_dataclass(config) and not isinstance(config, type):
        payload = repr(sorted(asdict(config).items()))
    elif isinstance(config, dict):
        payload = repr(sorted(config.items()))
    else:
        payload = repr(config)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def environment_knobs() -> dict[str, str]:
    """Every ``REPRO_*`` environment variable currently set."""
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
    }


def build_manifest(
    command: str,
    arguments: dict | None = None,
    configs: dict[str, str] | None = None,
    seeds: dict[str, int] | None = None,
    timings: dict[str, float] | None = None,
    results: dict | list | None = None,
    cache_stats: dict[str, int] | None = None,
    outcomes: list[dict] | None = None,
    engine: str | None = None,
) -> dict:
    """Assemble the manifest document (pure data, JSON-serialisable).
    *engine* (one simulation's ``TelemetryReport.engine``) adds an
    ``engine`` entry."""
    # Imported lazily: the cache module lives in repro.sim, which in
    # turn imports the telemetry package for the simulator hooks.
    from repro.sim.cache import source_version

    document = {
        "manifest_version": MANIFEST_VERSION,
        "created_unix": round(time.time(), 3),
        "created_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "command": command,
        "arguments": arguments or {},
        "source_version": source_version(),
        "config_fingerprints": configs or {},
        "seeds": seeds or {},
        "environment": environment_knobs(),
        "host": {
            "hostname": socket.gethostname(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
        "timings_seconds": {
            name: round(seconds, 6)
            for name, seconds in (timings or {}).items()
        },
        "result_cache": cache_stats or {},
        #: Per-job supervision audit from the sweep engine
        #: (ok/retried/timeout/crashed/skipped, attempts, failures).
        "job_outcomes": outcomes or [],
        "results": results if results is not None else {},
    }
    if engine is not None:
        document["engine"] = engine
    return document


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Write *manifest* as pretty-printed JSON, creating parents."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return target
