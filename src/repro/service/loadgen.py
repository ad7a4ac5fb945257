"""Closed-loop load generator for the simulation service: ``repro loadgen``.

Spins up N thread-based :class:`~repro.service.client.ServiceClient`
workers, each submitting jobs drawn round-robin from a small mix of
specs, and reports throughput plus p50/p95/p99 request latency.

Two-phase protocol:

1. **Warm** — every distinct spec in the mix is run once to completion,
   populating the server memo and the workers' persistent result cache.
   Warm-phase requests are *not* measured.
2. **Timed** — workers hammer the warm specs for ``duration`` seconds;
   each completed request (submit + any polls until terminal) records
   one end-to-end latency sample.

The report lands in ``BENCH_service_throughput.json`` next to the other
benchmark artifacts, with the acceptance floors alongside the measured
numbers so regressions are self-describing.

Each request also records the **server-reported** handling time (the
``server_seconds`` field every response carries, summed over the
submit + polls of one job), so the report shows client latency, server
time and their delta side by side — queueing and network time used to
be invisible in the client-only numbers.

**Cluster mode** (``--cluster``, for a ``repro balance`` front end)
turns the load test into a correctness gauntlet: before any traffic,
every spec in the mix is simulated *in this process* to produce the
reference results, and then **every** completed request — warm and
timed, across failovers, reroutes and replica respawns — is checked
bit-for-bit against its reference.  The report gains a ``cluster``
section (result mismatches, HTTP attempts, reroutes) and ``passed``
additionally requires **zero failed requests and zero mismatches**:
under a chaos schedule this is the "no client-visible failures"
acceptance gate.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro.service.client import ServiceClient, ServiceError

#: Acceptance floors (ISSUE: warm-cache service throughput).
THROUGHPUT_FLOOR_RPS = 50.0
P99_CEILING_SECONDS = 0.25

#: Default request mix: small jobs across distinct cache keys, so the
#: timed phase exercises memo hits, coalescing, and HTTP overhead
#: rather than raw simulation speed.
DEFAULT_MIX = [
    {
        "benchmark": "ora",
        "machine": "PI4",
        "scheme": "sequential",
        "length": 2_000,
        "warmup": 400,
    },
    {
        "benchmark": "ora",
        "machine": "PI4",
        "scheme": "collapsing_buffer",
        "length": 2_000,
        "warmup": 400,
    },
    {
        "benchmark": "ora",
        "machine": "PI8",
        "scheme": "sequential",
        "length": 2_000,
        "warmup": 400,
    },
    {
        "benchmark": "ora",
        "machine": "PI8",
        "scheme": "collapsing_buffer",
        "length": 2_000,
        "warmup": 400,
    },
]


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _reference_results(specs: list[dict]) -> list[dict]:
    """Simulate every spec in-process: the ground truth cluster results
    must match bit-for-bit (after the same JSON round trip the wire
    applies — JSON has no tuples)."""
    from repro.service.protocol import validate_job
    from repro.sim.batch import _run_job

    references = []
    for spec in specs:
        job = validate_job(dict(spec))
        references.append(json.loads(json.dumps(_run_job(job).as_dict())))
    return references


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 8000,
    clients: int = 8,
    duration: float = 5.0,
    mix: list[dict] | None = None,
    wait: float = 30.0,
    output: str | Path | None = "BENCH_service_throughput.json",
    quiet: bool = False,
    cluster: bool = False,
) -> dict:
    """Run the two-phase load test; returns (and optionally writes) the
    report dict.  With *cluster* on, verify every result bit-for-bit
    against an in-process reference run and require zero failures."""
    specs = list(mix or DEFAULT_MIX)
    references = _reference_results(specs) if cluster else None

    mismatches = 0
    attempts_total = 0
    rerouted_total = 0

    def check_result(spec_index: int, record: dict) -> bool:
        """True if the record matches its reference (cluster mode)."""
        if references is None:
            return True
        return record.get("result") == references[spec_index]

    # Phase 1: warm every spec once (not measured).
    warm_started = time.monotonic()
    with ServiceClient(host, port) as client:
        for spec_index, spec in enumerate(specs):
            record = client.run_job(spec, wait=wait)
            if not check_result(spec_index, record):
                mismatches += 1
    warm_seconds = time.monotonic() - warm_started

    # Phase 2: timed closed loop.
    latencies: list[float] = []
    server_seconds: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()
    stop_at = time.monotonic() + duration

    def worker(offset: int) -> None:
        nonlocal mismatches, attempts_total, rerouted_total
        local: list[float] = []
        local_server: list[float] = []
        local_errors: list[str] = []
        local_mismatches = 0
        local_attempts = 0
        local_rerouted = 0
        with ServiceClient(host, port) as client:
            index = offset
            while time.monotonic() < stop_at:
                spec_index = index % len(specs)
                spec = specs[spec_index]
                index += 1
                started = time.monotonic()
                try:
                    record = client.run_job(spec, wait=wait)
                except ServiceError as exc:
                    local_errors.append(str(exc))
                    continue
                local.append(time.monotonic() - started)
                local_server.append(client.last_run_server_seconds)
                local_attempts += record.get("attempts", 0) or 0
                local_rerouted += record.get("rerouted", 0) or 0
                if not check_result(spec_index, record):
                    local_mismatches += 1
        with lock:
            latencies.extend(local)
            server_seconds.extend(local_server)
            errors.extend(local_errors)
            mismatches += local_mismatches
            attempts_total += local_attempts
            rerouted_total += local_rerouted

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    timed_started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(duration + 120.0)
    elapsed = time.monotonic() - timed_started

    completed = len(latencies)
    throughput = completed / elapsed if elapsed > 0 else 0.0
    p50 = _percentile(latencies, 0.50)
    p95 = _percentile(latencies, 0.95)
    p99 = _percentile(latencies, 0.99)
    # Client latency minus server-reported handling time: what the
    # request spent queued, on the wire, or in client-side backoff.
    deltas = [
        max(0.0, latency - server)
        for latency, server in zip(latencies, server_seconds)
    ]
    delta_mean = sum(deltas) / len(deltas) if deltas else 0.0
    report = {
        "config": {
            "host": host,
            "port": port,
            "clients": clients,
            "duration_seconds": duration,
            "distinct_specs": len(specs),
            "benchmark": specs[0].get("benchmark"),
        },
        "warm_phase_seconds": round(warm_seconds, 4),
        "timed_phase": {
            "elapsed_seconds": round(elapsed, 4),
            "requests_completed": completed,
            "requests_failed": len(errors),
            "throughput_rps": round(throughput, 1),
            "latency_seconds": {
                "p50": round(p50, 4),
                "p95": round(p95, 4),
                "p99": round(p99, 4),
            },
            # Microseconds: 4 decimals would round a memo hit's time to 0.
            "server_seconds": {
                "p50": round(_percentile(server_seconds, 0.50), 6),
                "p95": round(_percentile(server_seconds, 0.95), 6),
                "p99": round(_percentile(server_seconds, 0.99), 6),
            },
            "client_server_delta_seconds": {
                "mean": round(delta_mean, 4),
                "p50": round(_percentile(deltas, 0.50), 4),
                "p95": round(_percentile(deltas, 0.95), 4),
            },
        },
        "floors": {
            "throughput_rps_min": THROUGHPUT_FLOOR_RPS,
            "p99_seconds_max": P99_CEILING_SECONDS,
        },
        "passed": bool(
            throughput >= THROUGHPUT_FLOOR_RPS and p99 <= P99_CEILING_SECONDS
        ),
    }
    if errors:
        report["timed_phase"]["sample_errors"] = errors[:5]
    if cluster:
        # The zero-lost-requests gauntlet: against a balancer every
        # request must complete AND match the in-process reference run
        # bit-for-bit, failovers and reroutes included.
        report["cluster"] = {
            "requests_failed": len(errors),
            "result_mismatches": mismatches,
            "bit_identical": mismatches == 0,
            "attempts_total": attempts_total,
            "rerouted_total": rerouted_total,
        }
        report["passed"] = bool(
            report["passed"] and not errors and mismatches == 0
        )

    if output is not None:
        path = Path(output)
        path.write_text(json.dumps(report, indent=2) + "\n")
        if not quiet:
            print(f"wrote {path}")
    if not quiet:
        print(
            f"loadgen: {completed} requests in {elapsed:.1f}s "
            f"({throughput:.1f} req/s), "
            f"p50={p50 * 1000:.1f}ms p95={p95 * 1000:.1f}ms "
            f"p99={p99 * 1000:.1f}ms "
            f"client-server delta mean={delta_mean * 1000:.1f}ms "
            f"[{'PASS' if report['passed'] else 'FAIL'}: "
            f"floor {THROUGHPUT_FLOOR_RPS:.0f} req/s, "
            f"p99 <= {P99_CEILING_SECONDS * 1000:.0f}ms]"
        )
        if cluster:
            section = report["cluster"]
            print(
                f"cluster: {section['requests_failed']} failed, "
                f"{section['result_mismatches']} mismatched, "
                f"{section['rerouted_total']} rerouted "
                f"({section['attempts_total']} HTTP attempts) "
                f"[{'bit-identical' if section['bit_identical'] else 'MISMATCH'}]"
            )
    return report
