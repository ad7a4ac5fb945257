"""Tests for the simulation service: HTTP server, scheduler, client.

Each test spins a real :class:`ServiceServer` on an ephemeral port (an
asyncio loop on a daemon thread) over a :class:`WorkerPool`, then talks
to it with the stdlib-backed :class:`ServiceClient` — the same stack
``repro serve`` and ``repro loadgen`` use.  The chaos tests arm
``REPRO_FAULTS`` and prove crashed workers and injected queue failures
never lose an accepted job or hang a client.
"""

import asyncio
import contextlib
import http.client
import multiprocessing
import os
import threading
import time

import pytest

from repro import faults
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import run_loadgen
from repro.service.protocol import ValidationError, job_key, validate_job
from repro.service.scheduler import JobScheduler
from repro.service.server import ServiceServer
from repro.sim import cache
from repro.sim.batch import SimJob, _run_job
from repro.sim.supervisor import SupervisorConfig, SweepJournal, WorkerPool

#: Fast supervision policy so retries/backoff cost milliseconds.
FAST = SupervisorConfig(
    max_attempts=3,
    backoff_base=0.01,
    backoff_max=0.05,
    backoff_jitter=0.1,
)

FORK_ONLY = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

JOB = {
    "benchmark": "ora",
    "machine": "PI4",
    "scheme": "sequential",
    "length": 2_000,
    "warmup": 400,
}


def arm(spec: str) -> None:
    os.environ["REPRO_FAULTS"] = spec
    faults.reload()


@pytest.fixture(autouse=True)
def _clean_slate(tmp_path, monkeypatch):
    """Isolated result cache; faults disarmed on the way out."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reload()
    yield
    os.environ.pop("REPRO_FAULTS", None)
    faults.reload()
    cache.reset_runtime_disable()
    cache.reset_stats()


@contextlib.contextmanager
def service(
    processes=0, max_queue=8, config=None, start_method=None, run_job=_run_job
):
    """A live server on an ephemeral port; drains on exit."""
    pool = WorkerPool(
        run_job,
        processes=processes,
        config=config or FAST,
        requested_start_method=start_method,
    )
    scheduler = JobScheduler(pool, max_queue=max_queue)
    server = ServiceServer(scheduler, port=0)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_until_complete(server.run(install_signal_handlers=False))
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield server, scheduler, pool
    finally:
        loop.call_soon_threadsafe(server.request_shutdown)
        thread.join(60)
        assert not thread.is_alive(), "server did not shut down"


# -- protocol -----------------------------------------------------------------


def test_validate_job_fills_defaults():
    job = validate_job({"benchmark": "ora", "machine": "PI4", "scheme": "sequential"})
    assert isinstance(job, SimJob)
    assert (job.variant, job.length, job.warmup) == ("orig", 20_000, 4_000)
    assert job_key(job) == SweepJournal.job_key(job)


def test_validate_job_collects_every_error():
    with pytest.raises(ValidationError) as excinfo:
        validate_job(
            {
                "benchmark": "nope",
                "machine": "PI999",
                "scheme": "wat",
                "length": 7,
                "bogus": 1,
                "kernel": False,
            }
        )
    text = "\n".join(excinfo.value.errors)
    assert len(excinfo.value.errors) >= 6
    for fragment in ("benchmark", "machine", "scheme", "length", "bogus"):
        assert fragment in text
    assert "unknown field 'kernel'" in text


def test_validate_job_rejects_non_object():
    with pytest.raises(ValidationError):
        validate_job([1, 2, 3])
    with pytest.raises(ValidationError):
        validate_job({"benchmark": "ora", "machine": "PI4", "scheme": "sequential", "warmup": 5_000, "length": 1_000})


# -- basic HTTP surface -------------------------------------------------------


def test_health_metrics_and_routing():
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["pool"]["serial"] is True
            metrics = client.metrics()
            assert metrics["queue"] == {"depth": 0, "max": 8}
            assert "result_cache" in metrics
            assert client.request("GET", "/nope").status == 404
            assert client.request("GET", "/v1/jobs/job-9").status == 404
            assert client.request("PUT", "/healthz").status == 405
            assert client.request("POST", "/v1/jobs", None).status == 400


def test_submit_runs_job_bit_identical_to_direct_simulator():
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            record = client.run_job(JOB, wait=30)
    assert record["status"] == "done"
    direct = _run_job(validate_job(JOB)).as_dict()
    assert record["result"] == direct


def test_validation_failure_is_400_with_details():
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"benchmark": "nope", **{k: v for k, v in JOB.items() if k != "benchmark"}})
    assert excinfo.value.status == 400
    assert any("benchmark" in d for d in excinfo.value.payload["details"])


def test_batch_endpoint_mixed_outcomes():
    bad = dict(JOB, scheme="wat")
    other = dict(JOB, machine="PI8")
    # JOB may already be in the in-process memo; the gate keeps its first
    # submission in flight until the batch is admitted, so the duplicate
    # cannot arrive after it finished (and read "memo").
    gate = threading.Event()

    def gated_run_job(job):
        assert gate.wait(60), "the batch was never admitted"
        return _run_job(job)

    with service(run_job=gated_run_job) as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            try:
                out = client.submit_batch([JOB, bad, other, JOB])
            finally:
                gate.set()
            assert out["accepted"] == 3
            assert [item["accepted"] for item in out["jobs"]] == [
                True,
                False,
                True,
                True,
            ]
            # The duplicate coalesced onto the first submission.
            assert out["jobs"][3]["id"] == out["jobs"][0]["id"]
            assert out["jobs"][3]["disposition"] == "coalesced"
            done = client.poll(out["jobs"][0]["id"], wait=30)
            assert done["status"] == "done"


# -- coalescing and admission control -----------------------------------------


def test_identical_concurrent_requests_cost_one_simulation():
    spec = dict(JOB, scheme="banked_sequential", seed=3)
    results = []
    # The job stays in flight until all five submissions are admitted, so
    # none of them can arrive after it finished (and count as a memo hit).
    gate = threading.Event()

    def gated_run_job(job):
        assert gate.wait(60), "submissions were never all admitted"
        return _run_job(job)

    with service(max_queue=16, run_job=gated_run_job) as (
        server,
        scheduler,
        pool,
    ):

        def one() -> None:
            with ServiceClient(port=server.port) as client:
                results.append(client.run_job(spec, wait=30))

        threads = [threading.Thread(target=one) for _ in range(5)]
        for thread in threads:
            thread.start()
        counters = scheduler.registry.counters
        deadline = time.monotonic() + 30
        while (
            counters.get("service.jobs_admitted", 0)
            + counters.get("service.jobs_coalesced", 0)
            < 5
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join(60)
        with ServiceClient(port=server.port) as client:
            counters = client.metrics()["service"]["counters"]
        info = pool.info()
    assert len(results) == 5
    assert len({r["id"] for r in results}) == 1  # one shared record
    assert len({str(r["result"]) for r in results}) == 1
    assert counters["service.jobs_admitted"] == 1
    assert counters["service.jobs_coalesced"] == 4
    assert info["submitted"] == 1  # single flight through the pool


def test_repeat_of_finished_job_served_from_memo():
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            first = client.run_job(JOB, wait=30)
            again = client.submit(JOB, wait=5)
            assert again["disposition"] == "memo"
            assert again["status"] == "done"
            assert again["id"] == first["id"]
            assert again["result"] == first["result"]
        assert pool.info()["submitted"] == 1


def test_full_queue_rejects_with_429_and_retry_after():
    statuses = []
    headers = []
    with service(max_queue=1) as (server, scheduler, pool):
        specs = [
            dict(JOB, length=50_000, warmup=400, seed=100 + i)
            for i in range(4)
        ]

        def slam(spec) -> None:
            with ServiceClient(port=server.port, max_retries=0) as client:
                response = client._request_once("POST", "/v1/jobs", spec)
                statuses.append(response.status)
                headers.append(response.headers)

        threads = [threading.Thread(target=slam, args=(s,)) for s in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    assert statuses.count(429) == 3  # one admitted, three refused
    for status, hdrs in zip(statuses, headers):
        if status == 429:
            assert float(hdrs["retry-after"]) >= 1


def test_drain_rejects_new_work_with_503():
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port, max_retries=0) as client:
            client.run_job(JOB, wait=30)
            assert scheduler.drain(timeout=10)
            assert client.health()["status"] == "draining"
            with pytest.raises(ServiceError) as excinfo:
                client.submit(dict(JOB, seed=9))
            assert excinfo.value.status == 503


def test_readyz_is_distinct_from_healthz():
    """Liveness vs readiness: a draining replica still answers
    ``/healthz`` 200 (the process is alive) but ``/readyz`` flips to 503
    so a balancer stops routing to it."""
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port, max_retries=0) as client:
            response = client._request_once("GET", "/readyz", None)
            assert response.status == 200
            assert response.payload["ready"] is True
            assert response.payload["max_queue"] == scheduler.max_queue

            assert scheduler.drain(timeout=10)
            # _request_once, not request(): the retrying path treats 503
            # as transient, and a draining replica never becomes ready.
            response = client._request_once("GET", "/readyz", None)
            assert response.status == 503
            assert response.payload["ready"] is False
            assert client.health()["status"] == "draining"


def hung_shutdowns(make, rounds=20, join=3.0) -> int:
    """How many of *rounds* front ends built by *make* (returning the
    front end and its ``run`` coroutine function) failed to stop within
    *join* seconds of ``request_shutdown()`` while a client hammered
    ``GET /healthz`` on one keep-alive connection."""
    hung = 0
    for _ in range(rounds):
        frontend, run = make()
        loop = asyncio.new_event_loop()
        ready = threading.Event()
        stop = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(frontend.start())
            ready.set()
            loop.run_until_complete(run())
            loop.close()

        def hammer() -> None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", frontend.port, timeout=10
            )
            try:
                while not stop.is_set():
                    conn.request("GET", "/healthz")
                    conn.getresponse().read()
            except (OSError, http.client.HTTPException):
                pass  # the front end closed the connection: expected
            finally:
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(10), "front end did not start"
        client = threading.Thread(target=hammer, daemon=True)
        client.start()
        time.sleep(0.05)
        loop.call_soon_threadsafe(frontend.request_shutdown)
        thread.join(join)
        hung += thread.is_alive()
        stop.set()  # a hung front end finishes once the client leaves
        client.join(10)
        thread.join(10)
    return hung


def test_shutdown_ends_a_busy_keep_alive_connection():
    # Regression: shutdown cancels each connection's task, and Python
    # 3.11's wait_for drops a cancel that lands just as readline()
    # completes; the handler then kept serving that connection.
    def make():
        pool = WorkerPool(_run_job, processes=0, config=FAST)
        server = ServiceServer(JobScheduler(pool), port=0)
        return server, lambda: server.run(install_signal_handlers=False)

    assert hung_shutdowns(make) == 0


# -- chaos: the robustness stack composes with the service --------------------


def test_injected_queue_fault_rejects_cleanly():
    arm("seed=11;service.queue=exc:p=1:n=1")
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port, max_retries=0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(JOB)
            assert excinfo.value.status == 503
            # Nothing was accepted, nothing leaked; a retry succeeds.
            assert scheduler.queue_depth == 0
            record = client.run_job(JOB, wait=30)
            assert record["status"] == "done"
            counters = client.metrics()["service"]["counters"]
            assert counters["service.queue_faults"] == 1
    # ...and the retrying client rides a queue fault automatically.
    arm("seed=11;service.queue=exc:p=1:n=1")
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port, backoff=0.05) as client:
            assert client.run_job(JOB, wait=30)["status"] == "done"


@FORK_ONLY
def test_worker_crashes_never_lose_accepted_jobs():
    specs = [dict(JOB, scheme=s, seed=7) for s in (
        "sequential",
        "collapsing_buffer",
        "banked_sequential",
        "perfect",
    )]
    expected = [_run_job(validate_job(s)).as_dict() for s in specs]
    arm("seed=5;batch.worker=crash:a=1")  # every job's 1st attempt dies
    results = {}
    with service(processes=2, start_method="fork", max_queue=8) as (
        server,
        scheduler,
        pool,
    ):

        def one(index, spec) -> None:
            with ServiceClient(port=server.port) as client:
                results[index] = client.run_job(spec, wait=30, deadline=120)

        threads = [
            threading.Thread(target=one, args=(i, s))
            for i, s in enumerate(specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        info = pool.info()
    assert sorted(results) == [0, 1, 2, 3]  # no hung clients
    for index, want in enumerate(expected):
        assert results[index]["status"] == "done"
        assert results[index]["result"] == want  # bit-identical recovery
    assert info["worker_failures"] >= 4  # the crashes really happened


@FORK_ONLY
def test_injected_handoff_fault_costs_one_attempt():
    arm("seed=3;service.handoff=exc:a=1")
    with service(processes=1, start_method="fork") as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            record = client.run_job(JOB, wait=30, deadline=120)
    assert record["status"] == "done"
    assert record["result"] == _run_job(validate_job(JOB)).as_dict()


# -- loadgen ------------------------------------------------------------------


def test_loadgen_smoke(tmp_path):
    out = tmp_path / "bench.json"
    with service(max_queue=32) as (server, scheduler, pool):
        report = run_loadgen(
            port=server.port,
            clients=2,
            duration=0.6,
            mix=[JOB, dict(JOB, machine="PI8")],
            output=out,
            quiet=True,
        )
    assert out.exists()
    timed = report["timed_phase"]
    assert timed["requests_completed"] > 0
    assert timed["requests_failed"] == 0
    assert timed["latency_seconds"]["p99"] >= timed["latency_seconds"]["p50"]
    assert report["floors"] == {
        "throughput_rps_min": 50.0,
        "p99_seconds_max": 0.25,
    }


def test_loadgen_reports_client_vs_server_latency(tmp_path):
    report = None
    with service(max_queue=32) as (server, scheduler, pool):
        report = run_loadgen(
            port=server.port,
            clients=2,
            duration=0.6,
            mix=[JOB],
            output=None,
            quiet=True,
        )
    timed = report["timed_phase"]
    assert timed["requests_completed"] > 0
    # Every request carries a server-reported duration; the delta is
    # the queueing/network time the client-only numbers used to hide.
    assert timed["server_seconds"]["p50"] > 0
    assert timed["client_server_delta_seconds"]["mean"] >= 0
    assert (
        timed["server_seconds"]["p50"]
        <= timed["latency_seconds"]["p50"] + 1e-6
    )


# -- tracing ------------------------------------------------------------------


@pytest.fixture()
def traced(monkeypatch):
    from repro.telemetry import trace as tracing

    monkeypatch.setenv("REPRO_TRACE", "1")
    tracing.reload()
    tracing.recorder.clear()
    yield tracing
    tracing.recorder.clear()
    os.environ.pop("REPRO_TRACE", None)
    tracing.reload()


def test_traced_job_joins_one_trace_with_span_conservation(traced):
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            first = client.run_job(JOB)
            trace_id = client.last_trace_id
            assert trace_id is not None
            assert first["trace_id"] == trace_id
            second = client.run_job(dict(JOB, scheme="collapsing_buffer"))
    spans = traced.recorder.spans()
    # Exactly one service.job root per accepted job.
    roots = [s for s in spans if s.name == "service.job"]
    assert len(roots) == 2
    assert len({s.trace_id for s in roots}) == 2
    for root in roots:
        children = [s for s in spans if s.parent_id == root.span_id]
        assert sorted(s.name for s in children) == [
            "batch.job",
            "pool.queue_wait",
        ]
        # Conservation: queue wait plus execution fit inside the job.
        assert sum(s.duration for s in children) <= root.duration + 0.05
    # The client-side spans joined the same traces end to end.
    mine = [s for s in spans if s.trace_id == trace_id]
    assert {s.name for s in mine} >= {
        "client.request",
        "client.submit",
        "service.request",
        "service.job",
        "batch.job",
    }
    assert second["status"] == "done"


def test_traceparent_echo_and_traces_endpoint(traced):
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            with traced.span("probe", parent=None) as probe:
                response = client.request("GET", "/healthz")
                assert response.headers["traceparent"].startswith(
                    f"00-{probe.span.trace_id}-"
                )
            record = client.run_job(JOB)
            listing = client.request("GET", "/v1/traces").payload
            assert record["trace_id"] in {
                row["trace_id"] for row in listing["traces"]
            }
            detail = client.request(
                "GET", f"/v1/traces/{record['trace_id'][:12]}"
            ).payload
            names = {s["name"] for s in detail["spans"]}
            assert "service.job" in names and "batch.job" in names


def test_traces_endpoint_when_tracing_off():
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            response = client.request("GET", "/v1/traces/deadbeef")
            assert response.status == 404
            assert "REPRO_TRACE" in str(response.payload)


def test_metrics_prometheus_exposition():
    with service() as (server, scheduler, pool):
        with ServiceClient(port=server.port) as client:
            client.run_job(JOB)
            # Default stays JSON for existing scrapers of the endpoint.
            assert isinstance(client.metrics()["queue"], dict)
            response = client.request("GET", "/metrics?format=prom")
            assert response.status == 200
            assert response.headers["content-type"].startswith("text/plain")
            text = response.payload["raw"]
    assert "# TYPE repro_service_jobs_admitted counter" in text
    assert "repro_service_jobs_admitted 1" in text
    assert "# TYPE repro_queue_depth gauge" in text
    assert text.endswith("\n")
