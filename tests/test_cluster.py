"""Tests for the multi-replica cluster: hash ring, balancer, chaos.

Three layers, cheapest first:

* pure-logic tests of :class:`~repro.hashring.ConsistentRing` and the
  balancer's :class:`~repro.service.balancer.ReplicaState` machine;
* in-process cluster tests — several real :class:`ServiceServer`
  replicas plus a real :class:`Balancer` on daemon-thread event loops —
  covering routing, coalescing preservation, readiness gating, ejection
  and failover without a single subprocess;
* the **chaos gauntlet** — a real :class:`ClusterManager` fleet of
  ``repro serve`` subprocesses under a deterministic ``REPRO_FAULTS``
  schedule (``service.replica`` crash/hang injections, a poisoned
  ``cache.store``) with ``loadgen --cluster`` asserting that every
  request completes bit-identical to the in-process reference run.
"""

import asyncio
import contextlib
import json
import os
import signal
import threading
import time

import pytest

from repro import faults
from repro.hashring import ConsistentRing
from repro.service.balancer import RETRY_BUDGET, Balancer, ReplicaState
from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import ClusterManager
from repro.service.loadgen import run_loadgen
from repro.service.protocol import job_key, validate_job
from repro.service.scheduler import JobScheduler
from repro.service.server import ServiceServer
from repro.sim import cache
from repro.sim.batch import _run_job
from repro.sim.supervisor import SupervisorConfig, WorkerPool
from tests.test_service import hung_shutdowns

FAST = SupervisorConfig(
    max_attempts=3,
    backoff_base=0.01,
    backoff_max=0.05,
    backoff_jitter=0.1,
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
    """Isolated caches, fast balancer knobs, faults disarmed on exit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_BALANCE_PROBE_INTERVAL", "0.05")
    monkeypatch.setenv("REPRO_BALANCE_TRY_TIMEOUT", "3")
    monkeypatch.setenv("REPRO_CACHE_CLAIM_TTL", "1")
    faults.reload()
    yield
    # Tests set REPRO_FAULTS via os.environ directly (so subprocesses
    # inherit it); delenv-on-absent registers no monkeypatch undo, so
    # pop it ourselves.
    os.environ.pop("REPRO_FAULTS", None)
    faults.reload()
    cache.reset_runtime_disable()
    cache.reset_stats()


# -- consistent hash ring -----------------------------------------------------


def test_ring_owner_is_deterministic_and_spread():
    ring = ConsistentRing(["r1", "r2", "r3"])
    keys = [f"key-{i}" for i in range(300)]
    owners = [ring.owner(k) for k in keys]
    assert owners == [ring.owner(k) for k in keys]  # stable
    by_node = {n: owners.count(n) for n in ("r1", "r2", "r3")}
    assert all(count > 30 for count in by_node.values())  # spread


def test_ring_removal_only_remaps_lost_nodes_keys():
    full = ConsistentRing(["r1", "r2", "r3"])
    reduced = ConsistentRing(["r1", "r3"])
    moved = 0
    for i in range(300):
        key = f"key-{i}"
        before, after = full.owner(key), reduced.owner(key)
        if before == "r2":
            assert after in ("r1", "r3")
            moved += 1
        else:
            assert after == before  # consistency: survivors keep keys
    assert moved > 0


def test_ring_preference_is_distinct_failover_order():
    ring = ConsistentRing(["r1", "r2", "r3"])
    pref = ring.preference("some-key")
    assert pref[0] == ring.owner("some-key")
    assert sorted(pref) == ["r1", "r2", "r3"]  # all nodes, no dupes
    with pytest.raises(ValueError):
        ConsistentRing([])
    with pytest.raises(ValueError):
        ConsistentRing(["a", "a"])


# -- replica state machine ----------------------------------------------------


def test_replica_state_ejects_on_consecutive_errors_and_recovers():
    replica = ReplicaState("r1", "127.0.0.1", 1234)
    assert replica.routable
    for _ in range(2):
        replica.record_failure("ConnectionRefusedError")
    assert replica.should_eject() is None  # threshold is 3
    replica.record_failure("ConnectionRefusedError")
    assert replica.should_eject() == "consecutive_errors"
    replica.eject(time.monotonic(), "consecutive_errors")
    assert not replica.routable and replica.state == "ejected"
    first_window = replica.ejected_until
    replica.recover()
    assert replica.routable and replica.recoveries == 1
    assert replica.consecutive_errors == 0
    # A second ejection backs off longer than the first.
    replica.eject(time.monotonic(), "again")
    assert replica.ejected_until - time.monotonic() > (
        first_window - time.monotonic()
    )


def test_replica_state_ejects_on_ewma_latency():
    replica = ReplicaState("r1", "127.0.0.1", 1234)
    for _ in range(50):
        replica.record_success(30.0)  # pathologically slow but "working"
    assert replica.should_eject() == "ewma_latency"
    replica.record_success(0.001)
    # One fast response decays the EWMA but does not clear it outright.
    assert replica.ewma_latency > 1.0


# -- in-process cluster -------------------------------------------------------


class _Replica:
    """One in-process ServiceServer on its own daemon-thread loop."""

    def __init__(self, name: str, max_queue: int = 16) -> None:
        self.name = name
        self.pool = WorkerPool(_run_job, processes=0, config=FAST)
        self.scheduler = JobScheduler(self.pool, max_queue=max_queue, name=name)
        self.server = ServiceServer(self.scheduler, port=0)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_until_complete(
                self.server.run(install_signal_handlers=False)
            )
            self.loop.close()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert ready.wait(10), f"replica {name} did not start"

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
            self.thread.join(60)
        assert not self.thread.is_alive()


@contextlib.contextmanager
def cluster(replicas=2, max_queue=16):
    """N in-process replicas fronted by a real Balancer."""
    fleet = [_Replica(f"r{i + 1}", max_queue) for i in range(replicas)]
    balancer = Balancer(
        [ReplicaState(r.name, "127.0.0.1", r.port) for r in fleet],
        port=0,
    )
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(balancer.start())
        ready.set()
        loop.run_until_complete(balancer.run())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "balancer did not start"
    try:
        yield balancer, fleet
    finally:
        loop.call_soon_threadsafe(balancer.request_shutdown)
        thread.join(60)
        assert not thread.is_alive(), "balancer did not shut down"
        for replica in fleet:
            replica.stop()


def _wait_until(predicate, timeout=10.0, interval=0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_balancer_shutdown_ends_a_busy_keep_alive_connection():
    # The balancer shares the service's connection loop, and with it the
    # fix for a shutdown cancel lost as readline() completes.
    def make():
        balancer = Balancer([ReplicaState("r1", "127.0.0.1", 9)], port=0)
        return balancer, balancer.run

    assert hung_shutdowns(make) == 0


def test_balancer_routes_by_job_key_and_preserves_coalescing():
    spec_a = dict(JOB)
    spec_b = dict(JOB, machine="PI8")
    with cluster(replicas=3) as (balancer, fleet):
        with ServiceClient(port=balancer.port) as client:
            runs = [
                client.run_job(spec, wait=30)
                for spec in (spec_a, spec_a, spec_b, spec_b)
            ]
    # Identical specs landed on the same replica (same job id), so the
    # scheduler memo/coalescing still collapsed them to one simulation.
    assert runs[0]["id"] == runs[1]["id"]
    assert runs[2]["id"] == runs[3]["id"]
    for record, spec in zip(runs, (spec_a, spec_a, spec_b, spec_b)):
        assert record["status"] == "done"
        assert record["result"] == json.loads(
            json.dumps(_run_job(validate_job(dict(spec))).as_dict())
        )
        # The ring routed by job key, and said so.
        expected = balancer.ring.owner(job_key(validate_job(dict(spec))))
        assert record["balancer"]["replica"] == expected
        assert record["id"].startswith(expected + "-job-")


def test_balancer_routes_polls_by_job_id_prefix():
    with cluster(replicas=2) as (balancer, fleet):
        with ServiceClient(port=balancer.port) as client:
            record = client.run_job(JOB, wait=30)
            again = client.poll(record["id"], wait=5)
            assert again["id"] == record["id"]
            assert again["status"] == "done"
            # A poll for a replica that does not exist is a lost job.
            with pytest.raises(ServiceError) as excinfo:
                client.poll("r9-job-000001")
            assert excinfo.value.status == 404
            assert excinfo.value.payload.get("lost") is True


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


def test_replica_request_spans_nest_under_balance_try(traced):
    # Submission (failover loop), poll (owner routing) and a listing
    # (any replica) each forward their balance.try span's own
    # traceparent, so the replica-side request is that try's child.
    with cluster(replicas=2) as (balancer, fleet):
        with ServiceClient(port=balancer.port) as client:
            record = client.run_job(JOB, wait=30)
            client.poll(record["id"], wait=5)
            assert client.request("GET", "/v1/jobs").status == 200
    spans = traced.recorder.spans()
    by_id = {s.span_id: s for s in spans}
    proxied = {s.trace_id for s in spans if s.name == "balance.request"}
    served = [
        s
        for s in spans
        if s.name == "service.request" and s.trace_id in proxied
    ]
    assert {(s.attributes["method"], s.attributes["path"]) for s in served} >= {
        ("POST", "/v1/jobs"),
        ("GET", f"/v1/jobs/{record['id']}"),
        ("GET", "/v1/jobs"),
    }
    for span in served:
        parent = by_id[span.parent_id]
        assert parent.name == "balance.try"
        assert by_id[parent.parent_id].name == "balance.request"


def test_readyz_gates_routing_away_from_draining_replica():
    with cluster(replicas=2) as (balancer, fleet):
        with ServiceClient(port=balancer.port) as client:
            assert client.request("GET", "/readyz").status == 200
            # Drain r1: alive (healthz answers) but not ready.
            fleet[0].scheduler.drain(timeout=10)
            assert _wait_until(
                lambda: not balancer.replicas["r1"].routable
            ), "draining replica was never gated out"
            # The balancer itself stays ready on the surviving replica,
            # and every submission now lands on r2.
            assert client.request("GET", "/readyz").status == 200
            for seed in range(3):
                record = client.run_job(dict(JOB, seed=seed), wait=30)
                assert record["id"].startswith("r2-job-")
                assert record["status"] == "done"


def test_dead_replica_is_ejected_and_submissions_fail_over():
    with cluster(replicas=2) as (balancer, fleet):
        # Find a spec the ring assigns to r1, then kill r1.
        spec = None
        for seed in range(50):
            candidate = dict(JOB, seed=seed)
            if balancer.ring.owner(job_key(validate_job(dict(candidate)))) == "r1":
                spec = candidate
                break
        assert spec is not None
        fleet[0].stop()
        with ServiceClient(port=balancer.port) as client:
            # Whether the submit raced the probe loop (balancer-side
            # failover) or came after ejection (routed straight past
            # r1), the job completes on the survivor.
            record = client.run_job(spec, wait=30, deadline=60)
            assert record["status"] == "done"
            assert record["balancer"]["replica"] == "r2"
            assert _wait_until(
                lambda: balancer.replicas["r1"].state == "ejected"
            ), "dead replica was never ejected"
            metrics = client.metrics()
            counters = metrics["balancer"]["counters"]
            assert counters["balance.ejections"] >= 1
            states = {
                r["name"]: r["state"] for r in metrics["replicas"]
            }
            assert states == {"r1": "ejected", "r2": "healthy"}
            assert metrics["retry_budget"]["ratio"] == RETRY_BUDGET


def test_ejected_replica_recovers_through_half_open_probe():
    with cluster(replicas=2) as (balancer, fleet):
        port = fleet[0].port
        fleet[0].stop()
        assert _wait_until(
            lambda: balancer.replicas["r1"].state == "ejected"
        ), "dead replica was never ejected"
        # Resurrect r1 on the same port; after the cooldown the next
        # probe runs the half-open trial and promotes it back.
        pool = WorkerPool(_run_job, processes=0, config=FAST)
        scheduler = JobScheduler(pool, max_queue=16, name="r1")
        server = ServiceServer(scheduler, port=port)
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
        assert ready.wait(10)
        try:
            assert _wait_until(
                lambda: balancer.replicas["r1"].state == "healthy",
                timeout=15.0,
            ), "ejected replica never recovered"
            assert balancer.replicas["r1"].recoveries >= 1
            assert balancer.registry.as_dict()["counters"][
                "balance.recoveries"
            ] >= 1
        finally:
            loop.call_soon_threadsafe(server.request_shutdown)
            thread.join(60)


def test_client_retry_honors_total_deadline_budget():
    with cluster(replicas=1) as (balancer, fleet):
        fleet[0].scheduler.drain(timeout=10)
        assert _wait_until(lambda: not balancer.replicas["r1"].routable)
        # Every try now yields 503 + Retry-After; without a budget the
        # client would sleep through max_retries backoffs.
        with ServiceClient(
            port=balancer.port, max_retries=8, backoff=5.0
        ) as client:
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.request(
                    "POST",
                    "/v1/jobs",
                    JOB,
                    deadline=time.monotonic() + 0.5,
                )
            elapsed = time.monotonic() - started
    assert excinfo.value.status == 503
    assert elapsed < 3.0  # gave up at the budget, not after 8 x 5s


# -- chaos gauntlet: subprocess fleet under deterministic fault schedule ------


def _start_balancer_thread(manager):
    balancer = Balancer(
        [
            ReplicaState(r.name, r.host, r.port)
            for r in manager.replicas
        ],
        port=0,
    )
    balancer.cluster = manager
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(balancer.start())
        ready.set()
        loop.run_until_complete(balancer.run())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "balancer did not start"
    return balancer, loop, thread


def test_run_job_reroutes_when_poll_comes_back_404():
    """Unit test of the client's reroute loop: a 404 poll (the serving
    replica died and took its record) resubmits the identical job and
    surfaces the reroute on the returned record."""
    client = ServiceClient(port=1)  # stubs below; never connects
    calls = {"submit": 0, "poll": 0}

    def fake_submit(job, wait=0.0, deadline=None):
        calls["submit"] += 1
        if calls["submit"] == 1:
            return {"id": "r1-job-000001", "status": "running"}
        return {
            "id": "r2-job-000001",
            "status": "done",
            "result": {"ok": 1},
            "server_seconds": 0.01,
        }

    def fake_poll(job_id, wait=0.0, deadline=None):
        calls["poll"] += 1
        raise ServiceError(404, {"error": "job unreachable", "lost": True})

    client.submit = fake_submit
    client.poll = fake_poll
    record = client.run_job(JOB, wait=0.1, deadline=10)
    assert record["status"] == "done"
    assert record["result"] == {"ok": 1}
    assert record["rerouted"] == 1
    assert calls == {"submit": 2, "poll": 1}


def test_lost_job_is_rerouted_and_bit_identical():
    """SIGKILL the replica that owns an in-flight job mid-poll: the
    client's next poll 404s, it resubmits, and the job completes
    bit-identically on the survivor — zero client-visible failures."""
    manager = ClusterManager(count=2, workers=0, max_queue=16)
    manager.start()
    try:
        manager.wait_ready(timeout=60)
        balancer, loop, thread = _start_balancer_thread(manager)
        slow = dict(JOB, length=2_000_000, warmup=1_000, seed=77)
        owner = balancer.ring.owner(job_key(validate_job(dict(slow))))
        victim = next(r for r in manager.replicas if r.name == owner)
        # ~5s of simulation; the kill lands while the client polls.
        killer = threading.Timer(
            1.5, os.kill, args=(victim.proc.pid, signal.SIGKILL)
        )
        killer.start()
        with ServiceClient(port=balancer.port) as client:
            record = client.run_job(slow, wait=0.5, deadline=120)
        killer.cancel()
        assert record["status"] == "done"
        reference = json.loads(
            json.dumps(_run_job(validate_job(dict(slow))).as_dict())
        )
        assert record["result"] == reference
        loop.call_soon_threadsafe(balancer.request_shutdown)
        thread.join(60)
    finally:
        manager.stop()


def test_chaos_gauntlet_zero_lost_requests_bit_identical():
    """The acceptance gauntlet: 3 replicas under a deterministic
    ``service.replica`` crash+hang schedule with one ``cache.store``
    poisoned, hammered by ``loadgen --cluster`` — every request must
    complete, bit-identical to the faultless reference."""
    # Deterministic schedule: SIGKILL one replica (n=1 crash), SIGSTOP
    # another for 3 seconds (n=1 hang), fail one cache store per
    # replica process (n=1 oserror).  Seeded: same kills every run.
    arm(
        "seed=13;service.replica=crash:p=0.08:n=1;"
        "cache.store=oserror:p=1:n=1"
    )
    mix = [dict(JOB), dict(JOB, machine="PI8")]
    manager = ClusterManager(count=3, workers=0, max_queue=32)
    manager.start()
    try:
        manager.wait_ready(timeout=60)
        balancer, loop, thread = _start_balancer_thread(manager)

        stop_monitor = threading.Event()

        def monitor() -> None:
            while not stop_monitor.is_set():
                try:
                    manager.tick()
                except faults.FaultInjected:
                    manager.registry.inc("cluster.monitor_faults")
                time.sleep(0.1)

        ticker = threading.Thread(target=monitor, daemon=True)
        ticker.start()
        report = run_loadgen(
            port=balancer.port,
            clients=4,
            duration=3.0,
            mix=mix,
            wait=2.0,
            output=None,
            quiet=True,
            cluster=True,
        )
        # Phase 2: hang injection (a wedged-but-alive replica).
        arm("seed=7;service.replica=hang:p=0.1:n=1:s=3")
        report2 = run_loadgen(
            port=balancer.port,
            clients=4,
            duration=3.0,
            mix=mix,
            wait=2.0,
            output=None,
            quiet=True,
            cluster=True,
        )
        # Let the last ejection heal: the faults are exhausted (n=1
        # each), so every ejected replica must come back through a
        # half-open probe — possibly after its 1-2 s cooldown.
        if balancer.registry.as_dict()["counters"].get(
            "balance.ejections", 0
        ):
            _wait_until(
                lambda: balancer.registry.as_dict()["counters"].get(
                    "balance.recoveries", 0
                )
                >= 1,
                timeout=20,
            )
        stop_monitor.set()
        ticker.join(10)
        counters = manager.registry.as_dict()["counters"]
        balance_counters = balancer.registry.as_dict()["counters"]
        loop.call_soon_threadsafe(balancer.request_shutdown)
        thread.join(60)
    finally:
        os.environ.pop("REPRO_FAULTS", None)
        faults.reload()
        manager.stop()

    for phase, rep in (("crash", report), ("hang", report2)):
        section = rep["cluster"]
        assert section["requests_failed"] == 0, (phase, rep)
        assert section["bit_identical"] is True, (phase, rep)
        assert rep["timed_phase"]["requests_completed"] > 0, phase
    # The faults really happened and the cluster really healed.
    assert counters.get("cluster.crashes_injected", 0) >= 1
    assert counters.get("cluster.hangs_injected", 0) >= 1
    assert counters.get("cluster.respawns", 0) >= 1
    assert balance_counters.get("balance.ejections", 0) >= 1
    assert balance_counters.get("balance.recoveries", 0) >= 1
