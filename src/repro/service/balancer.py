"""The front balancer for a multi-replica cluster: ``repro balance``.

One asyncio process sits in front of N ``repro serve`` replicas and
keeps the cluster's contract — *every request completes, bit-identical
to a single-replica run* — through replica crashes, hangs and slow
decay.  Stdlib only, like everything else in the service tier.

Routing
  Job submissions are routed by **consistent hashing on the job key**
  (:func:`repro.service.protocol.job_key`), so identical concurrent
  specs land on the same replica and its scheduler still coalesces them
  — sharding does not forfeit the single-flight win.  The hash ring's
  clockwise successor list doubles as the **failover order**.  On top of
  that sits a power-of-two-choices check: when the ring owner's observed
  load (balancer in-flight + last probed queue depth) exceeds its first
  successor's by :data:`SPILL_THRESHOLD`, the request spills to the
  successor — bounded load imbalance at the cost of one coalescing
  domain.  Polls (``GET /v1/jobs/<id>``) route by the job-id's replica
  prefix (``r2-job-000017`` → replica ``r2``): job records live in
  replica memory, so only the owner can answer.

Health
  Replicas are *health-gated*: a replica serves traffic only while
  ``healthy``.  Detection is both **active** — a probe loop GETs each
  replica's ``/readyz`` every ``REPRO_BALANCE_PROBE_INTERVAL`` seconds
  and folds the reported queue depth into routing — and **passive** —
  every proxied request updates an EWMA of latency and a consecutive
  -error count.  :data:`EJECT_ERRORS` consecutive failures or an EWMA
  above :data:`EJECT_LATENCY` seconds **ejects** the replica:
  it leaves the routable set and waits out a cooldown that doubles with
  each successive ejection.  After cooldown the replica turns
  ``half_open`` and one successful probe — and nothing else — promotes
  it back to ``healthy`` (a *recovery*); a failed trial re-ejects it.

Retries
  Failed tries (connection errors, per-try timeouts, 5xx/429/503) fail
  over to the next replica in the ring's preference order, under a
  **retry budget**: retries may not exceed :data:`RETRY_BUDGET` as a
  fraction of requests seen, so a brown-out cannot amplify load
  into a retry storm.  Every try is bounded by a per-try timeout of
  ``REPRO_BALANCE_TRY_TIMEOUT`` seconds (stretched to cover an explicit
  ``?wait=`` long-poll).  Replaying a submission on another replica is
  safe because jobs are idempotent — deterministic simulations keyed by
  their canonical spec.

Observability
  With ``REPRO_TRACE=1`` each proxied request is a ``balance.request``
  span (joining the client's ``traceparent``) with one ``balance.try``
  child per upstream attempt carrying ``replica``, ``retry.attempt``
  and — when the try got its replica ejected — ``ejected=True``.  Each
  try forwards its own ``traceparent``, so the replica's spans nest
  under the try that reached it.
  ``/metrics`` exposes the balancer's counters (``balance.requests``,
  ``balance.retries``, ``balance.ejections``, ``balance.recoveries``,
  ...) plus a per-replica state table; ``/healthz`` and ``/readyz``
  report the balancer itself (ready iff at least one replica is).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from repro import knobs
from repro.hashring import ConsistentRing
from repro.service.protocol import ValidationError, job_key, validate_job
from repro.service.server import KeepAliveConnections, ServiceServer, read_headers
from repro.telemetry import MetricsRegistry
from repro.telemetry import trace as tracing
from repro.telemetry.export import to_prometheus

#: Queue-depth lead the ring owner may hold over its first successor
#: before a submission spills to the successor (power-of-two choice).
SPILL_THRESHOLD = 4

#: Base ejection cooldown (seconds); doubles per successive ejection.
BASE_COOLDOWN = 1.0
MAX_COOLDOWN = 30.0

#: Consecutive proxied-request failures that eject a replica.
EJECT_ERRORS = 3

#: EWMA request latency (seconds) above which a replica is ejected.
EJECT_LATENCY = 5.0

#: Failover retries allowed as a fraction of requests seen.
RETRY_BUDGET = 0.2

#: Timeout for one active ``/readyz`` probe.
PROBE_TIMEOUT = 2.0

#: EWMA smoothing factor for passive latency detection.
EWMA_ALPHA = 0.2

#: Floor on the request count in the retry-budget ratio, so the first
#: few requests can still retry before the denominator means anything.
BUDGET_FLOOR = 10


@dataclass
class ReplicaState:
    """What the balancer knows about one backend replica."""

    name: str
    host: str
    port: int
    state: str = "healthy"  # healthy | ejected | half_open
    consecutive_errors: int = 0
    ewma_latency: float = 0.0
    inflight: int = 0  # balancer-side proxied requests in flight
    queue_depth: int = 0  # last probed scheduler queue depth
    ready: bool = False  # last probed readiness
    ejections: int = 0
    recoveries: int = 0
    ejected_until: float = 0.0
    last_error: str = ""

    @property
    def routable(self) -> bool:
        return self.state == "healthy"

    @property
    def load(self) -> int:
        return self.inflight + self.queue_depth

    def record_success(self, latency: float) -> None:
        """Passive detection: a proxied request succeeded."""
        self.consecutive_errors = 0
        self.ewma_latency = (
            latency
            if self.ewma_latency == 0.0
            else (1 - EWMA_ALPHA) * self.ewma_latency + EWMA_ALPHA * latency
        )

    def record_failure(self, reason: str) -> None:
        """Passive detection: a proxied request failed (absorbed by the
        failover loop — this counter *is* the required telemetry)."""
        self.consecutive_errors += 1
        self.last_error = reason

    def should_eject(self) -> str | None:
        """Reason to eject now, or ``None``."""
        if self.consecutive_errors >= EJECT_ERRORS:
            return "consecutive_errors"
        if self.ewma_latency > EJECT_LATENCY:
            return "ewma_latency"
        return None

    def eject(self, now: float, reason: str) -> None:
        self.ejections += 1
        cooldown = min(
            MAX_COOLDOWN, BASE_COOLDOWN * (2 ** min(self.ejections - 1, 10))
        )
        self.state = "ejected"
        self.ejected_until = now + cooldown
        self.last_error = reason
        self.ready = False

    def recover(self) -> None:
        self.state = "healthy"
        self.ready = True
        self.consecutive_errors = 0
        self.ewma_latency = 0.0
        self.recoveries += 1

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "address": f"{self.host}:{self.port}",
            "state": self.state,
            "ready": self.ready,
            "inflight": self.inflight,
            "queue_depth": self.queue_depth,
            "consecutive_errors": self.consecutive_errors,
            "ewma_latency": round(self.ewma_latency, 6),
            "ejections": self.ejections,
            "recoveries": self.recoveries,
            "last_error": self.last_error,
        }


class NoReplicaAvailable(RuntimeError):
    """Every candidate replica is ejected or exhausted."""


@dataclass
class _Upstream:
    """A pooled keep-alive connection to one replica."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter


class Balancer:
    """The front proxy: routing, health gating, budgeted failover."""

    def __init__(
        self,
        replicas: list[ReplicaState],
        host: str = "127.0.0.1",
        port: int = 8100,
        idle_timeout: float = 120.0,
    ) -> None:
        if not replicas:
            raise ValueError("balancer needs at least one replica")
        self.replicas = {r.name: r for r in replicas}
        self.ring = ConsistentRing([r.name for r in replicas])
        self.host = host
        self.port = port
        self.registry = MetricsRegistry()
        self.started = time.time()
        #: Optional :class:`~repro.service.cluster.ClusterManager` — set
        #: by ``run_cluster`` so /metrics can expose respawn counters.
        self.cluster = None
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._connections = KeepAliveConnections(
            self._route, self.registry, "balance.connection_errors", idle_timeout
        )
        self._pools: dict[str, list[_Upstream]] = {}
        self._requests_seen = 0
        self._retries_spent = 0

    # lifecycle -------------------------------------------------------------

    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._connections.serve, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def run(self) -> None:
        """Serve (with the probe loop) until :meth:`request_shutdown`."""
        if self._server is None:
            await self.start()
        probe = asyncio.create_task(self._probe_loop())
        try:
            await self._shutdown.wait()
        finally:
            probe.cancel()
            await asyncio.gather(probe, return_exceptions=True)
            await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._connections.close()
        for pool in self._pools.values():
            for upstream in pool:
                upstream.writer.close()
        self._pools.clear()
        self._shutdown.set()

    # health ----------------------------------------------------------------

    async def _probe_loop(self) -> None:
        interval = max(0.05, knobs.get_float("REPRO_BALANCE_PROBE_INTERVAL"))
        while True:
            await asyncio.gather(
                *(self._probe_replica(r) for r in self.replicas.values()),
                return_exceptions=True,
            )
            await asyncio.sleep(interval)

    async def _probe_replica(self, replica: ReplicaState) -> None:
        now = time.monotonic()
        if replica.state == "ejected":
            if now < replica.ejected_until:
                return
            # Cooldown over: half-open — this one probe is the trial.
            replica.state = "half_open"
        try:
            status, payload, _headers = await self._roundtrip(
                replica, "GET", "/readyz", None, {}, PROBE_TIMEOUT
            )
        except (OSError, asyncio.TimeoutError) as exc:
            # Probe failures are absorbed here by design; the replica
            # table and the ejection counters are their telemetry.
            replica.record_failure(f"probe: {type(exc).__name__}")
            self._note_probe_failure(replica, now)
            return
        ready = bool(
            isinstance(payload, dict) and payload.get("ready")
        ) and status == 200
        if isinstance(payload, dict):
            depth = payload.get("queue_depth")
            if isinstance(depth, int):
                replica.queue_depth = depth
        if ready:
            if replica.state in ("half_open", "ejected"):
                replica.recover()
                self.registry.inc("balance.recoveries")
                self._event_span("balance.recover", replica.name)
            else:
                replica.ready = True
                replica.consecutive_errors = 0
        else:
            replica.record_failure(f"not ready (HTTP {status})")
            self._note_probe_failure(replica, now)

    def _note_probe_failure(self, replica: ReplicaState, now: float) -> None:
        if replica.state == "half_open":
            # Failed trial: straight back to ejected, longer cooldown.
            replica.eject(now, "half_open trial failed")
            self.registry.inc("balance.ejections")
            self._event_span("balance.eject", replica.name)
        elif replica.state == "healthy":
            replica.ready = False
            reason = replica.should_eject()
            if reason is not None:
                replica.eject(now, reason)
                self.registry.inc("balance.ejections")
                self._event_span("balance.eject", replica.name)

    def _event_span(self, name: str, replica: str) -> None:
        now = time.time()
        tracing.record_span(name, None, now, now, replica=replica)

    # upstream transport ----------------------------------------------------

    async def _checkout(self, replica: ReplicaState) -> _Upstream:
        pool = self._pools.setdefault(replica.name, [])
        while pool:
            upstream = pool.pop()
            if not upstream.writer.is_closing():
                return upstream
            upstream.writer.close()
        reader, writer = await asyncio.open_connection(
            replica.host, replica.port
        )
        return _Upstream(reader, writer)

    def _checkin(self, replica: ReplicaState, upstream: _Upstream) -> None:
        if upstream.writer.is_closing():
            return
        self._pools.setdefault(replica.name, []).append(upstream)

    async def _roundtrip(
        self,
        replica: ReplicaState,
        method: str,
        target: str,
        body: bytes | None,
        headers: dict[str, str],
        timeout: float,
    ) -> tuple[int, object, dict[str, str]]:
        """One HTTP request/response against a replica (pooled, bounded
        by *timeout*).  Raises ``OSError``/``asyncio.TimeoutError`` on
        transport trouble; HTTP status codes come back as data."""
        upstream = await self._checkout(replica)
        try:
            status, payload, resp_headers = await asyncio.wait_for(
                self._roundtrip_inner(
                    upstream, replica, method, target, body, headers
                ),
                timeout,
            )
        except BaseException:
            # Poisoned mid-exchange (timeout included): never reuse.
            upstream.writer.close()
            raise
        if resp_headers.get("connection", "").lower() == "close":
            upstream.writer.close()
        else:
            self._checkin(replica, upstream)
        return status, payload, resp_headers

    @staticmethod
    async def _roundtrip_inner(
        upstream: _Upstream,
        replica: ReplicaState,
        method: str,
        target: str,
        body: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, object, dict[str, str]]:
        head = [
            f"{method} {target} HTTP/1.1",
            f"Host: {replica.host}:{replica.port}",
        ]
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        if body:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        upstream.writer.write("\r\n".join(head).encode() + b"\r\n\r\n")
        if body:
            upstream.writer.write(body)
        await upstream.writer.drain()

        line = await upstream.reader.readline()
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"bad status line from {replica.name}")
        status = int(parts[1])
        resp_headers = await read_headers(upstream.reader)
        if resp_headers is None:
            raise ConnectionError(f"truncated response from {replica.name}")
        length = int(resp_headers.get("content-length", "0") or 0)
        data = await upstream.reader.readexactly(length) if length else b""
        try:
            payload = json.loads(data) if data else None
        except ValueError:
            payload = {"raw": data.decode("latin-1", "replace")}
        return status, payload, resp_headers

    # routing ---------------------------------------------------------------

    def _routable(self) -> list[ReplicaState]:
        return [r for r in self.replicas.values() if r.routable]

    def _preference(self, key: str) -> list[ReplicaState]:
        """Failover order for a job key: ring order, healthy first, with
        the power-of-two spill applied to the front pair."""
        ranked = [
            self.replicas[name]
            for name in self.ring.preference(key)
            if self.replicas[name].routable
        ]
        if len(ranked) >= 2 and ranked[0].load > ranked[1].load + SPILL_THRESHOLD:
            self.registry.inc("balance.spills")
            ranked[0], ranked[1] = ranked[1], ranked[0]
        return ranked

    def _may_retry(self) -> bool:
        allowed = RETRY_BUDGET * max(BUDGET_FLOOR, self._requests_seen)
        return self._retries_spent < allowed

    def _try_timeout(self, query: dict) -> float:
        base = max(0.1, knobs.get_float("REPRO_BALANCE_TRY_TIMEOUT"))
        try:
            wait = float(query.get("wait", ["0"])[0])
        except ValueError:
            wait = 0.0
        # A long-poll legitimately holds the connection for ?wait=
        # seconds; the per-try timeout must cover it plus slack.
        return max(base, wait + 2.0)

    async def _forward_with_failover(
        self,
        candidates: list[ReplicaState],
        method: str,
        target: str,
        body: bytes | None,
        headers: dict[str, str],
        timeout: float,
        parent,
    ) -> tuple[int, object, dict[str, str], ReplicaState, int]:
        """Try each candidate in order; returns the first usable HTTP
        answer plus the replica that produced it and attempts spent.

        Transport errors, per-try timeouts and retryable statuses (429,
        503, 5xx) fail over to the next candidate — when the retry
        budget allows — and feed passive health detection.  Raises
        :class:`NoReplicaAvailable` when everything is exhausted."""
        last: tuple[int, object, dict[str, str], ReplicaState] | None = None
        attempts = 0
        for index, replica in enumerate(candidates):
            if index > 0:
                if not self._may_retry():
                    self.registry.inc("balance.budget_exhausted")
                    break
                self._retries_spent += 1
                self.registry.inc("balance.retries")
                self.registry.inc("balance.failovers")
            attempts += 1
            replica.inflight += 1
            started = time.monotonic()
            sp = tracing.start_span(
                "balance.try",
                parent=parent,
                replica=replica.name,
                **{"retry.attempt": attempts},
            )
            try:
                status, payload, resp_headers = await self._roundtrip(
                    replica,
                    method,
                    target,
                    body,
                    self._try_headers(headers, sp),
                    timeout,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                # The failover loop absorbs the error; record_failure
                # and the balancer counters keep it observable.
                replica.record_failure(type(exc).__name__)
                self.registry.inc("balance.upstream_errors")
                self._maybe_eject(replica, sp)
                sp.set(error=type(exc).__name__)
                sp.end()
                continue
            finally:
                replica.inflight -= 1
            latency = time.monotonic() - started
            if status in (429, 503) or status >= 500:
                replica.record_failure(f"HTTP {status}")
                self._maybe_eject(replica, sp)
                sp.set(status=status)
                sp.end()
                last = (status, payload, resp_headers, replica)
                continue
            replica.record_success(latency)
            sp.set(status=status)
            sp.end()
            return status, payload, resp_headers, replica, attempts
        if last is not None:
            status, payload, resp_headers, replica = last
            return status, payload, resp_headers, replica, attempts
        raise NoReplicaAvailable("no healthy replica answered")

    def _maybe_eject(self, replica: ReplicaState, sp) -> None:
        if not replica.routable:
            return
        reason = replica.should_eject()
        if reason is not None:
            replica.eject(time.monotonic(), reason)
            self.registry.inc("balance.ejections")
            self._event_span("balance.eject", replica.name)
            sp.set(ejected=True)

    # request handling ------------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes, headers: dict[str, str]
    ) -> tuple[int, object, list[tuple[str, str]]]:
        if not tracing.tracing_enabled():
            return await self._route_inner(method, target, body, headers)
        parent = tracing.parse_traceparent(headers.get("traceparent"))
        with tracing.span(
            "balance.request",
            parent=parent,
            method=method,
            path=urlsplit(target).path,
        ) as sp:
            status, payload, extra = await self._route_inner(
                method, target, body, headers, sp.span
            )
            sp.set(status=status)
            echo = sp.traceparent()
            if echo:
                extra = list(extra) + [("traceparent", echo)]
            return status, payload, extra

    async def _route_inner(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str],
        parent=None,
    ) -> tuple[int, object, list[tuple[str, str]]]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        self.registry.inc("balance.http_requests")

        if path == "/healthz" and method == "GET":
            return 200, self._health(), []
        if path == "/readyz" and method == "GET":
            ready = any(r.routable and r.ready for r in self.replicas.values())
            return (200 if ready else 503), {
                "ready": ready,
                "role": "balancer",
                "replicas": {
                    name: r.state for name, r in self.replicas.items()
                },
            }, []
        if path == "/metrics" and method == "GET":
            tree = self._metrics()
            if ServiceServer._wants_prometheus(query, headers):
                return 200, to_prometheus(tree), []
            return 200, tree, []
        if path == "/v1/jobs" and method == "POST":
            return await self._submit(target, body, headers, query, parent)
        if path.startswith("/v1/jobs/") and method == "GET":
            return await self._poll(
                path[len("/v1/jobs/"):], target, headers, query, parent
            )
        if path in ("/v1/jobs", "/v1/batch", "/v1/traces") or path.startswith(
            "/v1/traces/"
        ):
            # Listings, batches and trace lookups go to any live replica.
            return await self._proxy_any(method, target, body, headers, parent)
        return 404, {"error": f"no route for {path}"}, []

    def _health(self) -> dict:
        return {
            "status": "ok" if self._routable() else "degraded",
            "role": "balancer",
            "uptime_seconds": round(time.time() - self.started, 3),
            "replicas": [r.as_dict() for r in self.replicas.values()],
        }

    def _metrics(self) -> dict:
        return {
            "balancer": self.registry.as_dict(),
            "retry_budget": {
                "requests_seen": self._requests_seen,
                "retries_spent": self._retries_spent,
                "ratio": RETRY_BUDGET,
            },
            "replicas": [r.as_dict() for r in self.replicas.values()],
            **(
                {"cluster": self.cluster.info()}
                if self.cluster is not None
                else {}
            ),
        }

    def _forward_headers(self, headers: dict[str, str]) -> dict[str, str]:
        out = {}
        traceparent = headers.get("traceparent")
        if traceparent:
            out["traceparent"] = traceparent
        return out

    @staticmethod
    def _try_headers(headers: dict[str, str], sp) -> dict[str, str]:
        """*headers* for one upstream try: the ``balance.try`` span's own
        ``traceparent`` replaces the client's, so the replica's
        ``service.request`` nests under the try that carried it.  With
        tracing off the client's header passes through unchanged."""
        traceparent = sp.traceparent()
        return dict(headers, traceparent=traceparent) if traceparent else headers

    async def _submit(
        self,
        target: str,
        body: bytes,
        headers: dict[str, str],
        query: dict,
        parent,
    ) -> tuple[int, object, list[tuple[str, str]]]:
        self._requests_seen += 1
        self.registry.inc("balance.requests")
        try:
            spec = json.loads(body) if body else None
        except ValueError:
            return 400, {"error": "request body is not valid JSON"}, []
        # Validate a *copy* for routing: extract_traceparent pops the
        # traceparent field, and the original body must be forwarded
        # byte-for-byte so the replica sees exactly what the client sent.
        try:
            probe = dict(spec) if isinstance(spec, dict) else spec
            if isinstance(probe, dict):
                probe.pop("traceparent", None)
            key = job_key(validate_job(probe))
        except ValidationError as exc:
            self.registry.inc("balance.validation_rejects")
            return 400, {"error": "invalid job", "details": exc.errors}, []
        candidates = self._preference(key)
        if not candidates:
            self.registry.inc("balance.no_replica")
            return (
                503,
                {"error": "no healthy replica available"},
                [("Retry-After", "1")],
            )
        try:
            status, payload, _resp, replica, attempts = (
                await self._forward_with_failover(
                    candidates,
                    "POST",
                    target,
                    body,
                    self._forward_headers(headers),
                    self._try_timeout(query),
                    parent,
                )
            )
        except NoReplicaAvailable:
            self.registry.inc("balance.no_replica")
            return (
                503,
                {"error": "no healthy replica answered"},
                [("Retry-After", "1")],
            )
        if isinstance(payload, dict):
            payload["balancer"] = {
                "replica": replica.name,
                "attempts": attempts,
                "rerouted": attempts > 1,
            }
        return status, payload, []

    async def _poll(
        self,
        job_id: str,
        target: str,
        headers: dict[str, str],
        query: dict,
        parent,
    ) -> tuple[int, object, list[tuple[str, str]]]:
        self._requests_seen += 1
        self.registry.inc("balance.polls")
        owner, _, _ = job_id.partition("-job-")
        replica = self.replicas.get(owner)
        if replica is None or not replica.routable:
            # The owning replica is gone (or unknown id shape): its
            # in-memory record is unreachable.  404 tells the client to
            # reroute — resubmit the idempotent job elsewhere.
            self.registry.inc("balance.jobs_lost")
            return (
                404,
                {"error": f"job {job_id!r} unreachable", "lost": True},
                [],
            )
        sp = tracing.start_span(
            "balance.try",
            parent=parent,
            replica=replica.name,
            **{"retry.attempt": 1},
        )
        replica.inflight += 1
        started = time.monotonic()
        try:
            status, payload, _resp = await self._roundtrip(
                replica,
                "GET",
                target,
                None,
                self._try_headers(self._forward_headers(headers), sp),
                self._try_timeout(query),
            )
        except (OSError, asyncio.TimeoutError) as exc:
            # Absorbed by design: the 404 turns into a client-side
            # reroute; record_failure keeps the event observable.
            replica.record_failure(type(exc).__name__)
            self.registry.inc("balance.upstream_errors")
            self._maybe_eject(replica, sp)
            sp.set(error=type(exc).__name__)
            sp.end()
            self.registry.inc("balance.jobs_lost")
            return (
                404,
                {"error": f"job {job_id!r} unreachable", "lost": True},
                [],
            )
        finally:
            replica.inflight -= 1
        replica.record_success(time.monotonic() - started)
        sp.set(status=status)
        sp.end()
        return status, payload, []

    async def _proxy_any(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str],
        parent,
    ) -> tuple[int, object, list[tuple[str, str]]]:
        self._requests_seen += 1
        candidates = sorted(self._routable(), key=lambda r: r.load)
        if not candidates:
            return (
                503,
                {"error": "no healthy replica available"},
                [("Retry-After", "1")],
            )
        try:
            status, payload, _resp, _replica, _attempts = (
                await self._forward_with_failover(
                    candidates,
                    method,
                    target,
                    body or None,
                    self._forward_headers(headers),
                    self._try_timeout({}),
                    parent,
                )
            )
        except NoReplicaAvailable:
            return (
                503,
                {"error": "no healthy replica answered"},
                [("Retry-After", "1")],
            )
        return status, payload, []
