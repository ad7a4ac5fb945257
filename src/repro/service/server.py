"""The asyncio HTTP/JSON front-end: ``repro serve``.

A deliberately small, dependency-free HTTP/1.1 server over
``asyncio.start_server`` — request line + headers + ``Content-Length``
body, keep-alive connections, JSON in and out.  All simulation work goes
through the :class:`~repro.service.scheduler.JobScheduler`; the server
only translates HTTP into scheduler calls and job states into status
codes:

====== ==============================================================
status  meaning
====== ==============================================================
200     job finished (result inline) / health / metrics / listings
202     job accepted or still running (poll ``/v1/jobs/<id>``)
400     malformed JSON or a validation failure (every finding listed)
404     unknown path or job id
429     admission refused: queue full (``Retry-After`` header set)
503     draining for shutdown, not ready (``/readyz``), or an injected
        ``service.queue`` fault
====== ==============================================================

``/healthz`` is *liveness* (the process answers); ``/readyz`` is
*readiness* (workers spawned and not draining) — the cluster balancer
routes only to ready replicas, so a replica still warming up or already
draining never receives traffic it would strand.

``?wait=SECONDS`` on submission or polling long-polls for completion
(bounded by ``max_wait``), so a synchronous client costs one round
trip.  ``SIGTERM``/``SIGINT`` trigger a graceful drain: intake stops
(503), in-flight jobs finish, workers join, then the listener closes.

Observability: ``/metrics`` serves JSON by default and the Prometheus
text exposition with ``?format=prom`` (or an ``Accept`` preferring
``text/plain``).  With ``REPRO_TRACE=1`` every request is a
``service.request`` span joining the caller's ``traceparent`` (echoed
back as a response header), every dict response carries
``server_seconds`` (this request's handling time), and
``/v1/traces/<id>`` returns one trace's spans from the server's flight
recorder — worker spans included, since they ship back with each job
result.  See ``docs/observability.md``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from urllib.parse import parse_qs, urlsplit

from repro.faults import FaultInjected
from repro.service.protocol import ValidationError
from repro.service.scheduler import Draining, JobScheduler, QueueFull
from repro.telemetry import timeline
from repro.telemetry import trace as tracing
from repro.telemetry.export import to_prometheus

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body accepted (a batch of a few thousand specs).
MAX_BODY_BYTES = 4 * 1024 * 1024


class KeepAliveConnections:
    """The keep-alive HTTP/1.1 connections of one front end (the service
    or the balancer).

    :meth:`serve` is the ``asyncio.start_server`` callback: it answers
    one request after another with *route* (a last-resort 500 if that
    raises) until the peer closes or asks to, the connection idles past
    *idle_timeout*, or :meth:`close` runs.  A connection torn
    mid-request counts in *registry* as *torn_counter*.
    """

    def __init__(
        self, route, registry, torn_counter: str, idle_timeout: float
    ) -> None:
        self.route = route
        self.registry = registry
        self.torn_counter = torn_counter
        self.idle_timeout = idle_timeout
        self._tasks: set[asyncio.Task] = set()
        self._closing = False

    async def serve(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            # The flag ends the loop even when close()'s cancel is lost:
            # Python 3.11's wait_for drops a cancel that lands just as
            # readline() completes, and the handler would then serve
            # that request and idle in readline() again.
            while not self._closing:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self.idle_timeout
                    )
                except asyncio.TimeoutError:
                    break
                if not line.strip():
                    if not line:
                        break  # peer closed
                    continue
                parts = line.decode("latin-1").split()
                if len(parts) != 3:
                    await respond(writer, 400, {"error": "bad request line"})
                    break
                method, target, version = parts
                headers = await read_headers(reader)
                if headers is None:
                    break
                length = int(headers.get("content-length", "0") or 0)
                if length > MAX_BODY_BYTES:
                    await respond(writer, 400, {"error": "body too large"})
                    break
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload, extra = await self.route(
                        method.upper(), target, body, headers
                    )
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    status, payload, extra = (
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                        [],
                    )
                close = (
                    headers.get("connection", "").lower() == "close"
                    or version == "HTTP/1.0"
                )
                await respond(writer, status, payload, extra, close)
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,
        ):
            # A torn connection only ends this keep-alive session; the
            # counter keeps (balancer-induced) churn visible in /metrics.
            self.registry.inc(self.torn_counter)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - peer already gone
                pass

    async def close(self) -> None:
        """End every connection (idle keep-alives would otherwise pin the
        loop): mark them closing, cancel them, wait for them to finish."""
        self._closing = True
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)


async def read_headers(reader) -> dict[str, str] | None:
    """The header block of one HTTP message (``None`` at end-of-file)."""
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            return None
        if line in (b"\r\n", b"\n"):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def respond(
    writer,
    status: int,
    payload: object,
    extra_headers: list[tuple[str, str]] | None = None,
    close: bool = False,
) -> None:
    """Write one HTTP response: JSON, or text for a ``str`` payload."""
    if isinstance(payload, str):
        # Plain-text exposition (Prometheus /metrics).
        body = payload.encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload) + "\n").encode()
        content_type = "application/json"
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: " + ("close" if close else "keep-alive"),
    ]
    for name, value in extra_headers or []:
        head.append(f"{name}: {value}")
    writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
    await writer.drain()


class ServiceServer:
    """One listening service instance around a :class:`JobScheduler`."""

    def __init__(
        self,
        scheduler: JobScheduler,
        host: str = "127.0.0.1",
        port: int = 8000,
        max_wait: float = 60.0,
        idle_timeout: float = 120.0,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.max_wait = max_wait
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._connections = KeepAliveConnections(
            self._route,
            scheduler.registry,
            "service.connection_errors",
            idle_timeout,
        )

    # lifecycle -------------------------------------------------------------

    async def start(self) -> int:
        """Bind and listen; returns the actual port (``port=0`` picks)."""
        self._server = await asyncio.start_server(
            self._connections.serve, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def request_shutdown(self) -> None:
        """Signal-safe trigger for a graceful drain."""
        self._shutdown.set()

    async def run(
        self,
        drain_timeout: float = 30.0,
        install_signal_handlers: bool = True,
    ) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except NotImplementedError:  # pragma: no cover - windows
                    pass
        await self._shutdown.wait()
        await self.shutdown(drain_timeout)

    async def shutdown(self, drain_timeout: float = 30.0) -> None:
        """Graceful drain: stop intake, finish in-flight work, close."""
        # Runs in a thread: drain() blocks on the pool's supervision
        # thread, and in-flight jobs still need this event loop alive to
        # answer their long-polls.
        await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.drain, drain_timeout
        )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._connections.close()
        self._shutdown.set()

    # routing ---------------------------------------------------------------

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, object, list[tuple[str, str]]]:
        """Dispatch one request; with tracing on, wrapped in a
        ``service.request`` span that joins the client's trace (incoming
        ``traceparent`` header) and is echoed back as a ``traceparent``
        response header so clients learn their trace id."""
        headers = headers or {}
        started = time.monotonic()
        if not tracing.tracing_enabled():
            status, payload, extra = await self._route_inner(
                method, target, body, headers
            )
        else:
            with tracing.span(
                "service.request",
                parent=tracing.parse_traceparent(headers.get("traceparent")),
                method=method,
                path=urlsplit(target).path,
            ) as sp:
                status, payload, extra = await self._route_inner(
                    method, target, body, headers
                )
                sp.set(status=status)
                echo = sp.traceparent()
                if echo:
                    extra = list(extra) + [("traceparent", echo)]
        if isinstance(payload, dict):
            # Server-side handling time for this very request — what
            # loadgen subtracts from client latency to make network +
            # queueing visible.
            payload.setdefault(
                "server_seconds", round(time.monotonic() - started, 6)
            )
        return status, payload, extra

    async def _route_inner(
        self, method: str, target: str, body: bytes, headers: dict[str, str]
    ) -> tuple[int, object, list[tuple[str, str]]]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        registry = self.scheduler.registry
        registry.inc("service.http_requests")

        if path == "/healthz" and method == "GET":
            return 200, self.scheduler.health(), []
        if path == "/readyz" and method == "GET":
            ready = self.scheduler.ready()
            payload = {
                "ready": ready,
                "name": self.scheduler.name or None,
                "queue_depth": self.scheduler.queue_depth,
                "max_queue": self.scheduler.max_queue,
            }
            return (200 if ready else 503), payload, []
        if path == "/metrics" and method == "GET":
            tree = self.scheduler.metrics()
            if self._wants_prometheus(query, headers):
                return 200, to_prometheus(tree), []
            return 200, tree, []
        if path == "/v1/jobs" and method == "POST":
            return await self._submit_one(body, query)
        if path == "/v1/batch" and method == "POST":
            return await self._submit_batch(body)
        if path == "/v1/jobs" and method == "GET":
            return 200, {"jobs": self.scheduler.jobs()}, []
        if path.startswith("/v1/jobs/") and method == "GET":
            return await self._poll(path[len("/v1/jobs/"):], query)
        if path == "/v1/traces" and method == "GET":
            spans = tracing.recorder.spans()
            return 200, {"traces": timeline.trace_summaries(spans)}, []
        if path.startswith("/v1/traces/") and method == "GET":
            return self._trace(path[len("/v1/traces/"):])
        if path in (
            "/healthz",
            "/readyz",
            "/metrics",
            "/v1/jobs",
            "/v1/batch",
            "/v1/traces",
        ):
            return 405, {"error": f"method {method} not allowed"}, []
        return 404, {"error": f"no route for {path}"}, []

    @staticmethod
    def _wants_prometheus(query: dict, headers: dict[str, str]) -> bool:
        """``?format=prom`` or an Accept preferring text/plain selects
        the Prometheus exposition; JSON stays the default."""
        requested = query.get("format", [""])[0].lower()
        if requested in ("prom", "prometheus", "text"):
            return True
        if requested:  # explicit ?format=json (or anything else)
            return False
        accept = headers.get("accept", "")
        return "text/plain" in accept and "application/json" not in accept

    def _trace(self, trace_id: str) -> tuple[int, dict, list[tuple[str, str]]]:
        """One trace's spans from the server's flight recorder (worker
        spans included — they ship back with each job result)."""
        if not tracing.tracing_enabled():
            return (
                404,
                {"error": "tracing is off (set REPRO_TRACE=1)"},
                [],
            )
        spans = tracing.recorder.find(trace_id)
        if not spans:
            return 404, {"error": f"unknown trace {trace_id!r}"}, []
        spans.sort(key=lambda s: s.start)
        return (
            200,
            {
                "trace_id": spans[0].trace_id,
                "spans": [span.as_dict() for span in spans],
            },
            [],
        )

    def _wait_seconds(self, query: dict) -> float:
        try:
            wait = float(query.get("wait", ["0"])[0])
        except ValueError:
            return 0.0
        return max(0.0, min(wait, self.max_wait))

    @staticmethod
    def _parse_body(body: bytes) -> object:
        if not body:
            raise ValidationError(["empty request body"])
        try:
            return json.loads(body)
        except ValueError:
            raise ValidationError(["request body is not valid JSON"]) from None

    async def _await_record(self, record, wait: float) -> None:
        if wait <= 0 or record.status in ("done", "failed"):
            return
        loop = asyncio.get_running_loop()
        event = asyncio.Event()
        if not self.scheduler.register_waiter(record, loop, event):
            return
        try:
            await asyncio.wait_for(event.wait(), wait)
        except asyncio.TimeoutError:
            pass

    def _record_response(
        self, record, disposition: str
    ) -> tuple[int, dict, list[tuple[str, str]]]:
        payload = record.to_dict()
        payload["disposition"] = disposition
        return (200 if record.status in ("done", "failed") else 202), payload, []

    async def _submit_one(
        self, body: bytes, query: dict
    ) -> tuple[int, dict, list[tuple[str, str]]]:
        registry = self.scheduler.registry
        try:
            record, disposition = self.scheduler.submit(self._parse_body(body))
        except ValidationError as exc:
            registry.inc("service.jobs_invalid")
            return 400, {"error": "invalid job", "details": exc.errors}, []
        except QueueFull as exc:
            retry = max(1, round(exc.retry_after))
            return (
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                [("Retry-After", str(retry))],
            )
        except Draining:
            return (
                503,
                {"error": "service is draining"},
                [("Retry-After", "1")],
            )
        except FaultInjected as exc:
            registry.inc("service.queue_faults")
            return (
                503,
                {"error": f"transient queue failure: {exc}"},
                [("Retry-After", "1")],
            )
        await self._await_record(record, self._wait_seconds(query))
        return self._record_response(record, disposition)

    async def _submit_batch(
        self, body: bytes
    ) -> tuple[int, dict, list[tuple[str, str]]]:
        try:
            payload = self._parse_body(body)
        except ValidationError as exc:
            return 400, {"error": "invalid batch", "details": exc.errors}, []
        if not isinstance(payload, dict) or not isinstance(
            payload.get("jobs"), list
        ):
            return 400, {"error": "batch body must be {'jobs': [...]}"}, []
        items: list[dict] = []
        accepted = 0
        for spec in payload["jobs"]:
            try:
                record, disposition = self.scheduler.submit(spec)
            except ValidationError as exc:
                items.append({"accepted": False, "details": exc.errors})
            except QueueFull as exc:
                items.append(
                    {
                        "accepted": False,
                        "details": [str(exc)],
                        "retry_after": exc.retry_after,
                    }
                )
            except (Draining, FaultInjected) as exc:
                items.append({"accepted": False, "details": [str(exc)]})
            else:
                accepted += 1
                items.append(
                    {
                        "accepted": True,
                        "id": record.id,
                        "status": record.status,
                        "disposition": disposition,
                    }
                )
        return 200, {"jobs": items, "accepted": accepted}, []

    async def _poll(
        self, job_id: str, query: dict
    ) -> tuple[int, dict, list[tuple[str, str]]]:
        record = self.scheduler.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, []
        await self._await_record(record, self._wait_seconds(query))
        return self._record_response(record, "poll")


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int | None = None,
    max_queue: int = 64,
    job_timeout: float | None = None,
    retries: int = 2,
    drain_timeout: float = 30.0,
    start_method: str | None = None,
    quiet: bool = False,
    name: str = "",
) -> int:
    """Build the pool + scheduler + server and serve until a signal.

    The blocking entry point behind ``repro serve``.
    """
    from repro.sim.batch import _run_job
    from repro.sim.supervisor import SupervisorConfig, WorkerPool

    tracing.set_process_role("server")
    pool = WorkerPool(
        _run_job,
        processes=workers,
        config=SupervisorConfig(
            timeout=job_timeout,
            max_attempts=max(1, retries + 1),
        ),
        requested_start_method=start_method,
    )
    scheduler = JobScheduler(pool, max_queue=max_queue, name=name)
    server = ServiceServer(scheduler, host=host, port=port)

    async def main() -> None:
        actual = await server.start()
        if not quiet:
            info = pool.info()
            mode = (
                "serial (in-process)"
                if info["serial"]
                else f"{info['processes']} worker process(es)"
            )
            label = f"repro service {name}" if name else "repro service"
            print(
                f"{label} listening on http://{server.host}:{actual} "
                f"— {mode}, queue bound {max_queue}",
                file=sys.stderr,
            )
        await server.run(drain_timeout=drain_timeout)
        if not quiet:
            print("repro service drained and stopped.", file=sys.stderr)

    asyncio.run(main())
    return 0
