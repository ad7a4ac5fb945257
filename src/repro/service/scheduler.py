"""Admission control, request coalescing and the job registry.

The scheduler sits between the HTTP front-end (:mod:`.server`) and the
persistent :class:`~repro.sim.supervisor.WorkerPool`:

* **Admission control** — at most ``max_queue`` distinct jobs may be
  unfinished at once; past that, submission raises :class:`QueueFull`
  carrying a Retry-After estimate (queue depth x a decaying average of
  recent job durations / worker count), which the server turns into
  HTTP 429.  :class:`Draining` (HTTP 503) rejects work once shutdown
  has begun.
* **Request coalescing (single-flight)** — jobs are keyed by
  :func:`~repro.service.protocol.job_key`; N identical concurrent
  requests share one :class:`JobRecord` and cost one simulation.
  Completed results are kept in a bounded LRU, so repeats of a finished
  job are served instantly without touching the pool (the workers'
  persistent disk cache covers repeats across server restarts).
* **Job registry** — every admitted job gets an id and a
  :class:`JobRecord` clients can poll; terminal records (``done`` /
  ``failed``) are evicted oldest-first once ``completed_capacity`` is
  exceeded.  Failed jobs are *not* served from the LRU: resubmitting
  one runs it again.

Every mutation happens under one lock and every counter lands in the
shared :class:`repro.telemetry.MetricsRegistry`, which ``/metrics``
exposes.  The ``service.queue`` fault-injection site fires inside
admission, proving an injected queue failure rejects the request
cleanly instead of losing an accepted job.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro import faults
from repro.service.protocol import extract_traceparent, job_key, validate_job
from repro.sim import cache as result_cache
from repro.sim.batch import SimJob
from repro.sim.supervisor import PoolDraining, PoolJobError, WorkerPool
from repro.telemetry import MetricsRegistry
from repro.telemetry import trace as tracing


class QueueFull(RuntimeError):
    """Admission refused: the unfinished-job queue is at its bound."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"job queue is full; retry after {retry_after:.1f}s"
        )
        self.retry_after = retry_after


class Draining(RuntimeError):
    """Admission refused: the service is shutting down."""


@dataclass(slots=True)
class JobRecord:
    """One admitted (or remembered) job and everything a client may ask."""

    id: str
    job: SimJob
    key: str
    status: str = "running"  # running | done | failed
    result: dict | None = None
    error: str | None = None
    outcome: dict | None = None
    created: float = field(default_factory=time.time)
    finished: float | None = None
    #: How many requests this record absorbed beyond the first.
    coalesced: int = 0
    future: Any = None
    #: ``(loop, asyncio.Event)`` pairs to poke when the job finishes.
    waiters: list = field(default_factory=list)
    #: Live ``service.job`` span handle (ended in ``_on_done``) and its
    #: trace id, exposed to clients so ``repro trace <id>`` can find the
    #: job's whole tree.  ``None`` while tracing is off.
    trace: Any = None
    trace_id: str | None = None

    def to_dict(self, include_result: bool = True) -> dict:
        from dataclasses import asdict

        record = {
            "id": self.id,
            "status": self.status,
            "job": asdict(self.job),
            "created": round(self.created, 6),
            "finished": (
                round(self.finished, 6) if self.finished is not None else None
            ),
            "coalesced": self.coalesced,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if include_result:
            record["result"] = self.result
        if self.error is not None:
            record["error"] = self.error
        if self.outcome is not None:
            record["outcome"] = self.outcome
        return record


class JobScheduler:
    """See the module docstring; one instance per server."""

    def __init__(
        self,
        pool: WorkerPool,
        registry: MetricsRegistry | None = None,
        max_queue: int = 64,
        completed_capacity: int = 1024,
        name: str = "",
    ) -> None:
        self.pool = pool
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_queue = max_queue
        self.completed_capacity = completed_capacity
        #: Replica name: prefixes every job id (``r1-job-000001``) so a
        #: cluster's front balancer can route a poll straight back to
        #: the replica that issued the id.  Empty for a standalone
        #: server (historical ``job-NNNNNN`` ids).
        self.name = name
        self._lock = threading.Lock()
        self._by_id: dict[str, JobRecord] = {}
        self._inflight: dict[str, JobRecord] = {}
        #: key -> finished-ok record, LRU over completed_capacity.
        self._memo: OrderedDict[str, JobRecord] = OrderedDict()
        #: Terminal record ids in finish order, for registry eviction.
        self._finished_ids: list[str] = []
        self._next_id = 0
        self._ewma_seconds: float | None = None
        self._draining = False
        self._started = time.time()

    # admission -------------------------------------------------------------

    def submit(self, payload: object) -> tuple[JobRecord, str]:
        """Admit one request; returns ``(record, disposition)``.

        Disposition is ``"memo"`` (finished result served instantly),
        ``"coalesced"`` (attached to an identical in-flight job) or
        ``"new"`` (admitted and handed to the pool).  Raises
        :class:`~repro.service.protocol.ValidationError`,
        :class:`QueueFull`, :class:`Draining`, or
        :class:`~repro.faults.FaultInjected` from the ``service.queue``
        chaos site — all *before* the job is accepted, so an admitted
        job is never lost to any of them.
        """
        # Trace context rides outside the job description: popped here
        # so it can never perturb the coalescing / journal / cache key.
        trace_parent = extract_traceparent(payload)
        job = validate_job(payload)
        key = job_key(job)
        with self._lock:
            if self._draining:
                raise Draining("service is draining")
            memo = self._memo.get(key)
            if memo is not None:
                self._memo.move_to_end(key)
                memo.coalesced += 1
                self.registry.inc("service.jobs_memo")
                return memo, "memo"
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.coalesced += 1
                self.registry.inc("service.jobs_coalesced")
                return inflight, "coalesced"
            if len(self._inflight) >= self.max_queue:
                self.registry.inc("service.jobs_rejected_queue_full")
                raise QueueFull(self._retry_after_locked())
            # Chaos site: an injected queue failure must reject the
            # request cleanly (the job is not yet accepted).
            faults.maybe_fail("service.queue", token=key)
            self._next_id += 1
            prefix = f"{self.name}-" if self.name else ""
            record = JobRecord(
                id=f"{prefix}job-{self._next_id:06d}", job=job, key=key
            )
            self._by_id[record.id] = record
            self._inflight[key] = record
            self.registry.inc("service.jobs_admitted")
        # The job's root span: opened at admission, ended in _on_done.
        # Parent precedence: explicit payload traceparent, else the
        # ambient context (the server's service.request span).
        if trace_parent is not None:
            handle = tracing.start_span(
                "service.job",
                parent=tracing.parse_traceparent(trace_parent),
                id=record.id,
            )
        else:
            handle = tracing.start_span("service.job", id=record.id)
        if handle.span is not None:
            record.trace = handle
            record.trace_id = handle.span.trace_id
        try:
            future = self.pool.submit(job, trace_parent=handle.traceparent())
        except PoolDraining:
            handle.end(error="worker pool draining")
            with self._lock:
                self._inflight.pop(key, None)
                self._by_id.pop(record.id, None)
            raise Draining("worker pool is draining") from None
        record.future = future
        future.add_done_callback(lambda f, r=record: self._on_done(r, f))
        return record, "new"

    def _retry_after_locked(self) -> float:
        workers = max(1, self.pool.processes or 1)
        per_job = self._ewma_seconds if self._ewma_seconds else 0.5
        estimate = len(self._inflight) * per_job / workers
        return min(30.0, max(0.2, estimate))

    @property
    def retry_after(self) -> float:
        with self._lock:
            return self._retry_after_locked()

    # completion (fires on the pool's supervision thread) -------------------

    def _on_done(self, record: JobRecord, future: Any) -> None:
        now = time.time()
        try:
            stats = future.result()
        except PoolJobError as exc:
            with self._lock:
                record.status = "failed"
                record.error = str(exc)
                record.outcome = exc.outcome.as_dict()
                self._finish_locked(record, now)
                self.registry.inc("service.jobs_failed")
            if record.trace is not None:
                record.trace.end(error=record.error)
        except BaseException as exc:
            with self._lock:
                record.status = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
                self._finish_locked(record, now)
                self.registry.inc("service.jobs_failed")
            if record.trace is not None:
                record.trace.end(error=record.error)
        else:
            with self._lock:
                record.status = "done"
                record.result = stats.as_dict()
                self._finish_locked(record, now)
                self._memo[record.key] = record
                self.registry.inc("service.jobs_completed")
                elapsed = max(0.0, now - record.created)
                self.registry.observe("service.job_seconds", elapsed)
                if self._ewma_seconds is None:
                    self._ewma_seconds = elapsed
                else:
                    self._ewma_seconds = (
                        0.7 * self._ewma_seconds + 0.3 * elapsed
                    )
            if record.trace is not None:
                record.trace.end()
        waiters, record.waiters = record.waiters, []
        for loop, event in waiters:
            loop.call_soon_threadsafe(event.set)

    def _finish_locked(self, record: JobRecord, now: float) -> None:
        record.finished = now
        self._inflight.pop(record.key, None)
        self._finished_ids.append(record.id)
        while len(self._finished_ids) > self.completed_capacity:
            evicted_id = self._finished_ids.pop(0)
            evicted = self._by_id.pop(evicted_id, None)
            if evicted is not None and self._memo.get(evicted.key) is evicted:
                del self._memo[evicted.key]

    # waiting ---------------------------------------------------------------

    def register_waiter(self, record: JobRecord, loop, event) -> bool:
        """Arrange for *event* to be set (via *loop*) when *record*
        finishes; returns False if it already has (nothing to wait for)."""
        with self._lock:
            if record.status in ("done", "failed"):
                return False
            record.waiters.append((loop, event))
            return True

    # introspection ---------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._by_id.get(job_id)

    def jobs(self, limit: int = 100) -> list[dict]:
        """Newest-first summaries of known jobs."""
        with self._lock:
            records = sorted(
                self._by_id.values(), key=lambda r: r.created, reverse=True
            )[:limit]
            return [record.to_dict(include_result=False) for record in records]

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._inflight)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def ready(self) -> bool:
        """Readiness (distinct from liveness): workers spawned and not
        draining — the ``/readyz`` predicate a balancer gates routing
        on, so a replica still warming up (or already drawing down)
        never receives traffic it would queue without serving."""
        with self._lock:
            if self._draining:
                return False
        return self.pool.ready

    def health(self) -> dict:
        with self._lock:
            depth = len(self._inflight)
            draining = self._draining
        return {
            "status": "draining" if draining else "ok",
            "name": self.name or None,
            "ready": self.ready(),
            "uptime_seconds": round(time.time() - self._started, 3),
            "queue_depth": depth,
            "max_queue": self.max_queue,
            "pool": self.pool.info(),
        }

    def metrics(self) -> dict:
        with self._lock:
            depth = len(self._inflight)
            memo_size = len(self._memo)
        return {
            "service": self.registry.as_dict(),
            "queue": {"depth": depth, "max": self.max_queue},
            "memo": {"size": memo_size, "capacity": self.completed_capacity},
            "pool": self.pool.info(),
            "result_cache": result_cache.stats.as_dict(),
        }

    # shutdown --------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, wait for in-flight jobs, drain the pool.

        Safe to call from any thread (the server calls it off the event
        loop).  Returns True when everything finished inside *timeout*.
        """
        with self._lock:
            self._draining = True
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            with self._lock:
                if not self._inflight:
                    break
            if deadline is not None and time.monotonic() > deadline:
                break
            time.sleep(0.02)
        remaining = None
        if deadline is not None:
            remaining = max(0.1, deadline - time.monotonic())
        drained = self.pool.drain(remaining)
        with self._lock:
            return drained and not self._inflight
