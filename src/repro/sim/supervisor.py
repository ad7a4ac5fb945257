"""Supervised job execution: one engine for sweeps, studies and the service.

:class:`WorkerPool` owns one :class:`multiprocessing.Process` per worker
slot and treats every job as a unit of recovery:

* **Per-job wall-clock timeouts** — a worker stuck past
  ``SupervisorConfig.timeout`` is terminated and its job requeued.
* **Bounded retries with exponential backoff + jitter** — each failed
  attempt (crash, timeout, exception) reschedules the job after
  ``backoff_base * backoff_factor**(attempt-1)`` seconds (capped,
  jittered from a seeded RNG) until ``max_attempts`` is exhausted.
* **Dead-worker detection and requeue** — a worker that exits (injected
  crash, OOM kill, segfault) closes its result pipe; the parent reads
  end-of-file, requeues the in-flight job and respawns the slot.
* **Degrade to serial** — after ``max_worker_failures`` worker deaths or
  hangs, the pool stops trusting its workers: attempts in flight go
  back on the schedule, the workers are terminated, and the pool runs
  on with zero slots (still honouring the retry budget).
* **Per-job audit** — every job resolves to a :class:`JobOutcome`
  (``ok``/``retried``/``timeout``/``crashed``/``skipped``, attempt
  count, per-attempt failure reasons, wall time) folded into
  :class:`repro.sim.batch.BatchReport` and the telemetry manifest.

One supervision loop serves every pool.  A pool with ``processes=0`` (or
no usable start method) is a pool with zero worker slots, whose
supervision thread runs each due attempt itself, one per pass.  Every
attempt, first or retry, waits on one due-time heap, and the loop
sleeps in one ``multiprocessing.connection.wait`` on a wakeup socket
(written by ``submit``/``drain``/``cancel``) and the workers' result
pipes, until the next due retry or job timeout — never a poll period,
never a backoff sleep.

The service submits an open-ended stream of jobs to a long-lived pool.
:func:`run_supervised` is the batch façade over the same pool: it serves
journalled jobs from a :class:`SweepJournal` (so ``repro sweep --resume
DIR`` after any interruption skips finished work and reproduces results
**bit-identically**), submits the rest, journals each completion the
moment it arrives, and raises :class:`BatchError` naming any job it could
not complete.

Every recovery path is provable on demand with the deterministic fault
harness (:mod:`repro.faults`, ``REPRO_FAULTS=...``): each attempt fires
the ``batch.worker`` site with the job index and attempt number, and the
pool fires ``service.handoff`` at every dispatch (to a worker or to
itself), so an injected crash/hang/exception schedule is reproducible
across processes.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import base64
import concurrent.futures
import hashlib
import heapq
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue
import random
import socket
import threading
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Callable

from repro import faults
from repro.sim import cache as result_cache
from repro.telemetry import trace as tracing

#: Journal file name inside a sweep/journal directory.
JOURNAL_NAME = "journal.jsonl"
#: Bump on incompatible journal-line layout changes.
JOURNAL_VERSION = 1

#: Final :class:`JobOutcome` statuses that mean "no result produced".
FAILED_STATUSES = ("timeout", "crashed")


class BatchError(RuntimeError):
    """A batch could not produce a result for every job.

    Carries the full per-job audit trail in :attr:`outcomes` so callers
    (and CI logs) can see exactly which jobs were lost and why.
    """

    def __init__(self, message: str, outcomes: list["JobOutcome"] | None = None):
        super().__init__(message)
        self.outcomes = outcomes or []


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Retry/timeout/backoff policy for a supervised batch."""

    #: Per-job wall-clock timeout in seconds (``None`` = no timeout).
    #: Unenforceable in serial execution (nothing can preempt the job).
    timeout: float | None = None
    #: Total tries per job, first attempt included.
    max_attempts: int = 3
    #: Backoff before retry *k* (1-based): ``base * factor**(k-1)``,
    #: capped at ``backoff_max``, stretched by up to ``backoff_jitter``.
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    backoff_jitter: float = 0.25
    #: Seed of the jitter RNG — a fixed seed gives a reproducible delay
    #: schedule (the chaos tests rely on it staying small).
    backoff_seed: int = 0
    #: Worker deaths/hangs tolerated before degrading to serial.
    max_worker_failures: int = 8

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        return base * (1.0 + self.backoff_jitter * rng.random())


DEFAULT_CONFIG = SupervisorConfig()


@dataclass(slots=True)
class JobOutcome:
    """The audit record of one job's journey through the supervisor."""

    index: int
    job: dict
    #: ``ok`` (first try) | ``retried`` (ok after failures) | ``timeout``
    #: | ``crashed`` (worker death or exhausted exceptions) | ``skipped``
    #: (served by the resume journal).
    status: str = "pending"
    attempts: int = 0
    #: Job wall-clock across attempts (worker-measured; terminated
    #: attempts contribute their timeout).
    wall_seconds: float = 0.0
    #: One line per failed attempt: ``"attempt N: reason"``.
    failures: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "job": self.job,
            "status": self.status,
            "attempts": self.attempts,
            "wall_seconds": round(self.wall_seconds, 4),
            "failures": list(self.failures),
        }


def outcome_counts(outcomes: list[JobOutcome]) -> dict[str, int]:
    """Status histogram of *outcomes* (for summaries and manifests)."""
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts


@dataclass(slots=True)
class SupervisedRun:
    """What :func:`run_supervised` hands back."""

    results: list[Any]
    outcomes: list[JobOutcome]
    #: True when the supervisor stopped trusting worker processes and
    #: finished the remaining jobs in-process.
    degraded_serial: bool = False
    #: Worker deaths + hang terminations observed.
    worker_failures: int = 0


# -- sweep journal ------------------------------------------------------------


class SweepJournal:
    """Append-only JSONL record of completed jobs, enabling resume.

    Line 1 is a header binding the journal to the simulator sources and
    the check-relevant environment knobs (the same salts as the
    persistent result cache); a journal written by different code or
    under different ``REPRO_SANITIZE``/``REPRO_TELEMETRY`` settings is
    *stale* and is truncated on the next write instead of serving wrong
    results.  Every result line carries the job key, a digest-checked
    pickle of the result, and the job's :class:`JobOutcome` — each line
    is flushed as it is written, so an interrupt loses at most the job
    in flight.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._handle = None

    @staticmethod
    def job_key(job: Any) -> str:
        """Canonical string key of a (dataclass) job description."""
        record = asdict(job) if not isinstance(job, dict) else job
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    def _header(self) -> dict:
        return {
            "type": "header",
            "journal_version": JOURNAL_VERSION,
            "source_version": result_cache.source_version(),
            "check_env": list(result_cache._check_env_fingerprint()),
        }

    def load_completed(self) -> dict[str, Any]:
        """Results of previously journalled jobs, keyed by job key.

        Corrupt lines (e.g. the torn final line of a killed process) are
        skipped; a header mismatch marks the whole journal stale and
        returns nothing.
        """
        if not self.path.is_file():
            return {}
        header_ok = False
        entries: dict[str, Any] = {}
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn line from an interrupted writer
            if record.get("type") == "header":
                header_ok = record == self._header()
                if not header_ok:
                    return {}
                continue
            if not header_ok or record.get("type") != "result":
                continue
            try:
                blob = base64.b64decode(record["stats"])
                if hashlib.sha256(blob).hexdigest()[:16] != record["digest"]:
                    continue
                entries[record["key"]] = pickle.loads(blob)
            except Exception:
                continue  # damaged entry: recompute rather than trust it
        return entries if header_ok else {}

    def append(self, job: Any, result: Any, outcome: JobOutcome) -> None:
        """Journal one completed job (flushed immediately).

        The first append checks the existing header: a journal left by
        other code or under other check-env salts is started over, so
        every line written here is one a later resume can read.
        """
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                with self.path.open() as handle:
                    first = json.loads(handle.readline())
            except (OSError, ValueError):
                first = None  # missing, empty or torn
            fresh = first != self._header()
            self._handle = self.path.open("w" if fresh else "a")
            if fresh:
                self._handle.write(json.dumps(self._header()) + "\n")
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        line = {
            "type": "result",
            "key": self.job_key(job),
            "digest": hashlib.sha256(blob).hexdigest()[:16],
            "stats": base64.b64encode(blob).decode("ascii"),
            "outcome": outcome.as_dict(),
        }
        self._handle.write(json.dumps(line) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# -- worker side --------------------------------------------------------------


def _attempt(
    run_job: Callable[[Any], Any],
    index: int,
    attempt: int,
    job: Any,
    trace_parent: str | None,
) -> tuple[bool, Any, float]:
    """Run one attempt of one job: ``(ok, result or reason, seconds)``.

    The one attempt wrapper, whether a worker process or the supervision
    thread (a pool with no worker slots) runs it: it opens the attempt's
    ``batch.job`` span on the submitter's trace and fires the
    ``batch.worker`` chaos site.  Exceptions are *reported*, not raised
    — only a real crash (or an injected one, inside a worker) ends the
    attempt otherwise."""
    start = time.perf_counter()
    try:
        with tracing.span(
            "batch.job",
            parent=tracing.parse_traceparent(trace_parent),
            index=index,
            attempt=attempt,
        ):
            faults.maybe_fail("batch.worker", token=index, attempt=attempt)
            value = run_job(job)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        return False, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
    return True, value, time.perf_counter() - start


def _worker_main(worker_id: int, run_job, task_queue, result_conn) -> None:
    """Worker loop: pull ``(index, attempt, job, trace_parent)``, run it
    through :func:`_attempt` and send ``(ok, worker_id, index, attempt,
    value, cache_delta, seconds, spans)`` over this worker's *private*
    result pipe.  Module-level and closure-free so it pickles under
    ``spawn``.

    The result channel is a per-worker ``Pipe``, deliberately **not** a
    shared ``multiprocessing.Queue``: a queue serialises its writers
    through a cross-process lock taken by a background feeder thread,
    and a worker that dies abruptly (injected crash, timeout SIGKILL,
    OOM) between that thread's acquire and release leaks the lock
    forever, wedging every other worker's result delivery and
    deadlocking the supervisor.  With one single-writer pipe per worker
    a death can only sever that worker's own channel — the parent reads
    end-of-file, requeues the job and respawns the slot.

    Tracing: the shipped ``trace_parent`` joins this attempt's
    ``batch.job`` span to the parent's trace; the spans buffered in this
    worker's flight recorder ride back with every result message (and,
    when ``REPRO_TRACE_DIR`` is set, were already spilled to disk at
    record time — a crash-killed worker's spans survive there)."""
    faults.mark_worker()
    tracing.set_process_role("worker")
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, attempt, job, trace_parent = item
        before = result_cache.stats.snapshot()
        try:
            ok, value, seconds = _attempt(
                run_job, index, attempt, job, trace_parent
            )
        except KeyboardInterrupt:  # pragma: no cover - parent interrupt
            return
        message = (
            ok,
            worker_id,
            index,
            attempt,
            value,
            result_cache.stats.since(before),
            seconds,
            tracing.drain_spans(),
        )
        try:
            result_conn.send(message)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            return


# -- parent side --------------------------------------------------------------


def start_method(requested: str | None) -> str | None:
    """Resolve the worker start method: prefer ``fork`` (workers inherit
    warm caches), fall back to ``spawn``; ``None`` if neither exists."""
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        return requested if requested in available else None
    for method in ("fork", "spawn"):
        if method in available:
            return method
    return None


@dataclass(slots=True)
class _Worker:
    process: Any
    tasks: Any
    #: Parent-side receive end of this worker's private result pipe.
    conn: Any
    #: ``(index, attempt)`` in flight, or ``None`` when idle.
    busy: tuple[int, int] | None = None
    started: float = 0.0


# -- persistent worker pool ---------------------------------------------------


class PoolDraining(RuntimeError):
    """``submit()`` was called after ``drain()`` had started."""


class PoolJobError(RuntimeError):
    """A submitted job exhausted its retry budget.

    Carries the :class:`JobOutcome` audit record in :attr:`outcome` so
    callers can report *why* (per-attempt failure reasons, wall time).
    """

    def __init__(self, message: str, outcome: JobOutcome):
        super().__init__(message)
        self.outcome = outcome


class PoolFuture(concurrent.futures.Future):
    """What :meth:`WorkerPool.submit` returns: a future for the job's
    result whose :attr:`outcome` is the job's live :class:`JobOutcome`
    audit record (final once the future is done, whatever its end)."""

    outcome: JobOutcome


@dataclass(slots=True)
class _PoolTicket:
    """One submitted job in flight through the pool."""

    index: int
    job: Any
    future: PoolFuture
    outcome: JobOutcome
    #: ``traceparent`` the job's worker-side spans should join.
    trace_parent: str | None = None
    #: Submission wall-clock (epoch) for the ``pool.queue_wait`` span;
    #: 0 when the submitter named no trace (see :meth:`WorkerPool.submit`).
    submitted: float = 0.0


def _record_queue_wait(ticket: _PoolTicket) -> None:
    """Synthesize the ``pool.queue_wait`` span — submission to first
    dispatch — on the ticket's trace (no-op while tracing is off)."""
    if not tracing.tracing_enabled() or not ticket.submitted:
        return
    tracing.record_span(
        "pool.queue_wait",
        tracing.parse_traceparent(ticket.trace_parent),
        ticket.submitted,
        time.time(),
        index=ticket.index,
    )


class WorkerPool:
    """The supervised worker pool: timeouts, retries with backoff,
    dead-worker respawn and degrade-to-serial for a stream of jobs.

    * :meth:`submit` hands one job to the pool and returns a
      :class:`PoolFuture` resolving to the job's result, or failing with
      :class:`PoolJobError` (audit record attached) once the retry
      budget is spent.  Accepted jobs always resolve — a crashed or hung
      worker costs a retry, never the job.
    * :meth:`drain` stops intake (further submits raise
      :class:`PoolDraining`), lets queued and in-flight jobs finish,
      and joins the worker processes — the service's way out.
    * :meth:`cancel` stops intake and abandons everything still queued
      or in flight — the batch's interrupt path.

    ``processes=0`` (or no usable start method) is a pool with zero
    worker slots: the supervision thread runs each attempt itself (no
    timeouts, and the fault harness degrades injected crashes and hangs
    to exceptions).  Supervision runs on a daemon thread, so futures
    resolve off the caller's thread; asyncio callers bridge with
    ``asyncio.wrap_future``.
    """

    def __init__(
        self,
        run_job: Callable[[Any], Any],
        processes: int | None = None,
        config: SupervisorConfig | None = None,
        requested_start_method: str | None = None,
    ) -> None:
        self.run_job = run_job
        self.config = config or DEFAULT_CONFIG
        if self.config.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if processes is None:
            processes = os.cpu_count() or 1
        self._method = start_method(requested_start_method)
        self.processes = max(0, processes)
        self.serial = self.processes == 0 or self._method is None
        self.worker_failures = 0
        self.degraded_serial = False
        self._rng = random.Random(self.config.backoff_seed)
        self._seq = 0
        self._inbox: queue.Queue[_PoolTicket] = queue.Queue()
        self._live: dict[int, _PoolTicket] = {}
        #: Attempts waiting for their due time: ``(due, seq, index, attempt)``.
        self._pending: list[tuple[float, int, int, int]] = []
        #: Worker slots; empty for a serial (or degraded) pool.
        self._workers: list[_Worker] = []
        self._next_worker_id = 0
        #: Written by submit/drain/cancel to wake the supervision wait.
        self._wake, self._waker = socket.socketpair()
        self._wake.setblocking(False)
        self._waker.setblocking(False)
        self._draining = threading.Event()
        self._cancelled = threading.Event()
        #: Set once the worker processes are spawned (immediately for
        #: serial pools) — the ``/readyz`` signal: a pool that has not
        #: set this would queue jobs without anyone to run them.
        self._workers_started = threading.Event()
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._unfinished = 0
        self._thread = threading.Thread(
            target=self._supervise, name="repro-worker-pool", daemon=True
        )
        self._thread.start()

    # public surface --------------------------------------------------------

    def submit(self, job: Any, trace_parent: str | None = None) -> PoolFuture:
        """Queue *job*; the returned future resolves to its result.

        *trace_parent* is the ``traceparent`` the job's spans should
        join.  A submitter that names one (a request handing over its
        job) also gets the time between submission and dispatch as a
        ``pool.queue_wait`` span on that trace.  Without one the job
        joins the caller's ambient trace context and records no queue
        wait: a batch's jobs share that trace, and their waits overlap.
        """
        if self._draining.is_set():
            raise PoolDraining("worker pool is draining")
        submitted = time.time() if trace_parent is not None else 0.0
        if trace_parent is None:
            trace_parent = tracing.current_traceparent()
        future = PoolFuture()
        with self._lock:
            index = self._submitted
            self._submitted += 1
            self._unfinished += 1
        record = asdict(job) if is_dataclass(job) else {"job": repr(job)}
        future.outcome = JobOutcome(index=index, job=record)
        self._inbox.put(
            _PoolTicket(
                index, job, future, future.outcome, trace_parent, submitted
            )
        )
        self._wakeup()
        return future

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting, finish queued and in-flight jobs, join the
        workers.  Returns True once fully drained (within *timeout*
        seconds, if given); idempotent."""
        self._draining.set()
        self._wakeup()
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def cancel(self) -> None:
        """Stop intake, cancel every queued and in-flight job's future,
        terminate the worker processes and join the supervision thread.
        An inline job already running finishes first: nothing can
        preempt it."""
        self._cancelled.set()
        self._draining.set()
        self._wakeup()
        self._thread.join()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def unfinished(self) -> int:
        """Jobs accepted but not yet resolved (queued + in flight)."""
        with self._lock:
            return self._unfinished

    @property
    def ready(self) -> bool:
        """Workers spawned and intake open — the ``/readyz`` predicate."""
        return self._workers_started.is_set() and not self._draining.is_set()

    def info(self) -> dict:
        """Snapshot for health/metrics endpoints."""
        with self._lock:
            return {
                "processes": 0 if self.serial else self.processes,
                "start_method": None if self.serial else self._method,
                "serial": self.serial or self.degraded_serial,
                "degraded_serial": self.degraded_serial,
                "worker_failures": self.worker_failures,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "unfinished": self._unfinished,
                "draining": self._draining.is_set(),
                "ready": self._workers_started.is_set()
                and not self._draining.is_set(),
            }

    def _wakeup(self) -> None:
        try:
            self._waker.send(b"\0")
        except OSError:  # buffer full (a wakeup is pending) or pool closed
            pass

    # resolution bookkeeping ------------------------------------------------

    def _schedule(self, index: int, attempt: int, delay: float) -> None:
        self._seq += 1
        heapq.heappush(
            self._pending, (time.monotonic() + delay, self._seq, index, attempt)
        )

    def _settle(
        self,
        index: int,
        attempt: int,
        ok: bool,
        value: Any,
        seconds: float,
        kind: str = "crashed",
    ) -> None:
        """Account one finished attempt: resolve the job's future, or
        record the failure (*value* is its reason) and either schedule
        the next attempt after its backoff or fail the job as *kind*."""
        ticket = self._live.get(index)
        if ticket is None:
            return  # stale report for a job already resolved or released
        outcome = ticket.outcome
        outcome.attempts = max(outcome.attempts, attempt)
        outcome.wall_seconds += seconds
        if ok:
            del self._live[index]
            outcome.status = "retried" if outcome.failures else "ok"
            with self._lock:
                self._completed += 1
                self._unfinished -= 1
            try:
                ticket.future.set_result(value)
            except concurrent.futures.InvalidStateError:  # cancelled waiter
                pass
            return
        outcome.failures.append(f"attempt {attempt}: {value}")
        if attempt < self.config.max_attempts:
            delay = self.config.backoff_seconds(attempt, self._rng)
            self._schedule(index, attempt + 1, delay)
            return
        del self._live[index]
        outcome.status = kind
        self._fail(
            ticket,
            PoolJobError(f"job {kind} after {attempt} attempt(s): {value}", outcome),
        )

    def _fail(self, ticket: _PoolTicket, exc: BaseException) -> None:
        with self._lock:
            self._failed += 1
            self._unfinished -= 1
        try:
            ticket.future.set_exception(exc)
        except concurrent.futures.InvalidStateError:  # cancelled waiter
            pass

    # worker slots ----------------------------------------------------------

    def _spawn(self) -> _Worker:
        context = multiprocessing.get_context(self._method)
        self._next_worker_id += 1
        tasks = context.SimpleQueue()
        # Per-worker result pipe, same rationale as _worker_main's
        # docstring: no result lock shared across crash-prone peers.
        recv_conn, send_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(self._next_worker_id, self.run_job, tasks, send_conn),
            daemon=True,
        )
        process.start()
        send_conn.close()
        return _Worker(process, tasks, recv_conn)

    @staticmethod
    def _kill(worker: _Worker) -> None:
        worker.process.terminate()
        worker.process.join(1.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn child
            worker.process.kill()
            worker.process.join(1.0)
        worker.conn.close()

    def _lose(self, worker: _Worker, reason: str, kind: str, charge: float) -> None:
        """Replace a dead or hung *worker*; its attempt in flight (if
        any) fails with *reason*, charged *charge* seconds."""
        self.worker_failures += 1
        self._kill(worker)
        self._workers[self._workers.index(worker)] = self._spawn()
        if worker.busy is not None:
            self._settle(*worker.busy, False, reason, charge, kind)

    def _receive(self, worker: _Worker) -> None:
        """Take every message *worker* has sent; at end-of-file the
        worker died (possibly mid-message) and is replaced."""
        try:
            while worker.conn.poll(0):
                ok, _, index, attempt, value, cache_delta, seconds, spans = (
                    worker.conn.recv()
                )
                if worker.busy == (index, attempt):
                    worker.busy = None
                result_cache.stats.add(cache_delta)
                tracing.absorb(spans)
                self._settle(index, attempt, ok, value, seconds)
        except (EOFError, OSError):
            worker.process.join(1.0)
            reason = f"worker died (exit code {worker.process.exitcode})"
            self._lose(worker, reason, "crashed", 0.0)

    # the supervision loop --------------------------------------------------

    def _intake(self) -> None:
        while True:
            try:
                ticket = self._inbox.get_nowait()
            except queue.Empty:
                return
            self._live[ticket.index] = ticket
            self._schedule(ticket.index, 1, 0.0)

    def _dispatch(self) -> bool:
        """Hand every due attempt to a free worker slot.  With no slots,
        run one due attempt inline instead and return True, so the loop
        goes back to intake (and sees drain/cancel) between jobs."""
        now = time.monotonic()
        while self._pending:
            free = next((w for w in self._workers if w.busy is None), None)
            if self._workers and free is None:
                return False
            if self._pending[0][2] not in self._live:
                heapq.heappop(self._pending)  # job already released
                continue
            if self._pending[0][0] > now:
                return False  # heap is time-ordered: nothing due yet
            _, _, index, attempt = heapq.heappop(self._pending)
            ticket = self._live[index]
            try:
                # Chaos site: the job hand-off.  An injected failure here
                # costs an attempt, never the job.
                faults.maybe_fail("service.handoff", token=index, attempt=attempt)
            except BaseException as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self._settle(index, attempt, False, reason, 0.0)
                continue
            if attempt == 1:
                _record_queue_wait(ticket)
            if free is None:
                ok, value, seconds = _attempt(
                    self.run_job, index, attempt, ticket.job, ticket.trace_parent
                )
                self._settle(index, attempt, ok, value, seconds)
                return True
            free.busy = (index, attempt)
            free.started = now
            free.tasks.put((index, attempt, ticket.job, ticket.trace_parent))
        return False

    def _wait_timeout(self) -> float | None:
        """Seconds until the next due retry (if a slot is free to take
        it) or the next job timeout, whichever is first; ``None`` when
        there is neither."""
        deadlines = []
        free = not self._workers or any(w.busy is None for w in self._workers)
        if self._pending and free:
            deadlines.append(self._pending[0][0])
        if self.config.timeout is not None:
            deadlines.extend(
                w.started + self.config.timeout for w in self._workers if w.busy
            )
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _degrade(self) -> None:
        """Stop trusting worker processes: put every attempt in flight
        back on the heap (at its own attempt number — the worker's fault,
        not the job's), kill the workers and carry on with zero slots."""
        self.degraded_serial = True
        for worker in self._workers:
            if worker.busy is not None:
                self._schedule(*worker.busy, 0.0)
            self._kill(worker)
        self._workers.clear()

    def _loop(self) -> None:
        if not self.serial:
            self._workers = [self._spawn() for _ in range(self.processes)]
        self._workers_started.set()
        while not self._cancelled.is_set():
            self._intake()
            if self._draining.is_set() and not self._live:
                if self._inbox.empty():
                    return
                continue  # late submissions raced the drain flag
            if self._dispatch():
                continue
            ready = multiprocessing.connection.wait(
                [self._wake, *(w.conn for w in self._workers)],
                self._wait_timeout(),
            )
            if self._wake in ready:
                try:
                    while self._wake.recv(4096):
                        pass
                except BlockingIOError:
                    pass
            for worker in list(self._workers):
                if worker.conn in ready:
                    self._receive(worker)
            timeout = self.config.timeout
            now = time.monotonic()
            for worker in list(self._workers):
                if worker.busy and timeout and now - worker.started > timeout:
                    reason = f"timed out after {timeout:g}s"
                    self._lose(worker, reason, "timeout", timeout)
            if self._workers and (
                self.worker_failures > self.config.max_worker_failures
            ):
                self._degrade()

    def _stop_workers(self) -> None:
        """Drained: let idle workers exit on the sentinel.  Cancelled:
        terminate them straight away, busy or not."""
        cancelled = self._cancelled.is_set()
        for worker in self._workers:
            if not cancelled and worker.process.is_alive():
                try:
                    worker.tasks.put(None)
                except Exception:  # pragma: no cover - broken pipe
                    pass
        deadline = time.monotonic() + (0.0 if cancelled else 2.0)
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                self._kill(worker)
            else:
                worker.conn.close()
        self._workers.clear()

    def _supervise(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # pragma: no cover - safety net
            self._release(exc)
            raise
        finally:
            self._stop_workers()
            self._wake.close()
            self._waker.close()
        self._release(None)

    def _release(self, exc: BaseException | None) -> None:
        """Resolve every job still in the pool as supervision ends, so
        no waiter hangs: cancelled after :meth:`cancel` (or a submit that
        raced the drain), failed with *exc* if supervision itself died."""
        self._intake()
        for ticket in list(self._live.values()):
            if exc is None:
                ticket.future.cancel()
                with self._lock:
                    self._unfinished -= 1
                continue
            ticket.outcome.status = "crashed"
            ticket.outcome.failures.append(f"supervision failed: {exc}")
            self._fail(
                ticket,
                PoolJobError(f"pool supervision failed: {exc}", ticket.outcome),
            )
        self._live.clear()


# -- batch façade -------------------------------------------------------------


def run_supervised(
    jobs: list[Any],
    run_job: Callable[[Any], Any],
    processes: int | None = None,
    requested_start_method: str | None = None,
    config: SupervisorConfig | None = None,
    journal: SweepJournal | None = None,
    completed: dict[str, Any] | None = None,
    on_complete: Callable[[JobOutcome], None] | None = None,
) -> SupervisedRun:
    """Run *jobs* through *run_job* on a :class:`WorkerPool` of their own.

    *completed* maps :meth:`SweepJournal.job_key` keys to results of a
    previous run (journal resume): matching jobs are served as-is with
    status ``skipped``.  The rest go to a pool of *processes* workers
    (default: one per CPU), capped by their number; ``processes <= 1``
    (or no usable start method) runs them in-process.  Each completion
    is journalled and reported to *on_complete* on the caller's thread
    as it arrives.  Results are returned in job order; any job that
    exhausts its retry budget — or is otherwise lost — raises
    :class:`BatchError` naming it.  An interrupt (or an error from
    *on_complete*) cancels the pool before propagating.
    """
    completed = completed or {}
    results: list[Any] = [None] * len(jobs)
    outcomes = [
        JobOutcome(index=index, job=asdict(job))
        for index, job in enumerate(jobs)
    ]
    todo: list[int] = []
    for index, job in enumerate(jobs):
        key = SweepJournal.job_key(job)
        if key not in completed:
            todo.append(index)
            continue
        results[index] = completed[key]
        outcomes[index].status = "skipped"
        if on_complete is not None:
            on_complete(outcomes[index])
    if not todo:
        return SupervisedRun(results=results, outcomes=outcomes)

    if processes is None:
        processes = min(len(todo), os.cpu_count() or 1)
    pool = WorkerPool(
        run_job,
        processes=min(processes, len(todo)) if processes > 1 else 0,
        config=config,
        requested_start_method=requested_start_method,
    )
    futures = {pool.submit(jobs[index]): index for index in todo}
    failed: list[int] = []
    try:
        for future in concurrent.futures.as_completed(futures):
            index = futures[future]
            outcome = outcomes[index] = future.outcome
            outcome.index = index  # the pool numbers its own submissions
            if future.exception() is not None:
                failed.append(index)
            else:
                results[index] = future.result()
                if journal is not None:
                    journal.append(jobs[index], results[index], outcome)
            if on_complete is not None:
                on_complete(outcome)
    except BaseException:
        pool.cancel()
        raise
    pool.drain()

    if failed:
        lines = []
        for index in sorted(failed):
            outcome = outcomes[index]
            last = outcome.failures[-1] if outcome.failures else "unknown"
            lines.append(
                f"  job {index} {SweepJournal.job_key(jobs[index])}: "
                f"{outcome.status} after {outcome.attempts} attempt(s) ({last})"
            )
        raise BatchError(
            f"{len(failed)} job(s) permanently failed:\n" + "\n".join(lines),
            outcomes=outcomes,
        )
    return SupervisedRun(
        results=results,
        outcomes=outcomes,
        degraded_serial=pool.degraded_serial,
        worker_failures=pool.worker_failures,
    )
