"""Persistent cross-process simulation result cache.

Simulations are deterministic functions of their job description, so a
finished :class:`~repro.sim.stats.SimStats` or
:class:`~repro.sim.eir.EIRResult` can be reused by any later process —
repeated experiment invocations, batch workers, CI runs — as long as the
simulator source is unchanged.  This module provides that memo on disk:

* Entries live under ``$REPRO_CACHE_DIR`` (default
  ``~/.cache/repro``), in a subdirectory named after
  :data:`FORMAT_VERSION` so layout changes never misread old files.
* Every key is salted with :func:`source_version`, a digest over all
  ``repro`` package sources — any code change invalidates the whole
  cache rather than risking stale results.
* Keys are also salted with the ``repro.check`` environment knobs
  (:data:`_CHECK_ENV_KNOBS`), so a sanitized run never reuses an
  unsanitized entry: a cache hit would silently skip the invariant
  checks the caller asked for.
* ``REPRO_CACHE=0`` disables the cache entirely.
* Loads are corruption-tolerant: a truncated, unreadable or
  key-colliding file is deleted and treated as a miss.
* Stores are atomic (write to a temp file, then ``os.replace``), so a
  killed process never leaves a half-written entry behind — concurrent
  sweeps sharing a cache directory can never observe a torn entry.
* Misses are *single-flight* across processes (:func:`get_or_compute`):
  the first process to miss a key claims it with a lockfile and
  computes; concurrent missers wait for that result instead of running
  the same simulation twice (counted as ``coalesced`` in
  :class:`ResultCacheStats`).  Claims are best-effort — a claim older
  than ``REPRO_CACHE_CLAIM_TTL`` seconds (a crashed claimant) is broken,
  and a waiter that outlives the TTL computes the value itself rather
  than hang, so the worst case is only ever the old duplicated work.
* A load or store that fails with ``ENOSPC``/``EACCES``/``EROFS``
  (full, unreadable or unwritable filesystem) logs one warning and
  degrades the cache to *off* for the rest of the process
  (``auto_disabled`` in :class:`ResultCacheStats`) instead of paying a
  doomed I/O per job.
* The deterministic fault harness (:mod:`repro.faults`) can corrupt
  loaded entries (site ``cache.load``, kind ``corrupt``) or fail stores
  (site ``cache.store``, kind ``oserror``) to prove both recovery
  paths; with ``REPRO_FAULTS`` unset neither hook does any work.
* Every load/store is counted (:class:`ResultCacheStats`), so
  warm-vs-cold behaviour is observable — the counters surface in the
  ``sweep`` summary and in telemetry run manifests
  (``docs/observability.md``).

See ``docs/performance.md`` for the key/versioning scheme.
"""

from __future__ import annotations

import errno
import hashlib
import os
import pickle
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

from repro import faults, knobs
from repro.telemetry import trace as tracing

#: Bump when the on-disk layout or pickle schema changes.
FORMAT_VERSION = 1

_source_version_memo: str | None = None


@dataclass(slots=True)
class ResultCacheStats:
    """Process-local counters over the persistent result cache.

    ``corrupt_dropped`` counts entries deleted because they failed to
    load (truncated pickle, digest collision) — a subset of ``misses``.
    ``store_errors`` counts best-effort stores swallowed by an ``OSError``
    (read-only or full filesystem); ``auto_disabled`` counts the (at
    most one per process) events where such an error switched the cache
    off for the remainder of the process.  ``coalesced`` counts
    :func:`get_or_compute` calls that reused a result another process
    was computing concurrently (single-flight; a subset of ``hits``).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    store_errors: int = 0
    corrupt_dropped: int = 0
    cleared: int = 0
    auto_disabled: int = 0
    coalesced: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def snapshot(self) -> "ResultCacheStats":
        return ResultCacheStats(**asdict(self))

    def since(self, snapshot: "ResultCacheStats") -> dict[str, int]:
        """Counter deltas accumulated after *snapshot*."""
        base = snapshot.as_dict()
        return {
            name: value - base[name] for name, value in self.as_dict().items()
        }

    def add(self, delta: dict[str, int]) -> None:
        """Merge counter *delta* (e.g. reported back by a batch worker)."""
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + value)


#: Module-level counters (this process only; batch workers report their
#: deltas back to the parent through :mod:`repro.sim.batch`).
stats = ResultCacheStats()


def reset_stats() -> None:
    """Zero the process-local counters (tests, fresh measurements)."""
    global stats
    stats = ResultCacheStats()


#: Errnos that mean "this filesystem will keep rejecting I/O" — one of
#: them switches the cache off for the rest of the process.
_FATAL_IO_ERRNOS = (errno.ENOSPC, errno.EACCES, errno.EROFS)

_runtime_disabled = False


def cache_enabled() -> bool:
    """False when the user disabled the cache via ``REPRO_CACHE=0`` or a
    full/unwritable cache filesystem disabled it for this process."""
    return not _runtime_disabled and knobs.enabled("REPRO_CACHE")


def _disable_for_process(exc: OSError) -> None:
    """Degrade to compute-through after a fatal I/O error (logged once)."""
    global _runtime_disabled
    if _runtime_disabled:
        return
    _runtime_disabled = True
    stats.auto_disabled += 1
    print(
        f"repro: result cache ({cache_dir()}) disabled for this process "
        f"after {errno.errorcode.get(exc.errno, exc.errno)} ({exc})",
        file=sys.stderr,
    )


def reset_runtime_disable() -> None:
    """Re-arm a cache auto-disabled by a fatal I/O error (tests)."""
    global _runtime_disabled
    _runtime_disabled = False


def cache_dir() -> Path:
    """Root directory for this format version's entries."""
    root = knobs.raw("REPRO_CACHE_DIR")
    if root:
        base = Path(root)
    else:
        base = Path.home() / ".cache" / "repro"
    return base / f"v{FORMAT_VERSION}"


def source_version() -> str:
    """Digest over every ``repro`` package source file.

    Computed once per process; any edit to the simulator invalidates all
    cached results (correctness over reuse).
    """
    global _source_version_memo
    if _source_version_memo is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _source_version_memo = digest.hexdigest()
    return _source_version_memo


#: Environment knobs that change what a simulation *checks* or *records*
#: (not what it computes).  They join the cache key so e.g. ``sweep
#: --sanitize`` runs the sanitizer instead of replaying an unsanitized
#: cached result, and a ``REPRO_TELEMETRY=1`` run (whose ``SimStats``
#: carry ``slot_*`` attribution in ``extra``) never serves — or is
#: served by — a plain run's entry.  Derived from the central knob
#: registry (:mod:`repro.knobs`): declaring a knob ``salted`` there puts
#: it in every key *by construction*, which is what killed the
#: forgotten-salt bug class of PRs 2/3/6 — and ``repro lint`` (A011)
#: fails if this derivation is ever replaced by a hand-maintained tuple
#: that misses one.
_CHECK_ENV_KNOBS = knobs.salted_knobs()


def _check_env_fingerprint() -> tuple:
    """Current values of the salted env knobs (fresh each call —
    ``sweep --sanitize`` flips them after this module is imported)."""
    return knobs.fingerprint()


def _entry_digest(kind: str, key: tuple) -> str:
    # Deferred import: kernel imports nothing from this module, but the
    # import is kept local anyway so cache.py stays importable first.
    from repro.sim.kernel import KERNEL_TABLE_VERSION

    payload = repr(
        (
            FORMAT_VERSION,
            source_version(),
            _check_env_fingerprint(),
            KERNEL_TABLE_VERSION,
            kind,
            key,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _entry_path(kind: str, key: tuple) -> Path:
    return cache_dir() / f"{_entry_digest(kind, key)}.pkl"


def load(kind: str, key: tuple) -> Any | None:
    """Return the cached value for ``(kind, key)``, or ``None``.

    Any failure — missing file, unpicklable bytes, digest collision with
    a different key — is a miss; damaged files are removed.  A fatal
    ``OSError`` (unreadable filesystem) degrades the cache to
    compute-through instead of paying a doomed read per job.
    """
    if not cache_enabled():
        return None
    path = _entry_path(kind, key)
    try:
        with path.open("rb") as handle:
            data = handle.read()
        if faults.decide("cache.load") == "corrupt":
            # Chaos harness: pretend the entry came back damaged.
            data = b"\xff" * min(len(data), 16) + data[16:]
        payload = pickle.loads(data)
        if payload["key"] != (kind, key):
            raise ValueError("cache key mismatch")
        stats.hits += 1
        return payload["value"]
    except FileNotFoundError:
        stats.misses += 1
        return None
    except OSError as exc:
        # The filesystem failed underneath us (not a damaged entry):
        # miss, and switch the cache off for fatal conditions.
        stats.misses += 1
        if exc.errno in _FATAL_IO_ERRNOS:
            _disable_for_process(exc)
        return None
    except Exception:
        # Corrupt or foreign entry: drop it so the slot heals itself.
        stats.misses += 1
        stats.corrupt_dropped += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None


def store(kind: str, key: tuple, value: Any) -> None:
    """Persist *value* for ``(kind, key)`` (atomic; best-effort)."""
    if not cache_enabled():
        return
    path = _entry_path(kind, key)
    try:
        if faults.decide("cache.store") == "oserror":
            raise OSError(errno.ENOSPC, "injected ENOSPC")
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(
                    {"key": (kind, key), "value": value},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp_name, path)
            stats.stores += 1
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        # A read-only or full filesystem only costs the memoisation —
        # and, for persistent conditions, further attempts are pointless:
        # degrade to compute-through for the rest of the process.
        stats.store_errors += 1
        if exc.errno in _FATAL_IO_ERRNOS:
            _disable_for_process(exc)


# -- single-flight (cross-process request coalescing) -------------------------

#: Default seconds before an in-flight claim is presumed dead: long
#: enough for any single simulation in the suite, short enough that a
#: crashed claimant only ever delays (never blocks) its waiters.
DEFAULT_CLAIM_TTL = 120.0

#: Poll period while waiting on another process's claim.
_CLAIM_POLL_SECONDS = 0.02


def claim_ttl() -> float:
    """Staleness TTL for claims (``REPRO_CACHE_CLAIM_TTL`` seconds)."""
    return max(0.1, knobs.get_float("REPRO_CACHE_CLAIM_TTL"))


def _claim_path(kind: str, key: tuple) -> Path:
    return _entry_path(kind, key).with_suffix(".claim")


def _try_claim(lock: Path, ttl: float) -> bool:
    """Atomically claim *lock*; break a stale claim so the next try wins.

    Returns True when this process now holds the claim.  Any filesystem
    failure other than "already claimed" counts as acquired: claims are
    a best-effort optimisation and must never block computation.
    """
    try:
        lock.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(lock), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            if time.time() - lock.stat().st_mtime > ttl:
                # Claimant presumed dead: break the claim.  Losing a
                # race here just means one extra poll round.
                lock.unlink()
        except OSError:
            pass
        return False
    except OSError:
        return True  # unclaimable filesystem: compute without the memo
    with os.fdopen(fd, "w") as handle:
        handle.write(str(os.getpid()))
    return True


def _release_claim(lock: Path) -> None:
    try:
        lock.unlink()
    except OSError:
        pass


def get_or_compute(kind: str, key: tuple, compute: Callable[[], Any]) -> Any:
    """Cached value for ``(kind, key)``, computing (at most once across
    concurrently missing processes) on a miss.

    The first process to miss claims the key with a lockfile and runs
    *compute*; other processes missing the same key meanwhile poll for
    the claimant's stored result instead of duplicating the work
    (``stats.coalesced``).  A waiter falls back to computing itself when
    the claim outlives :func:`claim_ttl` (crashed or wedged claimant) or
    the claimant finished without a loadable entry (store failed), so
    this can delay but never lose a result.

    With tracing on (``REPRO_TRACE``), the whole operation is one
    ``sim.cache`` span whose ``outcome`` attribute names the path taken
    (``hit``/``computed``/``coalesced``/``takeover``/``disabled``) and,
    for the waiter paths, how long the single-flight wait lasted.
    """
    if not tracing.tracing_enabled():
        value, _, _ = _get_or_compute(kind, key, compute)
        return value
    with tracing.span("sim.cache", kind=kind) as sp:
        value, outcome, waited = _get_or_compute(kind, key, compute)
        sp.set(outcome=outcome)
        if waited:
            sp.set(wait_seconds=round(waited, 6))
        return value


def _get_or_compute(
    kind: str, key: tuple, compute: Callable[[], Any]
) -> tuple[Any, str, float]:
    """:func:`get_or_compute` body; also reports ``(outcome,
    single-flight wait seconds)`` for the tracing wrapper."""
    if not cache_enabled():
        return compute(), "disabled", 0.0
    value = load(kind, key)
    if value is not None:
        return value, "hit", 0.0
    ttl = claim_ttl()
    lock = _claim_path(kind, key)
    started = time.monotonic()
    deadline = started + ttl
    while True:
        if _try_claim(lock, ttl):
            waited = time.monotonic() - started
            try:
                value = compute()
            finally:
                _release_claim(lock)
            store(kind, key, value)
            return value, "computed", waited
        # Another process is computing this key: wait for its store.
        entry = _entry_path(kind, key)
        while lock.exists() and not entry.exists():
            if time.monotonic() > deadline:
                # Claimant overstayed the TTL.
                waited = time.monotonic() - started
                return compute(), "takeover", waited
            time.sleep(_CLAIM_POLL_SECONDS)
        if entry.exists():
            value = load(kind, key)
            if value is not None:
                stats.coalesced += 1
                return value, "coalesced", time.monotonic() - started
        # Claim released without a usable entry (claimant failed or its
        # store was rejected): take over — or give up on coalescing once
        # the deadline passes.
        if time.monotonic() > deadline:
            waited = time.monotonic() - started
            return compute(), "takeover", waited


def clear() -> int:
    """Delete all entries of the current format version; returns the
    number removed."""
    removed = 0
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    for path in directory.glob("*.pkl"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    stats.cleared += removed
    return removed
