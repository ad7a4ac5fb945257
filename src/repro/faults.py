"""Deterministic, opt-in fault injection (`repro.faults`).

Chaos testing for the sweep engine: the supervisor, the persistent
result cache and the retry machinery all claim to survive worker
crashes, hangs, transient exceptions and corrupt cache entries — this
module makes those events happen *on demand and reproducibly* so the
chaos test suite (and the CI chaos-smoke job) can prove every recovery
path instead of waiting for production to exercise it.

Activation is purely environmental: ``REPRO_FAULTS=<spec>`` arms the
harness for the process and every worker it spawns (the variable is
inherited across ``fork`` and ``spawn``).  When the variable is unset
the plan parses to ``None`` once per process and every hook is a
memoised ``None`` check — injection sites live at per-job / per-cache-op
granularity, never inside the cycle loop, so simulation results are
bit-identical and the hot path is untouched either way.

Spec grammar (clauses joined by ``;``)::

    REPRO_FAULTS ::= clause (';' clause)*
    clause       ::= 'seed' '=' INT            # global schedule seed
                   | SITE '=' KIND (':' param)*
    param        ::= 'p' '=' FLOAT             # injection probability (default 1)
                   | 'n' '=' INT               # max injections per process
                   | 'a' '=' INT               # only attempts <= a (default: all)
                   | 's' '=' FLOAT             # hang duration seconds (default 3600)

Example: ``REPRO_FAULTS="seed=7;batch.worker=crash:p=0.3:a=1;cache.load=corrupt:n=2"``.

Sites and the kinds they honour:

========================  ===========================  =========================
site                      fired from                   kinds
========================  ===========================  =========================
``batch.worker``          supervisor job wrapper       ``crash`` ``hang`` ``exc``
``sim.run``               ``Simulator.run()`` entry    ``hang`` ``exc``
``sim.kernel``            compiled-kernel selection    ``exc``
``sim.stats``             ``experiments.common``       ``hang`` ``exc``
``cache.load``            result-cache load            ``corrupt``
``cache.store``           result-cache store           ``oserror``
``service.queue``         service job admission        ``exc``
``service.handoff``       pool worker dispatch         ``exc``
``service.replica``       cluster replica monitor      ``crash`` ``hang`` ``exc``
``telemetry.trace``       flight-recorder append       ``exc``
========================  ===========================  =========================

The two ``service.*`` sites chaos-test the job server: an injected
``service.queue`` failure must reject the request cleanly *before* it is
accepted (HTTP 503, nothing lost), and ``service.handoff`` (tokened by
job index + attempt, like ``batch.worker``) costs the dispatch one
retry attempt without losing the accepted job.  ``sim.kernel`` is
special: an injected fault there does not fail the run — it makes
``Simulator.run()`` degrade to the reference loop (decline reason
``fault-injected``) with bit-identical statistics.  ``telemetry.trace``
fires on every flight-recorder append and is likewise non-fatal by
construction: an injected fault drops that span (counted in the
recorder's ``dropped``) without ever failing the traced operation.

The cluster tier adds one *advisory* site the call site applies
itself: ``service.replica`` fires once per monitor tick per replica in
the :class:`~repro.service.cluster.ClusterManager` — ``crash`` SIGKILLs
the replica process (the manager respawns it), ``hang`` SIGSTOPs it for
``s`` seconds (the balancer ejects and later recovers it), ``exc``
degrades to :class:`FaultInjected` inside the monitor.

Determinism: a *tokened* site (``batch.worker`` passes the job index as
token and the retry attempt number) decides by hashing ``(seed, site,
token)`` — the same job's same attempt injects identically in any
process, which is what lets a chaos sweep converge (``a=1`` fails every
first attempt and passes every retry).  An untokened site draws from a
per-site RNG stream seeded by ``(seed, site)`` advanced by a per-process
hit counter — the schedule of inject/skip decisions is a pure function
of the spec and seed (:meth:`FaultPlan.schedule`).

Effects: ``crash`` calls ``os._exit(FAULT_EXIT_CODE)`` — but only in a
supervised worker (:func:`mark_worker`); anywhere else it degrades to a
:class:`FaultInjected` exception so a chaos run can never kill the
parent or a plain CLI process.  ``hang`` sleeps ``s`` seconds in a
worker (the supervisor's timeout reclaims it) and also degrades to
``FaultInjected`` elsewhere.  ``corrupt``/``oserror`` are *advisory*:
the cache asks :func:`decide` and applies the damage itself.

See ``docs/robustness.md`` for the full operations story.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass

from repro import knobs

#: Exit status of an injected worker crash (distinct from Python's 1).
FAULT_EXIT_CODE = 70

#: Every declared injection site, mirroring the table above.  This is
#: the machine-readable site list the ``repro lint`` fault-site audit
#: (:mod:`repro.analysis.fault_sites`) cross-checks: every
#: ``decide``/``maybe_fail`` call in ``src/`` must name a site declared
#: here (A030), every declared site must still be fired somewhere
#: (A031), and every site must appear in the chaos test suites (A032).
SITES = (
    "batch.worker",
    "sim.run",
    "sim.kernel",
    "sim.stats",
    "cache.load",
    "cache.store",
    "service.queue",
    "service.handoff",
    "service.replica",
    "telemetry.trace",
)

#: Kinds whose effect this module performs (vs. advisory kinds the call
#: site applies itself).
BEHAVIOURAL_KINDS = ("crash", "hang", "exc")
ADVISORY_KINDS = ("corrupt", "oserror")
KINDS = BEHAVIOURAL_KINDS + ADVISORY_KINDS


class FaultSpecError(ValueError):
    """Malformed ``REPRO_FAULTS`` specification."""


class FaultInjected(RuntimeError):
    """The transient exception raised by ``exc`` faults (and by
    ``crash``/``hang`` outside a supervised worker)."""


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One armed site: what to inject, how often, for how long."""

    site: str
    kind: str
    probability: float = 1.0
    #: Per-process cap on injections at this site (``n=``); ``None`` = unlimited.
    max_injections: int | None = None
    #: Inject only when the caller's attempt number is <= this (``a=``).
    max_attempt: int | None = None
    #: Hang duration in seconds (``s=``).
    seconds: float = 3600.0


def _stable_seed(seed: int, site: str, token: object = None) -> int:
    payload = f"{seed}:{site}:{token!r}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class FaultPlan:
    """Parsed spec plus the per-process injection state."""

    def __init__(self, rules: dict[str, FaultRule], seed: int = 0) -> None:
        self.rules = rules
        self.seed = seed
        self._streams: dict[str, random.Random] = {}
        self._hits: dict[str, int] = {}
        self._injected: dict[str, int] = {}

    def injected(self, site: str) -> int:
        """How many times *site* has injected in this process."""
        return self._injected.get(site, 0)

    def decide(
        self, site: str, token: object = None, attempt: int = 1
    ) -> FaultRule | None:
        """Advance *site*'s schedule one hit; return its rule to inject.

        Tokened decisions hash ``(seed, site, token, attempt)`` and are
        identical in every process; untokened ones consume the site's
        seeded RNG stream (deterministic per process).
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        self._hits[site] = self._hits.get(site, 0) + 1
        if rule.max_attempt is not None and attempt > rule.max_attempt:
            return None
        if (
            rule.max_injections is not None
            and self._injected.get(site, 0) >= rule.max_injections
        ):
            return None
        if token is not None:
            draw = random.Random(
                _stable_seed(self.seed, site, (token, attempt))
            ).random()
        else:
            stream = self._streams.get(site)
            if stream is None:
                stream = random.Random(_stable_seed(self.seed, site))
                self._streams[site] = stream
            draw = stream.random()
        if draw >= rule.probability:
            return None
        self._injected[site] = self._injected.get(site, 0) + 1
        return rule

    def schedule(self, site: str, hits: int) -> list[bool]:
        """The first *hits* untokened inject/skip decisions for *site*,
        computed from a fresh stream (pure; does not advance state)."""
        rule = self.rules.get(site)
        if rule is None:
            return [False] * hits
        stream = random.Random(_stable_seed(self.seed, site))
        decisions: list[bool] = []
        injected = 0
        for _ in range(hits):
            inject = stream.random() < rule.probability
            if (
                rule.max_injections is not None
                and injected >= rule.max_injections
            ):
                inject = False
            if inject:
                injected += 1
            decisions.append(inject)
        return decisions


def parse_spec(spec: str) -> FaultPlan | None:
    """Parse a ``REPRO_FAULTS`` string; ``None`` for an empty spec."""
    rules: dict[str, FaultRule] = {}
    seed = 0
    for raw_clause in spec.split(";"):
        clause = raw_clause.strip()
        if not clause:
            continue
        head, _, tail = clause.partition("=")
        site = head.strip()
        if not tail:
            raise FaultSpecError(
                f"clause {clause!r} is not 'site=kind[:params]' or 'seed=N'"
            )
        if site == "seed":
            try:
                seed = int(tail.strip())
            except ValueError as exc:
                raise FaultSpecError(f"bad seed in {clause!r}") from exc
            continue
        parts = [part.strip() for part in tail.split(":")]
        kind = parts[0]
        if kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} in {clause!r}; known: {KINDS}"
            )
        probability, max_injections, max_attempt, seconds = 1.0, None, None, 3600.0
        for param in parts[1:]:
            name, eq, value = param.partition("=")
            name, value = name.strip(), value.strip()
            if not eq:
                raise FaultSpecError(f"bad parameter {param!r} in {clause!r}")
            try:
                if name == "p":
                    probability = float(value)
                elif name == "n":
                    max_injections = int(value)
                elif name == "a":
                    max_attempt = int(value)
                elif name == "s":
                    seconds = float(value)
                else:
                    raise FaultSpecError(
                        f"unknown parameter {name!r} in {clause!r} "
                        "(known: p, n, a, s)"
                    )
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value for {name!r} in {clause!r}"
                ) from exc
        if not 0.0 <= probability <= 1.0:
            raise FaultSpecError(f"probability out of [0, 1] in {clause!r}")
        if site in rules:
            raise FaultSpecError(f"duplicate site {site!r}")
        rules[site] = FaultRule(
            site=site,
            kind=kind,
            probability=probability,
            max_injections=max_injections,
            max_attempt=max_attempt,
            seconds=seconds,
        )
    if not rules:
        return None
    return FaultPlan(rules, seed=seed)


# -- per-process state --------------------------------------------------------

_plan: FaultPlan | None = None
_parsed = False
_in_worker = False


def plan() -> FaultPlan | None:
    """The process's armed plan (parsed from ``REPRO_FAULTS`` once), or
    ``None`` when fault injection is off."""
    global _plan, _parsed
    if not _parsed:
        spec = knobs.raw("REPRO_FAULTS")
        _plan = parse_spec(spec) if spec else None
        _parsed = True
    return _plan


def reload() -> FaultPlan | None:
    """Drop the memoised plan and re-parse the environment (tests; call
    after changing ``REPRO_FAULTS`` mid-process)."""
    global _parsed, _plan
    _parsed = False
    _plan = None
    return plan()


def mark_worker(active: bool = True) -> None:
    """Tell the harness this process is a supervised batch worker, where
    a ``crash`` fault may really ``os._exit`` (the supervisor respawns
    it).  Everywhere else ``crash``/``hang`` degrade to
    :class:`FaultInjected` so injection can never kill an unsupervised
    process or freeze a serial run."""
    global _in_worker
    _in_worker = active


def decide(site: str, token: object = None, attempt: int = 1) -> str | None:
    """Advisory hook: the kind to inject at *site* now, or ``None``.

    Used by sites that apply the damage themselves (cache corruption,
    injected ``OSError``).  Zero work when the harness is off.
    """
    active = plan()
    if active is None:
        return None
    rule = active.decide(site, token=token, attempt=attempt)
    return rule.kind if rule is not None else None


def maybe_fail(site: str, token: object = None, attempt: int = 1) -> None:
    """Behavioural hook: crash, hang or raise here if the schedule says
    so.  Zero work when the harness is off."""
    active = plan()
    if active is None:
        return
    rule = active.decide(site, token=token, attempt=attempt)
    if rule is None:
        return
    if rule.kind == "crash" and _in_worker:
        os._exit(FAULT_EXIT_CODE)
    if rule.kind == "hang" and _in_worker:
        time.sleep(rule.seconds)
        return
    # exc — and crash/hang degraded outside a supervised worker.
    raise FaultInjected(f"injected {rule.kind} at {site}")
