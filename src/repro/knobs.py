"""Central registry of every ``REPRO_*`` environment knob.

Three separate PRs (2, 3, 6) independently rediscovered the same bug
class: a new environment knob changed what a simulation computes or
records, but nobody remembered to salt the persistent result-cache key
with it, so differently-configured runs silently aliased each other's
cached entries.  The root cause was structural — knob declarations were
scattered across the modules that read them, and the cache key was a
hand-maintained tuple in :mod:`repro.sim.cache`.

This module is the fix: **one declaration table** for every knob (name,
type, default, cache-key policy), accessors that are the only legal way
to read a knob, and derivation helpers the cache uses so a knob declared
``salted`` is in the key *by construction*.  The static analyzer
(:mod:`repro.analysis.knob_registry`, ``repro lint``) enforces the
remaining obligations: every ``REPRO_*`` read in ``src/`` must go
through these accessors (A013), name a declared knob (A010), and every
``salted`` knob must reach the cache-key construction (A011).

Cache-key policy:

* ``salted`` — the knob changes what a simulation computes, checks or
  records; its raw value joins every persistent result-cache key via
  :func:`fingerprint`.
* ``exempt`` — the knob provably cannot change a cached value; the
  declaration carries the reason, which ``docs/linting.md`` renders.

Declaring a new knob: add a :class:`KnobSpec` to :data:`KNOBS`, then
read it with :func:`enabled` / :func:`get_int` / :func:`get_float` /
:func:`raw`.  Picking ``exempt`` requires writing the reason; ``repro
lint`` fails on anything less.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Shared prefix of every environment knob.
KNOB_PREFIX = "REPRO_"

#: Values (stripped, lowercased) a boolean knob reads as "off".
FALSE_VALUES = frozenset({"", "0", "off", "false", "no"})


@dataclass(frozen=True, slots=True)
class KnobSpec:
    """Declaration of one environment knob.

    Attributes:
        name: Full variable name (``REPRO_...``).
        type: ``"bool"``, ``"int"``, ``"float"``, ``"str"`` or
            ``"spec"`` (a structured mini-language, e.g. the fault
            grammar) — documentation plus the accessor sanity checks.
        default: Raw (string) value assumed when the variable is unset.
        cache_policy: ``"salted"`` or ``"exempt"`` (see module docs).
        reason: Why an ``exempt`` knob cannot alias cache entries.
        description: One line for ``docs/linting.md`` and ``repro lint``.
    """

    name: str
    type: str
    default: str
    cache_policy: str
    reason: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.startswith(KNOB_PREFIX):
            raise ValueError(f"knob {self.name!r} lacks the {KNOB_PREFIX} prefix")
        if self.type not in ("bool", "int", "float", "str", "spec"):
            raise ValueError(f"unknown knob type {self.type!r}")
        if self.cache_policy not in ("salted", "exempt"):
            raise ValueError(f"unknown cache policy {self.cache_policy!r}")
        if self.cache_policy == "exempt" and not self.reason:
            raise ValueError(f"exempt knob {self.name} must state a reason")


#: The declaration table.  Kept as literal ``KnobSpec`` calls so the
#: static analyzer can read it without importing the package.
KNOBS: tuple[KnobSpec, ...] = (
    KnobSpec(
        name="REPRO_SANITIZE",
        type="bool",
        default="0",
        cache_policy="salted",
        description="run every simulation under the pipeline sanitizer",
    ),
    KnobSpec(
        name="REPRO_CHECK_DEEP_PERIOD",
        type="int",
        default="64",
        cache_policy="salted",
        description="cycles between deep sanitizer passes",
    ),
    KnobSpec(
        name="REPRO_TELEMETRY",
        type="bool",
        default="0",
        cache_policy="salted",
        description="observe the reference loop (slot attribution in extra)",
    ),
    KnobSpec(
        name="REPRO_KERNEL",
        type="bool",
        default="1",
        cache_policy="salted",
        description="allow the compiled simulation kernel",
    ),
    KnobSpec(
        name="REPRO_CACHE",
        type="bool",
        default="1",
        cache_policy="exempt",
        reason=(
            "enables/disables the result cache itself; a disabled cache "
            "computes the identical value, it just never memoises it"
        ),
        description="persistent result cache on/off",
    ),
    KnobSpec(
        name="REPRO_CACHE_DIR",
        type="str",
        default="",
        cache_policy="exempt",
        reason=(
            "selects where entries live, not what they contain; two "
            "directories can never serve each other's files"
        ),
        description="root directory of the persistent result cache",
    ),
    KnobSpec(
        name="REPRO_CACHE_CLAIM_TTL",
        type="float",
        default="120",
        cache_policy="exempt",
        reason=(
            "single-flight patience only: how long a waiter trusts "
            "another process's in-flight claim before computing itself; "
            "every path yields the same value"
        ),
        description="staleness TTL in seconds for single-flight claims",
    ),
    KnobSpec(
        name="REPRO_FAULTS",
        type="spec",
        default="",
        cache_policy="exempt",
        reason=(
            "deliberately excluded (PR 4): chaos runs must produce and "
            "reuse bit-identical results, and injected cache damage is "
            "applied after load, never stored"
        ),
        description="deterministic fault-injection spec (repro.faults)",
    ),
    KnobSpec(
        name="REPRO_SCALE",
        type="float",
        default="1",
        cache_policy="exempt",
        reason=(
            "scales experiment trace lengths, and every length is an "
            "explicit component of the cache key already"
        ),
        description="multiplier on experiment trace lengths",
    ),
    KnobSpec(
        name="REPRO_TRACE",
        type="bool",
        default="0",
        cache_policy="exempt",
        reason=(
            "tracing only records span timing around a run; it never "
            "feeds back into what a simulation computes, so traced and "
            "untraced runs produce bit-identical results"
        ),
        description="record distributed-tracing spans (flight recorder)",
    ),
    KnobSpec(
        name="REPRO_BALANCE_PROBE_INTERVAL",
        type="float",
        default="0.5",
        cache_policy="exempt",
        reason=(
            "paces the balancer's active /readyz probes; routing policy "
            "never reaches a simulation's inputs or outputs"
        ),
        description="seconds between balancer health probes per replica",
    ),
    KnobSpec(
        name="REPRO_BALANCE_TRY_TIMEOUT",
        type="float",
        default="10.0",
        cache_policy="exempt",
        reason=(
            "per-attempt forwarding timeout in the balancer; a timed-out "
            "attempt is replayed elsewhere and yields the same value"
        ),
        description="seconds the balancer allows one forwarded attempt",
    ),
    KnobSpec(
        name="REPRO_STUDY_DIR",
        type="str",
        default="studies",
        cache_policy="exempt",
        reason=(
            "default output root for study artifacts (journal, manifest, "
            "reports); selects where results land, never what a run "
            "computes"
        ),
        description="default output directory root for `repro ablate run`",
    ),
    KnobSpec(
        name="REPRO_STUDY_MAX_RUNS",
        type="int",
        default="512",
        cache_policy="exempt",
        reason=(
            "bounds how many unique runs a study spec may expand to; an "
            "over-budget study fails loudly (D007) before computing "
            "anything, so no cached value can depend on it"
        ),
        description="maximum unique runs one study expansion may produce",
    ),
    KnobSpec(
        name="REPRO_TRACE_DIR",
        type="str",
        default="",
        cache_policy="exempt",
        reason=(
            "selects where span spill files land, not what a simulation "
            "computes; purely an export destination"
        ),
        description="directory for persistent span JSONL export",
    ),
)

#: name -> spec, the lookup the accessors use.
REGISTRY: dict[str, KnobSpec] = {spec.name: spec for spec in KNOBS}


def spec(name: str) -> KnobSpec:
    """The declaration of *name*; raises ``KeyError`` for an undeclared
    knob (the runtime mirror of lint code A010)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"undeclared environment knob {name!r}; add a KnobSpec to "
            "repro.knobs.KNOBS (see docs/linting.md)"
        ) from None


def raw(name: str) -> str:
    """The raw environment value of declared knob *name* (its declared
    default when unset)."""
    return os.environ.get(name, spec(name).default)


def enabled(name: str) -> bool:
    """Boolean knob *name* under the uniform grammar: any value outside
    :data:`FALSE_VALUES` (case-insensitive) is on."""
    return raw(name).strip().lower() not in FALSE_VALUES


def get_int(name: str) -> int:
    """Integer knob *name*; an unparsable value falls back to the
    declared default (never raises on user input)."""
    declared = spec(name)
    try:
        return int(raw(name))
    except ValueError:
        return int(declared.default)


def get_float(name: str) -> float:
    """Float knob *name*; an unparsable value falls back to the
    declared default (never raises on user input)."""
    declared = spec(name)
    try:
        return float(raw(name))
    except ValueError:
        return float(declared.default)


def salted_knobs() -> tuple[str, ...]:
    """Names of every knob declared ``salted``, in declaration order —
    the set :mod:`repro.sim.cache` folds into every key."""
    return tuple(k.name for k in KNOBS if k.cache_policy == "salted")


def fingerprint() -> tuple[str, ...]:
    """Current raw *environment* values of the salted knobs (unset reads
    as ``""``, not the declared default, preserving the historical cache
    key format).  Computed fresh on every call: ``sweep --sanitize``
    flips knobs after this module is imported."""
    return tuple(os.environ.get(name, "") for name in salted_knobs())
