"""Wire schema and request validation for the simulation service.

A job request is a JSON object naming a cell of the design-space grid
the paper explores (benchmark x machine x scheme, plus the compiler
variant and trace knobs).  :func:`validate_job` turns one into the
canonical :class:`~repro.sim.batch.SimJob` — or raises
:class:`ValidationError` listing *every* problem, so a client fixes a
bad request in one round trip.

Validation is the service's admission gate into ``repro.check``: names
must resolve against the benchmark/machine/scheme registries, numeric
knobs must be inside the bounds the simulator supports, and the resolved
machine configuration is linted with
:func:`repro.check.config.check_config` (memoised per machine — presets
always pass, but the gate keeps a future user-supplied config from
reaching a worker unchecked).
"""

from __future__ import annotations

from functools import lru_cache

from repro.check.config import check_config
from repro.fetch.factory import ALL_SCHEMES
from repro.machines.presets import MACHINES, get_machine
from repro.sim.batch import SimJob
from repro.sim.supervisor import SweepJournal
from repro.workloads.profiles import ALL_BENCHMARKS

#: Program variants the compiler subsystem produces.
VARIANTS = ("orig", "reordered", "pad_all", "pad_trace")

#: Trace-length ceiling per request: admission control for one job's
#: cost, not a simulator limit (sweeps go longer via the CLI).
MAX_LENGTH = 2_000_000

#: Optional trace-context payload field: a W3C ``traceparent`` string
#: joining the job's server-side spans to the client's trace.  It is
#: *not* a job field — :func:`extract_traceparent` pops it before
#: validation so trace context can never reach :class:`SimJob` (whose
#: dict is the coalescing key, the journal key and the cache key).
TRACEPARENT_FIELD = "traceparent"

#: Payload keys :func:`validate_job` understands.
FIELDS = (
    "benchmark",
    "machine",
    "scheme",
    "variant",
    "length",
    "warmup",
    "seed",
    "fetch_penalty",
    "block_words",
    "telemetry",
)


def extract_traceparent(payload: object) -> str | None:
    """Pop the optional ``traceparent`` field off a request payload.

    Returns the raw string (or ``None``); the field is *removed* so the
    remaining payload is purely the job description.  Call before
    :func:`validate_job`.
    """
    if isinstance(payload, dict):
        value = payload.pop(TRACEPARENT_FIELD, None)
        if isinstance(value, str) and value:
            return value
    return None


class ValidationError(ValueError):
    """A job request that must not be admitted; lists every finding."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@lru_cache(maxsize=None)
def _machine_check_errors(name: str) -> tuple[str, ...]:
    """`repro.check` findings for a machine preset (memoised)."""
    return tuple(
        str(finding) for finding in check_config(get_machine(name))
    )


def _int_field(
    payload: dict,
    name: str,
    default: int,
    low: int,
    high: int,
    errors: list[str],
) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{name} must be an integer")
        return default
    if not low <= value <= high:
        errors.append(f"{name} must be in [{low}, {high}], got {value}")
        return default
    return value


def validate_job(payload: object) -> SimJob:
    """Validate one request payload into a :class:`SimJob`.

    Raises :class:`ValidationError` carrying every finding; a job this
    returns is safe to hand to the worker engine.
    """
    if not isinstance(payload, dict):
        raise ValidationError(["job must be a JSON object"])
    errors: list[str] = []
    for key in payload:
        if key not in FIELDS:
            errors.append(
                f"unknown field {key!r} (known: {', '.join(FIELDS)})"
            )

    benchmark = payload.get("benchmark")
    if benchmark not in ALL_BENCHMARKS:
        errors.append(
            f"unknown benchmark {benchmark!r} "
            f"(known: {', '.join(ALL_BENCHMARKS)})"
        )
    machine = payload.get("machine")
    machine_names = tuple(m.name for m in MACHINES)
    if machine not in machine_names:
        errors.append(
            f"unknown machine {machine!r} (known: {', '.join(machine_names)})"
        )
    else:
        errors.extend(_machine_check_errors(machine))
    scheme = payload.get("scheme")
    if scheme not in ALL_SCHEMES:
        errors.append(
            f"unknown scheme {scheme!r} (known: {', '.join(ALL_SCHEMES)})"
        )
    variant = payload.get("variant", "orig")
    if variant not in VARIANTS:
        errors.append(
            f"unknown variant {variant!r} (known: {', '.join(VARIANTS)})"
        )

    length = _int_field(payload, "length", 20_000, 100, MAX_LENGTH, errors)
    warmup = _int_field(payload, "warmup", 4_000, 0, MAX_LENGTH, errors)
    if warmup >= length:
        errors.append(f"warmup ({warmup}) must be smaller than length ({length})")
    seed = _int_field(payload, "seed", 0, 0, 2**31 - 1, errors)
    block_words = _int_field(payload, "block_words", 4, 1, 64, errors)
    fetch_penalty = payload.get("fetch_penalty")
    if fetch_penalty is not None:
        fetch_penalty = _int_field(
            payload, "fetch_penalty", 0, 0, 100, errors
        )
    telemetry = payload.get("telemetry", False)
    if not isinstance(telemetry, bool):
        errors.append("telemetry must be a boolean")
        telemetry = False

    if errors:
        raise ValidationError(errors)
    return SimJob(
        benchmark=benchmark,
        machine=machine,
        scheme=scheme,
        variant=variant,
        length=length,
        warmup=warmup,
        seed=seed,
        fetch_penalty=fetch_penalty,
        block_words=block_words,
        telemetry=telemetry,
    )


def job_key(job: SimJob) -> str:
    """Canonical coalescing key of a job (the sweep-journal key, so the
    service, the journal and the result cache all agree on identity)."""
    return SweepJournal.job_key(job)
