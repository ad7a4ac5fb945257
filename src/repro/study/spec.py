"""Declarative study specifications and their deterministic expansion.

A :class:`StudySpec` names one *baseline* fetch scenario (machine x
scheme x workload x scale) plus a set of :class:`Toggle`\\ s — the
components whose contribution the study measures.  :func:`expand` turns
the spec into the full run set in the style of classic one-factor-off
ablation design:

* the **baseline** run (no overrides),
* one **single** run per toggle value (that component flipped, all else
  at baseline),
* optional **pair** runs for every value combination of each toggle
  group listed in ``pairwise`` — two or more toggles, crossed in full
  (interaction effects).

Every run gets a **content-hashed run ID**: the SHA-256 of the
canonical JSON of its *resolved* scenario (workload block + effective
overrides).  The hash sees only what the run computes — never the spec
name, toggle names, or declaration order — so IDs are stable across
processes, spec re-orderings and label edits, and two generated runs
that resolve to the same scenario (e.g. a toggle value equal to the
baseline's) collapse onto one ID and are executed once.

Validation speaks :mod:`repro.check`: structural problems surface as
:class:`~repro.check.errors.CheckError` findings with stable ``Dxxx``
codes (plus ``A001``–``A003`` for unknown scheme/machine/benchmark
names), and :func:`expand` raises
:class:`~repro.check.errors.CheckFailure` rather than building an
illegal run set, including one of more than :data:`MAX_RUNS` unique
runs (``D007``).  See ``docs/studies.md`` for the spec grammar.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field

from repro.check.errors import CheckError, CheckFailure
from repro.fetch.factory import ALL_SCHEMES
from repro.machines.presets import MACHINES_BY_NAME, get_machine
from repro.workloads.profiles import ALL_BENCHMARKS
from repro.workloads.trace import TEST_INPUT_SEED

#: Most unique runs one expansion may produce; :func:`expand` reads it
#: on every call and rejects a larger run set with ``D007`` before
#: anything is computed.
MAX_RUNS = 512

#: Direction-predictor configurations a study may toggle (the same
#: vocabulary the predictor ablation always used).
PREDICTOR_KINDS = (
    "btb-2bit",
    "btb+ras",
    "2level",
    "2level+ras",
    "gshare",
    "gshare+ras",
)

#: The predictor the simulator uses when none is requested.
DEFAULT_PREDICTOR = "btb-2bit"

#: ``MachineConfig`` fields a toggle may override, with the Python type
#: each value must carry.  ``bool`` values must be real bools (ints
#: would silently coerce and alias run IDs).
MACHINE_FIELDS: dict[str, type] = {
    "btb_entries": int,
    "speculation_depth": int,
    "window_size": int,
    "fetch_queue_groups": int,
    "fetch_penalty": int,
    "icache_bytes": int,
    "icache_block_bytes": int,
    "icache_miss_latency": int,
    "issue_rate": int,
    "rob_factor": int,
    "memory_ordering": str,
    "recovery_at_retire": bool,
}

#: Scenario-level parameters (not machine fields) a toggle may set.
SCENARIO_PARAMETERS = ("machine", "scheme", "variant", "prewarm",
                      "predictor", "num_banks")

#: Every legal ``Toggle.parameter`` value.
PARAMETERS: tuple[str, ...] = SCENARIO_PARAMETERS + tuple(MACHINE_FIELDS)

#: Program variants the compiler subsystem can produce (mirrors
#: ``repro.experiments.common.VARIANTS`` without importing it here).
VARIANTS = ("orig", "reordered", "pad_all", "pad_trace")

#: Metrics a study may request per run.
METRICS = ("ipc", "eir")

#: Hex digits kept of the scenario digest — plenty against collision in
#: any realistic study (a few thousand runs).
RUN_ID_LEN = 12


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def value_key(value) -> str:
    """Canonical hashable form of one toggle value (dict/index keys)."""
    return _canonical(value)


@dataclass(frozen=True, slots=True)
class Toggle:
    """One component the study flips: a named set of alternative values
    for a single parameter."""

    name: str
    parameter: str
    values: tuple = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "parameter": self.parameter,
            "values": list(self.values),
        }


@dataclass(frozen=True, slots=True)
class StudySpec:
    """A declarative ablation study: baseline scenario + toggles."""

    name: str
    benchmarks: tuple = ()
    machine: str = "PI8"
    scheme: str = "collapsing_buffer"
    variant: str = "orig"
    prewarm: bool = True
    #: Dynamic trace length for IPC simulations.
    length: int = 20_000
    #: Trace length for fetch-only EIR measurements.
    eir_length: int = 30_000
    warmup: int = 4_000
    seed: int = TEST_INPUT_SEED
    #: Which metrics every run computes (subset of :data:`METRICS`).
    metrics: tuple = ("ipc", "eir")
    toggles: tuple = ()
    #: Groups of two or more toggle *names* whose interaction the study
    #: measures; each group's runs are the full cross of its values.
    pairwise: tuple = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "machine": self.machine,
            "scheme": self.scheme,
            "variant": self.variant,
            "prewarm": self.prewarm,
            "length": self.length,
            "eir_length": self.eir_length,
            "warmup": self.warmup,
            "seed": self.seed,
            "metrics": list(self.metrics),
            "toggles": [toggle.as_dict() for toggle in self.toggles],
            "pairwise": [list(pair) for pair in self.pairwise],
        }

    @property
    def digest(self) -> str:
        """Content hash binding a manifest/journal to this exact spec."""
        return hashlib.sha256(
            _canonical(self.as_dict()).encode()
        ).hexdigest()[:16]


_SPEC_KEYS = frozenset(StudySpec.__dataclass_fields__)
_TOGGLE_KEYS = frozenset(("name", "parameter", "values"))


def spec_from_dict(payload: dict) -> StudySpec:
    """Build a :class:`StudySpec` from its JSON/dict form.

    Unknown keys are a ``D005`` failure rather than a silent drop — a
    typoed field must not quietly fall back to the default — and so is a
    list-valued field given as a scalar or string (``tuple()`` would
    split ``"compress"`` into characters).
    """
    errors = []
    if not isinstance(payload, dict):
        raise CheckFailure(
            [CheckError("D005", "spec", "study spec must be a JSON object")]
        )

    def listed(code: str, subject: str, value) -> tuple | None:
        if isinstance(value, (list, tuple)):
            return tuple(value)
        errors.append(CheckError(code, subject, "must be a JSON list"))
        return None

    for key in payload:
        if key not in _SPEC_KEYS:
            errors.append(
                CheckError("D005", str(key), "unknown study spec field")
            )
    fields = {
        key: value
        for key, value in payload.items()
        if key not in ("toggles", "pairwise")
    }
    for key in ("benchmarks", "metrics"):
        if key in fields:
            fields[key] = listed("D005", key, fields[key])
    toggles = []
    for index, entry in enumerate(
        listed("D005", "toggles", payload.get("toggles", ())) or ()
    ):
        if not isinstance(entry, dict) or set(entry) - _TOGGLE_KEYS:
            errors.append(
                CheckError(
                    "D003",
                    f"toggles[{index}]",
                    "toggle must be {name, parameter, values}",
                )
            )
            continue
        values = listed(
            "D003", f"toggles[{index}].values", entry.get("values", ())
        )
        toggles.append(
            Toggle(
                name=str(entry.get("name", "")),
                parameter=str(entry.get("parameter", "")),
                values=values or (),
            )
        )
    pairwise = tuple(
        listed("D005", f"pairwise[{index}]", entry)
        for index, entry in enumerate(
            listed("D005", "pairwise", payload.get("pairwise", ())) or ()
        )
    )
    if errors:
        raise CheckFailure(errors)
    return StudySpec(toggles=tuple(toggles), pairwise=pairwise, **fields)


def spec_from_json(text: str) -> StudySpec:
    return spec_from_dict(json.loads(text))


# -- validation ---------------------------------------------------------------


def _check_toggle_value(spec: StudySpec, toggle: Toggle, value) -> CheckError | None:
    """One value of one toggle: type + vocabulary + machine legality."""
    subject = f"{toggle.name}={value!r}"
    parameter = toggle.parameter
    if parameter == "machine":
        if value not in MACHINES_BY_NAME:
            return CheckError("A002", subject, "unknown machine model")
    elif parameter == "scheme":
        if value not in ALL_SCHEMES:
            return CheckError("A001", subject, "unknown fetch scheme")
    elif parameter == "variant":
        if value not in VARIANTS:
            return CheckError(
                "D002", subject, f"variant must be one of {VARIANTS}"
            )
    elif parameter == "prewarm":
        if not isinstance(value, bool):
            return CheckError("D002", subject, "prewarm must be a bool")
    elif parameter == "predictor":
        if value not in PREDICTOR_KINDS:
            return CheckError(
                "D002", subject, f"predictor must be one of {PREDICTOR_KINDS}"
            )
    elif parameter == "num_banks":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            return CheckError(
                "D002", subject, "num_banks must be a positive integer"
            )
    else:  # machine field (parameter already known-legal)
        wanted = MACHINE_FIELDS[parameter]
        if wanted is bool:
            if not isinstance(value, bool):
                return CheckError(
                    "D002", subject, f"{parameter} must be a bool"
                )
        elif wanted is int and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            return CheckError("D002", subject, f"{parameter} must be an int")
        elif wanted is str and not isinstance(value, str):
            return CheckError("D002", subject, f"{parameter} must be a str")
        else:
            try:
                dataclasses.replace(
                    get_machine(spec.machine), **{parameter: value}
                )
            except ValueError as exc:
                return CheckError("D006", subject, str(exc))
    return None


def validate(spec: StudySpec) -> list[CheckError]:
    """Every structural problem with *spec* (empty list = legal)."""
    errors: list[CheckError] = []

    def flag(code: str, subject: str, message: str) -> None:
        errors.append(CheckError(code, subject, message))

    if not spec.name or not isinstance(spec.name, str):
        flag("D005", "name", "study name must be a non-empty string")
    if not spec.benchmarks:
        flag("D005", "benchmarks", "study needs at least one benchmark")
    for benchmark in spec.benchmarks:
        if benchmark not in ALL_BENCHMARKS:
            flag("A003", str(benchmark), "unknown benchmark")
    if spec.machine not in MACHINES_BY_NAME:
        flag("A002", str(spec.machine), "unknown machine model")
    if spec.scheme not in ALL_SCHEMES:
        flag("A001", str(spec.scheme), "unknown fetch scheme")
    if spec.variant not in VARIANTS:
        flag("D005", str(spec.variant), f"variant must be one of {VARIANTS}")
    for name, value in (
        ("length", spec.length),
        ("eir_length", spec.eir_length),
    ):
        if not isinstance(value, int) or value < 1:
            flag("D005", name, f"{name} must be a positive integer")
    if not isinstance(spec.warmup, int) or spec.warmup < 0:
        flag("D005", "warmup", "warmup must be a non-negative integer")
    if not spec.metrics or any(m not in METRICS for m in spec.metrics):
        flag(
            "D005",
            "metrics",
            f"metrics must be a non-empty subset of {METRICS}",
        )

    seen: set[str] = set()
    valid_machine = spec.machine in MACHINES_BY_NAME
    for toggle in spec.toggles:
        subject = toggle.name or "<unnamed>"
        if not toggle.name:
            flag("D003", subject, "toggle needs a name")
        elif toggle.name in seen:
            flag("D003", subject, "duplicate toggle name")
        seen.add(toggle.name)
        if not toggle.values:
            flag("D003", subject, "toggle needs at least one value")
        if len({value_key(v) for v in toggle.values}) != len(toggle.values):
            flag("D003", subject, "toggle values must be unique")
        if toggle.parameter not in PARAMETERS:
            flag(
                "D001",
                f"{subject}:{toggle.parameter}",
                f"parameter must be one of {PARAMETERS}",
            )
            continue
        if not valid_machine:
            continue  # value legality needs a resolvable base machine
        for value in toggle.values:
            error = _check_toggle_value(spec, toggle, value)
            if error is not None:
                errors.append(error)

    by_name = {toggle.name: toggle for toggle in spec.toggles}
    for group in spec.pairwise:
        subject = "x".join(str(name) for name in group)
        if len(group) < 2 or len(set(group)) != len(group):
            flag(
                "D004",
                subject,
                "pairwise entry must name two or more distinct toggles",
            )
            continue
        undeclared = False
        for name in group:
            if name not in seen:
                flag("D004", str(name), "pairwise names an undeclared toggle")
                undeclared = True
        if undeclared:
            continue
        if len({by_name[name].parameter for name in group}) != len(group):
            flag(
                "D004",
                subject,
                "paired toggles must flip distinct parameters",
            )

    if not errors and valid_machine:
        # Pairwise override *combinations* can be illegal even when each
        # override is legal alone (e.g. a small machine with a large
        # block): resolve every generated run once, dry.
        for overrides, _, _ in _generate(spec):
            try:
                resolve_scenario(spec, overrides)
            except ValueError as exc:
                label = ",".join(
                    f"{k}={v!r}" for k, v in sorted(overrides.items())
                )
                errors.append(CheckError("D006", label, str(exc)))
    return errors


# -- expansion ----------------------------------------------------------------


def resolve_scenario(spec: StudySpec, overrides: dict) -> dict:
    """The canonical scenario a run with *overrides* computes.

    Machine-field overrides equal to the (possibly overridden) base
    machine's value are dropped — they are no-ops, and dropping them is
    what makes equal-content runs hash to equal IDs.  Raises
    ``ValueError`` when the field combination builds an illegal
    :class:`~repro.machines.config.MachineConfig`.
    """
    machine_name = overrides.get("machine", spec.machine)
    base = get_machine(machine_name)
    fields = {
        key: value
        for key, value in overrides.items()
        if key in MACHINE_FIELDS and value != getattr(base, key)
    }
    if fields:
        dataclasses.replace(base, **fields)  # legality check (ValueError)
    return {
        "machine": machine_name,
        "fields": {key: fields[key] for key in sorted(fields)},
        "scheme": overrides.get("scheme", spec.scheme),
        "variant": overrides.get("variant", spec.variant),
        "prewarm": bool(overrides.get("prewarm", spec.prewarm)),
        "predictor": overrides.get("predictor", DEFAULT_PREDICTOR),
        "num_banks": int(overrides.get("num_banks", 0)),
    }


def _workload_block(spec: StudySpec) -> dict:
    return {
        "benchmarks": list(spec.benchmarks),
        "length": spec.length,
        "eir_length": spec.eir_length,
        "warmup": spec.warmup,
        "seed": spec.seed,
        "metrics": list(spec.metrics),
    }


def run_id_of(spec: StudySpec, overrides: dict) -> str:
    """Content-hashed run ID (see module docstring)."""
    payload = {
        "scenario": resolve_scenario(spec, overrides),
        "workload": _workload_block(spec),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:RUN_ID_LEN]


@dataclass(frozen=True, slots=True)
class StudyRun:
    """One unique run of the expanded study."""

    run_id: str
    label: str
    scenario: dict
    #: Effective overrides: scenario components differing from baseline.
    overrides: tuple


@dataclass(slots=True)
class Expansion:
    """The deterministic run set of one spec, with lookup indices."""

    spec: StudySpec
    runs: list[StudyRun] = field(default_factory=list)
    baseline_id: str = ""
    #: ``(toggle_name, value_key) -> run_id`` for one-factor-off runs.
    singles: dict = field(default_factory=dict)
    #: Sorted ``((toggle, value_key), ...) -> run_id`` for pairwise runs.
    pairs: dict = field(default_factory=dict)
    #: Every *generated* entry pre-dedup: ``(role, toggle_names, run_id)``
    #: — the conservation ledger tests count against.
    memberships: list = field(default_factory=list)

    def single_id(self, toggle: str, value) -> str:
        return self.singles[(toggle, value_key(value))]

    def pair_id(self, *names_and_values) -> str:
        """The run of a pairwise cell, from ``toggle, value, toggle,
        value, ...`` in any order."""
        names = names_and_values[::2]
        values = names_and_values[1::2]
        return self.pairs[_pair_key(names, values)]


def _pair_key(names, values) -> tuple:
    return tuple(sorted(zip(names, map(value_key, values))))


def _generate(spec: StudySpec):
    """Yield ``(overrides, role, toggle_names)`` in declaration order;
    a pairwise row's overrides follow its toggle names' order."""
    yield {}, "baseline", ()
    for toggle in spec.toggles:
        for value in toggle.values:
            yield {toggle.parameter: value}, "single", (toggle.name,)
    by_name = {toggle.name: toggle for toggle in spec.toggles}
    for group in spec.pairwise:
        toggles = [by_name[name] for name in group]
        for values in itertools.product(*(t.values for t in toggles)):
            yield (
                {t.parameter: v for t, v in zip(toggles, values)},
                "pair",
                tuple(group),
            )


def _label(spec: StudySpec, scenario: dict, baseline: dict) -> tuple[str, tuple]:
    """Human label + effective-override tuple of a resolved scenario."""
    diffs = []
    for key in ("machine", "scheme", "variant", "prewarm", "predictor",
                "num_banks"):
        if scenario[key] != baseline[key]:
            diffs.append((key, scenario[key]))
    for key, value in scenario["fields"].items():
        diffs.append((key, value))
    diffs.sort()
    if not diffs:
        return "baseline", ()
    return ",".join(f"{k}={v}" for k, v in diffs), tuple(diffs)


def expand(spec: StudySpec) -> Expansion:
    """Validate *spec* and build its deterministic run set.

    Raises :class:`CheckFailure` on any structural problem, including a
    run set larger than the :data:`MAX_RUNS` budget (``D007``).
    """
    errors = validate(spec)
    if errors:
        raise CheckFailure(errors)

    expansion = Expansion(spec=spec)
    baseline_scenario = resolve_scenario(spec, {})
    by_id: dict[str, StudyRun] = {}
    for overrides, role, toggle_names in _generate(spec):
        run_id = run_id_of(spec, overrides)
        if run_id not in by_id:
            scenario = resolve_scenario(spec, overrides)
            label, effective = _label(spec, scenario, baseline_scenario)
            run = StudyRun(run_id, label, scenario, effective)
            by_id[run_id] = run
            expansion.runs.append(run)
        expansion.memberships.append((role, toggle_names, run_id))
        if role == "baseline":
            expansion.baseline_id = run_id
        elif role == "single":
            (name,) = toggle_names
            (param_value,) = overrides.items()
            expansion.singles[(name, value_key(param_value[1]))] = run_id
        else:
            expansion.pairs[
                _pair_key(toggle_names, overrides.values())
            ] = run_id

    if len(expansion.runs) > MAX_RUNS:
        raise CheckFailure(
            [
                CheckError(
                    "D007",
                    spec.name,
                    f"{len(expansion.runs)} unique runs exceed the "
                    f"study budget of {MAX_RUNS}",
                )
            ]
        )
    return expansion
