"""Seeded differential test: every engine agrees with ``run_reference()``.

A fixed-seed generator draws 200 simulations over the knobs that change
which engine runs and what it must reproduce: benchmark and trace
length, a paper machine with its cache, BTB, penalty, recovery,
memory-ordering, queue, speculation and window fields varied (configs
``repro.check.config.check_config`` flags are redrawn), every factory
fetch scheme, a direction predictor or return stack, wrong-path fetch,
warmup and prewarm.

For each case three fresh simulators share one trace: ``run()`` (the
kernel records its fetch-outcome tape, or a declined run executes),
a second ``run()`` (a kernel replays the tape) and ``run_reference()``.
They must agree on every counted statistic, the warmup snapshot,
``wrong_path_cycles`` and the state each run leaves in its fetch unit
(``kernel._end_state``).  A seeded subset of the cases runs again with
telemetry on: the kernel's slot ledger, fetch-cycle count and
delivered-per-fetch histogram, recorded and then replayed, must equal
those the reference loop's observer charges.

Fetch-only EIR gets the same treatment: 60 seeded cases compare
``measure_eir`` on the kernel's plan memo with live planning, and a few
results and packet-checker findings are locked to their values from
before EIR used the memo.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.branch.predictors import GShare, TwoLevelLocal
from repro.branch.ras import ReturnAddressStack
from repro.check.config import check_config
from repro.fetch.factory import ALL_SCHEMES, create_fetch_unit
from repro.machines.presets import get_machine
from repro.sim import kernel as sim_kernel
from repro.sim.simulator import Simulator
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace

SEED = 20_251_016
CASES = 200

BENCHMARKS = ("espresso", "li", "gcc", "eqntott", "compress", "tomcatv")
PREDICTORS = ("none", "gshare", "2level", "ras", "gshare+ras")


@dataclasses.dataclass(frozen=True)
class Case:
    benchmark: str
    length: int
    trace_seed: int
    machine: object
    scheme: str
    predictor: str
    wrong_path: bool
    warmup: int
    prewarm: bool

    def __str__(self) -> str:
        m = self.machine
        return (
            f"{self.benchmark}/{self.length}/{m.name} {self.scheme} "
            f"pred={self.predictor} wp={self.wrong_path} "
            f"warmup={self.warmup} prewarm={self.prewarm} "
            f"icache={m.icache_bytes} btb={m.btb_entries} "
            f"penalty={m.fetch_penalty} miss={m.icache_miss_latency} "
            f"retire={m.recovery_at_retire} mem={m.memory_ordering} "
            f"queue={m.fetch_queue_groups} spec={m.speculation_depth} "
            f"window={m.window_size}"
        )


def _machine(rng: random.Random):
    """A varied paper machine that ``check_config`` accepts."""
    while True:
        base = get_machine(rng.choice(("PI4", "PI8", "PI12")))
        fields = {
            "icache_bytes": rng.choice((256, 512, 1024, 4096, base.icache_bytes)),
            "btb_entries": rng.choice((16, 64, 256, 1024)),
            "fetch_penalty": rng.randrange(0, 4),
            "icache_miss_latency": rng.choice((1, 2, 5, 10)),
            "recovery_at_retire": rng.random() < 0.3,
            "memory_ordering": rng.choice(("none", "conservative")),
            "fetch_queue_groups": rng.randrange(1, 4),
            "speculation_depth": rng.randrange(1, 9),
            "window_size": rng.randrange(base.issue_rate - 2, 48),
        }
        try:
            machine = dataclasses.replace(base, **fields)
        except ValueError:
            continue
        if not check_config(machine):
            return machine


def _cases() -> list[Case]:
    rng = random.Random(SEED)
    cases = []
    for _ in range(CASES):
        length = rng.randrange(600, 3001)
        cases.append(
            Case(
                benchmark=rng.choice(BENCHMARKS),
                length=length,
                trace_seed=rng.randrange(1 << 16),
                machine=_machine(rng),
                scheme=rng.choice(ALL_SCHEMES),
                predictor=rng.choice(PREDICTORS),
                wrong_path=rng.random() < 0.5,
                warmup=rng.choice((0, rng.randrange(1, length // 2))),
                prewarm=rng.random() < 0.7,
            )
        )
    return cases


def _unit(case: Case, trace):
    kind = case.predictor
    direction = {"gshare": GShare, "gshare+ras": GShare, "2level": TwoLevelLocal}
    return create_fetch_unit(
        case.scheme,
        case.machine,
        trace,
        direction_predictor=direction[kind]() if kind in direction else None,
        return_stack=ReturnAddressStack() if kind.endswith("ras") else None,
    )


def _outcome(sim: Simulator, stats) -> tuple:
    counted = tuple(
        getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name != "extra"
    )
    return (
        counted,
        sim._snapshot,
        sim.wrong_path_cycles,
        sim_kernel._end_state(sim.fetch_unit),
    )


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, id=f"{i:03d}-{str(case).split()[0]}")
        for i, case in enumerate(_cases())
    ],
)
def test_engines_agree_with_reference(case: Case):
    workload = load_workload(case.benchmark)
    trace = generate_trace(
        workload.program, workload.behavior, case.length, seed=case.trace_seed
    )

    def simulator():
        return Simulator(
            case.machine,
            trace,
            _unit(case, trace),
            warmup=case.warmup,
            prewarm_cache=case.prewarm,
            wrong_path_fetch=case.wrong_path,
        )

    runs = []
    for _ in range(2):
        sim = simulator()
        runs.append(_outcome(sim, sim.run()))
    reference = simulator()
    expected = _outcome(reference, reference.run_reference())
    labels = ("counted stats", "snapshot", "wrong_path_cycles", "end state")
    for attempt, outcome in enumerate(runs):
        for label, got, want in zip(labels, outcome, expected):
            assert got == want, f"run {attempt + 1} {label} differs: {case}"


# -- telemetry: the kernel's slot ledger against the reference observer -------

#: Cases rerun with telemetry on (a seeded subset of the 200).
TELEMETRY_CASES = sorted(random.Random(SEED + 2).sample(range(CASES), 32))


def _telemetry(sim: Simulator, stats) -> tuple:
    report = sim.telemetry_report
    return (
        *_outcome(sim, stats),
        stats.extra,
        report.counters,
        report.histograms,
    )


def test_telemetry_cases_cover_the_knobs():
    """The subset exercises every scheme the kernel runs, predictors and
    return stacks, wrong-path fetch, ``warmup=0``, prewarm off and
    recovery at retire."""
    cases = [_cases()[i] for i in TELEMETRY_CASES]
    assert set(ALL_SCHEMES) - {"trace_cache"} <= {c.scheme for c in cases}
    assert set(PREDICTORS) == {c.predictor for c in cases}
    assert any(c.wrong_path for c in cases)
    assert any(c.warmup == 0 for c in cases)
    assert any(not c.prewarm for c in cases)
    assert any(c.machine.recovery_at_retire for c in cases)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, id=f"{i:03d}-{str(case).split()[0]}")
        for i, case in enumerate(_cases())
        if i in TELEMETRY_CASES
    ],
)
def test_kernel_ledger_agrees_with_reference(case: Case):
    workload = load_workload(case.benchmark)
    trace = generate_trace(
        workload.program, workload.behavior, case.length, seed=case.trace_seed
    )

    def simulator(kernel):
        return Simulator(
            case.machine,
            trace,
            _unit(case, trace),
            warmup=case.warmup,
            prewarm_cache=case.prewarm,
            wrong_path_fetch=case.wrong_path,
            telemetry=True,
            kernel=kernel,
        )

    reference = simulator(False)
    expected = _telemetry(reference, reference.run())
    labels = (
        "counted stats",
        "snapshot",
        "wrong_path_cycles",
        "end state",
        "ledger",
        "counters",
        "histograms",
    )
    for attempt in range(2):
        sim = simulator(None)
        outcome = _telemetry(sim, sim.run())
        if case.scheme != "trace_cache":
            assert sim.kernel_mode == ("record", "replay")[attempt], case
        for label, got, want in zip(labels, outcome, expected):
            assert got == want, f"run {attempt + 1} {label} differs: {case}"


# -- fetch-only EIR: the plan memo against live planning ----------------------
#
# ``measure_eir`` plans through the kernel's fetch-plan memo for vetted
# schemes; an unvetted subclass of the same scheme, or ``REPRO_KERNEL=0``,
# plans every fetch live through ``FetchUnit.fetch_cycle``.  Both must give
# the same ``EIRResult`` and leave the unit in the same state.

EIR_SCHEMES = (
    "sequential",
    "interleaved_sequential",
    "banked_sequential",
    "collapsing_buffer",
    "perfect",
)
EIR_CASES = 60


@dataclasses.dataclass(frozen=True)
class EIRCase:
    benchmark: str
    length: int
    trace_seed: int
    machine: object
    scheme: str
    num_banks: int | None
    warmup: int
    prewarm: bool
    live: str  # how the reference run plans live: "subclass" or "env"

    def __str__(self) -> str:
        m = self.machine
        return (
            f"{self.benchmark}/{self.length}/{m.name} {self.scheme} "
            f"banks={self.num_banks} warmup={self.warmup} "
            f"prewarm={self.prewarm} icache={m.icache_bytes} "
            f"btb={m.btb_entries} live={self.live}"
        )


def _eir_cases() -> list[EIRCase]:
    rng = random.Random(SEED + 1)
    cases = []
    for i in range(EIR_CASES):
        base = get_machine(("PI4", "PI8", "PI12")[i % 3])
        machine = dataclasses.replace(
            base,
            icache_bytes=rng.choice((512, 1024, base.icache_bytes)),
            btb_entries=rng.choice((16, 64, base.btb_entries)),
        )
        length = rng.randrange(800, 3001)
        cases.append(
            EIRCase(
                benchmark=rng.choice(BENCHMARKS),
                length=length,
                trace_seed=rng.randrange(1 << 16),
                machine=machine,
                scheme=EIR_SCHEMES[(i // 3) % len(EIR_SCHEMES)],
                num_banks=rng.choice((None, 1, 2, 4)),
                # 0, inside the first half, or past it (clamped to half).
                warmup=rng.choice((0, rng.randrange(1, length // 2), length)),
                prewarm=rng.random() < 0.6,
                live=("subclass", "env")[i % 2],
            )
        )
    return cases


def _eir_state(unit) -> tuple:
    return (
        dataclasses.astuple(unit.stats),
        dataclasses.astuple(unit.btb.stats),
        dataclasses.astuple(unit.cache.stats),
        sim_kernel._end_state(unit),
    )


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, id=f"eir{i:02d}-{str(case).split()[0]}")
        for i, case in enumerate(_eir_cases())
    ],
)
def test_memoised_eir_matches_live_planning(case: EIRCase, monkeypatch):
    from repro.sim.eir import measure_eir

    workload = load_workload(case.benchmark)
    trace = generate_trace(
        workload.program, workload.behavior, case.length, seed=case.trace_seed
    )

    def run(unit):
        return measure_eir(
            trace,
            case.machine,
            unit,
            warmup=case.warmup,
            prewarm_cache=case.prewarm,
        )

    memoised = create_fetch_unit(
        case.scheme, case.machine, trace, num_banks=case.num_banks
    )
    before = sim_kernel.stats["plans_compiled"]
    got = run(memoised)
    assert sim_kernel.stats["plans_compiled"] > before  # the memo planned

    cls = type(memoised)
    if case.live == "subclass":
        cls = type(f"Unvetted{cls.__name__}", (cls,), {})
    else:
        monkeypatch.setenv("REPRO_KERNEL", "0")
    live = cls(case.machine, trace, num_banks=case.num_banks)
    before = sim_kernel.stats["plans_compiled"]
    want = run(live)
    assert sim_kernel.stats["plans_compiled"] == before  # planned live
    assert got == want, f"EIRResult differs: {case}"
    assert _eir_state(memoised) == _eir_state(live), f"end state differs: {case}"


#: ``EIRResult`` counts ``(delivered, cycles, mispredicts, cache_misses)``
#: from before ``measure_eir`` planned through the kernel's memo.
EIR_LOCKED = (
    ("espresso", "PI4", "sequential", 4000, 2000, True, (2000, 765, 50, 0)),
    ("li", "PI8", "collapsing_buffer", 4000, 500, True, (3499, 593, 129, 0)),
    ("gcc", "PI12", "banked_sequential", 4000, 0, False, (4000, 909, 167, 78)),
    ("compress", "PI12", "interleaved_sequential", 4000, 3000, True,
     (1996, 275, 40, 0)),
    ("tomcatv", "PI8", "perfect", 4000, 2000, False, (1999, 460, 16, 26)),
)


@pytest.mark.parametrize(
    "locked", EIR_LOCKED, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}"
)
def test_eir_results_locked(locked):
    from repro.experiments.common import variant_trace
    from repro.sim.eir import measure_eir

    benchmark, machine, scheme, length, warmup, prewarm, counts = locked
    result = measure_eir(
        variant_trace(benchmark, "orig", length, 0),
        machine,
        scheme,
        warmup=warmup,
        prewarm_cache=prewarm,
    )
    got = (result.delivered, result.cycles, result.mispredicts, result.cache_misses)
    assert got == counts


#: A packet checker holding another scheme's (stricter) rules finds
#: K-code violations in every cycle that breaks them: ``(findings,
#: packets checked, SHA-256 prefix of the findings' text)`` as collected
#: before EIR planned through the memo.  A checker-attached unit plans
#: live, so the same findings come out, the same number of times.
KCODES_LOCKED = {
    ("li", "PI8", "collapsing_buffer"): (677, 514, "618d670161cf5feb"),
    ("espresso", "PI12", "banked_sequential"): (413, 441, "e2e8d00da015e8cf"),
}


@pytest.mark.parametrize("key", sorted(KCODES_LOCKED), ids="-".join)
def test_checker_unit_collects_the_same_kcodes(key):
    import hashlib

    from repro.check.rules import rules_for
    from repro.check.sanitizer import PacketChecker
    from repro.experiments.common import variant_trace
    from repro.sim.eir import measure_eir

    benchmark, machine_name, scheme = key
    trace = variant_trace(benchmark, "orig", 3000, 0)
    machine = get_machine(machine_name)
    unit = create_fetch_unit(scheme, machine, trace)
    collected = []
    checker = PacketChecker(rules_for("sequential"), subject="x", collect=collected)
    unit.checker = checker
    measure_eir(trace, machine, unit, warmup=0)
    text = "\n".join(str(e) for e in collected)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (len(collected), checker.packets_checked, digest) == KCODES_LOCKED[key]
