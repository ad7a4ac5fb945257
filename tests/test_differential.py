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
(``kernel._end_state``).
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
