"""Bit-for-bit equivalence of the execution paths.

``Simulator.run()`` prefers the compiled kernel (``repro.sim.kernel``)
and runs ``Simulator.run_reference()``, the naive loop that spins every
cycle, for every configuration the kernel declines.  Every reported
statistic — including the warmup snapshot counters — must be identical
between the two, or an optimization has broken an invariant (see
``docs/performance.md``).

The kernel matrix below covers every vetted scheme on every machine
preset plus the synthetic micro workloads; the fallback tests prove the
kernel declines ineligible configurations *silently* — same statistics,
reference loop, decline reason recorded.  The predictor matrix runs
direction predictors and return stacks through the kernel's record and
replay modes, as the wrong-path test does for wrong-path fetch, and the
tape-safety tests prove a fetch-outcome tape is only ever replayed into
a unit in the starting state (and wrong-path mode) it was recorded
from, leaving the unit as the recorded run did.
"""

import dataclasses

import pytest

from repro.branch.predictors import GShare, StaticBTFNT, TwoLevelLocal
from repro.branch.ras import ReturnAddressStack
from repro.fetch.factory import create_fetch_unit
from repro.machines.presets import get_machine
from repro.sim import kernel as sim_kernel
from repro.sim.simulator import Simulator
from repro.workloads.micro import MICRO_WORKLOADS
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace

LENGTH = 4_000
WARMUP = 800

BENCHMARKS = ("espresso", "li")
MACHINES = ("PI4", "PI12")
SCHEMES = ("sequential", "collapsing_buffer")

#: Every scheme the kernel vets (matching ``kernel._SUPPORTED_SCHEMES``)
#: and every machine preset — the golden kernel matrix.
KERNEL_SCHEMES = (
    "sequential",
    "interleaved_sequential",
    "banked_sequential",
    "collapsing_buffer",
    "perfect",
)
KERNEL_MACHINES = ("PI4", "PI8", "PI12")


def _trace(benchmark: str):
    workload = load_workload(benchmark)
    return generate_trace(
        workload.program, workload.behavior, LENGTH, seed=0
    )


def _micro_trace(name: str):
    workload = MICRO_WORKLOADS[name]()
    return generate_trace(
        workload.program, workload.behavior, 1_500, seed=0
    )


def _assert_stats_equal(a, b, context):
    for field in dataclasses.fields(type(a)):
        if field.name == "extra":
            # Auxiliary payload (telemetry attribution, ad-hoc notes) —
            # not a counted statistic, so not part of the bit-identity
            # contract.  test_telemetry.py asserts it stays empty when
            # telemetry is off.
            continue
        assert getattr(a, field.name) == getattr(b, field.name), (
            f"{field.name} diverged for {context}"
        )


def _assert_identical(machine, trace, scheme, expect_kernel=None, **kwargs):
    """run() (kernel when eligible) and run_reference() must agree on
    every counter and the warmup snapshot.
    """
    context = f"{machine.name}/{scheme}"
    fast_sim = Simulator(machine, trace, scheme, **kwargs)
    fast = fast_sim.run()
    if expect_kernel is not None:
        assert fast_sim.kernel_used == expect_kernel, (
            f"kernel_used={fast_sim.kernel_used} "
            f"(decline: {fast_sim.kernel_decline_reason}) for {context}"
        )
    ref_sim = Simulator(machine, trace, scheme, **kwargs)
    ref = ref_sim.run_reference()
    _assert_stats_equal(fast, ref, context)
    # The warmup snapshot must also land on the same cycle with the same
    # counter values (the kernel's event skip replays it explicitly).
    assert fast_sim._snapshot == ref_sim._snapshot


# Parametrized as "bench" because pytest-benchmark claims the name
# "benchmark" as a fixture.
@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fast_loop_matches_reference(bench, machine_name, scheme):
    _assert_identical(
        get_machine(machine_name),
        _trace(bench),
        scheme,
        warmup=WARMUP,
        expect_kernel=True,
    )


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("machine_name", KERNEL_MACHINES)
@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_kernel_golden_matrix(bench, machine_name, scheme):
    """Kernel vs reference across every vetted scheme on every machine
    preset."""
    _assert_identical(
        get_machine(machine_name),
        _trace(bench),
        scheme,
        warmup=WARMUP,
        expect_kernel=True,
    )


@pytest.mark.parametrize("micro", sorted(MICRO_WORKLOADS))
@pytest.mark.parametrize("scheme", ("sequential", "collapsing_buffer"))
def test_kernel_micro_workloads(micro, scheme):
    _assert_identical(
        get_machine("PI8"),
        _micro_trace(micro),
        scheme,
        warmup=200,
        expect_kernel=True,
    )


def test_kernel_tape_replay_identical():
    """The second compiled run on a trace replays the fetch-outcome tape
    (no predictor objects touched) and must reproduce the first run —
    and the reference — exactly."""
    machine = get_machine("PI8")
    trace = _trace("espresso")
    before = dict(sim_kernel.stats)
    first_sim = Simulator(
        machine, trace, "interleaved_sequential", warmup=WARMUP
    )
    first = first_sim.run()
    assert first_sim.kernel_used
    second_sim = Simulator(
        machine, trace, "interleaved_sequential", warmup=WARMUP
    )
    second = second_sim.run()
    assert second_sim.kernel_used
    assert sim_kernel.stats["tapes_recorded"] > before["tapes_recorded"]
    assert sim_kernel.stats["tape_replays"] > before["tape_replays"]
    _assert_stats_equal(second, first, "tape replay")
    ref = Simulator(
        machine, trace, "interleaved_sequential", warmup=WARMUP
    ).run_reference()
    _assert_stats_equal(second, ref, "tape replay vs reference")


def test_equivalent_without_warmup():
    _assert_identical(
        get_machine("PI8"),
        _trace("espresso"),
        "interleaved_sequential",
        expect_kernel=True,
    )


def test_equivalent_with_recovery_at_retire():
    machine = dataclasses.replace(
        get_machine("PI4"), recovery_at_retire=True
    )
    _assert_identical(
        machine, _trace("li"), "sequential", warmup=WARMUP,
        expect_kernel=True,
    )


def test_equivalent_with_conservative_memory_ordering():
    machine = dataclasses.replace(
        get_machine("PI4"), memory_ordering="conservative"
    )
    _assert_identical(
        machine, _trace("espresso"), "collapsing_buffer", warmup=WARMUP,
        expect_kernel=True,
    )


def test_equivalent_with_wrong_path_fetch():
    """Wrong-path fetch runs in the kernel: the first run records its
    wrong-path cycles on the tape, the second replays them, and both
    equal the reference, wrong-path cycle count included."""
    machine = get_machine("PI4")
    trace = _trace("li")

    def simulator():
        return Simulator(
            machine,
            trace,
            "banked_sequential",
            warmup=WARMUP,
            wrong_path_fetch=True,
        )

    ref_sim = simulator()
    ref = ref_sim.run_reference()
    assert ref_sim.wrong_path_cycles > 0
    modes = []
    for _ in range(2):
        sim = simulator()
        stats = sim.run()
        assert sim.kernel_used, sim.kernel_decline_reason
        _assert_stats_equal(stats, ref, f"wrong-path {sim.kernel_mode} run")
        assert sim._snapshot == ref_sim._snapshot
        assert sim.wrong_path_cycles == ref_sim.wrong_path_cycles
        modes.append(sim.kernel_mode)
    assert modes == ["record", "replay"]


def test_equivalent_with_shifter_penalty():
    machine = get_machine("PI12").with_fetch_penalty(3)
    _assert_identical(
        machine, _trace("espresso"), "collapsing_buffer", warmup=WARMUP,
        expect_kernel=True,
    )


# -- kernel fallback paths ----------------------------------------------------


def _reference_stats(machine, trace, scheme, **kwargs):
    sim = Simulator(machine, trace, scheme, **kwargs)
    return sim.run_reference(), sim


def test_sanitize_falls_back_to_interpreted_loop():
    """A sanitized run silently uses the reference loop — decline
    recorded, statistics bit-identical to the plain reference."""
    machine = get_machine("PI4")
    trace = _trace("espresso")
    sim = Simulator(
        machine, trace, "collapsing_buffer", warmup=WARMUP, sanitize=True
    )
    stats = sim.run()
    assert not sim.kernel_used
    assert sim.kernel_decline_reason == "sanitize"
    ref, _ = _reference_stats(
        machine, trace, "collapsing_buffer", warmup=WARMUP
    )
    _assert_stats_equal(stats, ref, "sanitize fallback")


def test_telemetry_falls_back_to_interpreted_loop():
    """A telemetry run declines the kernel; counted statistics stay
    identical (``extra`` carries the attribution payload)."""
    machine = get_machine("PI4")
    trace = _trace("espresso")
    sim = Simulator(
        machine, trace, "collapsing_buffer", warmup=WARMUP, telemetry=True
    )
    stats = sim.run()
    assert not sim.kernel_used
    assert sim.kernel_decline_reason == "telemetry"
    assert stats.extra  # attribution recorded
    ref, _ = _reference_stats(
        machine, trace, "collapsing_buffer", warmup=WARMUP
    )
    _assert_stats_equal(stats, ref, "telemetry fallback")


def test_kernel_flag_false_forces_interpreted_loop():
    machine = get_machine("PI4")
    trace = _trace("li")
    sim = Simulator(machine, trace, "sequential", warmup=WARMUP, kernel=False)
    stats = sim.run()
    assert not sim.kernel_used
    assert sim.kernel_decline_reason == "disabled"
    ref, _ = _reference_stats(machine, trace, "sequential", warmup=WARMUP)
    _assert_stats_equal(stats, ref, "kernel=False")


def test_env_knob_disables_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "0")
    machine = get_machine("PI4")
    trace = _trace("li")
    sim = Simulator(machine, trace, "sequential", warmup=WARMUP)
    stats = sim.run()
    assert not sim.kernel_used
    assert sim.kernel_decline_reason == "disabled"
    ref, _ = _reference_stats(machine, trace, "sequential", warmup=WARMUP)
    _assert_stats_equal(stats, ref, "REPRO_KERNEL=0")


def test_unvetted_scheme_declines():
    """Schemes outside the vetted set decline with a scheme: reason and
    still produce reference-identical statistics."""
    from repro.fetch.factory import ALL_SCHEMES

    unvetted = [
        s
        for s in ALL_SCHEMES
        if s
        not in (
            "sequential",
            "interleaved_sequential",
            "banked_sequential",
            "collapsing_buffer",
            "perfect",
        )
    ]
    if not unvetted:
        pytest.skip("every scheme is kernel-vetted")
    machine = get_machine("PI8")
    trace = _trace("espresso")
    scheme = unvetted[0]
    sim = Simulator(machine, trace, scheme, warmup=WARMUP)
    stats = sim.run()
    assert not sim.kernel_used
    assert sim.kernel_decline_reason.startswith("scheme:")
    ref, _ = _reference_stats(machine, trace, scheme, warmup=WARMUP)
    _assert_stats_equal(stats, ref, f"unvetted scheme {scheme}")


# -- direction predictors and return stacks in the kernel ---------------------

#: Predictor configurations as the study engine builds them
#: (``study/engine.py``), plus a static predictor.
PREDICTOR_UNITS = {
    "gshare": lambda: (GShare(), None),
    "2level": lambda: (TwoLevelLocal(), None),
    "btb+ras": lambda: (None, ReturnAddressStack()),
    "gshare+ras": lambda: (GShare(), ReturnAddressStack()),
    "btfnt": lambda: (StaticBTFNT(), None),
}
PREDICTOR_SCHEMES = (
    "sequential",
    "banked_sequential",
    "collapsing_buffer",
    "perfect",
)


def _predictor_unit(name, scheme, machine, trace, num_banks=None):
    predictor, stack = PREDICTOR_UNITS[name]()
    return create_fetch_unit(
        scheme,
        machine,
        trace,
        direction_predictor=predictor,
        return_stack=stack,
        num_banks=num_banks,
    )


def _record_then_replay(make_unit, machine, trace):
    """Two kernel runs on fresh units over one trace (record, replay),
    each equal to ``run_reference()`` on a third."""
    ref_sim = Simulator(machine, trace, make_unit(), warmup=WARMUP)
    ref = ref_sim.run_reference()
    sims = []
    for _ in range(2):
        sim = Simulator(machine, trace, make_unit(), warmup=WARMUP)
        stats = sim.run()
        assert sim.kernel_used, sim.kernel_decline_reason
        _assert_stats_equal(stats, ref, f"{sim.kernel_mode} run")
        assert sim._snapshot == ref_sim._snapshot
        sims.append(sim)
    assert [sim.kernel_mode for sim in sims] == ["record", "replay"]


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("scheme", PREDICTOR_SCHEMES)
@pytest.mark.parametrize("predictor", sorted(PREDICTOR_UNITS))
def test_predictor_units_record_and_replay(bench, machine_name, scheme, predictor):
    machine = get_machine(machine_name)
    trace = _trace(bench)
    _record_then_replay(
        lambda: _predictor_unit(predictor, scheme, machine, trace),
        machine,
        trace,
    )


def test_predictor_unit_with_one_bank_records_and_replays():
    machine = get_machine("PI4")
    trace = _trace("li")
    _record_then_replay(
        lambda: _predictor_unit(
            "gshare+ras", "collapsing_buffer", machine, trace, num_banks=1
        ),
        machine,
        trace,
    )


def test_predictors_no_longer_decline():
    trace = _trace("li")
    machine = get_machine("PI4")
    for scheme in KERNEL_SCHEMES:
        for name in PREDICTOR_UNITS:
            sim = Simulator(
                machine, trace, _predictor_unit(name, scheme, machine, trace)
            )
            assert sim_kernel.decline_reason(sim) is None


# -- tape safety: a replay is only ever served from the starting state ---------


def _unit_state(unit):
    """Everything a run leaves in a fetch unit, read from its objects."""
    btb = unit.btb
    entries = list(zip(btb.tags, btb.targets, btb.states, btb.flags))
    extensions = [
        None if obj is None else dict(vars(obj))
        for obj in (unit.direction_predictor, unit.return_stack)
    ]
    return (
        entries,
        dataclasses.astuple(unit.btb.stats),
        dataclasses.astuple(unit.cache.stats),
        dataclasses.astuple(unit.stats),
        list(unit.cache._tags),
        extensions,
    )


def _kernel_run(machine, trace, unit):
    sim = Simulator(machine, trace, unit, warmup=WARMUP)
    stats = sim.run()
    assert sim.kernel_used
    return stats, sim.kernel_mode


def _reference_run(machine, trace, unit):
    return Simulator(machine, trace, unit, warmup=WARMUP).run_reference()


def _gshare_ras_unit(machine, trace, predictor=None):
    return create_fetch_unit(
        "collapsing_buffer",
        machine,
        trace,
        direction_predictor=predictor or GShare(),
        return_stack=ReturnAddressStack(),
    )


@pytest.fixture
def recorded():
    """PI4 / li with a tape already recorded from a fresh GShare+RAS
    collapsing-buffer unit, so any wrongly served replay would show."""
    machine = get_machine("PI4")
    trace = _trace("li")
    _, mode = _kernel_run(machine, trace, _gshare_ras_unit(machine, trace))
    assert mode == "record"
    return machine, trace


def test_unit_that_already_ran_gets_no_replay(recorded):
    machine, trace = recorded
    unit = _gshare_ras_unit(machine, trace)
    twin = _gshare_ras_unit(machine, trace)
    _kernel_run(machine, trace, unit)
    _reference_run(machine, trace, twin)
    stats, mode = _kernel_run(machine, trace, unit)
    assert mode == "compile"
    _assert_stats_equal(stats, _reference_run(machine, trace, twin), "second run")


def test_btb_trained_unit_gets_no_replay(recorded):
    machine, trace = recorded
    units = [_gshare_ras_unit(machine, trace) for _ in range(2)]
    for unit in units:
        unit.btb.update(trace.instructions[0].address, True, 0)
    stats, mode = _kernel_run(machine, trace, units[0])
    assert mode == "compile"
    _assert_stats_equal(
        stats, _reference_run(machine, trace, units[1]), "pre-trained BTB"
    )


def test_filled_cache_gets_no_replay():
    """Fills leave no counter behind; the cache tags themselves bar the
    tape (cold-cache runs, where a pre-filled block changes the misses)."""
    machine = get_machine("PI4")
    trace = _trace("li")
    runs = []
    for fill in (False, True, True):
        unit = _gshare_ras_unit(machine, trace)
        if fill:
            unit.cache.fill(unit.cache.block_index(trace.instructions[0].address))
        runs.append(Simulator(machine, trace, unit, prewarm_cache=False))
    runs[0].run()
    assert runs[0].kernel_mode == "record"
    stats = runs[1].run()
    assert runs[1].kernel_mode == "compile"
    _assert_stats_equal(stats, runs[2].run_reference(), "pre-filled cache")


def test_trained_gshare_gets_its_own_tape(recorded):
    machine, trace = recorded
    units = []
    for _ in range(2):
        predictor = GShare()
        for taken in (True, True, False):
            predictor.update(trace.instructions[0].address, 0, taken)
        units.append(_gshare_ras_unit(machine, trace, predictor))
    stats, mode = _kernel_run(machine, trace, units[0])
    assert mode == "record"
    _assert_stats_equal(
        stats, _reference_run(machine, trace, units[1]), "pre-trained GShare"
    )


def test_checked_unit_gets_no_replay(recorded):
    from repro.check.sanitizer import PacketChecker

    machine, trace = recorded
    units = [_gshare_ras_unit(machine, trace) for _ in range(2)]
    checker = PacketChecker.for_unit(units[0])
    stats, mode = _kernel_run(machine, trace, units[0])
    assert mode == "compile"
    assert checker.packets_checked > 0
    _assert_stats_equal(
        stats, _reference_run(machine, trace, units[1]), "packet-checked unit"
    )


def test_gshare_geometries_do_not_share_a_tape(recorded):
    machine, trace = recorded
    stats, mode = _kernel_run(
        machine, trace, _gshare_ras_unit(machine, trace, GShare(256, 4))
    )
    assert mode == "record"
    ref = _reference_run(
        machine, trace, _gshare_ras_unit(machine, trace, GShare(256, 4))
    )
    _assert_stats_equal(stats, ref, "GShare(256, 4)")


def test_unit_configs_do_not_share_a_tape(recorded):
    machine, trace = recorded
    other = dataclasses.replace(machine, btb_entries=64)
    stats, mode = _kernel_run(machine, trace, _gshare_ras_unit(other, trace))
    assert mode == "record"
    ref = _reference_run(machine, trace, _gshare_ras_unit(other, trace))
    _assert_stats_equal(stats, ref, "unit built with another config")


@pytest.mark.parametrize("predictor", ["gshare+ras", "2level", None])
def test_replay_leaves_the_unit_as_the_recorded_run(predictor):
    machine = get_machine("PI4")
    trace = _trace("espresso")

    def make_unit():
        if predictor is None:
            return create_fetch_unit("banked_sequential", machine, trace)
        return _predictor_unit(predictor, "banked_sequential", machine, trace)

    recorded_unit, replayed_unit, reference_unit = (make_unit() for _ in range(3))
    assert _kernel_run(machine, trace, recorded_unit)[1] == "record"
    assert _kernel_run(machine, trace, replayed_unit)[1] == "replay"
    _reference_run(machine, trace, reference_unit)
    assert _unit_state(replayed_unit) == _unit_state(recorded_unit)
    assert _unit_state(replayed_unit) == _unit_state(reference_unit)
    # A chained run on each unit starts where the first run left it.
    chained = [
        _kernel_run(machine, trace, unit)
        for unit in (recorded_unit, replayed_unit)
    ]
    assert [mode for _, mode in chained] == ["compile", "compile"]
    _assert_stats_equal(chained[1][0], chained[0][0], "chained run")
    _assert_stats_equal(
        chained[1][0],
        _reference_run(machine, trace, reference_unit),
        "chained run vs reference",
    )
    assert _unit_state(replayed_unit) == _unit_state(recorded_unit)


# -- wrong-path fetch and the tape ---------------------------------------------


def _wrong_path_unit(predictor, machine, trace):
    if predictor is None:
        return create_fetch_unit("banked_sequential", machine, trace)
    return _predictor_unit(predictor, "banked_sequential", machine, trace)


def _wrong_path_sim(machine, trace, unit, wrong_path):
    return Simulator(
        machine, trace, unit, warmup=WARMUP, wrong_path_fetch=wrong_path
    )


#: A small I-cache, so wrong-path fills evict correct-path blocks and the
#: two modes leave different cache tags behind.
def _small_cache_machine():
    return dataclasses.replace(get_machine("PI4"), icache_bytes=2 * 1024)


@pytest.mark.parametrize("predictor", ["gshare+ras", None])
@pytest.mark.parametrize("recorded_wrong_path", [True, False])
def test_wrong_path_and_plain_runs_do_not_share_a_tape(
    recorded_wrong_path, predictor
):
    """A tape recorded with wrong-path fetch is never replayed into a
    plain run of the same unit, nor the reverse."""
    machine = _small_cache_machine()
    trace = _trace("gcc")
    first = _wrong_path_sim(
        machine,
        trace,
        _wrong_path_unit(predictor, machine, trace),
        recorded_wrong_path,
    )
    first.run()
    assert first.kernel_mode == "record"
    sim, ref_sim = (
        _wrong_path_sim(
            machine,
            trace,
            _wrong_path_unit(predictor, machine, trace),
            not recorded_wrong_path,
        )
        for _ in range(2)
    )
    stats = sim.run()
    assert sim.kernel_mode == "record"
    _assert_stats_equal(stats, ref_sim.run_reference(), "other wrong-path mode")
    assert sim.wrong_path_cycles == ref_sim.wrong_path_cycles
    assert _unit_state(sim.fetch_unit) == _unit_state(ref_sim.fetch_unit)
    # The modes really differ, so a wrongly served replay would show.
    assert _unit_state(sim.fetch_unit) != _unit_state(first.fetch_unit)


@pytest.mark.parametrize("predictor", ["gshare+ras", None])
def test_wrong_path_replay_leaves_the_unit_as_the_recorded_run(predictor):
    """A wrong-path replay installs the cache tags and return stack the
    recorded run's wrong-path fetches left, as the reference does."""
    machine = _small_cache_machine()
    trace = _trace("gcc")
    units = [_wrong_path_unit(predictor, machine, trace) for _ in range(3)]
    sims = [_wrong_path_sim(machine, trace, unit, True) for unit in units]
    for sim in sims[:2]:
        sim.run()
    assert [sim.kernel_mode for sim in sims[:2]] == ["record", "replay"]
    sims[2].run_reference()
    assert sims[2].wrong_path_cycles > 0
    assert {sim.wrong_path_cycles for sim in sims} == {sims[2].wrong_path_cycles}
    assert _unit_state(units[1]) == _unit_state(units[0])
    assert _unit_state(units[1]) == _unit_state(units[2])


# -- the process-wide tape bound ----------------------------------------------


def _short_trace(benchmark: str = "li"):
    workload = load_workload(benchmark)
    return generate_trace(workload.program, workload.behavior, 1_500, seed=0)


def _held_tapes(trace) -> int:
    return sum(1 for key in trace._kernel_tables or () if key[0] == "tape")


def test_recording_tapes_never_evicts_the_trace_tables():
    """Forty tapes on one trace (forty machine configs) compile its trace
    table once: the bound drops tapes, never the tables beside them."""
    machine = get_machine("PI4")
    trace = _short_trace()
    before = dict(sim_kernel.stats)
    for i in range(40):
        config = dataclasses.replace(machine, icache_miss_latency=10 + i)
        sim = Simulator(config, trace, "sequential", warmup=300)
        sim.run()
        assert sim.kernel_mode == "record"
    assert sim_kernel.stats["tables_compiled"] == before["tables_compiled"] + 1
    assert _held_tapes(trace) == sim_kernel.TAPE_LIMIT


def test_tape_bound_keeps_the_most_recent_tapes():
    """After N + k recordings exactly N tapes are held, the k oldest were
    evicted, and an evicted cell's rerun records again with the same
    statistics, while a held one replays."""
    limit, extra = sim_kernel.TAPE_LIMIT, 3
    machine = get_machine("PI4")
    traces = [_short_trace() for _ in range(limit + extra)]
    before = dict(sim_kernel.stats)
    first = [
        Simulator(machine, trace, "collapsing_buffer", warmup=300).run()
        for trace in traces
    ]
    recorded = sim_kernel.stats["tapes_recorded"] - before["tapes_recorded"]
    assert recorded == limit + extra
    assert sim_kernel.stats["tapes_evicted"] - before["tapes_evicted"] >= extra
    assert [_held_tapes(trace) for trace in traces] == [0] * extra + [1] * limit
    for index in (0, limit + extra - 1):
        sim = Simulator(machine, traces[index], "collapsing_buffer", warmup=300)
        stats = sim.run()
        assert sim.kernel_mode == ("record" if index < extra else "replay")
        _assert_stats_equal(stats, first[index], f"rerun of cell {index}")


def test_tape_index_keeps_no_trace_alive():
    """A dead trace's tables, tapes included, die with it.  (A slotted
    ``DynamicTrace`` takes no weak reference on Python 3.10, so the
    probe watches its tables, which only the trace holds strongly.)"""
    import gc
    import weakref

    trace = _short_trace()
    sim = Simulator(get_machine("PI4"), trace, "sequential", warmup=300)
    sim.run()
    assert sim.kernel_mode == "record"
    tables = weakref.ref(trace._kernel_tables)
    del trace, sim
    gc.collect()
    assert tables() is None
