"""Per-layer attribution: wrapper install/restore, self-time arithmetic,
conservation against wall time, and span self times."""

import pytest

import layers
from common import load_catalogue
from layers import LayerProfiler, installed


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    profiler = LayerProfiler(clock)
    leaf = profiler.wrap(lambda: clock.advance(2.0), "leaf")

    def middle_body():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)
        leaf()

    middle = profiler.wrap(middle_body, "middle")
    with profiler.frame("root"):
        clock.advance(5.0)
        middle()
        leaf()

    assert dict(profiler.self_s) == {"root": 5.0, "middle": 4.0, "leaf": 6.0}
    assert profiler.calls == {"root": 1, "middle": 1, "leaf": 3}
    assert sum(profiler.self_s.values()) == clock.now


def test_recursion_and_exceptions_are_accounted():
    clock = FakeClock()
    profiler = LayerProfiler(clock)

    def body(depth):
        clock.advance(1.0)
        if depth:
            recurse(depth - 1)
        else:
            raise ValueError("bottom")

    recurse = profiler.wrap(body, "recurse")
    with pytest.raises(ValueError):
        with profiler.frame("root"):
            recurse(2)
    assert dict(profiler.self_s) == {"recurse": 3.0, "root": 0.0}
    assert profiler.calls["recurse"] == 3


def test_callable_name_sees_the_call_arguments():
    profiler = LayerProfiler(FakeClock())
    named = profiler.wrap(lambda x: x, lambda args: f"layer.{args[0]}")
    named("a")
    named("b")
    assert set(profiler.self_s) == {"layer.a", "layer.b"}


def test_install_replaces_every_binding_and_restores_them():
    import repro.experiments.common as experiments_common
    import repro.workloads as workloads_pkg
    import repro.workloads.trace as workloads_trace
    from repro.sim.simulator import Simulator

    original_trace = workloads_trace.generate_trace
    original_run = Simulator.run
    assert workloads_pkg.generate_trace is original_trace
    assert experiments_common.generate_trace is original_trace

    with installed(LayerProfiler()) as profiler:
        wrapped = workloads_trace.generate_trace
        assert wrapped is not original_trace
        assert workloads_pkg.generate_trace is wrapped
        assert experiments_common.generate_trace is wrapped
        assert Simulator.run is not original_run
        workload = workloads_pkg.load_workload("li")
        workloads_pkg.generate_trace(workload.program, workload.behavior, 500, seed=1)
        assert profiler.calls["workloads.generate_trace.self_s"] == 1

    assert workloads_trace.generate_trace is original_trace
    assert workloads_pkg.generate_trace is original_trace
    assert experiments_common.generate_trace is original_trace
    assert Simulator.run is original_run


def test_simulator_run_is_split_by_kernel_mode_and_decline_reason():
    import repro.workloads as rw
    from repro.machines.presets import get_machine
    from repro.sim.simulator import Simulator

    workload = rw.load_workload("li")
    trace = rw.generate_trace(workload.program, workload.behavior, 2_000, seed=3)
    machine = get_machine("PI4")
    with installed(LayerProfiler()) as profiler:
        Simulator(machine, trace, "sequential", warmup=200).run()
        Simulator(machine, trace, "sequential", warmup=200).run()
        Simulator(machine, trace, "trace_cache", warmup=200).run()
    assert profiler.calls["sim.kernel.record_s"] == 1
    assert profiler.calls["sim.kernel.replay_s"] == 1
    assert profiler.calls["sim.simulator.declined.scheme-trace_cache_s"] == 1
    assert profiler.calls["sim.kernel.compile_trace.self_s"] == 2


class Options:
    seed = 5
    seconds = 0.1
    trace = 1
    quick = True
    regen_golden = False

    def __init__(self, work) -> None:
        self.work = str(work)


def _catalogued_self_time(layer_values: dict) -> float:
    """Sum of the catalogue's in-process self times (seconds, outside
    the per-artifact inclusive times)."""
    names = [
        spec["name"]
        for spec in load_catalogue()["per_layer"]
        if spec["unit"] == "s" and not spec["name"].startswith("experiments.")
    ]
    return sum(layer_values.get(name, 0.0) for name in names)


@pytest.mark.parametrize("workload", ["sim_kernel", "sim_declined", "paper_report"])
def test_in_process_layers_conserve_wall_time(workload, tmp_path):
    import workloads

    result = workloads.WORKLOAD_FUNCTIONS[workload](Options(tmp_path))
    assert result["failed"] == 0, result["errors"]
    wall = result["conservation"]["wall_s"]
    assert result["conservation"]["self_sum_s"] == pytest.approx(wall, rel=0.05)
    assert _catalogued_self_time(result["layers"]) == pytest.approx(wall, rel=0.05)


def _span(name, span_id, parent, start, duration, trace_id="t1"):
    from repro.telemetry.trace import Span

    return Span(name, trace_id, span_id, parent, start, duration)


def test_service_self_ms_is_mean_self_time_per_request_class():
    spans = [
        _span("client.request", "a", None, 0.0, 0.010),
        _span("client.submit", "b", "a", 0.001, 0.008),
        _span("balance.try", "c", "b", 0.002, 0.006),
        _span("service.request", "d", "c", 0.003, 0.002),
        _span("client.request", "e", None, 0.0, 0.004, trace_id="t2"),
        _span("client.request", "f", None, 0.0, 0.004, trace_id="t3"),
    ]
    out = layers.service_self_ms(spans, {"t1": "miss", "t2": "hit", "t3": "hit"})
    assert out["service.client.request.miss_self_ms"] == pytest.approx(2.0)
    assert out["service.client.submit.miss_self_ms"] == pytest.approx(2.0)
    assert out["service.balance.try.miss_self_ms"] == pytest.approx(4.0)
    assert out["service.service.request.miss_self_ms"] == pytest.approx(2.0)
    assert out["service.client.request.hit_self_ms"] == pytest.approx(4.0)
    assert out["service.balance.try.hit_self_ms"] == 0.0
    assert len(out) == 2 * len(layers.SERVICE_SPANS)
