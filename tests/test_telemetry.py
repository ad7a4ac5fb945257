"""Telemetry subsystem tests.

The contracts locked in here:

* **Slot conservation** — an instrumented run charges every one of the
  machine's ``issue_rate`` fetch slots each cycle to exactly one cause,
  so the ledger sums to ``cycles * issue_rate`` for every scheme,
  machine and workload.
* **Zero interference** — telemetry is opt-in; with it off the fast
  loop runs untouched, ``SimStats.extra`` stays empty, and with it on
  the counted statistics still equal the uninstrumented run's.
* **Cross-checks** — the pipetrace's per-cycle attribution and the
  telemetry ledger agree total for total, and the EIR gap between
  ``sequential`` and ``perfect`` is fully explained by the per-cause
  rate differences.
* **Golden ledgers** — the per-cause split is pinned against values
  captured from the earlier hand-written instrumented loop and pipetrace
  loop, an implementation independent of the shared rule.  The compiled
  kernel must charge them unchanged on a recording run and on a tape
  replay; the trace cache, which the kernel declines, charges them
  through the reference loop's observer.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cli import main as cli_main
from repro.machines.presets import get_machine
from repro.sim import cache as result_cache
from repro.sim.pipetrace import trace_pipeline
from repro.sim.simulator import Simulator
from repro.telemetry import (
    CAUSES,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    build_manifest,
    check_conservation,
    read_jsonl,
    to_csv,
    to_jsonl,
)
from repro.workloads.micro import MICRO_WORKLOADS
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace

LENGTH = 3_000
WARMUP = 500


@pytest.fixture(autouse=True)
def _isolated_env(tmp_path, monkeypatch):
    """Disk cache confined to the test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    result_cache.reset_stats()


def _trace(benchmark: str, length: int = LENGTH):
    workload = load_workload(benchmark)
    return generate_trace(workload.program, workload.behavior, length, seed=0)


def _instrumented(machine, trace, scheme, **kwargs):
    sim = Simulator(machine, trace, scheme, telemetry=True, **kwargs)
    stats = sim.run()
    assert sim.telemetry_report is not None
    return stats, sim.telemetry_report


# -- slot conservation ---------------------------------------------------------


@pytest.mark.parametrize("machine_name", ("PI4", "PI12"))
@pytest.mark.parametrize(
    "scheme",
    (
        "sequential",
        "interleaved_sequential",
        "banked_sequential",
        "collapsing_buffer",
        "perfect",
        "trace_cache",
    ),
)
def test_conservation_across_schemes(machine_name, scheme):
    machine = get_machine(machine_name)
    stats, report = _instrumented(
        machine, _trace("espresso"), scheme, warmup=WARMUP
    )
    check_conservation(report.attribution, report.cycles, machine.issue_rate)
    # The ledger's delivered slots are exactly the delivered statistic.
    assert report.attribution["delivered"] == stats.delivered
    # ... and the stats.extra payload carries the same ledger.
    assert stats.slot_attribution() == report.attribution
    assert stats.extra["issue_rate"] == machine.issue_rate


@pytest.mark.parametrize("name", sorted(MICRO_WORKLOADS))
@pytest.mark.parametrize("scheme", ("sequential", "collapsing_buffer"))
def test_conservation_on_micro_workloads(name, scheme):
    machine = get_machine("PI8")
    workload = MICRO_WORKLOADS[name]()
    trace = generate_trace(workload.program, workload.behavior, 2_000, seed=0)
    _, report = _instrumented(machine, trace, scheme)
    check_conservation(report.attribution, report.cycles, machine.issue_rate)


def test_conservation_checker_rejects_bad_ledgers():
    with pytest.raises(AssertionError):
        check_conservation({"delivered": 7}, cycles=2, issue_rate=4)
    with pytest.raises(AssertionError):
        check_conservation({"delivered": 8, "idle": -2}, 2, 4)
    check_conservation({"delivered": 6, "idle": 2}, 2, 4)


# -- zero interference ---------------------------------------------------------


def test_off_by_default_and_extra_stays_empty():
    sim = Simulator(get_machine("PI4"), _trace("espresso"), "sequential")
    assert sim.telemetry is None
    stats = sim.run()
    assert stats.extra == {}
    assert sim.telemetry_report is None


def test_instrumented_counts_match_fast_loop():
    machine = get_machine("PI4")
    trace = _trace("li")
    fast = Simulator(machine, trace, "sequential", warmup=WARMUP).run()
    instrumented, _ = _instrumented(
        machine, trace, "sequential", warmup=WARMUP
    )
    for field in dataclasses.fields(type(fast)):
        if field.name == "extra":
            continue
        assert getattr(fast, field.name) == getattr(instrumented, field.name)


# -- cache round-trip ----------------------------------------------------------


def test_extra_survives_the_result_cache():
    from repro.experiments.common import sim_stats

    kwargs = dict(length=2_000, warmup=400, telemetry=True)
    first = sim_stats("espresso", "PI4", "sequential", **kwargs)
    assert first.slot_attribution()  # instrumented payload present
    assert result_cache.stats.stores == 1
    second = sim_stats("espresso", "PI4", "sequential", **kwargs)
    assert result_cache.stats.hits == 1
    assert second.extra == first.extra
    assert second == first


def test_telemetry_job_honours_no_kernel(monkeypatch):
    """A ``--no-kernel`` (``REPRO_KERNEL=0``) telemetry job runs the
    reference loop, and its cached result never answers a kernel job
    (or the reverse)."""
    from repro.sim import kernel as sim_kernel
    from repro.sim.batch import SimJob, _run_job

    job = SimJob(
        benchmark="espresso",
        machine="PI4",
        scheme="sequential",
        length=2_000,
        warmup=400,
        telemetry=True,
    )
    runs = sim_kernel.stats["runs"]
    monkeypatch.setenv("REPRO_KERNEL", "0")
    reference = _run_job(job)
    assert sim_kernel.stats["runs"] == runs
    monkeypatch.delenv("REPRO_KERNEL")
    compiled = _run_job(job)
    assert sim_kernel.stats["runs"] == runs + 1
    assert compiled == reference


# -- pipetrace cross-check -----------------------------------------------------


@pytest.mark.parametrize("scheme", ("sequential", "collapsing_buffer"))
def test_pipetrace_attribution_matches_simulator(scheme):
    machine = get_machine("PI4")
    trace = _trace("espresso", 1_200)
    _, report = _instrumented(machine, trace, scheme)
    log = trace_pipeline(machine, trace, scheme, max_cycles=100_000)
    totals = log.attribution_totals()
    assert sum(totals.values()) == len(log.events) * machine.issue_rate
    expected = {cause: report.attribution.get(cause, 0) for cause in CAUSES}
    assert totals == expected


# -- golden ledgers ------------------------------------------------------------

#: Counted ``SimStats`` fields, in the order the golden tuples list them.
COUNTED = (
    "cycles",
    "retired",
    "delivered",
    "fetch_mispredicts",
    "fetch_cache_accesses",
    "fetch_cache_misses",
    "btb_lookups",
    "btb_hits",
    "dynamic_branches",
    "dynamic_taken_branches",
    "retired_nops",
    "speculation_stalls",
    "window_full_stalls",
)

#: espresso, ``LENGTH`` instructions, seed 0, ``WARMUP`` warmup, telemetry
#: on: (machine, scheme, variant) -> (counted stats in ``COUNTED`` order,
#: slot ledger in ``CAUSES`` order, ``fetch_cycles`` counter).  Variant
#: ``wrong_path`` adds ``wrong_path_fetch=True``; ``cold`` turns
#: ``prewarm_cache`` off so I-cache misses reach the ledger.
GOLDEN_CELLS = {
    ("PI4", "sequential", ""): (
        (1593, 2500, 2487, 112, 970, 0, 2594, 342, 448, 348, 0, 44, 3),
        (2487, 559, 621, 0, 0, 2497, 0, 188, 20),
        1147,
    ),
    ("PI4", "interleaved_sequential", ""): (
        (1459, 2500, 2487, 112, 1496, 1, 2574, 342, 448, 348, 0, 114, 3),
        (2487, 349, 0, 0, 0, 2508, 0, 468, 24),
        896,
    ),
    ("PI4", "banked_sequential", ""): (
        (1454, 2500, 2487, 112, 1301, 1, 2584, 344, 448, 348, 0, 121, 3),
        (2487, 164, 6, 129, 0, 2510, 0, 496, 24),
        886,
    ),
    ("PI4", "collapsing_buffer", ""): (
        (1436, 2500, 2487, 112, 1315, 1, 2623, 344, 448, 348, 0, 121, 8),
        (2487, 154, 25, 30, 0, 2508, 0, 516, 24),
        862,
    ),
    ("PI4", "perfect", ""): (
        (1393, 2500, 2487, 112, 1405, 1, 2659, 349, 448, 348, 0, 136, 9),
        (2487, 0, 2, 0, 0, 2479, 0, 580, 24),
        807,
    ),
    ("PI4", "trace_cache", ""): (
        (1445, 2500, 2487, 117, 386, 1, 1208, 208, 448, 348, 0, 124, 8),
        (2487, 49, 66, 0, 0, 2626, 0, 528, 24),
        837,
    ),
    ("PI12", "sequential", ""): (
        (1189, 2499, 2487, 112, 548, 0, 2808, 349, 448, 348, 0, 1, 3),
        (2487, 2042, 1243, 0, 0, 8388, 0, 48, 60),
        656,
    ),
    ("PI12", "interleaved_sequential", ""): (
        (1096, 2494, 2487, 112, 842, 1, 2874, 351, 448, 348, 0, 4, 14),
        (2487, 1841, 0, 0, 0, 8548, 0, 216, 60),
        504,
    ),
    ("PI12", "banked_sequential", ""): (
        (1044, 2494, 2487, 112, 617, 1, 2939, 364, 448, 348, 0, 7, 17),
        (2487, 971, 126, 26, 0, 8570, 0, 288, 60),
        441,
    ),
    ("PI12", "collapsing_buffer", ""): (
        (1014, 2494, 2487, 112, 568, 1, 3019, 372, 448, 348, 0, 11, 22),
        (2487, 572, 56, 7, 0, 8590, 0, 396, 60),
        397,
    ),
    ("PI12", "perfect", ""): (
        (986, 2494, 2487, 112, 546, 1, 3143, 384, 448, 348, 0, 29, 31),
        (2487, 0, 2, 0, 0, 8551, 0, 720, 72),
        331,
    ),
    ("PI12", "trace_cache", ""): (
        (1076, 2494, 2487, 119, 196, 1, 1209, 189, 448, 348, 0, 23, 18),
        (2487, 140, 593, 0, 0, 9140, 0, 492, 60),
        401,
    ),
    ("PI4", "collapsing_buffer", "wrong_path"): (
        (1436, 2500, 2487, 112, 2006, 2, 4225, 513, 448, 348, 0, 121, 8),
        (2487, 154, 25, 30, 0, 2508, 0, 516, 24),
        862,
    ),
    ("PI12", "sequential", "cold"): (
        (1568, 2500, 2492, 113, 588, 39, 2820, 349, 448, 348, 0, 1, 3),
        (2492, 2042, 1243, 0, 4752, 8179, 0, 48, 60),
        732,
    ),
}


@pytest.mark.parametrize(("machine_name", "scheme", "variant"), GOLDEN_CELLS)
def test_golden_ledgers_and_counted_stats(machine_name, scheme, variant):
    expected_stats, expected_ledger, fetch_cycles = GOLDEN_CELLS[
        machine_name, scheme, variant
    ]
    trace = _trace("espresso")
    declined = scheme == "trace_cache"
    for mode in ("record", "replay"):
        sim = Simulator(
            get_machine(machine_name),
            trace,
            scheme,
            warmup=WARMUP,
            wrong_path_fetch=variant == "wrong_path",
            prewarm_cache=variant != "cold",
            telemetry=True,
        )
        stats = sim.run()
        report = sim.telemetry_report
        assert tuple(getattr(stats, name) for name in COUNTED) == expected_stats
        assert tuple(report.attribution[c] for c in CAUSES) == expected_ledger
        assert stats.slot_attribution() == report.attribution
        assert report.counters["fetch_cycles"] == fetch_cycles
        if declined:
            assert not sim.kernel_used
            assert report.engine == "reference:scheme:trace_cache"
            assert set(report.phase_seconds) == {"reference"}
        else:
            assert sim.kernel_used and sim.kernel_mode == mode
            assert report.engine == f"kernel.{mode}"
            assert set(report.phase_seconds) == {"compile_trace", mode}


def test_golden_wrong_path_report():
    sim = Simulator(
        get_machine("PI4"),
        _trace("espresso"),
        "collapsing_buffer",
        warmup=WARMUP,
        wrong_path_fetch=True,
        telemetry=True,
    )
    sim.run()
    report = sim.telemetry_report
    assert sim.kernel_used and sim.kernel_decline_reason is None
    assert sim.wrong_path_cycles == 546
    assert report.counters == {"fetch_cycles": 862, "wrong_path_cycles": 546}
    histogram = report.histograms["delivered_per_fetch"]
    assert (histogram["count"], histogram["total"]) == (862, 3000.0)
    assert (histogram["min"], histogram["max"]) == (1, 4)


#: ``PipeTrace.render(limit=None)`` of 30 traced cycles over a 1,200-
#: instruction trace: (benchmark, machine, scheme, prewarm) -> (sha256 of
#: the exact text, its lines with trailing blanks stripped).
GOLDEN_RENDERS = {
    ("espresso", "PI4", "collapsing_buffer", True): (
        "f58ac8ec19b7a5e56c9052b945105a21"
        "a2c3dde1aeb85c87a59ac57389c883ab",
        (
            "pipeline trace: collapsing_buffer on PI4",
            " cyc fetch group                    stall    disp fire  ret  slots lost to",
            "   0 0,1,2,3                                    0    0    0",
            "   1 4,5,6,7                                    4    0    0",
            "   2 8,9,10,11                                  4    3    0",
            "   3 12,13,14,15                                4    3    0",
            "   4 16,17,18 !mp                               4    2    0  mispredict_resolve:1",
            "   5                                resolve     3    3    4  mispredict_resolve:4",
            "   6                                resolve     0    3    4  mispredict_resolve:4",
            "   7                                resolve     0    2    3  mispredict_resolve:4",
            "   8                                resolve     0    3    1  mispredict_resolve:4",
            "   9                                penalty     0    0    3  mispredict_resolve:4",
            "  10                                penalty     0    0    2  mispredict_resolve:4",
            "  11 11,12,13,14                                0    0    2",
            "  12 15,16,17,18                                4    0    0",
            "  13 11,12,13,14                                4    2    0",
            "  14 15,16,17,18                                4    3    0",
            "  15 11,12,13,14                                4    4    1",
            "  16 15,16,17,18                                4    3    3",
            "  17 11,12,13,14                                4    2    2",
            "  18 15,16,17,18                                4    5    4",
            "  19 11,12,13,14                                4    2    4",
            "  20 15,16,17,18                                4    5    0",
            "  21 11,12,13,14                                4    2    4",
            "  22 15,16,17,18                                4    3    4",
            "  23                                queue       3    4    4  window_full:4",
            "  24 11,12,13,14                                1    3    4",
            "  25 15,16,17,18                                4    4    0",
            "  26 11,12,13,14                                4    2    4",
            "  27 15,16,17,18                                4    3    4",
            "  28                                queue       3    4    4  window_full:4",
            "  29 11,12,13,14                                1    3    4",
        ),
    ),
    ("li", "PI12", "sequential", False): (
        "07e9698c04c6076be698e441a75c4175"
        "bb052467789a34aa43b5112ee5d0b0a0",
        (
            "pipeline trace: sequential on PI12",
            " cyc fetch group                    stall    disp fire  ret  slots lost to",
            "   0                                miss        0    0    0  icache_miss:12",
            "   1                                penalty     0    0    0  icache_miss:12",
            "   2                                penalty     0    0    0  icache_miss:12",
            "   3                                penalty     0    0    0  icache_miss:12",
            "   4                                penalty     0    0    0  icache_miss:12",
            "   5                                penalty     0    0    0  icache_miss:12",
            "   6                                penalty     0    0    0  icache_miss:12",
            "   7                                penalty     0    0    0  icache_miss:12",
            "   8                                penalty     0    0    0  icache_miss:12",
            "   9                                penalty     0    0    0  icache_miss:12",
            "  10 0,1,2,3,4,5,6,7,8,9,10,11                  0    0    0",
            "  11 12,13 !mp                                 12    0    0  mispredict_resolve:10",
            "  12                                resolve     2    3    0  mispredict_resolve:12",
            "  13                                resolve     0    1    0  mispredict_resolve:12",
            "  14                                resolve     0    5    1  mispredict_resolve:12",
            "  15                                resolve     0    2    1  mispredict_resolve:12",
            "  16                                resolve     0    2    4  mispredict_resolve:12",
            "  17                                penalty     0    0    2  mispredict_resolve:12",
            "  18                                penalty     0    1    0  mispredict_resolve:12",
            "  19                                miss        0    0    3  icache_miss:12",
            "  20                                penalty     0    0    3  icache_miss:12",
            "  21                                penalty     0    0    0  icache_miss:12",
            "  22                                penalty     0    0    0  icache_miss:12",
            "  23                                penalty     0    0    0  icache_miss:12",
            "  24                                penalty     0    0    0  icache_miss:12",
            "  25                                penalty     0    0    0  icache_miss:12",
            "  26                                penalty     0    0    0  icache_miss:12",
            "  27                                penalty     0    0    0  icache_miss:12",
            "  28                                penalty     0    0    0  icache_miss:12",
            "  29 35,36,37,38,39,40,41,42 !mp                0    0    0  mispredict_resolve:4",
        ),
    ),
}


@pytest.mark.parametrize(
    ("benchmark_name", "machine_name", "scheme", "prewarm"), GOLDEN_RENDERS
)
def test_golden_pipetrace_render(benchmark_name, machine_name, scheme, prewarm):
    digest, expected = GOLDEN_RENDERS[
        benchmark_name, machine_name, scheme, prewarm
    ]
    log = trace_pipeline(
        get_machine(machine_name),
        _trace(benchmark_name, 1_200),
        scheme,
        max_cycles=30,
        prewarm_cache=prewarm,
    )
    text = log.render(limit=None)
    assert tuple(line.rstrip() for line in text.splitlines()) == expected
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_golden_pipetrace_totals_to_completion():
    log = trace_pipeline(
        get_machine("PI4"),
        _trace("espresso", 1_200),
        "collapsing_buffer",
        max_cycles=100_000,
    )
    assert len(log.events) == 898
    assert log.attribution_totals() == {
        "delivered": 1200,
        "taken_branch_break": 36,
        "misalignment": 7,
        "bank_conflict": 1,
        "icache_miss": 0,
        "mispredict_resolve": 2220,
        "queue_full": 0,
        "window_full": 108,
        "idle": 20,
    }


def test_telemetry_with_sanitizer():
    machine = get_machine("PI4")
    trace = _trace("espresso")
    plain = Simulator(machine, trace, "collapsing_buffer", warmup=WARMUP).run()
    sim = Simulator(
        machine,
        trace,
        "collapsing_buffer",
        warmup=WARMUP,
        sanitize=True,
        telemetry=True,
    )
    stats = sim.run()
    assert sim.kernel_decline_reason == "sanitize"
    assert sim.telemetry_report.engine == "reference:sanitize"
    assert sim.sanitizer.cycles_checked > 0
    assert sim.sanitizer.cycles_checked >= stats.cycles
    for name in COUNTED:
        assert getattr(stats, name) == getattr(plain, name), name
    check_conservation(
        sim.telemetry_report.attribution, stats.cycles, machine.issue_rate
    )


# -- gap decomposition ---------------------------------------------------------


def test_gap_between_sequential_and_perfect_is_explained():
    machine = get_machine("PI8")
    trace = _trace("espresso", 4_000)
    seq, seq_report = _instrumented(
        machine, trace, "sequential", warmup=WARMUP
    )
    perf, perf_report = _instrumented(
        machine, trace, "perfect", warmup=WARMUP
    )
    gap = perf.eir - seq.eir
    assert gap > 0
    seq_rates = seq_report.rates()
    perf_rates = perf_report.rates()
    explained = sum(
        seq_rates.get(cause, 0.0) - perf_rates.get(cause, 0.0)
        for cause in CAUSES
        if cause != "delivered"
    )
    # Slot conservation makes the decomposition exact (well above the
    # >= 95% acceptance bar).
    assert explained == pytest.approx(gap, rel=1e-9)


# -- metrics core --------------------------------------------------------------


def test_histogram_moments():
    histogram = Histogram()
    assert histogram.as_dict()["count"] == 0
    for value in (2.0, 4.0, 6.0):
        histogram.observe(value)
    assert histogram.mean == 4.0
    assert histogram.as_dict() == {
        "count": 3,
        "total": 12.0,
        "min": 2.0,
        "max": 6.0,
        "mean": 4.0,
    }


def test_registry_and_null_registry():
    registry = MetricsRegistry()
    registry.inc("events")
    registry.inc("events", 2)
    registry.observe("sizes", 3.0)
    registry.add_time("phase", 0.5)
    with registry.timer("phase"):
        pass
    assert registry.counters["events"] == 3
    assert registry.histograms["sizes"].count == 1
    assert registry.timers["phase"] >= 0.5
    assert registry.as_dict()["counters"] == {"events": 3}

    null = NullRegistry()
    null.inc("events")
    null.observe("sizes", 3.0)
    null.add_time("phase", 0.5)
    with null.timer("phase"):
        pass
    assert null.counters == {} and null.timers == {}
    assert not null.enabled


# -- exporters and manifest ----------------------------------------------------


def test_jsonl_round_trip_and_csv_union(tmp_path):
    records = [{"a": 1, "b": "x"}, {"a": 2, "c": 3.5}]
    jsonl = to_jsonl(records, tmp_path / "records.jsonl")
    assert read_jsonl(jsonl) == records
    csv_path = to_csv(records, tmp_path / "records.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,x,"
    assert lines[2] == "2,,3.5"


def test_manifest_schema(tmp_path):
    manifest = build_manifest(
        command="stats",
        arguments={"benchmark": "espresso"},
        seeds={"trace": 0},
        timings={"wall": 1.25},
        results=[{"ipc": 2.0}],
        cache_stats={"hits": 1},
    )
    for key in (
        "manifest_version",
        "created_unix",
        "created_utc",
        "command",
        "arguments",
        "source_version",
        "config_fingerprints",
        "seeds",
        "environment",
        "host",
        "timings_seconds",
        "result_cache",
        "results",
    ):
        assert key in manifest, key
    assert manifest["command"] == "stats"
    assert len(manifest["source_version"]) == 64
    # JSON-serialisable end to end.
    json.loads(json.dumps(manifest))


# -- CLI -----------------------------------------------------------------------


def test_cli_stats_json(capsys):
    rc = cli_main(
        [
            "stats",
            "espresso",
            "PI4",
            "--schemes",
            "sequential",
            "perfect",
            "--length",
            "2000",
            "--warmup",
            "400",
            "--json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["issue_rate"] == 4
    schemes = payload["schemes"]
    assert schemes["sequential"]["attribution"]["delivered"] > 0
    assert schemes["perfect"]["eir"] >= schemes["sequential"]["eir"]


def test_cli_stats_table_chart_and_exports(tmp_path, capsys):
    rc = cli_main(
        [
            "stats",
            "espresso",
            "PI4",
            "--schemes",
            "sequential",
            "perfect",
            "--length",
            "2000",
            "--warmup",
            "400",
            "--export-jsonl",
            str(tmp_path / "t.jsonl"),
            "--export-csv",
            str(tmp_path / "t.csv"),
            "--manifest",
            str(tmp_path / "manifest.json"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fetch-slot attribution" in out
    assert "EIR gap vs perfect" in out
    assert "% explained" in out
    assert "slots/cyc" in out  # the bar chart rendered
    records = read_jsonl(tmp_path / "t.jsonl")
    assert {r["scheme"] for r in records} == {"sequential", "perfect"}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "stats"
    assert manifest["results"]


def test_cli_simulate_telemetry(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli_main(
        [
            "simulate",
            "espresso",
            "PI4",
            "sequential",
            "--length",
            "6000",
            "--telemetry",
            str(out_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "slot attribution" in out
    assert "phase wall-clock" in out
    assert "engine: kernel.record" in out
    (record,) = read_jsonl(out_dir / "telemetry.jsonl")
    assert record["slot_delivered"] > 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["engine"] == "kernel.record"
    assert {"compile_trace", "record"} <= set(manifest["timings_seconds"])


def test_cli_sweep_telemetry(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli_main(
        [
            "sweep",
            "--benchmarks",
            "espresso",
            "--machines",
            "PI4",
            "--schemes",
            "sequential",
            "perfect",
            "--length",
            "2000",
            "--warmup",
            "400",
            "--jobs",
            "1",
            "--telemetry",
            str(out_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "result cache:" in out
    records = read_jsonl(out_dir / "telemetry.jsonl")
    assert len(records) == 2
    assert all("slot_delivered" in record for record in records)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["result_cache"]
