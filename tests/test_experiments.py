"""Tests for the experiment harness (scaled-down configurations)."""

import gc
from collections import Counter

import pytest

from repro.experiments import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    fig03_bounds,
    fig09_schemes,
    fig10_eir,
    table2_intra_block,
    table3_taken_reduction,
    table4_nop_padding,
    variant_program,
    variant_trace,
)
from repro.experiments import common
from repro.experiments.report import EXPERIMENTS, run_experiments
from repro.metrics.branches import (
    reduction_between,
    taken_branch_reduction,
    taken_branch_stats,
)
from repro import faults
from repro.sim import cache as result_cache
from repro.sim import supervisor
from repro.sim import kernel as sim_kernel
from repro.sim.batch import SimJob, _run_job
from repro.sim.simulator import Simulator
from repro.sim.supervisor import run_supervised
from repro.workloads.profiles import INTEGER_BENCHMARKS
from repro.workloads.trace import DynamicTrace

#: Small config so experiment tests stay fast.
FAST = ExperimentConfig(
    trace_length=4000, eir_length=6000, stats_length=12000, warmup=1000
)


class TestCommon:
    def test_variant_program_kinds(self):
        for variant in ("orig", "reordered", "pad_all", "pad_trace"):
            program, behavior = variant_program("compress", variant, 4)
            program.cfg.validate()

    def test_unknown_variant(self):
        with pytest.raises(KeyError, match="unknown variant"):
            variant_program("compress", "superblock")

    def test_variant_trace_cached(self):
        a = variant_trace("li", "orig", 2000, 0)
        b = variant_trace("li", "orig", 2000, 0)
        assert a is b  # lru-cached
        # Only pads depend on the block size: other variants share one
        # trace across machines.
        for variant in ("orig", "reordered"):
            assert variant_trace("li", variant, 2000, 0, 8) is variant_trace(
                "li", variant, 2000, 0, block_words=16
            )
        assert variant_trace("li", "pad_all", 2000, 0, 8) is not variant_trace(
            "li", "pad_all", 2000, 0, 16
        )

    def test_padded_variants_contain_nops(self):
        program, _ = variant_program("compress", "pad_all", 8)
        assert program.static_nop_fraction() > 0.2


class TestTableExperiments:
    def test_table2_shape(self):
        result = table2_intra_block.run(FAST)
        assert len(result.rows) == 15
        for row in result.rows:
            # Intra-block fraction grows (weakly) with block size.
            assert row[2] <= row[3] + 3 <= row[4] + 8
            assert 0 <= row[2] <= 100

    def test_table2_known_signatures(self):
        result = table2_intra_block.run(FAST)
        values = {row[1]: row[2:] for row in result.rows}
        # nasa7 is flat near zero; mdljdp2 spikes at 64B (paper).
        assert values["nasa7"][2] < 8
        assert values["mdljdp2"][2] > 40
        assert values["mdljdp2"][2] > values["nasa7"][2] + 30

    def test_table3_reductions_positive(self):
        result = table3_taken_reduction.run(FAST)
        assert len(result.rows) == 9
        measured = [row[1] for row in result.rows]
        assert sum(m > 0 for m in measured) >= 8
        assert all(m < 60 for m in measured)

    def test_table4_pad_trace_cheaper(self):
        result = table4_nop_padding.run(FAST)
        for row in result.rows:
            # pad-all >> pad-trace at every block size.
            assert row[1] > row[2]
            assert row[3] > row[4]
            assert row[5] > row[6]
            # growth with block size
            assert row[1] < row[3] < row[5]


class TestSimulationExperiments:
    def test_fig03_bounds(self):
        result = fig03_bounds.run(FAST)
        assert len(result.rows) == 6
        for row in result.rows:
            _, _, seq, perfect, gap = row
            assert seq <= perfect
            assert 0 <= gap < 100

    def test_fig10_ratios(self):
        result = fig10_eir.run(FAST)
        for row in result.rows:
            ratios = row[3:]
            assert all(0 < r <= 105 for r in ratios)
            # sequential <= collapsing buffer
            assert ratios[0] <= ratios[-1]

    def test_run_experiments_selector(self):
        results = run_experiments(["table4"], FAST)
        assert len(results) == 1
        assert results[0].experiment == "table4"
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiments(["fig99"], FAST)

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig03",
            "table2",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "table3",
            "table4",
            "fig13",
        }

    def test_result_renders(self):
        result = table4_nop_padding.run(FAST)
        text = result.as_text()
        assert "pad-all" in text
        assert result.title in text


class TestDetailVariants:
    def test_fig09_detail_rows(self):
        from repro.experiments import fig09_schemes

        result = fig09_schemes.run_detail(FAST)
        assert len(result.rows) == 15 * 3
        for row in result.rows:
            ipcs = row[3:]
            assert all(0 < value <= 12.5 for value in ipcs)
            assert ipcs[-1] * 1.05 >= max(ipcs)  # perfect ~dominates

    def test_fig10_detail_rows(self):
        from repro.experiments import fig10_eir

        result = fig10_eir.run_detail(FAST)
        assert len(result.rows) == 15 * 3
        for row in result.rows:
            assert all(0 < ratio <= 105 for ratio in row[4:])


class TestSerialisation:
    def test_as_records_and_json(self):
        import json

        result = table4_nop_padding.run(FAST)
        records = result.as_records()
        assert len(records) == len(result.rows)
        assert set(records[0]) == set(result.headers)
        decoded = json.loads(result.to_json())
        assert decoded["experiment"] == "table4"
        assert decoded["rows"] == [list(r) for r in json.loads(
            result.to_json())["rows"]]


#: Tables 2-4 at a size small enough to run three times per test.
TINY = ExperimentConfig(
    trace_length=1500, eir_length=1500, stats_length=4000, warmup=300, seed=7
)

#: Workload, trace and compiler entry points a warm Table 2-4 run must
#: never reach (every cell comes from the result cache).
_UNCACHED_WORK = (
    "generate_trace",
    "reorder_program",
    "pad_all",
    "pad_trace",
    "load_workload",
)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)


@pytest.fixture(scope="class")
def cold_tables(tmp_path_factory):
    """Tables 2-4 run cold on an empty cache: (cache dir, JSON, counter
    deltas)."""
    cache_dir = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        patch.delenv("REPRO_CACHE", raising=False)
        _clear_memos()
        before = result_cache.stats.snapshot()
        text = _tables_json(TINY)
        yield cache_dir, text, result_cache.stats.since(before)
    _clear_memos()


def _clear_memos() -> None:
    common._trace.cache_clear()


def _tables_json(config: ExperimentConfig) -> str:
    return "\n".join(
        module.run(config).to_json()
        for module in (table2_intra_block, table3_taken_reduction, table4_nop_padding)
    )


def _forbid_uncached_work(monkeypatch) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("a warm table run reached a workload/compiler pass")

    for module in (
        common,
        table2_intra_block,
        table3_taken_reduction,
        table4_nop_padding,
    ):
        for name in _UNCACHED_WORK:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


def test_table4_builds_no_padded_program(fresh_cache, monkeypatch):
    """Table 4 reads only the padding plans' nop counts: no CFG clone, no
    layout of a padded program."""
    from repro.compiler import padding
    from repro.program import program as program_module
    from repro.program.program import Program

    for benchmark in INTEGER_BENCHMARKS:
        common._reorder_cached(benchmark)  # pad_trace's input, built first

    def forbidden(*args, **kwargs):
        raise AssertionError("Table 4 built a padded program")

    monkeypatch.setattr(Program, "from_order", forbidden)
    monkeypatch.setattr(padding, "clone_cfg", forbidden)
    monkeypatch.setattr(program_module, "clone_cfg", forbidden)
    result = table4_nop_padding.run(TINY)
    assert [row[0] for row in result.rows] == list(INTEGER_BENCHMARKS)
    assert all(value > 0 for row in result.rows for value in row[1:])


def test_cold_report_holds_at_most_the_tape_bound(fresh_cache):
    """A cold report records a fetch-outcome tape per simulated cell and
    replays none; the kernel keeps at most ``TAPE_LIMIT`` of them on all
    live traces together, ``variant_trace``'s cache included.  Counted,
    not timed, so the guard holds on every Python."""
    _clear_memos()
    before = sim_kernel.stats["tapes_recorded"]
    run_experiments(["fig03", "fig09"], TINY, processes=1)
    recorded = sim_kernel.stats["tapes_recorded"] - before
    assert recorded > sim_kernel.TAPE_LIMIT
    held = sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, DynamicTrace)
        for key in obj._kernel_tables or ()
        if key[0] == "tape"
    )
    assert held <= sim_kernel.TAPE_LIMIT


def test_worker_misses_hold_at_most_the_trace_bound(fresh_cache):
    """A long-lived worker's one-off misses (a new seed each) keep at most
    ``TRACE_LIMIT`` traces alive: the trace memo is bounded, and no
    result memo holds a trace.  Counted, not measured as RSS."""
    seeds = range(10_000, 10_000 + common.TRACE_LIMIT + 10)
    for seed in seeds:
        _run_job(
            SimJob("espresso", "PI4", "sequential", length=600, warmup=100, seed=seed)
        )
    gc.collect()
    held = sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, DynamicTrace) and obj.seed in seeds
    )
    assert held <= common.TRACE_LIMIT


class TestTableCaching:
    """Tables 2-4 read every measured cell through the result cache."""

    def test_warm_run_does_no_trace_or_compiler_work(
        self, cold_tables, monkeypatch
    ):
        cache_dir, cold, cold_delta = cold_tables
        # 15 x 3 Table 2 cells, 9 reordered Table 3 cells (its 9 orig
        # cells are Table 2's 4-word cells) and 9 x 6 Table 4 cells.
        assert (cold_delta["misses"], cold_delta["hits"]) == (108, 9)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        _clear_memos()
        _forbid_uncached_work(monkeypatch)
        before = result_cache.stats.snapshot()
        warm = _tables_json(TINY)
        delta = result_cache.stats.since(before)
        assert warm == cold
        assert (delta["misses"], delta["hits"]) == (0, 117)

    def test_uncached_run_matches_cached(self, cold_tables, monkeypatch):
        _, cached, _ = cold_tables
        monkeypatch.setenv("REPRO_CACHE", "0")
        _clear_memos()
        assert _tables_json(TINY) == cached

    def test_table3_cells_equal_trace_reduction(self, fresh_cache):
        for benchmark, measured, _ in table3_taken_reduction.run(TINY).rows:
            original, reordered = (
                variant_trace(benchmark, variant, TINY.stats_length, TINY.seed)
                for variant in ("orig", "reordered")
            )
            assert measured == 100.0 * taken_branch_reduction(
                original, reordered
            )
            for words in (8, 16):
                assert reduction_between(
                    taken_branch_stats(original, words),
                    taken_branch_stats(reordered, words),
                ) == taken_branch_reduction(original, reordered, words)

    def test_superblock_reorder_column_uses_config_seed(self, fresh_cache):
        table3 = {
            row[0]: row[1] for row in table3_taken_reduction.run(TINY).rows
        }
        rows = table3_taken_reduction.run_superblock(TINY).rows
        assert rows
        for row in rows:
            assert row[1] == table3[row[0]], row[0]


class _AnyValue(float):
    """Stands in for any cell's value: a number whose every attribute is
    itself, so a renderer runs without a computed cell."""

    def __getattr__(self, name):
        return self


#: Every renderer with the cell list it declares.
_RENDERERS = [
    pytest.param(artifact.render, artifact.cells, id=name)
    for name, artifact in EXPERIMENTS.items()
] + [
    pytest.param(module.render_detail, module.cells, id=f"{name}_detail")
    for name, module in (("fig09", fig09_schemes), ("fig10", fig10_eir))
]


class TestDeclaredCells:
    """A report is one declared set of cells: each distinct cell is
    loaded or computed once per report."""

    @pytest.mark.parametrize("cache", ["fresh", "off"])
    def test_report_requests_each_cell_once(self, cache, fresh_cache, monkeypatch):
        if cache == "off":
            monkeypatch.setenv("REPRO_CACHE", "0")
        _clear_memos()
        requests = Counter()
        get_or_compute = result_cache.get_or_compute

        def counted(kind, key, compute, missed=False):
            requests[kind, key] += 1
            return get_or_compute(kind, key, compute, missed)

        simulated = []
        run = Simulator.run

        def counted_run(sim):
            simulated.append(1)
            return run(sim)

        monkeypatch.setattr(result_cache, "get_or_compute", counted)
        monkeypatch.setattr(Simulator, "run", counted_run)
        run_experiments(list(EXPERIMENTS), TINY, processes=1)
        declared = [
            cell for artifact in EXPERIMENTS.values() for cell in artifact.cells(TINY)
        ]
        assert list(requests) == list(dict.fromkeys(declared))
        assert set(requests.values()) == {1}
        assert len(simulated) == sum(kind == "sim_stats" for kind, _ in requests)

    def test_fig09_detail_reads_figure_9s_cells(self, fresh_cache):
        """An ``orig`` simulation is one cell at every block size, so
        Figure 9's per-benchmark detail is all hits after Figure 9."""
        _clear_memos()
        fig09_schemes.run(TINY)
        before = result_cache.stats.snapshot()
        fig09_schemes.run_detail(TINY)
        delta = result_cache.stats.since(before)
        assert (delta["misses"], delta["hits"]) == (0, 15 * 3 * 5)

    @pytest.mark.parametrize("render, cells", _RENDERERS)
    def test_render_reads_exactly_its_declared_cells(
        self, render, cells, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a renderer computed a cell")

        monkeypatch.setattr(result_cache, "get_or_compute", forbidden)
        declared = cells(TINY)
        assert declared and len(set(declared)) == len(declared)
        results = dict.fromkeys(declared, _AnyValue(1.0))
        assert render(TINY, results).rows
        for cell in declared:
            missing = {c: v for c, v in results.items() if c != cell}
            with pytest.raises(KeyError) as excinfo:
                render(TINY, missing)
            assert excinfo.value.args == (cell,)


def _report_json(names, processes) -> list[str]:
    _clear_memos()
    return [
        result.to_json() for result in run_experiments(names, TINY, processes)
    ]


class TestReportFanOut:
    """A report loads its cached cells in process and sends the missed
    ones to the worker pool, one job per benchmark; the values, and so
    the report, are the serial report's."""

    def test_cold_and_warm_reports_equal_serial(self, tmp_path, monkeypatch):
        """Cold, the parent counts one miss (and, from its workers, one
        store) per distinct cell; warm, one hit per cell and no pool."""
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        names = list(EXPERIMENTS)
        cells = {cell for name in names for cell in EXPERIMENTS[name].cells(TINY)}
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = _report_json(names, processes=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        before = result_cache.stats.snapshot()
        assert _report_json(names, processes=2) == serial
        delta = result_cache.stats.since(before)
        assert (delta["misses"], delta["stores"], delta["hits"]) == (
            len(cells),
            len(cells),
            0,
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm report started a worker pool")

        monkeypatch.setattr(supervisor, "WorkerPool", no_pool)
        before = result_cache.stats.snapshot()
        assert _report_json(names, processes=2) == serial
        delta = result_cache.stats.since(before)
        assert (delta["misses"], delta["hits"]) == (0, len(cells))

    def test_uncached_report_equals_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        names = list(EXPERIMENTS)
        assert _report_json(names, processes=2) == _report_json(names, processes=1)

    def test_crashed_group_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = _report_json(["fig03"], processes=1)
        runs = []

        def recorded(*args, **kwargs):
            runs.append(run_supervised(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(common, "run_supervised", recorded)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        monkeypatch.setenv("REPRO_FAULTS", "batch.worker=crash:n=1:a=1")
        faults.reload()
        try:
            parallel = _report_json(["fig03"], processes=2)
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reload()
        assert parallel == serial
        (run,) = runs
        assert run.worker_failures >= 1
        assert "retried" in {outcome.status for outcome in run.outcomes}
