"""Benchmarks: ablation studies beyond the paper's published artifacts."""

from functools import partial

from conftest import run_once

from repro.experiments.fig10_eir import run_cb_crossing_limit
from repro.experiments.table3_taken_reduction import run_superblock
from repro.study.presets import run_preset_table

run_speculation_depth = partial(run_preset_table, "spec-depth")
run_bank_sensitivity = partial(run_preset_table, "banks")
run_predictor_ablation = partial(run_preset_table, "predictors")
run_recovery_point = partial(run_preset_table, "recovery")
run_cold_start = partial(run_preset_table, "cold-start")
run_btb_size = partial(run_preset_table, "btb-size")
run_trace_cache = partial(run_preset_table, "trace-cache")
run_memory_ordering = partial(run_preset_table, "memory-ordering")
run_window_size = partial(run_preset_table, "window-size")
run_fetch_queue = partial(run_preset_table, "fetch-queue")
run_issue_scaling = partial(run_preset_table, "issue-scaling")


def test_speculation_depth(benchmark, bench_config):
    result = run_once(benchmark, run_speculation_depth, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        machine, d1, d2, d4, d6, d8 = row
        # Depth 1 starves; returns diminish at high depth (paper §2).
        assert d1 < d2 < d4 * 1.01
        assert d8 < d4 * 1.15
        # Wider machines need more depth: PI12 gains more from 4 -> 6.
    gain_pi4 = result.rows[0][4] / result.rows[0][3]
    gain_pi12 = result.rows[2][4] / result.rows[2][3]
    assert gain_pi12 >= gain_pi4 * 0.99


def test_bank_sensitivity(benchmark, bench_config):
    result = run_once(benchmark, run_bank_sensitivity, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        _, two, four, eight = row
        assert two <= four * 1.01
        assert four <= eight * 1.01


def test_predictor_ablation(benchmark, bench_config):
    result = run_once(benchmark, run_predictor_ablation, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        (_, baseline, with_ras, two_level, two_level_ras,
         gshare, gshare_ras) = row
        # The RAS never hurts its base predictor.
        assert with_ras >= baseline * 0.99
        assert two_level_ras >= two_level * 0.99
        assert gshare_ras >= gshare * 0.99
    # Crossbar stays ahead of the shifter under every predictor.
    crossbar, shifter = result.rows
    for c, s in zip(crossbar[1:], shifter[1:]):
        assert c > s


def test_recovery_point(benchmark, bench_config):
    result = run_once(benchmark, run_recovery_point, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        _, seq_res, seq_ret, cb_res, cb_ret = row
        assert seq_ret < seq_res
        assert cb_ret < cb_res


def test_cold_start(benchmark, bench_config):
    result = run_once(benchmark, run_cold_start, bench_config)
    print("\n" + result.as_text())
    penalties = {row[0]: row[3] for row in result.rows}
    for penalty in penalties.values():
        assert penalty >= -1.0  # cold is never meaningfully faster
    # Interleaved's prefetch makes it the most cold-tolerant scheme.
    assert penalties["interleaved_sequential"] == min(penalties.values())


def test_btb_size(benchmark, bench_config):
    result = run_once(benchmark, run_btb_size, bench_config)
    print("\n" + result.as_text())
    row = result.rows[0][1:]
    # Small BTBs hurt; doubling past 1K buys little.
    assert row[0] <= row[2] * 1.01
    assert abs(row[4] - row[2]) / row[2] < 0.05


def test_trace_cache(benchmark, bench_config):
    result = run_once(benchmark, run_trace_cache, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        _, banked, collapsing, trace_cache, perfect = row
        # The extension is competitive with the paper's best scheme.
        assert trace_cache > 0.90 * collapsing
        assert trace_cache <= perfect * 1.02


def test_cb_crossing_limit(benchmark, bench_config):
    result = run_once(benchmark, run_cb_crossing_limit, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        machine, real, ideal = row
        assert ideal >= real
    # The two-block restriction matters most at the widest machine.
    gap_pi4 = result.rows[0][2] - result.rows[0][1]
    gap_pi12 = result.rows[2][2] - result.rows[2][1]
    assert gap_pi12 > gap_pi4


def test_superblock(benchmark, bench_config):
    result = run_once(benchmark, run_superblock, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        _, reorder_red, superblock_red, growth, duplicated = row
        # Both transforms remove taken branches; duplication costs a
        # little code and does not beat plain layout on fetch metrics.
        assert superblock_red > -10.0
        assert superblock_red <= reorder_red + 8.0
        assert 0.0 <= growth < 50.0


def test_memory_ordering(benchmark, bench_config):
    result = run_once(benchmark, run_memory_ordering, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        _, base, ordered, loss = row
        assert ordered <= base
        assert 0.0 <= loss < 50.0


def test_window_size(benchmark, bench_config):
    result = run_once(benchmark, run_window_size, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        values = row[1:]
        # Tiny windows starve; past the paper's size, gains are small.
        assert values[0] < values[-1]
        assert values[-1] < values[3] * 1.12


def test_fetch_queue(benchmark, bench_config):
    result = run_once(benchmark, run_fetch_queue, bench_config)
    print("\n" + result.as_text())
    for row in result.rows:
        one, two, four, eight = row[1:]
        assert two >= one * 0.995
        assert abs(eight - four) / four < 0.03  # saturates


def test_issue_scaling(benchmark, bench_config):
    result = run_once(benchmark, run_issue_scaling, bench_config)
    print("\n" + result.as_text())
    seq = [row[2] for row in result.rows]
    collapsing = [row[4] for row in result.rows]
    # Sequential decays monotonically through PI16; the collapsing
    # buffer loses less at every step.
    assert seq == sorted(seq, reverse=True)
    assert collapsing[-1] > seq[-1] + 15
    total_seq_drop = seq[0] - seq[-1]
    total_cb_drop = collapsing[0] - collapsing[-1]
    assert total_cb_drop < total_seq_drop
