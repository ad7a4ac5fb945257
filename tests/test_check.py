"""Tests for the ``repro.check`` legality & invariant subsystem.

Covers all three layers: static verifiers (config/program/trace),
per-scheme packet rules driven by injected illegal packets (mutation
tests), and the opt-in pipeline sanitizer — including the guarantee
that a sanitized run produces bit-identical statistics.
"""

from types import SimpleNamespace

import pytest

from repro.check import (
    CODES,
    CheckError,
    CheckFailure,
    PacketChecker,
    check_config,
    check_packet,
    check_program,
    check_trace,
    rules_for,
    validate_config,
)
from repro.check.api import check_matrix
from repro.check.errors import CheckReport
from repro.check.rules import UNLIMITED
from repro.check import sanitizer as sanitizer_module
from repro.check.sanitizer import PipelineSanitizer, sanitize_enabled
from repro.cli import main
from repro.fetch.base import FetchPlan
from repro.fetch.factory import HARDWARE_SCHEMES, create_fetch_unit
from repro.machines.presets import PI4, PI8, get_machine
from repro.program.basic_block import TermKind
from repro.sim.simulator import Simulator
from repro.workloads.suite import load_workload
from repro.workloads.trace import generate_trace

ALL_PACKET_SCHEMES = HARDWARE_SCHEMES + ("perfect", "trace_cache")
#: Schemes that read each of a bounded number of blocks once per packet,
#: and those that follow any path (an unrolled loop included).
BOUNDED_SCHEMES = [
    s for s in ALL_PACKET_SCHEMES if rules_for(s).max_blocks != UNLIMITED
]
UNBOUNDED_SCHEMES = [s for s in ALL_PACKET_SCHEMES if s not in BOUNDED_SCHEMES]


def _trace(benchmark="compress", length=2_000, seed=0):
    workload = load_workload(benchmark)
    return workload.program, generate_trace(
        workload.program, workload.behavior, length, seed=seed
    )


def _unit(scheme, machine=PI8, benchmark="compress", length=2_000):
    _, trace = _trace(benchmark, length)
    return create_fetch_unit(scheme, machine, trace), trace


def _codes(rules, addresses, *, fetch_address, limit=16, words=8, banks=2):
    errors = check_packet(
        rules,
        addresses,
        fetch_address=fetch_address,
        limit=limit,
        words_per_block=words,
        num_banks=banks,
    )
    return {e.code for e in errors}


# -- packet rules: generic mutations, every scheme ----------------------------


class TestPacketMutationsGeneric:
    """Illegal packets that every scheme must reject (a repeated
    address only the bounded ones)."""

    @pytest.mark.parametrize("scheme", ALL_PACKET_SCHEMES)
    def test_empty_packet_rejected(self, scheme):
        codes = _codes(rules_for(scheme), [], fetch_address=80)
        assert codes == {"K001"}

    @pytest.mark.parametrize("scheme", ALL_PACKET_SCHEMES)
    def test_over_limit_packet_rejected(self, scheme):
        start = 80  # block-aligned for words=8
        packet = list(range(start, start + 4))
        codes = _codes(rules_for(scheme), packet, fetch_address=start, limit=3)
        assert "K002" in codes

    @pytest.mark.parametrize("scheme", ALL_PACKET_SCHEMES)
    def test_wrong_start_rejected(self, scheme):
        codes = _codes(rules_for(scheme), [81, 82], fetch_address=80)
        assert "K003" in codes

    @pytest.mark.parametrize("scheme", BOUNDED_SCHEMES)
    def test_duplicate_address_rejected(self, scheme):
        codes = _codes(rules_for(scheme), [80, 81, 80], fetch_address=80)
        assert "K011" in codes

    @pytest.mark.parametrize("scheme", UNBOUNDED_SCHEMES)
    def test_unrolled_loop_accepted(self, scheme):
        """A repeated address is an unrolled loop, which ``perfect`` and
        a trace-cache hit deliver; only bounded schemes reject it."""
        codes = _codes(rules_for(scheme), [80, 81, 82, 80, 81], fetch_address=80)
        assert codes == set()

    @pytest.mark.parametrize("scheme", ALL_PACKET_SCHEMES)
    def test_negative_address_rejected(self, scheme):
        codes = _codes(rules_for(scheme), [80, -3], fetch_address=80)
        assert "K012" in codes


# -- packet rules: scheme-specific mutations ----------------------------------


class TestSequentialPacketRules:
    rules = rules_for("sequential")

    def test_taken_branch_inside_packet_rejected(self):
        codes = _codes(self.rules, [80, 81, 160], fetch_address=80)
        assert "K004" in codes

    def test_block_crossing_rejected(self):
        # Sequential run spilling into the next block: one block per cycle.
        codes = _codes(self.rules, [87, 88], fetch_address=87)
        assert "K005" in codes

    def test_full_single_block_run_legal(self):
        codes = _codes(self.rules, list(range(80, 88)), fetch_address=80)
        assert codes == set()


class TestInterleavedPacketRules:
    rules = rules_for("interleaved_sequential")

    def test_taken_branch_inside_packet_rejected(self):
        codes = _codes(self.rules, [80, 81, 200], fetch_address=80)
        assert "K004" in codes

    def test_non_neighbour_blocks_rejected(self):
        # Ends block 10, resumes in block 13: not the blind next-block
        # prefetch (and necessarily a taken step for a sequential scheme).
        codes = _codes(self.rules, [87, 104], fetch_address=87)
        assert "K006" in codes

    def test_three_blocks_rejected(self):
        packet = list(range(87, 97))  # spans blocks 10, 11 and 12
        codes = _codes(self.rules, packet, fetch_address=87)
        assert "K005" in codes

    def test_two_neighbour_blocks_legal(self):
        codes = _codes(self.rules, list(range(84, 92)), fetch_address=84)
        assert codes == set()


class TestBankedPacketRules:
    rules = rules_for("banked_sequential")

    def test_bank_conflict_rejected(self):
        # Blocks 10 and 12 both map to bank 0 of a 2-bank cache.
        codes = _codes(self.rules, [80, 81, 96, 97], fetch_address=80)
        assert "K010" in codes

    def test_two_crossings_rejected(self):
        # 80 -> 89 -> 100: two inter-block taken crossings in one cycle.
        codes = _codes(self.rules, [80, 89, 100], fetch_address=80)
        assert "K009" in codes

    def test_intra_block_branch_rejected(self):
        # A taken branch whose target is in the same block cannot be
        # realigned without a collapsing buffer.
        codes = _codes(self.rules, [80, 84], fetch_address=80)
        assert "K007" in codes

    def test_one_conflict_free_crossing_legal(self):
        # Block 10 (bank 0) into block 11 (bank 1) via one taken branch.
        codes = _codes(self.rules, [80, 81, 90, 91], fetch_address=80)
        assert codes == set()

    def test_return_to_a_block_it_left_rejected(self):
        # Block 10 runs into block 11, whose taken branch targets block 10
        # again: each block supplies one run, so 81 cannot follow 88.
        codes = _codes(self.rules, [86, 87, 88, 81], fetch_address=86)
        assert codes == {"K013"}


class TestCollapsingPacketRules:
    rules = rules_for("collapsing_buffer")

    def test_backward_intra_block_merge_rejected(self):
        codes = _codes(self.rules, [84, 81], fetch_address=84)
        assert "K008" in codes

    def test_bank_conflict_rejected(self):
        codes = _codes(self.rules, [80, 96], fetch_address=80)
        assert "K010" in codes

    def test_two_crossings_rejected(self):
        codes = _codes(self.rules, [80, 89, 100], fetch_address=80)
        assert "K009" in codes

    def test_forward_intra_block_merge_legal(self):
        codes = _codes(self.rules, [80, 83, 86], fetch_address=80)
        assert codes == set()


class TestPerfectPacketRules:
    def test_arbitrary_path_legal(self):
        # Backward branches, many blocks, many crossings: all deliverable.
        codes = _codes(
            rules_for("perfect"), [80, 85, 82, 160, 40], fetch_address=80
        )
        assert codes == set()

    def test_returning_to_a_block_legal(self):
        # An unbounded scheme reads each new block once per cycle and may
        # come back to it (no K013).
        codes = _codes(rules_for("perfect"), [86, 87, 88, 81], fetch_address=86)
        assert codes == set()


# -- packet rules: injection through the fetch harness ------------------------


class TestPacketInjection:
    """An illegal plan injected into a real fetch unit is caught in
    ``fetch_cycle`` before it can be compared with the trace."""

    @pytest.mark.parametrize("scheme", HARDWARE_SCHEMES)
    def test_injected_packet_raises(self, scheme):
        unit, trace = _unit(scheme)
        PacketChecker.for_unit(unit)
        fetch_address = trace.instructions[0].address
        unit.plan = lambda address, limit: FetchPlan(
            addresses=[address + 1], next_address=address + 2
        )
        with pytest.raises(CheckFailure) as info:
            unit.fetch_cycle(0, PI8.issue_rate)
        assert "K003" in info.value.codes
        assert unit.checker.violations >= 1

    @pytest.mark.parametrize("scheme", HARDWARE_SCHEMES)
    def test_real_packets_pass(self, scheme):
        unit, trace = _unit(scheme)
        checker = PacketChecker.for_unit(unit)
        position = 0
        total = len(trace.instructions)
        while position < total:
            result = unit.fetch_cycle(position, PI8.issue_rate)
            position += max(result.delivered, 1)
        assert checker.packets_checked > 0
        assert checker.violations == 0

    def test_collect_mode_accumulates(self):
        unit, trace = _unit("sequential")
        collected = []
        PacketChecker.for_unit(unit, collect=collected)
        # Starts at the fetch address (so the harness still accepts it)
        # but jumps mid-packet: illegal for a sequential-only scheme.
        unit.plan = lambda address, limit: FetchPlan(
            addresses=[address, address + 50], next_address=address + 51
        )
        unit.fetch_cycle(0, PI8.issue_rate)
        unit.fetch_cycle(0, PI8.issue_rate)
        assert [e.code for e in collected].count("K004") == 2
        assert unit.checker.violations == len(collected)


# -- static config validation -------------------------------------------------


class _CorruptConfig:
    """Duck-typed MachineConfig double the frozen dataclass could never
    construct; fields default to PI4's legal values."""

    def __init__(self, **overrides):
        for name in (
            "name",
            "issue_rate",
            "window_size",
            "rob_factor",
            "icache_bytes",
            "icache_block_bytes",
            "icache_miss_latency",
            "btb_entries",
            "fetch_penalty",
            "num_fxu",
            "num_fpu",
            "num_branch_units",
            "num_load_units",
            "num_store_buffers",
            "speculation_depth",
            "fetch_queue_groups",
            "memory_ordering",
        ):
            setattr(self, name, getattr(PI4, name))
        for name, value in overrides.items():
            setattr(self, name, value)


class TestConfigChecks:
    def test_presets_are_clean(self):
        for name in ("PI4", "PI8", "PI12", "PI16"):
            assert check_config(get_machine(name)) == []

    @pytest.mark.parametrize(
        "overrides,code",
        [
            ({"icache_bytes": 3000}, "C001"),
            ({"icache_block_bytes": 24}, "C002"),
            ({"icache_block_bytes": 8}, "C003"),
            ({"btb_entries": 100}, "C004"),
            ({"window_size": 2}, "C005"),
            ({"rob_factor": 0}, "C005"),
            ({"num_branch_units": 0}, "C006"),
            ({"num_load_units": 0}, "C006"),
            ({"fetch_penalty": -1}, "C007"),
            ({"icache_miss_latency": 0}, "C007"),
            ({"fetch_queue_groups": 0}, "C007"),
            ({"memory_ordering": "relaxed"}, "C008"),
        ],
    )
    def test_corrupt_geometry_flagged(self, overrides, code):
        errors = check_config(_CorruptConfig(**overrides))
        assert code in {e.code for e in errors}

    def test_validate_config_raises(self):
        with pytest.raises(CheckFailure) as info:
            validate_config(_CorruptConfig(icache_bytes=3000))
        assert "C001" in info.value.codes


# -- static program & trace verification --------------------------------------


class TestProgramChecks:
    def test_suite_programs_are_clean(self):
        for benchmark in ("compress", "li", "doduc"):
            program, _ = _trace(benchmark, length=10)
            assert check_program(program, PI8) == []

    def test_corrupt_branch_target_flagged(self):
        program, _ = _trace()
        victim = next(
            b for b in program.cfg.blocks if b.terminator is not None
        )
        original = victim.terminator.target
        victim.terminator.target = original + 1  # mid-block address
        try:
            codes = {e.code for e in check_program(program, roundtrip=False)}
            assert codes & {"P001", "P002"}
        finally:
            victim.terminator.target = original

    def test_corrupt_layout_flagged(self):
        program, _ = _trace()
        instr = program.instructions[5]
        original = instr.address
        instr.address = original + 7
        try:
            codes = {e.code for e in check_program(program, roundtrip=False)}
            assert "P004" in codes
        finally:
            instr.address = original

    def test_corrupt_fallthrough_flagged(self):
        program, _ = _trace()
        start = program.block_start
        victim = next(
            b for b in program.cfg.blocks if b.term_kind is TermKind.COND
        )
        expected = start[victim.block_id] + victim.size
        decoy = next(
            b for b in program.cfg.blocks if start[b.block_id] != expected
        )
        original = victim.fall_id
        victim.fall_id = decoy.block_id
        try:
            codes = {e.code for e in check_program(program, roundtrip=False)}
            assert "P003" in codes
        finally:
            victim.fall_id = original

    def test_corrupt_encoding_flagged(self):
        program, _ = _trace()
        instr = next(i for i in program.instructions if not i.is_control)
        original = instr.dest
        instr.dest = 200  # beyond the 7-bit register field
        try:
            codes = {e.code for e in check_program(program)}
            assert "P005" in codes
        finally:
            instr.dest = original

    def test_broken_cfg_structure_flagged(self):
        program, _ = _trace()
        victim = program.cfg.conditional_blocks()[0]
        original = victim.taken_id
        victim.taken_id = 10_000  # no such block
        try:
            errors = check_program(program, roundtrip=False)
            assert [e.code for e in errors] == ["P006"]
        finally:
            victim.taken_id = original

    def test_trace_is_legal(self):
        program, trace = _trace(length=3_000)
        assert check_trace(program, trace) == []

    def test_spliced_trace_flagged(self):
        program, trace = _trace(length=3_000)
        # Splice a bogus jump: repeat the first 10 instructions after a
        # non-control instruction deep in the stream.
        instructions = list(trace.instructions)
        splice = next(
            i
            for i in range(100, len(instructions))
            if not instructions[i].is_control
        )
        corrupt = type(trace)(
            name=trace.name,
            seed=trace.seed,
            instructions=instructions[: splice + 1] + instructions[:10],
        )
        codes = {e.code for e in check_trace(program, corrupt)}
        assert "T003" in codes

    def test_illegal_conditional_successor_flagged(self):
        program, trace = _trace(length=3_000)
        instructions = list(trace.instructions)
        cfg, start = program.cfg, program.block_start
        # Repeat a conditional branch right after itself: its own address
        # is neither the taken target nor the fall-through.
        position = next(
            i
            for i, instr in enumerate(instructions[:-1])
            if instr.is_control
            and cfg.block(instr.block_id).term_kind is TermKind.COND
            and start[cfg.block(instr.block_id).taken_id] != instr.address
        )
        corrupt = type(trace)(
            name=trace.name,
            seed=trace.seed,
            instructions=instructions[: position + 1]
            + [instructions[position]],
        )
        codes = {e.code for e in check_trace(program, corrupt)}
        assert "T002" in codes

    def test_corrupt_return_continuation_flagged(self):
        program, trace = _trace(length=3_000)
        instructions = list(trace.instructions)
        cfg, start = program.cfg, program.block_start
        # Walk the call stack exactly like the checker and cut the trace
        # after a matched return, repeating the return itself: its own
        # address cannot be the continuation its call pushed.
        stack = []
        position = None
        for i, instr in enumerate(instructions[:-1]):
            if not instr.is_control:
                continue
            block = cfg.block(instr.block_id)
            if block.term_kind is TermKind.CALL:
                stack.append(start[block.fall_id])
            elif block.term_kind is TermKind.RET and stack:
                if stack.pop() != instr.address:
                    position = i
                    break
        assert position is not None, "no matched return in the trace"
        corrupt = type(trace)(
            name=trace.name,
            seed=trace.seed,
            instructions=instructions[: position + 1]
            + [instructions[position]],
        )
        codes = {e.code for e in check_trace(program, corrupt)}
        assert "T004" in codes

    def test_foreign_instruction_flagged(self):
        program, trace = _trace(length=500)
        foreign_program, _ = _trace("li", length=10)
        instructions = list(trace.instructions)
        instructions[3] = foreign_program.instructions[
            instructions[3].address - foreign_program.base_address
        ]
        corrupt = type(trace)(
            name=trace.name, seed=trace.seed, instructions=instructions
        )
        codes = {e.code for e in check_trace(program, corrupt)}
        assert codes & {"T001", "T005"}


# -- pipeline sanitizer -------------------------------------------------------


def _simulator(sanitize=None, scheme="sequential", machine=PI4, length=2_500):
    _, trace = _trace(length=length)
    return Simulator(machine, trace, scheme, warmup=500, sanitize=sanitize)


class TestSanitizer:
    def test_env_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert _simulator().sanitizer is None
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        assert _simulator().sanitizer is not None

    @pytest.mark.parametrize(
        "telemetry", [False, True], ids=["sim_stats", "telemetry_stats"]
    )
    def test_memo_keys_on_sanitize(self, telemetry, monkeypatch, tmp_path):
        """A sanitized call after a plain call of the same cell simulates
        again, under the sanitizer, and a repeat of either simulates
        nothing: the result-cache key is salted with REPRO_SANITIZE."""
        from repro.experiments import common
        from repro.sim import cache as result_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitized_runs = []
        real_init = PipelineSanitizer.__init__

        def counting_init(sanitizer, sim):
            sanitized_runs.append(sim)
            real_init(sanitizer, sim)

        monkeypatch.setattr(PipelineSanitizer, "__init__", counting_init)
        run = common.sim_stats
        cell = dict(length=2_000, warmup=400, seed=9, telemetry=telemetry)
        plain = run("espresso", "PI4", "sequential", **cell)
        assert sanitized_runs == []
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = run("espresso", "PI4", "sequential", **cell)
        assert len(sanitized_runs) == 1
        assert sanitized == plain
        before = result_cache.stats.snapshot()
        assert run("espresso", "PI4", "sequential", **cell) == sanitized
        monkeypatch.delenv("REPRO_SANITIZE")
        assert run("espresso", "PI4", "sequential", **cell) == plain
        assert len(sanitized_runs) == 1
        delta = result_cache.stats.since(before)
        assert (delta["hits"], delta["misses"]) == (2, 0)

    @pytest.mark.parametrize("scheme", HARDWARE_SCHEMES)
    def test_sanitized_run_is_bit_identical(self, scheme):
        plain = _simulator(scheme=scheme).run()
        sanitized = _simulator(sanitize=True, scheme=scheme).run()
        assert sanitized == plain

    def test_sanitized_reference_run_matches(self):
        sim = _simulator(sanitize=True, scheme="banked_sequential")
        reference = sim.run_reference()
        assert reference == _simulator(scheme="banked_sequential").run()

    @pytest.mark.parametrize("scheme", UNBOUNDED_SCHEMES)
    @pytest.mark.parametrize("workload", ["espresso", "li", "eqntott", "compress"])
    def test_unbounded_schemes_run_sanitized(self, workload, scheme, monkeypatch):
        """``REPRO_SANITIZE=1`` end to end on the schemes ``repro check``
        does not lint: their unrolled loops at PI12 are no finding."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _, trace = _trace(workload, length=3_000)
        sim = Simulator(get_machine("PI12"), trace, scheme, warmup=500)
        sim.run()
        checker = sim.sanitizer.packet_checker
        assert checker.packets_checked > 0
        assert checker.violations == 0

    def test_clean_run_counts_checks(self):
        sim = _simulator(sanitize=True)
        sim.run()
        sanitizer = sim.sanitizer
        assert sanitizer.cycles_checked > 0
        assert sanitizer.deep_checks > 0
        assert sanitizer.packet_checker.packets_checked > 0
        assert sanitizer.packet_checker.violations == 0

    def test_corrupt_retire_counter_caught(self):
        sim = _simulator(sanitize=True)
        sim.core.stats.retired = 10  # retired > dispatched from cycle one
        with pytest.raises(CheckFailure) as info:
            sim.run()
        assert "S001" in info.value.codes

    def test_queue_range_violation_caught(self):
        sim = _simulator(sanitize=True)
        with pytest.raises(CheckFailure) as info:
            sim.sanitizer.on_cycle(0, position=5, dispatch_head=7)
        assert "S003" in info.value.codes

    def test_window_occupancy_violation_caught(self):
        sim = _simulator(sanitize=True)
        sim.core.window._occupied = 3  # nothing is actually in the window
        with pytest.raises(CheckFailure) as info:
            sim.sanitizer._deep_check(0)
        assert "S002" in info.value.codes

    def test_undrained_finish_caught(self):
        sim = _simulator(sanitize=True)
        with pytest.raises(CheckFailure) as info:
            sim.sanitizer.on_finish(0)  # nothing retired yet
        assert "S001" in info.value.codes

    def test_negative_branch_counter_caught(self):
        sim = _simulator(sanitize=True)
        sim.core.unresolved_branches = -1
        with pytest.raises(CheckFailure) as info:
            sim.sanitizer.on_cycle(0, position=0, dispatch_head=0)
        assert "S004" in info.value.codes

    def test_rob_order_violation_caught(self):
        sim = _simulator(sanitize=True)
        # Two retirement-order entries with regressing sequence numbers.
        sim.core.rob._entries.extend(
            SimpleNamespace(
                seq=seq, instruction=SimpleNamespace(op=None), state=None
            )
            for seq in (5, 3)
        )
        with pytest.raises(CheckFailure) as info:
            sim.sanitizer._deep_check(0)
        assert "S005" in info.value.codes

    def test_rob_overflow_caught(self):
        sim = _simulator(sanitize=True)
        rob = sim.core.rob
        rob._entries.extend([None] * (rob.capacity + 1))
        with pytest.raises(CheckFailure) as info:
            sim.sanitizer.on_cycle(0, position=0, dispatch_head=0)
        assert "S006" in info.value.codes

    def test_undrained_state_after_full_retire_caught(self):
        sim = _simulator(sanitize=True)
        sim.core.stats.retired = sim.sanitizer.total  # S001 satisfied
        sim.core.window._occupied = 1  # but the window never drained
        with pytest.raises(CheckFailure) as info:
            sim.sanitizer.on_finish(0)
        assert "S007" in info.value.codes

    def test_deep_period_env(self, monkeypatch):
        monkeypatch.setattr(sanitizer_module, "DEEP_PERIOD", 1)
        sim = _simulator(sanitize=True, length=600)
        sim.run()
        assert sim.sanitizer.deep_checks == sim.sanitizer.cycles_checked


# -- matrix driver and CLI ----------------------------------------------------


class TestCheckMatrix:
    def test_small_matrix_clean(self):
        report = check_matrix(
            benchmarks=["compress"], machines=["PI4"], length=1_000
        )
        assert report.ok
        assert report.errors == []
        assert report.checks_run > 0

    def test_unknown_names_reported(self):
        report = check_matrix(
            benchmarks=["no_such_bench"],
            machines=["PI99"],
            schemes=["no_such_scheme"],
            length=500,
            fetch=False,
        )
        codes = {e.code for e in report.errors}
        assert codes == {"A001", "A002", "A003"}

    def test_report_severity_split(self):
        report = CheckReport()
        report.add([CheckError("P007", "s", "big block", "warning")])
        assert report.ok and len(report.warnings) == 1
        report.add([CheckError("P001", "s", "bad target")])
        assert not report.ok
        with pytest.raises(CheckFailure):
            report.raise_if_failed()


class TestCheckCli:
    def test_clean_matrix_exits_zero(self, capsys):
        code = main(
            [
                "check",
                "--benchmarks", "compress",
                "--machines", "PI4",
                "--length", "1000",
            ]
        )
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_corrupt_matrix_exits_nonzero(self, capsys, monkeypatch):
        import repro.check.api as api

        real = api.get_machine

        def corrupt(name):
            machine = real(name)
            return _CorruptConfig(name=machine.name, icache_bytes=3000)

        monkeypatch.setattr(api, "get_machine", corrupt)
        code = main(
            [
                "check",
                "--benchmarks", "compress",
                "--machines", "PI4",
                "--length", "500",
                "--no-fetch",
            ]
        )
        assert code == 1
        assert "[C001]" in capsys.readouterr().out

    def test_unknown_benchmark_exits_nonzero(self, capsys):
        code = main(
            ["check", "--benchmarks", "no_such", "--no-fetch"]
        )
        assert code == 1
        assert "[A003]" in capsys.readouterr().out


# -- result-cache interaction -------------------------------------------------


class TestCacheSalting:
    def test_sanitize_knob_changes_cache_key(self, tmp_path, monkeypatch):
        from repro.sim import cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        cache.store("sim_stats", ("k",), "plain-result")
        assert cache.load("sim_stats", ("k",)) == "plain-result"
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert cache.load("sim_stats", ("k",)) is None
        cache.store("sim_stats", ("k",), "sanitized-result")
        assert cache.load("sim_stats", ("k",)) == "sanitized-result"
        monkeypatch.delenv("REPRO_SANITIZE")
        assert cache.load("sim_stats", ("k",)) == "plain-result"


# -- error catalogue ----------------------------------------------------------


class TestCatalogue:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            CheckError("Z999", "s", "m")

    def test_every_code_documented(self):
        import pathlib

        catalogue = pathlib.Path("docs/checking.md").read_text()
        for code in CODES:
            assert code in catalogue, f"{code} missing from docs/checking.md"
