"""Tests for the CLI and workload characterisation."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.report import EXPERIMENTS
from repro.machines.presets import PI4
from repro.sim.runner import run_workload
from repro.sim.simulator import Simulator
from repro.telemetry import trace as tracing
from repro.workloads import load_workload
from repro.workloads.analysis import (
    WorkloadCharacter,
    characterization_table,
    characterize,
)
from repro.workloads.trace import generate_trace


class TestAnalysis:
    def test_characterize_integer(self):
        character = characterize(load_workload("compress"), trace_length=8000)
        assert character.workload_class == "int"
        assert 0.05 < character.control_fraction < 0.4
        assert 0.4 < character.taken_fraction < 1.0
        assert 3 < character.run_length < 40
        assert character.static_branch_sites > 0

    def test_characterize_fp(self):
        character = characterize(load_workload("nasa7"), trace_length=8000)
        assert character.workload_class == "fp"
        assert character.mix.get("FALU", 0) > 0.2
        assert character.control_fraction < 0.08

    def test_intra_block_monotone(self):
        character = characterize(load_workload("espresso"), trace_length=8000)
        assert (
            character.intra_block[4]
            <= character.intra_block[8] + 0.05
            <= character.intra_block[16] + 0.10
        )

    def test_table_renders(self):
        table = characterization_table(
            [load_workload("li")], trace_length=4000
        )
        assert "li" in table
        assert all(h in table for h in ("ctrl %", "run len"))

    def test_headers_match_row_width(self):
        character = characterize(load_workload("li"), trace_length=4000)
        assert len(character.summary_row()) == len(WorkloadCharacter.headers())


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


def _stats_lines(out):
    """The ``key value`` block ``simulate`` prints first."""
    block = out.split("\n\n")[0]
    return dict(line.split(None, 1) for line in block.splitlines())


class TestCLI:
    def test_usage_errors_list_the_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "nosuch", "PI4", "sequential"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nosuch'" in err
        assert all(name in err for name in ("compress", "li", "tomcatv"))
        with pytest.raises(SystemExit):
            main(["simulate", "-h"])
        out = capsys.readouterr().out
        assert "PI12" in out and "collapsing_buffer" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "ora", "PI4", "sequential", "--length", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ipc" in out

    def test_eir(self, capsys):
        assert main(["eir", "ora", "PI4", "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "EIR(perfect)" in out

    def test_eir_reads_figure_10_cells_of_the_cli_trace(
        self, capsys, monkeypatch, tmp_path
    ):
        """``repro eir`` prints ``measure_eir`` on the trace its flags
        name, through Figure 10's ``eir_stats`` cells: a rerun is five
        cache hits and prints the same bytes."""
        from repro.fetch.factory import HARDWARE_SCHEMES
        from repro.sim import cache as result_cache
        from repro.sim.eir import measure_eir
        from repro.workloads.trace import generate_trace

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        argv = ["eir", "li", "PI8", "--length", "2500", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        before = result_cache.stats.snapshot()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        delta = result_cache.stats.since(before)
        assert (delta["hits"], delta["misses"]) == (5, 0)

        workload = load_workload("li")
        trace = generate_trace(workload.program, workload.behavior, 2500, seed=3)
        perfect = measure_eir(trace, "PI8", "perfect").eir
        lines = [f"li on PI8: EIR(perfect) = {perfect:.2f}"]
        for scheme in HARDWARE_SCHEMES:
            eir = measure_eir(trace, "PI8", scheme).eir
            lines.append(
                f"  {scheme:24s} {eir:5.2f}  ({100 * eir / perfect:5.1f}%)"
            )
        assert first == "\n".join(lines) + "\n"

    def test_characterize(self, capsys):
        assert main(["characterize", "ora", "--length", "3000"]) == 0
        assert "ora" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_extension_machine_is_a_valid_name(self):
        args = build_parser().parse_args(["simulate", "li", "PI16", "sequential"])
        assert args.machine == "PI16"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "nosuch", "PI4", "sequential"], "compress"),
            (["simulate", "li", "PI99", "sequential"], "PI12"),
            (["simulate", "li", "PI4", "nosuch"], "collapsing_buffer"),
            (["simulate", "li", "PI4", "sequential", "--length", "-5"],
             "positive integer"),
            (["eir", "nosuch", "PI4"], "compress"),
            (["eir", "li", "PI99"], "PI12"),
            (["eir", "li", "PI4", "--length", "-5"], "positive integer"),
            (["stats", "nosuch", "PI4"], "compress"),
            (["stats", "li", "PI99"], "PI12"),
            (["stats", "li", "PI4", "--schemes", "nosuch"], "perfect"),
            (["stats", "li", "PI4", "--length", "0"], "positive integer"),
            (["sweep", "--benchmarks", "nosuch"], "compress"),
            (["sweep", "--machines", "PI99"], "PI12"),
            (["sweep", "--schemes", "nosuch"], "collapsing_buffer"),
            (["sweep", "--length", "-5"], "positive integer"),
            (["characterize", "nosuch"], "compress"),
            (["experiment", "fig99"], "table4"),
        ],
    )
    def test_bad_names_and_lengths_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "positive integer" in err
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--machine", "PI99"], "invalid choice: 'PI99'"),
            (["--benchmark", "nosuch"], "invalid choice: 'nosuch'"),
            (["--scheme", "nosuch"], "invalid choice: 'nosuch'"),
            (["--kernel", "--no-kernel"], "not allowed with argument"),
        ],
    )
    def test_bench_usage_errors_run_nothing(
        self, argv, message, monkeypatch, capsys
    ):
        import repro.sim.bench as sim_bench

        calls = []
        monkeypatch.setattr(
            sim_bench, "measure_throughput", lambda **kw: calls.append(kw)
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--repeats", "1", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert calls == []

    def test_experiment_without_names_runs_every_artifact(
        self, monkeypatch, capsys
    ):
        import repro.cli as cli

        calls = []
        monkeypatch.setattr(
            cli,
            "run_experiments",
            lambda names, config, processes: calls.append((names, processes)) or [],
        )
        assert main(["experiment", "--scale", "0.5"]) == 0
        assert main(["experiment", "fig03", "--jobs", "1"]) == 0
        assert calls == [(list(EXPERIMENTS), None), (["fig03"], 1)]

    def test_simulate_telemetry_prints_the_same_statistics(self, capsys):
        argv = ["simulate", "li", "PI4", "collapsing_buffer", "--length", "3000"]
        assert main(argv) == 0
        plain = _stats_lines(capsys.readouterr().out)
        assert main(argv + ["--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "slot attribution" in out
        observed = _stats_lines(out)
        assert {key: observed[key] for key in plain} == plain
        assert any(key.startswith("slot_") for key in observed)

    def test_simulate_seed_selects_the_input(self, capsys):
        argv = ["simulate", "li", "PI4", "sequential", "--length", "3000"]
        assert main(argv + ["--seed", "3"]) == 0
        printed = _stats_lines(capsys.readouterr().out)
        stats = run_workload("li", "PI4", "sequential", 3000, seed=3)
        assert printed["cycles"] == str(stats.cycles)
        assert stats.cycles != run_workload("li", "PI4", "sequential", 3000).cycles

    @pytest.mark.parametrize(
        "flag, length", [("--sanitize", 2410), ("--no-kernel", 2420)]
    )
    def test_sweep_engine_flags_keep_the_grid(
        self, flag, length, cache_env, monkeypatch, capsys
    ):
        schemes = ("sequential", "collapsing_buffer")
        argv = [
            "sweep", "--benchmarks", "ora", "--machines", "PI4",
            "--schemes", *schemes, "--length", str(length),
            "--warmup", "400", "--jobs", "2",
        ]
        # Start from the plain engine; ``main`` restores it after the
        # flag's sweep.
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        monkeypatch.setenv("REPRO_KERNEL", "1")
        assert main(argv + [flag]) == 0
        out = capsys.readouterr().out
        assert "0 hit(s), 2 miss(es)" in out
        rows = [line for line in out.splitlines() if line.startswith("ora")]
        assert [row.split()[-1] for row in rows] == [
            f"{run_workload('ora', 'PI4', s, length, warmup=400).ipc:.2f}"
            for s in schemes
        ]
        # The knob is salted into the result-cache key: a plain rerun on
        # the same cache directory simulates again.
        assert main(argv) == 0
        assert "0 hit(s), 2 miss(es)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--sanitize", "--no-kernel", "--trace"])
    def test_sweep_engine_flags_end_with_the_verb(
        self, flag, cache_env, monkeypatch, capsys
    ):
        # The flag reaches the sweep's workers through the environment;
        # once ``main`` returns, an in-process caller runs as before.
        knobs = ("REPRO_SANITIZE", "REPRO_KERNEL", "REPRO_TRACE")
        for name in knobs:
            monkeypatch.delenv(name, raising=False)
        argv = [
            "sweep", "--benchmarks", "ora", "--machines", "PI4",
            "--schemes", "sequential", "--length", "2430",
            "--warmup", "400", "--jobs", "1", flag,
        ]
        assert main(argv) == 0
        assert "0 hit(s), 1 miss(es)" in capsys.readouterr().out
        assert not set(knobs) & set(os.environ)
        assert not tracing.tracing_enabled()
        workload = load_workload("ora")
        trace = generate_trace(workload.program, workload.behavior, 2430)
        sim = Simulator(PI4, trace, "sequential", warmup=400)
        sim.run()
        assert sim.sanitizer is None
        assert sim.kernel_used

    def test_check_variants_widen_the_matrix(self, capsys):
        argv = [
            "check", "--benchmarks", "compress", "--machines", "PI4",
            "--length", "1000", "--no-fetch",
        ]

        def checks(out):
            return int(re.search(r"(\d+) checks: 0 error", out).group(1))

        assert main(argv) == 0
        orig = checks(capsys.readouterr().out)
        assert main(argv + ["--variants", "orig", "reordered"]) == 0
        assert checks(capsys.readouterr().out) > orig

    def test_trace_top_limits_the_critical_path(self, tmp_path, capsys):
        from tests.test_trace import TestTimeline

        spans = TestTimeline().synthetic()
        (tmp_path / "spans-1.jsonl").write_text(
            "".join(json.dumps(span.as_dict()) + "\n" for span in spans)
        )
        trace_id = "a" * 32
        assert main(["trace", "--dir", str(tmp_path), trace_id]) == 0
        full = capsys.readouterr().out
        assert main(["trace", "--dir", str(tmp_path), trace_id, "--top", "1"]) == 0
        top = capsys.readouterr().out
        assert len(top.splitlines()) == len(full.splitlines()) - 2

    @pytest.mark.parametrize(
        "argv, output",
        [
            ([], "BENCH_service_throughput.json"),
            (["--cluster"], "BENCH_cluster_throughput.json"),
            (["--cluster", "--output", "BENCH_service_throughput.json"],
             "BENCH_service_throughput.json"),
            (["--output", "-"], None),
        ],
    )
    def test_loadgen_output(self, argv, output, monkeypatch):
        import repro.service.loadgen as loadgen

        received = {}

        def fake(**kwargs):
            received.update(kwargs)
            return {"passed": True}

        monkeypatch.setattr(loadgen, "run_loadgen", fake)
        assert main(["loadgen"] + argv) == 0
        assert received["output"] == output


# -- every documented command line parses ------------------------------------

REPO = Path(__file__).resolve().parents[1]
DOCUMENTED = [
    REPO / ".github/workflows/ci.yml",
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    REPO / ".claude/skills/verify/SKILL.md",
    *sorted((REPO / "docs").glob("*.md")),
]
COMMAND = re.compile(r"python -m repro\b([^`|<>;&#)]*)")


def _logical_lines(text):
    """Lines with their continuations joined: a trailing backslash, a
    YAML folded block's ``--flag`` lines, and prose that breaks a
    command right after ``python -m repro``."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if lines and (
            lines[-1].endswith("\\")
            or lines[-1].endswith("python -m repro")
            or (line.startswith("--") and "python -m repro" in lines[-1])
        ):
            lines[-1] = lines[-1].rstrip("\\") + " " + line
        else:
            lines.append(line)
    return lines


def _documented_commands():
    for path in DOCUMENTED:
        if not path.exists():
            continue
        for line in _logical_lines(path.read_text()):
            for match in COMMAND.finditer(line):
                words = match.group(1).split()
                # Shell variables ($GRID, $tables) hide their flags.
                if words and not any("$" in word for word in words):
                    yield path.relative_to(REPO), words


def test_documented_commands_name_real_verbs_and_flags():
    def subcommands(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        return {}

    checked, problems = 0, []
    for path, words in _documented_commands():
        parser, rest = build_parser(), words
        while rest and rest[0] in subcommands(parser):
            parser, rest = subcommands(parser)[rest[0]], rest[1:]
        if parser.prog == "repro":
            problems.append(f"{path}: unknown verb in {' '.join(words)!r}")
            continue
        declared = {
            option for action in parser._actions for option in action.option_strings
        }
        for word in rest:
            if word.startswith("--") and word.split("=")[0] not in declared:
                problems.append(f"{path}: {parser.prog} has no {word}")
        checked += 1
    assert problems == []
    assert checked > 50


def test_cli_and_report_import_no_numpy():
    """The package has no runtime dependency: importing the CLI and the
    paper report loads no numpy."""
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "import repro.cli, repro.experiments.report\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
