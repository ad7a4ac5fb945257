"""Tests for the CLI and workload characterisation."""

import pytest

from repro.cli import build_parser, main
from repro.workloads import load_workload
from repro.workloads.analysis import (
    WorkloadCharacter,
    characterization_table,
    characterize,
)


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


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "PI12" in out
        assert "collapsing_buffer" in out

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

    def test_characterize(self, capsys):
        assert main(["characterize", "ora", "--length", "3000"]) == 0
        assert "ora" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])
