"""Tests for the declarative study engine (``repro.study``).

Covers spec validation (the ``Dxxx`` catalogue), deterministic
content-hashed expansion (stability across processes and spec
re-orderings, dedup, the conservation ledger), end-to-end execution
with importance/interaction/Pareto analysis, crash-and-resume
bit-identity (chaos faults in-process, SIGKILL out-of-process), the
ablation tables (golden digests plus direct-computation parity), the
``repro ablate`` CLI, and the shared tornado/scatter chart renderers.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.check.errors import CheckFailure
from repro.cli import main
from repro.sim.batch import SupervisorConfig
from repro.study import spec as study_spec
from repro.study import (
    StudySpec,
    Toggle,
    expand,
    run_id_of,
    run_study,
    spec_from_dict,
    spec_from_json,
    validate,
)

#: Fast supervision policy so chaos retries cost milliseconds.
FAST = SupervisorConfig(
    max_attempts=3,
    backoff_base=0.01,
    backoff_max=0.05,
    backoff_jitter=0.1,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    yield


def disarm():
    os.environ.pop("REPRO_FAULTS", None)
    faults.reload()


def arm(spec: str):
    os.environ["REPRO_FAULTS"] = spec
    faults.reload()


def tiny_spec(**overrides) -> StudySpec:
    """A three-toggle study cheap enough for the unit suite."""
    fields = dict(
        name="tiny-e2e",
        benchmarks=("ora",),
        machine="PI4",
        scheme="collapsing_buffer",
        length=2_000,
        eir_length=2_000,
        warmup=300,
        metrics=("ipc", "eir"),
        toggles=(
            Toggle("btb", "btb_entries", (256,)),
            Toggle("fetch", "scheme", ("sequential",)),
            Toggle("banks", "num_banks", (2,)),
        ),
        pairwise=(("btb", "banks"),),
    )
    fields.update(overrides)
    return StudySpec(**fields)


def codes(errors):
    return sorted(e.code for e in errors)


# -- validation (Dxxx) --------------------------------------------------------


class TestValidation:
    def test_legal_spec_is_clean(self):
        assert validate(tiny_spec()) == []

    def test_d001_unknown_parameter(self):
        spec = tiny_spec(toggles=(Toggle("t", "warp_factor", (9,)),))
        assert "D001" in codes(validate(spec))

    def test_d002_illegal_values(self):
        spec = tiny_spec(
            toggles=(
                Toggle("a", "btb_entries", ("lots",)),
                Toggle("b", "predictor", ("oracle",)),
                Toggle("c", "num_banks", (0,)),
                Toggle("d", "prewarm", (1,)),  # int is not a bool
            ),
            pairwise=(),
        )
        assert codes(validate(spec)).count("D002") == 4

    def test_d003_toggle_shape(self):
        spec = tiny_spec(
            toggles=(
                Toggle("dup", "btb_entries", (256,)),
                Toggle("dup", "window_size", (32,)),
                Toggle("empty", "num_banks", ()),
                Toggle("repeat", "speculation_depth", (2, 2)),
            ),
            pairwise=(),
        )
        found = codes(validate(spec))
        assert found.count("D003") == 3

    def test_d004_pairwise_problems(self):
        base = tiny_spec(pairwise=(("btb", "ghost"),))
        assert "D004" in codes(validate(base))
        selfpair = tiny_spec(pairwise=(("btb", "btb"),))
        assert "D004" in codes(validate(selfpair))
        same_param = tiny_spec(
            toggles=(
                Toggle("small", "btb_entries", (256,)),
                Toggle("large", "btb_entries", (4096,)),
            ),
            pairwise=(("small", "large"),),
        )
        assert "D004" in codes(validate(same_param))

    def test_d004_three_way_entry_problems(self):
        repeated = tiny_spec(pairwise=(("btb", "banks", "btb"),))
        assert codes(validate(repeated)) == ["D004"]
        shared = tiny_spec(
            toggles=(
                Toggle("small", "btb_entries", (256,)),
                Toggle("banks", "num_banks", (2,)),
                Toggle("large", "btb_entries", (4096,)),
            ),
            pairwise=(("small", "banks", "large"),),
        )
        assert codes(validate(shared)) == ["D004"]
        lone = tiny_spec(pairwise=(("btb",),))
        assert codes(validate(lone)) == ["D004"]

    def test_d005_scenario_fields(self):
        spec = tiny_spec(name="", length=0, warmup=-1, metrics=("joy",))
        found = codes(validate(spec))
        assert found.count("D005") == 4

    def test_d005_unknown_spec_key_rejected(self):
        with pytest.raises(CheckFailure) as excinfo:
            spec_from_dict({"name": "x", "benchmarks": ["ora"], "typo": 1})
        assert "D005" in excinfo.value.codes

    def test_d006_illegal_machine_value(self):
        # A 4-byte block cannot hold PI4's 4-instruction issue group.
        spec = tiny_spec(
            toggles=(Toggle("block", "icache_block_bytes", (4,)),),
            pairwise=(),
        )
        assert "D006" in codes(validate(spec))

    def test_d006_illegal_pairwise_combination(self):
        # Each override is legal alone (window 12 fits PI4's issue 4;
        # PI16 is a real machine) but the *pair* violates window >= issue.
        spec = tiny_spec(
            toggles=(
                Toggle("machine", "machine", ("PI16",)),
                Toggle("window", "window_size", (12,)),
            ),
            pairwise=(("machine", "window"),),
        )
        assert "D006" in codes(validate(spec))

    def test_d007_run_budget(self, monkeypatch):
        monkeypatch.setattr(study_spec, "MAX_RUNS", 2)
        with pytest.raises(CheckFailure) as excinfo:
            expand(tiny_spec())
        assert "D007" in excinfo.value.codes

    def test_unknown_names_use_shared_codes(self):
        spec = tiny_spec(
            benchmarks=("nonesuch",), machine="PI99", scheme="psychic"
        )
        found = codes(validate(spec))
        assert {"A001", "A002", "A003"} <= set(found)

    def test_expand_raises_on_invalid(self):
        with pytest.raises(CheckFailure):
            expand(tiny_spec(benchmarks=()))

    def test_json_round_trip(self):
        spec = tiny_spec()
        clone = spec_from_json(json.dumps(spec.as_dict()))
        assert clone == spec
        assert clone.digest == spec.digest


# -- deterministic expansion --------------------------------------------------


class TestExpansion:
    def test_run_ids_stable_under_reordering(self):
        spec = tiny_spec()
        shuffled = tiny_spec(
            toggles=tuple(reversed(spec.toggles)),
            pairwise=(("banks", "btb"),),
        )
        a, b = expand(spec), expand(shuffled)
        assert {r.run_id for r in a.runs} == {r.run_id for r in b.runs}
        assert a.baseline_id == b.baseline_id
        assert a.single_id("btb", 256) == b.single_id("btb", 256)
        assert a.pair_id("btb", 256, "banks", 2) == b.pair_id(
            "banks", 2, "btb", 256
        )

    def test_run_ids_stable_across_processes(self):
        spec = tiny_spec()
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.study import run_id_of, spec_from_json\n"
            f"spec = spec_from_json({json.dumps(json.dumps(spec.as_dict()))})\n"
            "print(run_id_of(spec, {}))\n"
            "print(run_id_of(spec, {'btb_entries': 256}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        baseline, single = proc.stdout.split()
        assert baseline == run_id_of(spec, {})
        assert single == run_id_of(spec, {"btb_entries": 256})

    def test_spec_name_does_not_reach_run_ids(self):
        a = expand(tiny_spec())
        b = expand(tiny_spec(name="renamed"))
        assert [r.run_id for r in a.runs] == [r.run_id for r in b.runs]

    def test_baseline_valued_toggle_dedups_onto_baseline(self):
        # PI4's btb_entries default is 1024: the single collapses.
        spec = tiny_spec(
            toggles=(Toggle("btb", "btb_entries", (1024, 256)),),
            pairwise=(),
        )
        expansion = expand(spec)
        assert expansion.single_id("btb", 1024) == expansion.baseline_id
        assert expansion.single_id("btb", 256) != expansion.baseline_id
        assert len(expansion.runs) == 2

    def test_conservation_of_generated_runs(self):
        spec = tiny_spec(
            toggles=(
                Toggle("btb", "btb_entries", (256, 4096)),
                Toggle("banks", "num_banks", (2, 4, 8)),
                Toggle("fetch", "scheme", ("sequential",)),
            ),
            pairwise=(("btb", "banks"),),
        )
        expansion = expand(spec)
        roles = [role for role, _, _ in expansion.memberships]
        assert roles.count("baseline") == 1
        assert roles.count("single") == 2 + 3 + 1
        assert roles.count("pair") == 2 * 3
        # Every toggle appears in exactly len(values) single entries.
        for toggle in spec.toggles:
            singles = [
                names
                for role, names, _ in expansion.memberships
                if role == "single" and names == (toggle.name,)
            ]
            assert len(singles) == len(toggle.values)
        # Every generated entry resolved to a real run.
        run_ids = {run.run_id for run in expansion.runs}
        assert all(rid in run_ids for _, _, rid in expansion.memberships)

    def test_three_toggle_cross_expands_to_the_product(self):
        spec = tiny_spec(
            toggles=(
                Toggle("btb", "btb_entries", (256, 4096)),
                Toggle("banks", "num_banks", (2, 4, 8)),
                Toggle("fetch", "scheme", ("sequential",)),
            ),
            pairwise=(("btb", "banks", "fetch"),),
        )
        expansion = expand(spec)
        crossed = [
            rid
            for role, names, rid in expansion.memberships
            if role == "pair" and names == ("btb", "banks", "fetch")
        ]
        assert len(crossed) == 2 * 3 * 1
        assert len(set(crossed)) == 6
        assert len(expansion.runs) == 1 + (2 + 3 + 1) + 6
        # Lookup ignores argument order.
        assert expansion.pair_id(
            "fetch", "sequential", "btb", 256, "banks", 4
        ) == expansion.pair_id("btb", 256, "banks", 4, "fetch", "sequential")
        run = next(
            r for r in expansion.runs
            if r.run_id == expansion.pair_id(
                "btb", 4096, "banks", 8, "fetch", "sequential"
            )
        )
        assert run.scenario["fields"] == {"btb_entries": 4096}
        assert run.scenario["num_banks"] == 8
        assert run.scenario["scheme"] == "sequential"

    def test_three_way_interaction_is_actual_minus_additive_model(self):
        from repro.study.analysis import build_report

        spec = tiny_spec(pairwise=(("btb", "fetch", "banks"),))
        expansion = expand(spec)
        metrics_by_run = {
            run.run_id: {"ipc": 1.0 + index / 8, "eir": 2.0 + index / 16,
                         "benchmarks": {}}
            for index, run in enumerate(expansion.runs)
        }
        report = build_report(spec, expansion, metrics_by_run)
        (entry,) = report["interactions"]
        assert entry["toggles"] == ["btb", "fetch", "banks"]
        assert entry["values"] == [256, "sequential", 2]
        for metric in ("ipc", "eir"):
            base = metrics_by_run[expansion.baseline_id][metric]
            deltas = [
                metrics_by_run[expansion.single_id(name, value)][metric] - base
                for name, value in (
                    ("btb", 256), ("fetch", "sequential"), ("banks", 2)
                )
            ]
            actual = metrics_by_run[entry["run_id"]][metric]
            effects = entry["effects"][metric]
            assert effects["actual"] == actual
            assert effects["expected"] == base + deltas[0] + deltas[1] + deltas[2]
            assert effects["interaction"] == actual - effects["expected"]


# -- end-to-end execution + analysis ------------------------------------------


class TestRunStudy:
    def test_report_structure_and_determinism(self, cache_env, tmp_path):
        spec = tiny_spec()
        first = run_study(spec, tmp_path / "a", processes=1)
        report = first.report
        assert report["primary_metric"] == "eir"
        assert len(report["importance"]) == 3
        assert [c["rank"] for c in report["importance"]] == [1, 2, 3]
        assert len(report["interactions"]) == 1
        effects = report["interactions"][0]["effects"]["eir"]
        assert effects["interaction"] == pytest.approx(
            effects["actual"] - effects["expected"]
        )
        # The frontier is non-empty, sorted by cost, non-dominated.
        points = report["pareto"]["points"]
        frontier = report["pareto"]["frontier"]
        assert frontier
        by_id = {p["run_id"]: p for p in points}
        chain = [by_id[rid] for rid in frontier]
        assert chain == sorted(chain, key=lambda p: p["cost"])
        eirs = [p["eir"] for p in chain]
        assert eirs == sorted(eirs)
        # A second clean run in a fresh directory is byte-identical.
        run_study(spec, tmp_path / "b", processes=1)
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["spec_digest"] == spec.digest
        assert manifest["outcomes"].get("ok") == 5
        for name in ("report.md", "report.csv", "tornado.txt"):
            assert (tmp_path / "a" / name).exists()

    def test_chaos_crashes_retry_to_bit_identical_report(
        self, cache_env, tmp_path
    ):
        spec = tiny_spec()
        try:
            run_study(spec, tmp_path / "clean", processes=1, config=FAST)
            arm("seed=2;batch.worker=crash:p=1:n=2")
            os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cache2")
            run_study(spec, tmp_path / "chaos", processes=1, config=FAST)
        finally:
            disarm()
        assert (tmp_path / "clean" / "report.json").read_bytes() == (
            tmp_path / "chaos" / "report.json"
        ).read_bytes()
        manifest = json.loads(
            (tmp_path / "chaos" / "manifest.json").read_text()
        )
        assert manifest["outcomes"].get("retried")

    def test_sigkill_then_resume_is_bit_identical(self, cache_env, tmp_path):
        # Big enough that the subprocess is still mid-study when killed.
        spec = tiny_spec(length=20_000, eir_length=20_000, warmup=2_000)
        clean = run_study(spec, tmp_path / "clean", processes=1)

        out = tmp_path / "killed"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.as_dict()))
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache-sub")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "ablate", "run",
                str(spec_path), "--out", str(out), "--jobs", "1",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal = out / "journal.jsonl"
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it: still valid
                if journal.exists() and len(
                    journal.read_text().splitlines()
                ) >= 2:
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.01)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        assert journal.exists()

        resumed = run_study(spec, out, processes=1, resume=True)
        assert resumed.report == clean.report
        assert (out / "report.json").read_bytes() == (
            tmp_path / "clean" / "report.json"
        ).read_bytes()
        skipped = resumed.manifest["outcomes"].get("skipped", 0)
        assert skipped + resumed.manifest["outcomes"].get("ok", 0) == 5


# -- ablation tables: direct-computation parity --------------------------------


def _hmean_ipc(machine, config, unit_factory) -> float:
    """Harmonic-mean IPC over the ablation benchmarks, computed directly
    with :class:`Simulator` (the truth the study engine must match)."""
    from repro.experiments.common import ABLATION_BENCHMARKS, variant_trace
    from repro.metrics.summary import harmonic_mean
    from repro.sim.simulator import Simulator

    values = []
    for benchmark in ABLATION_BENCHMARKS:
        trace = variant_trace(
            benchmark, "orig", config.trace_length, config.seed
        )
        sim = Simulator(
            machine,
            trace,
            unit_factory(machine, trace),
            warmup=config.warmup,
            prewarm_cache=True,
        )
        values.append(sim.run().useful_ipc)
    return harmonic_mean(values)


class TestAblationPorts:
    def test_banks_table_matches_legacy_computation(self, cache_env):
        from repro.fetch.factory import create_fetch_unit
        from repro.machines.presets import PI8
        from repro.study.presets import run_preset_table

        config = _golden_config()
        ported = run_preset_table("banks", config)
        assert ported.experiment == "ablation_banks"
        assert ported.headers == ["scheme", "2 banks", "4 banks", "8 banks"]
        for row in ported.rows:
            scheme = row[0]
            for banks, value in zip((2, 4, 8), row[1:]):
                def factory(machine, trace, _s=scheme, _b=banks):
                    return create_fetch_unit(_s, machine, trace, num_banks=_b)

                truth = _hmean_ipc(PI8, config, factory)
                assert value == truth  # bit-identical, not approx

    def test_recovery_table_matches_direct_computation(self, cache_env):
        import dataclasses

        from repro.machines.presets import MACHINES_BY_NAME
        from repro.study.presets import run_preset_table

        config = _golden_config()
        table = run_preset_table("recovery", config)
        assert [row[0] for row in table.rows] == ["PI4", "PI8", "PI12"]
        for row in table.rows:
            machine = MACHINES_BY_NAME[row[0]]
            retire = dataclasses.replace(machine, recovery_at_retire=True)
            truth = [
                _hmean_ipc(m, config, lambda _m, _t, _s=scheme: _s)
                for scheme in ("sequential", "collapsing_buffer")
                for m in (machine, retire)
            ]
            assert row[1:] == truth

    def test_issue_scaling_table_matches_direct_computation(self, cache_env):
        from repro.experiments.common import ABLATION_BENCHMARKS, variant_trace
        from repro.machines.presets import MACHINES_BY_NAME
        from repro.metrics.summary import harmonic_mean
        from repro.sim.eir import measure_eir
        from repro.study.presets import run_preset_table

        config = _golden_config()
        table = run_preset_table("issue-scaling", config)
        assert [row[0] for row in table.rows] == ["PI4", "PI8", "PI12", "PI16"]
        schemes = ("sequential", "banked_sequential", "collapsing_buffer")
        for row in table.rows:
            machine = MACHINES_BY_NAME[row[0]]
            perfects, ratios = [], {scheme: [] for scheme in schemes}
            for benchmark in ABLATION_BENCHMARKS:
                trace = variant_trace(
                    benchmark, "orig", config.eir_length, config.seed
                )
                perfect = measure_eir(trace, machine, "perfect").eir
                perfects.append(perfect)
                for scheme in schemes:
                    eir = measure_eir(trace, machine, scheme).eir
                    ratios[scheme].append(eir / perfect)
            truth = [harmonic_mean(perfects)] + [
                100.0 * harmonic_mean(ratios[s]) for s in schemes
            ]
            assert row[1:] == truth


#: SHA-256 of each legacy ablation table's ``to_json()`` at
#: :data:`GOLDEN_CONFIG`, keyed by the table's historical ablation name.
GOLDEN_TABLES = {
    "spec_depth": "11bb2eb07ccb268d157c910b6806f060e8b402d9c37b7694b4b33a46826c6b22",
    "banks": "a308629c025597580814b8d7e23a18753d62436f368818dbb414ec38d483b4c0",
    "predictors": "45ff1c4ba89e2e36be29423ecc47c21d6c2ea3db2500e313ed63c6eb0f48535d",
    "recovery": "3cee4c9e14ebd0dc1d9206b61ac997600c00156ea6e66a149365529a1913a3ef",
    "cold_start": "aff1284b34fdccf92b11828a12a1958d438cdea41f23b946eb51b8f83701d39e",
    "btb_size": "46d72125bcebb747300495db95a5896047a47ef458977ecd757c0a3316fed8e8",
    "trace_cache": "6914079f1201620e6f4856640c6359d23de6fc12a0b56d55fd585dd2a7288dc3",
    "cb_crossings": "359a4b8b9cdc4b9b196ecd42add7f51280b1b203b6c3122557ed0e9fb3590aa6",
    "superblock": "6d6bf96d9756ceff6bc30b52ee5691054a13823bb2d631e96506bf659d17904d",
    "memory_ordering": "9210528957717b13c473bc27a79c66407e3d4b17dd540d51079de7e1642a3389",
    "window_size": "1e51ad64b1160b572d1747d8e76f5430f84dbdf2e185b0acb8c87599a0e0e61b",
    "fetch_queue": "68a3cbdbd82c7809735471fe89da6f34636c5ac8324de43b1dbd24cb51172bb7",
    "issue_scaling": "5b4a9d0ddb430c56cf9b065e6c16ed713591a78a4b264fea65975fa877f9f642",
}


def _golden_config():
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(
        trace_length=1_500, eir_length=1_500, stats_length=2_000, warmup=300
    )


def _ablation_tables() -> dict:
    """Historical ablation name -> ``config -> ExperimentResult``: every
    study preset with a table (its name with ``-`` for ``_``) plus the
    two tables that are not studies."""
    from functools import partial

    from repro.experiments.fig10_eir import run_cb_crossing_limit
    from repro.experiments.table3_taken_reduction import run_superblock
    from repro.study.presets import PRESETS, run_preset_table

    tables = {
        name.replace("-", "_"): partial(run_preset_table, name)
        for name, preset in PRESETS.items()
        if preset.table is not None
    }
    tables["cb_crossings"] = run_cb_crossing_limit
    tables["superblock"] = run_superblock
    return tables


def test_ablation_tables_golden(cache_env):
    import hashlib

    config = _golden_config()
    tables = _ablation_tables()
    assert set(tables) == set(GOLDEN_TABLES)
    mismatched = {}
    for name, build in tables.items():
        digest = hashlib.sha256(build(config).to_json().encode()).hexdigest()
        if digest != GOLDEN_TABLES[name]:
            mismatched[name] = digest
    assert mismatched == {}


#: ``(spec.digest, sha256 of the sorted run IDs joined by ",")[:16]`` of
#: every preset at ``DEFAULT_CONFIG``: editing the expansion grammar must
#: not move an existing study's digest or any of its run IDs.
PRESET_DIGESTS = {
    "spec-depth": ("110b8716b532a923", "61a3f479ba0fbb62"),
    "banks": ("5d30eae719d1151f", "2bcc043da532df51"),
    "predictors": ("3bc5022215a2da6b", "880d84d4fc179def"),
    "cold-start": ("60167acb6a8f3199", "a32f9736aa1c016b"),
    "btb-size": ("b7f24ac391102689", "60dd2dfd20e6577f"),
    "trace-cache": ("5c43a6769fdb36cc", "342752905dca2aaa"),
    "memory-ordering": ("7127d3843896e3a6", "41fc93e439d85bc4"),
    "window-size": ("64033f1aecefb542", "f87da6cfee9d20ec"),
    "fetch-queue": ("6b75838649349034", "949c2cafda8a7a40"),
    "recovery": ("cdbdfe48cc6826b8", "0e30aa32ff4b1618"),
    "issue-scaling": ("9ca05d3a0d83bbad", "2658a813bed3e724"),
    "fig11-shifter": ("cd1fe40da1a64d8f", "e39f478c48db5bc4"),
    "smoke": ("d39898241d512f50", "9324c098fd4ec803"),
}


def test_preset_digests_and_run_ids_locked():
    import hashlib

    from repro.experiments.common import DEFAULT_CONFIG
    from repro.study.presets import PRESETS

    assert set(PRESET_DIGESTS) == set(PRESETS), "every preset is locked"
    found = {}
    for name in PRESET_DIGESTS:
        spec = PRESETS[name].build(DEFAULT_CONFIG)
        run_ids = sorted(run.run_id for run in expand(spec).runs)
        found[name] = (
            spec.digest,
            hashlib.sha256(",".join(run_ids).encode()).hexdigest()[:16],
        )
    assert found == PRESET_DIGESTS


# -- CLI ----------------------------------------------------------------------


class TestAblateCli:
    def test_list(self, capsys):
        assert main(["ablate", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "fig11-shifter", "recovery", "issue-scaling"):
            assert name in out

    def test_unknown_spec_exits_2(self, capsys):
        assert main(["ablate", "run", "warp-drive"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_report_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["ablate", "report", str(tmp_path / "ghost")]) == 2

    def test_invalid_spec_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "benchmarks": ["nonesuch"]}))
        assert main(["ablate", "run", str(bad), "--out", str(tmp_path)]) == 1
        assert "A003" in capsys.readouterr().err

    def test_run_and_report_round_trip(self, cache_env, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().as_dict()))
        out = tmp_path / "study"
        assert main(
            ["ablate", "run", str(spec_path), "--out", str(out), "--jobs", "1"]
        ) == 0
        run_out = capsys.readouterr().out
        assert "5 unique runs" in run_out
        assert "Pareto frontier" in run_out
        assert main(["ablate", "report", str(out)]) == 0
        report_out = capsys.readouterr().out
        assert "Component importance" in report_out
        assert main(["ablate", "report", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"] == "tiny-e2e"

    def test_run_prints_the_preset_table(self, cache_env, tmp_path, capsys):
        """``ablate run`` renders its table from ``report.json`` (through
        ``metrics_from_report``); it must print what the in-process
        ``run_preset_table`` builds at the same config."""
        from repro.experiments.common import ExperimentConfig
        from repro.study.presets import run_preset_table

        code = main(
            ["ablate", "run", "banks", "--scale", "0.01", "--jobs", "1",
             "--out", str(tmp_path / "banks")]
        )
        assert code == 0
        out = capsys.readouterr().out
        # --scale 0.01 clamps every length to the CLI's floor.
        config = ExperimentConfig(
            trace_length=2_000, eir_length=2_000, stats_length=4_000,
            warmup=500,
        )
        expected = run_preset_table("banks", config).as_text()
        start = out.index(expected.splitlines()[0])
        assert out[start:out.index("\n\nwrote ", start)] == expected

    def test_ablation_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ablation", "recovery"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'ablation'" in capsys.readouterr().err

    def test_scale_with_spec_file_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().as_dict()))
        code = main(
            ["ablate", "run", str(spec_path), "--out", str(tmp_path),
             "--scale", "0.5"]
        )
        assert code == 2
        assert "--scale" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "payload, subject",
        [
            ({"benchmarks": "compress"}, "benchmarks"),
            ({"benchmarks": ["ora"], "metrics": "ipc"}, "metrics"),
            (
                {
                    "benchmarks": ["ora"],
                    "toggles": [
                        {"name": "btb", "parameter": "btb_entries",
                         "values": 256}
                    ],
                },
                "toggles[0].values",
            ),
            (
                {
                    "benchmarks": ["ora"],
                    "toggles": [
                        {"name": "a", "parameter": "btb_entries",
                         "values": [256]},
                        {"name": "b", "parameter": "num_banks",
                         "values": [2]},
                    ],
                    "pairwise": ["ab"],
                },
                "pairwise[0]",
            ),
        ],
    )
    def test_scalar_list_field_is_one_finding(
        self, tmp_path, capsys, payload, subject
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", **payload}))
        assert main(["ablate", "run", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert subject in err[0] and "must be a JSON list" in err[0]


# -- chart renderers ----------------------------------------------------------


class TestCharts:
    def test_tornado_signs_and_sort(self):
        from repro.metrics.chart import tornado_chart

        chart = tornado_chart(
            [("small", 0.1), ("big", -0.4), ("mid", 0.2)], width=20
        )
        lines = chart.splitlines()
        assert lines[0].lstrip().startswith("big")
        assert all("│" in line for line in lines)
        left, right = lines[0].split("│")
        assert "█" in left and "█" not in right  # negative goes left
        assert "+0.200" in chart and "-0.400" in chart

    def test_tornado_rejects_empty(self):
        from repro.metrics.chart import tornado_chart

        with pytest.raises(ValueError):
            tornado_chart([])

    def test_scatter_marks_frontier(self):
        from repro.metrics.chart import scatter_chart

        chart = scatter_chart(
            [(1.0, 2.0, "a"), (4.0, 8.0, "b"), (9.0, 3.0, "c")],
            width=20,
            height=6,
            mark={1},
        )
        assert chart.count("●") == 1
        assert chart.count("·") == 2
        assert "└" in chart

    def test_scatter_rejects_empty(self):
        from repro.metrics.chart import scatter_chart

        with pytest.raises(ValueError):
            scatter_chart([])
