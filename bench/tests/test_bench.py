"""The benchmark's contract: catalogue shape, deterministic inputs,
emitted metric names, the comparison rules, and refusal to run without
the program."""

import json
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

import compare
import workloads
from common import BENCH, CATALOGUE, ROOT, WORKLOADS, load_catalogue

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_catalogue_names_units_and_bounds():
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    assert names == list(WORKLOADS)
    metrics = catalogue["end_to_end"] + catalogue["per_layer"]
    for entry in catalogue["workloads"] + metrics:
        assert NAME.match(entry["name"]), entry["name"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in catalogue["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_request_list_is_a_function_of_the_seed():
    hot, requests = workloads.request_list(3)
    assert (hot, requests) == workloads.request_list(3)
    assert requests != workloads.request_list(4)[1]
    misses = [spec for cls, _, spec in requests if cls == "miss"]
    assert len(misses) == round(len(requests) * workloads.MISS_SHARE)
    assert len({spec["seed"] for spec in misses}) == len(misses)
    assert len({json.dumps(spec, sort_keys=True) for spec in hot}) == len(hot)
    assert not {spec["seed"] for spec in misses} & {spec["seed"] for spec in hot}


def test_gate_pauses_only_between_requests():
    gate = workloads.Gate(2)
    lock = threading.Lock()
    in_flight = 0
    seen = []

    def client(requests):
        nonlocal in_flight
        for _ in range(requests):
            gate.checkpoint()
            with lock:
                in_flight += 1
            time.sleep(0.001)
            with lock:
                in_flight -= 1
        gate.leave()

    threads = [threading.Thread(target=client, args=(n,)) for n in (50, 200)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 30
    while not gate.wait_done(0.01) and time.monotonic() < deadline:
        if gate.pause():
            seen.append(in_flight)
        gate.resume()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert seen and set(seen) == {0}


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_emits_exactly_the_catalogue(trace, tmp_path):
    out = tmp_path / "run.json"
    proc = _run(["--quick", "--seconds", "1", "--trace", trace, "--json", str(out)])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    catalogue = load_catalogue()
    expected = {m["name"] for m in catalogue["per_layer" if trace == "1" else "end_to_end"]}
    assert set(last["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in expected}
    document = json.loads(out.read_text())
    assert set(document["meta"]) >= {"seed", "git_sha", "host"}
    assert set(document["meta"]["host"]) >= {"python", "nproc", "cpu_model"}
    for record in document["workloads"].values():
        assert record["duration_s"] > 0
        if trace == "0":
            assert set(record["metrics"]) == expected
            assert all(value > 0 for value in record["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CATALOGUE, tmp_path / CATALOGUE.name)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "sim_kernel", "--seed", "1"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _runs(values, better="lower", bound=0.1):
    return compare.verdict(values[0], values[1], bound, better)["verdict"]


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert _runs([base, [v * 1.02 for v in base]]) == "unchanged"
    assert _runs([base, [v * 1.3 for v in base]]) == "worse"
    assert _runs([base, [v * 0.7 for v in base]]) == "better"
    assert _runs([base, [v * 1.3 for v in base]], better="higher") == "better"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert _runs([base, noisy]) == "unresolved"
    assert _runs([noisy, [10.0, 30.0, 20.0, 15.0, 25.0]]) == "better"


def test_compare_claim_rule():
    a = [(seed, 100.0 + seed % 3) for seed in range(10)]
    faster = [(seed, 90.0 + seed % 3) for seed in range(10)]
    assert compare.claim(a, faster, "lower")[0]
    assert not compare.claim(a, faster, "higher")[0]
    assert not compare.claim(a[:5], faster[:5], "lower")[0]
    one_loss = faster[:9] + [(9, 150.0)]
    assert compare.claim(a, one_loss, "lower")[0]
    two_losses = faster[:8] + [(8, 150.0), (9, 150.0)]
    assert not compare.claim(a, two_losses, "lower")[0]
    within_noise = [(seed, 99.5 + seed % 3) for seed in range(10)]
    assert not compare.claim(a, within_noise, "lower")[0]


def test_compare_cli_groups_files_by_directory(tmp_path):
    for side, scale in (("a", 1.0), ("same", 1.0), ("slower", 1.5)):
        (tmp_path / side).mkdir()
        for seed in range(3):
            document = {
                "meta": {"seed": seed},
                "workloads": {
                    "sim_kernel": {"metrics": {"warm_ms": scale * (30 + seed)}}
                },
            }
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(document))

    def files(side):
        return sorted(str(p) for p in (tmp_path / side).glob("*.json"))

    assert compare.main(files("a") + files("same")) == 0
    assert compare.main(files("a") + files("slower")) == 1
    with pytest.raises(SystemExit):
        compare.main(files("a"))
