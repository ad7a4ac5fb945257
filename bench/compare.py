"""Compare two sets of benchmark runs.

    python3 bench/compare.py A/*.json B/*.json [--claim METRIC@WORKLOAD ...]

The files are ``bench/run.py --json`` outputs; they form two sets by
directory, A (the baseline, e.g. the parent commit) first.  For each
workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the relative change of the medians, and a
verdict against the metric's bound:

* ``unresolved``: a side's spread (interquartile distance over median)
  is wider than the bound, unless every B run reads better than every A
  run, which is ``better``;
* ``worse`` / ``better``: the median moved the wrong / right way by more
  than the bound;
* ``unchanged``: otherwise.

``--claim METRIC@WORKLOAD`` also applies the rule for claiming a gain:
at least ten pairs (matched by seed, else by order), B better in at
least nine tenths of them (ties count for neither), and the medians
apart, in B's favour, by more than A's interquartile distance.

Exits 1 if any verdict is ``worse`` or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import load_catalogue, quartiles

#: Wins a claimed gain needs, as a share of pairs, and the pairs it
#: needs at least.
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10


def load_set(paths: list[str]) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """``(workload, metric) -> [(seed, value), ...]`` over run files."""
    runs: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        seed = document["meta"]["seed"]
        for workload, record in document["workloads"].items():
            for metric, value in record.get("metrics", {}).items():
                if value is not None:
                    runs.setdefault((workload, metric), []).append((seed, value))
    return runs


def split_sets(paths: list[str]) -> tuple[list[str], list[str]]:
    groups: dict[Path, list[str]] = {}
    for path in paths:
        groups.setdefault(Path(path).resolve().parent, []).append(path)
    if len(groups) != 2:
        raise SystemExit(
            f"compare: expected files from two directories, got {len(groups)}"
        )
    first, second = groups.values()
    return first, second


def is_better(b: float, a: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def verdict(a: list[float], b: list[float], bound: float, better: str) -> dict:
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1]
    worsening = change if better == "lower" else -change
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    dominates = all(is_better(vb, va, better) for vb in b for va in a)
    if spread > bound:
        outcome = "better" if dominates else "unresolved"
    elif worsening > bound:
        outcome = "worse"
    elif -worsening > bound:
        outcome = "better"
    else:
        outcome = "unchanged"
    return {"a": qa, "b": qb, "change": change, "spread": spread, "verdict": outcome}


def claim(
    a: list[tuple[int, float]], b: list[tuple[int, float]], better: str
) -> tuple[bool, str]:
    """The paired rule for a claimed gain of B over A."""
    if not a or not b:
        return False, "no runs on one side"
    a_by_seed, b_by_seed = dict(a), dict(b)
    if len(a_by_seed) == len(a) and a_by_seed.keys() == b_by_seed.keys():
        pairs = [(a_by_seed[s], b_by_seed[s]) for s in a_by_seed]
    else:
        pairs = list(zip((v for _, v in a), (v for _, v in b)))
    wins = sum(is_better(vb, va, better) for va, vb in pairs)
    qa = quartiles([v for _, v in a])
    qb = quartiles([v for _, v in b])
    gap = qa[1] - qb[1] if better == "lower" else qb[1] - qa[1]
    ok = (
        len(pairs) >= CLAIM_MIN_PAIRS
        and wins >= CLAIM_WIN_SHARE * len(pairs)
        and gap > qa[2] - qa[0]
    )
    detail = (
        f"{wins}/{len(pairs)} pairs won, median gap {gap:.6g} "
        f"vs baseline IQR {qa[2] - qa[0]:.6g}"
    )
    return ok, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of bench/run.py --json outputs."
    )
    parser.add_argument("files", nargs="+", help="A/*.json B/*.json")
    parser.add_argument(
        "--claim", action="append", default=[], metavar="METRIC@WORKLOAD"
    )
    args = parser.parse_args(argv)
    catalogue = load_catalogue()
    paths_a, paths_b = split_sets(args.files)
    runs_a, runs_b = load_set(paths_a), load_set(paths_b)
    specs = {spec["name"]: spec for spec in catalogue["end_to_end"]}
    workloads = [w["name"] for w in catalogue["workloads"]]

    failed = False
    print(
        f"{'workload':14s} {'metric':12s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'change':>8s} {'bound':>6s}  verdict"
    )
    for workload in workloads:
        for name, spec in specs.items():
            a = [v for _, v in runs_a.get((workload, name), [])]
            b = [v for _, v in runs_b.get((workload, name), [])]
            if not a or not b:
                continue
            row = verdict(a, b, spec["bound"], spec["better"])
            failed |= row["verdict"] == "worse"
            sides = [
                f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={n}"
                for q, n in ((row["a"], len(a)), (row["b"], len(b)))
            ]
            print(
                f"{workload:14s} {name:12s} {sides[0]:>32s} {sides[1]:>32s} "
                f"{row['change']:+8.1%} {spec['bound']:6.0%}  {row['verdict']}"
            )
    for item in args.claim:
        name, _, workload = item.partition("@")
        if name not in specs:
            print(f"claim {item}: {name} is not an end-to-end metric", file=sys.stderr)
            failed = True
            continue
        ok, detail = claim(
            runs_a.get((workload, name), []),
            runs_b.get((workload, name), []),
            specs[name]["better"],
        )
        failed |= not ok
        print(f"claim {item}: {'met' if ok else 'not met'} ({detail})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
