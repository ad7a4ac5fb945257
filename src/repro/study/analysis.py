"""Importance, interaction and Pareto analysis of an executed study.

Definitions (rendered in ``docs/studies.md``):

* **Delta** of a single run: ``metric(run) - metric(baseline)``.
  Negative means flipping that component *costs* performance.
* **Importance** of a toggle, per metric: the largest absolute delta
  over its values — how much that one component can move the needle.
  Components are ranked by the study's primary metric (EIR when
  measured, else IPC).
* **Interaction** of a pairwise cell ``(A=a, B=b, ...)``:
  ``metric(a,b,...) - (baseline + delta_A(a) + delta_B(b) + ...)`` —
  the part of the cell's effect the one-factor-off deltas do not
  explain (a group of two or more toggles, crossed in full).
* **Pareto frontier**: the non-dominated runs maximising EIR while
  minimising modeled hardware cost (:mod:`repro.study.cost`).  The
  ``perfect`` oracle scheme is excluded — it is a bound, not hardware.

``build_report`` produces a plain-JSON dict; every renderer works from
that dict alone, so ``repro ablate report DIR`` re-renders markdown,
CSV or charts from ``report.json`` without touching a simulator.
The report is deterministic by construction (no timestamps, stable
sort orders), which is what makes interrupted-and-resumed studies
byte-comparable to clean ones.
"""

from __future__ import annotations

import io
import itertools
from typing import Iterable

from repro.metrics.chart import scatter_chart, tornado_chart
from repro.study.cost import hardware_cost
from repro.study.spec import Expansion, StudySpec


def primary_metric(metrics: Iterable[str]) -> str:
    return "eir" if "eir" in metrics else "ipc"


def build_report(
    spec: StudySpec, expansion: Expansion, metrics_by_run: dict[str, dict]
) -> dict:
    """The full analysis of one executed study, as a plain-JSON dict."""
    primary = primary_metric(spec.metrics)
    baseline = metrics_by_run[expansion.baseline_id]

    runs = []
    for run in expansion.runs:
        entry = {
            "run_id": run.run_id,
            "label": run.label,
            "scenario": run.scenario,
            "cost": hardware_cost(run.scenario),
            "metrics": {m: metrics_by_run[run.run_id][m] for m in spec.metrics},
            "benchmarks": metrics_by_run[run.run_id]["benchmarks"],
        }
        runs.append(entry)

    components = []
    for toggle in spec.toggles:
        values = []
        for value in toggle.values:
            run_id = expansion.single_id(toggle.name, value)
            run_metrics = metrics_by_run[run_id]
            entry = {"value": value, "run_id": run_id}
            for metric in spec.metrics:
                entry[metric] = run_metrics[metric]
                entry[f"delta_{metric}"] = run_metrics[metric] - baseline[metric]
            values.append(entry)
        importance = {
            metric: max(abs(v[f"delta_{metric}"]) for v in values)
            for metric in spec.metrics
        }
        components.append(
            {
                "toggle": toggle.name,
                "parameter": toggle.parameter,
                "values": values,
                "importance": importance,
            }
        )
    components.sort(key=lambda c: (-c["importance"][primary], c["toggle"]))
    for rank, component in enumerate(components, start=1):
        component["rank"] = rank

    interactions = []
    by_name = {toggle.name: toggle for toggle in spec.toggles}
    for group in spec.pairwise:
        names = list(group)
        for values in itertools.product(*(by_name[n].values for n in names)):
            cell = [item for pair in zip(names, values) for item in pair]
            run_id = expansion.pair_id(*cell)
            entry = {
                "toggles": names,
                "values": list(values),
                "run_id": run_id,
                "effects": {},
            }
            for metric in spec.metrics:
                actual = metrics_by_run[run_id][metric]
                # Left to right, so a two-toggle cell keeps the float
                # association (baseline + delta_a) + delta_b.
                expected = baseline[metric]
                for name, value in zip(names, values):
                    single = metrics_by_run[expansion.single_id(name, value)]
                    expected += single[metric] - baseline[metric]
                entry["effects"][metric] = {
                    "actual": actual,
                    "expected": expected,
                    "interaction": actual - expected,
                }
            interactions.append(entry)
    interactions.sort(
        key=lambda e: (
            -abs(e["effects"][primary]["interaction"]),
            e["run_id"],
        )
    )

    pareto: dict = {"metric": "eir", "points": [], "frontier": []}
    if "eir" in spec.metrics:
        points = [
            {
                "run_id": r["run_id"],
                "label": r["label"],
                "eir": r["metrics"]["eir"],
                "cost": r["cost"],
            }
            for r in runs
            if r["scenario"]["scheme"] != "perfect"
        ]
        points.sort(key=lambda p: (p["cost"], -p["eir"], p["run_id"]))
        frontier = []
        best_eir = float("-inf")
        for point in points:
            if point["eir"] > best_eir:
                frontier.append(point["run_id"])
                best_eir = point["eir"]
        pareto["points"] = points
        pareto["frontier"] = frontier

    return {
        "study": spec.name,
        "spec_digest": spec.digest,
        "metrics": list(spec.metrics),
        "primary_metric": primary,
        "baseline": {
            "run_id": expansion.baseline_id,
            "metrics": {m: baseline[m] for m in spec.metrics},
        },
        "runs": runs,
        "importance": components,
        "interactions": interactions,
        "pareto": pareto,
    }


# -- renderers (work from the report dict alone) ------------------------------


def _tornado_entries(report: dict) -> list[tuple[str, float]]:
    primary = report["primary_metric"]
    entries = []
    for component in report["importance"]:
        for value in component["values"]:
            entries.append(
                (
                    f"{component['toggle']}={value['value']}",
                    value[f"delta_{primary}"],
                )
            )
    return entries


def render_tornado(report: dict) -> str:
    """Tornado chart of per-component deltas on the primary metric."""
    entries = _tornado_entries(report)
    if not entries:
        return "(no toggles)\n"
    primary = report["primary_metric"]
    baseline = report["baseline"]["metrics"][primary]
    return (
        tornado_chart(
            entries,
            title=(
                f"{report['study']}: {primary.upper()} delta vs baseline "
                f"({baseline:.3f})"
            ),
            unit=f" {primary.upper()}",
        )
        + "\n"
    )


def render_csv(report: dict) -> str:
    """Per-run metrics as CSV (one row per unique run)."""
    out = io.StringIO()
    metrics = report["metrics"]
    out.write(",".join(["run_id", "label", "cost", *metrics]) + "\n")
    for run in report["runs"]:
        cells = [run["run_id"], '"' + run["label"] + '"', repr(run["cost"])]
        cells += [repr(run["metrics"][m]) for m in metrics]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def render_markdown(report: dict) -> str:
    """The human-facing study report (also written as ``report.md``)."""
    primary = report["primary_metric"]
    metrics = report["metrics"]
    lines = [
        f"# Study report: {report['study']}",
        "",
        f"Spec digest `{report['spec_digest']}` · primary metric "
        f"**{primary.upper()}** · {len(report['runs'])} unique runs",
        "",
        "Baseline: "
        + ", ".join(
            f"{m.upper()} {report['baseline']['metrics'][m]:.4f}"
            for m in metrics
        ),
        "",
        "## Component importance",
        "",
    ]
    header = ["rank", "toggle", "parameter"] + [
        f"importance ({m.upper()})" for m in metrics
    ]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for component in report["importance"]:
        row = [
            str(component["rank"]),
            component["toggle"],
            component["parameter"],
        ] + [f"{component['importance'][m]:.4f}" for m in metrics]
        lines.append("| " + " | ".join(row) + " |")
    lines += ["", "```", render_tornado(report).rstrip("\n"), "```", ""]

    if report["interactions"]:
        lines += ["## Pairwise interactions", ""]
        header = ["pair", "values"] + [
            f"{m.upper()} actual/expected/interaction" for m in metrics
        ]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for entry in report["interactions"]:
            cells = [
                "x".join(entry["toggles"]),
                ", ".join(str(v) for v in entry["values"]),
            ]
            for metric in metrics:
                effect = entry["effects"][metric]
                cells.append(
                    f"{effect['actual']:.4f} / {effect['expected']:.4f} / "
                    f"{effect['interaction']:+.4f}"
                )
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")

    pareto = report["pareto"]
    if pareto["points"]:
        frontier = set(pareto["frontier"])
        lines += ["## Pareto frontier: EIR vs modeled hardware cost", ""]
        points = [
            (p["cost"], p["eir"], p["label"]) for p in pareto["points"]
        ]
        marked = {
            i for i, p in enumerate(pareto["points"])
            if p["run_id"] in frontier
        }
        lines += [
            "```",
            scatter_chart(
                points,
                title="EIR vs cost (● = frontier)",
                xlabel="cost (area units)",
                ylabel="EIR",
                mark=marked,
            ),
            "```",
            "",
            "| frontier run | cost | EIR |",
            "|---|---|---|",
        ]
        by_id = {p["run_id"]: p for p in pareto["points"]}
        for run_id in pareto["frontier"]:
            point = by_id[run_id]
            lines.append(
                f"| {point['label']} | {point['cost']:.2f} "
                f"| {point['eir']:.4f} |"
            )
        lines.append("")

    lines += [
        "## Runs",
        "",
        "| run | label | cost | " + " | ".join(m.upper() for m in metrics) + " |",
        "|" + "---|" * (3 + len(metrics)),
    ]
    for run in report["runs"]:
        cells = [run["run_id"], run["label"], f"{run['cost']:.2f}"]
        cells += [f"{run['metrics'][m]:.4f}" for m in metrics]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)
