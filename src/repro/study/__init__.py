"""Declarative ablation & experiment-design engine.

The package splits the classic "run a hand-written sweep loop" workflow
into four orthogonal layers:

* :mod:`repro.study.spec` — declarative :class:`StudySpec` (baseline
  scenario + toggles), validated through :mod:`repro.check`, expanded
  deterministically into content-hashed runs.
* :mod:`repro.study.engine` — execution of the expansion on the
  supervised sweep engine (timeout/retry/backoff, journal, resume).
* :mod:`repro.study.analysis` — importance scores, pairwise
  interactions and EIR-vs-cost Pareto frontiers, rendered as JSON, CSV,
  markdown and ASCII charts.
* :mod:`repro.study.presets` — named studies: the registry of the
  beyond-paper ablations and the renderers of their tables.

Entry points: the ``repro ablate`` CLI, or programmatically::

    from repro.study import StudySpec, Toggle, run_study
    spec = StudySpec(name="demo", benchmarks=("compress",),
                     toggles=(Toggle("btb", "btb_entries", (256, 4096)),))
    outcome = run_study(spec, "studies/demo")

See ``docs/studies.md`` for the spec grammar and the analysis
definitions.
"""

from __future__ import annotations

from repro.study.analysis import (
    build_report,
    render_csv,
    render_markdown,
    render_tornado,
)
from repro.study.cost import hardware_cost
from repro.study.engine import METRICS, StudyJob, StudyOutcome, run_study
from repro.study.spec import (
    Expansion,
    StudyRun,
    StudySpec,
    Toggle,
    expand,
    run_id_of,
    spec_from_dict,
    spec_from_json,
    validate,
)

__all__ = [
    "Expansion",
    "METRICS",
    "StudyJob",
    "StudyOutcome",
    "StudyRun",
    "StudySpec",
    "Toggle",
    "build_report",
    "expand",
    "hardware_cost",
    "render_csv",
    "render_markdown",
    "render_tornado",
    "run_id_of",
    "run_study",
    "spec_from_dict",
    "spec_from_json",
    "validate",
]
