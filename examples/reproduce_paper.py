#!/usr/bin/env python3
"""Regenerate the paper's tables and figures.

Runs the full experiment suite (or a selection) and prints each table in
the paper's presentation order.  This is the script that produced
EXPERIMENTS.md.

Usage::

    python examples/reproduce_paper.py                # everything (~10 min)
    python examples/reproduce_paper.py table2 fig10   # a selection
    python examples/reproduce_paper.py --chart fig09  # ASCII bar charts
    python -m repro experiment --scale 4              # longer traces
"""

import sys
import time

from repro.experiments.report import EXPERIMENTS, render, run_experiments


def main() -> None:
    argv = list(sys.argv[1:])
    chart = "--chart" in argv
    if chart:
        argv.remove("--chart")
    names = argv or list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            known = ", ".join(EXPERIMENTS)
            raise SystemExit(f"unknown experiment {name!r}; known: {known}")
    for name in names:
        start = time.time()
        (result,) = run_experiments([name])
        print(render(result, chart=chart))
        print(f"\n[{name} took {time.time() - start:.1f}s]")
        print("=" * 72)


if __name__ == "__main__":
    main()
