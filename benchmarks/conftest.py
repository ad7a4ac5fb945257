"""Shared configuration for the benchmark harness.

Each ``test_<artifact>`` file regenerates one table/figure of the paper
under pytest-benchmark timing.  Experiments are deterministic and
memoised, so every benchmark runs exactly one round; the printed tables
are the regenerated artifacts.

Every length is set in ``BENCH_CONFIG`` below; edit it to scale the
harness.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig

#: Reduced lengths so the full harness stays laptop-friendly; the
#: experiments' qualitative shapes are stable at this scale.
BENCH_CONFIG = ExperimentConfig(
    trace_length=8_000,
    eir_length=12_000,
    stats_length=30_000,
    warmup=2_000,
)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


def run_once(benchmark, func, *args):
    """Run *func* exactly once under timing (experiments are memoised, so
    repeated rounds would time the cache, not the work)."""
    return benchmark.pedantic(func, args=args, rounds=1, iterations=1)
