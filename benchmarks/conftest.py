"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (fewer repetitions and shorter simulated durations than the paper's
128 x 100-second runs), prints the corresponding rows/series and asserts
the paper's qualitative shape, so the comparison can be re-checked from the
benchmark output alone.  ``pytest benchmarks/ --benchmark-only -s`` shows the
tables inline.  None of them is a performance yardstick — that is ``bench/``
(``BENCHMARK.json``).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def bench_once(benchmark):
    """Fixture wrapper around :func:`run_once`."""

    def runner(func, *args, **kwargs):
        return run_once(benchmark, func, *args, **kwargs)

    return runner
