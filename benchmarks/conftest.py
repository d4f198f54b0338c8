"""Shared plumbing for the paper-shape tests.

Every test regenerates one of the paper's tables/figures on the
simulated cluster, prints its rows (run with ``-s`` to see the tables)
and asserts the paper's shape on them.  These are correctness tests of
the simulated results; the simulator's own host time is measured by
``perfbench/``.

Set ``REPRO_BENCH_SCALE=full`` for the full-resolution sweeps used to
regenerate EXPERIMENTS.md (slower).  The ablations in
``test_ablations.py`` are fixed-size (8 threads × 40 ops, or a 96-write
flood) at either scale.
"""

import os

import pytest


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


@pytest.fixture
def record_result():
    """Print an ExperimentResult's table."""

    def _record(result) -> None:
        print()
        print(result)

    return _record
