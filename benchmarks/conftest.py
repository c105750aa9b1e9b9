"""Benchmark fixtures.

All benches share one memoizing :class:`~repro.experiments.base.Runner`,
so experiments that consume the same (app, design) matrix — e.g. Figures
14-17 — pay for each simulation once per pytest session.  Every bench
writes its rendered table to ``results/<experiment>.txt`` next to this
directory so the regenerated tables/figures survive output capture.

Workload scale is taken from ``REPRO_SCALE`` (default 1.0, the calibrated
scale; use e.g. ``REPRO_SCALE=0.25 pytest benchmarks/`` for a quick pass —
magnitudes shift at smaller scales, so the shape assertions are lenient).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.base import Runner, default_runner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def runner() -> Runner:
    return default_runner()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR

