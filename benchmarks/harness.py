"""Shared bench helper: run an experiment once under pytest-benchmark,
persist its rendered table, and return the report for shape assertions."""

from __future__ import annotations

from repro.experiments.base import ExperimentReport, Runner
from repro.experiments.registry import run_experiment


def bench_experiment(benchmark, runner: Runner, results_dir, exp_id: str) -> ExperimentReport:
    """Benchmark one experiment (a single round — the run *is* the artifact)
    and write its table to ``results/<exp_id>.txt``."""
    report = benchmark.pedantic(
        run_experiment, args=(exp_id, runner), rounds=1, iterations=1
    )
    text = report.render()
    (results_dir / f"{exp_id}.txt").write_text(text + "\n")
    print()
    print(text)
    return report
