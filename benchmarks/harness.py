"""Shared bench helpers: run an experiment once under pytest-benchmark,
persist its rendered table, and return the report for shape assertions;
plus the sweep-engine wall-clock helper used by ``test_bench_sweep.py``
and the machine-readable engine-baseline recorder used by
``test_bench_engine.py`` (``results/engine.json``, the perf-regression
gate's committed reference)."""

from __future__ import annotations

import json
import time
from typing import List, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentReport, Runner
from repro.experiments.registry import run_experiment
from repro.sim.results import SimResult


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


def bench_sweep(
    benchmark,
    runner: Runner,
    grid: Sequence,
    results_dir,
    label: str,
    jobs: Optional[int] = None,
) -> Tuple[List[SimResult], float]:
    """Benchmark one ``Runner.run_many`` sweep over ``grid``.

    Appends a wall-clock + cache-accounting record to ``results/sweep.txt``
    so serial-vs-fleet and cold-vs-warm timings survive output capture,
    and returns ``(results, elapsed_seconds)`` for fingerprint assertions
    and the machine-readable ``sweep.json`` recorder.
    """
    timing = {}

    def go() -> List[SimResult]:
        t0 = time.perf_counter()
        out = runner.run_many(grid, jobs=jobs)
        timing["elapsed"] = time.perf_counter() - t0
        return out

    results = benchmark.pedantic(go, rounds=1, iterations=1)
    record = (
        f"{label}: {timing['elapsed']:.2f}s wall, points={len(results)}, "
        f"sims_run={runner.sims_run}, jobs={jobs or runner.jobs}, "
        f"disk_hits={runner.disk_hits}, rehydrations={runner.rehydrations}"
    )
    if runner.fleet_stats:
        record += (
            f", fleet_cold={runner.fleet_stats.get('cold_starts', 0):.0f}"
            f", fleet_warm={runner.fleet_stats.get('warm_acquires', 0):.0f}"
        )
    with open(results_dir / "sweep.txt", "a", encoding="utf-8") as fh:
        fh.write(record + "\n")
    print()
    print(record)
    return results, timing["elapsed"]


#: Schema of ``results/engine.json`` and ``results/sweep.json``.  Bump
#: when the point shape changes so ``check_perf_baseline.py`` can refuse
#: to diff incompatible files.
ENGINE_BASELINE_SCHEMA = 1


def _upsert_baseline_point(path, point: dict) -> dict:
    """Upsert one measured point into an engine.json-shaped baseline file.

    One entry per ``(app, design, scale)`` key, newest measurement wins,
    deterministic key order and point sort so diffs stay reviewable.
    Returns the document that was written.
    """
    doc = {"schema_version": ENGINE_BASELINE_SCHEMA, "points": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if loaded.get("schema_version") == ENGINE_BASELINE_SCHEMA:
                doc = loaded
        except (ValueError, OSError):
            pass  # unreadable baseline: rewrite from scratch
    key = (point["app"], point["design"], point["scale"])
    points = [
        p for p in doc.get("points", [])
        if (p.get("app"), p.get("design"), p.get("scale")) != key
    ]
    points.append(point)
    points.sort(key=lambda p: (p["app"], p["design"], p["scale"]))
    doc = {"schema_version": ENGINE_BASELINE_SCHEMA, "points": points}
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return doc


def record_engine_point(
    results_dir,
    app: str,
    design: str,
    scale: float,
    events: int,
    wall_s: float,
    events_per_s: float,
    fingerprint_sha256: str,
) -> dict:
    """Upsert one measured point into ``results/engine.json``.

    The file is the machine-readable twin of ``engine.txt``.  CI diffs a
    fresh run against the committed copy (``check_perf_baseline.py``) to
    catch events/s regressions; the fingerprint hash rides along so a
    perf diff can also prove it compared identical simulations.

    Returns the document that was written.
    """
    return _upsert_baseline_point(results_dir / "engine.json", {
        "app": app,
        "design": design,
        "scale": scale,
        "events": events,
        "wall_s": round(wall_s, 4),
        "events_per_s": round(events_per_s, 1),
        "fingerprint_sha256": fingerprint_sha256,
    })


def record_sweep_point(
    results_dir,
    label: str,
    scale: float,
    n_points: int,
    jobs: int,
    events: int,
    wall_s: float,
    events_per_s: float,
    fingerprint_sha256: str,
    fleet_stats: Optional[dict] = None,
    non_sim_overhead_s: Optional[float] = None,
) -> dict:
    """Upsert one sweep-throughput measurement into ``results/sweep.json``.

    Same (app, design, scale)-keyed shape as ``engine.json`` so
    ``check_perf_baseline.py`` gates it unchanged: ``app`` encodes the
    grid size (``sweep24``), ``design`` the execution mode
    (``serial-cold`` / ``fleet-cold`` / ``fleet-warm``), and
    ``fingerprint_sha256`` hashes the concatenated per-point result
    hashes, so the gate proves all three modes computed the *same*
    sweep bit-exactly before comparing their throughput.  Extra fields
    (jobs, fleet counters, non-sim overhead) ride along for humans; the
    gate ignores keys it does not know.
    """
    point = {
        "app": f"sweep{n_points}",
        "design": label,
        "scale": scale,
        "events": events,
        "wall_s": round(wall_s, 4),
        "events_per_s": round(events_per_s, 1),
        "fingerprint_sha256": fingerprint_sha256,
        "jobs": jobs,
    }
    if fleet_stats:
        point["fleet"] = {
            k: round(float(v), 4) for k, v in sorted(fleet_stats.items())
        }
    if non_sim_overhead_s is not None:
        point["non_sim_overhead_s"] = round(non_sim_overhead_s, 4)
    return _upsert_baseline_point(results_dir / "sweep.json", point)
