"""The benchmark's workloads: what one pass runs and how it is checked.

Every workload drives the simulator through its public API only, the
way ``repro figures`` / ``repro sweep`` users do:

* ``grid-serial`` -- the paper-core grid (the 12 replication-sensitive
  apps x Baseline / Sh40 / Sh40+C10+Boost) through a fresh
  ``Runner(jobs=1, cache=False).run_many`` per pass.  The seed selects
  the trace variant (``AppProfile.variant(seed)``).
* ``figures-cold`` -- eight figure experiments on a fresh
  ``Runner(jobs=2)`` over a fresh disk-cache directory, with the worker
  fleet shut down before each pass.
* ``figures-warm`` -- the same experiments on a fresh runner each pass,
  over a disk cache populated during set-up: nothing simulates.

The ``figures-*`` workloads run the shipped experiments unchanged, so
they take no seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import DesignSpec, SimConfig, get_app
from repro.experiments import registry
from repro.experiments.base import Runner
from repro.sim.fleet import get_fleet, shutdown_fleet
from repro.workloads.suite import REPLICATION_SENSITIVE

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GRID_DESIGNS = (
    DesignSpec.baseline(),
    DesignSpec.shared(40),
    DesignSpec.clustered(40, 10, boost=2.0),
)
GRID_SCALE = 0.1

FIGURES = ("fig08", "fig09", "fig11", "fig13", "fig14", "fig15", "fig16", "fig17")
FIGURES_SCALE = 0.05

#: Pool width of the figures workloads; never more than two.
JOBS = min(2, os.cpu_count() or 1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_sha(obj: object) -> str:
    return _sha(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def model_counters(prints: List[Dict[str, object]]) -> Dict[str, float]:
    """Simulated-time counters over distinct points' fingerprints.

    ``model.ipc_speedup_geomean`` pairs Sh40+C10+Boost with Baseline per
    app; ``model.replication_ratio`` pools the Baseline points.
    """
    def l1(fp, slot):
        return fp[f"l1.{slot}"]

    accesses = sum(
        l1(fp, s) for fp in prints
        for s in ("load_hits", "load_misses", "store_hits", "store_misses"))
    misses = sum(l1(fp, "load_misses") + l1(fp, "store_misses") for fp in prints)
    base = [fp for fp in prints if fp["design"] == "Baseline"]
    base_misses = sum(l1(fp, "load_misses") + l1(fp, "store_misses") for fp in base)
    ipc = {(fp["app"], fp["design"]): fp["instructions"] / fp["cycles"] for fp in prints}
    ratios = [
        ipc[(app, "Sh40+C10+Boost")] / ipc[(app, "Baseline")]
        for app, design in ipc
        if design == "Baseline" and (app, "Sh40+C10+Boost") in ipc
    ]
    hops = sum(
        v for fp in prints for k, v in fp.items()
        if k.startswith("noc_traffic[") and k.endswith("][0]"))
    return {
        "model.cycles": sum(fp["cycles"] for fp in prints),
        "model.instructions": sum(fp["instructions"] for fp in prints),
        "model.ipc_speedup_geomean": (
            math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0),
        "model.l1_miss_rate": misses / accesses if accesses else 0.0,
        "model.replication_ratio": (
            sum(l1(fp, "replicated_misses") for fp in base) / base_misses
            if base_misses else 0.0),
        "model.noc_flit_hops": hops,
        "model.dram_accesses": sum(fp["dram_accesses"] for fp in prints),
    }


class PassOutput:
    """What one pass returned: distinct points' fingerprints (by point
    id) and, for the figures workloads, the rendered reports."""

    def __init__(self, prints: Dict[str, Dict[str, object]],
                 reports: Optional[Dict[str, str]] = None):
        self.prints = prints
        self.reports = reports or {}

    @property
    def instructions(self) -> int:
        return sum(fp["instructions"] for fp in self.prints.values())

    def digest(self) -> Dict[str, object]:
        return {
            "points": {k: _canonical_sha(fp) for k, fp in sorted(self.prints.items())},
            "reports": {k: _sha(r) for k, r in sorted(self.reports.items())},
        }


def compare(digest: Dict[str, object], reference: Dict[str, object]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` of a pass digest vs a reference."""
    attempted = failed = 0
    problems: List[str] = []
    for section in ("points", "reports"):
        got, want = digest[section], reference.get(section, {})
        for name in sorted(set(got) | set(want)):
            attempted += 1
            if got.get(name) != want.get(name):
                failed += 1
                problems.append(f"{section[:-1]} {name}: "
                                f"{str(got.get(name))[:12]} != {str(want.get(name))[:12]}")
    return attempted, failed, problems


class GridSerial:
    name = "grid-serial"
    jobs = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.points = [
            (get_app(app).variant(seed), spec)
            for app in REPLICATION_SENSITIVE for spec in GRID_DESIGNS
        ]
        self.config = SimConfig(scale=GRID_SCALE)
        path = self.reference_path(seed)
        self.reference = json.loads(path.read_text()) if path.exists() else None

    @staticmethod
    def reference_path(seed: int) -> Path:
        return REFERENCE_DIR / f"grid-serial-seed{seed}.json"

    def setup(self) -> float:
        """Extra set-up beyond import (none for this workload)."""
        return 0.0

    def before_pass(self) -> None:
        pass

    def run_pass(self) -> object:
        runner = Runner(self.config, jobs=1, cache=False)
        return runner.run_many(self.points)

    def collect(self, results) -> PassOutput:
        return PassOutput({
            f"{r.app}/{r.design}": r.fingerprint() for r in results
        })

    def check(self, out: PassOutput, first: Optional[PassOutput]) -> Tuple[int, int, List[str]]:
        """Exact comparison against the committed reference for this
        seed; for other seeds, model invariants plus repeatability."""
        if self.reference is not None:
            return compare(out.digest(), self.reference)
        problems: List[str] = []
        bad = set()
        instr: Dict[str, set] = {}
        for (profile, spec), (pid, fp) in zip(self.points, out.prints.items()):
            requests = fp["loads"] + fp["stores"] + fp["atomics"] + fp["bypasses"]
            expected = profile.scaled(GRID_SCALE).total_accesses
            if requests != expected:
                problems.append(f"{pid}: {requests} requests, {expected} accesses issued")
                bad.add(pid)
            if not fp["cycles"] > 0:
                problems.append(f"{pid}: non-positive cycles")
                bad.add(pid)
            if spec.is_fully_shared and fp["replication_ratio"] != 0:
                problems.append(f"{pid}: replication under a fully shared design")
                bad.add(pid)
            instr.setdefault(profile.name, set()).add(fp["instructions"])
        for app, counts in instr.items():
            if len(counts) != 1:
                problems.append(f"{app}: instruction count differs across designs")
                bad.update(p for p in out.prints if p.startswith(app + "/"))
        if first is not None and first.digest() != out.digest():
            problems.append("fingerprints differ from the run's first pass")
            bad.update(out.prints)
        return len(out.prints), len(bad), problems

    def store_bytes(self) -> int:
        return 0

    def close(self) -> None:
        pass


class Figures:
    jobs = JOBS

    def __init__(self, warm: bool, workdir: Path):
        self.warm = warm
        self.name = "figures-warm" if warm else "figures-cold"
        self.cache_dir = workdir / "cache"
        self.config = SimConfig(scale=FIGURES_SCALE)
        self.reference = json.loads(self.reference_path(0).read_text())

    @staticmethod
    def reference_path(seed: int) -> Path:
        return REFERENCE_DIR / "figures.json"

    def _fresh_cache(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def setup(self) -> float:
        """Warm the fleet; for ``figures-warm`` also populate the disk
        cache.  Returns the populate time (0 for ``figures-cold``)."""
        get_fleet().acquire(self.jobs)
        if not self.warm:
            return 0.0
        self._fresh_cache()
        t0 = perf_counter()
        self.run_pass()
        return perf_counter() - t0

    def before_pass(self) -> None:
        if not self.warm:
            shutdown_fleet()
            self._fresh_cache()

    def run_pass(self) -> object:
        runner = Runner(self.config, jobs=self.jobs, cache=str(self.cache_dir))
        reports = {exp: registry.run_experiment(exp, runner) for exp in FIGURES}
        return runner, reports

    def collect(self, output) -> PassOutput:
        runner, reports = output
        prints: Dict[str, Dict[str, object]] = {}
        for key, fp in sorted(runner.result_fingerprints().items()):
            pid = f"{fp['app']}/{fp['design']}"
            prints[f"{pid}#{key[:12]}" if pid in prints else pid] = fp
        return PassOutput(
            prints, {exp: report.render() for exp, report in reports.items()})

    def check(self, out: PassOutput, first: Optional[PassOutput]) -> Tuple[int, int, List[str]]:
        return compare(out.digest(), self.reference)

    def store_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.cache_dir.rglob("*") if p.is_file())

    def close(self) -> None:
        shutdown_fleet()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def make(name: str, seed: int, workdir: Path):
    if name == "grid-serial":
        return GridSerial(seed)
    if name in ("figures-cold", "figures-warm"):
        return Figures(name == "figures-warm", workdir)
    raise ValueError(f"unknown workload {name!r}")

