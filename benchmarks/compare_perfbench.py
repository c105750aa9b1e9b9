"""Paired grid perf gate: a change against its parent, on one host.

Usage (from the repository root)::

    python benchmarks/compare_perfbench.py PARENT_TREE CHANGE_TREE \
        [--workload grid-serial --workload figures-cold] [--pairs 5] \
        [--record runs.json]

``PARENT_TREE`` and ``CHANGE_TREE`` are two checkouts, each with its own
``perfbench/`` and ``src/``.  For every workload the gate runs
``python3 perfbench/run.py --workload W --seconds S --trace 0`` in both
trees, ``--pairs`` times, alternating which side goes first so host
drift cancels; ``S`` is the ``run_seconds`` of the parent's
``BENCHMARK.json``.  It reads the JSON result line of every run and takes,
per gated metric, the median over pairs of the change/parent ratio.

Only ``wall_cal_s`` and ``sim_instr_per_cal_s`` are gated, each against
its ``bound`` in the parent's ``BENCHMARK.json`` (read, never written),
so a change cannot pass by loosening its own bounds: a metric whose
median ratio is worse than the parent's by more than the bound is a
regression.  ``setup_s`` and ``peak_rss_mb`` are printed alongside.

On a regression the gate runs one ``--trace 1`` pass per side of each
regressed workload and prints the per-layer metrics that moved most,
naming the layer that regressed.

Exit codes:

* 0 — every gated metric within its bound on every workload;
* 1 — regression: a gated median ratio outside its bound, any run
  reporting a failed reference or hash check (a hard failure, however
  fast the run was), or a change run that exits non-zero without a
  result line.  Once a regression is found, a traced pass or a later
  workload that fails is reported with it and the exit stays 1;
* 2 — nothing compared or bad input: the parent's ``BENCHMARK.json``
  unreadable, a tree without ``perfbench/run.py``, a parent run (or a
  change run exiting 0) without a JSON result line, a gated metric
  missing or not positive, or no pairs at all.

``--record`` is written whatever the exit, with every pair that
completed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

GATED = ("wall_cal_s", "sim_instr_per_cal_s")
REPORTED = GATED + ("setup_s", "peak_rss_mb")
DEFAULT_WORKLOADS = ("grid-serial", "figures-cold")
#: Per-layer metrics printed when a regression is traced.
TOP_LAYERS = 5


class BadInput(Exception):
    """Nothing can be compared (exit 2)."""


class NoResult(BadInput):
    """A run printed no JSON result line."""

    def __init__(self, message: str, tree: Path, returncode: int) -> None:
        super().__init__(message)
        self.tree = tree
        self.returncode = returncode


def load_bench(path: Path) -> dict:
    """``BENCHMARK.json``: ``{"run_seconds", "metrics": {name: (better,
    bound or None)}}`` over its end-to-end and per-layer metrics."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        metrics = {m["name"]: (m["better"], m.get("bound"))
                   for m in doc["end_to_end"] + doc["per_layer"]}
        bench = {"run_seconds": float(doc["run_seconds"]), "metrics": metrics}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BadInput(f"cannot read {path}: {exc}") from exc
    missing = [m for m in GATED if metrics.get(m, (None, None))[1] is None]
    if missing:
        raise BadInput(f"{path} has no bound for {', '.join(missing)}")
    return bench


def run_bench(tree: Path, workload: str, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its JSON result line."""
    script = tree / "perfbench" / "run.py"
    if not script.is_file():
        raise BadInput(f"{tree} has no perfbench/run.py")
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise NoResult(
            f"{workload} in {tree} exited {proc.returncode} without a "
            f"result line:\n{proc.stderr[-2000:]}", tree, proc.returncode)
    return result


def value(result: dict, metric: str) -> float:
    entry = result["metrics"].get(metric)
    v = entry.get("value") if isinstance(entry, dict) else None
    if not isinstance(v, (int, float)) or v <= 0:
        raise BadInput(f"metric {metric} is {v!r}; no ratio can be formed")
    return float(v)


def worsening(better: str, ratio: float) -> float:
    """How much worse than the parent a change/parent ratio is, as a
    fraction of the parent (negative when the change is better)."""
    return ratio - 1.0 if better == "lower" else 1.0 - ratio


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(bench: dict, workload: str,
            pairs: List[Tuple[dict, dict]]) -> Tuple[bool, List[str]]:
    """Gate one workload's pairs; returns (regressed, report lines)."""
    lines = [f"{workload}: {len(pairs)} pair(s)"]
    regressed = False
    for side, index in (("parent", 0), ("change", 1)):
        for result in (pair[index] for pair in pairs):
            if not result.get("correct") or result.get("failed"):
                regressed = True
                lines.append(f"  [FAIL] a {side} run failed "
                             f"{result.get('failed')} of "
                             f"{result.get('attempted')} reference checks")
    for metric in REPORTED:
        parent = [value(p, metric) for p, _ in pairs]
        change = [value(c, metric) for _, c in pairs]
        better, bound = bench["metrics"].get(metric, ("lower", None))
        ratio = statistics.median(c / p for p, c in zip(parent, change))
        worse = worsening(better, ratio)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        if metric not in GATED:
            mark = "info"
        elif worse > bound:
            mark, regressed = "FAIL", True
        else:
            mark = "ok"
        lines.append(
            f"  [{mark}] {metric}: parent {pm:.4g} [{p1:.4g}, {p3:.4g}], "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}], median ratio "
            f"{ratio:.3f} ({better} is better"
            + (f", bound {bound:.0%})" if metric in GATED else ")"))
    return regressed, lines


def moved_layers(bench: dict, parent: dict, change: dict) -> List[str]:
    """Per-layer metrics of one traced run per side, most worsened first."""
    moves = []
    for name, entry in parent["metrics"].items():
        better = bench["metrics"].get(name, (None, None))[0]
        other = change["metrics"].get(name)
        if better is None or not other or not entry.get("value"):
            continue
        ratio = other["value"] / entry["value"]
        moves.append((worsening(better, ratio), name, entry["value"],
                      other["value"], entry.get("unit", "")))
    moves.sort(reverse=True)
    return [f"  {name}: {p:.4g} -> {c:.4g} {unit} ({w:+.1%} worse)"
            for w, name, p, c, unit in moves[:TOP_LAYERS]]


def run_pairs(parent: Path, change: Path, workload: str, seconds: float,
              n: int, record: List[dict]) -> List[Tuple[dict, dict]]:
    """``n`` alternating untraced pairs, each appended to ``record``."""
    pairs = []
    for i in range(n):
        if i % 2 == 0:
            p = run_bench(parent, workload, seconds, 0)
            c = run_bench(change, workload, seconds, 0)
        else:
            c = run_bench(change, workload, seconds, 0)
            p = run_bench(parent, workload, seconds, 0)
        pairs.append((p, c))
        record.append({"first": "parent" if i % 2 == 0 else "change",
                       "parent": p, "change": c})
    return pairs


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path,
                    help="checkout of the parent commit (its BENCHMARK.json "
                         "holds the bounds)")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="perfbench workload (repeatable; default: "
                         + ", ".join(DEFAULT_WORKLOADS) + ")")
    ap.add_argument("--pairs", type=int, default=5,
                    help="alternating parent/change pairs per workload")
    ap.add_argument("--record", type=Path, default=None,
                    help="write every run's result here as JSON")
    args = ap.parse_args(argv)
    workloads = args.workloads or list(DEFAULT_WORKLOADS)
    record: Dict[str, List[dict]] = {}
    regressed: List[str] = []
    try:
        bench = load_bench(args.parent / "BENCHMARK.json")
        if args.pairs < 1:
            raise BadInput("--pairs must be at least 1: nothing to compare")
        for workload in workloads:
            try:
                pairs = run_pairs(args.parent, args.change, workload,
                                  bench["run_seconds"], args.pairs,
                                  record.setdefault(workload, []))
            except NoResult as exc:
                if exc.tree != args.change or exc.returncode == 0:
                    raise
                print(f"{workload}: [FAIL] {exc}", flush=True)
                regressed.append(workload)
                continue
            bad, lines = compare(bench, workload, pairs)
            print("\n".join(lines), flush=True)
            if bad:
                regressed.append(workload)
        for workload in regressed:
            print(f"{workload}: traced pass per side, per-layer metrics "
                  "that moved most:")
            try:
                parent = run_bench(args.parent, workload, 0.0, 1)
                change = run_bench(args.change, workload, 0.0, 1)
            except BadInput as exc:
                print(f"  traced pass failed: {exc}")
                continue
            print("\n".join(moved_layers(bench, parent, change)))
    except BadInput as exc:
        print(f"compare_perfbench: {exc}", file=sys.stderr)
        if not regressed:
            return 2
    finally:
        if args.record is not None:
            args.record.write_text(json.dumps(record, indent=1) + "\n")
    print(f"paired perf gate: {'REGRESSION in ' + ', '.join(regressed) if regressed else 'ok'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
