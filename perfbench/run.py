"""Grid benchmark for the DC-L1 simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-serial --seed 0 --seconds 20 --trace 0

Runs one workload (see ``perfbench/workloads.py`` and
``perfbench/README.md``) for at least ``--seconds`` seconds of passes,
checks every pass against the committed references, prints a readable
table and, as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  A full
record (host block, per-pass walls, spans) is written under
``.perfbench-out/``.  The benchmark exits non-zero without a result when
the simulator's sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Set-up is measured this many times per run; the median is reported.
SETUP_PROBES = 5
#: Calibration period inside a set-up probe: set-up lasts well under a
#: second, so it needs denser samples than a pass.
PROBE_SAMPLE_PERIOD_S = 0.02
#: Largest share of a traced grid-serial pass its layer self times may
#: leave unattributed.
RECONCILE_TOLERANCE = 0.02

END_TO_END_UNITS = {
    "wall_cal_s": "s",
    "sim_instr_per_cal_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "experiments.resolve_s": "s",
    "experiments.report_s": "s",
    "experiments.points": "count",
    "experiments.memo_hits": "count",
    "experiments.run_many_calls": "count",
    "validation.validate_s": "s",
    "validation.slim_audits": "count",
    "store.key_s": "s",
    "store.key_calls": "count",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.get_hits": "count",
    "store.readbacks": "count",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.bytes": "B",
    "fleet.acquire_s": "s",
    "fleet.cold_starts": "count",
    "fleet.warm_acquires": "count",
    "pool.wall_s": "s",
    "pool.busy_s": "s",
    "pool.efficiency": "ratio",
    "workloads.generate_s": "s",
    "workloads.accesses": "count",
    "system.wire_s": "s",
    "system.collect_s": "s",
    "engine.drain_s.fused": "s",
    "engine.drain_s.unfused": "s",
    "engine.events": "count",
    "engine.events_per_drain_s": "1/s",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
    "model.cycles": "cycles",
    "model.instructions": "count",
    "model.ipc_speedup_geomean": "ratio",
    "model.l1_miss_rate": "ratio",
    "model.replication_ratio": "ratio",
    "model.noc_flit_hops": "count",
    "model.dram_accesses": "count",
}


def bootstrap() -> None:
    """Import the simulator from this checkout's ``src`` only, with every
    ``REPRO_*`` knob cleared so runs do not depend on the caller's
    environment."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {src}")
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def setup_probe(workload: str, seed: int, t0: float) -> int:
    """Child side of one set-up measurement: import, build the
    workload's inputs, warm the fleet; print the seconds since ``t0``
    (the parent's monotonic clock just before it started this process),
    raw and calibrated."""
    sys.path.insert(0, str(ROOT))
    from perfbench import host

    with host.SpeedSampler(PROBE_SAMPLE_PERIOD_S).window() as samples:
        bootstrap()
        from perfbench import workloads
        from repro.sim.fleet import get_fleet, shutdown_fleet

        wl = workloads.make(workload, seed, OUT_DIR)
        if wl.jobs > 1:
            get_fleet().acquire(wl.jobs)
        raw = time.monotonic() - t0
    print(raw, host.calibrated(raw, samples))
    shutdown_fleet()
    return 0


def measure_setup(workload: str, seed: int) -> List[float]:
    """``[raw, calibrated]`` seconds from process start to a ready
    workload, one sample."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe", repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return [float(x) for x in proc.stdout.split()[-2:]]


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def n_traced(passes: List[Dict[str, object]]) -> int:
    return sum(1 for p in passes if p["traced"])


def run(args: argparse.Namespace) -> int:
    bootstrap()
    setups = [measure_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    from perfbench import host, tracing, workloads

    workdir = OUT_DIR / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, workdir)
    tracer = tracing.Tracer()
    passes: List[Dict[str, object]] = []
    rates, problems = [], []
    attempted = failed = 0
    first = out = None
    try:
        sampler = host.SpeedSampler()
        with sampler.window() as samples:
            populate_raw = wl.setup()
        populate_s = host.calibrated(populate_raw, samples)
        speeds: List[float] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and 2 * n_traced(passes) < len(passes)
            wl.before_pass()
            gc.collect()
            if traced:
                with sampler.window() as samples:
                    with tracer.installed(), tracer.span("pass") as span:
                        output = wl.run_pass()
                raw = span.dur
            else:
                with sampler.window() as samples:
                    t0 = time.perf_counter()
                    output = wl.run_pass()
                    raw = time.perf_counter() - t0
            speeds.extend(samples)
            cal = host.calibrated(raw, samples)
            passes.append({
                "traced": traced, "wall_s": raw, "wall_cal_s": cal,
                "calibration_ops_per_s": statistics.mean(samples),
            })
            out = wl.collect(output)
            n, bad, why = wl.check(out, first)
            attempted += n
            failed += bad
            problems.extend(why)
            if not traced:
                rates.append((out.instructions / raw, out.instructions / cal))
            first = first or out
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(passes) > 1):
                break
        store_bytes = wl.store_bytes()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    def median_of(traced: bool, key: str) -> float:
        return statistics.median(p[key] for p in passes if p["traced"] == traced)

    raw_metrics = {
        "wall_s": median_of(False, "wall_s"),
        "sim_instr_per_s": statistics.median(r for r, _ in rates),
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, n_traced(passes))
        metrics["trace.overhead"] = (
            median_of(True, "wall_cal_s") / median_of(False, "wall_cal_s"))
        metrics["store.bytes"] = store_bytes
        metrics.update(workloads.model_counters(list(out.prints.values())))
        units = PER_LAYER_UNITS
        if wl.name == "grid-serial":
            share = metrics["trace.unattributed_s"] / median_of(True, "wall_s")
            if share > RECONCILE_TOLERANCE:
                problems.append(
                    f"layer self times leave {share:.1%} of the pass "
                    f"unattributed (tolerance {RECONCILE_TOLERANCE:.0%})")
    else:
        metrics = {
            "wall_cal_s": median_of(False, "wall_cal_s"),
            "sim_instr_per_cal_s": statistics.median(c for _, c in rates),
            "setup_s": statistics.median(cal for _, cal in setups) + populate_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    correct = failed == 0 and not problems
    host_info = host.host_block(ROOT, statistics.median(speeds))

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es), {n_traced(passes)} traced")
    print("host: " + json.dumps(host_info, sort_keys=True))
    table = {**units, "wall_s": "s", "sim_instr_per_s": "1/s"}
    for name, unit in table.items():
        value = metrics.get(name, raw_metrics.get(name))
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"  {'fail_rate':<28} {failed / attempted:>16.6g} ratio"
          f"  ({failed} of {attempted} checks failed)")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "host": host_info, "metrics": {**raw_metrics, **metrics},
        "setup_probes_s": setups, "populate_s": [populate_raw, populate_s],
        "passes": passes,
        "problems": problems, "spans": tracer.to_json(),
    }
    path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-serial", "figures-cold", "figures-warm"))
    parser.add_argument("--seed", type=int, default=0,
                        help="trace variant for grid-serial (ignored by figures-*)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe is not None:
        return setup_probe(args.workload, args.seed, args.setup_probe)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
