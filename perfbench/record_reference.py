"""Record the benchmark's committed correctness references.

Usage (from the repository root)::

    python3 perfbench/record_reference.py grid-serial --seed 0
    python3 perfbench/record_reference.py figures

Runs one pass of the workload and writes, under ``perfbench/reference/``,
the SHA-256 of every distinct point's ``SimResult.fingerprint()`` (and,
for the figures workloads, of every rendered report) plus the model
counters for readers.  Re-record only when a change is meant to alter
simulated results; a perf-only change must leave these files untouched.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import ROOT, bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("grid-serial", "figures"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    bootstrap()
    from perfbench import workloads

    workdir = ROOT / ".perfbench-out" / "record"
    name = "figures-cold" if args.workload == "figures" else "grid-serial"
    wl = workloads.make(name, args.seed, workdir)
    try:
        wl.before_pass()
        out = wl.collect(wl.run_pass())
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed if args.workload == "grid-serial" else None,
        "model": workloads.model_counters(list(out.prints.values())),
        **out.digest(),
    }
    path = wl.reference_path(args.seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}: {len(doc['points'])} points, "
          f"{len(doc['reports'])} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
