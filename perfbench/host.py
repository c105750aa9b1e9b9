"""Host calibration and the host block stamped on every recorded result.

Shared hosts change speed by tens of percent over seconds, and the two
vCPUs of a small VM drift independently, so a calibration measured
before or after a pass (or on another CPU) does not track the speed the
pass ran at.  :class:`SpeedSampler` instead interleaves a tiny fixed
pure-Python loop with the pass itself, on a timer, on the same thread;
the mean of those samples is the speed the pass saw, and
:func:`calibrated` scales the pass time to a reference host.  The host
block is recorded for readers comparing numbers across machines; nothing
gates on it.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: Iterations of one calibration sample (about 3 ms on a 2020s x86 core).
CALIBRATION_OPS = 2_000
#: Seconds between samples while a pass runs (about 3% overhead).
SAMPLE_PERIOD_S = 0.1
#: Calibration speed of the reference host that calibrated times are
#: scaled to: a pass reported as 1 s runs the calibration loop 1e6 times.
REFERENCE_OPS_PER_S = 1e6


class _Cell:
    __slots__ = ("due", "count")

    def __init__(self, due: int) -> None:
        self.due = due
        self.count = 0


def calibration_sample() -> float:
    """Ops per CPU second of one run of a fixed loop shaped like the
    simulator's hot path: dict probes and inserts, slot-attribute
    updates and a bounded heap of timed events."""
    t0 = time.thread_time()
    table: Dict[int, _Cell] = {}
    heap: List[tuple] = []
    acc = 0
    for i in range(CALIBRATION_OPS):
        key = (i * 2654435761) & 0xFFF
        cell = table.get(key)
        if cell is None:
            table[key] = cell = _Cell(i)
        else:
            cell.count += 1
        heappush(heap, (cell.due + (key & 255), i))
        if len(heap) > 256:
            acc += heappop(heap)[1]
    return CALIBRATION_OPS / max(time.thread_time() - t0, 1e-9)


class SpeedSampler:
    """Takes a calibration sample every ``period_s`` seconds while a
    :meth:`window` is open (``SIGALRM`` on an interval timer).  The
    timer is not inherited by forked pool workers."""

    def __init__(self, period_s: float = SAMPLE_PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(calibration_sample())

    @contextmanager
    def window(self) -> Iterator[List[float]]:
        """Yield the list that receives this window's samples; it holds
        at least one sample once the block exits."""
        taken: List[float] = []
        self.samples = taken
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            if not taken:
                taken.append(calibration_sample())


def calibrated(wall_s: float, samples: List[float]) -> float:
    """``wall_s`` measured while ``samples`` were taken, in
    reference-host seconds."""
    return wall_s * statistics.mean(samples) / REFERENCE_OPS_PER_S


def commit_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_block(root: Path, calibration_ops_per_s: float) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit_sha(root),
        "calibration_ops_per_s": calibration_ops_per_s,
    }
