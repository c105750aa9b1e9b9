"""Outside-in tracing of one benchmark pass.

The traced run wraps the simulator's public functions *where their
callers look them up* and records one span per call: name, start, end,
parent span and point id (``app/design`` or an experiment id).  Nothing inside the program changes; wrappers are installed
for the traced passes only and restored afterwards, and spans stay in
memory until the run writes them out.

Layer self time is a span's duration minus the durations of its direct
children.  ``engine.drain`` is the one span not timed here: it is
synthesised inside each ``system.run`` span from the simulator's own
``SimResult.wall_time_s`` (the drain is a single call with no public
seam around it).  Pool workers run in other processes, so work they do
(trace generation, wiring, drain) is invisible to these spans; it shows
up only through ``pool.busy_s``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from repro.experiments import base, registry
from repro.experiments.base import Runner
from repro.sim import store, system
from repro.sim.fleet import WorkerFleet
from repro.sim.store import DiskResultCache
from repro.sim.system import GPUSystem

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    point: Optional[str]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self, sid: int) -> Dict[str, object]:
        return {
            "id": sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "point": self.point, **self.attrs,
        }


def _point(profile, spec) -> str:
    return f"{profile.name}/{spec.label or spec}"


class Tracer:
    """In-memory span recorder plus the table of wrapped public calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._last_get: Optional[int] = None

    # -- recording --------------------------------------------------------

    def open(self, name: str, point: Optional[str] = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, point))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> Span:
        span = self.spans[sid]
        span.end = perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str, point: Optional[str] = None) -> Iterator[Span]:
        sid = self.open(name, point)
        try:
            yield self.spans[sid]
        finally:
            self.close(sid)

    def _timed(
        self,
        name: str,
        fn: Callable,
        point: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name, point(*args) if point else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = tracer.close(sid)
            if after is not None:
                after(sid, span, args, out)
            return out

        return wrapper

    # -- the wrapped calls ------------------------------------------------

    def _wrappers(self) -> List[tuple]:
        """``(owner, attribute, wrapper)`` for every traced call."""
        t = self

        def after_get(sid, span, args, out):
            span.attrs["key"] = args[1]
            span.attrs["hit"] = out is not None
            t._last_get = sid

        def after_audit(sid, span, args, out):
            # The slim-transport read-back is the get right before its
            # audit, for the same key: a rehydration, not a cache hit.
            last = t._last_get
            if last is not None and t.spans[last].attrs.get("key") == args[1]:
                t.spans[last].attrs["readback"] = True

        def after_generate(sid, span, args, out):
            span.attrs["accesses"] = out.total_accesses

        def run_many(runner, *args, **kwargs):
            paths = dict(runner.sweep_paths)
            sims, busy = runner.sims_run, runner.sim_wall_s
            sid = t.open("experiments.run_many")
            try:
                out = orig_run_many(runner, *args, **kwargs)
            finally:
                span = t.close(sid)
            span.attrs.update(
                points=len(out),
                misses=runner.sims_run - sims,
                busy_s=runner.sim_wall_s - busy,
                disk=runner.disk_cache is not None,
                parallel=any(
                    n > paths.get(k, 0)
                    for k, n in runner.sweep_paths.items()
                    if k.startswith("parallel")
                ),
                jobs=runner.jobs,
            )
            return out

        def acquire(fleet, *args, **kwargs):
            cold = fleet.cold_starts
            sid = t.open("fleet.acquire")
            try:
                return orig_acquire(fleet, *args, **kwargs)
            finally:
                t.close(sid).attrs["cold"] = fleet.cold_starts > cold

        def run(sim):
            sid = t.open("system.run", _point(sim.workload, sim.spec))
            try:
                out = orig_run(sim)
            finally:
                span = t.close(sid)
            drain = Span(
                "engine.drain", span.end - out.wall_time_s, span.end, sid,
                span.point,
                {
                    "events": sim.engine.events_processed,
                    "fused": sim.spec.is_fully_shared,
                },
            )
            t.spans.append(drain)
            return out

        orig_run_many = Runner.run_many
        orig_acquire = WorkerFleet.acquire
        orig_run = GPUSystem.run
        key_point = lambda profile, spec, *_: _point(profile, spec)  # noqa: E731
        return [
            (registry, "run_experiment", self._timed(
                "experiments.run_experiment", registry.run_experiment,
                point=lambda exp_id, *_: exp_id)),
            (Runner, "resolve_points", self._timed(
                "experiments.resolve_points", Runner.resolve_points)),
            (Runner, "run_many", functools.wraps(orig_run_many)(run_many)),
            (base, "validate_grid", self._timed(
                "validation.validate_grid", base.validate_grid)),
            (base, "audit_slim_transport", self._timed(
                "validation.audit_slim_transport", base.audit_slim_transport,
                after=after_audit)),
            # Runner looks the key function up in its own module;
            # validate_grid imports it from repro.sim.store at call time.
            (base, "sim_cache_key", self._timed(
                "store.sim_cache_key", base.sim_cache_key, point=key_point)),
            (store, "sim_cache_key", self._timed(
                "store.sim_cache_key", store.sim_cache_key, point=key_point)),
            (DiskResultCache, "get", self._timed(
                "store.get", DiskResultCache.get, after=after_get)),
            (DiskResultCache, "put", self._timed(
                "store.put", DiskResultCache.put)),
            (WorkerFleet, "acquire", functools.wraps(orig_acquire)(acquire)),
            (system, "generate_workload", self._timed(
                "workloads.generate_workload", system.generate_workload,
                after=after_generate)),
            (GPUSystem, "__init__", self._timed(
                "system.init", GPUSystem.__init__,
                point=lambda sim, workload, spec, *_: _point(workload, spec))),
            (GPUSystem, "run", functools.wraps(orig_run)(run)),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced call for the duration of the block."""
        patches = self._wrappers()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self) -> List[Dict[str, object]]:
        return [s.to_json(i) for i, s in enumerate(self.spans)]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, covered)]


def layer_metrics(spans: List[Span], passes: int) -> Dict[str, float]:
    """Per-layer metrics, averaged per traced pass."""
    selfs = self_times(spans)
    dur: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for s, st in zip(spans, selfs):
        dur[s.name] += s.dur
        own[s.name] += st
        calls[s.name] += 1

    gets = [s for s in spans if s.name == "store.get"]
    readbacks = sum(1 for s in gets if s.attrs.get("readback"))
    lookups: Dict[int, int] = defaultdict(int)
    for s in gets:
        if not s.attrs.get("readback") and s.parent is not None:
            lookups[s.parent] += 1
    memo_hits = points = 0
    pool_wall = busy = pool_slots = 0.0
    for sid, s in enumerate(spans):
        if s.name != "experiments.run_many":
            continue
        points += s.attrs["points"]
        # Every point a run_many call resolves is served by memory, by a
        # disk lookup, or (without a disk cache) by simulating it.
        misses = lookups[sid] if s.attrs["disk"] else s.attrs["misses"]
        memo_hits += s.attrs["points"] - misses
        if s.attrs["parallel"]:
            pool_wall += s.dur
            pool_slots += s.attrs["jobs"] * s.dur
            busy += s.attrs["busy_s"]
    drains = [s for s in spans if s.name == "engine.drain"]
    fused = sum(s.dur for s in drains if s.attrs["fused"])
    unfused = sum(s.dur for s in drains if not s.attrs["fused"])
    events = sum(s.attrs["events"] for s in drains)
    acquires = [s for s in spans if s.name == "fleet.acquire"]

    per_pass = {
        "experiments.resolve_s": own["experiments.resolve_points"],
        "experiments.report_s": own["experiments.run_experiment"],
        "experiments.points": points,
        "experiments.memo_hits": memo_hits,
        "experiments.run_many_calls": calls["experiments.run_many"],
        "validation.validate_s": own["validation.validate_grid"],
        "validation.slim_audits": calls["validation.audit_slim_transport"],
        "store.key_s": dur["store.sim_cache_key"],
        "store.key_calls": calls["store.sim_cache_key"],
        "store.get_s": dur["store.get"],
        "store.get_calls": len(gets),
        "store.get_hits": sum(1 for s in gets if s.attrs["hit"]),
        "store.readbacks": readbacks,
        "store.put_s": dur["store.put"],
        "store.put_calls": calls["store.put"],
        "fleet.acquire_s": dur["fleet.acquire"],
        "fleet.cold_starts": sum(1 for s in acquires if s.attrs["cold"]),
        "fleet.warm_acquires": sum(1 for s in acquires if not s.attrs["cold"]),
        "pool.wall_s": pool_wall,
        "pool.busy_s": busy,
        "workloads.generate_s": dur["workloads.generate_workload"],
        "workloads.accesses": sum(
            s.attrs["accesses"] for s in spans
            if s.name == "workloads.generate_workload"),
        "system.wire_s": own["system.init"],
        "system.collect_s": own["system.run"],
        "engine.drain_s.fused": fused,
        "engine.drain_s.unfused": unfused,
        "engine.events": events,
        "trace.unattributed_s": own["pass"],
    }
    metrics = {k: v / passes for k, v in per_pass.items()}
    metrics["pool.efficiency"] = busy / pool_slots if pool_slots else 0.0
    metrics["engine.events_per_drain_s"] = (
        events / (fused + unfused) if fused + unfused else 0.0
    )
    return metrics
