"""Shared experiment infrastructure.

:class:`Runner` is a memoizing front-end to :func:`repro.sim.system.simulate`
with three result layers:

1. an in-process dict keyed by the frozen (profile, spec, config) triple,
2. an optional persistent on-disk cache
   (:class:`repro.sim.store.DiskResultCache`), shared across processes and
   sessions, content-addressed by :func:`repro.sim.store.sim_cache_key`,
3. the simulator itself.

Experiments request ``runner.run(app_name, spec, ...)`` one point at a
time, or pre-submit a whole (application x design) grid with
:meth:`Runner.run_many`, which fans cache misses out over a process pool
(``jobs``/``REPRO_JOBS``) and returns results in submission order.  The
pool is acquired from the persistent
:class:`~repro.sim.fleet.WorkerFleet` (warm across calls and experiment
modules), misses are dispatched largest-estimated-work-first with an
adaptive chunksize, and — when a disk cache is active — workers persist
their own results and ship only slim ``(key, fingerprint, counters)``
payloads back.  All paths are bit-deterministic: a parallel,
fleet-warm, slim-transported or cache-served result has the same
:meth:`~repro.sim.results.SimResult.fingerprint` as a serial cold run.

The workload scale can be set globally via the ``REPRO_SCALE`` environment
variable (1.0 = the calibrated benchmark scale; tests use much smaller
scales and only assert coarse invariants).

:class:`ExperimentReport` is the uniform result: named rows, a summary of
headline numbers, the paper's reported values, and a text rendering.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_dict_table
from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.fleet import (
    SLIM_TAG,
    _fleet_run,
    adaptive_chunksize,
    get_fleet,
    order_by_estimated_work,
)
from repro.sim.results import SimResult
from repro.sim.store import (
    DiskResultCache,
    KeyMemo,
    cache_from_env,
    sim_cache_key,
)
from repro.sim.system import simulate
from repro.sim.validation import audit_slim_transport, validate_grid
from repro.workloads.profile import AppProfile
from repro.workloads.suite import get_app

#: The paper's four proposed designs (Section VIII) in presentation order.
PROPOSED_DESIGNS: Sequence[DesignSpec] = (
    DesignSpec.private(40),
    DesignSpec.shared(40),
    DesignSpec.clustered(40, 10),
    DesignSpec.clustered(40, 10, boost=2.0),
)

BASELINE = DesignSpec.baseline()

#: One sweep point for :meth:`Runner.run_many`: ``(app, spec)`` or
#: ``(app, spec, run_kwargs)`` where ``run_kwargs`` are the keyword
#: arguments :meth:`Runner.run` accepts (scheduler, overrides, ...).
SweepPoint = Union[
    Tuple[object, DesignSpec],
    Tuple[object, DesignSpec, dict],
]


def env_scale(default: float = 1.0) -> float:
    """Workload scale from ``REPRO_SCALE`` (default: calibrated 1.0).

    A malformed value (e.g. ``REPRO_SCALE=0.2.5``) falls back to
    ``default`` *with a warning* — silently simulating at the wrong scale
    costs hours at the calibrated scale.
    """
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_SCALE={raw!r} (not a float); "
            f"using scale {default:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default


def env_jobs(default: int = 1) -> int:
    """Parallel sweep width from ``REPRO_JOBS`` (default: serial).

    Malformed values warn and fall back, mirroring :func:`env_scale`;
    values below 1 are clamped to 1.
    """
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return default
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed REPRO_JOBS={raw!r} (not an int); "
            f"using {default} job(s)",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return max(1, jobs)


def _fmt_value(v: object) -> str:
    """``{:.3f}`` when the value supports it, ``str`` otherwise."""
    try:
        return f"{v:.3f}"
    except (TypeError, ValueError):
        return str(v)


@dataclass
class ExperimentReport:
    """Uniform output of one experiment."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)
    paper: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable table plus headline comparison.

        Summary/paper entries are usually floats but occasionally labels
        (e.g. an application name); formatting degrades to ``str`` for
        anything ``{:.3f}`` rejects instead of crashing the report.
        """
        parts = [format_dict_table(self.rows, self.columns,
                                   title=f"[{self.experiment}] {self.title}")]
        if self.summary:
            parts.append("measured: " + ", ".join(
                f"{k}={_fmt_value(v)}" for k, v in self.summary.items()))
        if self.paper:
            parts.append("paper:    " + ", ".join(
                f"{k}={_fmt_value(v)}" for k, v in self.paper.items()))
        return "\n".join(parts)


class Runner:
    """Memoizing simulation runner shared across experiments.

    Parameters
    ----------
    config:
        Base :class:`SimConfig`; defaults to ``SimConfig(scale=env_scale())``.
    jobs:
        Process-pool width for :meth:`run_many` misses.  ``None`` reads
        ``REPRO_JOBS`` (default 1 = serial in-process).
    cache:
        Persistent result cache: a :class:`DiskResultCache`, a directory
        path, ``None`` to consult ``REPRO_CACHE_DIR`` (off when unset),
        or ``False`` to disable the disk layer regardless of environment.
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        jobs: Optional[int] = None,
        cache: Union[DiskResultCache, str, None, bool] = None,
    ):
        self.config = config or SimConfig(scale=env_scale())
        self.jobs = env_jobs() if jobs is None else max(1, int(jobs))
        if cache is None:
            self.disk_cache: Optional[DiskResultCache] = cache_from_env()
        elif cache is False:
            self.disk_cache = None
        elif isinstance(cache, DiskResultCache):
            self.disk_cache = cache
        else:
            self.disk_cache = DiskResultCache(cache)
        self._cache: Dict[tuple, SimResult] = {}
        # Cache-key fragments of every component object this runner has
        # keyed (see sim_cache_key's ``memo``): one canonicalization per
        # distinct profile/spec/config object for the runner's lifetime.
        self._key_memo: KeyMemo = {}
        self.sims_run = 0
        # Disk-layer accounting: points the disk cache served to a lookup
        # (``disk_hits``) and slim-transport read-backs of results a
        # worker just computed and persisted (``rehydrations``).  A
        # read-back is a transport step of a fresh simulation, not a hit.
        self.disk_hits = 0
        self.rehydrations = 0
        # Slim-transport points whose audit failed and were re-simulated
        # in-process (each is also a sims_run; see _receive_transport).
        self.resim_fallbacks = 0
        # Aggregate simulator observability (fresh runs only — cache hits
        # cost no simulator time): total wall seconds spent inside
        # GPUSystem.run and total events drained there.  Parallel sweeps
        # accumulate the per-process wall times, so the aggregate events/s
        # reflects per-sim throughput, not sweep elapsed time.
        self.sim_wall_s = 0.0
        self.sim_events = 0
        # Which execution path each run_many miss batch took
        # ("parallel[fleet:fork]", "serial[below-min-points]", ...) ->
        # count.  Surfaced by throughput_summary() so the small-grid
        # serial fallback is observable, not silent.
        self.sweep_paths: Dict[str, int] = {}
        # Fleet reuse observed by *this* runner's run_many calls: deltas
        # of the process-wide WorkerFleet counters (cold_starts,
        # warm_acquires, spinup_wall_s) across each acquire.  Surfaced by
        # throughput_summary() so pool amortization is visible from
        # `repro figures` stderr.
        self.fleet_stats: Dict[str, float] = {}

    # -- configuration resolution -----------------------------------------

    def _resolve(
        self,
        app,
        scheduler: Optional[str] = None,
        l1_latency_override: Optional[float] = None,
        gpu: Optional[GPUConfig] = None,
        scale: Optional[float] = None,
        overrides: Optional[dict] = None,
    ) -> Tuple[AppProfile, SimConfig]:
        """Resolve one request to its frozen (profile, config) pair."""
        profile = get_app(app) if isinstance(app, str) else app
        cfg = self.config
        changes = dict(overrides) if overrides else {}
        if scheduler is not None:
            changes["cta_scheduler"] = scheduler
        if l1_latency_override is not None:
            changes["l1_latency_override"] = l1_latency_override
        if gpu is not None:
            changes["gpu"] = gpu
        if scale is not None:
            changes["scale"] = scale
        if changes:
            cfg = dataclasses.replace(cfg, **changes)
        return profile, cfg

    # -- the three result layers -------------------------------------------

    def _key(self, point: tuple) -> str:
        return sim_cache_key(*point, memo=self._key_memo)

    def _disk_put(self, point: tuple, result: SimResult) -> None:
        if self.disk_cache is not None:
            self.disk_cache.put(self._key(point), result)

    def _lookup(
        self, point: tuple, key: Optional[str] = None
    ) -> Optional[SimResult]:
        """Memory layer, then disk layer (promoting disk hits to memory).

        ``key`` is the point's cache key when the caller already has it
        (``run_many`` gets one per point from ``validate_grid``); it is
        derived only if the disk layer is actually consulted."""
        result = self._cache.get(point)
        if result is None and self.disk_cache is not None:
            result = self.disk_cache.get(
                key if key is not None else self._key(point)
            )
            if result is not None:
                self.disk_hits += 1
                self._cache[point] = result
        return result

    def _store_miss(
        self, point: tuple, result: SimResult, persist: bool = True
    ) -> None:
        self._cache[point] = result
        self.sims_run += 1
        self.sim_wall_s += result.wall_time_s
        self.sim_events += int(round(result.wall_time_s * result.events_per_s))
        if persist:
            # Slim-transported results were already persisted by the
            # worker (persist=False skips the redundant disk write).
            self._disk_put(point, result)

    # -- public API ---------------------------------------------------------

    def run(
        self,
        app,
        spec: DesignSpec,
        scheduler: Optional[str] = None,
        l1_latency_override: Optional[float] = None,
        gpu: Optional[GPUConfig] = None,
        scale: Optional[float] = None,
        overrides: Optional[dict] = None,
    ) -> SimResult:
        """Simulate (from the memory or disk cache when possible).

        ``overrides`` maps additional :class:`SimConfig` field names to
        values (used by the ablation studies).
        """
        profile, cfg = self._resolve(
            app, scheduler=scheduler, l1_latency_override=l1_latency_override,
            gpu=gpu, scale=scale, overrides=overrides,
        )
        point = (profile, spec, cfg)
        result = self._lookup(point)
        if result is None:
            result = simulate(*point)
            self._store_miss(point, result)
        return result

    def resolve_points(
        self, points: Iterable[SweepPoint]
    ) -> List[Tuple[AppProfile, DesignSpec, SimConfig]]:
        """Resolve sweep points to frozen (profile, spec, config) triples.

        Each point is ``(app, spec)`` or ``(app, spec, run_kwargs)``.
        This is the exact pool-boundary payload :meth:`run_many` submits;
        the CLI and the SimShard confirmer resolve through here so their
        :func:`~repro.sim.validation.validate_grid` pre-flight sees the
        same triples the pool would.
        """
        resolved: List[Tuple[AppProfile, DesignSpec, SimConfig]] = []
        for item in points:
            if len(item) == 2:
                app, spec = item  # type: ignore[misc]
                kwargs: dict = {}
            elif len(item) == 3:
                app, spec, kwargs = item  # type: ignore[misc]
            else:
                raise ValueError(
                    f"sweep point must be (app, spec[, kwargs]); got {item!r}"
                )
            profile, cfg = self._resolve(app, **kwargs)
            resolved.append((profile, spec, cfg))
        return resolved

    def run_many(
        self,
        points: Iterable[SweepPoint],
        jobs: Optional[int] = None,
        mp_context: Union[str, multiprocessing.context.BaseContext, None] = None,
        par_min_points: int = 4,
    ) -> List[SimResult]:
        """Run a whole sweep grid; results in submission order.

        Each point is ``(app, spec)`` or ``(app, spec, run_kwargs)``.
        The resolved grid is pre-flighted through
        :func:`~repro.sim.validation.validate_grid` before anything is
        submitted (duplicate points are allowed here — they collapse to
        one simulation).  Points not served by a cache layer fan out
        over a process pool when the effective ``jobs`` exceeds 1 *and*
        the miss count reaches ``par_min_points`` (pool startup dominates
        on smaller grids, so those run serially; :attr:`sweep_paths`
        records which path ran).  The pool is acquired from the persistent
        :class:`~repro.sim.fleet.WorkerFleet`, misses are dispatched
        largest-estimated-work-first with an adaptive chunksize, and
        with a disk cache active the workers use slim result transport
        (see :mod:`repro.sim.fleet`).  ``mp_context`` selects the pool start
        method (``"fork"``/``"spawn"`` name or a multiprocessing
        context; default: the platform default).  Ordering, fingerprints
        and ``sims_run`` accounting are identical across every path,
        because each simulation is a pure function of its frozen inputs.
        """
        resolved = self.resolve_points(points)
        keys = validate_grid(
            resolved, on_duplicate="collapse", memo=self._key_memo
        )

        results: List[Optional[SimResult]] = [None] * len(resolved)
        pending: Dict[tuple, List[int]] = {}
        key_of: Dict[tuple, str] = {}
        for i, (point, key) in enumerate(zip(resolved, keys)):
            key_of.setdefault(point, key)
            hit = self._lookup(point, key)
            if hit is not None:
                results[i] = hit
            else:
                pending.setdefault(point, []).append(i)

        misses = list(pending)
        if misses:
            width = self.jobs if jobs is None else max(1, int(jobs))
            if width > 1 and len(misses) >= max(2, par_min_points):
                path, fresh = self._pool_misses(
                    misses, width, mp_context, key_of
                )
            else:
                path = (
                    "serial[below-min-points]"
                    if width > 1 and len(misses) > 1
                    else "serial"
                )
                fresh = [(p, simulate(*p), True) for p in misses]
            self.sweep_paths[path] = self.sweep_paths.get(path, 0) + 1
            for point, result, persist in fresh:
                self._store_miss(point, result, persist=persist)
                for i in pending[point]:
                    results[i] = result
        return results  # type: ignore[return-value]

    # -- pool dispatch ------------------------------------------------------

    def _pool_misses(
        self,
        misses: List[tuple],
        width: int,
        mp_context: Union[str, multiprocessing.context.BaseContext, None],
        key_of: Dict[tuple, str],
    ) -> Tuple[str, List[Tuple[tuple, SimResult, bool]]]:
        """Fan the misses out over a pool; returns the taken path name
        and ``(point, result, persist)`` triples in ``misses`` order.

        Misses are dispatched largest-estimated-work-first so one heavy
        point cannot land at the end of the schedule and stretch the
        straggler tail; the chunksize comes from
        :func:`~repro.sim.fleet.adaptive_chunksize`.
        """
        ctx = (
            multiprocessing.get_context(mp_context)
            if isinstance(mp_context, str) else mp_context
        )
        ordered = order_by_estimated_work(misses)
        chunk = adaptive_chunksize(len(ordered), width)
        method = (
            ctx.get_start_method() if ctx is not None
            else multiprocessing.get_start_method()
        )
        fleet = get_fleet()
        before = fleet.stats()
        pool = fleet.acquire(width, mp_context=ctx)
        self._note_fleet(before, fleet.stats())
        root = (
            str(self.disk_cache.root)
            if self.disk_cache is not None else None
        )
        tasks = [(p, root) for p in ordered]
        try:
            payloads = list(pool.map(_fleet_run, tasks, chunksize=chunk))
        except BrokenProcessPool:
            # A dead executor must never be handed out again; drop it so
            # the next acquire builds a fresh pool.
            fleet.invalidate(width, mp_context=ctx)
            raise
        by_point = {
            p: self._receive_transport(p, payload, key_of)
            for p, payload in zip(ordered, payloads)
        }
        path = f"parallel[fleet:{method}]"
        return path, [(p,) + by_point[p] for p in misses]

    def _receive_transport(
        self, point: tuple, payload: object, key_of: Dict[tuple, str]
    ) -> Tuple[SimResult, bool]:
        """Turn one fleet-worker payload into ``(result, persist)``.

        Full :class:`SimResult` payloads pass through (and still need the
        parent-side disk write).  Slim payloads are rehydrated from the
        disk cache and audited against the worker's fingerprint hash
        (:func:`~repro.sim.validation.audit_slim_transport`); any audit
        problem downgrades the point to an in-process re-simulation —
        correctness over transport speed.
        """
        if not (
            isinstance(payload, tuple)
            and len(payload) == 5
            and payload[0] == SLIM_TAG
        ):
            return payload, True  # type: ignore[return-value]
        _tag, key, fp_sha, wall_s, events_per_s = payload
        rehydrated = (
            self.disk_cache.get(key) if self.disk_cache is not None else None
        )
        problems = audit_slim_transport(
            key_of.get(point, ""), key, fp_sha, rehydrated
        )
        if problems:
            warnings.warn(
                "slim result transport failed its audit ("
                + "; ".join(problems) + "); re-simulating in-process",
                RuntimeWarning,
                stacklevel=2,
            )
            self.resim_fallbacks += 1
            return simulate(*point), True
        assert rehydrated is not None
        self.rehydrations += 1
        # The disk entry drops the observability fields; carry the
        # worker's measured wall clock over so throughput accounting is
        # identical to full-pickle transport.
        rehydrated.wall_time_s = wall_s
        rehydrated.events_per_s = events_per_s
        return rehydrated, False

    def _note_fleet(
        self, before: Dict[str, float], after: Dict[str, float]
    ) -> None:
        """Fold one acquire's fleet-counter deltas into ``fleet_stats``."""
        for key in ("cold_starts", "warm_acquires", "spinup_wall_s"):
            delta = after.get(key, 0.0) - before.get(key, 0.0)
            if delta:
                self.fleet_stats[key] = self.fleet_stats.get(key, 0.0) + delta

    def throughput_summary(self) -> str:
        """One-line aggregate of simulator throughput (``repro figures``,
        bench harness), including which sweep path(s) ran the misses.
        Empty when every request was cache-served."""
        if self.sims_run == 0 or self.sim_wall_s <= 0.0:
            return ""
        rate = self.sim_events / self.sim_wall_s
        line = (
            f"{self.sims_run} sim(s), {self.sim_wall_s:.1f}s simulator time, "
            f"{rate:,.0f} events/s"
        )
        if self.sweep_paths:
            paths = ", ".join(
                f"{k} x{n}" for k, n in sorted(self.sweep_paths.items())
            )
            line += f" [{paths}]"
        if self.fleet_stats:
            cold = int(self.fleet_stats.get("cold_starts", 0))
            warm = int(self.fleet_stats.get("warm_acquires", 0))
            spin = self.fleet_stats.get("spinup_wall_s", 0.0)
            line += (
                f" [fleet: {cold} cold / {warm} warm acquire(s), "
                f"spin-up {spin:.2f}s]"
            )
        if self.disk_cache is not None:
            line += (
                f" [disk: {self.disk_hits} hit(s), "
                f"{self.rehydrations} rehydration(s)"
            )
            if self.resim_fallbacks:
                line += f", {self.resim_fallbacks} re-simulation fallback(s)"
            line += "]"
        return line

    def speedup(self, app, spec: DesignSpec, **kwargs) -> float:
        """IPC of ``spec`` normalized to the baseline design (same config)."""
        base = self.run(app, BASELINE, **kwargs)
        res = self.run(app, spec, **kwargs)
        return res.speedup_vs(base)

    def result_fingerprints(self) -> Dict[str, Dict[str, object]]:
        """Bit-exact identity of every memoized result, keyed by the
        content-addressed cache key (comparing two runners that covered
        the same grid — e.g. serial vs parallel — is a dict equality)."""
        return {
            self._key(point): result.fingerprint()
            for point, result in self._cache.items()
        }

    def clear(self) -> None:
        """Drop the in-memory layer (the disk cache is left untouched)."""
        self._cache.clear()


_DEFAULT: Optional[Runner] = None


def default_runner() -> Runner:
    """Process-wide shared runner (used by the benchmark harness).

    Revalidated against the environment on every call: if ``REPRO_SCALE``
    changed since the cached runner was built, a fresh runner (with a
    fresh memo and current ``REPRO_JOBS``/``REPRO_CACHE_DIR`` settings)
    replaces it — a stale runner would silently simulate at the old scale
    *and* serve results memoized under it.
    """
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.config.scale != env_scale():
        _DEFAULT = Runner()
    return _DEFAULT


def profile_for(app) -> AppProfile:
    return get_app(app) if isinstance(app, str) else app
