"""Tests for SimFleet: the persistent warm worker pool, the per-worker
stream cache, slim cache-key result transport, and adaptive scheduling.

The load-bearing property throughout is *identity*: serial vs fleet, fork
vs spawn, cold vs warm pools, slim vs full transport are pure
orchestration choices — every path must produce bit-identical
``result_fingerprints()``.
"""

from __future__ import annotations

import multiprocessing
import warnings

import numpy as np
import pytest

from repro.experiments import base
from repro.experiments.base import BASELINE, PROPOSED_DESIGNS, Runner
from repro.sim.config import SimConfig
from repro.sim.fleet import (
    SLIM_TAG,
    STREAM_CACHE_CAP,
    WorkerFleet,
    _STREAM_CACHE,
    adaptive_chunksize,
    estimate_work,
    get_fleet,
    materialize_workload,
    order_by_estimated_work,
    shutdown_fleet,
)
from repro.sim.store import DiskResultCache, sim_cache_key
from repro.sim.validation import audit_slim_transport
from repro.workloads.generator import generate_workload
from repro.workloads.suite import get_app

SCALE = 0.05
BOOST = PROPOSED_DESIGNS[-1]
GRID = [
    ("C-BLK", BASELINE), ("C-BLK", BOOST),
    ("T-AlexNet", BASELINE), ("T-AlexNet", BOOST),
]


def fresh_runner(**kwargs) -> Runner:
    kwargs.setdefault("cache", False)
    return Runner(SimConfig(scale=SCALE), **kwargs)


def sweep(runner: Runner, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("par_min_points", 2)
    return runner.run_many(GRID, **kwargs)


# ------------------------------------------------------------- scheduling


class TestScheduling:
    def test_adaptive_chunksize_bounds(self):
        assert adaptive_chunksize(0, 4) == 1
        assert adaptive_chunksize(1, 4) == 1
        assert adaptive_chunksize(24, 4) == 2      # ~4 waves of 4 workers
        assert adaptive_chunksize(24, 0) == 1      # degenerate width
        assert adaptive_chunksize(10_000, 2) == 8  # hard cap

    def test_order_by_estimated_work_largest_first(self):
        runner = fresh_runner()
        points = runner.resolve_points(GRID)
        ordered = order_by_estimated_work(points)
        costs = [estimate_work(p) for p in ordered]
        assert costs == sorted(costs, reverse=True)
        assert sorted(map(id, ordered)) == sorted(map(id, points))

    def test_order_is_deterministic_on_ties(self):
        runner = fresh_runner()
        points = runner.resolve_points([("C-BLK", BASELINE), ("C-BLK", BOOST)])
        # Same profile and scale -> identical estimates; submission order
        # must break the tie.
        assert order_by_estimated_work(points) == list(points)


# ------------------------------------------------------- stream cache


class TestStreamCache:
    def setup_method(self):
        _STREAM_CACHE.clear()

    def teardown_method(self):
        _STREAM_CACHE.clear()

    def test_hit_is_bit_identical_to_fresh_generation(self):
        prof = get_app("C-BLK")
        cached = materialize_workload(prof, SCALE)
        again = materialize_workload(prof, SCALE)
        assert again is cached  # LRU hit, not a regeneration
        fresh = generate_workload(prof, SCALE)
        assert len(fresh.streams) == len(cached.streams)
        for a, b in zip(fresh.streams, cached.streams):
            assert np.array_equal(a.lines, b.lines)
            assert np.array_equal(a.kinds, b.kinds)

    def test_distinct_profiles_do_not_contaminate(self):
        a = materialize_workload(get_app("C-BLK"), SCALE)
        b = materialize_workload(get_app("T-AlexNet"), SCALE)
        assert len(_STREAM_CACHE) == 2
        assert a.profile.name == "C-BLK"
        assert b.profile.name == "T-AlexNet"
        # A's entry is untouched by B's materialization.
        assert materialize_workload(get_app("C-BLK"), SCALE) is a

    def test_scale_is_part_of_the_key(self):
        prof = get_app("C-BLK")
        a = materialize_workload(prof, SCALE)
        b = materialize_workload(prof, SCALE * 2)
        assert a is not b
        assert len(_STREAM_CACHE) == 2

    def test_lru_eviction(self):
        prof = get_app("C-BLK")
        a = materialize_workload(prof, 0.01)
        # STREAM_CACHE_CAP more distinct (profile, scale) keys evict a.
        for i in range(STREAM_CACHE_CAP):
            materialize_workload(prof, 0.01 * (i + 2))
        assert len(_STREAM_CACHE) == STREAM_CACHE_CAP
        assert materialize_workload(prof, 0.01) is not a


# --------------------------------------------------------- the fleet itself


class TestWorkerFleet:
    def test_cold_then_warm_acquire(self):
        fleet = WorkerFleet()
        try:
            pool = fleet.acquire(1)
            assert fleet.cold_starts == 1
            assert fleet.warm_acquires == 0
            assert fleet.spinup_wall_s > 0
            assert fleet.acquire(1) is pool
            assert fleet.warm_acquires == 1
        finally:
            fleet.shutdown()
        assert fleet.stats()["live_pools"] == 0

    def test_distinct_widths_get_distinct_pools(self):
        fleet = WorkerFleet()
        try:
            assert fleet.acquire(1) is not fleet.acquire(2)
            assert fleet.cold_starts == 2
        finally:
            fleet.shutdown()

    def test_invalidate_forces_recreation(self):
        fleet = WorkerFleet()
        try:
            pool = fleet.acquire(1)
            fleet.invalidate(1)
            assert fleet.acquire(1) is not pool
            assert fleet.cold_starts == 2
        finally:
            fleet.shutdown()

    def test_global_fleet_is_a_singleton(self):
        assert get_fleet() is get_fleet()
        shutdown_fleet()
        shutdown_fleet()  # idempotent


# ----------------------------------------------- identity across all paths


class TestFleetIdentity:
    def test_serial_vs_fleet_fork_vs_warm_reuse(self):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        reference = serial.result_fingerprints()

        shutdown_fleet()
        cold = fresh_runner()
        sweep(cold)
        assert cold.sweep_paths.get("parallel[fleet:fork]") == 1
        assert cold.fleet_stats.get("cold_starts") == 1
        assert cold.result_fingerprints() == reference

        warm = fresh_runner()
        sweep(warm)
        assert warm.fleet_stats.get("warm_acquires") == 1
        assert not warm.fleet_stats.get("cold_starts")
        assert warm.result_fingerprints() == reference
        assert "[fleet:" in warm.throughput_summary()

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_fleet_spawn_identical_to_serial(self):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        spawned = fresh_runner()
        sweep(spawned, mp_context="spawn")
        assert spawned.sweep_paths.get("parallel[fleet:spawn]") == 1
        assert spawned.result_fingerprints() == serial.result_fingerprints()

    def test_explicit_chunksize_is_identity_neutral(self, monkeypatch):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        monkeypatch.setattr(base, "adaptive_chunksize", lambda n, width: 3)
        chunked = fresh_runner()
        sweep(chunked)
        assert chunked.result_fingerprints() == serial.result_fingerprints()


# ------------------------------------------------------- slim transport


class TestSlimTransport:
    def test_slim_equals_full_pickle_transport(self, tmp_path):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)
        reference = serial.result_fingerprints()

        # No disk cache: workers pickle full SimResults back.
        full = fresh_runner()
        sweep(full)
        assert full.result_fingerprints() == reference

        # Disk cache: workers persist, only cache keys cross the pipe.
        slim = fresh_runner(cache=str(tmp_path / "cache"))
        sweep(slim)
        assert slim.result_fingerprints() == reference
        assert slim.sims_run == len(GRID)

    def test_workers_persist_results_themselves(self, tmp_path):
        cache = DiskResultCache(tmp_path / "cache")
        runner = fresh_runner(cache=cache)
        sweep(runner)
        assert len(cache) == len(GRID)
        for point in runner.resolve_points(GRID):
            assert cache.get(sim_cache_key(*point)) is not None

    def test_slim_results_carry_observability(self, tmp_path):
        runner = fresh_runner(cache=str(tmp_path / "cache"))
        results = sweep(runner)
        # wall_time_s/events_per_s are excluded from the disk payload, so
        # only the slim tuple can deliver them; _store_miss accounting
        # must still see real values.
        assert all(r.wall_time_s > 0 for r in results)
        assert all(r.events_per_s > 0 for r in results)
        assert runner.sim_wall_s > 0
        assert runner.sim_events > 0

    def test_read_backs_count_as_rehydrations_not_hits(self, tmp_path):
        cold = fresh_runner(cache=str(tmp_path / "cache"))
        sweep(cold)
        assert cold.sims_run == len(GRID)
        assert cold.disk_hits == 0
        assert cold.rehydrations == cold.sims_run
        assert cold.resim_fallbacks == 0
        assert (
            f"[disk: 0 hit(s), {len(GRID)} rehydration(s)]"
            in cold.throughput_summary()
        )

        warm = fresh_runner(cache=str(tmp_path / "cache"))
        sweep(warm)
        assert warm.sims_run == 0
        assert warm.disk_hits == len(GRID)
        assert warm.rehydrations == 0

    def test_rehydration_failure_falls_back_to_resimulation(self, tmp_path):
        serial = fresh_runner()
        serial.run_many(GRID, jobs=1)

        class VanishingCache(DiskResultCache):
            def get(self, key):  # parent-side read-back always misses
                self.misses += 1
                return None

        runner = fresh_runner(cache=VanishingCache(tmp_path / "cache"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sweep(runner)
        assert runner.result_fingerprints() == serial.result_fingerprints()
        # Every point's read-back missed, so every point fell back, and
        # the summary says so.
        assert runner.resim_fallbacks == len(GRID)
        assert runner.rehydrations == 0
        assert (
            f"[disk: 0 hit(s), 0 rehydration(s), "
            f"{len(GRID)} re-simulation fallback(s)]"
            in runner.throughput_summary()
        )


class TestAuditSlimTransport:
    def test_clean(self):
        res = fresh_runner().run("C-BLK", BASELINE)
        sha = res.fingerprint_sha256()
        assert audit_slim_transport("k1", "k1", sha, res) == []

    def test_key_mismatch(self):
        res = fresh_runner().run("C-BLK", BASELINE)
        problems = audit_slim_transport(
            "expected", "other", res.fingerprint_sha256(), res
        )
        assert any("key" in p for p in problems)

    def test_missing_rehydration(self):
        problems = audit_slim_transport("k1", "k1", "deadbeef", None)
        assert any("no readable cache entry" in p for p in problems)

    def test_fingerprint_mismatch(self):
        res = fresh_runner().run("C-BLK", BASELINE)
        problems = audit_slim_transport("k1", "k1", "0" * 64, res)
        assert any("fingerprint differs" in p for p in problems)


# SLIM_TAG is a stable wire-format constant: changing it silently breaks
# mixed-version parent/worker combinations, so pin it.
def test_slim_tag_is_stable():
    assert SLIM_TAG == "__simfleet_slim__"
