"""SimTurbo regression suite: the hot-path overhaul must be invisible.

Three layers of protection:

1. **Golden seed fingerprints** — SHA-256 hashes of
   :meth:`~repro.sim.results.SimResult.fingerprint` captured on the
   pre-SimTurbo tree (request pooling, prebound routes, batched counters
   and the fast drain loop did not exist yet).  Today's pooled fast path
   must reproduce them bit-exactly.
2. **Cross-instrumentation identity** — one real Figure-8 grid point run
   plain / sanitized / watchdog / shadow-shuffled / profiled must yield
   one fingerprint: instrumentation observes, it never steers.
3. **Wiring parity** — fast (pooled) wiring, forced-slow wiring and
   sanitized runs of one config share one fingerprint, for every access
   kind the issue path dispatches on and across the design shapes.
"""

import hashlib
import json

import pytest

from repro.core.designs import DesignSpec
from repro.sim.config import SimConfig
from repro.sim.profiler import profile_simulation
from repro.sim.system import GPUSystem, simulate
from repro.workloads.suite import get_app

# SHA-256 of the canonical JSON fingerprint, captured on the seed tree
# (commit 23318a7, before the SimTurbo hot path existed).
GOLDEN = {
    ("T-AlexNet", "Baseline", 0.1):
        "346bb653f9389aa92f7a951cf0e5938258b6820ea0e9f7fa0e67dcd729afd147",
    ("T-AlexNet", "Sh40", 0.1):
        "c524fbec40fb167d91ffab96c349817b5834234fa8c862c1caaa802186b757a6",
    ("P-2MM", "Sh40", 0.1):
        "cf3e4827658dcd9bfd1244a073b898170d9e2b3d91ad4b35ac9f97279204e794",
    ("P-2MM", "Sh40+C10+Boost", 0.1):
        "41fd6bac713880cf23a42798c89f33ca9c4993d2b7ed7949b0db33c75cbf727a",
    ("C-NN", "Pr40", 0.1):
        "3d7420f339d77165d82b1d6bfd1e37a47a83d9921a589796dfa392d6cd8538e4",
    # Decoupled clustered point (exercises clustered homing and the
    # per-range NoC#2 routes); captured when SimHeat landed, after
    # force_slow_path() verified fast == slow bit-exactly.
    ("C-SP", "Sh40+C10", 0.1):
        "1ecc857dbe6d98ba36ad8122f1dce347a78e24c2679ddfc7938688327321a512",
    # The headline point at the calibrated scale (captured on the same
    # pre-SimTurbo tree).
    ("T-AlexNet", "Sh40", 1.0):
        "ca1e6b42fd1c84d054d5058959da554e794eabc35c13b1c8ff431c71e19f6f9d",
}

DESIGNS = {
    "Baseline": DesignSpec.baseline(),
    "Sh40": DesignSpec.shared(40),
    "Pr40": DesignSpec.private(40),
    "Sh40+C10": DesignSpec.clustered(40, 10),
    "Sh40+C10+Boost": DesignSpec.clustered(40, 10, boost=2.0),
}


def fingerprint_hash(res) -> str:
    blob = json.dumps(res.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------- golden seed fingerprints


@pytest.mark.parametrize("app,design,scale", sorted(GOLDEN))
def test_pooled_fast_path_matches_seed_fingerprints(app, design, scale):
    res = simulate(get_app(app), DESIGNS[design], SimConfig(scale=scale))
    assert fingerprint_hash(res) == GOLDEN[(app, design, scale)]


# --------------------------------------------- cross-instrumentation identity


def _fig08_point(**cfg_kwargs):
    cfg = SimConfig(scale=0.1, **cfg_kwargs)
    return simulate(get_app("T-AlexNet"), DesignSpec.shared(40), cfg)


def test_instrumented_runs_are_bit_identical():
    """Sanitizer, watchdog and shadow shuffle all take the slow path —
    different allocation pattern, different schedule wrapper, no request
    pooling — yet the simulation they observe is the same simulation."""
    want = GOLDEN[("T-AlexNet", "Sh40", 0.1)]
    assert fingerprint_hash(_fig08_point()) == want
    assert fingerprint_hash(_fig08_point(sanitize=True)) == want
    assert fingerprint_hash(_fig08_point(watchdog=True)) == want
    assert fingerprint_hash(_fig08_point(race_check=True)) == want


def test_profiled_run_is_bit_identical_and_observes_everything():
    res, prof = profile_simulation(
        get_app("T-AlexNet"), DesignSpec.shared(40), SimConfig(scale=0.1)
    )
    assert fingerprint_hash(res) == GOLDEN[("T-AlexNet", "Sh40", 0.1)]
    # The profiler saw every drained event, attributed to real handlers.
    assert prof.total_events > 0
    names = {row.handler for row in prof.rows()}
    assert "GPUSystem._wf_issue" in names
    assert "GPUSystem._complete" in names
    assert prof.total_self_time >= 0.0


def test_observability_fields_are_populated_but_not_identity():
    res = _fig08_point()
    assert res.wall_time_s > 0.0
    assert res.events_per_s > 0.0
    flat = res.fingerprint()
    assert "wall_time_s" not in flat and "events_per_s" not in flat
    data = res.to_jsonable()
    assert "wall_time_s" not in data and "events_per_s" not in data
    # A cache round-trip (which drops the observability fields) preserves
    # the result's identity: same fingerprint, zeroed wall clock.
    from repro.sim.results import SimResult

    clone = SimResult.from_jsonable(data)
    assert clone.fingerprint() == flat
    assert clone.wall_time_s == 0.0


# ------------------------------------------------- forced slow-path parity
#
# GPUSystem.force_slow_path() is SimHeat's differential-confirmer knob:
# it runs without the request pool and with owner attribution on every
# bank reservation, without touching SimConfig (so the cache key and
# fingerprint inputs are untouched).  A sanitized run goes through the
# same hop code with the ledger checks live.  Fast, forced-slow and sanitized runs must be
# bit-identical for every access kind the issue path dispatches on.


def _twin_hashes(app, spec, scale=0.05, **cfg_kw):
    cfg = SimConfig(scale=scale, **cfg_kw)
    fast = GPUSystem(app, spec, cfg).run()
    slow_sys = GPUSystem(app, spec, cfg)
    slow_sys.force_slow_path()
    slow = slow_sys.run()
    sanitized = GPUSystem(app, spec, SimConfig(scale=scale, sanitize=True, **cfg_kw)).run()
    return fingerprint_hash(fast), fingerprint_hash(slow), fingerprint_hash(sanitized)


def test_forced_slow_path_parity_store_heavy():
    # C-SP's store fraction drives the STORE branch of the issue path.
    fast, slow, sanitized = _twin_hashes(get_app("C-SP"), DesignSpec.shared(40))
    assert fast == slow == sanitized


def test_forced_slow_path_parity_atomic_and_bypass():
    import dataclasses

    app = dataclasses.replace(
        get_app("P-2MM"), atomic_fraction=0.05, bypass_fraction=0.05
    )
    fast, slow, sanitized = _twin_hashes(app, DesignSpec.clustered(40, 10))
    assert fast == slow == sanitized


def test_forced_slow_path_parity_decoupled_design():
    fast, slow, sanitized = _twin_hashes(get_app("T-AlexNet"), DesignSpec.cdxbar())
    assert fast == slow == sanitized


def test_force_slow_path_rejected_after_run():
    sys_ = GPUSystem(get_app("P-2MM"), DesignSpec.shared(40),
                     SimConfig(scale=0.05))
    sys_.run()
    with pytest.raises(RuntimeError):
        sys_.force_slow_path()


def test_wavefront_materializes_streams_to_plain_ints():
    """``next_access`` must hand back plain Python ints — NumPy scalar
    boxing on the hottest call site is what the bind-time ``tolist``
    conversion exists to avoid."""
    import numpy as np

    from repro.gpu.wavefront import Wavefront

    class FakeStream:
        lines = np.array([5, 6, 7], dtype=np.int64)
        kinds = np.array([0, 1, 0], dtype=np.int8)

        def __len__(self):
            return 3

    wf = Wavefront(0, 0, FakeStream(), compute_gap=0.0)
    line, kind = wf.next_access()
    assert type(line) is int and type(kind) is int
    assert (line, kind) == (5, 0)
    assert wf.next_access() == (6, 1)
    assert wf.next_access() == (7, 0)
    assert wf.next_access() is None


# ------------------------------------------- fast == forced-slow by shape
#
# Every design dispatches each event to its one scalar handler, so the
# fast and forced-slow wirings differ only in request pooling and owner
# attribution.  Fast, forced-slow and sanitized runs must produce one
# fingerprint on each design shape the lifecycle branches on.


@pytest.mark.parametrize(
    "app_name, design",
    [
        ("T-AlexNet", "Sh40"),       # single-cluster DC-L1
        ("C-BFS", "Sh40"),           # single-cluster, store-bearing stream
        ("T-AlexNet", "Baseline"),   # coupled: no DC-L1 level
        ("T-ResNet", "Pr40"),        # private homes
        ("C-SP", "Sh40+C10"),        # clustered, store-heavy
        ("T-AlexNet", "Sh40+C10"),   # clustered, load-dominated
    ],
)
def test_fast_wiring_matches_forced_slow(app_name, design):
    fast, slow, sanitized = _twin_hashes(
        get_app(app_name), DESIGNS[design], scale=0.1
    )
    assert fast == slow == sanitized, f"{app_name}/{design}"


def test_fast_wiring_matches_forced_slow_with_q1_credits():
    # Finite node queues route issue through _enter_node and release Q1
    # credits at priority -1.
    fast, slow, sanitized = _twin_hashes(
        get_app("T-AlexNet"), DESIGNS["Sh40"], scale=0.1, dcl1_queue_depth=4
    )
    assert fast == slow == sanitized
