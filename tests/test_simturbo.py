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
3. **Plain vs sanitized parity** — a plain run (requests recycled
   through the free list) and a sanitized run (no pooling, every hold
   ledger-checked) of one config share one fingerprint, for every access
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
    # per-range NoC#2 routes); captured after the pooled and unpooled
    # wirings were verified bit-identical on it.
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
    """Sanitizer, watchdog and shadow shuffle all instrument the run —
    different allocation pattern, different schedule wrapper, and (with
    the ledger attached) no request pooling — yet the simulation they
    observe is the same simulation."""
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


# ------------------------------------------------ plain vs sanitized parity
#
# There is one wiring of the request lifecycle.  Attaching the sanitizer
# ledger only adds owner notes and turns off request pooling, so a plain
# run (pooled) and a sanitized run (unpooled, every hold checked) must be
# bit-identical for every access kind the issue path dispatches on.  A
# pooled request that outlived its completion would diverge here.


def _plain_and_sanitized_hashes(app, spec, scale=0.05, **cfg_kw):
    plain = GPUSystem(app, spec, SimConfig(scale=scale, **cfg_kw)).run()
    sanitized = GPUSystem(app, spec, SimConfig(scale=scale, sanitize=True, **cfg_kw)).run()
    return fingerprint_hash(plain), fingerprint_hash(sanitized)


def test_plain_matches_sanitized_store_heavy():
    # C-SP's store fraction drives the STORE branch of the issue path.
    plain, sanitized = _plain_and_sanitized_hashes(get_app("C-SP"), DesignSpec.shared(40))
    assert plain == sanitized


def test_plain_matches_sanitized_atomic_and_bypass():
    import dataclasses

    app = dataclasses.replace(
        get_app("P-2MM"), atomic_fraction=0.05, bypass_fraction=0.05
    )
    plain, sanitized = _plain_and_sanitized_hashes(app, DesignSpec.clustered(40, 10))
    assert plain == sanitized


def test_plain_matches_sanitized_decoupled_design():
    plain, sanitized = _plain_and_sanitized_hashes(get_app("T-AlexNet"), DesignSpec.cdxbar())
    assert plain == sanitized


def test_request_pool_recycles_only_on_plain_runs():
    """The free list fills on plain runs and stays empty once a ledger is
    attached (the ledger keys holds and hop traces by id(request))."""
    app, spec = get_app("P-2MM"), DesignSpec.shared(40)
    plain = GPUSystem(app, spec, SimConfig(scale=0.05))
    plain.run()
    assert plain._req_pool
    sanitized = GPUSystem(app, spec, SimConfig(scale=0.05, sanitize=True))
    sanitized.run()
    assert sanitized._req_pool == []


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


# ------------------------------------------- plain == sanitized by shape


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
def test_plain_run_matches_sanitized(app_name, design):
    plain, sanitized = _plain_and_sanitized_hashes(
        get_app(app_name), DESIGNS[design], scale=0.1
    )
    assert plain == sanitized, f"{app_name}/{design}"


def test_plain_run_matches_sanitized_with_q1_credits():
    # Finite node queues route issue through _enter_node, park pooled
    # requests in _node_waiters and release Q1 credits at priority -1.
    plain, sanitized = _plain_and_sanitized_hashes(
        get_app("T-AlexNet"), DESIGNS["Sh40"], scale=0.1, dcl1_queue_depth=4
    )
    assert plain == sanitized
