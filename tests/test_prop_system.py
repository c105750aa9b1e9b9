"""Property-based end-to-end tests: random small workloads through random
designs must conserve requests, satisfy every audit invariant, and give
one fingerprint on a plain (pooled) and a sanitized (unpooled) run."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.system import GPUSystem
from repro.sim.validation import audit
from repro.workloads.profile import AppProfile

TINY_GPU = GPUConfig(num_cores=8, num_l2_slices=4, num_channels=2)

designs = st.sampled_from(
    [
        DesignSpec.baseline(),
        DesignSpec.private(4),
        DesignSpec.shared(4),
        DesignSpec.clustered(4, 2),
        DesignSpec.clustered(4, 2, boost=2.0),
        DesignSpec.single_l1(),
    ]
)

profiles = st.builds(
    AppProfile,
    name=st.sampled_from(["prop-a", "prop-b"]),
    num_ctas=st.integers(1, 24),
    accesses_per_cta=st.integers(1, 48),
    wavefront_slots=st.integers(1, 4),
    compute_gap=st.sampled_from([1.0, 3.0]),
    mlp=st.integers(1, 3),
    shared_lines=st.integers(16, 128),
    shared_fraction=st.floats(0.0, 0.9),
    private_lines=st.integers(8, 64),
    block_lines=st.integers(1, 16),
    block_repeats=st.integers(1, 3),
    store_fraction=st.floats(0.0, 0.3),
    atomic_fraction=st.floats(0.0, 0.2),
    bypass_fraction=st.floats(0.0, 0.2),
    camp_fraction=st.floats(0.0, 1.0),
    camp_width=st.integers(1, 8),
    imbalance=st.floats(0.0, 0.8),
)


class TestSystemProperties:
    @given(profiles, designs)
    @settings(max_examples=40, deadline=None)
    def test_every_run_audits_clean(self, profile, spec):
        system = GPUSystem(profile, spec, SimConfig(gpu=TINY_GPU))
        system.run()
        assert audit(system) == []

    @given(profiles)
    @settings(max_examples=15, deadline=None)
    def test_shared_never_slower_to_zero(self, profile):
        """Sanity: every design completes with finite, positive IPC."""
        for spec in (DesignSpec.baseline(), DesignSpec.shared(4)):
            res = GPUSystem(profile, spec, SimConfig(gpu=TINY_GPU)).run()
            assert res.ipc > 0
            assert res.cycles < 10_000_000

    @given(profiles, designs)
    @settings(max_examples=15, deadline=None)
    def test_determinism_across_runs(self, profile, spec):
        cfg = SimConfig(gpu=TINY_GPU)
        a = GPUSystem(profile, spec, cfg).run()
        b = GPUSystem(profile, spec, cfg).run()
        assert a.cycles == b.cycles
        assert a.l1.misses == b.l1.misses
        assert a.total_flit_hops == b.total_flit_hops

    @given(profiles, designs, st.sampled_from([None, 1, 4]))
    @settings(max_examples=20, deadline=None)
    def test_plain_fingerprint_equals_sanitized(self, profile, spec, depth):
        """Request pooling is bit-invisible: stores, atomics and bypasses
        (non-LOAD requests through the pool), MLP > 1, tiny streams (CTA
        refills), imbalance (ragged same-cycle buckets) and finite Q1
        queues (pooled requests parked in _node_waiters) all give the
        sanitized run's fingerprint."""
        plain = GPUSystem(profile, spec, SimConfig(gpu=TINY_GPU, dcl1_queue_depth=depth)).run()
        sanitized = GPUSystem(
            profile, spec, SimConfig(gpu=TINY_GPU, dcl1_queue_depth=depth, sanitize=True)
        ).run()
        assert plain.fingerprint() == sanitized.fingerprint()
