"""Cross-checks between the geometry layer and the instantiated NoCs over
the whole (Y, Z) design space.

The DSENT inventories (area/power), the topology (timing) and the home
mapper (routing) are three independent derivations from the same
:class:`ClusterGeometry`; these tests pin them to each other so a future
change cannot let them drift apart.
"""

import pytest

from repro.core.clusters import ClusterGeometry
from repro.core.designs import DesignSpec
from repro.core.home import HomeMapper
from repro.mem.interleave import AddressMap
from repro.noc.dsent import design_inventory
from repro.noc.topology import NoCTopology

DESIGN_POINTS = [
    DesignSpec.private(80),
    DesignSpec.private(40),
    DesignSpec.private(20),
    DesignSpec.private(10),
    DesignSpec.shared(40),
    DesignSpec.clustered(40, 5),
    DesignSpec.clustered(40, 10),
    DesignSpec.clustered(40, 20),
    DesignSpec.clustered(20, 4),
    DesignSpec.clustered(80, 10),
]


def build(spec, cores=80, l2=32):
    geo = ClusterGeometry.from_design(spec, cores, l2)
    topo = NoCTopology(spec, cores, l2, 2.0, 8.0, geometry=geo)
    return geo, topo


@pytest.mark.parametrize("spec", DESIGN_POINTS, ids=lambda s: s.label)
class TestShapesAgree:
    def test_noc1_crossbars_match_geometry(self, spec):
        geo, topo = build(spec)
        (count, n_in, n_out), = geo.noc1_shapes()
        assert len(topo.noc1_req) == count
        assert all(xb.num_in == n_in and xb.num_out == n_out for xb in topo.noc1_req)
        assert all(xb.num_in == n_out and xb.num_out == n_in for xb in topo.noc1_rep)

    def test_noc2_crossbars_match_geometry(self, spec):
        geo, topo = build(spec)
        (count, n_in, n_out), = geo.noc2_shapes()
        assert len(topo.noc2_req) == count
        assert all(xb.num_in == n_in and xb.num_out == n_out for xb in topo.noc2_req)

    def test_dsent_inventory_matches_geometry(self, spec):
        geo, _ = build(spec)
        inv = design_inventory(spec, 80, 32)
        geo_shapes = {(c, i, o) for c, i, o in geo.noc1_shapes() + geo.noc2_shapes()}
        inv_shapes = {(s.count, s.n_in, s.n_out) for s in inv}
        assert geo_shapes == inv_shapes

    def test_every_route_traverses_valid_ports(self, spec):
        """Exhaustively route a sample of (core, line) pairs through the
        topology; any out-of-range port would raise IndexError."""
        geo, topo = build(spec)
        amap = AddressMap(128, 32, 16)
        home = HomeMapper(geo)
        t = 0.0
        for core in range(0, 80, 7):
            for line in range(0, 400, 13):
                node = home.home_of(core, line)
                l2 = amap.l2_slice_of_line(line)
                t = topo.core_to_dcl1(t, core, node, 1)
                t = topo.to_l2(t, node, l2, 1)
                t = topo.from_l2(t, l2, node, 4)
                t = topo.dcl1_to_core(t, node, core, 1)
        assert t > 0

    def test_routes_reserve_the_ports_geometry_names(self, spec):
        """Each route bumps ``num_served`` on exactly one input and one
        output port of exactly the crossbar the geometry helpers name
        (the closures inline those helpers as ``%``/``//``)."""
        geo, topo = build(spec)
        amap = AddressMap(128, 32, 16)
        home = HomeMapper(geo)
        m = geo.dcl1_per_cluster

        def served():
            return {
                (xb.name, side, i): port.num_served
                for xb in topo.all_crossbars()
                for side, group in (("in", xb.in_ports), ("out", xb.out_ports))
                for i, port in enumerate(group)
            }

        def assert_hop(route, args, xb, in_port, out_port):
            before = served()
            route(0.0, *args, 1)
            after = served()
            bumped = {k: after[k] - before[k] for k in after if after[k] != before[k]}
            assert bumped == {(xb.name, "in", in_port): 1, (xb.name, "out", out_port): 1}

        for core in range(0, 80, 7):
            for line in range(0, 400, 13):
                node = home.home_of(core, line)
                l2 = amap.l2_slice_of_line(line)
                cluster = geo.cluster_of_core(core)
                assert_hop(topo.core_to_dcl1, (core, node), topo.noc1_req[cluster],
                           geo.core_port_in_cluster(core), geo.dcl1_port_in_cluster(node))
                assert_hop(topo.dcl1_to_core, (node, core), topo.noc1_rep[cluster],
                           geo.dcl1_port_in_cluster(node), geo.core_port_in_cluster(core))
                if geo.noc2_partitioned:
                    r = geo.dcl1_range_of(node)
                    z = geo.cluster_of_dcl1(node)
                    assert_hop(topo.to_l2, (node, l2), topo.noc2_req[r], z, l2 // m)
                    assert_hop(topo.from_l2, (l2, node), topo.noc2_rep[r], l2 // m, z)
                else:
                    assert_hop(topo.to_l2, (node, l2), topo.noc2_req[0], node, l2)
                    assert_hop(topo.from_l2, (l2, node), topo.noc2_rep[0], l2, node)

    def test_total_l1_capacity_preserved(self, spec):
        from repro.sim.config import GPUConfig

        gpu = GPUConfig()
        per_node = gpu.dcl1_size_bytes(spec.num_dcl1)
        total = per_node * spec.num_dcl1
        # Power-of-two set rounding may trim, but never below 60% or above
        # 110% of the budget for the paper's node counts.
        assert 0.6 * gpu.total_l1_bytes <= total <= 1.1 * gpu.total_l1_bytes
