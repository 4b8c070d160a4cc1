"""Tests for the three-layer metropolitan topology (Fig. 1 / F1)."""

import math

import pytest

from repro.errors import SimulationError
from repro.wmn.topology import (
    TopologyConfig,
    build_topology,
    hop_counts,
    topology_report,
)

#: The metro layout the city scenario and its benchmark run on.
CITY = TopologyConfig(area_side=2000.0, router_grid=3, gateway_fraction=0.3,
                      user_count=18, access_range=500.0, seed=2026)


def floyd_warshall_hops(topology):
    """All-pairs hop counts over the range graph by Floyd-Warshall: the
    oracle for :func:`hop_counts`, built from the router positions and
    ``backbone_range`` rather than from the backbone map.  Unreachable
    pairs are ``inf``."""
    positions = topology.router_positions
    reach = topology.config.backbone_range
    ids = list(positions)
    dist = {(a, b): 0 if a == b else
            1 if math.dist(positions[a], positions[b]) <= reach else math.inf
            for a in ids for b in ids}
    for k in ids:
        for i in ids:
            for j in ids:
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


class TestBuild:
    def test_router_count(self):
        topology = build_topology(TopologyConfig(router_grid=3, seed=1))
        assert len(topology.router_positions) == 9

    def test_gateway_subset(self):
        topology = build_topology(TopologyConfig(router_grid=4,
                                                 gateway_fraction=0.25,
                                                 seed=1))
        assert len(topology.gateway_ids) == 4
        assert set(topology.gateway_ids) <= set(topology.router_positions)

    def test_at_least_one_gateway(self):
        topology = build_topology(TopologyConfig(router_grid=1,
                                                 gateway_fraction=0.01,
                                                 seed=1))
        assert len(topology.gateway_ids) == 1

    def test_users_inside_area(self):
        config = TopologyConfig(area_side=1000.0, user_count=30, seed=2)
        topology = build_topology(config)
        assert len(topology.user_positions) == 30
        for x, y in topology.user_positions.values():
            assert 0 <= x <= 1000 and 0 <= y <= 1000

    def test_deterministic(self):
        a = build_topology(TopologyConfig(seed=5))
        b = build_topology(TopologyConfig(seed=5))
        assert a.router_positions == b.router_positions
        assert a.user_positions == b.user_positions

    def test_zero_routers_rejected(self):
        with pytest.raises(SimulationError):
            build_topology(TopologyConfig(router_grid=0))

    def test_backbone_edges_respect_range(self):
        config = TopologyConfig(backbone_range=900.0, seed=3)
        topology = build_topology(config)
        for a, neighbours in topology.backbone.items():
            for b in neighbours:
                gap = math.dist(topology.router_positions[a],
                                topology.router_positions[b])
                assert gap <= 900.0


class TestQueries:
    def test_nearest_router(self):
        topology = build_topology(TopologyConfig(seed=1))
        router_id = topology.nearest_router((0.0, 0.0))
        assert router_id in topology.router_positions

    def test_routers_in_reach(self):
        topology = build_topology(TopologyConfig(seed=1))
        some_router = next(iter(topology.router_positions.values()))
        covering = topology.routers_in_reach_of(some_router)
        assert covering   # a point at a router is covered by it


class TestReport:
    def test_report_fields(self):
        report = topology_report(build_topology(TopologyConfig(seed=1)))
        expected_keys = {"routers", "gateways", "users",
                         "backbone_connected", "mean_router_degree",
                         "max_hops_to_gateway", "mean_hops_to_gateway",
                         "user_coverage_fraction", "area_km2"}
        assert expected_keys <= set(report)

    def test_default_city_is_connected_and_covered(self):
        """The default config models a working metro WMN: connected
        backbone, all users within some router's reach."""
        report = topology_report(build_topology(TopologyConfig(seed=0)))
        assert report["backbone_connected"] == 1.0
        assert report["user_coverage_fraction"] >= 0.9

    def test_sparse_network_detected(self):
        config = TopologyConfig(router_grid=3, backbone_range=100.0,
                                seed=1)
        report = topology_report(build_topology(config))
        assert report["backbone_connected"] == 0.0
        assert math.isinf(report["max_hops_to_gateway"])

    # (config, (backbone_connected, mean_router_degree,
    #  max_hops_to_gateway, mean_hops_to_gateway)), as the networkx
    # search this module used to run gave them.
    @pytest.mark.parametrize("config, expected", [
        (TopologyConfig(router_grid=1, gateway_fraction=0.01, seed=1),
         (1.0, 0.0, 0.0, 0.0)),
        (TopologyConfig(seed=0), (1.0, 5.25, 3.0, 1.0625)),
        (TopologyConfig(router_grid=4, backbone_range=520.0, seed=3),
         (1.0, 1.875, 6.0, 2.25)),
        (TopologyConfig(router_grid=4, backbone_range=500.0, seed=3),
         (0.0, 1.5, math.inf, math.inf)),
        (CITY, (1.0, 2.6666666666666665, 2.0, 0.8888888888888888)),
    ], ids=["single", "default", "chain", "partitioned", "city"])
    def test_pinned_values(self, config, expected):
        report = topology_report(build_topology(config))
        assert (report["backbone_connected"],
                report["mean_router_degree"],
                report["max_hops_to_gateway"],
                report["mean_hops_to_gateway"]) == expected

    def test_denser_grid_fewer_hops(self):
        sparse = topology_report(build_topology(
            TopologyConfig(router_grid=2, gateway_fraction=0.3, seed=4)))
        dense = topology_report(build_topology(
            TopologyConfig(router_grid=5, gateway_fraction=0.3, seed=4)))
        assert dense["routers"] > sparse["routers"]


class TestHopCounts:
    """The one breadth-first search against the all-pairs oracle."""

    @pytest.mark.parametrize("config, partitioned", [
        (TopologyConfig(router_grid=1, seed=1), False),
        (TopologyConfig(seed=0), False),
        (TopologyConfig(router_grid=4, backbone_range=520.0, seed=3), False),
        (TopologyConfig(router_grid=5, backbone_range=560.0, seed=7), False),
        (TopologyConfig(router_grid=4, backbone_range=500.0, seed=3), True),
        (TopologyConfig(router_grid=4, backbone_range=440.0, seed=5), True),
        (TopologyConfig(router_grid=6, area_side=3000.0,
                        backbone_range=510.0, seed=11), True),
        (CITY, False),
    ])
    def test_matches_floyd_warshall(self, config, partitioned):
        topology = build_topology(config)
        oracle = floyd_warshall_hops(topology)
        assert any(math.isinf(d) for d in oracle.values()) == partitioned
        for source in topology.backbone:
            expected = {target: hops for (origin, target), hops
                        in oracle.items()
                        if origin == source and not math.isinf(hops)}
            assert hop_counts(topology.backbone, source) == expected

    def test_map_lists_each_link_both_ways_in_router_order(self):
        topology = build_topology(TopologyConfig(
            router_grid=4, backbone_range=500.0, seed=3))
        order = list(topology.router_positions)
        assert list(topology.backbone) == order
        for router_id, neighbours in topology.backbone.items():
            assert list(neighbours) == sorted(neighbours, key=order.index)
            for peer in neighbours:
                assert router_id in topology.backbone[peer]

    def test_source_outside_the_map_reaches_only_itself(self):
        assert hop_counts({"MR-a": ("MR-b",), "MR-b": ("MR-a",)},
                          "MR-z") == {"MR-z": 0}
