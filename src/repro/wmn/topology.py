"""The three-layer metropolitan topology of Fig. 1.

Layer 1: wired access points (Internet gateways).  Layer 2: stationary
mesh routers on a grid forming the long-range wireless backbone, a
subset co-located with the gateways.  Layer 3: mobile users scattered
uniformly over the coverage area.

The backbone is an adjacency map (router id -> neighbour ids, in
router order), searched by one breadth-first search,
:func:`hop_counts`, that every caller shares: :func:`topology_report`
(the structural statistics benchmark F1 reports: connectivity, router
degree, hops-to-gateway, user coverage), the failure analysis of
:mod:`repro.wmn.planning` and the forwarding of
:mod:`repro.wmn.backbone`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SimulationError

Position = Tuple[float, float]
#: The backbone graph: router id -> ids of the routers in link range.
Backbone = Dict[str, Tuple[str, ...]]


@dataclass(frozen=True)
class TopologyConfig:
    """Knobs of the metropolitan layout."""

    area_side: float = 2000.0        # square city area side, metres
    router_grid: int = 4             # routers per side (grid^2 routers)
    router_count: int = 0            # 0 = grid^2; else keep first N routers
    gateway_fraction: float = 0.25   # share of routers wired as APs
    user_count: int = 40
    backbone_range: float = 900.0    # WiMAX-class long range links
    access_range: float = 350.0      # router <-> user service radius
    user_range: float = 150.0        # user <-> user radio range
    seed: int = 0


@dataclass
class MetroTopology:
    """Concrete node placements plus the backbone graph."""

    config: TopologyConfig
    router_positions: Dict[str, Position]
    gateway_ids: List[str]
    user_positions: Dict[str, Position]
    backbone: Backbone

    def routers_in_reach_of(self, position: Position) -> List[str]:
        """Routers whose access radius covers the given point."""
        reach = self.config.access_range
        return [router_id for router_id, router_pos
                in self.router_positions.items()
                if math.dist(position, router_pos) <= reach]

    def nearest_router(self, position: Position) -> str:
        return min(self.router_positions,
                   key=lambda rid: math.dist(position,
                                             self.router_positions[rid]))


def build_topology(config: TopologyConfig) -> MetroTopology:
    """Lay out routers on a jittered grid and users uniformly."""
    if config.router_grid < 1:
        raise SimulationError("need at least one mesh router")
    rng = random.Random(config.seed)
    spacing = config.area_side / config.router_grid
    router_positions: Dict[str, Position] = {}
    index = 0
    for row in range(config.router_grid):
        for col in range(config.router_grid):
            jitter_x = rng.uniform(-0.1, 0.1) * spacing
            jitter_y = rng.uniform(-0.1, 0.1) * spacing
            router_positions[f"MR-{index}"] = (
                (col + 0.5) * spacing + jitter_x,
                (row + 0.5) * spacing + jitter_y)
            index += 1
    if config.router_count:
        # Router counts that are not a perfect square (the acceptance
        # scenario wants exactly 2): keep the first N grid slots.  The
        # grid must be at least that big so the layout stays the grid's.
        if config.router_count > len(router_positions):
            raise SimulationError(
                "router_count exceeds router_grid**2; raise router_grid")
        keep = [f"MR-{i}" for i in range(config.router_count)]
        router_positions = {rid: router_positions[rid] for rid in keep}

    router_ids = list(router_positions)
    gateway_count = max(1, round(len(router_ids)
                                 * config.gateway_fraction))
    gateway_ids = rng.sample(router_ids, gateway_count)

    backbone = {
        rid: tuple(other for other in router_ids
                   if other != rid
                   and math.dist(router_positions[rid],
                                 router_positions[other])
                   <= config.backbone_range)
        for rid in router_ids}

    user_positions = {
        f"U-{i}": (rng.uniform(0, config.area_side),
                   rng.uniform(0, config.area_side))
        for i in range(config.user_count)}

    return MetroTopology(config=config,
                         router_positions=router_positions,
                         gateway_ids=gateway_ids,
                         user_positions=user_positions,
                         backbone=backbone)


def hop_counts(backbone: Backbone, source: str) -> Dict[str, int]:
    """Breadth-first search: hop count from ``source`` to every router
    it reaches (``source`` itself at 0).  A source outside the map
    reaches only itself."""
    hops = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for node in frontier:
            for neighbour in backbone.get(node, ()):
                if neighbour not in hops:
                    hops[neighbour] = hops[node] + 1
                    reached.append(neighbour)
        frontier = reached
    return hops


def topology_report(topology: MetroTopology) -> Dict[str, float]:
    """Structural statistics for benchmark F1."""
    backbone = topology.backbone
    config = topology.config
    # Connected: non-empty, and one search reaches every router.
    connected = bool(backbone) and len(
        hop_counts(backbone, next(iter(backbone)))) == len(backbone)
    degrees = [len(neighbours) for neighbours in backbone.values()]
    hops: List[int] = []
    if connected and topology.gateway_ids:
        searches = [hop_counts(backbone, gateway)
                    for gateway in topology.gateway_ids]
        hops = [min(search[node] for search in searches)
                for node in backbone]
    covered = sum(
        1 for pos in topology.user_positions.values()
        if topology.routers_in_reach_of(pos))
    user_count = max(1, len(topology.user_positions))
    return {
        "routers": float(len(topology.router_positions)),
        "gateways": float(len(topology.gateway_ids)),
        "users": float(len(topology.user_positions)),
        "backbone_connected": float(connected),
        "mean_router_degree": (sum(degrees) / len(degrees)
                               if degrees else 0.0),
        "max_hops_to_gateway": float(max(hops)) if hops else math.inf,
        "mean_hops_to_gateway": (sum(hops) / len(hops)
                                 if hops else math.inf),
        "user_coverage_fraction": covered / user_count,
        "area_km2": (config.area_side / 1000.0) ** 2,
    }
