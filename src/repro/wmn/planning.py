"""Coverage analysis and router-placement planning.

Section III.A assumes NO "deploys a number of APs and mesh routers and
forms a well connected WMN that covers the whole area of a city"; this
module gives the operator the tooling behind that assumption:

* :func:`coverage_fraction` -- what share of the area lies within some
  router's access radius (grid sampling);
* :func:`dead_zones` -- the uncovered sample points;
* :func:`plan_additional_routers` -- greedy placement of extra routers
  that maximizes marginal coverage, the classic disk-cover heuristic;
* :func:`connectivity_after` -- whether the backbone stays connected
  when given routers fail (the paper's redundancy assumption: losing
  individual routers "will not affect network connection").
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.wmn.topology import MetroTopology, hop_counts

Position = Tuple[float, float]


def _grid(area_side: float, resolution: int) -> List[Position]:
    if resolution < 2:
        raise SimulationError("grid resolution must be at least 2")
    step = area_side / (resolution - 1)
    return [(col * step, row * step)
            for row in range(resolution) for col in range(resolution)]


def _covered(point: Position, routers: Iterable[Position],
             radius: float) -> bool:
    return any(math.dist(point, router) <= radius for router in routers)


def coverage_fraction(router_positions: Sequence[Position],
                      area_side: float, access_range: float,
                      resolution: int = 25) -> float:
    """Fraction of grid sample points within some router's radius."""
    points = _grid(area_side, resolution)
    covered = sum(1 for point in points
                  if _covered(point, router_positions, access_range))
    return covered / len(points)


def dead_zones(router_positions: Sequence[Position], area_side: float,
               access_range: float,
               resolution: int = 25) -> List[Position]:
    """Sample points outside every router's radius."""
    return [point for point in _grid(area_side, resolution)
            if not _covered(point, router_positions, access_range)]


def plan_additional_routers(router_positions: Sequence[Position],
                            area_side: float, access_range: float,
                            count: int,
                            resolution: int = 25) -> List[Position]:
    """Greedy disk cover: place ``count`` routers, each at the candidate
    point covering the most currently-uncovered samples.

    Candidates are the grid points themselves -- coarse but effective,
    and deterministic.  Returns the chosen positions (possibly fewer
    than ``count`` if full coverage is reached early).
    """
    placed: List[Position] = []
    existing = list(router_positions)
    uncovered = set(dead_zones(existing, area_side, access_range,
                               resolution))
    candidates = _grid(area_side, resolution)
    for _ in range(count):
        if not uncovered:
            break
        best, best_gain = None, -1
        for candidate in candidates:
            gain = sum(1 for point in uncovered
                       if math.dist(point, candidate) <= access_range)
            if gain > best_gain:
                best, best_gain = candidate, gain
        if best is None or best_gain == 0:
            break
        placed.append(best)
        uncovered = {point for point in uncovered
                     if math.dist(point, best) > access_range}
    return placed


def connectivity_after(topology: MetroTopology,
                       failed_routers: Sequence[str]) -> Dict[str, float]:
    """Backbone health after removing ``failed_routers``.

    Returns the surviving node count, whether the remainder is
    connected, and the fraction of surviving routers that can still
    reach a (surviving) gateway -- the operational meaning of the
    paper's redundancy assumption.  Failed ids outside the backbone are
    ignored.
    """
    failed = set(failed_routers)
    survivors = {
        router_id: tuple(peer for peer in neighbours if peer not in failed)
        for router_id, neighbours in topology.backbone.items()
        if router_id not in failed}
    if not survivors:
        return {"survivors": 0.0, "connected": 0.0,
                "gateway_reachable_fraction": 0.0}
    reachable = set()
    for gateway in topology.gateway_ids:
        if gateway in survivors:
            reachable.update(hop_counts(survivors, gateway))
    connected = len(hop_counts(survivors, next(iter(survivors)))) \
        == len(survivors)
    return {
        "survivors": float(len(survivors)),
        "connected": float(connected),
        "gateway_reachable_fraction": len(reachable) / len(survivors),
    }
