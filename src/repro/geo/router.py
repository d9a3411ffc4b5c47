"""Shortest-path routing over the road graph.

Trips at the mesoscopic level traverse several road segments ("over a
vehicle trip on multiple roads"); the router turns a (source,
destination) segment pair into the segment sequence a vehicle follows,
so the generator and scenarios can build realistic multi-hop trips on
connected networks (e.g. the grid city).

Dijkstra over the segment-adjacency graph, edge weight = the mean of
the two segments' lengths (the expected travel contribution of
crossing from one to the other).
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from repro.geo.roadnet import RoadNetwork


class RouteNotFound(ValueError):
    """No path exists between the requested segments."""


class Router:
    """Dijkstra shortest paths over a :class:`RoadNetwork`."""

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network

    def _edge_weight(self, from_id: int, to_id: int) -> float:
        a = self.network.segment(from_id).length_m
        b = self.network.segment(to_id).length_m
        return (a + b) / 2.0

    def route(self, source: int, destination: int) -> List[int]:
        """The segment-id sequence from ``source`` to ``destination``.

        Both endpoints are included.  Raises :class:`RouteNotFound`
        when the graph does not connect them.
        """
        if source not in self.network or destination not in self.network:
            missing = source if source not in self.network else destination
            raise KeyError(f"unknown segment id {missing}")
        if source == destination:
            return [source]
        distances: Dict[int, float] = {source: 0.0}
        previous: Dict[int, int] = {}
        heap: List[tuple] = [(0.0, source)]
        visited = set()
        while heap:
            distance, current = heapq.heappop(heap)
            if current in visited:
                continue
            if current == destination:
                break
            visited.add(current)
            for neighbor in self.network.neighbors(current):
                if neighbor in visited:
                    continue
                candidate = distance + self._edge_weight(current, neighbor)
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    previous[neighbor] = current
                    heapq.heappush(heap, (candidate, neighbor))
        if destination not in previous and destination != source:
            raise RouteNotFound(
                f"no route from segment {source} to {destination}"
            )
        path = [destination]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return path

    def route_length_m(self, path: List[int]) -> float:
        """Total length of the segments along ``path``."""
        return sum(self.network.segment(sid).length_m for sid in path)

    def reachable_from(self, source: int) -> List[int]:
        """All segment ids reachable from ``source`` (including it)."""
        if source not in self.network:
            raise KeyError(f"unknown segment id {source}")
        seen = {source}
        frontier = [source]
        while frontier:
            current = frontier.pop()
            for neighbor in self.network.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return sorted(seen)
