"""Welfare computed from the definitions, apart from the solvers.

Reads an instance document with ``json`` alone and evaluates welfare the
way the problem states it: user i reaches the roads touching their own
node, the nodes of their friends within the social hop radius, and every
broadcast node; their utility is the number of reachable roads and
welfare is the average over users.  Nothing here imports ``poishare``, so a fault
in the solvers or in their evaluation routes cannot hide in the check.

Only unit-weight instances without interest profiles are supported: every
benchmark instance is one, and under unit weights every utility is an
integer, so a reported average must equal ``total / m`` exactly.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np


class Oracle:
    """Independent evaluator for one instance document."""

    def __init__(self, payload: dict):
        if payload.get("edge_weights") is not None or payload.get("preferences") is not None:
            raise ValueError("the oracle handles unit-weight instances without preferences")
        self.node_count = int(payload["node_count"])
        self.user_count = int(payload["user_count"])
        self.radius = int(payload.get("social_hop_radius", 1))
        edges = np.array(payload["sensing_edges"], dtype=np.int64).reshape(-1, 2)
        self.edge_u = edges[:, 0]
        self.edge_v = edges[:, 1]
        self.edge_count = len(edges)
        self.proper = self.edge_u != self.edge_v  # a self-loop touches its node once
        self.roads = {(int(u), int(v)) for u, v in edges} | {(int(v), int(u)) for u, v in edges}

        friends: list[set[int]] = [set() for _ in range(self.user_count)]
        for u, v in payload["social_edges"]:
            friends[int(u)].add(int(v))
            friends[int(v)].add(int(u))

        m = self.user_count
        # reach[i, x]: node x's roads reach user i without any broadcast.
        reach = np.zeros((m, self.node_count), dtype=bool)
        for i in range(m):
            reach[i, list(self._ball(friends, i))] = True
        # base[i, e]: road e reaches user i without any broadcast.
        self.base = reach[:, self.edge_u] | reach[:, self.edge_v]
        self.base_total = int(self.base.sum())

    @classmethod
    def from_file(cls, path) -> "Oracle":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def _ball(self, friends, user: int) -> set[int]:
        seen = {user}
        frontier = deque([(user, 0)])
        while frontier:
            v, d = frontier.popleft()
            if d == self.radius:
                continue
            for w in friends[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append((w, d + 1))
        return seen

    def covered_roads(self, nodes) -> np.ndarray:
        """Mask of the roads with an endpoint among ``nodes``."""
        flags = np.zeros(self.node_count, dtype=bool)
        flags[list(nodes)] = True
        return flags[self.edge_u] | flags[self.edge_v]

    def per_user(self, broadcast_nodes) -> np.ndarray:
        """Each user's utility (an integer) when ``broadcast_nodes`` are shared."""
        return (self.base | self.covered_roads(broadcast_nodes)).sum(axis=1)

    def total(self, broadcast_nodes) -> int:
        return int(self.per_user(broadcast_nodes).sum())

    def average(self, broadcast_nodes) -> float:
        return self.total(broadcast_nodes) / self.user_count

    def marginal_totals(self, broadcast_nodes) -> np.ndarray:
        """For every user node u: the total-utility increase if u joined
        the broadcast, counted as the (user, road) pairs it newly reaches."""
        unreached = ~(self.base | self.covered_roads(broadcast_nodes))
        per_road = unreached.sum(axis=0)
        gains = np.zeros(self.node_count, dtype=np.int64)
        np.add.at(gains, self.edge_u, per_road)
        np.add.at(gains, self.edge_v[self.proper], per_road[self.proper])
        return gains[: self.user_count]

    def single_user_totals(self) -> np.ndarray:
        """Total utility with each single user broadcasting, by exhausting
        all users one at a time."""
        out = np.empty(self.user_count, dtype=np.int64)
        for u in range(self.user_count):
            mine = (self.edge_u == u) | (self.edge_v == u)
            out[u] = self.base_total + int((~self.base[:, mine]).sum())
        return out

    def greedy_coverage(self, k: int) -> list[int]:
        """Max-coverage greedy over users' incident road sets, ignoring the
        social graph; ties go to the lowest index."""
        covered = np.zeros(self.edge_count, dtype=bool)
        used = np.zeros(self.user_count, dtype=bool)
        picks: list[int] = []
        for _ in range(min(k, self.user_count)):
            open_roads = (~covered).astype(np.int64)
            fresh = np.zeros(self.node_count, dtype=np.int64)
            np.add.at(fresh, self.edge_u, open_roads)
            np.add.at(fresh, self.edge_v[self.proper], open_roads[self.proper])
            gains = np.where(used, -1, fresh[: self.user_count])
            best = int(np.argmax(gains))
            picks.append(best)
            used[best] = True
            covered |= (self.edge_u == best) | (self.edge_v == best)
        return picks

    def components(self) -> int:
        """Number of connected components of the sensing graph."""
        parent = list(range(self.node_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist()):
            parent[find(u)] = find(v)
        return len({find(x) for x in range(self.node_count)})
