"""Two-graph problem model.

An instance pairs a physical sensing graph, whose edges (roads) carry
point-of-interest information, with an online social graph over the users
stationed on the first ``user_count`` sensing nodes.

Conventions used throughout the package:

- Nodes are dense 0-based indices.  Indices ``0 .. user_count-1`` are user
  nodes; any higher index is a non-user location.
- Sensing edges are unordered index pairs, normalized to ``(min, max)``.
  A self-loop ``(v, v)`` is a legal road that touches only v.
- All model types are immutable after construction; derived adjacency
  tables are cached and safe to share between concurrent readers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import InputError


@dataclass(frozen=True)
class SensingGraph:
    """Physical graph of locations and roads.

    ``edge_weights`` is an optional per-edge finite positive weight; when omitted
    every edge counts 1.0 (uniform information per road).
    """

    node_count: int
    user_count: int
    edges: tuple[tuple[int, int], ...]
    edge_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        norm = tuple((u, v) if u <= v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", norm)
        if self.edge_weights is not None:
            object.__setattr__(self, "edge_weights", tuple(float(w) for w in self.edge_weights))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def weight(self, edge_index: int) -> float:
        if self.edge_weights is None:
            return 1.0
        return self.edge_weights[edge_index]

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each node (self-loops listed once)."""
        table: list[list[int]] = [[] for _ in range(self.node_count)]
        for e, (u, v) in enumerate(self.edges):
            table[u].append(e)
            if v != u:
                table[v].append(e)
        return tuple(tuple(row) for row in table)

    @cached_property
    def incidence(self) -> sparse.csr_matrix:
        """Node x road boolean matrix whose row v marks ``incident[v]``, in the
        same order.  Shared by every reader: treat it as read-only."""
        return zero_one_matrix(self.incident, self.edge_count)

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """Per-road weights as a read-only float64 array."""
        out = np.array([self.weight(e) for e in range(self.edge_count)], dtype=np.float64)
        out.flags.writeable = False
        return out

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted adjacency lists (a node with a self-loop neighbors itself)."""
        table: list[set[int]] = [set() for _ in range(self.node_count)]
        for u, v in self.edges:
            table[u].add(v)
            table[v].add(u)
        return tuple(tuple(sorted(row)) for row in table)


@dataclass(frozen=True)
class SocialGraph:
    """Friendship graph over the user nodes only."""

    user_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple((u, v) if u <= v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", norm)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        table: list[set[int]] = [set() for _ in range(self.user_count)]
        for u, v in self.edges:
            if 0 <= u < self.user_count and 0 <= v < self.user_count:
                table[u].add(v)
                table[v].add(u)
        return tuple(tuple(sorted(row)) for row in table)


@dataclass(frozen=True)
class PreferenceProfile:
    """Per-user subsets of sensing-edge indices the user cares about."""

    per_user_edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "per_user_edges", tuple(frozenset(s) for s in self.per_user_edges)
        )


@dataclass(frozen=True)
class Instance:
    """A sensing graph, a social graph over its users, optional interest
    profiles, and the hop radius at which friends relay information."""

    sensing: SensingGraph
    social: SocialGraph
    preferences: PreferenceProfile | None = None
    social_hop_radius: int = 1

    @property
    def user_count(self) -> int:
        return self.sensing.user_count

    @property
    def node_count(self) -> int:
        return self.sensing.node_count

    @cached_property
    def social_reach(self) -> tuple[set[int], ...]:
        """Per user i, ``{i} | social_neighborhood(self, i)``: the user nodes
        whose roads i sees with nothing broadcast.  Built once and shared by
        every reader, which keeps each set's iteration order (and with it
        the bits of weighted sums over it): treat the sets as read-only."""
        return tuple({i} | social_neighborhood(self, i) for i in range(self.user_count))


@dataclass(frozen=True)
class Selection:
    """An ordered pick of distinct user indices; order is the selection
    sequence and matters to incremental evaluation and greedy traces."""

    users: tuple[int, ...]

    def __post_init__(self):
        users = tuple(int(u) for u in self.users)
        object.__setattr__(self, "users", users)
        if len(set(users)) != len(users):
            raise InputError(f"selection contains duplicate users: {users}")

    def __len__(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class Walk:
    """A fixed-length walk in the sensing graph; node revisits allowed."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(int(v) for v in self.nodes))

    @property
    def start(self) -> int:
        return self.nodes[0]

    @property
    def edge_count(self) -> int:
        return len(self.nodes) - 1

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class WalkSet:
    """An ordered set of walks under a start-node multiplicity cap.

    ``augmentation`` is the number of users allowed per start node;
    1 reproduces the plain one-user-per-node problem.
    """

    walks: tuple[Walk, ...]
    augmentation: int = 1

    def __post_init__(self):
        object.__setattr__(self, "walks", tuple(self.walks))
        if self.augmentation < 1:
            raise InputError(f"augmentation factor must be >= 1, got {self.augmentation}")
        counts: dict[int, int] = {}
        for w in self.walks:
            counts[w.start] = counts.get(w.start, 0) + 1
            if counts[w.start] > self.augmentation:
                raise InputError(
                    f"start node {w.start} appears in {counts[w.start]} walks, "
                    f"cap is {self.augmentation}"
                )

    def __len__(self) -> int:
        return len(self.walks)

    @property
    def visited_nodes(self) -> frozenset[int]:
        return frozenset(v for w in self.walks for v in w.nodes)


def zero_one_matrix(rows, width: int) -> sparse.csr_matrix:
    """Boolean CSR matrix, true at (i, c) for each column c listed in
    ``rows[i]`` and stored in the listed order; the lists must not repeat
    a column.  Products of such matrices stay boolean (set unions)."""
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows], dtype=np.int64)))
    indices = np.fromiter((c for row in rows for c in row), dtype=np.int32, count=int(indptr[-1]))
    return sparse.csr_matrix(
        (np.ones(len(indices), dtype=bool), indices, indptr), shape=(len(rows), width)
    )


def incident_edges(graph: SensingGraph, nodes) -> set[int]:
    """Edge indices with at least one endpoint in ``nodes``."""
    out: set[int] = set()
    for v in nodes:
        if not 0 <= v < graph.node_count:
            raise InputError(f"node index {v} out of range [0, {graph.node_count})")
        out.update(graph.incident[v])
    return out


def social_neighborhood(instance: Instance, user: int) -> set[int]:
    """Users within ``social_hop_radius`` hops of ``user``, excluding it."""
    if not 0 <= user < instance.user_count:
        raise InputError(f"user index {user} out of range [0, {instance.user_count})")
    radius = instance.social_hop_radius
    nbrs = instance.social.neighbors
    seen = {user}
    frontier = deque([(user, 0)])
    while frontier:
        v, d = frontier.popleft()
        if d == radius:
            continue
        for w in nbrs[v]:
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    seen.discard(user)
    return seen


def validate(instance: Instance) -> list[str]:
    """Check every model invariant; returns violation descriptions.

    Violations are data, not failures: an empty list means the instance is
    well formed.
    """
    out: list[str] = []
    g1, g2 = instance.sensing, instance.social

    if not 1 <= g1.user_count <= g1.node_count:
        out.append(
            f"sensing graph needs 1 <= user_count <= node_count, "
            f"got user_count={g1.user_count}, node_count={g1.node_count}"
        )
    seen_edges: set[tuple[int, int]] = set()
    for e, (u, v) in enumerate(g1.edges):
        if not (0 <= u < g1.node_count and 0 <= v < g1.node_count):
            out.append(f"sensing edge {e}=({u},{v}) has an endpoint out of range")
            continue
        if (u, v) in seen_edges:
            out.append(f"duplicate sensing edge ({u},{v})")
        seen_edges.add((u, v))
    if g1.edge_weights is not None:
        if len(g1.edge_weights) != g1.edge_count:
            out.append(
                f"edge_weights has length {len(g1.edge_weights)}, expected {g1.edge_count}"
            )
        else:
            for e, w in enumerate(g1.edge_weights):
                if not 0 < w < np.inf:
                    out.append(f"edge weight {e} must be finite and positive, got {w}")

    if g2.user_count != g1.user_count:
        out.append(
            f"user_count mismatch: sensing graph has {g1.user_count}, "
            f"social graph has {g2.user_count}"
        )
    seen_social: set[tuple[int, int]] = set()
    for e, (u, v) in enumerate(g2.edges):
        if not (0 <= u < g2.user_count and 0 <= v < g2.user_count):
            out.append(f"social edge {e}=({u},{v}) has an endpoint out of range")
            continue
        if u == v:
            out.append(f"social edge {e}=({u},{v}) is a self-loop")
        if (u, v) in seen_social:
            out.append(f"duplicate social edge ({u},{v})")
        seen_social.add((u, v))

    if instance.social_hop_radius < 1:
        out.append(f"social_hop_radius must be >= 1, got {instance.social_hop_radius}")

    prefs = instance.preferences
    if prefs is not None:
        if len(prefs.per_user_edges) != g1.user_count:
            out.append(
                f"preferences cover {len(prefs.per_user_edges)} users, "
                f"expected {g1.user_count}"
            )
        else:
            for i, edge_set in enumerate(prefs.per_user_edges):
                bad = [e for e in edge_set if not 0 <= e < g1.edge_count]
                if bad:
                    out.append(f"preferences of user {i} reference invalid edges {sorted(bad)}")
                    continue
                # Roads touching a user's own location are always of interest.
                missing = [e for e in g1.incident[i] if e not in edge_set]
                if missing:
                    out.append(
                        f"preferences of user {i} omit incident edges {sorted(missing)}"
                    )
    return out


def check_selection(instance: Instance, selection: Selection) -> None:
    """Raise InputError unless every selected index is a valid user."""
    for u in selection.users:
        if not 0 <= u < instance.user_count:
            raise InputError(f"selected user {u} out of range [0, {instance.user_count})")


def check_walk(instance: Instance, walk: Walk, n: int | None = None) -> None:
    """Raise InputError unless the walk is valid for the sensing graph.

    Checks: user start node, in-range nodes, consecutive adjacency, and
    (when ``n`` is given) exact edge count.
    """
    g1 = instance.sensing
    if len(walk.nodes) < 2:
        raise InputError(f"walk {walk.nodes} must have at least one edge")
    for v in walk.nodes:
        if not 0 <= v < g1.node_count:
            raise InputError(f"walk node {v} out of range [0, {g1.node_count})")
    if walk.start >= instance.user_count:
        raise InputError(f"walk must start at a user node, got node {walk.start}")
    nbrs = g1.neighbors
    for a, b in zip(walk.nodes, walk.nodes[1:]):
        if b not in nbrs[a]:
            raise InputError(f"walk step ({a},{b}) is not a sensing edge")
    if n is not None and walk.edge_count != n:
        raise InputError(f"walk has {walk.edge_count} edges, expected {n}")
