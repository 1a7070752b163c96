"""Shared seeded instance generators and independent oracles for tests.

Everything here is deliberately dumb and direct: oracles must not share
clever machinery with the code they check.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

import poishare as ps


def random_instance(
    rng: random.Random,
    max_users: int = 8,
    max_extra_nodes: int = 0,
    edge_prob: float = 0.45,
    social_prob: float = 0.4,
    with_prefs: bool = False,
    with_weights: bool = False,
    with_loops: bool = False,
    max_radius: int = 1,
    min_users: int = 1,
) -> ps.Instance:
    m = rng.randint(min_users, max_users)
    extra = rng.randint(0, max_extra_nodes)
    nn = m + extra
    edges = [(i, j) for i in range(nn) for j in range(i + 1, nn) if rng.random() < edge_prob]
    loops = []
    if with_loops:
        loops = [(v, v) for v in range(nn) if rng.random() < 0.25]
    all_edges = tuple(edges + loops)
    weights = None
    if with_weights and all_edges:
        weights = tuple(round(rng.uniform(0.5, 3.0), 3) for _ in all_edges)
    sensing = ps.SensingGraph(
        node_count=nn,
        user_count=m,
        edges=all_edges,
        edge_weights=weights,
    )
    social = ps.SocialGraph(
        user_count=m,
        edges=tuple(
            (i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < social_prob
        ),
    )
    prefs = None
    if with_prefs:
        rows = []
        for i in range(m):
            chosen = set(sensing.incident[i])
            for e in range(len(all_edges)):
                if rng.random() < 0.5:
                    chosen.add(e)
            rows.append(frozenset(chosen))
        prefs = ps.PreferenceProfile(tuple(rows))
    return ps.Instance(
        sensing=sensing,
        social=social,
        preferences=prefs,
        social_hop_radius=rng.randint(1, max_radius),
    )


def random_all_user_instance(rng: random.Random, max_nodes: int = 6, min_nodes: int = 2,
                             edge_prob: float = 0.5, social_prob: float = 0.4) -> ps.Instance:
    inst = random_instance(
        rng,
        max_users=max_nodes,
        min_users=min_nodes,
        max_extra_nodes=0,
        edge_prob=edge_prob,
        social_prob=social_prob,
    )
    if inst.sensing.edge_count == 0:
        sensing = ps.SensingGraph(
            node_count=inst.node_count, user_count=inst.user_count, edges=((0, 1),)
        )
        inst = ps.Instance(sensing=sensing, social=inst.social)
    return inst


def random_connected_graph(rng: random.Random, n: int, edge_prob: float = 0.4):
    """Random simple connected graph: a random spanning tree plus extras."""
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = nodes[i], nodes[j]
        edges.add((min(u, v), max(u, v)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((i, j))
    return sorted(edges)


def vertex_cover_exists(n: int, edges, k: int) -> bool:
    """Independent brute-force decision oracle for vertex cover."""
    if not edges:
        return True
    for size in range(0, k + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return True
    return False


def pendant_augmented_instance(instance: ps.Instance) -> ps.Instance:
    """G1+: the input plus one unit pendant road ``(i, fresh non-user
    node)`` per user i, with the same social graph and hop radius.

    User i's fresh node is ``node_count + i``.  Built directly, without the
    reduction gadget it is used to check.
    """
    g1 = instance.sensing
    m = g1.user_count
    pendants = tuple((i, g1.node_count + i) for i in range(m))
    weights = None if g1.edge_weights is None else g1.edge_weights + (1.0,) * m
    sensing = ps.SensingGraph(
        node_count=g1.node_count + m,
        user_count=m,
        edges=g1.edges + pendants,
        edge_weights=weights,
    )
    return ps.Instance(
        sensing=sensing,
        social=instance.social,
        preferences=None,
        social_hop_radius=instance.social_hop_radius,
    )


def naive_phi(instance: ps.Instance, broadcast_nodes) -> float:
    """Second independent welfare computation, straight from definitions."""
    g1 = instance.sensing
    total = 0.0
    for i in range(instance.user_count):
        access = {i} | ps.social_neighborhood(instance, i) | set(broadcast_nodes)
        edge_ids = set()
        for e, (u, v) in enumerate(g1.edges):
            if u in access or v in access:
                edge_ids.add(e)
        if instance.preferences is not None:
            edge_ids &= instance.preferences.per_user_edges[i]
        total += sum(_road_weight(instance, e) for e in edge_ids)
    return total / instance.user_count


def reference_broadcast_breakdown(instance: ps.Instance, broadcast_nodes) -> ps.WelfareBreakdown:
    """``broadcast_breakdown`` as first written, as its oracle: one
    road weight per road per user, summed in the iteration order of
    the same access sets."""
    g1 = instance.sensing
    prefs = instance.preferences
    extra = set(broadcast_nodes)
    per_user = []
    for i in range(instance.user_count):
        base = {i} | ps.social_neighborhood(instance, i)
        edge_ids = ps.incident_edges(g1, base | extra)
        if prefs is None:
            per_user.append(float(sum(_road_weight(instance, e) for e in edge_ids)))
        else:
            interest = prefs.per_user_edges[i]
            per_user.append(float(sum(_road_weight(instance, e) for e in edge_ids if e in interest)))
    return ps.WelfareBreakdown.from_per_user(per_user)


@st.composite
def instances(draw, weights=st.floats(0.1, 5.0)):
    """A hypothesis instance of up to 6 users and 3 non-user nodes, with
    up to 12 roads in drawn order (self-loops included), optional road
    weights drawn from ``weights``, optional interest profiles and a hop
    radius of 1 or 2."""
    m = draw(st.integers(1, 6))
    nn = m + draw(st.integers(0, 3))
    pairs = [(u, v) for u in range(nn) for v in range(u, nn)]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)))
    edge_weights = None
    if edges and draw(st.booleans()):
        edge_weights = tuple(draw(st.lists(weights, min_size=len(edges), max_size=len(edges))))
    sensing = ps.SensingGraph(node_count=nn, user_count=m, edges=edges, edge_weights=edge_weights)
    friends = list(combinations(range(m), 2))
    social = ps.SocialGraph(user_count=m, edges=tuple(
        draw(st.lists(st.sampled_from(friends), unique=True)) if friends else ()))
    prefs = None
    if edges and draw(st.booleans()):
        extra = st.sets(st.integers(0, len(edges) - 1))
        prefs = ps.PreferenceProfile(tuple(
            frozenset(sensing.incident[i]) | draw(extra) for i in range(m)))
    return ps.Instance(sensing=sensing, social=social, preferences=prefs,
                       social_hop_radius=draw(st.integers(1, 2)))


def golden_instance() -> ps.Instance:
    """The seeded 40-location instance behind ``tests/golden``."""
    return ps.synth_instance(ps.GenSpec(mode="gowalla-like", node_count=40, seed=7))


def reweighted(instance: ps.Instance, rng: random.Random) -> ps.Instance:
    """``instance`` with random road weights and random interest sets, each
    holding the user's own roads and about half of the others."""
    g1 = instance.sensing
    sensing = ps.SensingGraph(
        node_count=g1.node_count,
        user_count=g1.user_count,
        edges=g1.edges,
        edge_weights=tuple(rng.uniform(0.1, 5.0) for _ in g1.edges),
    )
    prefs = ps.PreferenceProfile(tuple(
        frozenset(g1.incident[i]) | {e for e in range(g1.edge_count) if rng.random() < 0.5}
        for i in range(g1.user_count)
    ))
    return ps.Instance(sensing=sensing, social=instance.social, preferences=prefs,
                       social_hop_radius=instance.social_hop_radius)


def mixed_instances(seed: int, count: int) -> list[ps.Instance]:
    """``count`` seeded random instances of every kind (weights, self-loops,
    preferences, non-user nodes, hop radius 2), then the golden instance
    plain and reweighted."""
    rng = random.Random(seed)
    instances = [
        random_instance(
            rng, max_users=8, max_extra_nodes=3, max_radius=2,
            with_prefs=rng.random() < 0.5, with_weights=rng.random() < 0.5,
            with_loops=rng.random() < 0.5,
        )
        for _ in range(count)
    ]
    golden = golden_instance()
    return instances + [golden, reweighted(golden, rng)]


def exact_total(breakdown: ps.WelfareBreakdown) -> int:
    """Sum of per-user utilities as an exact integer (uniform weights)."""
    total = breakdown.average * len(breakdown.per_user)
    rounded = round(total)
    assert abs(total - rounded) < 1e-6, f"expected integer welfare sum, got {total}"
    return rounded


def _road_weight(instance: ps.Instance, e: int):
    weights = instance.sensing.edge_weights
    return 1 if weights is None else weights[e]


def welfare_total(instance: ps.Instance, broadcast_nodes) -> float:
    """Sum of per-user utilities from the definitions; an exact integer
    under unit weights."""
    g1 = instance.sensing
    prefs = instance.preferences
    total = 0
    for i in range(instance.user_count):
        access = {i} | ps.social_neighborhood(instance, i) | set(broadcast_nodes)
        for e, (u, v) in enumerate(g1.edges):
            if (u in access or v in access) and (prefs is None or e in prefs.per_user_edges[i]):
                total += _road_weight(instance, e)
    return total


def coverage_total(instance: ps.Instance, nodes) -> float:
    """Weight of the roads touching ``nodes``; an exact integer under unit
    weights."""
    return sum(
        _road_weight(instance, e)
        for e, (u, v) in enumerate(instance.sensing.edges)
        if u in nodes or v in nodes
    )


def reference_greedy(value, candidates, k: int, g: int | None = None):
    """Plain greedy: ``candidates`` are node tuples, a walk's first node
    being its start.  Each of k rounds scans the candidates in index order
    and takes the first one whose nodes raise ``value(broadcast nodes)``
    strictly more than any before it.  With ``g``, a start that has given g
    picks leaves the pool.  Returns the picked indices and their gains."""
    chosen: set[int] = set()
    starts: Counter = Counter()
    picks, gains = [], []
    for _ in range(k):
        current = value(chosen)
        best, best_gain = None, None
        for idx, nodes in enumerate(candidates):
            if idx in picks or (g is not None and starts[nodes[0]] >= g):
                continue
            gain = value(chosen | set(nodes)) - current
            if best is None or gain > best_gain:
                best, best_gain = idx, gain
        if best is None:
            break
        picks.append(best)
        gains.append(best_gain)
        chosen |= set(candidates[best])
        starts[candidates[best][0]] += 1
    return picks, gains


def assert_greedy_rounds(value, candidates, picks, g: int | None = None, tol: float = 1e-9):
    """Each pick's gain, priced by ``value``, reaches the best gain among the
    candidates still in the pool at its round to within ``tol``."""
    chosen: set[int] = set()
    starts: Counter = Counter()
    for rnd, pick in enumerate(picks):
        current = value(chosen)
        pool = [
            idx for idx, nodes in enumerate(candidates)
            if idx not in picks[:rnd] and (g is None or starts[nodes[0]] < g)
        ]
        assert pick in pool, f"round {rnd}: pick {pick} was not in the pool"
        best = max(value(chosen | set(candidates[idx])) - current for idx in pool)
        gain = value(chosen | set(candidates[pick])) - current
        assert gain >= best - tol, f"round {rnd}: pick gains {gain}, best is {best}"
        chosen |= set(candidates[pick])
        starts[candidates[pick][0]] += 1


def reference_exact_max_coverage(instance: ps.Instance, k: int, nodes: int | None = None,
                                 cap: int = ps.static_solver.SEARCH_CAP):
    """The branch and bound of ``exact_max_coverage`` written plainly, as
    its oracle: recursion, a boolean covered-road array copied per taken
    node, numpy sums of each node's fresh road weights, and the optimistic
    bound summed from a slice of the singleton coverages at every search
    node.  It visits the same search nodes in the same order, so picks,
    value and the search-cap refusal must agree.  The pool is the first
    ``nodes`` nodes (default: the users).  It recurses once per pool
    node: use it on small pools only."""
    pool = list(range(instance.user_count if nodes is None else nodes))
    rows = instance.sensing.incidence[pool]
    k = min(k, len(pool))
    if k == 0:
        return (), 0.0
    edge_lists = np.split(rows.indices.astype(np.intp), rows.indptr[1:-1])
    weights = instance.sensing.weight_vector
    solo = [float(weights[ids].sum()) for ids in edge_lists]
    order = sorted(range(len(pool)), key=lambda i: (-solo[i], pool[i]))
    solo_in_order = [solo[i] for i in order]

    greedy_picks, greedy_value = ps.static_solver.greedy_max_coverage(instance, k, len(pool))
    best_value = greedy_value
    best_pick = tuple(sorted(greedy_picks))
    visited = 0

    def dfs(pos: int, chosen: list[int], covered: np.ndarray, value: float) -> None:
        nonlocal best_value, best_pick, visited
        visited += 1
        if visited > cap:
            raise ps.InfeasibleError(f"search cap {cap} exceeded")
        if value > best_value:
            best_value = value
            best_pick = tuple(sorted(pool[i] for i in chosen))
        if len(chosen) == k or pos == len(order):
            return
        slots = k - len(chosen)
        optimistic = value + sum(solo_in_order[pos : pos + slots])
        if optimistic <= best_value:
            return
        i = order[pos]
        ids = edge_lists[i]
        fresh = ids[~covered[ids]]
        with_i = covered.copy()
        with_i[fresh] = True
        chosen.append(i)
        dfs(pos + 1, chosen, with_i, value + float(weights[fresh].sum()))
        chosen.pop()
        dfs(pos + 1, chosen, covered, value)

    dfs(0, [], np.zeros(instance.sensing.edge_count, dtype=bool), 0.0)
    return best_pick, best_value


def _reference_distances(locations) -> np.ndarray:
    coords = np.asarray(locations, dtype=np.float64)
    lat, lon = coords[:, 0][:, None], coords[:, 1][:, None]
    dist = ps.haversine_km(lat, lon, lat.T, lon.T)
    np.fill_diagonal(dist, np.inf)
    return dist


def reference_knn_edges(locations, knn: int) -> set[tuple[int, int]]:
    """The symmetrized k-NN edges of ``reference_build_roads``, before its join."""
    dist = _reference_distances(locations)
    n = len(dist)
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        order = np.lexsort((np.arange(n), dist[i]))
        for j in order[: min(knn, n - 1)]:
            edges.add((min(i, int(j)), max(i, int(j))))
    return edges


def reference_build_roads(locations, knn: int) -> tuple[tuple[int, int], ...]:
    """``build_roads`` as first written, as its oracle: a dense distance
    matrix, one ``lexsort`` by (distance, index) per row for the k-NN
    picks, then per extra component a full scan of all pairs for the
    shortest (distance, i, j) cross-component one.  The join is O(n^3) in
    the worst case: use it on small point sets only."""
    dist = _reference_distances(locations)
    n = len(dist)
    edges = reference_knn_edges(locations, knn)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    while len({find(i) for i in range(n)}) > 1:
        best = None
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) != find(j):
                    key = (dist[i, j], i, j)
                    if best is None or key < best:
                        best = key
        _, i, j = best
        edges.add((i, j))
        parent[find(i)] = find(j)
    return tuple(sorted(edges))


def reference_er_edges(rng, node_count: int, edge_prob: float) -> tuple[tuple[int, int], ...]:
    """``pipeline._er_edges`` as first written, as its oracle: one
    ``rng.random()`` draw per pair (i, j), i < j, in row-major order."""
    out = []
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if rng.random() < edge_prob:
                out.append((i, j))
    return tuple(out)


def fresh_interpreter(script: str):
    """The JSON that ``script`` prints last, run in a new interpreter on
    this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
