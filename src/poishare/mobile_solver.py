"""Mobile-setting solvers.

The mobile problem selects k walks of exactly n edges, each starting at a
user node, to maximize average welfare over everything the walks visit.
An augmentation factor g relaxes the one-user-per-start rule to allow up
to g selected walks per start node; algorithms run on the augmented
problem are still judged against the optimum of the unaugmented one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import InfeasibleError, InputError
from .model import Instance, Selection, SensingGraph, Walk, WalkSet, zero_one_matrix
from .static_solver import DEFAULT_ENUMERATION_CAP, coverage_upper_bound, phi_empty, static_bound
from .welfare import (
    CoverageState,
    WelfareBreakdown,
    broadcast_breakdown,
    greedy_cover,
    phi_walks,
)


@dataclass(frozen=True, eq=False)
class WalkSpace:
    """All candidate walks: exactly ``n`` edges, starting at user nodes,
    ordered by (start node, node sequence).  Row i of the read-only int32
    array ``nodes`` is walk i; ``candidates`` (``Walk`` objects) are built
    on first use.
    """

    n: int
    nodes: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def candidates(self) -> tuple[Walk, ...]:
        return tuple(Walk(tuple(row)) for row in self.nodes.tolist())


@dataclass(frozen=True)
class MobileResult:
    """A mobile solution: the walk set, its welfare, the per-step greedy
    trace, and the start nodes the augmentation cap removed mid-search."""

    walks: WalkSet
    welfare: WelfareBreakdown
    trace: tuple[tuple[Walk, float], ...]
    pruned_starts: frozenset[int]


def enumerate_walks(instance: Instance, n: int) -> WalkSpace:
    """Depth-n expansion from every user node, one level at a time: each
    level appends every sorted neighbor of each walk's last node, so rows
    stay in (start node, node sequence) order.  Walks may revisit nodes.

    First the walks of every level are counted by adjacency powers; a level
    of more than ``DEFAULT_ENUMERATION_CAP`` walks is refused with
    InfeasibleError before anything is built.
    """
    if n < 1:
        raise InputError(f"walk length n must be >= 1, got {n}")
    adjacency = zero_one_matrix(instance.sensing.neighbors, instance.node_count)
    first, flat = adjacency.indptr[:-1], adjacency.indices.astype(np.int32)
    degree = np.diff(adjacency.indptr)

    ending = np.zeros(instance.node_count)  # walks ending at each node
    ending[: instance.user_count] = 1.0
    for level in range(1, n + 1):
        count = int(ending @ degree)
        if count > DEFAULT_ENUMERATION_CAP:
            raise InfeasibleError(
                f"refusing to build {count} walks of {level} edges "
                f"(cap {DEFAULT_ENUMERATION_CAP})"
            )
        ending = adjacency.T @ ending

    paths = np.arange(instance.user_count, dtype=np.int32)[:, None]
    for _ in range(n):
        last = paths[:, -1]
        fanout = degree[last]
        block_start = np.cumsum(fanout) - fanout
        step = flat[np.repeat(first[last] - block_start, fanout) + np.arange(fanout.sum())]
        paths = np.column_stack((np.repeat(paths, fanout, axis=0), step))
    paths.flags.writeable = False
    return WalkSpace(n=n, nodes=paths)


def _require_selectable(space: WalkSpace, g: int, k: int) -> None:
    selectable = int(np.minimum(np.bincount(space.nodes[:, 0]), g).sum())
    if selectable < k:
        raise InfeasibleError(
            f"only {selectable} walks selectable under the start cap g={g}, cannot select k={k}"
        )


def _visited_sets(space: WalkSpace, incidence):
    """Distinct visited-node sets of the walks as a set x road boolean CSR
    matrix, and the row of each walk."""
    node_count = incidence.shape[0]
    keys = np.sort(space.nodes, axis=1)
    tail = keys[:, 1:]
    tail[tail == keys[:, :-1]] = node_count  # a repeated node sorts last
    keys.sort(axis=1)
    sets, row_of = np.unique(keys, axis=0, return_inverse=True)
    roads = zero_one_matrix([row[row < node_count] for row in sets], node_count) @ incidence
    roads.sort_indices()
    return roads, row_of.reshape(-1)


def gps(
    instance: Instance,
    n: int,
    k: int,
    g: int,
    space: WalkSpace | None = None,
) -> MobileResult:
    """Greedy path selection with augmentation factor g.

    k rounds of argmax marginal welfare over the live candidate walks;
    once a start node has g selected walks, all of its remaining
    candidates leave the search space.  Ties go to the lexicographically
    least walk.  Walks that visit the same node set share one scored row.
    """
    if k < 1:
        raise InputError(f"budget k must be >= 1, got {k}")
    if not 1 <= g <= k:
        raise InputError(f"augmentation factor must satisfy 1 <= g <= k, got g={g}, k={k}")
    if space is None:
        space = enumerate_walks(instance, n)
    elif space.n != n:
        raise InputError(f"walk space has n={space.n}, requested n={n}")
    _require_selectable(space, g, k)

    state = CoverageState(instance)
    roads, row_of = _visited_sets(space, instance.sensing.incidence)
    rounds = greedy_cover(roads, state.gain, row_of=row_of, groups=space.nodes[:, 0], cap=g)
    trace = tuple(
        (Walk(tuple(space.nodes[pick].tolist())), float(scores[pick]) / state.m)
        for pick, scores in islice(rounds, k)
    )
    # a start's cap prunes only when filled before the last pick
    earlier = [walk.start for walk, _ in trace[:-1]]
    pruned = {start for start in earlier if earlier.count(start) == g}

    walk_set = WalkSet(tuple(walk for walk, _ in trace), augmentation=g)
    welfare = phi_walks(instance, walk_set)
    return MobileResult(
        walks=walk_set,
        welfare=welfare,
        trace=trace,
        pruned_starts=frozenset(pruned),
    )


def intermediate_solution(full_result: MobileResult, g: int) -> WalkSet:
    """Thin out a g=k greedy run to a g-feasible solution: keep, per start
    node, only the g earliest-selected walks."""
    kept: list[Walk] = []
    counts: dict[int, int] = {}
    for walk in full_result.walks.walks:
        c = counts.get(walk.start, 0)
        if c < g:
            kept.append(walk)
            counts[walk.start] = c + 1
    return WalkSet(tuple(kept), augmentation=g)


def _bounce_extension(walk_nodes: tuple[int, ...], from_pos: int, n: int) -> Walk:
    """Grow the suffix of a walk back to n edges by stepping back and forth
    over its own last edge, so no node outside the original walk is
    visited and the result's welfare contribution cannot change."""
    ext = list(walk_nodes[from_pos:])
    if len(ext) == 1:
        ext.append(walk_nodes[from_pos - 1])
    while len(ext) < n + 1:
        ext.append(ext[-2])
    return Walk(tuple(ext))


def adjust_walk_set(walks: WalkSet, n: int) -> WalkSet:
    """Rewrite a walk set so every walk has its own start node, without
    changing the visited node set.

    Walks are grouped by start node; each group's first walk is kept.
    Every other walk is replayed from its first node that no kept walk
    starts at, with the suffix grown back to n edges by bouncing over its
    final edge, so the replacement visits only nodes of the original walk.
    A walk whose nodes all start kept walks is dropped.
    """
    classes: dict[int, list[Walk]] = {}
    for walk in walks.walks:
        classes.setdefault(walk.start, []).append(walk)

    kept: list[Walk] = [group[0] for group in classes.values()]
    starts: set[int] = set(classes.keys())

    for group in classes.values():
        for walk in group[1:]:
            pivot = next((i for i, v in enumerate(walk.nodes) if v not in starts), None)
            if pivot is None:
                continue
            fresh = _bounce_extension(walk.nodes, pivot, n)
            kept.append(fresh)
            starts.add(fresh.start)
    return WalkSet(tuple(kept), augmentation=1)


def adjusted_gps(
    instance: Instance, n: int, k: int, space: WalkSpace | None = None
) -> MobileResult:
    """Post-processed greedy path selection for all-user sensing graphs.

    Runs gps with g = k, then rewrites its output to pairwise-distinct
    start nodes via ``adjust_walk_set``; the rewrite preserves the visited
    node set, hence the welfare.  When rewriting drops walks (all their
    nodes already start kept walks), the solution is topped back up to k
    walks from unused start nodes, preferring candidates confined to
    already-visited nodes.
    """
    if instance.user_count != instance.node_count:
        raise InfeasibleError(
            "adjusted greedy path selection requires every sensing node to be "
            f"a user node (users={instance.user_count}, nodes={instance.node_count})"
        )
    if space is None:
        space = enumerate_walks(instance, n)
    base = gps(instance, n, k, g=k, space=space)

    adjusted = adjust_walk_set(base.walks, n)
    kept = list(adjusted.walks)
    if len(kept) < k:
        _pad_distinct_starts(kept, space, base, k)

    walk_set = WalkSet(tuple(kept), augmentation=1)
    welfare = phi_walks(instance, walk_set)
    return MobileResult(
        walks=walk_set,
        welfare=welfare,
        trace=base.trace,
        pruned_starts=base.pruned_starts,
    )


def _pad_distinct_starts(
    kept: list[Walk], space: WalkSpace, base: MobileResult, k: int
) -> None:
    """Top a short adjusted solution back up to k walks.

    Replacements must use fresh start nodes; candidates confined to
    already-visited nodes are preferred because they provably leave the
    welfare unchanged.
    """
    starts = {w.start for w in kept}
    visited = set(base.walks.visited_nodes)
    for walk in kept:
        visited.update(walk.nodes)
    neutral = [
        w for w in space.candidates if w.start not in starts and set(w.nodes) <= visited
    ]
    others = [w for w in space.candidates if w.start not in starts]
    for pool in (neutral, others):
        for walk in pool:
            if len(kept) == k:
                return
            if walk.start in starts:
                continue
            kept.append(walk)
            starts.add(walk.start)
    if len(kept) < k:
        raise InfeasibleError(
            f"cannot assemble {k} walks with distinct start nodes "
            f"(only {len(kept)} available)"
        )


def brute_force_mobile(
    instance: Instance,
    n: int,
    k: int,
    g: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
    space: WalkSpace | None = None,
) -> MobileResult:
    """Exact mobile optimum under the start cap, by exhausting unions of
    candidate visited-node sets.

    Welfare depends on a walk set only through its visited nodes, so walks
    are deduplicated to the maximal visited sets per start node before
    enumeration; values come straight from the set-route welfare oracle.
    """
    if k < 1:
        raise InputError(f"budget k must be >= 1, got {k}")
    if g < 1:
        raise InputError(f"augmentation factor must be >= 1, got {g}")
    if space is None:
        space = enumerate_walks(instance, n)
    _require_selectable(space, g, k)

    # One representative walk per distinct (start, visited set); drop sets
    # contained in another set with the same start.
    by_start: dict[int, dict[frozenset[int], Walk]] = {}
    for walk in space.candidates:
        group = by_start.setdefault(walk.start, {})
        group.setdefault(frozenset(walk.nodes), walk)
    reps: list[tuple[int, frozenset[int], Walk]] = []
    for start, group in sorted(by_start.items()):
        node_sets = list(group)
        for nodes in node_sets:
            if any(nodes < other for other in node_sets):
                continue
            reps.append((start, nodes, group[nodes]))

    total = sum(comb(len(reps), size) for size in range(1, min(k, len(reps)) + 1))
    if total > cap:
        raise InfeasibleError(
            f"refusing to enumerate {total} candidate walk subsets (cap {cap})"
        )

    value_cache: dict[frozenset[int], float] = {}

    def value_of(visited: frozenset[int]) -> float:
        if visited not in value_cache:
            value_cache[visited] = broadcast_breakdown(instance, visited).average
        return value_cache[visited]

    best_value = -1.0
    best_combo: tuple[tuple[int, frozenset[int], Walk], ...] = ()

    for size in range(min(k, len(reps)), 0, -1):
        for combo in combinations(reps, size):
            counts: dict[int, int] = {}
            ok = True
            for start, _, _ in combo:
                counts[start] = counts.get(start, 0) + 1
                if counts[start] > g:
                    ok = False
                    break
            if not ok:
                continue
            visited = frozenset().union(*(nodes for _, nodes, _ in combo))
            value = value_of(visited)
            if value > best_value:
                best_value = value
                best_combo = combo

    walks = [walk for _, _, walk in best_combo]
    counts = {}
    for w in walks:
        counts[w.start] = counts.get(w.start, 0) + 1
    for walk in space.candidates:
        if len(walks) == k:
            break
        if counts.get(walk.start, 0) >= g or walk in walks:
            continue
        walks.append(walk)
        counts[walk.start] = counts.get(walk.start, 0) + 1

    walk_set = WalkSet(tuple(walks), augmentation=g)
    welfare = phi_walks(instance, walk_set)
    return MobileResult(
        walks=walk_set, welfare=welfare, trace=(), pruned_starts=frozenset()
    )


def ub2(
    instance: Instance, n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP, base: float | None = None
) -> float:
    """Upper bound on the mobile optimum: base welfare plus the best
    coverage reachable by k*(n+1) sensing nodes (any nodes, not just
    users).

    k walks of n edges visit at most k*(n+1) distinct nodes, so this
    dominates every feasible solution; a budget of n*k nodes does not,
    and small instances exist where it undercuts the true optimum.
    ``base`` is ``phi_empty(instance).average``, computed here when not
    given; a caller bounding many budgets passes it once.
    """
    if n < 1:
        raise InputError(f"walk length n must be >= 1, got {n}")
    if base is None:
        base = phi_empty(instance).average
    if k <= 0:
        return base
    budget = min(k * (n + 1), instance.node_count)
    pool = list(range(instance.node_count))
    return base + coverage_upper_bound(instance, budget, pool=pool, cap=cap)


def mobile_bound(k: int, varpi: int, g: int) -> float:
    """Worst-case guarantee of greedy path selection with augmentation g:
    a (g/k) share of the full-augmentation guarantee."""
    if k < 1 or varpi < 1:
        raise InputError(f"mobile_bound needs k >= 1 and varpi >= 1, got k={k}, varpi={varpi}")
    if not 1 <= g <= k:
        raise InputError(f"augmentation factor must satisfy 1 <= g <= k, got g={g}, k={k}")
    return (g / k) * static_bound(k, varpi)


# ---------------------------------------------------------------------------
# Hardness reduction gadget
# ---------------------------------------------------------------------------


def mobile_reduction_instance(static_instance: Instance, n: int) -> Instance:
    """Attach to every user a private n-edge tail ending in a fan of |E1|
    leaves, where E1 is the static edge set.

    Broadcast roads reach every user, so walking user i's tail adds its
    n + |E1| private roads to all m users.  The tail's first road (i, tail)
    is also incident to user i, so anyone who reaches i socially sees it
    even when i is not selected: it acts as a pendant road at i.  Let G1+
    be the input plus one unit pendant road ``(i, fresh non-user node)`` per
    user, with the same social graph and radius.  Then, exactly,

        phi_reduced(tails(S)) = phi_G1+(S) + |S| * (n - 1 + |E1|).

    With unit weights, swapping every walk for its start's tail walk never
    lowers welfare.  A walk that takes a road of G1 cannot reach its own
    fan, whose |E1| roads no user sees otherwise, nor the tail roads it
    spends no steps on; it gains at most one road outside G1 per step spent
    away from its own tail, and the tail walks miss at most |E1| - 1 roads
    of G1 in all, since the first G1 road a walk takes touches its start.
    Hence

        OPT_mobile(reduced, k) = OPT_static(G1+, k) + k * (n - 1 + |E1|),

    which ties the mobile problem on the result to the static problem on
    G1+, not on the input: a static optimum of the input need not lift to a
    mobile optimum.  Dummy nodes are non-users; layout is deterministic:
    user i's dummy block starts at node ``node_count + i * (n + |E1|)``,
    tail first, fan after.
    """
    if n < 1:
        raise InputError(f"tail length n must be >= 1, got {n}")
    if static_instance.preferences is not None:
        raise InputError("reduction is defined for instances without preferences")
    g1 = static_instance.sensing
    m = g1.user_count
    e1 = g1.edge_count
    block = n + e1
    node_count = g1.node_count + m * block

    edges: list[tuple[int, int]] = list(g1.edges)
    for i in range(m):
        base = g1.node_count + i * block
        tail = [i] + [base + j for j in range(n)]
        edges.extend((tail[j], tail[j + 1]) for j in range(n))
        edges.extend((tail[n], base + n + j) for j in range(e1))

    sensing = SensingGraph(
        node_count=node_count,
        user_count=m,
        edges=tuple(edges),
        edge_weights=None if g1.edge_weights is None else g1.edge_weights + (1.0,) * (m * block),
    )
    return Instance(
        sensing=sensing,
        social=static_instance.social,
        preferences=None,
        social_hop_radius=static_instance.social_hop_radius,
    )


def reduction_tail_walk(static_instance: Instance, n: int, user: int) -> Walk:
    """The walk straight down ``user``'s private tail on the reduction
    instance.  It broadcasts the tail's n roads and the fan's |E1| roads;
    with unit weights no walk set beats the best set of tail walks (see
    ``mobile_reduction_instance``)."""
    g1 = static_instance.sensing
    if not 0 <= user < g1.user_count:
        raise InputError(f"user index {user} out of range [0, {g1.user_count})")
    base = g1.node_count + user * (n + g1.edge_count)
    return Walk((user,) + tuple(base + j for j in range(n)))


def reduction_tail_walks(static_instance: Instance, n: int, selection: Selection) -> WalkSet:
    """Tail walks for every selected user (distinct starts by construction)."""
    walks = tuple(reduction_tail_walk(static_instance, n, u) for u in selection.users)
    return WalkSet(walks, augmentation=1)
