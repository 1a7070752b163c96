"""Static-setting solvers: greedy user selection, the exhaustive optimum,
greedy and exact maximum coverage, the computable upper bound UB1, and the
closed-form greedy guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, islice
from math import comb

import numpy as np

from .errors import InfeasibleError, InputError
from .model import Instance, Selection, SensingGraph, SocialGraph
from .welfare import (
    CoverageState,
    WelfareBreakdown,
    broadcast_breakdown,
    evaluate_selection,
    greedy_cover,
    phi_set_oracle,
)

DEFAULT_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class StaticResult:
    """A static solution with its welfare and the per-step greedy trace."""

    selection: Selection
    welfare: WelfareBreakdown
    trace: tuple[tuple[int, float], ...]


def greedy_user_trace(
    instance: Instance, k: int
) -> tuple[tuple[tuple[int, float], ...], list[float]]:
    """The greedy loop behind ``gus``: k rounds, each picking the unselected
    user with the largest marginal welfare, ties to the lowest index.

    Returns the trace, one ``(user, gain)`` per round, and the average
    welfare after each pick.  Greedy picks are prefix-stable, so one run
    at the largest budget serves every smaller one.

    Each user is priced with one ``CoverageState.gain_from_nodes`` call
    per unselected user per round only because the benchmark's tracer test
    counts those calls.
    """
    m = instance.user_count
    if not 1 <= k <= m:
        raise InputError(f"budget k={k} must satisfy 1 <= k <= {m}")

    state = CoverageState(instance)
    trace: list[tuple[int, float]] = []
    averages: list[float] = []
    chosen: set[int] = set()
    for _ in range(k):
        gains = [-1.0 if v in chosen else state.gain_from_nodes((v,)) for v in range(m)]
        user = int(np.argmax(gains))  # the first maximum: ties to the lowest index
        state.add_nodes((user,))
        chosen.add(user)
        trace.append((user, gains[user]))
        averages.append(state.average())
    return tuple(trace), averages


def gus(instance: Instance, k: int, route: str = "set") -> StaticResult:
    """Greedy user selection: ``greedy_user_trace``'s k picks, with their
    welfare evaluated through ``route``.

    ``route`` picks how the final welfare is evaluated ('set', 'matrix',
    or 'both' with cross-checking); candidate scoring always uses the
    incremental set route, whose gains match either route exactly.
    """
    trace, _ = greedy_user_trace(instance, k)
    selection = Selection(tuple(user for user, _ in trace))
    welfare = evaluate_selection(instance, selection, route=route)
    return StaticResult(selection=selection, welfare=welfare, trace=trace)


def brute_force_static(
    instance: Instance, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> StaticResult:
    """Exact optimum by exhausting every k-subset of users.

    Deliberately evaluates each subset with the plain set oracle so the
    result is independent of the incremental machinery it is used to
    check.  Returns the lexicographically least optimal selection.
    """
    m = instance.user_count
    if k > m:
        raise InputError(f"budget k={k} exceeds user count {m}")
    if k < 0:
        raise InputError(f"budget k={k} must be non-negative")
    n_subsets = comb(m, k)
    if n_subsets > cap:
        raise InfeasibleError(
            f"refusing to enumerate C({m},{k}) = {n_subsets} subsets (cap {cap})"
        )
    best: WelfareBreakdown | None = None
    best_users: tuple[int, ...] = ()
    for combo in combinations(range(m), k):
        breakdown = phi_set_oracle(instance, Selection(combo))
        if best is None or breakdown.average > best.average:
            best = breakdown
            best_users = combo
    assert best is not None
    return StaticResult(selection=Selection(best_users), welfare=best, trace=())


# ---------------------------------------------------------------------------
# Maximum coverage (the set-cover conversion)
# ---------------------------------------------------------------------------


def _pool_rows(instance: Instance, pool):
    """The pool (default: the user nodes) and its rows of the incidence."""
    pool = list(range(instance.user_count)) if pool is None else list(pool)
    return pool, instance.sensing.incidence[pool]


def greedy_max_coverage(instance: Instance, k: int, pool=None) -> tuple[tuple[int, ...], float]:
    """Classic greedy max coverage over the incident-edge sets of ``pool``
    (default: the user nodes).  Ties to the lowest pool position."""
    pool, rows = _pool_rows(instance, pool)
    weights = instance.sensing.weight_vector
    picks = [i for i, _ in islice(greedy_cover(rows, weights), max(k, 0))]
    covered = np.zeros(instance.sensing.edge_count, dtype=bool)
    covered[rows[picks].indices] = True
    return tuple(pool[i] for i in picks), float(weights[covered].sum())


def exact_max_coverage(
    instance: Instance, k: int, pool=None, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[int, ...], float]:
    """Exact max coverage by branch and bound with coverage-sum pruning.

    Pool nodes are ordered by falling singleton coverage, ties to the
    lower node.  The search is depth first over that order: each search
    node decides the next pool node, taking it first and then leaving it
    out, so search nodes are visited in preorder with the "take" branch
    first.  A search node is cut once its coverage plus the largest
    singleton coverages that could still be added cannot beat the
    incumbent, which starts as the greedy cover.

    The covered roads are one integer bitset.  Each pool node's roads
    become a mask plus ``(bit, weight)`` pairs on the node's first visit;
    under unit weights a node's fresh coverage is the popcount of its
    uncovered mask bits.  The search runs on an explicit stack: it steps
    straight into the "take" child and stacks the "leave" child, so its
    depth is not limited by the recursion limit.  Returns the sorted picks
    of the first best cover found, and its value.

    Raises InfeasibleError when the search would exceed ``cap`` nodes.
    """
    pool, rows = _pool_rows(instance, pool)
    size = len(pool)
    k = min(k, size)
    if k == 0:
        return (), 0.0
    weights = instance.sensing.weight_vector
    unit = bool((weights == 1.0).all())
    solo = (rows @ weights).tolist()
    order = sorted(range(size), key=lambda i: (-solo[i], pool[i]))
    # optimistic[p + s] - optimistic[p]: the s largest singletons from position p on
    optimistic = list(accumulate((solo[i] for i in order), initial=0.0))
    optimistic += optimistic[-1:] * k
    indptr, indices = rows.indptr.tolist(), rows.indices.tolist()
    road_weights = weights.tolist()
    roads: list = [None] * size  # position -> (mask, ((bit, weight), ...))

    greedy_picks, best_value = greedy_max_coverage(instance, k, pool)
    best_pick = tuple(sorted(greedy_picks))
    chosen = [0] * k  # chosen[:depth]: the pool indices taken on the path
    stack = [(0, 0, 0, 0.0)]  # (position, picks taken, covered bitset, value)
    visited = 0
    while stack:
        pos, depth, covered, value = stack.pop()
        while True:
            visited += 1
            if visited > cap:
                raise InfeasibleError(
                    f"exact max coverage exceeded search cap {cap} "
                    f"(pool {size}, k {k})"
                )
            if value > best_value:
                best_value = value
                best_pick = tuple(sorted(pool[i] for i in chosen[:depth]))
            if depth == k or pos == size:
                break
            if value + (optimistic[pos + k - depth] - optimistic[pos]) <= best_value:
                break
            node = roads[pos]
            if node is None:
                i = order[pos]
                pairs = tuple((1 << e, road_weights[e]) for e in indices[indptr[i] : indptr[i + 1]])
                node = roads[pos] = (sum(bit for bit, _ in pairs), pairs)
            mask, pairs = node
            stack.append((pos + 1, depth, covered, value))
            chosen[depth] = order[pos]
            fresh = mask & ~covered
            if unit:
                value += fresh.bit_count()
            else:
                value += sum(w for bit, w in pairs if fresh & bit)
            pos += 1
            depth += 1
            covered |= mask
    return best_pick, best_value


def _greedy_prefix_coverage_bound(instance: Instance, k: int, pool) -> float:
    """Submodularity bound on optimal k-coverage: along the greedy prefix
    S_0, S_1, ..., the optimum is at most cov(S_t) plus the k largest
    single-node marginals at S_t; take the best t."""
    pool, rows = _pool_rows(instance, pool)
    rounds = greedy_cover(rows, instance.sensing.weight_vector)
    best_bound = float("inf")
    value = 0.0
    for _ in range(min(k, len(pool)) + 1):
        step = next(rounds, None)
        if step is None:  # every node taken
            return min(best_bound, value)
        pick, scores = step
        marginals = np.sort(scores[scores >= 0.0])[::-1]
        best_bound = min(best_bound, value + sum(marginals[:k].tolist()))
        value += float(scores[pick])
    return best_bound


def coverage_upper_bound(
    instance: Instance, k: int, pool=None, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """An upper bound on the best coverage achievable with k nodes.

    Exact when branch and bound finishes under ``cap``; otherwise the
    smaller of two valid relaxations: the greedy-prefix submodularity
    bound and the total edge weight.  No other relaxation can be lower:
    the k largest single-node coverages are the prefix bound at t = 0,
    summed in the same order, and the prefix bound's minimum over t is at
    most greedy / (1 - (1 - 1/k)^k), below greedy / (1 - 1/e) (Nemhauser,
    Wolsey & Fisher 1978).
    """
    if k <= 0:
        return 0.0
    try:
        return exact_max_coverage(instance, k, pool, cap=cap)[1]
    except InfeasibleError:
        total = float(instance.sensing.weight_vector.sum())
        return min(total, _greedy_prefix_coverage_bound(instance, k, pool))


def phi_empty(instance: Instance) -> WelfareBreakdown:
    """Welfare before anything is broadcast."""
    return broadcast_breakdown(instance, ())


def ub1(
    instance: Instance, k: int, cap: int = DEFAULT_ENUMERATION_CAP, base: float | None = None
) -> float:
    """Upper bound on the static optimum: base welfare plus the best
    k-user coverage (exact when affordable, safely relaxed otherwise).

    ``base`` is ``phi_empty(instance).average``, computed here when not
    given; a caller bounding many budgets passes it once.
    """
    if base is None:
        base = phi_empty(instance).average
    if k <= 0:
        return base
    return base + coverage_upper_bound(instance, min(k, instance.user_count), cap=cap)


def static_bound(k: int, m: int) -> float:
    """Worst-case guarantee of greedy user selection with budget k over m
    users; equals 1 at k = 1 and tends to 1 - 1/e as both grow."""
    if k < 1 or m < 1:
        raise InputError(f"static_bound needs k >= 1 and m >= 1, got k={k}, m={m}")
    return 1.0 - ((m - 2) / m) * ((k - 1) / k) ** k


def vcp_reduction_instance(node_count: int, edges) -> Instance:
    """Instance on which full welfare is reachable with budget k exactly
    when the input graph has a vertex cover of size k: the sensing graph
    is the input graph with every node a user, the social graph is empty.
    """
    norm = []
    seen = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"vertex-cover input must be simple, got self-loop ({u},{v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"vertex-cover input must be simple, got duplicate edge {key}")
        seen.add(key)
        norm.append(key)
    sensing = SensingGraph(node_count=node_count, user_count=node_count, edges=tuple(norm))
    social = SocialGraph(user_count=node_count, edges=())
    return Instance(sensing=sensing, social=social)
