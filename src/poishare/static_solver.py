"""Static-setting solvers: greedy user selection, the exhaustive optimum,
the max-coverage baseline, the computable upper bound UB1, and the
closed-form greedy guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
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


def gus(instance: Instance, k: int, route: str = "set") -> StaticResult:
    """Greedy user selection: k rounds, each picking the unselected user
    with the largest marginal welfare, ties to the lowest index.

    ``route`` picks how the final welfare is evaluated ('set', 'matrix',
    or 'both' with cross-checking); candidate scoring always uses the
    incremental set route, whose gains match either route exactly.

    Each user is priced with ``CoverageState.gain_from_nodes``, one call
    per unselected user per round, rather than by ``greedy_cover``: the
    benchmark's tracer test counts those calls.
    """
    m = instance.user_count
    if not 1 <= k <= m:
        raise InputError(f"budget k={k} must satisfy 1 <= k <= {m}")

    state = CoverageState(instance)
    trace: list[tuple[int, float]] = []
    chosen: set[int] = set()
    for _ in range(k):
        gains = [-1.0 if v in chosen else state.gain_from_nodes((v,)) for v in range(m)]
        user = int(np.argmax(gains))  # the first maximum: ties to the lowest index
        state.add_nodes((user,))
        chosen.add(user)
        trace.append((user, gains[user]))
    selection = Selection(tuple(user for user, _ in trace))
    welfare = evaluate_selection(instance, selection, route=route)
    return StaticResult(selection=selection, welfare=welfare, trace=tuple(trace))


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

    Raises InfeasibleError when the search would exceed ``cap`` nodes.
    """
    pool, rows = _pool_rows(instance, pool)
    k = min(k, len(pool))
    if k == 0:
        return (), 0.0
    edge_lists = np.split(rows.indices.astype(np.intp), rows.indptr[1:-1])
    weights = instance.sensing.weight_vector
    solo = [float(weights[ids].sum()) for ids in edge_lists]
    order = sorted(range(len(pool)), key=lambda i: (-solo[i], pool[i]))
    solo_in_order = [solo[i] for i in order]

    greedy_picks, greedy_value = greedy_max_coverage(instance, k, pool)
    best_value = greedy_value
    best_pick = tuple(sorted(greedy_picks))
    visited = 0

    def dfs(pos: int, chosen: list[int], covered: np.ndarray, value: float) -> None:
        nonlocal best_value, best_pick, visited
        visited += 1
        if visited > cap:
            raise InfeasibleError(
                f"exact max coverage exceeded search cap {cap} "
                f"(pool {len(pool)}, k {k})"
            )
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


def max_coverage_baseline(
    instance: Instance, k: int, mode: str = "greedy", cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Selection, float]:
    """Selection by maximum edge coverage only, ignoring social sharing.

    Greedy mode is the standard (1 - 1/e) heuristic; exact mode exhausts
    within ``cap`` and refuses beyond it.
    """
    if k > instance.user_count:
        raise InputError(f"budget k={k} exceeds user count {instance.user_count}")
    if mode == "greedy":
        picks, value = greedy_max_coverage(instance, k)
    elif mode == "exact":
        picks, value = exact_max_coverage(instance, k, cap=cap)
    else:
        raise InputError(f"unknown coverage mode {mode!r}")
    return Selection(picks), value


def _greedy_prefix_coverage_bound(instance: Instance, k: int, pool) -> float:
    """Submodularity bound on optimal k-coverage: along the greedy prefix
    S_0, S_1, ..., the optimum is at most cov(S_t) plus the k largest
    single-node marginals at S_t; take the best t."""
    _, rows = _pool_rows(instance, pool)
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
    cheapest of several valid relaxations: the greedy-prefix
    submodularity bound, greedy inflated by 1/(1 - 1/e), the k largest
    single-node coverages summed, and the total edge weight.
    """
    if k <= 0:
        return 0.0
    pool, rows = _pool_rows(instance, pool)
    try:
        _, value = exact_max_coverage(instance, k, pool, cap=cap)
        return value
    except InfeasibleError:
        pass
    weights = instance.sensing.weight_vector
    _, greedy_value = greedy_max_coverage(instance, k, pool)
    solo = sorted((rows @ weights).tolist(), reverse=True)
    top_k = sum(solo[: min(k, len(solo))])
    total = float(weights.sum())
    prefix_bound = _greedy_prefix_coverage_bound(instance, k, pool)
    return min(greedy_value / (1.0 - 1.0 / np.e), top_k, total, prefix_bound)


def phi_empty(instance: Instance) -> WelfareBreakdown:
    """Welfare before anything is broadcast."""
    return broadcast_breakdown(instance, ())


def ub1(instance: Instance, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Upper bound on the static optimum: base welfare plus the best
    k-user coverage (exact when affordable, safely relaxed otherwise)."""
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
