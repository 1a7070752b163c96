"""Static-setting solvers: greedy user selection, the exhaustive optimum,
greedy and exact maximum coverage, the computable upper bound UB1, and the
closed-form greedy guarantee.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from itertools import accumulate, combinations, islice
from math import comb

import numpy as np

from .errors import InfeasibleError, InputError
from .model import Instance, Selection, SensingGraph, SocialGraph
from .welfare import (
    CoverageState,
    WelfareBreakdown,
    evaluate_selection,
    greedy_cover,
    own_access,
    phi_set_oracle,
)

DEFAULT_ENUMERATION_CAP = 2_000_000
#: Search nodes ``exact_max_coverage`` may visit before a bound reads the
#: coverage table instead.
SEARCH_CAP = 500_000
#: Largest table ``max_vertex_coverage`` builds, in cells: the 2^(width+1)
#: assignments of a node and its neighbours times the count axis.  2^20
#: float64 cells are 8 MB.
DP_MAX_CELLS = 1 << 20
#: Most cell updates ``max_vertex_coverage``'s convolutions may make, about
#: 2 s on a 2-vCPU host: a long, narrow graph passes the cell limit but
#: convolves count axes of thousands of entries.
DP_MAX_WORK = 1 << 28

log = logging.getLogger(__name__)


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


def greedy_max_coverage(
    instance: Instance, k: int, nodes: int | None = None
) -> tuple[tuple[int, ...], float]:
    """Classic greedy max coverage over the incident-edge sets of the first
    ``nodes`` nodes (default: the users): the picks in pick order, ties to
    the lowest node, and the weight they cover."""
    return CoverageSearch(instance, nodes).greedy(max(k, 0))


class CoverageSearch:
    """Everything about max coverage over one pool that no budget changes:
    built once, it serves any number of budgets.

    The pool is the first ``nodes`` nodes (default: the users).  The
    search holds the pool's incidence rows; the nodes sorted by falling
    singleton coverage, ties to the lower node; the optimistic prefix sums
    of that order; each node's road bitmask, built on the node's first
    visit; and the pool's one ``greedy_cover`` run, recorded
    round by round as larger budgets ask for it.  Greedy picks are
    prefix-stable, so the record serves every budget: the branch and
    bound's incumbent, the greedy-prefix bound of a capped search and
    ``greedy_max_coverage`` all read it.

    ``build_table()`` runs ``max_vertex_coverage`` over the pool once, the
    first time ``coverage_upper_bound``'s search caps, into ``table``, the
    best coverage of every budget; ``coverage_upper_bound`` reads every
    later budget from it.  A caller bounding many budgets over one search
    asks for the largest first, so that if its search caps, it builds the
    table and no smaller budget searches.  ``sources`` records, per budget
    bounded, where the bound came from (see ``coverage_upper_bound``), and
    ``visited`` the search nodes of the last search that finished.  Single
    owner; not shareable between threads.
    """

    def __init__(self, instance: Instance, nodes: int | None = None):
        self.instance = instance
        self.size = size = instance.user_count if nodes is None else nodes
        self.rows = instance.sensing.incidence[:size]
        self.weights = instance.sensing.weight_vector
        self.unit = bool((self.weights == 1.0).all())
        solo = (self.rows @ self.weights).tolist()
        self.order = sorted(range(size), key=lambda i: (-solo[i], i))
        # optimistic[p + s] - optimistic[p]: the s largest singletons from position p on
        self.optimistic = list(accumulate((solo[i] for i in self.order), initial=0.0))
        self.optimistic += self.optimistic[-1:] * size
        self.indptr, self.indices = self.rows.indptr.tolist(), self.rows.indices.tolist()
        self.road_weights = self.weights.tolist()
        self.roads: list = [None] * size  # position -> (mask, ((bit, weight), ...))
        self._steps = greedy_cover(self.rows, self.weights)
        self._covered = np.zeros(self.rows.shape[1], dtype=bool)
        self._rounds: list[tuple[int, float, np.ndarray]] = []
        self.visited = 0
        self.sources: dict[int, tuple[str, int]] = {}
        self.table: tuple[list[float], int] | None = None
        self._refused = False  # max_vertex_coverage refused the pool

    def rounds(self, count: int) -> list[tuple[int, float, np.ndarray]]:
        """The first ``count`` greedy rounds, fewer once the pool is used
        up: each round's pick, the weight that the picks so far cover,
        ``weights[covered].sum()``, and the round's scores."""
        for pick, scores in islice(self._steps, max(count - len(self._rounds), 0)):
            self._covered[self.indices[self.indptr[pick] : self.indptr[pick + 1]]] = True
            self._rounds.append((pick, float(self.weights[self._covered].sum()), scores))
        return self._rounds[:count]

    def greedy(self, k: int) -> tuple[tuple[int, ...], float]:
        """The first k greedy picks, in pick order, and the weight they
        cover."""
        steps = self.rounds(k)
        return tuple(i for i, _, _ in steps), steps[-1][1] if steps else 0.0

    def build_table(self) -> None:
        """Run ``max_vertex_coverage`` over the pool into ``table``: the best
        coverage of each budget 0..size, and the width.  ``table``
        stays None when the guards refuse the pool; that is not
        retried."""
        if self.table is None and not self._refused:
            try:
                values, width = max_vertex_coverage(self.instance, self.size)
            except InfeasibleError as refusal:
                log.debug("no coverage table for a pool of %d: %s", self.size, refusal)
                self._refused = True
            else:
                self.table = values.tolist(), width

    def record(self, k: int, value: float, source: str, work: int) -> float:
        """Note that budget k's bound, ``value``, came from ``source`` after
        ``work`` (search nodes, width or greedy rounds), and return it."""
        self.sources[k] = (source, work)
        log.debug("coverage bound k=%d over a pool of %d: %r from %s (%d)",
                  k, self.size, value, source, work)
        return value


def exact_max_coverage(
    instance: Instance,
    k: int,
    cap: int = SEARCH_CAP,
    *,
    search: CoverageSearch | None = None,
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

    The pool, the order, the prefix sums, the masks and the greedy
    incumbent come from ``search``, a ``CoverageSearch`` that a caller
    searching several budgets builds once and passes to each; without one,
    the call searches the users with a ``CoverageSearch(instance)`` of its
    own.

    Raises InfeasibleError when the search would exceed ``cap`` nodes;
    otherwise sets ``search.visited`` to the search nodes visited.
    """
    if search is None:
        search = CoverageSearch(instance)
    size, order, optimistic, roads = search.size, search.order, search.optimistic, search.roads
    indptr, indices, road_weights = search.indptr, search.indices, search.road_weights
    unit = search.unit
    k = min(k, size)
    if k == 0:
        return (), 0.0

    best_pick, best_value = search.greedy(k)
    best_pick = tuple(sorted(best_pick))
    chosen = [0] * k  # chosen[:depth]: the nodes taken on the path
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
                best_pick = tuple(sorted(chosen[:depth]))
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
    search.visited = visited
    return best_pick, best_value


def _elimination_plan(pool: range, shared: dict[int, dict[int, float]]):
    """The min-degree elimination order of the graph of roads between pool
    nodes, ties to the lower node, worked out without building a table.

    Returns one step per node in order, ``(node, its sorted neighbours when
    eliminated, the steps whose tables it absorbs)``, and the width.  The
    table of a step holds the neighbours; it goes to the first of them
    eliminated, or to the end when it holds none.  Raises InfeasibleError
    at the first step whose table would exceed ``DP_MAX_CELLS``, or whose
    convolutions would take the cell updates so far past ``DP_MAX_WORK``:
    convolving count axes of lengths a and b over s assignments updates
    s * a * b cells.
    """
    adjacency = {v: set(shared[v]) for v in pool}
    heap = [(len(adjacency[v]), v) for v in pool]
    heapq.heapify(heap)
    holders: dict[int, list[int]] = {v: [] for v in pool}  # steps whose table holds v
    counts: list[int] = []  # pool nodes eliminated into each step's table
    spent: set[int] = set()  # steps whose table a node has absorbed
    steps = []
    width = work = 0
    finished = 1  # the count axis of the tables that hold no node, convolved
    while heap:
        degree, v = heapq.heappop(heap)
        neighbours = adjacency.get(v)
        if neighbours is None or len(neighbours) != degree:
            continue  # a stale entry
        del adjacency[v]
        absorbed = [i for i in holders.pop(v) if i not in spent]
        count = 1 + sum(counts[i] for i in absorbed)
        cells = (2 << degree) * count
        if cells > DP_MAX_CELLS:
            raise InfeasibleError(
                f"max vertex coverage needs a table of {cells} cells, over the "
                f"limit {DP_MAX_CELLS} (node {v} has {degree} neighbours)"
            )
        length = 1
        for i in absorbed:
            work += (2 << degree) * length * (counts[i] + 1)
            length += counts[i]
        if not neighbours:
            work += finished * (count + 1)
            finished += count
        if work > DP_MAX_WORK:
            raise InfeasibleError(
                f"max vertex coverage would make {work} cell updates by node {v} "
                f"({len(steps)} of {len(pool)} eliminated), over the limit {DP_MAX_WORK}"
            )
        width = max(width, degree)
        spent.update(absorbed)
        for u in neighbours:
            adjacency[u].discard(v)
            adjacency[u].update(neighbours - {u})
            heapq.heappush(heap, (len(adjacency[u]), u))
            holders[u].append(len(steps))
        steps.append((v, sorted(neighbours), absorbed))
        counts.append(count)
    return steps, width


def _max_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-plus convolution along the last (count) axis, broadcasting the
    others: ``out[..., c] = max over i + j = c of a[..., i] + b[..., j]``."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    length = b.shape[-1]
    out = np.full(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (a.shape[-1] + length - 1,),
                  -np.inf)
    for c in range(a.shape[-1]):
        np.maximum(out[..., c : c + length], a[..., c : c + 1] + b, out=out[..., c : c + length])
    return out


def max_vertex_coverage(instance: Instance, nodes: int | None = None) -> tuple[np.ndarray, int]:
    """Exact max coverage over the first ``nodes`` nodes (default: the
    users) for every budget at once, by max-plus bucket elimination
    (Dechter 1999).

    Each pool node is a 0/1 variable.  A road with one pool endpoint, or a
    pool node's self-loop, adds its weight when that node is taken; a road
    between two pool nodes adds it when either is; other roads are never
    covered.  Nodes are eliminated in ``_elimination_plan``'s min-degree
    order.  Eliminating v adds v's roads to the pool nodes not yet
    eliminated to the tables it absorbs and maximises v out.  Each table
    has a count axis as long as the number of pool nodes eliminated into
    it plus one: entry c is the best value with c of them taken, and
    tables combine by a max-plus convolution along it.  The tables left
    holding no node convolve into ``values``, where ``values[c]`` is the
    best coverage by at most c pool nodes, c = 0..nodes.  Max
    k-vertex coverage is fixed-parameter tractable in the treewidth (Guo,
    Niedermeier & Wernicke 2007).  Under unit weights every value is an
    integer, so it equals ``exact_max_coverage``'s bit for bit.

    Returns ``values`` and the width of the order, the most neighbours a
    node had when eliminated.  Raises InfeasibleError, before building
    any table, when one would exceed ``DP_MAX_CELLS`` or all of them would
    take more than ``DP_MAX_WORK`` cell updates.
    """
    pool = range(instance.user_count if nodes is None else nodes)
    own = dict.fromkeys(pool, 0.0)  # weight a node covers whichever others are taken
    shared: dict[int, dict[int, float]] = {v: {} for v in pool}  # roads to other pool nodes
    for (u, v), w in zip(instance.sensing.edges, instance.sensing.weight_vector.tolist()):
        if u != v and v in own:  # u <= v: roads are stored as (min, max)
            shared[u][v] = shared[u].get(v, 0.0) + w
            shared[v][u] = shared[v].get(u, 0.0) + w
        elif u in own:
            own[u] += w
    steps, width = _elimination_plan(pool, shared)

    tables: list[np.ndarray | None] = []
    done: set[int] = set()
    values = np.zeros(1)
    for v, neighbours, absorbed in steps:
        scope = sorted(neighbours + [v])
        axis = scope.index(v)
        table = np.zeros((2,) * len(scope) + (1,))
        taken = [slice(None)] * len(scope)
        taken[axis] = 1
        left = [slice(None)] * len(scope)
        left[axis] = 0
        fresh = [(u, w) for u, w in shared[v].items() if u not in done]
        table[tuple(taken)] += own[v] + sum(w for _, w in fresh)
        for u, w in fresh:  # v left out: the road is covered when u is taken
            left[scope.index(u)] = 1
            table[tuple(left)] += w
            left[scope.index(u)] = slice(None)
        for i in absorbed:
            held = steps[i][1]
            shape = [2 if node in held else 1 for node in scope]
            table = _max_plus(table, tables[i].reshape(shape + [-1]))
            tables[i] = None
        out = np.full(table.shape[:axis] + table.shape[axis + 1 : -1] + (table.shape[-1] + 1,),
                      -np.inf)
        out[..., :-1] = table[tuple(left)]
        np.maximum(out[..., 1:], table[tuple(taken)], out=out[..., 1:])
        done.add(v)
        if neighbours:
            tables.append(out)
        else:
            tables.append(None)
            values = _max_plus(values, out)
    return np.maximum.accumulate(values), width


def _greedy_prefix_coverage_bound(search: CoverageSearch, k: int) -> float:
    """Submodularity bound on optimal k-coverage: along the greedy prefix
    S_0, S_1, ..., the optimum is at most cov(S_t) plus the k largest
    single-node marginals at S_t; take the best t, reading S_t and its
    marginals from ``search``'s greedy record."""
    count = min(k, search.size) + 1
    rounds = search.rounds(count)
    best_bound = float("inf")
    value = 0.0
    for pick, _, scores in rounds:
        marginals = np.sort(scores[scores >= 0.0])[::-1]
        best_bound = min(best_bound, value + sum(marginals[:k].tolist()))
        value += float(scores[pick])
    if len(rounds) < count:  # every node taken
        return min(best_bound, value)
    return best_bound


def coverage_upper_bound(
    instance: Instance,
    k: int,
    cap: int = SEARCH_CAP,
    *,
    search: CoverageSearch | None = None,
) -> float:
    """An upper bound on the best coverage achievable with k nodes, exact
    unless the pool is too large for ``max_vertex_coverage``'s guards.

    Until a search over ``search``'s pool caps, each budget runs the
    branch and bound: source ``exact-search``, with the search nodes it
    visited.  The first search to exceed ``cap`` nodes builds
    ``search.table``, and that budget and every later one read their
    value from it without searching: ``exact-dp``, with the width.  When
    the guards refuse the table, a capped budget gets the smaller of two
    valid relaxations: ``greedy-prefix``, with the greedy rounds
    read.  They are the greedy-prefix submodularity bound and the total
    edge weight.  No other relaxation can be lower: the k largest
    single-node coverages are the prefix bound at t = 0, summed in the
    same order, and the prefix bound's minimum over t is at most
    greedy / (1 - (1 - 1/k)^k), below greedy / (1 - 1/e) (Nemhauser,
    Wolsey & Fisher 1978).  The source is recorded in
    ``search.sources[k]`` and logged at debug level.  ``search`` is as in
    ``exact_max_coverage``.
    """
    if k <= 0:
        return 0.0
    if search is None:
        search = CoverageSearch(instance)
    if search.table is None:
        try:
            value = exact_max_coverage(instance, k, cap=cap, search=search)[1]
        except InfeasibleError:
            search.build_table()
        else:
            return search.record(k, value, "exact-search", search.visited)
    if search.table is not None:
        values, width = search.table
        return search.record(k, values[min(k, len(values) - 1)], "exact-dp", width)
    total = float(instance.sensing.weight_vector.sum())
    rounds = min(k, search.size) + 1
    return search.record(k, min(total, _greedy_prefix_coverage_bound(search, k)),
                         "greedy-prefix", rounds)


def phi_empty(instance: Instance) -> WelfareBreakdown:
    """Welfare before anything is broadcast: each user's row of
    ``own_access`` (the matrix ``CoverageState`` counts columns of) times
    the road weights, summed in road order.  The set route,
    ``broadcast_breakdown(instance, ())``, gives the same values, exactly
    under unit weights."""
    return WelfareBreakdown.from_per_user(own_access(instance) @ instance.sensing.weight_vector)


def welfare_ceiling(instance: Instance) -> float:
    """The welfare of broadcasting every road, which no solution exceeds:
    the total road weight, or with interest profiles the mean over users
    of the weight of each user's interest set."""
    weights = instance.sensing.weight_vector
    prefs = instance.preferences
    if prefs is None:
        return float(weights.sum())
    return WelfareBreakdown.from_per_user(
        weights[sorted(edges)].sum() for edges in prefs.per_user_edges
    ).average


def welfare_bound(
    instance: Instance,
    budget: int,
    nodes: int,
    cap: int,
    base: float | None,
    search: CoverageSearch | None,
) -> float:
    """Base welfare plus the best coverage by ``budget`` of the first
    ``nodes`` nodes (``coverage_upper_bound``: exact unless the pool is
    too large for its table), capped at ``welfare_ceiling``.

    ``base`` is ``phi_empty(instance).average``, computed here when None;
    ``search`` is a ``CoverageSearch(instance, nodes)``, built here when
    None.  A caller bounding many budgets passes both once (see
    ``CoverageSearch`` for the order of budgets).
    """
    if base is None:
        base = phi_empty(instance).average
    if budget <= 0:
        return base
    if search is None:
        search = CoverageSearch(instance, nodes)
    coverage = coverage_upper_bound(instance, min(budget, nodes), cap=cap, search=search)
    return min(welfare_ceiling(instance), base + coverage)


def ub1(
    instance: Instance,
    k: int,
    cap: int = SEARCH_CAP,
    base: float | None = None,
    *,
    search: CoverageSearch | None = None,
) -> float:
    """Upper bound on the static optimum: ``welfare_bound`` of k users."""
    return welfare_bound(instance, k, instance.user_count, cap, base, search)


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
