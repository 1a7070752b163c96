"""Welfare evaluation: how much road information each user can access.

A user reaches information from three sources: roads at her own location,
roads her (hop-limited) social circle senses, and whatever the system
broadcasts, which is the road set touched by the selected users (static
setting) or by every node the recommended walks visit (mobile setting).
Her utility is the total weight of reachable roads, optionally intersected
with her personal interest set; welfare is the average utility over users.

Two independent evaluation routes are provided and must agree exactly:

- the *set route*: direct unions of incident-edge sets;
- the *matrix route*: the closed form on sparse matrices.  ``A`` is the
  weighted adjacency of the sensing graph and ``d`` its row sums.  ``B``
  is the node x user reach matrix: 1 on each user's own node and between
  users within the social hop radius, with the row of every
  broadcasting/visited node set to all ones.  Every user's utility is then

      phi = d B - 0.5 * colsum(B o (A B))

  ``d B`` counts a road once per reachable endpoint, so roads with both
  endpoints reachable are counted twice; ``colsum(B o (A B))`` is twice
  their weight, and the second term removes the double count.  Without
  interest sets this is one expression for all users; with them, ``A``
  is masked to each user's interesting roads and the expression is taken
  per user.

The matrix route exists to be checked against.  The solvers price
candidates through ``CoverageState``, which reduces welfare to a weighted
maximum coverage (a base total plus a per-road gain), and ``greedy_cover``,
which prices every candidate of a round with one sparse matrix-vector
product of a candidate x road incidence matrix and the gains of the roads
still uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: scipy.sparse is imported where a matrix is built
    from scipy import sparse

from .errors import CrosscheckError, InputError
from .model import (
    Instance,
    Selection,
    Walk,
    WalkSet,
    check_selection,
    check_walk,
    incident_edges,
    zero_one_matrix,
)

#: Absolute tolerance for route agreement under non-uniform edge weights.
#: Uniform-weight instances must agree exactly.
WEIGHTED_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class WelfareBreakdown:
    """Per-user utility values and their average."""

    per_user: tuple[float, ...]
    average: float

    @classmethod
    def from_per_user(cls, per_user) -> "WelfareBreakdown":
        values = tuple(float(v) for v in per_user)
        return cls(per_user=values, average=sum(values) / len(values))


# ---------------------------------------------------------------------------
# Set route
# ---------------------------------------------------------------------------


def broadcast_breakdown(instance: Instance, broadcast_nodes) -> WelfareBreakdown:
    """Welfare when the nodes in ``broadcast_nodes`` are shared with everyone.

    This is the common core of both settings: a selection broadcasts the
    selected user nodes, a walk set broadcasts every visited node.
    """
    g1 = instance.sensing
    prefs = instance.preferences
    weight = g1.weight_vector.tolist().__getitem__
    extra = set(broadcast_nodes)
    per_user = []
    for i, base in enumerate(instance.social_reach):
        edge_ids = incident_edges(g1, base | extra)
        if prefs is not None:
            # a generator keeps the set's iteration order; an intersection may not
            interest = prefs.per_user_edges[i]
            edge_ids = (e for e in edge_ids if e in interest)
        per_user.append(float(sum(map(weight, edge_ids))))
    return WelfareBreakdown.from_per_user(per_user)


def phi_set_oracle(instance: Instance, selection: Selection) -> WelfareBreakdown:
    """Welfare of a static selection by direct set unions."""
    check_selection(instance, selection)
    return broadcast_breakdown(instance, selection.users)


def phi_walks_set(instance: Instance, walks: WalkSet) -> WelfareBreakdown:
    """Welfare of a walk set by direct set unions over visited nodes."""
    for w in walks.walks:
        check_walk(instance, w)
    return broadcast_breakdown(instance, walks.visited_nodes)


# ---------------------------------------------------------------------------
# Matrix route
# ---------------------------------------------------------------------------


def sensing_matrix(
    instance: Instance, interest: frozenset[int] | None = None
) -> sparse.csr_array:
    """Symmetric weighted adjacency ``A`` of the sensing graph, as CSR.

    ``interest`` restricts to an edge subset (per-user variant).  A
    self-loop stores twice its weight: once for each incidence the column
    sum attributes to it, which keeps both the column-sum identity and the
    double-count correction exact.
    """
    from scipy import sparse

    g1 = instance.sensing
    ends = np.array(g1.edges, dtype=np.intp).reshape(-1, 2)
    weights = g1.weight_vector
    if interest is not None:
        keep = np.zeros(g1.edge_count, dtype=bool)
        keep[np.fromiter(interest, dtype=np.intp, count=len(interest))] = True
        ends, weights = ends[keep], weights[keep]
    # Both orientations of every edge; a self-loop's two land on one cell
    # and are summed.
    rows = np.concatenate((ends[:, 0], ends[:, 1]))
    cols = np.concatenate((ends[:, 1], ends[:, 0]))
    size = instance.node_count
    return sparse.csr_array(
        (np.concatenate((weights, weights)), (rows, cols)), shape=(size, size)
    )


def social_matrix(instance: Instance, broadcast_rows=()) -> sparse.csr_array:
    """Node x user reach matrix ``B``, as CSR.

    Column x is 1 on user x's own node and on every user within the social
    hop radius of x.  Each node in ``broadcast_rows`` gets a row of ones (it
    reaches every user); its column is untouched, since a broadcaster gains
    nothing from its own broadcast, so symmetry is gone.
    """
    from scipy import sparse

    m = instance.user_count
    rows = [sorted(reach) for reach in instance.social_reach]
    rows += [()] * (instance.node_count - m)
    for v in broadcast_rows:
        rows[v] = range(m)
    return sparse.csr_array(zero_one_matrix(rows, m), dtype=np.float64)


def _closed_form(a: sparse.csr_array, b):
    """``d B - 0.5 * colsum(B o (A B))`` for every column of ``b``, a sparse
    array or one dense column, where ``d`` holds the row sums of ``a``."""
    d = a.sum(axis=1)
    return d @ b - 0.5 * (b * (a @ b)).sum(axis=0)


def _matrix_breakdown(instance: Instance, broadcast_rows) -> WelfareBreakdown:
    b = social_matrix(instance, broadcast_rows)
    prefs = instance.preferences
    if prefs is None:
        per_user = _closed_form(sensing_matrix(instance), b)
    else:
        b = b.tocsc()
        per_user = []
        for x in range(instance.user_count):
            column = np.zeros(instance.node_count)
            column[b.indices[b.indptr[x] : b.indptr[x + 1]]] = 1.0
            a = sensing_matrix(instance, prefs.per_user_edges[x])
            per_user.append(_closed_form(a, column))
    return WelfareBreakdown.from_per_user(per_user)


def phi_selection_matrix(instance: Instance, selection: Selection) -> WelfareBreakdown:
    """Matrix-route welfare of a static selection, with or without
    interest profiles."""
    check_selection(instance, selection)
    return _matrix_breakdown(instance, selection.users)


def phi_walks_matrix(instance: Instance, walks: WalkSet) -> WelfareBreakdown:
    """Matrix-route welfare of a walk set: every visited node's row is
    forced to one before the product is taken."""
    for w in walks.walks:
        check_walk(instance, w)
    return _matrix_breakdown(instance, walks.visited_nodes)


# ---------------------------------------------------------------------------
# Route dispatch and cross-checking
# ---------------------------------------------------------------------------

ROUTES = ("set", "matrix", "both")


def _check_agreement(instance: Instance, left: WelfareBreakdown, right: WelfareBreakdown) -> None:
    exact = instance.sensing.edge_weights is None
    tol = 0.0 if exact else WEIGHTED_EQUALITY_TOL
    for i, (a, b) in enumerate(zip(left.per_user, right.per_user)):
        if not abs(a - b) <= tol:
            raise CrosscheckError(
                f"evaluation routes disagree for user {i}: set={a!r} matrix={b!r}"
            )


def _by_route(instance: Instance, route: str, by_set, by_matrix, broadcast) -> WelfareBreakdown:
    """Welfare of ``broadcast`` by the set route, the matrix route, or with
    ``route='both'`` the matrix route and then the set route, raising
    CrosscheckError on any disagreement (exact under uniform weights) and
    returning the set route's values."""
    if route not in ROUTES:
        raise InputError(f"unknown route {route!r}, expected one of {ROUTES}")
    if route == "set":
        return by_set(instance, broadcast)
    matrix = by_matrix(instance, broadcast)
    if route == "matrix":
        return matrix
    oracle = by_set(instance, broadcast)
    _check_agreement(instance, oracle, matrix)
    return oracle


def evaluate_selection(instance: Instance, selection: Selection, route: str = "set") -> WelfareBreakdown:
    """Welfare of a selection via the requested route (``'both'`` cross-checks)."""
    return _by_route(instance, route, phi_set_oracle, phi_selection_matrix, selection)


def phi_walks(instance: Instance, walks: WalkSet, route: str = "set") -> WelfareBreakdown:
    """Welfare of a walk set via the requested route (``'both'`` cross-checks)."""
    return _by_route(instance, route, phi_walks_set, phi_walks_matrix, walks)


# ---------------------------------------------------------------------------
# Incremental evaluation
# ---------------------------------------------------------------------------


def own_access(instance: Instance) -> sparse.csc_matrix:
    """Users x roads boolean matrix in CSC form, true where a road touches
    a node of the user's social reach and, with interest profiles, is one
    she cares about: her own access with nothing broadcast.  Products store
    true entries only, so column e holds one entry per user who reaches
    road e.  ``CoverageState`` counts its columns and ``phi_empty`` sums
    its weighted rows.  Each call builds it anew: kept on the instance, it
    would stay in memory for the instance's lifetime."""
    g1 = instance.sensing
    m = instance.user_count
    seen = zero_one_matrix(instance.social_reach, m).tocsc() @ g1.incidence[:m]
    if instance.preferences is None:
        return seen
    interest = zero_one_matrix(instance.preferences.per_user_edges, g1.edge_count)
    return seen.multiply(interest.tocsc())


class CoverageState:
    """Incremental welfare tracker for greedy search.  Single owner; not
    shareable between threads.

    Uses the identity

        sum_i phi_i(X) = base + sum over broadcast-covered roads e of gain[e]

    where ``base`` is the welfare sum with nothing broadcast and
    ``gain[e]`` is the road's weight times the number of interested users
    whose own access misses it.  A candidate's marginal value is then the
    gain sum over roads it newly covers, which is non-negative by
    construction.  Both come from the column counts of ``own_access``
    (users x roads), the matrix ``phi_empty`` takes its row sums of;
    ``gain`` is read-only for callers.

    Single-node prices are read from one vector per round, taken at the
    first single-node query after construction or ``add_nodes``: the
    product ``incidence @ where(covered, 0, gain)`` that ``greedy_cover``
    scores with, so a price sums its uncovered roads' gains in road order.
    """

    def __init__(self, instance: Instance):
        g1 = instance.sensing
        m = instance.user_count
        self.m = m
        prefs = instance.preferences

        if prefs is None:
            wanted = np.full(g1.edge_count, m)
        else:
            interested = np.fromiter(chain.from_iterable(prefs.per_user_edges), dtype=np.intp)
            wanted = np.bincount(interested, minlength=g1.edge_count)
        seen_count = np.diff(own_access(instance).indptr)

        weights = g1.weight_vector
        self.gain = (wanted - seen_count) * weights
        self._base_total = float(seen_count @ weights)
        self._covered = np.zeros(g1.edge_count, dtype=bool)
        self._covered_gain = 0.0
        self._incidence = g1.incidence
        # every node's price this round; None until queried, and after add_nodes
        self._prices: list[float] | None = None

    def _new_edges(self, nodes) -> np.ndarray:
        """Sorted ids of the roads ``nodes`` touch that are not yet covered."""
        ptr, roads = self._incidence.indptr, self._incidence.indices
        rows = [roads[ptr[v] : ptr[v + 1]] for v in nodes]
        ids = np.unique(np.concatenate(rows)) if rows else np.empty(0, dtype=np.intp)
        return ids[~self._covered[ids]]

    def gain_from_nodes(self, nodes) -> float:
        """Average-welfare increase if the sequence ``nodes`` joined the
        broadcast; one node's price comes from this round's price vector."""
        if len(nodes) != 1:
            return float(self.gain[self._new_edges(nodes)].sum()) / self.m
        if self._prices is None:
            residual = np.where(self._covered, 0.0, self.gain)
            self._prices = (self._incidence @ residual / self.m).tolist()
        return self._prices[nodes[0]]

    def add_nodes(self, nodes) -> None:
        ids = self._new_edges(nodes)
        self._covered[ids] = True
        self._covered_gain += float(self.gain[ids].sum())
        self._prices = None

    def average(self) -> float:
        """Current average welfare."""
        return (self._base_total + self._covered_gain) / self.m


def greedy_cover(rows, weights, row_of=None, groups=None, cap=None):
    """Greedy weighted maximum coverage over the road sets in the boolean
    CSR ``rows``; candidate c covers row c, or row ``row_of[c]`` if given.

    Each round prices every candidate with one matrix-vector product
    against the weights of the roads still uncovered, sets taken or capped
    candidates to -1 and picks the first maximum, so ties go to the lowest
    index.  A group (``groups[c]``) that has given ``cap`` picks leaves the
    pool.  Yields ``(pick, scores)`` once the pick is applied; stops when
    the pool is empty.
    """
    live = np.ones(rows.shape[0] if row_of is None else len(row_of), dtype=bool)
    covered = np.zeros(rows.shape[1], dtype=bool)
    taken: dict[int, int] = {}
    while live.any():
        scores = rows @ np.where(covered, 0.0, weights)
        if row_of is not None:
            scores = scores[row_of]
        scores[~live] = -1.0
        pick = int(np.argmax(scores))
        row = pick if row_of is None else int(row_of[pick])
        covered[rows.indices[rows.indptr[row] : rows.indptr[row + 1]]] = True
        live[pick] = False
        if groups is not None:
            group = groups[pick]
            taken[group] = taken.get(group, 0) + 1
            if taken[group] == cap:
                live[groups == group] = False
        yield pick, scores


def marginal_gain(instance: Instance, current, candidate) -> float:
    """Welfare increase from adding ``candidate`` to ``current``.

    ``current`` is a Selection with an int user candidate, or a WalkSet
    with a Walk candidate.  Adding an already-selected user is an
    idempotent union and returns 0; a walk that would break the start-node
    cap is an input error.
    """
    state = CoverageState(instance)
    if isinstance(current, Selection) and isinstance(candidate, (int, np.integer)):
        candidate = int(candidate)
        if not 0 <= candidate < instance.user_count:
            raise InputError(f"candidate user {candidate} out of range")
        check_selection(instance, current)
        state.add_nodes(current.users)
        return state.gain_from_nodes((candidate,))
    if isinstance(current, WalkSet) and isinstance(candidate, Walk):
        check_walk(instance, candidate)
        starts = sum(1 for w in current.walks if w.start == candidate.start)
        if starts >= current.augmentation:
            raise InputError(
                f"start node {candidate.start} already used {starts} times, "
                f"cap is {current.augmentation}"
            )
        state.add_nodes(current.visited_nodes)
        return state.gain_from_nodes(candidate.nodes)
    raise InputError(
        "marginal_gain expects (Selection, user index) or (WalkSet, Walk), "
        f"got ({type(current).__name__}, {type(candidate).__name__})"
    )
