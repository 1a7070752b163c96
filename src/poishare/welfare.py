"""Welfare evaluation: how much road information each user can access.

A user reaches information from three sources: roads at her own location,
roads her (hop-limited) social circle senses, and whatever the system
broadcasts, which is the road set touched by the selected users (static
setting) or by every node the recommended walks visit (mobile setting).
Her utility is the total weight of reachable roads, optionally intersected
with her personal interest set; welfare is the average utility over users.

Two independent evaluation routes are provided and must agree exactly:

- the *set route*: direct unions of incident-edge sets;
- the *matrix route*: build a sensing matrix ``A`` (weighted adjacency)
  and a social reach matrix ``B`` (unit diagonal, 1 where two users are
  within the social hop radius), set entire rows of ``B`` to one for every
  broadcasting/visited node, and read each user's utility off the product
  ``C = A B`` as

      phi_x = sum_j C[j, x] - 0.5 * (sum of A over the rows/columns
                                     flagged in column x of B)

  The column sum counts a road once per reachable endpoint, so roads with
  both endpoints reachable are counted twice; the second term removes the
  double count.  With a personal interest set, ``A`` is rebuilt per user
  from the interesting edges only and the same correction applies.

The matrix route exists to be checked against.  The solvers price
candidates through ``CoverageState``, which reduces welfare to a weighted
maximum coverage (a base total plus a per-road gain), and ``greedy_cover``,
which prices every candidate of a round with one sparse matrix-vector
product of a candidate x road incidence matrix and the gains of the roads
still uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrosscheckError, InputError
from .model import (
    Instance,
    Selection,
    Walk,
    WalkSet,
    check_selection,
    check_walk,
    incident_edges,
    social_neighborhood,
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

    @property
    def total(self) -> float:
        """Sum of per-user utilities (an integer under uniform weights)."""
        return self.average * len(self.per_user)


# ---------------------------------------------------------------------------
# Set route
# ---------------------------------------------------------------------------


def _access_base(instance: Instance) -> list[set[int]]:
    """Per user: her own node plus her social reach."""
    return [
        {i} | social_neighborhood(instance, i) for i in range(instance.user_count)
    ]


def _edge_weight_sum(instance: Instance, edge_ids, interest: frozenset[int] | None) -> float:
    g1 = instance.sensing
    if interest is None:
        return float(sum(g1.weight(e) for e in edge_ids))
    return float(sum(g1.weight(e) for e in edge_ids if e in interest))


def broadcast_breakdown(instance: Instance, broadcast_nodes) -> WelfareBreakdown:
    """Welfare when the nodes in ``broadcast_nodes`` are shared with everyone.

    This is the common core of both settings: a selection broadcasts the
    selected user nodes, a walk set broadcasts every visited node.
    """
    g1 = instance.sensing
    prefs = instance.preferences
    extra = set(broadcast_nodes)
    per_user = []
    for i, base in enumerate(_access_base(instance)):
        edge_ids = incident_edges(g1, base | extra)
        interest = prefs.per_user_edges[i] if prefs is not None else None
        per_user.append(_edge_weight_sum(instance, edge_ids, interest))
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


def sensing_matrix(instance: Instance, interest: frozenset[int] | None = None) -> np.ndarray:
    """Symmetric weighted adjacency of the sensing graph.

    ``interest`` restricts to an edge subset (per-user variant).  A
    self-loop stores twice its weight: once for each incidence the column
    sum attributes to it, which keeps both the column-sum identity and the
    double-count correction exact.
    """
    size = instance.node_count
    a = np.zeros((size, size), dtype=np.float64)
    for e, (u, v) in enumerate(instance.sensing.edges):
        if interest is not None and e not in interest:
            continue
        w = instance.sensing.weight(e)
        if u == v:
            a[u, u] += 2.0 * w
        else:
            a[u, v] = w
            a[v, u] = w
    return a


@dataclass(frozen=True)
class SocialReachMatrix:
    """0/1 reach matrix with a record of the rows forced to one.

    Fresh from ``social_matrix`` it is symmetric with unit diagonal; after
    ``with_rows_set`` the named rows are all ones and symmetry is gone
    (columns are untouched: a broadcaster gains nothing from her own
    selection).  Treat ``entries`` as read-only.
    """

    entries: np.ndarray
    updated_rows: frozenset[int] = frozenset()

    def with_rows_set(self, rows) -> "SocialReachMatrix":
        rows = tuple(rows)
        if not rows:
            return self
        out = self.entries.copy()
        out[list(rows), :] = 1.0
        return SocialReachMatrix(out, self.updated_rows | frozenset(rows))

    def reach_of(self, user: int) -> np.ndarray:
        """Indices whose information reaches ``user`` (ones of her column)."""
        return np.flatnonzero(self.entries[:, user] != 0.0)


def social_matrix(instance: Instance) -> SocialReachMatrix:
    """Reach matrix over all sensing nodes (unit diagonal everywhere,
    social closeness marked between user pairs only)."""
    size = instance.node_count
    b = np.eye(size, dtype=np.float64)
    for i in range(instance.user_count):
        for j in social_neighborhood(instance, i):
            b[j, i] = 1.0
            b[i, j] = 1.0
    return SocialReachMatrix(b)


def _phi_user_matrix(a: np.ndarray, b: SocialReachMatrix, user: int) -> float:
    column = a @ b.entries[:, user]
    members = b.reach_of(user)
    minor_sum = a[np.ix_(members, members)].sum()
    return float(column.sum() - 0.5 * minor_sum)


def _matrix_breakdown(instance: Instance, broadcast_rows) -> WelfareBreakdown:
    b = social_matrix(instance).with_rows_set(broadcast_rows)
    prefs = instance.preferences
    if prefs is None:
        a = sensing_matrix(instance)
        per_user = [_phi_user_matrix(a, b, x) for x in range(instance.user_count)]
    else:
        per_user = [
            _phi_user_matrix(sensing_matrix(instance, prefs.per_user_edges[x]), b, x)
            for x in range(instance.user_count)
        ]
    return WelfareBreakdown.from_per_user(per_user)


def phi_empty_matrix(instance: Instance) -> WelfareBreakdown:
    """Matrix-route welfare before anything is broadcast (no preferences)."""
    if instance.preferences is not None:
        raise InputError("instance has preferences; use phi_preferences_matrix")
    return _matrix_breakdown(instance, ())


def phi_selection_matrix(instance: Instance, selection: Selection) -> WelfareBreakdown:
    """Matrix-route welfare of a static selection (no preferences)."""
    if instance.preferences is not None:
        raise InputError("instance has preferences; use phi_preferences_matrix")
    check_selection(instance, selection)
    return _matrix_breakdown(instance, selection.users)


def phi_preferences_matrix(instance: Instance, selection: Selection) -> WelfareBreakdown:
    """Matrix-route welfare of a static selection under interest profiles."""
    if instance.preferences is None:
        raise InputError("instance has no preferences; use phi_selection_matrix")
    check_selection(instance, selection)
    return _matrix_breakdown(instance, selection.users)


def phi_walks_matrix(instance: Instance, walks: WalkSet) -> WelfareBreakdown:
    """Matrix-route welfare of a walk set: every visited node's row is
    forced to one before the product is taken."""
    for w in walks.walks:
        check_walk(instance, w)
    return _matrix_breakdown(instance, sorted(walks.visited_nodes))


# ---------------------------------------------------------------------------
# Route dispatch and cross-checking
# ---------------------------------------------------------------------------

ROUTES = ("set", "matrix", "both")


def _check_agreement(instance: Instance, left: WelfareBreakdown, right: WelfareBreakdown) -> None:
    exact = instance.sensing.edge_weights is None
    tol = 0.0 if exact else WEIGHTED_EQUALITY_TOL
    for i, (a, b) in enumerate(zip(left.per_user, right.per_user)):
        if abs(a - b) > tol:
            raise CrosscheckError(
                f"evaluation routes disagree for user {i}: set={a!r} matrix={b!r}"
            )


def evaluate_selection(instance: Instance, selection: Selection, route: str = "set") -> WelfareBreakdown:
    """Welfare of a selection via the requested route.

    ``route='both'`` runs both routes and raises CrosscheckError on any
    disagreement (exact under uniform weights).
    """
    if route not in ROUTES:
        raise InputError(f"unknown route {route!r}, expected one of {ROUTES}")
    if route == "set":
        return phi_set_oracle(instance, selection)
    if instance.preferences is not None:
        matrix = phi_preferences_matrix(instance, selection)
    else:
        matrix = phi_selection_matrix(instance, selection)
    if route == "matrix":
        return matrix
    oracle = phi_set_oracle(instance, selection)
    _check_agreement(instance, oracle, matrix)
    return oracle


def phi_walks(instance: Instance, walks: WalkSet, route: str = "set") -> WelfareBreakdown:
    """Welfare of a walk set via the requested route (``'both'`` cross-checks)."""
    if route not in ROUTES:
        raise InputError(f"unknown route {route!r}, expected one of {ROUTES}")
    if route == "set":
        return phi_walks_set(instance, walks)
    matrix = phi_walks_matrix(instance, walks)
    if route == "matrix":
        return matrix
    oracle = phi_walks_set(instance, walks)
    _check_agreement(instance, oracle, matrix)
    return oracle


# ---------------------------------------------------------------------------
# Incremental evaluation
# ---------------------------------------------------------------------------


class CoverageState:
    """Incremental welfare tracker for greedy search.  Single owner; not
    shareable between threads.

    Uses the identity

        sum_i phi_i(X) = base + sum over broadcast-covered roads e of gain[e]

    where ``base`` is the welfare sum with nothing broadcast and
    ``gain[e]`` is the road's weight times the number of interested users
    whose own access misses it.  A candidate's marginal value is then the
    gain sum over roads it newly covers, which is non-negative by
    construction.  Both come from the column sums of ``access @ incidence``
    (users x roads); ``gain`` is read-only for callers.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        g1 = instance.sensing
        m = instance.user_count
        self.m = m
        prefs = instance.preferences

        # Users x roads in CSC form; products store true entries only, so
        # column e holds one entry per user whose own access reaches road e.
        seen = zero_one_matrix(_access_base(instance), m).tocsc() @ g1.incidence[:m]
        if prefs is None:
            wanted = np.full(g1.edge_count, m)
        else:
            interest = zero_one_matrix(prefs.per_user_edges, g1.edge_count).tocsc()
            seen = seen.multiply(interest)
            wanted = np.diff(interest.indptr)
        seen_count = np.diff(seen.indptr)

        weights = g1.weight_vector
        self.gain = (wanted - seen_count) * weights
        self._base_total = float(seen_count @ weights)
        self._covered = np.zeros(g1.edge_count, dtype=bool)
        self._covered_gain = 0.0
        self._node_edges = np.split(g1.incidence.indices.astype(np.intp), g1.incidence.indptr[1:-1])
        self._broadcast: set[int] = set()

    def _new_edges(self, nodes) -> np.ndarray:
        rows = [self._node_edges[v] for v in nodes]
        if not rows:
            return np.empty(0, dtype=np.intp)
        ids = np.unique(np.concatenate(rows))
        return ids[~self._covered[ids]]

    def gain_from_nodes(self, nodes) -> float:
        """Average-welfare increase if ``nodes`` joined the broadcast."""
        ids = self._new_edges(nodes)
        return float(self.gain[ids].sum()) / self.m

    def add_nodes(self, nodes) -> None:
        ids = self._new_edges(nodes)
        self._covered[ids] = True
        self._covered_gain += float(self.gain[ids].sum())
        self._broadcast.update(nodes)

    def average(self) -> float:
        """Current average welfare."""
        return (self._base_total + self._covered_gain) / self.m

    @property
    def broadcast_nodes(self) -> frozenset[int]:
        return frozenset(self._broadcast)


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
