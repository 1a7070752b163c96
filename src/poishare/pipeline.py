"""Instance construction from check-in data and synthetic generators.

Ingestion pipeline: parse a TSV of check-ins, crop to a bounding box,
agglomerate the surviving coordinates into a fixed number of locations,
connect the locations with a symmetrized k-nearest-neighbor road graph
(patched to a single component), and overlay a random social graph whose
degrees follow a clipped Gaussian.  Every generator is deterministic in
its seed.

Every distance is ``haversine_km`` on the two points in index order, so a
pair has the same bits whether a dense matrix or a row of scipy's
condensed (upper-triangle) vector holds it.  Clustering computes each
pair once, into the condensed vector; scipy's ``linkage`` is imported
only when a clustering runs, so no other command loads ``scipy.cluster``
or ``scipy.spatial``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import InputError
from .model import Instance, SensingGraph, SocialGraph, validate
from .static_solver import vcp_reduction_instance
from .mobile_solver import mobile_reduction_instance

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088


def _find(parent: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class CheckIn:
    user_id: str
    timestamp: datetime
    latitude: float
    longitude: float
    location_id: str


@dataclass(frozen=True)
class BoundingBox:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise InputError(
                f"degenerate bounding box: lat [{self.lat_min}, {self.lat_max}], "
                f"lon [{self.lon_min}, {self.lon_max}]"
            )

    def contains(self, lat: float, lon: float) -> bool:
        return self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max


def _parse_timestamp(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def parse_checkins(stream, errors: list | None = None) -> list[CheckIn]:
    """Parse tab-separated check-in lines:
    user_id, timestamp, latitude, longitude, location_id.

    Malformed lines are skipped; each is reported as (line_number, reason)
    into ``errors`` when given, and logged either way.
    """
    records: list[CheckIn] = []
    try:
        lines = iter(stream)
    except TypeError as exc:
        raise InputError(f"unreadable check-in stream: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        reason = None
        if len(parts) != 5:
            reason = f"expected 5 tab-separated fields, got {len(parts)}"
        else:
            user_id, ts_raw, lat_raw, lon_raw, location_id = parts
            try:
                ts = _parse_timestamp(ts_raw)
                lat = float(lat_raw)
                lon = float(lon_raw)
            except ValueError as exc:
                reason = str(exc)
            else:
                if not -90.0 <= lat <= 90.0:
                    reason = f"latitude {lat} outside [-90, 90]"
                elif not -180.0 <= lon <= 180.0:
                    reason = f"longitude {lon} outside [-180, 180]"
        if reason is not None:
            if errors is None:
                log.warning("check-in line %d rejected: %s", lineno, reason)
            else:
                errors.append((lineno, reason))
            continue
        records.append(CheckIn(user_id, ts, lat, lon, location_id))
    return records


def filter_bbox(checkins, bbox: BoundingBox) -> list[CheckIn]:
    """Keep check-ins inside the box, boundary inclusive."""
    return [c for c in checkins if bbox.contains(c.latitude, c.longitude)]


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometers; accepts scalars or arrays."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def _condensed_haversine(coords: np.ndarray) -> np.ndarray:
    """Distances of all pairs i < j in scipy's condensed order, filled one
    row at a time: entry (i, j) is ``haversine_km(point i, point j)``."""
    lat, lon = coords[:, 0], coords[:, 1]
    n = len(coords)
    out = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        out[start:stop] = haversine_km(lat[i], lon[i], lat[i + 1:], lon[i + 1:])
        start = stop
    return out


def cluster_locations(checkins, target_count: int):
    """Agglomerate check-in coordinates into exactly ``target_count``
    clusters (average-linkage over the condensed haversine distances),
    replaying the merge order so the count is hit exactly even with tied
    distances.

    Returns (centroids, assignment): centroid latitude/longitude pairs in
    order of each cluster's first member, and a cluster index per check-in.
    """
    if target_count < 1:
        raise InputError(f"target_count must be >= 1, got {target_count}")
    coords = np.array([[c.latitude, c.longitude] for c in checkins], dtype=np.float64)
    n = len(coords)
    if n == 0:
        raise InputError("no check-ins to cluster")
    distinct = len({(c.latitude, c.longitude) for c in checkins})
    if target_count > distinct:
        raise InputError(
            f"target_count {target_count} exceeds {distinct} distinct coordinates"
        )

    parent = list(range(n))
    if n > 1 and target_count < n:
        # Deferred: scipy.cluster pulls in scipy.spatial and scipy.linalg,
        # which no other command needs.
        from scipy.cluster.hierarchy import linkage

        merges = linkage(_condensed_haversine(coords), method="average")
        roots = list(range(n)) + [0] * (n - 1)  # root member of each linkage cluster
        for step in range(n - target_count):
            a, b = int(merges[step, 0]), int(merges[step, 1])
            ra, rb = _find(parent, roots[a]), _find(parent, roots[b])
            parent[rb] = ra
            roots[n + step] = ra

    label_of_root: dict[int, int] = {}
    assignment: list[int] = []
    members: list[list[int]] = []
    for i in range(n):
        root = _find(parent, i)
        if root not in label_of_root:
            label_of_root[root] = len(members)
            members.append([])
        label = label_of_root[root]
        assignment.append(label)
        members[label].append(i)

    centroids = [
        (float(coords[idx, 0].mean()), float(coords[idx, 1].mean()))
        for idx in (np.array(group) for group in members)
    ]
    return centroids, assignment


def build_roads(locations, knn: int) -> tuple[tuple[int, int], ...]:
    """Symmetrized k-nearest-neighbor road graph over lat/lon locations,
    then the minimum number of shortest cross-component edges to make it
    connected.

    Each location picks its ``knn`` nearest others, ties going to the lower
    index; an edge is kept when either endpoint picks the other.  The join
    is Kruskal's pass over all pairs in (distance, i, j) order, which adds
    the shortest remaining cross-component pair until one component is
    left."""
    if knn < 1:
        raise InputError(f"knn must be >= 1, got {knn}")
    n = len(locations)
    if n < 2:
        raise InputError(f"need at least 2 locations to build roads, got {n}")
    coords = np.asarray(locations, dtype=np.float64)
    lat, lon = coords[:, 0][:, None], coords[:, 1][:, None]
    dist = haversine_km(lat, lon, lat.T, lon.T)
    np.fill_diagonal(dist, np.inf)

    # Keep every entry up to each row's k-th smallest distance, order the
    # kept ones by (row, distance, column) and take the first k per row.
    k = min(knn, n - 1)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(dist <= kth[:, None])
    order = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    rows, cols = rows[rank < k], cols[rank < k]
    edges = set(zip(np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()))

    parent = list(range(n))
    components = n
    for u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    if components > 1:
        first, second = np.triu_indices(n, 1)
        by_distance = np.argsort(dist[first, second], kind="stable")
        for i, j in zip(first[by_distance].tolist(), second[by_distance].tolist()):
            ri, rj = _find(parent, i), _find(parent, j)
            if ri != rj:
                edges.add((i, j))
                parent[ri] = rj
                components -= 1
                if components == 1:
                    break
    return tuple(sorted(edges))


def synth_social(m: int, degree_mean: float, degree_sigma: float, seed: int) -> SocialGraph:
    """Random social graph whose target degrees are Gaussian draws rounded
    and clipped to [0, m-1], realized by repeated random stub matching
    with duplicate and self pairings rejected."""
    if m < 1:
        raise InputError(f"need at least 1 user, got {m}")
    rng = np.random.default_rng(seed)
    targets = np.clip(
        np.rint(rng.normal(degree_mean, degree_sigma, size=m)).astype(np.int64), 0, m - 1
    )
    remaining = targets.copy()
    edges: set[tuple[int, int]] = set()
    for _ in range(8):
        stubs = np.repeat(np.arange(m), remaining)
        if len(stubs) < 2:
            break
        rng.shuffle(stubs)
        progress = False
        for a, b in zip(stubs[0::2], stubs[1::2]):
            a, b = int(a), int(b)
            if a == b or remaining[a] <= 0 or remaining[b] <= 0:
                continue
            key = (min(a, b), max(a, b))
            if key in edges:
                continue
            edges.add(key)
            remaining[a] -= 1
            remaining[b] -= 1
            progress = True
        if not progress:
            break
    return SocialGraph(user_count=m, edges=tuple(sorted(edges)))


@dataclass(frozen=True)
class GenSpec:
    """Parameters for synthetic instance generation.

    mode: 'synthetic-random', 'gowalla-like', or 'reduction'.
    For 'reduction', ``reduction_kind`` picks the gadget ('vcp' or
    'mobile') and ``hops`` sets the tail length of the mobile gadget.
    """

    mode: str
    node_count: int = 92
    user_count: int | None = None
    edge_prob: float = 0.15
    degree_mean: float = 24.0
    degree_sigma: float = 8.0
    knn: int = 4
    seed: int = 0
    hops: int = 2
    reduction_kind: str = "vcp"


def _er_edges(rng, node_count: int, edge_prob: float) -> tuple[tuple[int, int], ...]:
    """Erdős–Rényi roads, each pair i < j kept with probability ``edge_prob``;
    a row's uniforms are drawn at once, the same numbers as one draw per pair."""
    out = []
    for i in range(node_count):
        hits = np.flatnonzero(rng.random(node_count - 1 - i) < edge_prob) + (i + 1)
        out.extend((i, j) for j in hits.tolist())
    return tuple(out)


def synth_instance(spec: GenSpec) -> Instance:
    """Compose the generators into a validated instance."""
    rng = np.random.default_rng(spec.seed)
    if spec.mode == "synthetic-random":
        m = spec.user_count if spec.user_count is not None else spec.node_count
        if not 1 <= m <= spec.node_count:
            raise InputError(f"user_count {m} must be in [1, {spec.node_count}]")
        sensing = SensingGraph(
            node_count=spec.node_count,
            user_count=m,
            edges=_er_edges(rng, spec.node_count, spec.edge_prob),
        )
        social = synth_social(
            m, spec.degree_mean, spec.degree_sigma, seed=int(rng.integers(2**31))
        )
        instance = Instance(sensing=sensing, social=social)
    elif spec.mode == "gowalla-like":
        m = spec.node_count
        lats = rng.uniform(37.7724, 37.7833, size=m)
        lons = rng.uniform(-122.4417, -122.4258, size=m)
        roads = build_roads(list(zip(lats, lons)), spec.knn)
        sensing = SensingGraph(node_count=m, user_count=m, edges=roads)
        social = synth_social(
            m, spec.degree_mean, spec.degree_sigma, seed=int(rng.integers(2**31))
        )
        instance = Instance(sensing=sensing, social=social)
    elif spec.mode == "reduction":
        base_nodes = spec.user_count if spec.user_count is not None else spec.node_count
        edges = _er_edges(rng, base_nodes, spec.edge_prob)
        if spec.reduction_kind == "vcp":
            instance = vcp_reduction_instance(base_nodes, edges)
        elif spec.reduction_kind == "mobile":
            static = Instance(
                sensing=SensingGraph(node_count=base_nodes, user_count=base_nodes, edges=edges),
                social=synth_social(
                    base_nodes,
                    spec.degree_mean,
                    spec.degree_sigma,
                    seed=int(rng.integers(2**31)),
                ),
            )
            instance = mobile_reduction_instance(static, spec.hops)
        else:
            raise InputError(f"unknown reduction kind {spec.reduction_kind!r}")
    else:
        raise InputError(f"unknown generation mode {spec.mode!r}")

    violations = validate(instance)
    if violations:
        raise InputError("generated instance failed validation: " + "; ".join(violations))
    return instance


def ingest_instance(
    checkins,
    bbox: BoundingBox | None,
    cluster_target: int,
    knn: int,
    degree_mean: float,
    degree_sigma: float,
    seed: int,
) -> Instance:
    """Full ingestion: crop, cluster, build roads, synthesize the social
    graph.  Every clustered location hosts a user."""
    records = filter_bbox(checkins, bbox) if bbox is not None else list(checkins)
    if not records:
        raise InputError("no check-ins remain after bounding-box filtering")
    centroids, _ = cluster_locations(records, cluster_target)
    roads = build_roads(centroids, knn)
    sensing = SensingGraph(node_count=len(centroids), user_count=len(centroids), edges=roads)
    social = synth_social(len(centroids), degree_mean, degree_sigma, seed=seed)
    instance = Instance(sensing=sensing, social=social)
    violations = validate(instance)
    if violations:
        raise InputError("ingested instance failed validation: " + "; ".join(violations))
    return instance
