"""Instance construction from check-in data and synthetic generators.

Ingestion pipeline: parse a TSV of check-ins, crop to a bounding box,
agglomerate the surviving coordinates into a fixed number of locations,
connect the locations with a symmetrized k-nearest-neighbor road graph
(patched to a single component), and overlay a random social graph whose
degrees follow a clipped Gaussian.  Every generator is deterministic in
its seed.

Every distance goes through one private kernel, ``_km``, which reads each
point's latitude and longitude in radians and the cosine of its latitude,
computed once per point.  It performs ``haversine_km``'s operations in
the same order, so a pair has the bits of ``haversine_km`` on the two
points in index order wherever it is computed: in a row of scipy's
condensed (upper-triangle) vector for clustering, or in a block of rows
in ``build_roads``, which builds no n-by-n array.

Clustering m check-ins is O(m^2) in time and memory: it computes each
pair once, into the condensed vector, and ``linkage`` copies that vector.
``cluster_locations`` refuses check-in counts whose two copies would
exceed ``MAX_CLUSTER_BYTES`` (about 11,500 check-ins), and ``gen``
refuses sizes above ``MAX_GEN_NODES`` and ``MAX_GEN_ROADS``, before
anything of that size is allocated.

Imports: the package itself needs only numpy, so ``import poishare``,
``gen`` and ``validate`` load no scipy module.  ``scipy.sparse`` is
imported by the functions that build a sparse matrix, on the first such
build of a process (the first solve).  scipy's ``linkage`` is imported
only when a clustering runs, so no command but ``ingest`` loads
``scipy.cluster`` or ``scipy.spatial``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import InputError
from .model import Instance, SensingGraph, SocialGraph, validate
from .static_solver import vcp_reduction_instance
from .mobile_solver import mobile_reduction_instance

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088
#: Rows per block of the streamed pairwise distances in ``build_roads``.
_BLOCK_ROWS = 256

#: Largest node or user count ``gen`` draws.  Every mode makes a pass over
#: all node pairs: distances for ``gowalla-like``, Erdős–Rényi draws
#: otherwise.  ``gen --mode gowalla-like`` took 9-13 s at 10,000 nodes on
#: a 2-vCPU host, and its pairwise passes grow with n squared.
MAX_GEN_NODES = 20_000
#: Largest road count ``gen`` draws: the expected count of an Erdős–Rényi
#: draw, and the exact count of the mobile gadget built on it.  A million
#: roads took 8-12 s and 540-630 MB to write on a 2-vCPU host.
MAX_GEN_ROADS = 1_000_000
#: Largest size of clustering's condensed distances plus the copy
#: ``linkage`` makes, 8 * m * (m - 1) bytes for m check-ins: about 11,500.
MAX_CLUSTER_BYTES = 1 << 30


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


def _radians(coords: np.ndarray):
    """Per point, the latitude and longitude in radians and the cosine of
    the latitude: the operands ``_km`` reads, computed once."""
    lat, lon = np.radians(coords[:, 0]), np.radians(coords[:, 1])
    return lat, lon, np.cos(lat)


def _km(p1, l1, c1, p2, l2, c2):
    """``haversine_km`` from radians ``p``, ``l`` and cosines ``c`` of the
    latitudes: the same operations per element in the same order, so the
    same bits.  Operands broadcast as in numpy."""
    a = np.sin((p2 - p1) / 2.0) ** 2 + c1 * c2 * np.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def _condensed_haversine(coords: np.ndarray) -> np.ndarray:
    """Distances of all pairs i < j in scipy's condensed order, filled one
    row at a time: entry (i, j) is ``haversine_km(point i, point j)``."""
    lat, lon, cos = _radians(coords)
    n = len(coords)
    out = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        out[start:stop] = _km(lat[i], lon[i], cos[i], lat[i + 1:], lon[i + 1:], cos[i + 1:])
        start = stop
    return out


def _row_blocks(points):
    """The distances from each block of ``_BLOCK_ROWS`` points to every
    point, as (first row, block of ``haversine_km`` values) in row order."""
    lat, lon, cos = points
    for start in range(0, len(lat), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield start, _km(lat[rows, None], lon[rows, None], cos[rows, None], lat, lon, cos)


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
        if 8 * n * (n - 1) > MAX_CLUSTER_BYTES:
            raise InputError(
                f"clustering {n} check-ins needs {8 * n * (n - 1) / 2**20:.0f} MiB of pairwise "
                f"distances, above the {MAX_CLUSTER_BYTES / 2**20:.0f} MiB limit; "
                "crop them with a smaller bounding box"
            )
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
    adds the edges of Kruskal's pass over all pairs in (distance, i, j)
    order, which adds the least remaining cross-component pair until one
    component is left.  Under that strict order those edges are the unique
    minimum spanning forest of the graph with each k-NN component
    contracted to a node, so Borůvka's rounds (1926) find the same ones:
    each round adds, for every component, its least outgoing pair.

    No n-by-n array is built.  Both the k-NN pick and each join round
    stream the distances in blocks of ``_BLOCK_ROWS`` rows from ``_km``;
    a row's entries are ``haversine_km`` of the same two points either
    way, so the edges do not depend on the block size.  Memory is
    O(n * _BLOCK_ROWS)."""
    if knn < 1:
        raise InputError(f"knn must be >= 1, got {knn}")
    n = len(locations)
    if n < 2:
        raise InputError(f"need at least 2 locations to build roads, got {n}")
    points = _radians(np.asarray(locations, dtype=np.float64))

    # Keep every entry up to each row's k-th smallest distance, order the
    # kept ones by (row, distance, column) and take the first k per row.
    k = min(knn, n - 1)
    edges: set[tuple[int, int]] = set()
    for start, dist in _row_blocks(points):
        dist[np.arange(len(dist)), np.arange(start, start + len(dist))] = np.inf
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(dist <= kth[:, None])
        order = np.lexsort((cols, dist[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        rows, cols = rows[rank < k] + start, cols[rank < k]
        edges.update(zip(np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()))

    parent = list(range(n))
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    while True:
        component = np.array([_find(parent, i) for i in range(n)])
        if (component == component[0]).all():
            return tuple(sorted(edges))
        # Each row's least outgoing pair: the nearest point of another
        # component, the lowest index among ties, which also has the least
        # (distance, lower end, higher end) key among the row's pairs.
        near = np.empty(n, dtype=np.int64)
        near_km = np.empty(n)
        for start, dist in _row_blocks(points):
            stop = start + len(dist)
            dist[component[start:stop, None] == component] = np.inf
            near[start:stop] = np.argmin(dist, axis=1)
            near_km[start:stop] = dist[np.arange(len(dist)), near[start:stop]]
        low, high = np.minimum(np.arange(n), near), np.maximum(np.arange(n), near)
        order = np.lexsort((high, low, near_km, component))
        least = order[np.unique(component[order], return_index=True)[1]]
        for i, j in zip(low[least].tolist(), high[least].tolist()):
            edges.add((i, j))
            parent[_find(parent, i)] = _find(parent, j)


def _check_degrees(degree_mean: float, degree_sigma: float) -> None:
    if not (math.isfinite(degree_mean) and math.isfinite(degree_sigma) and degree_sigma >= 0):
        raise InputError(
            f"social degree mean {degree_mean} and sigma {degree_sigma} must be finite, "
            "and sigma >= 0"
        )


def synth_social(m: int, degree_mean: float, degree_sigma: float, seed: int) -> SocialGraph:
    """Random social graph whose target degrees are Gaussian draws rounded
    and clipped to [0, m-1], realized by repeated random stub matching
    with duplicate and self pairings rejected."""
    _check_degrees(degree_mean, degree_sigma)
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
    if not 0.0 <= edge_prob <= 1.0:
        raise InputError(f"edge probability {edge_prob} is outside [0, 1]")
    expected = edge_prob * node_count * (node_count - 1) / 2
    if expected > MAX_GEN_ROADS:
        raise InputError(
            f"{node_count} nodes at edge probability {edge_prob} draw {expected:.0f} roads "
            f"on average, above the limit of {MAX_GEN_ROADS}"
        )
    out = []
    for i in range(node_count):
        hits = np.flatnonzero(rng.random(node_count - 1 - i) < edge_prob) + (i + 1)
        out.extend((i, j) for j in hits.tolist())
    return tuple(out)


def synth_instance(spec: GenSpec) -> Instance:
    """Compose the generators into a validated instance.  Counts and
    parameters outside the generators' limits are refused before any
    drawing."""
    for name, count in (("node count", spec.node_count), ("user count", spec.user_count)):
        if count is not None and not 1 <= count <= MAX_GEN_NODES:
            raise InputError(f"{name} {count} is outside [1, {MAX_GEN_NODES}]")
    _check_degrees(spec.degree_mean, spec.degree_sigma)
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
            gadget_roads = len(edges) + base_nodes * (spec.hops + len(edges))
            if gadget_roads > MAX_GEN_ROADS:
                raise InputError(
                    f"the mobile gadget would have {gadget_roads} roads, "
                    f"above the limit of {MAX_GEN_ROADS}"
                )
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
    _check_degrees(degree_mean, degree_sigma)
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
