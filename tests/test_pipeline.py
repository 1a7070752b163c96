import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poishare as ps
from poishare.cli import main
from poishare.pipeline import EARTH_RADIUS_KM, _condensed_haversine, _er_edges
from util import reference_build_roads, reference_er_edges


GOOD_LINES = (
    "101\t2010-10-19T23:55:27Z\t30.23591\t-97.79594\t22847\n"
    "102\t2010-10-18T22:17:43Z\t30.26910\t-97.74939\t420315\n"
    "103\t2010-10-17T23:42:03Z\t30.25573\t-97.76338\t316637\n"
)


def test_parse_checkins_well_formed():
    records = ps.parse_checkins(io.StringIO(GOOD_LINES))
    assert len(records) == 3
    assert records[0].user_id == "101"
    assert records[0].latitude == pytest.approx(30.23591)
    assert records[0].timestamp.year == 2010


def test_parse_checkins_reports_bad_lines():
    text = GOOD_LINES + "104\t2010-10-16T00:00:00Z\t95.0\t-97.7\t1\nshort line\n"
    errors = []
    records = ps.parse_checkins(io.StringIO(text), errors=errors)
    assert len(records) == 3
    assert [lineno for lineno, _ in errors] == [4, 5]
    assert "latitude" in errors[0][1]


def test_parse_checkins_empty_stream():
    assert ps.parse_checkins(io.StringIO("")) == []
    with pytest.raises(ps.InputError):
        ps.parse_checkins(None)


def test_filter_bbox():
    records = ps.parse_checkins(io.StringIO(GOOD_LINES))
    whole_globe = ps.BoundingBox(-90, 90, -180, 180)
    assert ps.filter_bbox(records, whole_globe) == records
    nothing = ps.BoundingBox(0.0, 1.0, 0.0, 1.0)
    assert ps.filter_bbox(records, nothing) == []
    boundary = ps.BoundingBox(30.23591, 30.26910, -97.79594, -97.74939)
    assert len(ps.filter_bbox(records, boundary)) == 3  # inclusive edges
    with pytest.raises(ps.InputError):
        ps.BoundingBox(1.0, 1.0, 0.0, 1.0)


def _checkin(lat, lon, uid="u"):
    return ps.parse_checkins(
        io.StringIO(f"{uid}\t2010-01-01T00:00:00Z\t{lat}\t{lon}\tx\n")
    )[0]


def test_haversine_known_value():
    # quarter meridian
    assert ps.haversine_km(0.0, 0.0, 90.0, 0.0) == pytest.approx(
        EARTH_RADIUS_KM * 3.141592653589793 / 2, rel=1e-6
    )
    assert ps.haversine_km(10.0, 20.0, 10.0, 20.0) == 0.0


def test_cluster_locations_identical_points():
    points = [_checkin(30.0, -97.0) for _ in range(5)]
    centroids, assignment = ps.cluster_locations(points, 1)
    assert centroids == [(30.0, -97.0)]
    assert assignment == [0] * 5


def test_cluster_locations_two_clumps():
    clump_a = [_checkin(30.0 + d, -97.0) for d in (0.0, 0.001, 0.002)]
    clump_b = [_checkin(31.0 + d, -97.0) for d in (0.0, 0.001)]
    centroids, assignment = ps.cluster_locations(clump_a + clump_b, 2)
    assert len(centroids) == 2
    assert assignment == [0, 0, 0, 1, 1]
    assert centroids[0][0] == pytest.approx(30.001)
    assert centroids[1][0] == pytest.approx(31.0005)


def test_cluster_locations_exact_count_and_errors():
    rng = random.Random(61)
    points = [
        _checkin(30.0 + rng.random(), -97.0 + rng.random()) for _ in range(40)
    ]
    for target in (1, 7, 39, 40):
        centroids, assignment = ps.cluster_locations(points, target)
        assert len(centroids) == target
        assert len(set(assignment)) == target
    with pytest.raises(ps.InputError):
        ps.cluster_locations(points, 41)
    with pytest.raises(ps.InputError):
        ps.cluster_locations(points, 0)
    dupes = [_checkin(1.0, 1.0), _checkin(1.0, 1.0)]
    with pytest.raises(ps.InputError):
        ps.cluster_locations(dupes, 2)


def test_build_roads_examples():
    assert ps.build_roads([(0.0, 0.0), (0.0, 1.0)], knn=3) == ((0, 1),)
    collinear = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
    assert ps.build_roads(collinear, knn=1) == ((0, 1), (1, 2))
    with pytest.raises(ps.InputError):
        ps.build_roads([(0.0, 0.0)], knn=1)
    with pytest.raises(ps.InputError):
        ps.build_roads(collinear, knn=0)


def test_build_roads_always_connected():
    rng = random.Random(62)
    for _ in range(20):
        n = rng.randint(2, 40)
        pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
        edges = ps.build_roads(pts, knn=rng.randint(1, 3))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        assert len({find(i) for i in range(n)}) == 1


def test_er_edges_match_one_draw_per_pair():
    # same edges, and the generator left at the same state, so the social
    # graph drawn next from it is unchanged
    for n in (0, 1, 2, 40, 300):
        for p in (0.0, 0.05, 0.3, 1.0):
            for seed in (0, 7):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert _er_edges(rng, n, p) == reference_er_edges(ref, n, p), (n, p, seed)
                assert rng.integers(2**31) == ref.integers(2**31)


def test_synth_social_examples():
    assert ps.synth_social(5, 0.0, 0.0, seed=1).edges == ()
    assert ps.synth_social(2, 1.0, 0.0, seed=1).edges == ((0, 1),)
    g = ps.synth_social(500, 24.0, 8.0, seed=9)
    mean_degree = 2 * len(g.edges) / 500
    assert abs(mean_degree - 24.0) <= 2.4  # within 10%


def test_synth_social_valid_and_deterministic():
    rng = random.Random(63)
    for _ in range(20):
        m = rng.randint(1, 40)
        seed = rng.randrange(10**6)
        a = ps.synth_social(m, 5.0, 2.0, seed=seed)
        b = ps.synth_social(m, 5.0, 2.0, seed=seed)
        assert a == b
        seen = set()
        for u, v in a.edges:
            assert 0 <= u < v < m
            assert (u, v) not in seen
            seen.add((u, v))


def test_synth_instance_deterministic_and_valid():
    for mode, kw in (
        ("synthetic-random", dict(node_count=12, user_count=8, edge_prob=0.3)),
        ("gowalla-like", dict(node_count=30, knn=3)),
        ("reduction", dict(node_count=5, reduction_kind="vcp")),
        ("reduction", dict(node_count=4, reduction_kind="mobile", hops=2)),
    ):
        spec = ps.GenSpec(mode=mode, seed=17, **kw)
        inst = ps.synth_instance(spec)
        assert ps.validate(inst) == []
        again = ps.synth_instance(spec)
        assert ps.dumps_instance(inst) == ps.dumps_instance(again)
    with pytest.raises(ps.InputError):
        ps.synth_instance(ps.GenSpec(mode="nope"))


def test_gowalla_like_defaults_pass_validation():
    inst = ps.synth_instance(ps.GenSpec(mode="gowalla-like", seed=7))
    assert inst.node_count == inst.user_count == 92
    assert ps.validate(inst) == []


def test_reduction_mode_mobile_shape():
    spec = ps.GenSpec(mode="reduction", reduction_kind="mobile", node_count=3,
                      edge_prob=1.0, hops=1, seed=2)
    inst = ps.synth_instance(spec)
    # 3 users, 3 static edges, per user 1 tail node + 3 fan leaves
    assert inst.user_count == 3
    assert inst.node_count == 3 + 3 * (1 + 3)


def test_ingest_instance_end_to_end():
    rng = random.Random(64)
    lines = []
    for i in range(60):
        lat = 30.0 + rng.random() * 0.01
        lon = -97.0 - rng.random() * 0.01
        lines.append(f"u{i}\t2010-01-01T00:00:00Z\t{lat}\t{lon}\tloc{i}\n")
    records = ps.parse_checkins(io.StringIO("".join(lines)))
    bbox = ps.BoundingBox(29.9, 30.1, -97.1, -96.9)
    inst = ps.ingest_instance(records, bbox, cluster_target=10, knn=2,
                              degree_mean=3.0, degree_sigma=1.0, seed=5)
    assert inst.user_count == inst.node_count == 10
    assert ps.validate(inst) == []
    with pytest.raises(ps.InputError):
        ps.ingest_instance(records, ps.BoundingBox(0, 1, 0, 1), 5, 2, 3.0, 1.0, 5)


def _clumped_checkin_lines(seed: int, count: int = 1500, spots: int = 30) -> list[str]:
    """Check-ins around ``spots`` Gaussian hotspots, the rest uniform over
    a 0.1-degree box, with coordinates at six decimals as in real dumps."""
    rng = random.Random(seed)
    centres = [(rng.uniform(30.20, 30.30), rng.uniform(-97.80, -97.70)) for _ in range(spots)]
    lines = []
    for i in range(count):
        if rng.random() < 0.6:
            lat0, lon0 = centres[rng.randrange(spots)]
            lat, lon = rng.gauss(lat0, 0.002), rng.gauss(lon0, 0.002)
        else:
            lat, lon = rng.uniform(30.20, 30.30), rng.uniform(-97.80, -97.70)
        lines.append(f"u{rng.randrange(300)}\t2010-01-01T00:00:00Z\t{lat:.6f}\t{lon:.6f}\tl{i}\n")
    return lines


# SHA-256 of the `ingest` output and its road count, pinned so that a
# rewrite of the clustering or road geometry must keep the same bits.  At
# knn=1 the k-NN graph of seed 12 splits into 111 components, so the
# component join decides most of its roads.
@pytest.mark.parametrize("seed, knn, digest, road_count", [
    (11, 4, "aa20f83d8d85f6739e2de92ce76073041daa480c61757c328f317019936b3c80", 930),
    (12, 1, "b6bb36ac57f183fef5696c568dbfd928feb9d165460c0bf6b829106cd4d95eef", 399),
])
def test_ingest_output_is_frozen(tmp_path, seed, knn, digest, road_count):
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text("".join(_clumped_checkin_lines(seed)), encoding="utf-8")
    out = tmp_path / "instance.json"
    argv = ["ingest", str(checkins), "--clusters", "400", "--knn", str(knn),
            "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    instance = ps.load_instance(out)
    assert instance.node_count == 400
    assert len(instance.sensing.edges) == road_count
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_condensed_haversine_matches_dense_bits():
    from scipy.spatial.distance import squareform

    rng = random.Random(65)
    for n in (2, 3, 17, 120):
        coords = np.array(
            [(rng.uniform(-60, 60), rng.uniform(-170, 170)) for _ in range(n)]
        )
        coords[n // 2] = coords[0]  # a duplicate point: distance exactly 0
        lat, lon = coords[:, :1], coords[:, 1:]
        dense = ps.haversine_km(lat, lon, lat.T, lon.T)
        np.fill_diagonal(dense, 0.0)
        assert np.array_equal(_condensed_haversine(coords), squareform(dense, checks=False))


def _clumped_points(rng: random.Random, n: int, spots: int):
    centres = [(rng.uniform(30.2, 30.3), rng.uniform(-97.8, -97.7)) for _ in range(spots)]
    points = []
    for _ in range(n):
        lat0, lon0 = centres[rng.randrange(spots)]
        points.append((rng.gauss(lat0, 0.001), rng.gauss(lon0, 0.001)))
    return points


def test_build_roads_matches_reference():
    rng = random.Random(66)
    grid = [(0.01 * r, 0.01 * c) for r in range(6) for c in range(6)]  # exact ties
    point_sets = [grid, grid[::-1], grid + grid[:5]]
    for _ in range(6):
        n = rng.randint(2, 60)
        point_sets.append([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)])
        point_sets.append(_clumped_points(rng, n, spots=rng.randint(1, 8)))
    for points in point_sets:
        for knn in range(1, 6):
            assert ps.build_roads(points, knn) == reference_build_roads(points, knn)


def test_build_roads_joins_many_components_quickly():
    points = _clumped_points(random.Random(67), 2000, spots=60)
    start = time.perf_counter()
    edges = ps.build_roads(points, knn=1)
    assert time.perf_counter() - start < 10.0
    # A 1-NN graph with index tie-breaks is a forest, so the join makes a tree.
    assert len(edges) == len(points) - 1
    parent = list(range(len(points)))
    for u, v in edges:
        parent[ps.pipeline._find(parent, u)] = ps.pipeline._find(parent, v)
    assert len({ps.pipeline._find(parent, i) for i in range(len(points))}) == 1


_grid_point = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda rc: (0.5 * rc[0], 0.5 * rc[1])
)
_any_point = st.tuples(st.floats(-89.0, 89.0), st.floats(-179.0, 179.0))


def test_build_roads_property_matches_reference():
    # Hypothesis runs inside a plain test: for a failing @given test its
    # pytest plugin imports libcst to suggest a patch, and libcst's import
    # warning, an error under filterwarnings, would abort the whole session.
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(points=st.lists(st.one_of(_grid_point, _any_point), min_size=2, max_size=24),
           knn=st.integers(1, 6))
    def matches(points, knn):
        assert ps.build_roads(points, knn) == reference_build_roads(points, knn)

    matches()


def test_imports_leave_clustering_out(tmp_path):
    script = f"""
import json, sys
import poishare
from poishare.cli import main

def loaded():
    return [m for m in ("scipy.cluster", "scipy.spatial") if m in sys.modules]

after_import = loaded()
path = {str(tmp_path / "inst.json")!r}
assert main(["gen", "--mode", "gowalla-like", "--nodes", "20", "--seed", "3", "--out", path]) == 0
assert main(["solve-static", path, "-k", "3"]) == 0
print(json.dumps([after_import, loaded()]))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], []]
