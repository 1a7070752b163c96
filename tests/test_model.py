import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import poishare as ps
from poishare.cli import main
from util import instances, random_instance


def path3(social_edges=(), **kw):
    return ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=3, edges=tuple(social_edges)),
        **kw,
    )


def test_validate_minimal_instance():
    assert ps.validate(path3()) == []


def test_validate_user_count_mismatch():
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=()),
        social=ps.SocialGraph(user_count=5, edges=()),
    )
    violations = ps.validate(inst)
    assert len(violations) == 1
    assert "user_count mismatch" in violations[0]


def test_validate_preferences_must_include_incident_edges():
    prefs = ps.PreferenceProfile((frozenset(), frozenset({0, 1}), frozenset({1})))
    inst = path3(preferences=prefs)
    violations = ps.validate(inst)
    assert len(violations) == 1
    assert "user 0" in violations[0]


def test_validate_catches_duplicates_loops_and_ranges():
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=((0, 1), (1, 0), (2, 2), (0, 9))),
        social=ps.SocialGraph(user_count=3, edges=((0, 0), (1, 2), (1, 2))),
    )
    text = "\n".join(ps.validate(inst))
    assert "duplicate sensing edge" in text
    assert "self-loop" in text
    assert "out of range" in text
    assert "duplicate social edge" in text


def test_weight_vector_is_a_read_only_float64_copy_of_the_weights():
    edges = ((0, 1), (1, 2), (2, 2))
    for weights, want in ((None, [1.0, 1.0, 1.0]), ((2, 0.5, 3), [2.0, 0.5, 3.0])):
        g1 = ps.SensingGraph(node_count=3, user_count=3, edges=edges, edge_weights=weights)
        vector = g1.weight_vector
        assert vector.dtype == "float64" and not vector.flags.writeable
        assert vector.tolist() == want
    bare = ps.SensingGraph(node_count=1, user_count=1, edges=())
    assert bare.weight_vector.shape == (0,) and bare.weight_vector.dtype == "float64"


def test_incident_edges_examples():
    g = path3().sensing
    assert ps.incident_edges(g, {1}) == {0, 1}
    assert ps.incident_edges(g, set()) == set()
    assert ps.incident_edges(g, {0, 2}) == {0, 1}
    with pytest.raises(ps.InputError):
        ps.incident_edges(g, {7})


def test_incident_edges_inclusion_exclusion_exhaustive():
    # E(A u B) = E(A) u E(B), so |E(A u B)| = |E(A)| + |E(B)| - |E(A) n E(B)|.
    # The intersection must be of the edge sets: E(A n B) is a strict subset
    # of E(A) n E(B) whenever an edge has one endpoint in A only and the
    # other in B only, so the node-intersection form of the identity fails.
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, max_users=5, max_extra_nodes=1)
        g = inst.sensing
        nodes = range(g.node_count)
        subsets = [set(c) for r in range(g.node_count + 1) for c in combinations(nodes, r)]
        for a in subsets:
            for b in subsets:
                ea, eb = ps.incident_edges(g, a), ps.incident_edges(g, b)
                assert ps.incident_edges(g, a | b) == ea | eb
                assert len(ea | eb) == len(ea) + len(eb) - len(ea & eb)
                assert ps.incident_edges(g, a & b) <= ea & eb


def test_incident_edges_monotone():
    rng = random.Random(6)
    for _ in range(100):
        inst = random_instance(rng, max_users=6, max_extra_nodes=2)
        g = inst.sensing
        a = {v for v in range(g.node_count) if rng.random() < 0.4}
        b = a | {v for v in range(g.node_count) if rng.random() < 0.4}
        assert ps.incident_edges(g, a) <= ps.incident_edges(g, b)


def test_social_neighborhood_examples():
    inst = path3(social_edges=((0, 1), (1, 2)))
    assert ps.social_neighborhood(inst, 0) == {1}
    inst2 = path3(social_edges=((0, 1), (1, 2)), social_hop_radius=2)
    assert ps.social_neighborhood(inst2, 0) == {1, 2}
    assert ps.social_neighborhood(path3(), 0) == set()
    with pytest.raises(ps.InputError):
        ps.social_neighborhood(inst, 3)


def test_social_neighborhood_radius_is_iterated_one_hop():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(rng, max_users=7)
        r = rng.randint(1, 3)
        inst_r = ps.Instance(inst.sensing, inst.social, social_hop_radius=r)
        inst_1 = ps.Instance(inst.sensing, inst.social, social_hop_radius=1)
        for u in range(inst.user_count):
            expanded = {u}
            for _ in range(r):
                expanded |= {
                    w for v in list(expanded) for w in ps.social_neighborhood(inst_1, v)
                }
            expanded.discard(u)
            assert ps.social_neighborhood(inst_r, u) == expanded


def test_selection_rejects_duplicates():
    with pytest.raises(ps.InputError):
        ps.Selection((1, 1))


def test_walkset_enforces_start_cap():
    w = ps.Walk((0, 1))
    with pytest.raises(ps.InputError):
        ps.WalkSet((w, w), augmentation=1)
    assert len(ps.WalkSet((w, w), augmentation=2)) == 2
    with pytest.raises(ps.InputError):
        ps.WalkSet((), augmentation=0)


def test_check_walk():
    inst = path3()
    ps.model.check_walk(inst, ps.Walk((0, 1, 2)), n=2)
    with pytest.raises(ps.InputError):
        ps.model.check_walk(inst, ps.Walk((0, 2)))  # not an edge
    with pytest.raises(ps.InputError):
        ps.model.check_walk(inst, ps.Walk((0, 1)), n=2)  # wrong length
    non_user = ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=1, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=1, edges=()),
    )
    with pytest.raises(ps.InputError):
        ps.model.check_walk(non_user, ps.Walk((1, 2)))  # start not a user


def test_instance_json_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        inst = random_instance(
            rng, max_users=6, max_extra_nodes=2, with_prefs=rng.random() < 0.5,
            with_weights=rng.random() < 0.5, max_radius=2,
        )
        back = ps.loads_instance(ps.dumps_instance(inst))
        assert back == inst
        assert ps.dumps_instance(back) == ps.dumps_instance(inst)



def test_instance_json_round_trip_property():
    # any positive finite weight, subnormal or huge, keeps its bits through
    # a JSON document, so a second serialization repeats the first byte for byte
    weights = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(instance=instances(weights=weights))
    def round_trips(instance):
        text = ps.dumps_instance(instance)
        back = ps.loads_instance(text)
        assert back == instance
        assert ps.dumps_instance(back) == text

    round_trips()

def test_load_instance_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ps.InputError):
        ps.load_instance(p)
    p2 = tmp_path / "invalid.json"
    p2.write_text('{"node_count": 2, "user_count": 5, "sensing_edges": [], "social_edges": []}')
    with pytest.raises(ps.InputError):
        ps.load_instance(p2)
    assert ps.load_instance(p2, check=False).user_count == 5


def test_load_instance_refuses_negative_counts():
    for field in ("node_count", "user_count"):
        payload = {"node_count": 3, "user_count": 2, "sensing_edges": [], "social_edges": []}
        payload[field] = -1
        with pytest.raises(ps.InputError, match=field):
            ps.loads_instance(json.dumps(payload), check=False)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("node_count", 2.7, "node_count must be an integer, got 2.7"),
        ("sensing_edges", [[0, 1.5], [1, 2]], "a sensing edge end must be an integer, got 1.5"),
        ("social_hop_radius", 1.5, "social_hop_radius must be an integer, got 1.5"),
        ("social_edges", [[0, True]], "a social edge end must be an integer, got True"),
        ("edge_weights", ["2.5", 1.0], "an edge weight must be a number, got '2.5'"),
    ],
    ids=["node_count", "sensing_edge", "hop_radius", "social_edge", "edge_weight"],
)
def test_load_instance_refuses_numbers_it_would_have_to_convert(tmp_path, field, value, message):
    payload = {"node_count": 3, "user_count": 2, "sensing_edges": [[0, 1], [1, 2]],
               "social_edges": [[0, 1]], "social_hop_radius": 1}
    assert ps.loads_instance(json.dumps(payload)).node_count == 3
    payload[field] = value
    with pytest.raises(ps.InputError) as raised:
        ps.loads_instance(json.dumps(payload), check=False)
    assert str(raised.value) == f"malformed instance document: {message}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["validate", str(path)]) == 1


@pytest.mark.parametrize("weight", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_weights_are_refused(tmp_path, capsys, weight):
    # JSON's Infinity and NaN load as numbers; validation refuses them
    path = tmp_path / "weights.json"
    path.write_text('{"node_count": 3, "user_count": 3, "sensing_edges": [[0, 1], [1, 2]], '
                    f'"social_edges": [], "edge_weights": [{weight}, 1.0]}}', encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    value = float(weight.lower().replace("infinity", "inf"))
    assert f"edge weight 0 must be finite and positive, got {value}" in capsys.readouterr().out
    assert main(["solve-static", str(path), "-k", "1"]) == 1
    assert main(["solve-mobile", str(path), "-n", "1", "-k", "1", "--route", "both"]) == 1


def test_load_instance_refuses_huge_counts_before_building_tables(tmp_path):
    # Run in a child whose address space is capped a little above what the
    # import uses: a check that ran after the node tables were built would
    # fail there with MemoryError instead of exhausting the host.
    script = """
import json, resource, sys
import poishare as ps
from poishare.cli import main

with open("/proc/self/statm") as fh:
    in_use = int(fh.read().split()[0]) * resource.getpagesize()
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = in_use + (256 << 20)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

path = sys.argv[1]
codes = []
for doc in ('{"node_count": 1000000000, "user_count": 1, "sensing_edges": [], "social_edges": []}',
            '{"node_count": 2, "user_count": 1000000000, "sensing_edges": [], "social_edges": []}',
            '{"node_count": Infinity, "user_count": 1, "sensing_edges": [], "social_edges": []}'):
    try:
        ps.loads_instance(doc, check=False)
        codes.append("loaded")
    except ps.InputError as exc:
        codes.append(str(exc))
    with open(path, "w") as fh:
        fh.write(doc)
    codes.append(main(["validate", path]))
print(json.dumps(codes))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "huge.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    assert codes[0] == f"node_count 1000000000 is outside [0, {ps.io.MAX_NODES}]"
    assert codes[2] == f"user_count 1000000000 is outside [0, {ps.io.MAX_NODES}]"
    assert codes[4].startswith("malformed instance document")
    assert codes[1::2] == [1, 1, 1]
