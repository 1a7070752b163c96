"""The independent oracle agrees with poishare on small seeded instances."""

import dataclasses
import json
import random

import poishare as ps

from perfbench.checks import ReferenceGreedy
from perfbench.oracle import Oracle


def _instances():
    for seed in range(12):
        yield ps.synth_instance(ps.GenSpec(
            mode="synthetic-random", node_count=11, user_count=8, edge_prob=0.3,
            degree_mean=2.0, degree_sigma=1.0, seed=seed))
        gowalla = ps.synth_instance(ps.GenSpec(
            mode="gowalla-like", node_count=14, degree_mean=2.0, degree_sigma=1.0, seed=seed))
        yield gowalla
        yield dataclasses.replace(gowalla, social_hop_radius=2)


def _oracle(instance) -> Oracle:
    return Oracle(json.loads(ps.dumps_instance(instance)))


def test_welfare_matches_set_route_on_random_broadcasts():
    rng = random.Random(5)
    checked = 0
    for instance in _instances():
        oracle = _oracle(instance)
        assert oracle.base_total == sum(ps.phi_empty(instance).per_user)
        for _ in range(10):
            nodes = rng.sample(range(instance.node_count), rng.randint(0, instance.node_count))
            expected = ps.broadcast_breakdown(instance, nodes)
            assert [float(v) for v in oracle.per_user(nodes)] == list(expected.per_user)
            assert oracle.average(nodes) == expected.average
            checked += 1
    assert checked == 360


def test_marginals_and_single_users_match_coverage_state():
    rng = random.Random(6)
    for instance in _instances():
        oracle = _oracle(instance)
        m = instance.user_count
        singles = oracle.single_user_totals()
        for u in range(m):
            assert singles[u] == sum(ps.phi_set_oracle(instance, ps.Selection((u,))).per_user)
        chosen = rng.sample(range(m), rng.randint(0, m - 1))
        state = ps.CoverageState(instance)
        state.add_nodes(chosen)
        marginals = oracle.marginal_totals(chosen)
        for u in range(m):
            assert marginals[u] / m == state.gain_from_nodes((u,))


def test_reference_greedies_match_the_solvers():
    for instance in _instances():
        oracle = _oracle(instance)
        k = instance.user_count
        assert ReferenceGreedy(oracle).prefix(k) == list(ps.gus(instance, k).selection.users)
        picks, _ = ps.static_solver.greedy_max_coverage(instance, k)
        assert oracle.greedy_coverage(k) == list(picks)


def test_components_counts_disconnected_roads():
    instance = ps.Instance(
        sensing=ps.SensingGraph(node_count=5, user_count=5, edges=((0, 1), (2, 3))),
        social=ps.SocialGraph(user_count=5, edges=()),
    )
    assert _oracle(instance).components() == 3
