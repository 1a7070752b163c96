import dataclasses
import random
from itertools import combinations

import numpy as np
import pytest
from scipy import sparse

import poishare as ps
from poishare.welfare import phi_walks_matrix, phi_walks_set
from util import exact_total, naive_phi, random_instance


def path3(social_edges=(), **kw):
    return ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=3, edges=tuple(social_edges)),
        **kw,
    )


def test_phi_set_oracle_path3():
    inst = path3()
    empty = ps.phi_set_oracle(inst, ps.Selection(()))
    assert empty.per_user == (1.0, 2.0, 1.0)
    assert empty.average == pytest.approx(4 / 3)
    center = ps.phi_set_oracle(inst, ps.Selection((1,)))
    assert center.per_user == (2.0, 2.0, 2.0)
    assert center.average == 2.0
    # complete social graph already spreads everything
    social_full = path3(social_edges=((0, 1), (0, 2), (1, 2)))
    assert ps.phi_set_oracle(social_full, ps.Selection(())).average == 2.0


def test_phi_empty_matrix_path3():
    inst = path3()
    a = ps.sensing_matrix(inst)
    assert a.toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    b = ps.social_matrix(inst)
    assert b.toarray().tolist() == np.eye(3).tolist()
    empty = ps.phi_empty_matrix(inst)
    assert empty.per_user == (1.0, 2.0, 1.0)
    # one social edge: shared edge counted twice, then corrected
    inst2 = path3(social_edges=((0, 1),))
    assert ps.phi_empty_matrix(inst2).per_user[0] == 3.0 - 1.0


def test_phi_selection_matrix_path3():
    inst = path3()
    sel = ps.phi_selection_matrix(inst, ps.Selection((1,)))
    assert sel.average == 2.0
    assert ps.phi_selection_matrix(inst, ps.Selection(())) == ps.phi_empty_matrix(inst)


def test_social_matrix_update_marks_rows_not_columns():
    inst = path3(social_edges=((0, 1),))
    b = ps.social_matrix(inst, broadcast_rows=(2,)).toarray()
    assert b[2].tolist() == [1.0, 1.0, 1.0]
    assert b[:, 2].tolist() == [0.0, 0.0, 1.0]
    assert not np.array_equal(b, b.T)


def test_phi_preferences_matrix_examples():
    inst = path3()
    full = ps.PreferenceProfile((frozenset({0, 1}),) * 3)
    with_full = ps.Instance(inst.sensing, inst.social, preferences=full)
    sel = ps.Selection((1,))
    assert ps.phi_preferences_matrix(with_full, sel) == ps.phi_selection_matrix(inst, sel)

    narrow = ps.PreferenceProfile((frozenset({0}), frozenset({0, 1}), frozenset({1})))
    with_narrow = ps.Instance(inst.sensing, inst.social, preferences=narrow)
    got = ps.phi_preferences_matrix(with_narrow, sel)
    assert got.per_user[0] == 1.0
    with pytest.raises(ps.InputError):
        ps.phi_preferences_matrix(inst, sel)
    with pytest.raises(ps.InputError):
        ps.phi_selection_matrix(with_narrow, sel)


def test_phi_walks_examples():
    inst = path3()
    empty = ps.phi_walks(inst, ps.WalkSet(()))
    assert empty == ps.phi_empty_matrix(inst)
    one = ps.phi_walks(inst, ps.WalkSet((ps.Walk((0, 1)),)))
    assert one.average == 2.0
    with pytest.raises(ps.InputError):
        ps.phi_walks(inst, ps.WalkSet((ps.Walk((0, 2)),)))


def test_route_equivalence_randomized():
    rng = random.Random(101)
    for _ in range(300):
        inst = random_instance(
            rng,
            max_users=8,
            max_extra_nodes=3,
            with_prefs=rng.random() < 0.5,
            with_loops=rng.random() < 0.3,
            max_radius=2,
        )
        k = rng.randint(0, inst.user_count)
        sel = ps.Selection(tuple(rng.sample(range(inst.user_count), k)))
        by_set = ps.phi_set_oracle(inst, sel)
        by_matrix = ps.evaluate_selection(inst, sel, route="matrix")
        assert by_set.per_user == by_matrix.per_user
        assert by_set.average == naive_phi(inst, sel.users)
        crosschecked = ps.evaluate_selection(inst, sel, route="both")
        assert crosschecked == by_set


def test_route_equivalence_weighted_tolerance():
    rng = random.Random(102)
    for _ in range(100):
        inst = random_instance(rng, max_users=7, max_extra_nodes=2, with_weights=True)
        k = rng.randint(0, inst.user_count)
        sel = ps.Selection(tuple(rng.sample(range(inst.user_count), k)))
        by_set = ps.phi_set_oracle(inst, sel)
        by_matrix = ps.evaluate_selection(inst, sel, route="matrix")
        for a, b in zip(by_set.per_user, by_matrix.per_user):
            assert a == pytest.approx(b, abs=1e-9)


def test_walk_route_equivalence_randomized():
    rng = random.Random(103)
    for _ in range(200):
        inst = random_instance(
            rng, max_users=5, max_extra_nodes=2, with_prefs=rng.random() < 0.4
        )
        try:
            space = ps.enumerate_walks(inst, rng.randint(1, 2))
        except ps.InputError:
            continue
        if not space.candidates:
            continue
        k = rng.randint(1, min(3, len(space.candidates)))
        walks = ps.WalkSet(tuple(rng.sample(list(space.candidates), k)), augmentation=k)
        assert phi_walks_set(inst, walks).per_user == phi_walks_matrix(inst, walks).per_user


def test_self_loop_counting_matches_oracle():
    sensing = ps.SensingGraph(
        node_count=2, user_count=2, edges=((0, 1), (0, 0)), allow_self_loops=True
    )
    inst = ps.Instance(sensing=sensing, social=ps.SocialGraph(user_count=2, edges=()))
    by_set = ps.phi_set_oracle(inst, ps.Selection(()))
    assert by_set.per_user == (2.0, 1.0)
    assert ps.phi_empty_matrix(inst).per_user == by_set.per_user


def test_column_sum_double_counts_and_minor_corrects():
    # Road classification: an edge inside the reach set is counted twice by
    # d B (the column sums of A B), a boundary edge once, an outside edge not
    # at all; colsum(B o (A B)) equals twice the inside-edge weight.
    rng = random.Random(104)
    for _ in range(100):
        inst = random_instance(rng, max_users=7, max_extra_nodes=2)
        a = ps.sensing_matrix(inst)
        b = ps.social_matrix(inst)
        d = a.toarray().sum(axis=1)
        column_sums = d @ b.toarray()
        minor_sums = (b.toarray() * (a @ b).toarray()).sum(axis=0)
        for x in range(inst.user_count):
            reach = {x} | ps.social_neighborhood(inst, x)
            inside = boundary = 0
            for (u, v) in inst.sensing.edges:
                hits = (u in reach) + (v in reach)
                if hits == 2:
                    inside += 1
                elif hits == 1:
                    boundary += 1
            assert column_sums[x] == 2 * inside + boundary
            assert minor_sums[x] == 2 * inside


def test_matrix_route_is_sparse_and_exact():
    # A synthetic-random instance with non-user nodes at hop radius 2, and
    # the golden 40-location instance.
    spread = ps.synth_instance(ps.GenSpec(
        mode="synthetic-random", node_count=30, user_count=20, edge_prob=0.15,
        degree_mean=3.0, degree_sigma=1.0, seed=11,
    ))
    spread = dataclasses.replace(spread, social_hop_radius=2)
    golden = ps.synth_instance(ps.GenSpec(mode="gowalla-like", node_count=40, seed=7))
    assert spread.user_count < spread.node_count
    rng = random.Random(109)
    visited_non_users = False
    for inst in (spread, golden):
        m = inst.user_count
        a = ps.sensing_matrix(inst)
        assert sparse.issparse(a)
        assert a.nnz <= 2 * inst.sensing.edge_count
        reach_entries = sum(1 + len(ps.social_neighborhood(inst, x)) for x in range(m))
        for rows in ((), (0,), tuple(rng.sample(range(inst.node_count), 5))):
            b = ps.social_matrix(inst, broadcast_rows=rows)
            assert sparse.issparse(b)
            assert b.nnz <= reach_entries + len(rows) * m
        for k in (0, 1, 3, m // 2, m):
            sel = ps.Selection(tuple(rng.sample(range(m), k)))
            assert ps.phi_selection_matrix(inst, sel) == ps.phi_set_oracle(inst, sel)
        space = ps.enumerate_walks(inst, 2)
        for k in (1, 4, 10):
            walks = ps.WalkSet(tuple(rng.sample(list(space.candidates), k)), augmentation=k)
            assert phi_walks_matrix(inst, walks) == phi_walks_set(inst, walks)
            visited_non_users |= max(walks.visited_nodes) >= m
    assert visited_non_users


def test_update_order_does_not_matter():
    rng = random.Random(105)
    for _ in range(50):
        inst = random_instance(rng, max_users=6)
        users = list(range(inst.user_count))
        k = rng.randint(0, inst.user_count)
        chosen = rng.sample(users, k)
        forward = ps.evaluate_selection(inst, ps.Selection(tuple(chosen)), route="matrix")
        backward = ps.evaluate_selection(
            inst, ps.Selection(tuple(reversed(chosen))), route="matrix"
        )
        assert forward.per_user == backward.per_user


def test_welfare_never_exceeds_total_edge_weight():
    rng = random.Random(106)
    for _ in range(100):
        inst = random_instance(rng, max_users=6, max_extra_nodes=2)
        k = rng.randint(0, inst.user_count)
        sel = ps.Selection(tuple(rng.sample(range(inst.user_count), k)))
        breakdown = ps.phi_set_oracle(inst, sel)
        limit = inst.sensing.total_weight
        assert all(0.0 <= v <= limit for v in breakdown.per_user)
        assert breakdown.average <= limit


def test_marginal_gain_examples():
    inst = path3()
    assert ps.marginal_gain(inst, ps.Selection((1,)), 1) == 0.0
    assert ps.marginal_gain(inst, ps.Selection(()), 1) == pytest.approx(2 / 3)
    with pytest.raises(ps.InputError):
        ps.marginal_gain(inst, ps.Selection(()), 99)
    ws = ps.WalkSet((ps.Walk((0, 1)),), augmentation=1)
    with pytest.raises(ps.InputError):
        ps.marginal_gain(inst, ws, ps.Walk((0, 1)))
    assert ps.marginal_gain(inst, ws, ps.Walk((2, 1))) == 0.0


def test_monotone_and_submodular_exhaustive_small():
    rng = random.Random(107)
    for _ in range(40):
        inst = random_instance(rng, max_users=5, with_prefs=rng.random() < 0.4)
        m = inst.user_count
        users = list(range(m))
        value = {}
        for r in range(m + 1):
            for subset in combinations(users, r):
                value[frozenset(subset)] = exact_total(
                    ps.phi_set_oracle(inst, ps.Selection(subset))
                )
        subsets = list(value)
        for s in subsets:
            for v in users:
                assert value[s | {v}] >= value[s]
        for s in subsets:
            for t in subsets:
                if s <= t:
                    for v in users:
                        gain_s = value[s | {v}] - value[s]
                        gain_t = value[t | {v}] - value[t]
                        assert gain_s >= gain_t


def test_coverage_state_matches_oracle():
    rng = random.Random(108)
    for _ in range(100):
        inst = random_instance(
            rng, max_users=7, max_extra_nodes=2,
            with_prefs=rng.random() < 0.4, with_weights=rng.random() < 0.4,
        )
        state = ps.CoverageState(inst)
        added: list[int] = []
        assert state.average() == pytest.approx(ps.phi_empty(inst).average)
        for _ in range(rng.randint(0, 4)):
            v = rng.randrange(inst.node_count)
            gain = state.gain_from_nodes((v,))
            before = state.average()
            state.add_nodes((v,))
            added.append(v)
            assert state.average() == pytest.approx(before + gain)
            assert state.average() == pytest.approx(
                ps.broadcast_breakdown(inst, added).average
            )


def test_crosscheck_raises_on_divergence():
    inst = path3()
    good = ps.phi_set_oracle(inst, ps.Selection(()))
    bad = ps.WelfareBreakdown(per_user=(1.0, 2.0, 9.0), average=4.0)
    with pytest.raises(ps.CrosscheckError):
        ps.welfare._check_agreement(inst, good, bad)
