import dataclasses
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import poishare as ps
from poishare.welfare import phi_walks_matrix, phi_walks_set
from util import (
    exact_total,
    golden_instance,
    instances,
    mixed_instances,
    naive_phi,
    random_instance,
    reference_broadcast_breakdown,
    reference_closed_form,
    reweighted,
)


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
    empty = ps.phi_selection_matrix(inst, ps.Selection(()))
    assert empty.per_user == (1.0, 2.0, 1.0)
    # one social edge: shared edge counted twice, then corrected
    inst2 = path3(social_edges=((0, 1),))
    assert ps.phi_selection_matrix(inst2, ps.Selection(())).per_user[0] == 3.0 - 1.0


def test_phi_selection_matrix_path3():
    inst = path3()
    sel = ps.phi_selection_matrix(inst, ps.Selection((1,)))
    assert sel.average == 2.0
    assert ps.phi_selection_matrix(inst, ps.Selection(())) == ps.phi_set_oracle(inst, ps.Selection(()))


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
    assert ps.phi_selection_matrix(with_full, sel) == ps.phi_selection_matrix(inst, sel)

    narrow = ps.PreferenceProfile((frozenset({0}), frozenset({0, 1}), frozenset({1})))
    with_narrow = ps.Instance(inst.sensing, inst.social, preferences=narrow)
    got = ps.phi_selection_matrix(with_narrow, sel)
    assert got.per_user == (1.0, 2.0, 1.0)
    assert got == ps.phi_set_oracle(with_narrow, sel)


def test_phi_walks_examples():
    inst = path3()
    empty = ps.phi_walks(inst, ps.WalkSet(()))
    assert empty == ps.phi_selection_matrix(inst, ps.Selection(()))
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
    sensing = ps.SensingGraph(node_count=2, user_count=2, edges=((0, 1), (0, 0)))
    inst = ps.Instance(sensing=sensing, social=ps.SocialGraph(user_count=2, edges=()))
    by_set = ps.phi_set_oracle(inst, ps.Selection(()))
    assert by_set.per_user == (2.0, 1.0)
    assert ps.phi_selection_matrix(inst, ps.Selection(())).per_user == by_set.per_user


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


@st.composite
def _broadcasts(draw):
    """An instance without interest profiles, broadcast rows that may repeat
    and name non-user nodes, and a walk set when the instance has walks."""
    instance = dataclasses.replace(draw(instances()), preferences=None)
    rows = draw(st.lists(st.integers(0, instance.node_count - 1), max_size=2 * instance.node_count))
    space = ps.enumerate_walks(instance, draw(st.integers(1, 2))).candidates
    walks = None
    if space:
        picked = draw(st.lists(st.sampled_from(space), min_size=1, max_size=4, unique=True))
        walks = ps.WalkSet(tuple(picked), augmentation=len(picked))
    return instance, rows, walks


def test_rank_one_matrix_route_equals_the_closed_form_property():
    # The no-profile matrix route never builds the rows of ones; the closed
    # form on them is its oracle, and the set route is the ground truth.
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(case=_broadcasts())
    def agrees(case):
        instance, rows, walks = case
        checks = [(rows, ps.welfare._matrix_breakdown(instance, rows).per_user,
                   ps.welfare.broadcast_breakdown(instance, rows).per_user)]
        if walks is not None:
            checks.append((walks.visited_nodes, phi_walks_matrix(instance, walks).per_user,
                           phi_walks_set(instance, walks).per_user))
        a = ps.sensing_matrix(instance)
        for broadcast, got, by_set in checks:
            oracle = tuple(float(v) for v in reference_closed_form(a, ps.social_matrix(instance, broadcast)))
            if instance.sensing.edge_weights is None:
                assert got == oracle == by_set
            else:
                assert all(math.isclose(g, o, rel_tol=1e-12, abs_tol=0.0) for g, o in zip(got, oracle))

    agrees()


def test_matrix_route_peak_does_not_grow_with_the_broadcast():
    # A 30-user broadcast on 1,000 nodes: rows of ones in B, and full rows
    # for their road neighbours in A B, peaked at about 9.6 MB traced; the
    # rank-one route peaks at about 4.6 MB (numpy 2.4, scipy 1.17).
    inst = ps.synth_instance(ps.GenSpec(mode="gowalla-like", node_count=1000, seed=7))
    sel = ps.Selection(tuple(range(30)))
    expected = ps.phi_selection_matrix(inst, sel)  # warm: scipy and the social reach
    tracemalloc.start()
    try:
        got = ps.phi_selection_matrix(inst, sel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 7_000_000, f"matrix route peaked at {peak} bytes"


def test_matrix_constructors_refuse_ids_out_of_range():
    # 4 nodes (2 users) and 3 roads: both ends of each range are accepted,
    # one past either end is an InputError rather than a wrapped index, and
    # so is an id that is not an integer rather than a cast one.
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=4, user_count=2, edges=((0, 1), (1, 2), (2, 3))),
        social=ps.SocialGraph(user_count=2, edges=()),
    )
    assert ps.social_matrix(inst, broadcast_rows=(0,)).toarray()[0].tolist() == [1.0, 1.0]
    assert ps.social_matrix(inst, broadcast_rows=(3,)).toarray()[3].tolist() == [1.0, 1.0]
    assert ps.sensing_matrix(inst, frozenset({0})).toarray()[0].tolist() == [0, 1, 0, 0]
    assert ps.sensing_matrix(inst, frozenset({2})).toarray()[3].tolist() == [0, 0, 1, 0]
    for rows in ((-1,), (4,), (2**70,), (1.5,), ("3",), (True,), (0, 2.0)):
        with pytest.raises(ps.InputError, match="broadcast row"):
            ps.social_matrix(inst, broadcast_rows=rows)
        with pytest.raises(ps.InputError, match="broadcast row"):
            ps.welfare._matrix_breakdown(inst, rows)
    for interest in ({-1}, {3}, {1.5}, {"2"}):
        with pytest.raises(ps.InputError, match="interest road"):
            ps.sensing_matrix(inst, frozenset(interest))


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
        limit = float(inst.sensing.weight_vector.sum())
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


def _random_walk(inst, rng, steps):
    nodes = [rng.randrange(inst.node_count)]
    for _ in range(steps):
        step = inst.sensing.neighbors[nodes[-1]]
        if not step:
            break
        nodes.append(rng.choice(step))
    return tuple(nodes)


def test_gain_from_nodes_equals_the_unique_of_its_rows():
    # prices are compared with ==: one node's price is its uncovered roads'
    # gains summed in road order, as greedy_cover scores; several nodes'
    # price sums the np.unique of their rows
    rng = random.Random(132)
    for inst in mixed_instances(131, 60) + [_weighted_star()]:
        state = ps.CoverageState(inst)
        incident = inst.sensing.incident
        covered = np.zeros(inst.sensing.edge_count, dtype=bool)

        def uncovered(ids):
            return ids[~covered[ids]]

        def expected(nodes):
            if len(nodes) == 1:
                ids = uncovered(np.array(incident[nodes[0]], dtype=np.intp))
                return sum(state.gain[ids].tolist()) / state.m
            rows = [np.array(incident[v], dtype=np.intp) for v in nodes]
            ids = uncovered(np.unique(np.concatenate(rows)))
            return float(state.gain[ids].sum()) / state.m

        for _ in range(4):
            for v in range(inst.node_count):
                assert state.gain_from_nodes((v,)) == expected((v,))
            for _ in range(10):
                walk = _random_walk(inst, rng, rng.randint(1, 4))
                assert state.gain_from_nodes(walk) == expected(walk)
            added = _random_walk(inst, rng, rng.randint(0, 2))
            state.add_nodes(added)
            for v in added:
                covered[list(incident[v])] = True


def _weighted_star():
    """Ten users, the centre 0 joined to the nine others by roads weighing
    0.1 .. 0.9: numpy's sum of its nine gains, taken through 8 partial
    sums, differs from the sum in road order in the last bit."""
    sensing = ps.SensingGraph(node_count=10, user_count=10,
                              edges=tuple((0, j) for j in range(1, 10)),
                              edge_weights=tuple(0.1 * j for j in range(1, 10)))
    return ps.Instance(sensing=sensing, social=ps.SocialGraph(user_count=10, edges=()))


def test_a_single_node_price_sums_its_roads_in_order():
    state = ps.CoverageState(_weighted_star())
    in_order = sum(state.gain.tolist())
    assert in_order != float(state.gain.sum())
    assert state.gain_from_nodes((0,)) == in_order / 10
    assert ps.marginal_gain(_weighted_star(), ps.Selection(()), 0) == in_order / 10


def test_single_node_prices_are_greedy_cover_scores():
    # after each of gus's picks every unselected user's price is its
    # greedy_cover score over the same covered roads, divided by m
    instances = [inst for inst in mixed_instances(134, 40) if inst.sensing.edge_count]
    instances.append(_weighted_star())
    for inst in instances:
        m = inst.user_count
        state = ps.CoverageState(inst)
        rounds = ps.welfare.greedy_cover(inst.sensing.incidence[:m], state.gain)
        trace, _ = ps.static_solver.greedy_user_trace(inst, m)
        chosen = set()
        for (user, gain), (pick, scores) in zip(trace, rounds, strict=True):
            for v in range(m):
                if v not in chosen:
                    assert state.gain_from_nodes((v,)) == scores[v] / m
            assert (pick, gain) == (user, scores[user] / m)
            state.add_nodes((user,))
            chosen.add(user)


@st.composite
def _coverage_cases(draw):
    """An instance with optional weights, self-loops, preferences and
    non-user nodes, and a run of price and add calls on it."""
    instance = draw(instances())
    nn = instance.node_count
    nodes = st.lists(st.integers(0, nn - 1), min_size=1, max_size=3).map(tuple)
    calls = draw(st.lists(st.tuples(st.sampled_from(("price", "add")), nodes), max_size=12))
    return instance, calls


def test_cached_prices_equal_a_fresh_state_property():
    # Hypothesis runs inside a plain test, as in test_pipeline: a failing
    # @given test collected by pytest would abort the session.
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(case=_coverage_cases())
    def matches(case):
        instance, calls = case
        state = ps.CoverageState(instance)
        added = []
        for kind, nodes in calls:
            if kind == "add":
                state.add_nodes(nodes)
                added.append(nodes)
            else:
                fresh = ps.CoverageState(instance)
                for step in added:
                    fresh.add_nodes(step)
                for query in [nodes] + [(v,) for v in range(instance.node_count)]:
                    assert state.gain_from_nodes(query) == fresh.gain_from_nodes(query)
            expected = ps.broadcast_breakdown(instance, [v for step in added for v in step])
            if instance.sensing.edge_weights is None:
                assert state.average() == expected.average
            else:
                assert state.average() == pytest.approx(expected.average, rel=1e-12, abs=1e-12)

    matches()



@st.composite
def _static_selections(draw):
    instance = draw(instances())
    users = draw(st.lists(st.integers(0, instance.user_count - 1), unique=True))
    return instance, ps.Selection(tuple(users))


def test_routes_agree_on_static_selections_property():
    # route="both" raises CrosscheckError when the matrix route and the set
    # route disagree: exactly under unit weights, past 1e-9 otherwise
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(case=_static_selections())
    def agrees(case):
        instance, selection = case
        both = ps.evaluate_selection(instance, selection, route="both")
        assert both == ps.evaluate_selection(instance, selection, route="set")

    agrees()

def test_broadcast_breakdown_equals_the_per_road_reference():
    rng = random.Random(133)
    instances = [
        random_instance(rng, max_users=8, max_extra_nodes=3, with_prefs=True,
                        with_weights=True, with_loops=rng.random() < 0.5, max_radius=2)
        for _ in range(40)
    ]
    # an instance drawn without roads has no weights to sum
    instances = [inst for inst in instances if inst.sensing.edge_weights is not None]
    instances.append(reweighted(golden_instance(), rng))
    assert len(instances) > 30
    for inst in instances:
        broadcasts = [(), tuple(rng.sample(range(inst.node_count), rng.randint(1, inst.node_count)))]
        for nodes in broadcasts:
            got = ps.broadcast_breakdown(inst, nodes)
            assert got == reference_broadcast_breakdown(inst, nodes), nodes


def test_phi_empty_equals_the_set_route():
    """The base welfare read from ``own_access`` sums each user's roads
    in road order; the set route sums them in its set's order, so the two
    agree exactly under unit weights and to 1e-9 under weights."""
    rng = random.Random(141)
    instances = mixed_instances(141, 60)
    instances += [reweighted(inst, rng) for inst in instances]
    kinds = {(inst.sensing.edge_weights is None, inst.preferences is None) for inst in instances}
    assert len(kinds) == 4
    for inst in instances:
        got = ps.phi_empty(inst)
        want = ps.broadcast_breakdown(inst, ())
        if inst.sensing.edge_weights is None:
            assert got == want
        else:
            assert got.per_user == pytest.approx(want.per_user, rel=0, abs=1e-9)
            assert got.average == pytest.approx(want.average, rel=0, abs=1e-9)


def test_crosscheck_counts_nan_as_disagreement():
    unit = path3()
    weighted = dataclasses.replace(unit, sensing=dataclasses.replace(
        unit.sensing, edge_weights=(1.5, 2.0)))
    for inst in (unit, weighted):
        good = ps.phi_set_oracle(inst, ps.Selection(()))
        bad = ps.WelfareBreakdown.from_per_user((math.nan,) + good.per_user[1:])
        for left, right in ((good, bad), (bad, good), (bad, bad)):
            with pytest.raises(ps.CrosscheckError):
                ps.welfare._check_agreement(inst, left, right)
        ps.welfare._check_agreement(inst, good, good)


def test_crosscheck_raises_on_divergence(monkeypatch):
    inst = path3()
    good = ps.phi_set_oracle(inst, ps.Selection(()))
    bad = ps.WelfareBreakdown(per_user=(1.0, 2.0, 9.0), average=4.0)
    with pytest.raises(ps.CrosscheckError):
        ps.welfare._check_agreement(inst, good, bad)

    # Both dispatchers run the matrix route, then the set route, and refuse
    # a matrix route that disagrees; 'matrix' alone returns its values.
    calls = []

    def spy(route, evaluate, shift=0.0):
        def wrapped(instance, broadcast):
            calls.append(route)
            got = evaluate(instance, broadcast)
            return ps.WelfareBreakdown.from_per_user([v + shift for v in got.per_user])
        return wrapped

    for dispatch, by_set, by_matrix, broadcast in (
        (ps.evaluate_selection, "phi_set_oracle", "phi_selection_matrix", ps.Selection((1,))),
        (ps.phi_walks, "phi_walks_set", "phi_walks_matrix", ps.WalkSet((ps.Walk((0, 1)),))),
    ):
        monkeypatch.setattr(ps.welfare, by_set, spy("set", getattr(ps.welfare, by_set)))
        monkeypatch.setattr(ps.welfare, by_matrix, spy("matrix", getattr(ps.welfare, by_matrix), 0.5))
        calls.clear()
        with pytest.raises(ps.CrosscheckError):
            dispatch(inst, broadcast, route="both")
        assert calls == ["matrix", "set"]
        assert dispatch(inst, broadcast, route="matrix").average == 2.5
        assert dispatch(inst, broadcast, route="set").average == 2.0
