import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import poishare as ps
from poishare import mobile_solver
from poishare.cli import main
from poishare.mobile_solver import intermediate_solution
from poishare.welfare import ROUTES
from util import (
    assert_greedy_rounds,
    exact_total,
    random_all_user_instance,
    random_instance,
    reference_greedy,
    welfare_total,
)


def path3():
    return ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=3, edges=()),
    )


def test_enumerate_walks_path3():
    space = ps.enumerate_walks(path3(), 1)
    assert {w.nodes for w in space.candidates} == {(0, 1), (1, 0), (1, 2), (2, 1)}
    space2 = ps.enumerate_walks(path3(), 2)
    from_v0 = {w.nodes for w in space2.candidates if w.start == 0}
    assert from_v0 == {(0, 1, 0), (0, 1, 2)}
    with pytest.raises(ps.InputError):
        ps.enumerate_walks(path3(), 0)


def test_enumerate_walks_matches_independent_enumerator():
    rng = random.Random(41)
    for _ in range(60):
        inst = random_instance(rng, max_users=4, max_extra_nodes=2)
        n = rng.randint(1, 3)
        space = ps.enumerate_walks(inst, n)
        # provable ceiling: a start choice then at most node_count options
        # per step (the start-free node_count**n form undercounts, e.g. a
        # triangle at n=1 has 6 walks)
        assert len(space) <= inst.user_count * inst.node_count**n
        nbrs = inst.sensing.neighbors
        reference = {
            seq
            for seq in product(range(inst.node_count), repeat=n + 1)
            if seq[0] < inst.user_count
            and all(b in nbrs[a] for a, b in zip(seq, seq[1:]))
        }
        assert {w.nodes for w in space.candidates} == reference


def test_gps_path3():
    result = ps.gps(path3(), n=1, k=1, g=1)
    assert result.welfare.average == 2.0
    assert result.pruned_starts == frozenset()
    assert len(result.walks) == 1


def test_gps_full_augmentation_never_prunes():
    rng = random.Random(42)
    for _ in range(50):
        inst = random_instance(rng, max_users=5, max_extra_nodes=2)
        try:
            space = ps.enumerate_walks(inst, rng.randint(1, 2))
        except ps.InputError:
            continue
        for k in (1, 2, 3):
            try:
                result = ps.gps(inst, space.n, k, g=k, space=space)
            except ps.InfeasibleError:
                continue
            assert result.pruned_starts == frozenset()


def test_gps_argument_checks():
    inst = path3()
    with pytest.raises(ps.InputError):
        ps.gps(inst, 1, 2, g=3)  # g > k
    with pytest.raises(ps.InputError):
        ps.gps(inst, 1, 2, g=0)
    with pytest.raises(ps.InfeasibleError):
        ps.gps(inst, 1, 99, g=99)


def test_gps_refuses_a_walk_space_of_another_length():
    inst = path3()
    with pytest.raises(ps.InputError, match="walk space has n=2, requested n=3"):
        ps.gps(inst, 3, 2, 1, space=ps.enumerate_walks(inst, 2))


def test_gps_respects_start_cap():
    # star: all best walks start at the center; g=1 forces variety
    edges = tuple((0, i) for i in range(1, 5))
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=5, user_count=5, edges=edges),
        social=ps.SocialGraph(user_count=5, edges=()),
    )
    result = ps.gps(inst, n=1, k=3, g=1)
    starts = [w.start for w in result.walks.walks]
    assert len(set(starts)) == 3
    assert result.pruned_starts  # the capped starts were removed mid-run
    assert ps.gps(inst, n=1, k=3, g=3).pruned_starts == frozenset()


def test_gps_trace_gains_non_increasing():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_all_user_instance(rng, max_nodes=6)
        try:
            result = ps.gps(inst, 1, min(3, inst.user_count), g=1)
        except ps.InfeasibleError:
            continue
        gains = [g for _, g in result.trace]
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))


def test_adjust_walk_set_worked_example():
    # graph holding three selected 2-edge walks: two from the same start
    # 0:v1 1:v2 2:v3 3:v4 4:v7 5:v11 6:v14 7:v15 8:v16
    edges = ((0, 1), (1, 4), (0, 3), (3, 8), (2, 5), (5, 6), (7, 8))
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=9, user_count=9, edges=edges),
        social=ps.SocialGraph(user_count=9, edges=()),
    )
    selected = ps.WalkSet(
        (ps.Walk((0, 1, 4)), ps.Walk((0, 3, 8)), ps.Walk((2, 5, 6))), augmentation=3
    )
    adjusted = ps.adjust_walk_set(selected, n=2)
    walks = list(adjusted.walks)
    assert walks[0].nodes == (0, 1, 4)
    assert ps.Walk((2, 5, 6)) in walks
    moved = [w for w in walks if w.start == 3]
    assert len(moved) == 1
    assert moved[0].nodes[:2] == (3, 8)  # replay from v4 keeps the old suffix
    assert moved[0].edge_count == 2
    assert len({w.start for w in walks}) == 3
    # replay changes nothing the walks can reach
    assert adjusted.visited_nodes <= selected.visited_nodes
    assert ps.phi_walks(inst, adjusted).average == ps.phi_walks(inst, selected).average


def test_adjusted_gps_identity_when_starts_distinct():
    inst = path3()
    base = ps.gps(inst, 1, 2, g=2)
    adjusted = ps.adjusted_gps(inst, 1, 2)
    if len({w.start for w in base.walks.walks}) == 2:
        assert adjusted.walks.walks == base.walks.walks


def test_adjusted_gps_requires_all_user_nodes():
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=2, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=2, edges=()),
    )
    with pytest.raises(ps.InfeasibleError):
        ps.adjusted_gps(inst, 1, 1)


def test_adjusted_gps_propositions_randomized():
    rng = random.Random(44)
    for _ in range(120):
        inst = random_all_user_instance(rng, max_nodes=7)
        n = rng.randint(1, 2)
        space = ps.enumerate_walks(inst, n)
        for k in (1, 2, 3):
            try:
                adjusted = ps.adjusted_gps(inst, n, k, space=space)
                base = ps.gps(inst, n, k, g=k, space=space)
            except ps.InfeasibleError:
                continue
            starts = [w.start for w in adjusted.walks.walks]
            assert len(set(starts)) == len(starts) == k
            assert exact_total(adjusted.welfare) == exact_total(base.welfare)


def test_brute_force_mobile_k1_and_containment():
    rng = random.Random(45)
    for _ in range(40):
        inst = random_instance(rng, max_users=5, max_extra_nodes=1)
        try:
            space = ps.enumerate_walks(inst, 1)
        except ps.InputError:
            continue
        if not space.candidates:
            continue
        best_single = max(
            ps.phi_walks(inst, ps.WalkSet((w,))).average for w in space.candidates
        )
        got = ps.brute_force_mobile(inst, 1, 1, g=1, space=space)
        assert got.welfare.average == best_single
        try:
            opt_g1 = ps.brute_force_mobile(inst, 1, 2, g=1, space=space)
            opt_gk = ps.brute_force_mobile(inst, 1, 2, g=2, space=space)
        except ps.InfeasibleError:
            continue
        assert opt_gk.welfare.average >= opt_g1.welfare.average


def test_brute_force_mobile_matches_naive_enumeration():
    rng = random.Random(46)
    checked = 0
    while checked < 25:
        inst = random_instance(rng, max_users=4, max_extra_nodes=1, min_users=2)
        n = rng.randint(1, 2)
        try:
            space = ps.enumerate_walks(inst, n)
        except ps.InputError:
            continue
        k = rng.randint(1, 2)
        g = rng.randint(1, k)
        idx_by_start = {}
        for w in space.candidates:
            idx_by_start.setdefault(w.start, []).append(w)
        if sum(min(g, len(v)) for v in idx_by_start.values()) < k:
            continue
        if len(space) > 40:
            continue
        best = -1.0
        for combo in combinations(space.candidates, k):
            counts = {}
            ok = True
            for w in combo:
                counts[w.start] = counts.get(w.start, 0) + 1
                if counts[w.start] > g:
                    ok = False
                    break
            if ok:
                best = max(best, ps.phi_walks(inst, ps.WalkSet(combo, augmentation=g)).average)
        got = ps.brute_force_mobile(inst, n, k, g=g, space=space)
        assert got.welfare.average == best
        assert len(got.walks) == k
        checked += 1


def test_brute_force_mobile_cap_refusal():
    rng = random.Random(47)
    inst = random_all_user_instance(rng, max_nodes=6, min_nodes=6, edge_prob=0.9)
    with pytest.raises(ps.InfeasibleError, match="cap"):
        ps.brute_force_mobile(inst, 2, 3, g=1, cap=5)


@pytest.mark.parametrize("edges, ceiling", [(((0, 1), (0, 2)), 2.0),
                                            (((0, 0), (0, 1), (0, 2)), 3.0)])
def test_brute_force_mobile_tops_up_past_the_maximal_visited_sets(edges, ceiling):
    # a star on roads (0,1) and (0,2): the maximal visited sets of 2-edge
    # walks are {0,1} and {0,2} from the centre and {0,1,2} from each leaf,
    # four in all, so a budget of 5 walks is topped up from the candidates.
    # With a self-loop at the centre, the centre's first unused candidate
    # comes when it already starts 2 walks, so the top-up must skip it.
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=edges),
        social=ps.SocialGraph(user_count=3, edges=()),
    )
    result = ps.brute_force_mobile(inst, 2, 5, g=2)
    walks = result.walks.walks
    assert len(walks) == 5 and len(set(walks)) == 5
    assert all(walk.edge_count == 2 for walk in walks)
    assert max([walk.start for walk in walks].count(start) for start in range(3)) <= 2
    assert result.welfare.average == ps.static_solver.welfare_ceiling(inst) == ceiling
    assert result.welfare.average == ps.phi_walks(inst, result.walks).average


def test_visited_node_sufficiency():
    # same visited nodes => same welfare, regardless of the walks used
    rng = random.Random(48)
    for _ in range(40):
        inst = random_all_user_instance(rng, max_nodes=6)
        space = ps.enumerate_walks(inst, 2)
        by_visited = {}
        for w in space.candidates:
            by_visited.setdefault(frozenset(w.nodes), []).append(w)
        for visited, group in by_visited.items():
            if len(group) < 2:
                continue
            values = {
                ps.phi_walks(inst, ps.WalkSet((w,))).average for w in group[:4]
            }
            assert len(values) == 1


def test_theorem5_chain_randomized():
    rng = random.Random(49)
    for _ in range(60):
        inst = random_instance(rng, max_users=5, max_extra_nodes=1)
        n = rng.randint(1, 2)
        try:
            space = ps.enumerate_walks(inst, n)
        except ps.InputError:
            continue
        for k in (2, 3):
            try:
                full = ps.gps(inst, n, k, g=k, space=space)
            except ps.InfeasibleError:
                continue
            t_full = exact_total(full.welfare)
            for g in range(1, k):
                try:
                    augmented = ps.gps(inst, n, k, g=g, space=space)
                except ps.InfeasibleError:
                    continue
                inter = intermediate_solution(full, g)
                t_inter = exact_total(ps.phi_walks(inst, inter))
                t_aug = exact_total(augmented.welfare)
                assert t_aug >= t_inter
                assert t_inter * k >= g * t_full


def test_ub2_examples_and_dominance():
    inst = path3()
    # budget saturates the node set: base welfare plus everything coverable,
    # 4/3 + 2, passes the ceiling of broadcasting both roads
    assert ps.ub2(inst, 2, 3) == 2.0
    rng = random.Random(50)
    for _ in range(50):
        rnd = random_instance(rng, max_users=5, max_extra_nodes=1)
        n = rng.randint(1, 2)
        try:
            space = ps.enumerate_walks(rnd, n)
        except ps.InputError:
            continue
        for k in (1, 2):
            try:
                opt = ps.brute_force_mobile(rnd, n, k, g=1, space=space)
            except ps.InfeasibleError:
                continue
            assert ps.ub2(rnd, n, k) >= opt.welfare.average - 1e-9
    with pytest.raises(ps.InputError):
        ps.ub2(inst, 0, 1)


def test_mobile_bound_values():
    assert ps.mobile_bound(1, 10, 1) == 1.0
    assert ps.mobile_bound(2, 4, 2) == pytest.approx(0.875)
    k, varpi = 10_000, 10_000
    assert ps.mobile_bound(k, varpi, 1) == pytest.approx((1 / k) * (1 - 1 / 2.718281828), abs=1e-6)
    for g in range(1, 6):
        assert ps.mobile_bound(5, 9, g) == pytest.approx((g / 5) * ps.mobile_bound(5, 9, 5))
    with pytest.raises(ps.InputError):
        ps.mobile_bound(2, 4, 3)


def test_mobile_reduction_shape_and_validity():
    static = path3()  # 3 nodes, 2 edges
    for n in (1, 2, 3):
        reduced = ps.mobile_reduction_instance(static, n)
        assert reduced.node_count == 3 + 3 * (2 + n)
        assert ps.validate(reduced) == []
        for u in range(3):
            walk = ps.reduction_tail_walk(static, n, u)
            ps.model.check_walk(reduced, walk, n=n)
    with pytest.raises(ps.InputError):
        ps.mobile_reduction_instance(static, 0)


def test_mobile_reduction_welfare_decomposition():
    # welfare of tail walks = static welfare + every selected user's private
    # tail and fan + one first-tail edge per unselected reachable user
    rng = random.Random(51)
    for _ in range(40):
        static = random_all_user_instance(rng, max_nodes=4)
        m, e1 = static.user_count, static.sensing.edge_count
        n = rng.randint(1, 2)
        reduced = ps.mobile_reduction_instance(static, n)
        for k in range(1, m + 1):
            for users in combinations(range(m), k):
                sel = ps.Selection(users)
                tails = ps.reduction_tail_walks(static, n, sel)
                lhs = ps.phi_walks(reduced, tails).average
                cross = sum(
                    len(({i} | ps.social_neighborhood(static, i)) - set(users))
                    for i in range(m)
                )
                rhs = (
                    ps.phi_set_oracle(static, sel).average
                    + k * (n + e1)
                    + cross / m
                )
                assert lhs == pytest.approx(rhs)


def test_mobile_reduction_tail_walks_are_optimal():
    # straight-down-the-tail is never beaten by any other walk set
    rng = random.Random(52)
    for _ in range(15):
        static = random_all_user_instance(rng, max_nodes=3)
        n = rng.randint(1, 2)
        k = rng.randint(1, min(2, static.user_count))
        reduced = ps.mobile_reduction_instance(static, n)
        opt = ps.brute_force_mobile(reduced, n, k, g=1, cap=3_000_000)
        best_tail = max(
            ps.phi_walks(reduced, ps.reduction_tail_walks(static, n, ps.Selection(users))).average
            for users in combinations(range(static.user_count), k)
        )
        assert opt.welfare.average == pytest.approx(best_tail)


def test_enumerate_walks_orders_by_start_then_sequence():
    rng = random.Random(45)
    for _ in range(60):
        inst = random_instance(rng, max_users=4, max_extra_nodes=2, with_loops=True)
        nbrs = inst.sensing.neighbors
        for n in range(1, 4):
            walks = [
                seq
                for seq in product(range(inst.node_count), repeat=n + 1)
                if seq[0] < inst.user_count and all(b in nbrs[a] for a, b in zip(seq, seq[1:]))
            ]
            assert [w.nodes for w in ps.enumerate_walks(inst, n).candidates] == walks


def test_enumerate_walks_refuses_a_level_over_the_cap(monkeypatch):
    rng = random.Random(46)
    checked = 0
    for _ in range(40):
        inst = random_instance(rng, max_users=5, max_extra_nodes=2, with_loops=True)
        n = rng.randint(1, 3)
        count = len(ps.enumerate_walks(inst, n))
        if count == 0:
            continue
        monkeypatch.setattr(mobile_solver, "DEFAULT_ENUMERATION_CAP", count)
        assert len(ps.enumerate_walks(inst, n)) == count
        monkeypatch.setattr(mobile_solver, "DEFAULT_ENUMERATION_CAP", count - 1)
        with pytest.raises(ps.InfeasibleError, match=rf"walks of [1-{n}] edges \(cap {count - 1}\)"):
            ps.enumerate_walks(inst, n)
        monkeypatch.undo()
        checked += 1
    assert checked > 30


def _gps_cases(rng: random.Random, weighted: bool):
    """(instance, n, k, g, candidate node tuples, result) for feasible gps runs
    with g = 1 and g = k."""
    for _ in range(40):
        inst = random_instance(
            rng, max_users=5, max_extra_nodes=2, with_prefs=rng.random() < 0.5,
            with_weights=weighted, with_loops=True, max_radius=2,
        )
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        space = ps.enumerate_walks(inst, n)
        candidates = [w.nodes for w in space.candidates]
        for g in sorted({1, k}):
            try:
                result = ps.gps(inst, n, k, g, space=space)
            except ps.InfeasibleError:
                continue
            yield inst, k, g, candidates, result


def test_gps_matches_the_reference_greedy():
    checked = 0
    for inst, k, g, candidates, result in _gps_cases(random.Random(47), weighted=False):
        picks, gains = reference_greedy(lambda nodes: welfare_total(inst, nodes), candidates, k, g=g)
        assert [w.nodes for w in result.walks.walks] == [candidates[i] for i in picks]
        assert [gain for _, gain in result.trace] == [gain / inst.user_count for gain in gains]
        checked += 1
    assert checked > 30


def test_gps_takes_a_best_gain_under_weights():
    checked = 0
    for inst, k, g, candidates, result in _gps_cases(random.Random(48), weighted=True):
        index = {nodes: i for i, nodes in reversed(list(enumerate(candidates)))}
        picks = [index[w.nodes] for w in result.walks.walks]
        assert_greedy_rounds(lambda nodes: welfare_total(inst, nodes), candidates, picks, g=g)
        checked += 1
    assert checked > 30


def _reference_visited_sets(inst, space):
    """Walks grouped by ``frozenset`` of their nodes: the distinct sets as
    padded sorted tuples, in sorted order, and each walk's set."""
    width = space.n + 1
    padded = {
        frozenset(w.nodes): tuple(sorted(set(w.nodes)))
        + (inst.node_count,) * (width - len(set(w.nodes)))
        for w in space.candidates
    }
    # The sentinel node_count sorts last, so a set sorts after its extensions.
    distinct = sorted(padded.values())
    return distinct, [padded[frozenset(w.nodes)] for w in space.candidates]


def test_visited_sets_match_a_frozenset_grouping():
    rng = random.Random(61)
    checked = 0
    for _ in range(60):
        inst = random_instance(
            rng, max_users=5, max_extra_nodes=3, with_weights=rng.random() < 0.5,
            with_loops=True, max_radius=2,
        )
        for n in range(1, 5):
            space = ps.enumerate_walks(inst, n)
            roads, row_of = mobile_solver._visited_sets(space, inst.sensing.incidence)
            distinct, walk_sets = _reference_visited_sets(inst, space)
            assert roads.shape == (len(distinct), inst.sensing.edge_count)
            assert roads.dtype == bool and roads.data.all()
            for row, key in enumerate(distinct):
                nodes = {v for v in key if v < inst.node_count}
                roads_of_row = roads.indices[roads.indptr[row] : roads.indptr[row + 1]].tolist()
                assert roads_of_row == sorted(ps.incident_edges(inst.sensing, nodes))
            assert row_of.shape == (len(space),)
            assert [distinct[r] for r in row_of.tolist()] == walk_sets
            checked += any(len(set(w.nodes)) <= n for w in space.candidates)  # a revisit
    assert checked > 100


@pytest.mark.parametrize("nodes, n, digest", [
    (40, 2, "b39e5811a5ad892dea13040cb3e30ae500e426cf32e2eef08f05c8617c215c91"),
    (40, 3, "5a4095ee41c84e118ff19a29231eb5e52a7ea1548d913efa7ff605cb9de07ed5"),
    (40, 4, "5fadd51a2164818e8d511dbcde7cf19b326b0218569ebf46eb61211f31deb7f9"),
    (92, 2, "7d716deb2e3be0124b9fa07fe5f904bac5a02c8dd3d71072cc7520b9f6eebe41"),
    (92, 3, "c07461485b29145b8f5a4c051f95f2ba8971d8029697eac0f8b7f9a36bfd43da"),
    (92, 4, "f80872045aec0eb7f271be60108f0ad3c56df41c0e5d78432ced0ad7688000ac"),
])
def test_visited_sets_are_frozen(tmp_path, nodes, n, digest):
    # The bytes that np.unique(axis=0) grouping gave on the seed-7 instances.
    out = tmp_path / "instance.json"
    assert main(["gen", "--mode", "gowalla-like", "--nodes", str(nodes), "--seed", "7",
                 "--out", str(out)]) == 0
    inst = ps.load_instance(out)
    roads, row_of = mobile_solver._visited_sets(ps.enumerate_walks(inst, n), inst.sensing.incidence)
    h = hashlib.sha256()
    for array in (roads.indptr, roads.indices, row_of):
        h.update(array.tobytes())
    assert h.hexdigest() == digest


def test_gps_agrees_across_routes_property():
    """Every route gives the same walks and trace, and the welfare that
    ``phi_walks`` gives the walk set through that route; so does
    ``adjusted_gps`` where every node is a user."""
    # Hypothesis runs inside a plain test, as in test_pipeline: a failing
    # @given test collected by pytest would abort the whole pytest run.
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 2), prefs=st.booleans(),
           weights=st.booleans(), n=st.integers(1, 3), k=st.integers(1, 4), full=st.booleans())
    def agree(seed, extra, prefs, weights, n, k, full):
        inst = random_instance(
            random.Random(seed), max_users=5, max_extra_nodes=extra, with_prefs=prefs,
            with_weights=weights, with_loops=True, max_radius=2,
        )
        space = ps.enumerate_walks(inst, n)
        solvers = [lambda route: ps.gps(inst, n, k, k if full else 1, space=space, route=route)]
        if inst.user_count == inst.node_count:
            solvers.append(lambda route: ps.adjusted_gps(inst, n, k, space=space, route=route))
        for solve in solvers:
            try:
                results = {route: solve(route) for route in ROUTES}
            except ps.InfeasibleError:
                continue
            base = results["set"]
            for route, result in results.items():
                assert result.walks == base.walks
                assert result.trace == base.trace
                assert result.pruned_starts == base.pruned_starts
                assert result.welfare == ps.phi_walks(inst, result.walks, route=route)

    agree()
