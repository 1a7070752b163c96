import logging
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poishare as ps
from poishare.static_solver import (
    SEARCH_CAP,
    CoverageSearch,
    _greedy_prefix_coverage_bound,
    coverage_upper_bound,
    exact_max_coverage,
    greedy_max_coverage,
    max_vertex_coverage,
    welfare_ceiling,
)
from poishare.welfare import WEIGHTED_EQUALITY_TOL
from util import (
    assert_greedy_rounds,
    coverage_total,
    exact_total,
    mixed_instances,
    random_instance,
    reference_exact_max_coverage,
    reference_greedy,
    vertex_cover_exists,
    welfare_total,
)


def path3():
    return ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=3, edges=()),
    )


def _paper_instance(seed: int) -> ps.Instance:
    """The benchmark's paper instance: 92 gowalla-like locations, all users."""
    return ps.synth_instance(ps.GenSpec(mode="gowalla-like", node_count=92, knn=4,
                                        degree_mean=24.0, degree_sigma=8.0, seed=seed))


def star(leaves: int):
    edges = tuple((0, i) for i in range(1, leaves + 1))
    n = leaves + 1
    return ps.Instance(
        sensing=ps.SensingGraph(node_count=n, user_count=n, edges=edges),
        social=ps.SocialGraph(user_count=n, edges=()),
    )


def test_gus_path3_picks_center():
    result = ps.gus(path3(), 1)
    assert result.selection.users == (1,)
    assert result.welfare.average == 2.0
    assert result.trace == ((1, pytest.approx(2 / 3)),)


def test_gus_k1_is_optimal():
    rng = random.Random(21)
    for _ in range(60):
        inst = random_instance(rng, max_users=7, with_prefs=rng.random() < 0.4)
        greedy = ps.gus(inst, 1)
        opt = ps.brute_force_static(inst, 1)
        assert greedy.welfare.average == opt.welfare.average


def test_gus_rejects_bad_budget():
    with pytest.raises(ps.InputError):
        ps.gus(path3(), 4)
    with pytest.raises(ps.InputError):
        ps.gus(path3(), 0)


def test_gus_trace_gains_non_increasing():
    rng = random.Random(22)
    for _ in range(60):
        inst = random_instance(rng, max_users=8, with_prefs=rng.random() < 0.3)
        result = ps.gus(inst, inst.user_count)
        gains = [g for _, g in result.trace]
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))


def test_gus_trace_is_a_prefix_of_the_largest_budget():
    for inst in mixed_instances(135, 30):
        k_max = min(inst.user_count, 12)
        full = ps.gus(inst, k_max).trace
        assert len(full) == k_max
        for k in range(1, k_max):
            assert ps.gus(inst, k).trace == full[:k]


def test_gus_selection_invariant_to_evaluation_route():
    # an independent greedy that scores candidates by full matrix evaluations
    rng = random.Random(23)
    for _ in range(25):
        inst = random_instance(rng, max_users=6)
        k = rng.randint(1, inst.user_count)
        chosen: list[int] = []
        for _ in range(k):
            best_u, best_gain = None, -1.0
            current = ps.evaluate_selection(
                inst, ps.Selection(tuple(chosen)), route="matrix"
            ).average
            for v in range(inst.user_count):
                if v in chosen:
                    continue
                gain = (
                    ps.evaluate_selection(
                        inst, ps.Selection(tuple(chosen + [v])), route="matrix"
                    ).average
                    - current
                )
                if gain > best_gain:
                    best_gain, best_u = gain, v
            chosen.append(best_u)
        fast = ps.gus(inst, k, route="both")
        assert fast.selection.users == tuple(chosen)


def test_brute_force_examples():
    inst = path3()
    opt = ps.brute_force_static(inst, 1)
    assert opt.selection.users == (1,)
    assert opt.welfare.average == 2.0
    full = ps.brute_force_static(inst, 3)
    assert full.selection.users == (0, 1, 2)
    assert full.welfare == ps.phi_set_oracle(inst, ps.Selection((0, 1, 2)))


def test_brute_force_cap_refusal():
    rng = random.Random(24)
    inst = random_instance(rng, max_users=8, min_users=8)
    with pytest.raises(ps.InfeasibleError, match="cap"):
        ps.brute_force_static(inst, 4, cap=10)


def test_brute_force_returns_lexicographically_least_optimum():
    # two symmetric optima: the lower-indexed pair must win
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=4, user_count=4, edges=((0, 1), (2, 3))),
        social=ps.SocialGraph(user_count=4, edges=()),
    )
    assert ps.brute_force_static(inst, 1).selection.users == (0,)


def test_max_coverage_examples():
    assert greedy_max_coverage(path3(), 1) == ((1,), 2.0)
    inst = star(5)
    assert greedy_max_coverage(inst, 1) == ((0,), 5.0)
    assert exact_max_coverage(inst, 1) == ((0,), 5.0)


def test_greedy_coverage_vs_exact_bound():
    rng = random.Random(25)
    for _ in range(60):
        inst = random_instance(rng, max_users=8, min_users=2)
        k = rng.randint(1, inst.user_count)
        _, greedy_val = greedy_max_coverage(inst, k)
        _, exact_val = exact_max_coverage(inst, k)
        assert greedy_val <= exact_val + 1e-12
        assert greedy_val >= (1 - 1 / math.e) * exact_val - 1e-12


def test_exact_coverage_cap_refusal():
    rng = random.Random(26)
    inst = random_instance(rng, max_users=8, min_users=8, edge_prob=0.9)
    with pytest.raises(ps.InfeasibleError):
        exact_max_coverage(inst, 4, cap=3)


def _searched(inst, k, nodes, cap):
    """exact_max_coverage over the first ``nodes`` nodes (default: the users)."""
    return exact_max_coverage(inst, k, cap, search=CoverageSearch(inst, nodes))


def _search_outcome(search, inst, k, nodes, cap):
    try:
        return search(inst, k, nodes, cap=cap)
    except ps.InfeasibleError:
        return "capped"


def test_exact_coverage_matches_the_recursive_reference():
    """Same search nodes as the recursive numpy search: same refusals at
    caps 3 and 30, same picks and value.  Under weights the two add a
    node's fresh road weights, and the optimistic bound, in other orders,
    so a value may differ in the last bits and a tie between optima may
    go the other way; there the values agree to 1e-9 and the picks reach
    the value."""
    rng = random.Random(30)
    # Four nodes cover all 12 roads and greedy's five miss one, so at k = 5
    # the best cover is found above full depth and has four picks.
    trap = ps.vcp_reduction_instance(9, [
        (0, 2), (0, 3), (0, 6), (1, 5), (2, 5), (2, 7), (2, 8), (3, 5), (3, 8), (4, 5), (4, 8), (7, 8),
    ])
    for t in range(41):
        weighted = t > 0 and rng.random() < 0.4
        inst = trap if t == 0 else random_instance(
            rng, max_users=8, max_extra_nodes=2, min_users=2,
            edge_prob=rng.choice((0.3, 0.6, 0.9)), with_weights=weighted,
            with_loops=rng.random() < 0.3, with_prefs=rng.random() < 0.3,
        )
        for nodes in (inst.user_count, inst.node_count):
            for k in range(1, nodes + 1):
                for cap in (3, 30, ps.static_solver.DEFAULT_ENUMERATION_CAP):
                    got = _search_outcome(_searched, inst, k, nodes, cap)
                    want = _search_outcome(reference_exact_max_coverage, inst, k, nodes, cap)
                    if not weighted or "capped" in (got, want):
                        assert got == want, (k, cap)
                    else:
                        assert got[1] == pytest.approx(want[1], abs=1e-9), (k, cap)
                        assert coverage_total(inst, set(got[0])) == pytest.approx(got[1], abs=1e-9)


def test_exact_coverage_matches_the_reference_on_the_golden_instance():
    inst = ps.synth_instance(ps.GenSpec(mode="gowalla-like", node_count=40, seed=7))
    for k in range(1, 13):
        got = _search_outcome(_searched, inst, k, None, 20_000)
        assert got == _search_outcome(reference_exact_max_coverage, inst, k, None, 20_000), k


def test_exact_coverage_search_is_not_bounded_by_the_recursion_limit():
    """A 1,200-node pool whose search runs deeper than the recursion limit
    (a recursive search raises RecursionError here).  300 disjoint K4s,
    k = 400: greedy covers 300*3 + 100*2 = 1,100 roads, and no 400 nodes
    cover more than 3*400."""
    edges = [
        (4 * c + a, 4 * c + b) for c in range(300) for a in range(4) for b in range(a + 1, 4)
    ]
    inst = ps.vcp_reduction_instance(1200, edges)
    with pytest.raises(ps.InfeasibleError, match="search cap"):
        exact_max_coverage(inst, 400, cap=20_000)
    search = CoverageSearch(inst)
    assert coverage_upper_bound(inst, 400, cap=20_000, search=search) == 1100.0
    assert search.sources[400] == ("exact-dp", 3)


def test_a_shared_search_set_up_changes_no_search():
    """One CoverageSearch serves budgets in any order, over the users and
    over all nodes, with the picks, the value and the refusals of a search
    that builds its own set-up."""
    rng = random.Random(142)
    for inst in mixed_instances(142, 40):
        for nodes in (inst.user_count, inst.node_count):
            ks = rng.sample(range(1, nodes + 1), nodes)
            for cap in (3, 30, 2_000):
                search = CoverageSearch(inst, nodes)

                def shared(inst, k, nodes, cap):
                    return exact_max_coverage(inst, k, cap, search=search)

                for k in ks:
                    want = _search_outcome(_searched, inst, k, nodes, cap)
                    assert _search_outcome(shared, inst, k, nodes, cap) == want, (k, cap)


def test_ub1_from_a_shared_search_equals_separate_calls(monkeypatch):
    """ub1 over one CoverageSearch gives every budget the value of a
    separate ub1 call: the same bits under unit weights, and within
    WEIGHTED_EQUALITY_TOL under weights, where a budget may read the
    coverage table that a separate call would have searched for.  Once
    the shared search has a table it searches no more, so the budgets
    whose search raised InfeasibleError inside it are some of the
    separate calls' ones."""
    real_search = ps.static_solver.exact_max_coverage
    raised = []

    def recording(instance, k, *args, **kwargs):
        try:
            return real_search(instance, k, *args, **kwargs)
        except ps.InfeasibleError:
            raised.append(k)
            raise

    monkeypatch.setattr(ps.static_solver, "exact_max_coverage", recording)
    rng = random.Random(143)
    paper = _paper_instance(7)
    *small, golden, golden_weighted = mixed_instances(143, 40)
    cases = [(inst, cap, range(1, inst.user_count + 1))
             for inst in small for cap in (200, 20_000, 500_000)]
    cases += [(inst, cap, range(1, 31)) for inst in (golden, golden_weighted, paper)
              for cap in (200, 20_000)]
    # each search capped at 500,000 nodes takes about 0.2 s
    cases += [(golden, 500_000, (1, 12, 13, 14)), (golden_weighted, 500_000, (1, 5, 10)),
              (paper, 500_000, (1, 9, 17, 18))]
    capped_budgets = 0
    for inst, cap, budgets in cases:
        ks = rng.sample(list(budgets), len(budgets))
        base = ps.phi_empty(inst).average
        search = CoverageSearch(inst)
        shared = [ps.ub1(inst, k, cap=cap, base=base, search=search) for k in ks]
        shared_raised = set(raised)
        raised.clear()
        separate = [ps.ub1(inst, k, cap=cap) for k in ks]
        if inst.sensing.edge_weights is None:
            assert shared == separate, cap
        else:
            assert shared == pytest.approx(separate, rel=0, abs=WEIGHTED_EQUALITY_TOL), cap
        assert shared_raised <= set(raised), cap
        capped_budgets += len(raised)
        raised.clear()
    assert 0 < capped_budgets < sum(len(budgets) for _, _, budgets in cases)


def _fresh_prefix_bound(rows, weights, k):
    """The greedy-prefix coverage bound from a greedy_cover run of its own."""
    rounds = ps.welfare.greedy_cover(rows, weights)
    best, value = float("inf"), 0.0
    for _ in range(min(k, rows.shape[0]) + 1):
        step = next(rounds, None)
        if step is None:
            return min(best, value)
        pick, scores = step
        marginals = np.sort(scores[scores >= 0.0])[::-1]
        best = min(best, value + sum(marginals[:k].tolist()))
        value += float(scores[pick])
    return best


def test_relaxed_bound_from_a_recorded_greedy_keeps_its_bits(monkeypatch):
    """The greedy-prefix bound reads the greedy rounds that its
    CoverageSearch recorded, already extended to the whole pool, and
    returns the bits of a prefix bound over a fresh greedy_cover run, over
    the users and over all nodes, weighted or not.  With the coverage
    table refused by its guard, a capped coverage_upper_bound returns that
    bound or the total weight, whichever is smaller."""
    monkeypatch.setattr(ps.static_solver, "DP_MAX_CELLS", 0)
    rng = random.Random(144)
    capped = 0
    for inst in mixed_instances(144, 40):
        weights = inst.sensing.weight_vector
        total = float(weights.sum())
        for nodes in (inst.user_count, inst.node_count):
            search = CoverageSearch(inst, nodes)
            assert len(search.rounds(nodes + 1)) == nodes
            rows = inst.sensing.incidence[:nodes]
            for k in rng.sample(range(1, nodes + 2), nodes + 1):
                prefix = _fresh_prefix_bound(rows, weights, k)
                assert _greedy_prefix_coverage_bound(search, k) == prefix, k
                got = coverage_upper_bound(inst, k, cap=1, search=search)
                exact = _search_outcome(_searched, inst, k, nodes, 1)
                if exact == "capped":
                    capped += 1
                    assert got == min(total, prefix), k
                    assert search.sources[k] == ("greedy-prefix", min(k, nodes) + 1), k
                else:
                    assert got == exact[1], k
            assert search.table is None
    assert capped > 500


def test_coverage_upper_bound_dominates_exact():
    rng = random.Random(27)
    for _ in range(60):
        inst = random_instance(rng, max_users=8, min_users=2)
        k = rng.randint(1, inst.user_count)
        _, exact_val = exact_max_coverage(inst, k)
        assert coverage_upper_bound(instance=inst, k=k) >= exact_val - 1e-12
        # force the relaxation path and check it still dominates
        assert coverage_upper_bound(instance=inst, k=k, cap=1) >= exact_val - 1e-12


@st.composite
def _tiny_instances(draw):
    """An instance of at most six nodes with optional weights, self-loops
    and non-user nodes."""
    m = draw(st.integers(1, 4))
    nn = m + draw(st.integers(0, 2))
    pairs = [(u, v) for u in range(nn) for v in range(u, nn)]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)))
    weights = None
    if edges and draw(st.booleans()):
        weights = tuple(draw(st.lists(st.floats(0.1, 5.0), min_size=len(edges),
                                      max_size=len(edges))))
    sensing = ps.SensingGraph(node_count=nn, user_count=m, edges=edges, edge_weights=weights)
    friends = list(combinations(range(m), 2))
    social = ps.SocialGraph(user_count=m, edges=tuple(
        draw(st.lists(st.sampled_from(friends), unique=True)) if friends else ()))
    return ps.Instance(sensing=sensing, social=social, social_hop_radius=draw(st.integers(1, 2)))


def test_relaxed_bounds_dominate_the_optima_property():
    """With the search capped at one node, ub1 and ub2 still dominate the
    brute-force optima and stay at or below the welfare of broadcasting
    every road, and the coverage bound is never above the two relaxations
    it replaced: greedy / (1 - 1/e) and the k largest single-node
    coverages."""
    # Hypothesis runs inside a plain test, as in test_pipeline: a failing
    # @given test collected by pytest would abort the whole pytest run.
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(instance=_tiny_instances(), n=st.integers(1, 2))
    def dominated(instance, n):
        m = instance.user_count
        for k in range(1, m + 1):
            opt = ps.brute_force_static(instance, k).welfare.average
            assert ps.ub1(instance, k, cap=1) >= opt - 1e-9
        for k in range(1, min(m, 3) + 1):
            try:
                opt = ps.brute_force_mobile(instance, n, k).welfare.average
            except ps.InfeasibleError:  # fewer than k walks with distinct starts
                continue
            assert ps.ub2(instance, n, k, cap=1) >= opt - 1e-9
        ceiling = welfare_ceiling(instance)
        for k in range(1, instance.node_count + 1):
            assert ps.ub1(instance, min(k, m), cap=1) <= ceiling
            assert ps.ub2(instance, n, k, cap=1) <= ceiling
        weights = instance.sensing.weight_vector
        for nodes in (m, instance.node_count):
            solo = sorted((instance.sensing.incidence[:nodes] @ weights).tolist(), reverse=True)
            for k in range(1, nodes + 1):
                try:
                    _searched(instance, k, nodes, cap=1)
                    continue  # the search finished: the bound is exact
                except ps.InfeasibleError:
                    pass
                search = CoverageSearch(instance, nodes)
                bound = coverage_upper_bound(instance, k, cap=1, search=search)
                _, greedy = greedy_max_coverage(instance, k, nodes)
                assert bound <= greedy / (1.0 - 1.0 / math.e)
                assert bound <= sum(solo[:k])

    dominated()


def test_coverage_table_equals_the_searches_property():
    """max_vertex_coverage's table holds, at every budget, the value of the
    uncapped search and of its recursive reference, over the users and
    over all nodes: the same bits under unit weights, within
    WEIGHTED_EQUALITY_TOL under weights."""
    # Hypothesis runs inside a plain test, as in test_pipeline: a failing
    # @given test collected by pytest would abort the whole pytest run.
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(instance=_tiny_instances())
    def equal(instance):
        for nodes in (instance.user_count, instance.node_count):
            values, width = max_vertex_coverage(instance, nodes)
            assert len(values) == nodes + 1 and values[0] == 0.0
            assert 0 <= width < nodes
            for k in range(1, nodes + 1):
                searched = _searched(instance, k, nodes, SEARCH_CAP)[1]
                reference = reference_exact_max_coverage(instance, k, nodes)[1]
                if instance.sensing.edge_weights is None:
                    assert values[k] == searched == reference, k
                else:
                    assert values[k] == pytest.approx(searched, rel=0, abs=WEIGHTED_EQUALITY_TOL)
                    assert values[k] == pytest.approx(reference, rel=0, abs=WEIGHTED_EQUALITY_TOL)

    equal()


@pytest.mark.parametrize("seed", [7, 101])
def test_coverage_table_equals_the_search_on_the_paper_instance(seed):
    """On the paper instance (every node a user) the table's width is 7, and
    it holds the search's bits at every budget the search finishes under
    SEARCH_CAP."""
    inst = _paper_instance(seed)
    values, width = max_vertex_coverage(inst)
    assert width == 7
    search = CoverageSearch(inst)
    finished = 0
    for k in range(1, len(values)):
        try:
            assert exact_max_coverage(inst, k, search=search)[1] == values[k], k
        except ps.InfeasibleError:
            break
        finished = k
    assert finished >= 17


def test_a_pool_wider_than_the_guard_falls_back_to_the_prefix_bound():
    """On a complete graph of 24 users the first node eliminated has 23
    neighbours, a table past DP_MAX_CELLS: the guard refuses it at that
    step, and a capped budget gets the greedy-prefix bound."""
    inst = ps.vcp_reduction_instance(24, list(combinations(range(24), 2)))
    with pytest.raises(ps.InfeasibleError, match="node 0 has 23 neighbours"):
        max_vertex_coverage(inst)
    search = CoverageSearch(inst)
    for k in (12, 3):
        got = coverage_upper_bound(inst, k, cap=1, search=search)
        assert got == min(276.0, _greedy_prefix_coverage_bound(search, k))
        assert search.sources[k] == ("greedy-prefix", k + 1)
    assert search.table is None


def test_a_long_narrow_pool_is_refused_before_its_convolutions():
    """A 4 x 2,500 grid has width 4, so no table passes DP_MAX_CELLS, but
    its count axes grow to thousands of entries and the convolutions would
    take well over DP_MAX_WORK cell updates (about 13 s): the plan refuses
    it part way, before any table is built."""
    cols = 2_500
    edges = [(r * cols + c, r * cols + c + 1) for r in range(4) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(3) for c in range(cols)]
    inst = ps.vcp_reduction_instance(4 * cols, edges)
    with pytest.raises(ps.InfeasibleError, match="cell updates by node"):
        max_vertex_coverage(inst)


def test_a_capped_paper_ub1_reports_exact_dp(caplog):
    """Each budget records and logs where its bound came from: the search
    with its nodes visited until one caps, then the table with its width,
    for that budget and every later one."""
    inst = _paper_instance(7)
    search = CoverageSearch(inst)
    base = ps.phi_empty(inst).average
    caplog.set_level(logging.DEBUG, logger="poishare.static_solver")
    for k in (1, 12, 30, 9):
        ps.ub1(inst, k, cap=20_000, base=base, search=search)
    assert search.sources == {1: ("exact-search", 1), 12: ("exact-search", 407),
                              30: ("exact-dp", 7), 9: ("exact-dp", 7)}
    logged = [r.getMessage() for r in caplog.records if r.name == "poishare.static_solver"]
    assert len(logged) == 4 and "161.0 from exact-dp (7)" in logged[2]


def test_welfare_ceiling_is_the_welfare_of_broadcasting_every_node():
    for inst in mixed_instances(145, 40):
        everything = ps.broadcast_breakdown(inst, range(inst.node_count)).average
        if inst.sensing.edge_weights is None:
            assert welfare_ceiling(inst) == everything
        else:
            assert welfare_ceiling(inst) == pytest.approx(everything, rel=0, abs=WEIGHTED_EQUALITY_TOL)


def test_ub1_examples_and_dominance():
    inst = path3()
    # base plus the best coverage, 4/3 + 2, passes the two roads' ceiling
    assert ps.ub1(inst, 1) == 2.0
    assert ps.ub1(inst, 0) == pytest.approx(4 / 3)
    rng = random.Random(28)
    for _ in range(60):
        rnd = random_instance(rng, max_users=7, with_prefs=rng.random() < 0.3)
        k = rng.randint(1, rnd.user_count)
        assert ps.ub1(rnd, k) >= ps.brute_force_static(rnd, k).welfare.average - 1e-9


def test_static_bound_values():
    assert ps.static_bound(1, 5) == 1.0
    assert ps.static_bound(1, 77) == 1.0
    assert ps.static_bound(2, 4) == pytest.approx(0.875)
    assert ps.static_bound(10_000, 10_000) == pytest.approx(1 - 1 / math.e, abs=1e-3)
    with pytest.raises(ps.InputError):
        ps.static_bound(0, 5)


def test_vcp_reduction_triangle():
    triangle = [(0, 1), (1, 2), (0, 2)]
    inst = ps.vcp_reduction_instance(3, triangle)
    assert ps.validate(inst) == []
    assert len(inst.social.edges) == 0
    assert ps.brute_force_static(inst, 2).welfare.average == 3.0  # cover exists
    assert ps.brute_force_static(inst, 1).welfare.average < 3.0  # no size-1 cover
    with pytest.raises(ps.InputError):
        ps.vcp_reduction_instance(3, [(0, 0)])
    with pytest.raises(ps.InputError):
        ps.vcp_reduction_instance(3, [(0, 1), (1, 0)])


def test_vcp_reduction_matches_cover_oracle():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        inst = ps.vcp_reduction_instance(n, edges)
        total = float(len(edges))
        for k in range(1, n + 1):
            opt = ps.brute_force_static(inst, k).welfare.average
            assert (opt == total) == vertex_cover_exists(n, edges, k)


def test_theorem4_style_bound_on_small_instances():
    rng = random.Random(30)
    for _ in range(80):
        inst = random_instance(rng, max_users=7, min_users=2, with_prefs=rng.random() < 0.3)
        m = inst.user_count
        for k in range(1, min(3, m) + 1):
            greedy = exact_total(ps.gus(inst, k).welfare)
            opt = exact_total(ps.brute_force_static(inst, k).welfare)
            if opt == 0:
                continue
            assert greedy >= ps.static_bound(k, m) * opt - 1e-9


def _greedy_instance(rng: random.Random, weighted: bool) -> ps.Instance:
    return random_instance(
        rng, max_users=6, max_extra_nodes=3, with_prefs=rng.random() < 0.5,
        with_weights=weighted, with_loops=True, max_radius=2,
    )


def test_static_greedies_match_the_reference_greedy():
    rng = random.Random(24)
    for _ in range(40):
        inst = _greedy_instance(rng, weighted=False)
        m = inst.user_count
        picks, gains = reference_greedy(
            lambda nodes: welfare_total(inst, nodes), [(v,) for v in range(m)], m
        )
        result = ps.gus(inst, m)
        assert list(result.selection.users) == picks
        assert [gain for _, gain in result.trace] == [gain / m for gain in gains]
        for pool in (range(m), range(inst.node_count)):
            expected, _ = reference_greedy(
                lambda nodes: coverage_total(inst, nodes), [(v,) for v in pool], len(pool)
            )
            got, value = greedy_max_coverage(inst, len(pool), len(pool))
            assert list(got) == expected
            assert value == coverage_total(inst, set(got))


def test_static_greedies_take_a_best_gain_under_weights():
    rng = random.Random(25)
    for _ in range(30):
        inst = _greedy_instance(rng, weighted=True)
        m = inst.user_count
        assert_greedy_rounds(
            lambda nodes: welfare_total(inst, nodes),
            [(v,) for v in range(m)],
            list(ps.gus(inst, m).selection.users),
        )
        for pool in (range(m), range(inst.node_count)):
            got, _ = greedy_max_coverage(inst, len(pool), len(pool))
            assert_greedy_rounds(
                lambda nodes: coverage_total(inst, nodes), [(v,) for v in pool], list(got)
            )
