import math
import random

import pytest

import poishare as ps
from poishare.static_solver import coverage_upper_bound, exact_max_coverage, greedy_max_coverage
from util import (
    assert_greedy_rounds,
    coverage_total,
    exact_total,
    random_instance,
    reference_greedy,
    vertex_cover_exists,
    welfare_total,
)


def path3():
    return ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=3, edges=()),
    )


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
    sel, covered = ps.max_coverage_baseline(path3(), 1)
    assert sel.users == (1,)
    assert covered == 2.0
    inst = star(5)
    sel, covered = ps.max_coverage_baseline(inst, 1)
    assert sel.users == (0,)
    assert covered == 5.0
    sel_exact, covered_exact = ps.max_coverage_baseline(inst, 1, mode="exact")
    assert covered_exact == 5.0
    with pytest.raises(ps.InputError):
        ps.max_coverage_baseline(inst, 99)


def test_greedy_coverage_vs_exact_bound():
    rng = random.Random(25)
    for _ in range(60):
        inst = random_instance(rng, max_users=8, min_users=2)
        k = rng.randint(1, inst.user_count)
        _, greedy_val = ps.max_coverage_baseline(inst, k)
        _, exact_val = ps.max_coverage_baseline(inst, k, mode="exact")
        assert greedy_val <= exact_val + 1e-12
        assert greedy_val >= (1 - 1 / math.e) * exact_val - 1e-12


def test_exact_coverage_cap_refusal():
    rng = random.Random(26)
    inst = random_instance(rng, max_users=8, min_users=8, edge_prob=0.9)
    with pytest.raises(ps.InfeasibleError):
        exact_max_coverage(inst, 4, cap=3)


def test_coverage_upper_bound_dominates_exact():
    rng = random.Random(27)
    for _ in range(60):
        inst = random_instance(rng, max_users=8, min_users=2)
        k = rng.randint(1, inst.user_count)
        _, exact_val = exact_max_coverage(inst, k)
        assert coverage_upper_bound(instance=inst, k=k) >= exact_val - 1e-12
        # force the relaxation path and check it still dominates
        assert coverage_upper_bound(instance=inst, k=k, cap=1) >= exact_val - 1e-12


def test_ub1_examples_and_dominance():
    inst = path3()
    assert ps.ub1(inst, 1) == pytest.approx(4 / 3 + 2)
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
            got, value = greedy_max_coverage(inst, len(pool), pool=pool)
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
            got, _ = greedy_max_coverage(inst, len(pool), pool=pool)
            assert_greedy_rounds(
                lambda nodes: coverage_total(inst, nodes), [(v,) for v in pool], list(got)
            )
