"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Every criterion must pass within its stated runtime budget.  Two checks
rest on a derivation given in the test's docstring:

- criterion 6 checks the tail-reduction identity against G1+, the input
  plus one pendant road per user, because the first road of each private
  tail is visible to everyone who reaches its user socially;
- criterion 9 certifies the greedy guarantee against the optimum, through
  ``ub1`` where that suffices and the exact optimum where it does not, and
  checks that greedy selection never trails the coverage baseline.
"""

import random
import time
from functools import lru_cache
from itertools import combinations, groupby
from math import comb

import pytest

import poishare as ps
from poishare.cli import main, run_sweep
from poishare.mobile_solver import intermediate_solution
from util import (
    exact_total,
    pendant_augmented_instance,
    random_all_user_instance,
    random_connected_graph,
    random_instance,
    vertex_cover_exists,
)


#: Largest k-subset count criterion 9 enumerates for an exact-optimum
#: certificate.  It admits k <= 2 on the 92-user instance: C(92, 2) = 4186
#: subsets take about 19 s on a 2-core machine, inside the 120 s budget.
EXACT_CERTIFICATE_CAP = 5_000


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d} {status}  {detail}", flush=True)


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(1001)
    mismatches = 0
    evaluations = 0
    for i in range(1000):
        inst = random_instance(
            rng,
            max_users=12,
            max_extra_nodes=3 if i % 3 == 0 else 0,
            with_prefs=i % 2 == 1,
            max_radius=2,
        )
        m = inst.user_count
        selections = [
            ps.Selection(()),
            ps.Selection(tuple(rng.sample(range(m), rng.randint(0, m)))),
            ps.Selection(tuple(range(m))),
        ]
        for sel in selections:
            by_set = ps.phi_set_oracle(inst, sel)
            by_matrix = ps.evaluate_selection(inst, sel, route="matrix")
            evaluations += 1
            if by_set.per_user != by_matrix.per_user:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 30.0
    report(1, ok, f"matrix vs set: {evaluations} evaluations, "
                  f"{mismatches} mismatches, {elapsed:.1f}s (< 30s)")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_2_submodularity_and_monotonicity():
    started = time.monotonic()
    rng = random.Random(1002)
    possible_edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    mono_viol = sub_viol = 0
    for _ in range(200):
        edges = tuple(e for e in possible_edges if rng.random() < 0.5)
        social = tuple(e for e in possible_edges if rng.random() < 0.4)
        inst = ps.Instance(
            sensing=ps.SensingGraph(node_count=5, user_count=5, edges=edges),
            social=ps.SocialGraph(user_count=5, edges=social),
        )
        value = {}
        for r in range(6):
            for subset in combinations(range(5), r):
                value[frozenset(subset)] = exact_total(
                    ps.phi_set_oracle(inst, ps.Selection(subset))
                )
        subsets = list(value)
        for s in subsets:
            for v in range(5):
                if value[s | {v}] < value[s]:
                    mono_viol += 1
        for s in subsets:
            for t in subsets:
                if s <= t:
                    for v in range(5):
                        if value[s | {v}] - value[s] < value[t | {v}] - value[t]:
                            sub_viol += 1
    elapsed = time.monotonic() - started
    ok = mono_viol == 0 and sub_viol == 0 and elapsed < 60.0
    report(2, ok, f"monotonicity violations {mono_viol}, submodularity "
                  f"violations {sub_viol} over 200 instances, {elapsed:.1f}s (< 60s)")
    assert mono_viol == 0 and sub_viol == 0
    assert elapsed < 60.0


@lru_cache(maxsize=1)
def _static_suite():
    """500 seeded static instances with every k <= 3 solved both ways."""
    rng = random.Random(1003)
    rows = []
    for _ in range(500):
        inst = random_all_user_instance(rng, max_nodes=8, min_nodes=2, edge_prob=0.45)
        for k in range(1, min(3, inst.user_count) + 1):
            greedy = ps.gus(inst, k)
            opt = ps.brute_force_static(inst, k)
            rows.append((inst, k, greedy, opt))
    return rows


def test_criterion_3_static_greedy_bound():
    started = time.monotonic()
    bound_viol = k1_viol = 0
    rows = _static_suite()
    for inst, k, greedy, opt in rows:
        t_greedy = exact_total(greedy.welfare)
        t_opt = exact_total(opt.welfare)
        if t_greedy < ps.static_bound(k, inst.user_count) * t_opt - 1e-9:
            bound_viol += 1
        if k == 1 and t_greedy != t_opt:
            k1_viol += 1
    elapsed = time.monotonic() - started
    ok = bound_viol == 0 and k1_viol == 0 and elapsed < 120.0
    report(3, ok, f"{len(rows)} greedy-vs-optimal comparisons, bound violations "
                  f"{bound_viol}, k=1 suboptimalities {k1_viol}, {elapsed:.1f}s (< 120s)")
    assert bound_viol == 0 and k1_viol == 0
    assert elapsed < 120.0


@lru_cache(maxsize=1)
def _mobile_suite():
    """200 seeded mobile instances with greedy runs and the exact optimum."""
    rng = random.Random(1004)
    rows = []
    for i in range(200):
        inst = random_instance(
            rng, max_users=6, min_users=1,
            max_extra_nodes=2 if i % 2 == 0 else 0, edge_prob=0.5,
        )
        if inst.node_count > 6:
            inst = random_all_user_instance(rng, max_nodes=6)
        n = rng.randint(1, 2)
        try:
            space = ps.enumerate_walks(inst, n)
        except ps.InputError:
            continue
        for k in (1, 2, 3):
            try:
                full = ps.gps(inst, n, k, g=k, space=space)
                opt = ps.brute_force_mobile(inst, n, k, g=1, cap=3_000_000, space=space)
            except ps.InfeasibleError:
                continue
            runs = {}
            for g in range(1, k + 1):
                runs[g] = ps.gps(inst, n, k, g=g, space=space)
            rows.append((inst, n, k, full, opt, runs))
    return rows


def test_criterion_4_augmented_greedy_chain():
    started = time.monotonic()
    chain_viol = ratio_viol = 0
    rows = _mobile_suite()
    checks = 0
    for inst, n, k, full, opt, runs in rows:
        t_full = exact_total(full.welfare)
        t_opt = exact_total(opt.welfare)
        bound = ps.mobile_bound(k, inst.node_count, k)
        if t_full < bound * t_opt - 1e-9:
            ratio_viol += 1
        for g, res in runs.items():
            inter = intermediate_solution(full, g)
            t_inter = exact_total(ps.phi_walks(inst, inter))
            checks += 1
            if exact_total(res.welfare) < t_inter or t_inter * k < g * t_full:
                chain_viol += 1
    elapsed = time.monotonic() - started
    ok = chain_viol == 0 and ratio_viol == 0
    report(4, ok, f"{len(rows)} runs / {checks} chain checks, chain violations "
                  f"{chain_viol}, full-augmentation ratio violations {ratio_viol}, "
                  f"{elapsed:.1f}s")
    assert chain_viol == 0 and ratio_viol == 0


def test_criterion_5_adjusted_greedy_propositions():
    started = time.monotonic()
    rng = random.Random(1005)
    distinct_viol = equality_viol = 0
    runs = 0
    while runs < 200:
        inst = random_all_user_instance(rng, max_nodes=7)
        n = rng.randint(1, 2)
        space = ps.enumerate_walks(inst, n)
        k = rng.randint(1, 3)
        try:
            adjusted = ps.adjusted_gps(inst, n, k, space=space)
            base = ps.gps(inst, n, k, g=k, space=space)
        except ps.InfeasibleError:
            continue
        runs += 1
        starts = [w.start for w in adjusted.walks.walks]
        if len(set(starts)) != len(starts) or len(starts) != k:
            distinct_viol += 1
        if exact_total(adjusted.welfare) != exact_total(base.welfare):
            equality_viol += 1
    elapsed = time.monotonic() - started
    ok = distinct_viol == 0 and equality_viol == 0
    report(5, ok, f"200 adjusted runs, distinct-start violations {distinct_viol}, "
                  f"welfare-equality violations {equality_viol}, {elapsed:.1f}s")
    assert distinct_viol == 0 and equality_viol == 0


def test_criterion_6_reduction_identity_as_specified():
    """Tail-reduction identity, per selection and at the optimum.

    Broadcast roads reach every user, so walking user i's private tail adds
    its n + |E1| roads to all m users.  Its first road (i, tail) is also
    incident to user i, so every user who reaches i socially sees it even
    when i is not selected: it acts as a pendant road at i.  Booking that
    road to G1+ (the input plus one pendant road per user, same social
    graph and radius) leaves n - 1 + |E1| roads per selected tail, so

        phi_reduced(tails(S)) = phi_G1+(S) + k * (n - 1 + |E1|),
        OPT_mobile(reduced, k) = OPT_static(G1+, k) + k * (n - 1 + |E1|),

    the second because tail walks are optimal under unit weights.
    """
    started = time.monotonic()
    rng = random.Random(1006)
    identity_viol = opt_viol = 0
    checked = optima = 0
    worst = 0.0
    for _ in range(100):
        static = random_all_user_instance(rng, max_nodes=4)
        m, e1 = static.user_count, static.sensing.edge_count
        n = rng.randint(1, 2)
        reduced = ps.mobile_reduction_instance(static, n)
        pendant = pendant_augmented_instance(static)
        for k in range(1, m + 1):
            offset = k * (n - 1 + e1)
            for users in combinations(range(m), k):
                sel = ps.Selection(users)
                tails = ps.reduction_tail_walks(static, n, sel)
                lhs = ps.phi_walks(reduced, tails).average
                rhs = offset + ps.phi_set_oracle(pendant, sel).average
                checked += 1
                if abs(lhs - rhs) > 1e-9:
                    identity_viol += 1
                    worst = max(worst, abs(lhs - rhs))
            opt_mobile = ps.brute_force_mobile(reduced, n, k, g=1, cap=3_000_000)
            opt_static = ps.brute_force_static(pendant, k)
            optima += 1
            if abs(opt_mobile.welfare.average
                   - (offset + opt_static.welfare.average)) > 1e-9:
                opt_viol += 1
    elapsed = time.monotonic() - started
    ok = identity_viol == 0 and opt_viol == 0
    report(6, ok, f"tail identity via G1+: {identity_viol}/{checked} per-selection "
                  f"violations (worst gap {worst:.3f}), {opt_viol}/{optima} optimum "
                  f"violations, {elapsed:.1f}s")
    assert identity_viol == 0, (
        f"{identity_viol}/{checked} selections break phi_reduced(tails(S)) = "
        "phi_G1+(S) + k*(n-1+|E1|): the reduction no longer books each "
        "selected tail's n+|E1| private roads to every user with its first "
        "road acting as a pendant road at its start"
    )
    assert opt_viol == 0, (
        f"{opt_viol}/{optima} budgets break OPT_mobile(reduced, k) = "
        "OPT_static(G1+, k) + k*(n-1+|E1|): some non-tail walk set beats "
        "every tail-walk set"
    )


def test_criterion_7_vertex_cover_reduction():
    started = time.monotonic()
    rng = random.Random(1007)
    mismatches = 0
    checks = 0
    for _ in range(300):
        size = rng.randint(2, 7)
        edges = random_connected_graph(rng, size)
        inst = ps.vcp_reduction_instance(size, edges)
        total = float(len(edges))
        for k in range(1, size + 1):
            full_welfare = ps.brute_force_static(inst, k).welfare.average == total
            has_cover = vertex_cover_exists(size, edges, k)
            checks += 1
            if full_welfare != has_cover:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0
    report(7, ok, f"{checks} (graph, k) decisions, {mismatches} mismatches "
                  f"against the cover oracle, {elapsed:.1f}s")
    assert mismatches == 0


def test_criterion_8_upper_bound_validity():
    started = time.monotonic()
    ub1_viol = 0
    for inst, k, _greedy, opt in _static_suite():
        if ps.ub1(inst, k) < opt.welfare.average - 1e-9:
            ub1_viol += 1
    ub2_viol = 0
    for inst, n, k, _full, opt, _runs in _mobile_suite():
        if ps.ub2(inst, n, k) < opt.welfare.average - 1e-9:
            ub2_viol += 1
    elapsed = time.monotonic() - started
    ok = ub1_viol == 0 and ub2_viol == 0
    report(8, ok, f"ub1 violations {ub1_viol}, ub2 violations {ub2_viol} across "
                  f"both suites, {elapsed:.1f}s")
    assert ub1_viol == 0 and ub2_viol == 0


def test_criterion_9_qualitative_replication_as_specified():
    """Qualitative replication on the seed-7 paper-scale instance.

    (a) The greedy guarantee is relative to the optimum: welfare_k >=
        bound_k * OPT_k.  ub1 counts every road its best k-coverage reaches
        at full weight for every user, so ub1 >= OPT and welfare >= bound *
        ub1 certifies a budget; that test is sufficient, not necessary (at
        k=1 the bound is 1.0 and greedy is exact, yet ub1 exceeds OPT).  A
        budget ub1 does not certify is certified by the exact optimum from
        ``brute_force_static`` when enumerating it is affordable.  A budget
        certified neither way fails.
    (b) Greedy selection, which prices social sharing, never trails the
        coverage baseline, which ignores it, and leads it strictly at every
        k >= 2.  No stronger margin is asserted: nothing in the paper's
        abstract or the code promises one, and the generator draws social
        ties independently of roads.
    (c) At k=1 the measured ratio stays at least 0.9.
    """
    started = time.monotonic()
    inst = ps.synth_instance(
        ps.GenSpec(mode="gowalla-like", node_count=92, knn=4,
                   degree_mean=24.0, degree_sigma=8.0, seed=7)
    )
    ks = list(range(1, 31))
    result = run_sweep(inst, ks, ["gus", "set-cover-baseline"], 7)
    rows = {(r.algorithm, r.k): r for r in result.rows}
    gus_rows = [rows[("gus", k)] for k in ks]
    scb_rows = [rows[("set-cover-baseline", k)] for k in ks]
    gus_rho = [r.ratio for r in gus_rows]
    bounds = [ps.static_bound(k, inst.user_count) for k in ks]
    certs = []
    for k, row, bound in zip(ks, gus_rows, bounds):
        if row.ratio >= bound - 1e-12:
            certs.append("ub1")
        elif comb(inst.user_count, k) <= EXACT_CERTIFICATE_CAP:
            opt = ps.brute_force_static(inst, k).welfare.average
            certs.append("opt" if row.welfare / opt >= bound - 1e-12 else "none")
        else:
            certs.append("none")
    runs = []
    for cert, group in groupby(zip(ks, certs), key=lambda kc: kc[1]):
        run = [k for k, _ in group]
        runs.append(f"{cert} k={run[0]}" + (f"-{run[-1]}" if len(run) > 1 else ""))
    uncertified = [k for k, cert in zip(ks, certs) if cert == "none"]
    misordered = [k for k, g, b in zip(ks, gus_rows, scb_rows)
                  if g.welfare < b.welfare or (k >= 2 and g.welfare == b.welfare)]
    lead = min(g.welfare - b.welfare for k, g, b in zip(ks, gus_rows, scb_rows) if k >= 2)
    gap = sum(gus_rho) / len(ks) - sum(r.ratio for r in scb_rows) / len(ks)
    elapsed = time.monotonic() - started
    a_ok = not uncertified
    b_ok = not misordered
    c_ok = gus_rho[0] >= 0.9
    ok = a_ok and b_ok and c_ok and elapsed < 120.0
    report(9, ok, f"(a) welfare>=bound*OPT certified for "
                  f"{len(ks) - len(uncertified)}/{len(ks)} budgets ({', '.join(runs)}), "
                  f"(b) gus>=baseline at every k, > at k>=2: {len(misordered)} "
                  f"violations (min lead at k>=2 {lead:.3f}, mean ratio gap {gap:.3f}), "
                  f"(c) ratio at k=1 {gus_rho[0]:.3f} (>= 0.9), {elapsed:.1f}s (< 120s)")
    assert elapsed < 120.0
    assert c_ok
    assert a_ok, (
        f"budgets {uncertified} are not certified: welfare < bound * ub1 and "
        "the exact optimum is either unaffordable or shows greedy below the "
        "guarantee bound * OPT"
    )
    assert b_ok, (
        f"budgets {misordered} break the ordering: greedy welfare must be at "
        "least the coverage baseline's at every k and strictly above it at "
        "every k >= 2"
    )


def test_criterion_10_bound_formulas():
    started = time.monotonic()
    for m in range(1, 51):
        assert ps.static_bound(1, m) == 1.0
    # weakly decreasing in k and in m over the feasible grid k <= m
    for m in range(2, 51):
        values = [ps.static_bound(k, m) for k in range(1, m + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    for k in range(1, 51):
        values = [ps.static_bound(k, m) for m in range(max(2, k), 51)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    limit = ps.static_bound(10_000, 10_000)
    assert abs(limit - (1 - 1 / 2.718281828459045)) < 1e-3
    for k in range(1, 8):
        for varpi in range(2, 10):
            full = ps.mobile_bound(k, varpi, k)
            for g in range(1, k + 1):
                assert ps.mobile_bound(k, varpi, g) == pytest.approx((g / k) * full)
    elapsed = time.monotonic() - started
    report(10, True, f"guarantee formulas: exactness at k=1, monotone grid to "
                     f"50, limit within 1e-3, augmentation scaling, {elapsed:.1f}s")


def test_criterion_11_performance(tmp_path):
    inst = ps.synth_instance(
        ps.GenSpec(mode="gowalla-like", node_count=92, knn=4,
                   degree_mean=24.0, degree_sigma=8.0, seed=7)
    )
    path = tmp_path / "gowalla_like.json"
    ps.save_instance(inst, path)

    started = time.monotonic()
    assert main(["solve-static", str(path), "-k", "30"]) == 0
    static_elapsed = time.monotonic() - started

    started = time.monotonic()
    assert main(["solve-mobile", str(path), "-n", "2", "-k", "10", "-g", "1"]) == 0
    mobile_elapsed = time.monotonic() - started

    ok = static_elapsed < 5.0 and mobile_elapsed < 60.0
    report(11, ok, f"solve-static m=92 k=30 in {static_elapsed:.2f}s (< 5s), "
                   f"solve-mobile n=2 k=10 g=1 in {mobile_elapsed:.2f}s (< 60s)")
    assert static_elapsed < 5.0
    assert mobile_elapsed < 60.0
