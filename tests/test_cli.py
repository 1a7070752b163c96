import functools
import hashlib
import json
import math
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import poishare as ps
from poishare.cli import CSV_HEADER, STATIC_ALGORITHMS, main, run_sweep
from poishare.static_solver import SEARCH_CAP
from poishare.welfare import WEIGHTED_EQUALITY_TOL
from util import fresh_interpreter, golden_instance, mixed_instances


@pytest.fixture()
def tiny_instance_path(tmp_path):
    inst = ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=3, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=3, edges=()),
    )
    path = tmp_path / "tiny.json"
    ps.save_instance(inst, path)
    return str(path)


def _strip_wall_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    out = []
    for line in lines:
        cols = line.split(",")
        del cols[6]
        out.append(",".join(cols))
    return "\n".join(out)


def test_gen_is_byte_deterministic(tmp_path, capsys):
    argv = ["gen", "--mode", "synthetic-random", "--nodes", "8", "--edge-prob", "0.4",
            "--social-mean", "2", "--social-sigma", "1", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    inst = ps.loads_instance(first)
    assert ps.validate(inst) == []


def test_validate_command(tiny_instance_path, tmp_path, capsys):
    assert main(["validate", tiny_instance_path]) == 0
    assert "valid" in capsys.readouterr().out
    broken = tmp_path / "broken.json"
    broken.write_text(
        '{"node_count": 2, "user_count": 3, "sensing_edges": [], "social_edges": []}'
    )
    assert main(["validate", str(broken)]) == 1
    assert "user_count" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sweep", "{instance}", "--k-range", "1:2", "--route", "matrix"],
    ["sweep", "{instance}", "--k-range", "1:2", "--seeds", "1,2"],
    ["validate", "{instance}", "--cap", "5"],
    ["validate", "{instance}", "--seed", "3"],
    ["gen", "--mode", "synthetic-random", "--format", "json"],
    ["ingest", "-", "--route", "both"],
])
def test_options_a_command_does_not_read_are_rejected(tiny_instance_path, argv, capsys):
    argv = [tiny_instance_path if a == "{instance}" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_static_csv_row(tiny_instance_path, capsys):
    assert main(["solve-static", tiny_instance_path, "-k", "1", "--route", "both"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    cols = lines[1].split(",")
    assert cols[0] == "1" and cols[1] == "gus"
    assert float(cols[2]) == 2.0
    assert "selection: 1" in captured.err


def test_solve_static_json(tiny_instance_path, capsys):
    assert main(["solve-static", tiny_instance_path, "-k", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selection"] == [1, 0, 2]
    assert payload["welfare"] == 2.0  # k = m saturates this instance


def test_solve_static_bad_inputs(tiny_instance_path, capsys):
    assert main(["solve-static", tiny_instance_path, "-k", "9"]) == 1
    assert main(["solve-static", "/nonexistent.json", "-k", "1"]) == 1


def test_solve_static_reports_a_zero_ratio_without_roads(tmp_path, capsys):
    # no roads: welfare and the bound are both 0, as in the sweep's rows
    bare = ps.Instance(
        sensing=ps.SensingGraph(node_count=2, user_count=2, edges=()),
        social=ps.SocialGraph(user_count=2, edges=()),
    )
    path = tmp_path / "bare.json"
    ps.save_instance(bare, path)
    assert main(["solve-static", str(path), "-k", "1"]) == 0
    cols = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert cols[:6] == ["1", "gus", "0.0", "0.0", "0.0", "1.0"]
    assert main(["sweep", str(path), "--k-range", "1", "--algorithms", "gus"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[:6] == cols[:6]


def test_solve_mobile_and_adjusted(tiny_instance_path, tmp_path, capsys):
    assert main(["solve-mobile", tiny_instance_path, "-n", "1", "-k", "1", "-g", "1"]) == 0
    captured = capsys.readouterr()
    cols = captured.out.strip().splitlines()[1].split(",")
    assert cols[1] == "gps"
    assert float(cols[2]) == 2.0
    assert main(["solve-mobile", tiny_instance_path, "-n", "1", "-k", "2", "--adjusted"]) == 0
    capsys.readouterr()
    # adjusted on a graph with a non-user sensing node refuses with code 2
    mixed = ps.Instance(
        sensing=ps.SensingGraph(node_count=3, user_count=2, edges=((0, 1), (1, 2))),
        social=ps.SocialGraph(user_count=2, edges=()),
    )
    mixed_path = tmp_path / "mixed.json"
    ps.save_instance(mixed, mixed_path)
    assert main(["solve-mobile", str(mixed_path), "-n", "1", "-k", "1", "--adjusted"]) == 2
    assert "user node" in capsys.readouterr().err


def test_solve_mobile_infeasible_exit_code(tiny_instance_path, capsys):
    # only 3 start nodes exist, so 4 walks cannot respect a cap of 1
    assert main(["solve-mobile", tiny_instance_path, "-n", "1", "-k", "4", "-g", "1"]) == 2


def test_crosscheck_failure_exit_code(tiny_instance_path, capsys, monkeypatch):
    import poishare.cli as cli

    def broken_gus(instance, k, route="set"):
        raise ps.CrosscheckError("forced")

    monkeypatch.setattr(cli, "gus", broken_gus)
    assert main(["solve-static", tiny_instance_path, "-k", "1", "--route", "both"]) == 3


def test_sweep_row_count_schema_and_determinism(tiny_instance_path, capsys):
    argv = [
        "sweep", tiny_instance_path, "--k-range", "1:3",
        "--algorithms", "gus,set-cover-baseline,no-broadcast,bound", "--seed", "1",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 12  # 3 budgets x 4 algorithms
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[7] == "1"
        ratio = float(cols[4])
        assert 0.0 < ratio <= 1.0
    bound_rows = [l for l in lines[1:] if l.split(",")[1] == "bound"]
    assert float(bound_rows[0].split(",")[4]) == 1.0  # k=1 guarantee is exact
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert _strip_wall_time(first) == _strip_wall_time(second)


def test_sweep_rows_sorted_and_json(tiny_instance_path, capsys):
    argv = [
        "sweep", tiny_instance_path, "--k-range", "1:2",
        "--algorithms", "no-broadcast,gus", "--seed", "2", "--format", "json",
    ]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    keys = [(r["k"], r["algorithm"]) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 4
    assert {r["seed"] for r in rows} == {2}


def test_sweep_gus_beats_bound_on_tiny_instance(tiny_instance_path):
    inst = ps.load_instance(tiny_instance_path)
    report = run_sweep(inst, [1, 2, 3], ["gus", "bound"], 0)
    by = {(r.algorithm, r.k): r for r in report.rows}
    # exhaustively checkable here: greedy is optimal on this instance
    for k in (1, 2, 3):
        opt = ps.brute_force_static(inst, k).welfare.average
        assert by[("gus", k)].welfare == opt
        assert by[("gus", k)].welfare >= by[("bound", k)].ratio * opt


def test_gen_reduction_and_ingest_cli(tmp_path, capsys):
    out = tmp_path / "red.json"
    assert main(["gen", "--mode", "reduction", "--kind", "vcp", "--nodes", "5",
                 "--edge-prob", "0.5", "--seed", "3", "--out", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    capsys.readouterr()

    tsv = tmp_path / "checkins.tsv"
    rows = []
    for i in range(30):
        rows.append(f"u{i}\t2010-05-01T12:00:00Z\t{30.0 + i * 0.001}\t{-97.0 - i * 0.001}\tl{i}\n")
    rows.append("bad\tline\n")
    tsv.write_text("".join(rows), encoding="utf-8")
    inst_out = tmp_path / "ingested.json"
    assert main(["ingest", str(tsv), "--bbox", "29:31:-98:-96", "--clusters", "6",
                 "--knn", "2", "--social-mean", "2", "--social-sigma", "1",
                 "--seed", "4", "--out", str(inst_out)]) == 0
    captured = capsys.readouterr()
    assert "line 31" in captured.err
    inst = ps.load_instance(inst_out)
    assert inst.user_count == 6


def test_sweep_charges_no_bound_time_to_an_algorithm(tiny_instance_path, capsys, monkeypatch):
    real_ub1 = ps.cli.ub1

    def slow_ub1(*args, **kwargs):
        time.sleep(0.2)
        return real_ub1(*args, **kwargs)

    monkeypatch.setattr(ps.cli, "ub1", slow_ub1)
    assert main(["sweep", tiny_instance_path, "--k-range", "1:3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    gus_rows = [r for r in rows if r["algorithm"] == "gus"]
    assert len(gus_rows) == 3
    assert all(r["wall_time_ms"] < 100 for r in gus_rows), gus_rows


def test_sweep_computes_the_base_welfare_once(tiny_instance_path, capsys, monkeypatch):
    real_phi_empty = ps.static_solver.phi_empty
    calls = []

    def counted_phi_empty(instance):
        calls.append(instance)
        return real_phi_empty(instance)

    for module in (ps.cli, ps.static_solver):
        monkeypatch.setattr(module, "phi_empty", counted_phi_empty)
    argv = ["sweep", tiny_instance_path, "--k-range", "1:3", "--algorithms",
            "gus,no-broadcast,gps", "--format", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 9
    assert len(calls) == 1


def test_sweep_evaluates_the_base_welfare_and_no_gus_selection(tiny_instance_path, capsys,
                                                                monkeypatch):
    real_breakdown = ps.welfare.broadcast_breakdown
    calls = []

    def counted_breakdown(instance, broadcast_nodes):
        calls.append(tuple(broadcast_nodes))
        return real_breakdown(instance, broadcast_nodes)

    # the base welfare comes from welfare.own_access, not the set route
    for module in (ps, ps.welfare, ps.static_solver, ps.mobile_solver, ps.cli):
        if hasattr(module, "broadcast_breakdown"):
            monkeypatch.setattr(module, "broadcast_breakdown", counted_breakdown)
    argv = ["sweep", tiny_instance_path, "--k-range", "1:3", "--algorithms", "gus",
            "--format", "json"]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 3
    assert calls == []


@pytest.mark.parametrize("solver", [["-g", "1"], ["--adjusted"]])
@pytest.mark.parametrize("route, expected", [("set", (1, 0)), ("matrix", (0, 1)), ("both", (1, 1))])
def test_solve_mobile_evaluates_its_answer_once(tiny_instance_path, capsys, monkeypatch, solver,
                                                route, expected):
    # (set-route, matrix-route) evaluations per request; the greedy's own
    # picks and the g = k run behind --adjusted are never evaluated
    real_breakdown = ps.welfare.broadcast_breakdown
    real_matrix = ps.welfare.phi_walks_matrix
    calls = {"set": 0, "matrix": 0}

    def counted_breakdown(instance, broadcast_nodes):
        calls["set"] += 1
        return real_breakdown(instance, broadcast_nodes)

    def counted_matrix(instance, walks):
        calls["matrix"] += 1
        return real_matrix(instance, walks)

    for module in (ps, ps.welfare, ps.static_solver, ps.mobile_solver, ps.cli):
        for name, counted in (("broadcast_breakdown", counted_breakdown),
                              ("phi_walks_matrix", counted_matrix)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    argv = ["solve-mobile", tiny_instance_path, "-n", "1", "-k", "2", "--route", route,
            "--format", "json", *solver]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["walks"]) == 2
    assert (calls["set"], calls["matrix"]) == expected


def test_sweep_gus_welfares_equal_a_replay_of_the_gus_trace():
    for inst in mixed_instances(134, 30):
        k_max = min(inst.user_count, 12)
        report = run_sweep(inst, list(range(1, k_max + 1)), ["gus"], 0, cap=200)
        state = ps.CoverageState(inst)
        replayed = []
        for user, _ in ps.gus(inst, k_max).trace:
            state.add_nodes((user,))
            replayed.append(state.average())
        assert [row.welfare for row in report.sorted_rows()] == replayed


@pytest.mark.parametrize("argv", [
    ("sweep", "--k-range", "1:14"),
    ("solve-static", "-k", "14"),
])
def test_each_request_runs_one_greedy_cover_per_pool(tmp_path, monkeypatch, capsys, argv):
    # the incumbents of the searches and the coverage baseline all read one
    # recorded greedy run over the users; budget 14's search caps at
    # SEARCH_CAP, so its bound comes from the coverage table
    path = tmp_path / "golden.json"
    ps.save_instance(golden_instance(), path)
    real_cover = ps.static_solver.greedy_cover
    real_search = ps.static_solver.exact_max_coverage
    runs, capped = [], []

    def counted_cover(rows, weights):
        runs.append(rows.shape)
        return real_cover(rows, weights)

    def recording_search(*args, **kwargs):
        try:
            return real_search(*args, **kwargs)
        except ps.InfeasibleError:
            capped.append(args[1])
            raise

    monkeypatch.setattr(ps.static_solver, "greedy_cover", counted_cover)
    monkeypatch.setattr(ps.static_solver, "exact_max_coverage", recording_search)
    assert main([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().out
    assert len(runs) == 1
    assert capped == [14]


def test_mobile_sweep_rows_equal_separate_calls_over_one_walk_enumeration(monkeypatch):
    inst = golden_instance()
    n, g, cap, ks = 2, 2, 20_000, list(range(1, 7))
    real_enumerate = ps.mobile_solver.enumerate_walks
    calls = []

    def counted(instance, length):
        calls.append(length)
        return real_enumerate(instance, length)

    for module in (ps, ps.mobile_solver, ps.cli):
        if hasattr(module, "enumerate_walks"):
            monkeypatch.setattr(module, "enumerate_walks", counted)
    report = run_sweep(inst, ks, ["gps", "adjusted-gps"], 0, n=n, g=g, cap=cap)
    assert calls == [n]
    monkeypatch.undo()
    rows = {(r.algorithm, r.k): r for r in report.rows}
    assert len(rows) == 2 * len(ks)
    m = inst.node_count
    for k in ks:
        upper = ps.ub2(inst, n, k, cap=cap)
        for algorithm, result, bound in (
            ("gps", ps.gps(inst, n, k, min(g, k)), ps.mobile_bound(k, m, min(g, k))),
            ("adjusted-gps", ps.adjusted_gps(inst, n, k), ps.mobile_bound(k, m, k)),
        ):
            row = rows[(algorithm, k)]
            welfare = result.welfare.average
            assert (row.welfare, row.upper_bound, row.bound) == (welfare, upper, bound)
            assert row.ratio == welfare / upper


def test_solve_static_builds_each_social_reach_once(tmp_path, monkeypatch, capsys):
    # the greedy state, ub1's base welfare and both evaluation routes share
    # one reach set per user
    instance = golden_instance()
    path = tmp_path / "golden.json"
    ps.save_instance(instance, path)
    search = ps.model.social_neighborhood
    calls = []

    def counted(inst, user):
        calls.append(user)
        return search(inst, user)

    for module in (ps.model, ps.welfare, ps.static_solver, ps.mobile_solver, ps.cli):
        if hasattr(module, "social_neighborhood"):
            monkeypatch.setattr(module, "social_neighborhood", counted)
    assert main(["solve-static", str(path), "-k", "5", "--route", "both"]) == 0
    assert sorted(calls) == list(range(instance.user_count))


def test_solve_mobile_refuses_long_walks_up_front(tmp_path, capsys):
    path = tmp_path / "paper.json"
    assert main(["gen", "--mode", "gowalla-like", "--nodes", "92", "--seed", "7",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    start = time.monotonic()
    assert main(["solve-mobile", str(path), "-n", "8", "-k", "10"]) == 2
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert "10338608 walks of 7 edges" in err and "cap 2000000" in err


def _spread_checkins(path, count: int) -> str:
    path.write_text("".join(f"u{i}\t2010-01-01T00:00:00Z\t{30 + i * 1e-6:.6f}\t-97.0\tl{i}\n"
                            for i in range(count)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (["gen", "--mode", "gowalla-like", "--nodes", "-5"], "node count -5 is outside"),
    (["gen", "--mode", "gowalla-like", "--nodes", "1000000"], "node count 1000000 is outside"),
    (["gen", "--mode", "synthetic-random", "--users", "0"], "user count 0 is outside"),
    (["gen", "--mode", "gowalla-like", "--social-sigma", "-1"], "sigma -1.0 must be finite"),
    (["gen", "--mode", "gowalla-like", "--social-mean", "nan"], "mean nan and sigma"),
    (["gen", "--mode", "synthetic-random", "--edge-prob", "-0.5"], "probability -0.5 is outside"),
    (["gen", "--mode", "synthetic-random", "--edge-prob", "1.5"], "probability 1.5 is outside"),
    (["gen", "--mode", "synthetic-random", "--edge-prob", "nan"], "probability nan is outside"),
    (["gen", "--mode", "synthetic-random", "--nodes", "20000"], "above the limit of 1000000"),
    (["gen", "--mode", "reduction", "--kind", "mobile", "--nodes", "300"],
     "mobile gadget would have"),
    (["ingest", "{checkins}", "--social-sigma", "-1"], "sigma -1.0 must be finite"),
    (["ingest", "{many}"], "limit; crop them"),
])
def test_gen_and_ingest_refuse_bad_or_oversized_inputs_up_front(tmp_path, capsys, argv, message):
    # the smallest check-in count whose clustering distances exceed the limit
    limit = ps.pipeline.MAX_CLUSTER_BYTES
    many = next(n for n in range(math.isqrt(limit // 8), limit) if 8 * n * (n - 1) > limit)
    counts = {"{checkins}": 100, "{many}": many}
    argv = [_spread_checkins(tmp_path / "checkins.tsv", counts[a]) if a in counts else a
            for a in argv] + ["--out", str(tmp_path / "out.json")]
    start = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("k_range", ["a:b", "5:x", "x", "5:", "0", "-3", "0:3", "4:2"])
def test_sweep_refuses_a_bad_k_range_as_an_input_error(tiny_instance_path, capsys, k_range):
    argv = ["sweep", tiny_instance_path, f"--k-range={k_range}",
            "--algorithms", "no-broadcast,bound"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: bad k range") and "Traceback" not in err


def test_ingest_refuses_a_non_numeric_bbox_as_an_input_error(tmp_path, capsys):
    checkins = _spread_checkins(tmp_path / "checkins.tsv", 100)
    out = tmp_path / "out.json"
    assert main(["ingest", checkins, "--bbox", "a:b:c:d", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: bbox bounds must be numbers") and "Traceback" not in err
    assert not out.exists()


def _record_searches(monkeypatch) -> list[tuple[int, int, bool]]:
    """Patch ``exact_max_coverage`` to note each call's pool size, budget
    and whether it capped; returns the list it appends to."""
    real_search = ps.static_solver.exact_max_coverage
    calls = []

    def recording(instance, k, *args, search=None, **kwargs):
        try:
            found = real_search(instance, k, *args, search=search, **kwargs)
        except ps.InfeasibleError:
            calls.append((search.size, k, True))
            raise
        calls.append((search.size, k, False))
        return found

    monkeypatch.setattr(ps.static_solver, "exact_max_coverage", recording)
    return calls


def _record_coverage_searches(monkeypatch) -> list:
    """Patch ``CoverageSearch.__init__`` to keep every search built."""
    real_init = ps.static_solver.CoverageSearch.__init__
    searches = []

    def counted_init(self, instance, nodes=None):
        real_init(self, instance, nodes)
        searches.append(self)

    monkeypatch.setattr(ps.static_solver.CoverageSearch, "__init__", counted_init)
    return searches


@pytest.mark.parametrize("cap", [20_000, 0])
def test_mobile_sweep_bounds_share_one_node_search(monkeypatch, cap):
    # every budget's ub2 reads one CoverageSearch over all 40 nodes.  The
    # largest budget, 30 nodes, is searched first and caps at either cap,
    # so it builds the coverage table and every smaller budget reads it.
    # The CSV, without wall_time_ms, is the same at both caps (every bound
    # is exact, capped at the ceiling of 98 roads).
    searches = _record_coverage_searches(monkeypatch)
    calls = _record_searches(monkeypatch)
    report = run_sweep(golden_instance(), list(range(1, 11)), ["gps", "adjusted-gps"], 0,
                       n=2, g=2, cap=cap)
    out = report.to_csv()
    assert [search.size for search in searches] == [40]
    assert calls == [(40, 30, True)]
    assert searches[0].sources == {budget: ("exact-dp", 5) for budget in range(3, 31, 3)}
    assert hashlib.sha256(_strip_wall_time(out).encode()).hexdigest() == (
        "fb02eb186d7e321d7d3e3ce44a1cdf4407b73ee5f0027e1f65a2a36060b411d7"
    )


def test_paper_sweep_reads_every_bound_from_one_capped_search(tmp_path, monkeypatch, capsys):
    # the paper's k = 1..30 sweep: ub1 bounds budget 30 first, its search
    # caps and builds the width-7 coverage table, and every budget reads
    # it.  The rows are those of bounding the budgets in rising order,
    # where the searches of 1..17 finished.
    path = tmp_path / "paper.json"
    assert main(["gen", "--mode", "gowalla-like", "--nodes", "92", "--seed", "7",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    searches = _record_coverage_searches(monkeypatch)
    calls = _record_searches(monkeypatch)
    assert main(["sweep", str(path), "--k-range", "1:30"]) == 0
    out = capsys.readouterr().out
    assert [search.size for search in searches] == [92]
    assert calls == [(92, 30, True)]
    assert searches[0].sources == {budget: ("exact-dp", 7) for budget in range(1, 31)}
    assert hashlib.sha256(_strip_wall_time(out).encode()).hexdigest() == (
        "353775e496067b50dcbb71be9eaa6bfcd22bd6291c4dabfe86c15bb9adaf2823"
    )


def test_sweep_upper_bounds_equal_separate_ub1_calls_property():
    """The sweep's upper_bound column, bounded from the largest budget down
    over one search, equals a separate ub1 call per budget: the same bits
    under unit weights, within WEIGHTED_EQUALITY_TOL under weights, where a
    budget reads the table that the separate call searches for."""
    instances = mixed_instances(147, 30)
    separate = functools.lru_cache(maxsize=None)(
        lambda index, k, cap: ps.ub1(instances[index], k, cap=cap))

    # Hypothesis runs inside a plain test, as in test_pipeline: a failing
    # @given test collected by pytest would abort the whole pytest run.
    # Budgets stop at 16: past it each separate call on the golden
    # instance caps a search of 500,000 nodes, about 0.25 s.
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(index=st.sampled_from(range(len(instances))),
           cap=st.sampled_from((0, 1, SEARCH_CAP)), lo=st.integers(1, 16),
           span=st.integers(0, 15))
    def equal(index, cap, lo, span):
        inst = instances[index]
        hi = min(lo + span, inst.user_count, 16)
        ks = list(range(min(lo, hi), hi + 1))
        report = run_sweep(inst, ks, ["no-broadcast"], 0, cap=cap)
        upper = [row.upper_bound for row in report.sorted_rows()]
        want = [separate(index, k, cap) for k in ks]
        if inst.sensing.edge_weights is None:
            assert upper == want
        else:
            assert upper == pytest.approx(want, rel=0, abs=WEIGHTED_EQUALITY_TOL)

    equal()


@pytest.mark.parametrize("algorithm", STATIC_ALGORITHMS)
def test_sweep_refuses_budgets_past_the_user_count(tiny_instance_path, capsys, algorithm):
    # the tiny instance has 3 users: no static algorithm has a budget of 4
    argv = ["sweep", tiny_instance_path, "--k-range", "2:4", "--algorithms", algorithm]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "input error: k range reaches 4 but instance has 3 users\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, solver", [
    (["solve-static", "{instance}", "-k", "2"], "gus"),
    (["solve-mobile", "{instance}", "-n", "2", "-k", "2"], "gps"),
    (["solve-mobile", "{instance}", "-n", "2", "-k", "2", "--adjusted"], "adjusted_gps"),
], ids=("gus", "gps", "adjusted_gps"))
def test_solvers_start_after_the_bound_imports_scipy(tmp_path, argv, solver):
    # the bound is computed before the algorithm's timer starts, so the
    # first sparse build, and the scipy.sparse import it pays for, is not
    # charged to the algorithm's wall_time_ms
    path = str(tmp_path / "inst.json")
    argv = [path if a == "{instance}" else a for a in argv]
    script = f"""
import json, sys
import poishare.cli as cli

entered = []
real = cli.{solver}

def recording(*args, **kwargs):
    entered.append("scipy.sparse" in sys.modules)
    return real(*args, **kwargs)

cli.{solver} = recording
assert cli.main(["gen", "--mode", "gowalla-like", "--nodes", "20", "--seed", "3",
                 "--out", {path!r}]) == 0
assert "scipy.sparse" not in sys.modules
assert cli.main({argv!r}) == 0
print(json.dumps(entered))
"""
    assert fresh_interpreter(script) == [True]


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--k-range", "1:2", "--algorithms", ",,"), "no sweep algorithm given"),
    (("sweep", "--k-range", "1:2", "--algorithms", "gus,gus"), "'gus' named more than once"),
    (("sweep", "--k-range", "1:2", "--algorithms", "bound, gps ,gps"),
     "'gps' named more than once"),
])
def test_empty_or_repeated_algorithms_and_negative_caps_are_input_errors(
    tiny_instance_path, capsys, argv, message
):
    assert main([argv[0], tiny_instance_path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
