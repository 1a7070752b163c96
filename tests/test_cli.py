import json
import re
import time

import pytest

import poishare as ps
from poishare.cli import CSV_HEADER, main, run_sweep


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

    for module in (ps.cli, ps.static_solver, ps.mobile_solver):
        monkeypatch.setattr(module, "phi_empty", counted_phi_empty)
    argv = ["sweep", tiny_instance_path, "--k-range", "1:3", "--algorithms",
            "gus,no-broadcast,gps", "--format", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 9
    assert len(calls) == 1


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
