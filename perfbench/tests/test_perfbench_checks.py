"""Every check passes on real outputs and fails on a corrupted one."""

import copy
import json

import pytest

import poishare as ps
from poishare.cli import main

from perfbench import checks, tracing
from perfbench.oracle import Oracle
from perfbench.workloads import parse_request


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    instance = ps.synth_instance(ps.GenSpec(
        mode="gowalla-like", node_count=20, degree_mean=3.0, degree_sigma=1.0, seed=3))
    path = tmp_path_factory.mktemp("perfbench") / "small.json"
    ps.save_instance(instance, path)
    return str(path)


@pytest.fixture(scope="module")
def oracle(instance_path):
    return Oracle.from_file(instance_path)


def _run(capsysbinary, argv):
    assert main(argv) == 0
    return capsysbinary.readouterr().out.decode()


def _request(instance_path, *options):
    return parse_request([options[0], instance_path, *options[1:]])


def test_static_outputs_pass_and_corruptions_fail(instance_path, oracle, capsysbinary):
    argv = ["solve-static", instance_path, "-k", "5", "--route", "both", "--format", "json"]
    payload = json.loads(_run(capsysbinary, argv))
    request = parse_request(argv)
    greedy = checks.ReferenceGreedy(oracle)
    assert len(checks.check_solve_static(oracle, greedy, request, payload)) == 1

    one_more_road = dict(payload, welfare=payload["welfare"] + 1 / oracle.user_count)
    with pytest.raises(checks.CheckFailure, match="oracle gives"):
        checks.check_solve_static(oracle, greedy, request, one_more_road)
    below = dict(payload, upper_bound=payload["welfare"] - 1.0)
    with pytest.raises(checks.CheckFailure, match="exceeds its upper bound"):
        checks.check_solve_static(oracle, greedy, request, below)
    rising = copy.deepcopy(payload)
    rising["trace"][1][1] = rising["trace"][0][1] + 1.0
    with pytest.raises(checks.CheckFailure, match="submodularity"):
        checks.check_solve_static(oracle, greedy, request, rising)


def test_sweep_output_passes_and_corruptions_fail(instance_path, oracle, capsysbinary):
    argv = ["sweep", instance_path, "--k-range", "1:6"]
    text = _run(capsysbinary, argv)
    request = parse_request(argv)
    greedy = checks.ReferenceGreedy(oracle)
    assert len(checks.check_sweep(oracle, greedy, request, text)) == 6

    lines = text.splitlines()
    for i, line in enumerate(lines):
        cols = line.split(",")
        if cols[:2] == ["3", "gus"]:
            cols[2] = repr(float(cols[2]) + 1 / oracle.user_count)
            lines[i] = ",".join(cols)
    with pytest.raises(checks.CheckFailure, match="oracle gives"):
        checks.check_sweep(oracle, greedy, request, "\n".join(lines) + "\n")


def test_mobile_outputs_pass_and_corruptions_fail(instance_path, oracle, capsysbinary):
    base = ["solve-mobile", instance_path, "-n", "2", "-k", "3"]
    outputs = {}
    for extra in (["-g", "1"], ["-g", "3"], ["--adjusted"]):
        argv = base + extra + ["--format", "json"]
        payload = json.loads(_run(capsysbinary, argv))
        assert len(checks.check_solve_mobile(oracle, parse_request(argv), payload)) == 1
        outputs[extra[-1]] = (parse_request(argv), payload)
    checks.check_adjusted_vs_full(outputs["--adjusted"][1], outputs["3"][1])

    request, payload = outputs["1"]
    off_road = copy.deepcopy(payload)
    walk = off_road["walks"][0]
    walk[-1] = next(v for v in range(oracle.node_count) if (walk[-2], v) not in oracle.roads)
    with pytest.raises(checks.CheckFailure, match="steps off the roads"):
        checks.check_solve_mobile(oracle, request, off_road)
    below = dict(payload, upper_bound=payload["welfare"] - 1.0)
    with pytest.raises(checks.CheckFailure, match="exceeds its upper bound"):
        checks.check_solve_mobile(oracle, request, below)

    request, payload = outputs["--adjusted"]
    shared_start = copy.deepcopy(payload)
    shared_start["walks"][1] = list(shared_start["walks"][0])
    with pytest.raises(checks.CheckFailure, match="used more than 1 times"):
        checks.check_solve_mobile(oracle, request, shared_start)
    with pytest.raises(checks.CheckFailure, match="below gps"):
        checks.check_adjusted_vs_full(dict(payload, welfare=0.0), outputs["3"][1])


def test_instance_check_rejects_a_split_road_graph(tmp_path):
    instance = ps.Instance(
        sensing=ps.SensingGraph(node_count=4, user_count=4, edges=((0, 1), (2, 3))),
        social=ps.SocialGraph(user_count=4, edges=()),
    )
    path = tmp_path / "split.json"
    ps.save_instance(instance, path)
    with pytest.raises(checks.CheckFailure, match="2 components"):
        checks.check_instance(Oracle.from_file(path), 4)


def test_tracer_charges_self_time_and_restores_the_originals(instance_path, capsysbinary):
    originals = (ps.static_solver.gus, ps.cli.gus, ps.welfare.CoverageState.gain_from_nodes)
    tracer = tracing.Tracer(ps.InfeasibleError)
    with tracer:
        assert ps.cli.gus is ps.static_solver.gus is not originals[0]
        _run(capsysbinary, ["solve-static", instance_path, "-k", "3"])
    assert (ps.static_solver.gus, ps.cli.gus, ps.welfare.CoverageState.gain_from_nodes) == originals
    stats = tracer.stats
    assert stats["static_solver.gus"].calls == 1
    assert stats["welfare.gain_from_nodes"].calls == 20 + 19 + 18
    command = stats["cli.solve_static"]
    assert 0 <= command.self_time < command.total
    children = sum(s.total for name, s in stats.items()
                   if name in ("static_solver.gus", "static_solver.ub1", "io.load_instance"))
    assert command.self_time == pytest.approx(command.total - children, abs=1e-6)
