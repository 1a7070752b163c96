"""Benchmark entry point.

    python3 perfbench/run.py --workload {paper-static,paper-mobile,city} \\
        --seed N --seconds S --trace {0,1} [--instance-seed N]

Run from the root of a checkout.  The run

1. builds the workload's instance ``SETUP_REPEATS`` times, each in a fresh
   child process (``perfbench.build_instance``), checks that every set-up
   wrote the same file, and reports the median set-up time as ``setup_s``;
2. issues one warm-up request, then whole rounds of the workload's
   requests through ``poishare.cli.main`` in this process with captured
   output, each after a ``gc.collect()``, timed from outside with
   ``perf_counter`` and ``process_time``; it starts another round only
   while that round is expected to end within ``--seconds``;
3. checks every output against ``perfbench.oracle`` and the properties in
   ``perfbench.checks``;
4. prints one JSON object as the last line of stdout.

Every time it reports (``wall_s``, ``cpu_s``, ``setup_s``) is corrected
to the reference speed of the host by ``perfbench.hostspeed``, which
samples the host's speed while the work runs; the raw times are kept in
the run's ``result.json``.

``--seed`` orders the requests of each round.  The instances are fixed by
``--instance-seed`` (default: 7 for the paper instance, 2023 for the
check-ins), so that every run does the same work and reports the same
``welfare``; pass the held-out seed 101 to confirm a claim on an instance
that no tuning saw.

With ``--trace 1`` the run builds the instance once under tracing, runs
one untraced and one traced round, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS threads for numpy and scipy; fixed below the 2 cores of the
#: reference machine so that cpu_s and wall_s do not depend on the scheduler.
BLAS_THREADS = "1"
#: Set-ups per run, by instance: the paper instance's set-up is mostly the
#: 0.5 s import and varies most, the city's costs about 4.5 s.
SETUP_REPEATS = {"paper": 5, "city": 3}
#: The set-up child's own budget; a whole run must end within 180 s.
SETUP_TIMEOUT_S = 60

log = logging.getLogger("perfbench")


@dataclass
class Outcome:
    index: int
    argv: tuple[str, ...]
    code: int | None
    out: str
    err: str
    wall: float
    cpu: float
    #: ``perf_counter`` when the request started.
    start: float
    #: ``wall`` and ``cpu`` at the host's reference speed (untraced runs).
    wall_ref: float | None = None
    cpu_ref: float | None = None


def run_request(cli, index: int, argv) -> Outcome:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed request, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    start = wall
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return Outcome(index, tuple(argv), code, out.getvalue(), err.getvalue(), wall, cpu, start)


def run_round(cli, requests, rng: random.Random) -> list[Outcome]:
    order = rng.sample(range(len(requests)), len(requests))
    outcomes = [run_request(cli, i, requests[i]) for i in order]
    return sorted(outcomes, key=lambda o: o.index)


def run_setup(instance: str, seed: int, out_dir: Path, trace: bool) -> dict:
    command = [sys.executable, "-m", "perfbench.build_instance", instance, str(seed), str(out_dir)]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_metrics(stats: dict, locations: int, instance_bytes: int, overhead: float) -> dict:
    """The per-layer metrics from merged span totals (``tracing.Stat`` by name)."""
    def get(name, field):
        return getattr(stats[name], field) if name in stats else 0

    def self_s(*names):
        return sum(get(n, "self_time") for n in names)

    exact_calls = get("static_solver.exact_max_coverage", "calls")
    capped = get("static_solver.exact_max_coverage", "raised")
    values = {
        "pipeline.ingest_instance.s": (self_s("pipeline.ingest_instance"), "s"),
        "pipeline.cluster_locations.s": (self_s("pipeline.cluster_locations"), "s"),
        "pipeline.build_roads.s": (self_s("pipeline.build_roads"), "s"),
        "pipeline.synth_instance.s": (self_s("pipeline.synth_instance"), "s"),
        "pipeline.locations": (locations, "count"),
        "io.load_instance.s": (self_s("io.load_instance"), "s"),
        "io.load_instance.calls": (get("io.load_instance", "calls"), "count"),
        "io.instance_bytes": (instance_bytes, "bytes"),
        "model.validate.s": (self_s("model.validate"), "s"),
        "welfare.CoverageState.s": (self_s("welfare.CoverageState"), "s"),
        "welfare.CoverageState.calls": (get("welfare.CoverageState", "calls"), "count"),
        "welfare.gain_from_nodes.calls": (get("welfare.gain_from_nodes", "calls"), "count"),
        "welfare.gain_from_nodes.s": (self_s("welfare.gain_from_nodes"), "s"),
        "welfare.add_nodes.calls": (get("welfare.add_nodes", "calls"), "count"),
        "welfare.broadcast_breakdown.s": (self_s("welfare.broadcast_breakdown"), "s"),
        "welfare.broadcast_breakdown.calls": (get("welfare.broadcast_breakdown", "calls"), "count"),
        "welfare.matrix_route.s": (self_s("welfare.phi_selection_matrix", "welfare.phi_walks_matrix"), "s"),
        "static_solver.exact_max_coverage.s": (self_s("static_solver.exact_max_coverage"), "s"),
        "static_solver.exact_max_coverage.calls": (exact_calls, "count"),
        "static_solver.exact_max_coverage.capped": (capped, "count"),
        "static_solver.exact_share": ((exact_calls - capped) / exact_calls if exact_calls else 0.0, "ratio"),
        "static_solver.coverage_upper_bound.s": (self_s("static_solver.coverage_upper_bound"), "s"),
        "static_solver.greedy_max_coverage.s": (self_s("static_solver.greedy_max_coverage"), "s"),
        "static_solver.greedy_max_coverage.calls": (get("static_solver.greedy_max_coverage", "calls"), "count"),
        "static_solver.ub1.s": (self_s("static_solver.ub1"), "s"),
        "static_solver.ub1.calls": (get("static_solver.ub1", "calls"), "count"),
        "static_solver.gus.s": (self_s("static_solver.gus"), "s"),
        "mobile_solver.enumerate_walks.s": (self_s("mobile_solver.enumerate_walks"), "s"),
        "mobile_solver.walks": (get("mobile_solver.enumerate_walks", "items"), "count"),
        "mobile_solver.gps.s": (self_s("mobile_solver.gps"), "s"),
        "mobile_solver.adjusted_gps.s": (self_s("mobile_solver.adjusted_gps"), "s"),
        "mobile_solver.ub2.s": (self_s("mobile_solver.ub2"), "s"),
        "cli.run_sweep.s": (self_s("cli.run_sweep"), "s"),
        # Per-command latency: the whole command, not its self time.
        "cli.sweep.s": (get("cli.sweep", "total"), "s"),
        "cli.solve_static.s": (get("cli.solve_static", "total"), "s"),
        "cli.solve_mobile.s": (get("cli.solve_mobile", "total"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="perfbench: %(message)s")

    if not (ROOT / "src" / "poishare" / "__init__.py").is_file():
        log.error("no poishare source under %s; run from the root of a checkout", ROOT / "src")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import poishare
    from poishare import cli

    from perfbench import checks, hostspeed, oracle as oracle_mod, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        log.error("unknown workload %r; choose from %s", args.workload, ", ".join(workloads.WORKLOADS))
        return 2
    workload = workloads.WORKLOADS[args.workload]
    instance_seed = (args.instance_seed if args.instance_seed is not None
                     else workloads.default_seed(workload.instance))
    out_dir = ROOT / "perfbench" / "out" / args.workload
    trace = args.trace == 1

    try:
        setups = [run_setup(workload.instance, instance_seed, out_dir, trace)
                  for _ in range(1 if trace else SETUP_REPEATS[workload.instance])]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log.error("%s", exc)
        return 1
    if len({s["sha256"] for s in setups}) != 1:
        log.error("set-ups with the same seed wrote different instances")
        return 1
    instance_path = setups[0]["instance"]
    requests = [tuple(instance_path if a == workloads.INSTANCE else a for a in r)
                for r in workload.requests]

    warm = run_request(cli, -1, [instance_path if a == workloads.INSTANCE else a
                                 for a in workloads.WARM_UP])
    if warm.code != 0:
        log.error("warm-up request failed: %s", warm.err.strip())
        return 1

    rng = random.Random(args.seed)
    tracer = None
    if trace:
        rounds = [run_round(cli, requests, rng)]
        tracer = tracing.Tracer(poishare.InfeasibleError)
        with tracer:
            rounds.append(run_round(cli, requests, rng))
    else:
        rounds = []
        started = time.perf_counter()
        with hostspeed.Sampler() as speed:
            while True:
                rounds.append(run_round(cli, requests, rng))
                elapsed = time.perf_counter() - started
                if elapsed + sum(o.wall for o in rounds[-1]) > args.seconds:
                    break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle = oracle_mod.Oracle.from_file(instance_path)
    try:
        checks.check_instance(oracle, workloads.expected_locations(workload.instance))
    except checks.CheckFailure as exc:
        log.error("instance check failed: %s", exc)
        return 1
    greedy = checks.ReferenceGreedy(oracle)
    checked = [checks.check_round(oracle, greedy, [(o.argv, o.code, o.out) for o in r])
               for r in rounds]
    for r, (*_, messages) in zip(rounds, checked):
        for message in messages:
            log.error("%s", message)
        for o in r:
            if o.code != 0:
                log.error("stderr of %s:\n%s", " ".join(o.argv), o.err.strip()[-2000:])
    attempted = sum(len(r) for r in rounds)
    failed = sum(c[0] for c in checked)
    wrong = sum(c[1] for c in checked)
    results = checked[0][2]

    if trace:
        walls = [sum(o.wall for o in r) for r in rounds]
        stats: dict[str, tracing.Stat] = {}
        for table in (setups[0]["spans"], tracer.table()):
            for name, fields in table.items():
                stats.setdefault(name, tracing.Stat()).merge(tracing.Stat(**fields))
        metrics = layer_metrics(stats, oracle.node_count, setups[0]["instance_bytes"],
                                walls[1] - walls[0])
    else:
        for o in (o for r in rounds for o in r):
            o.wall_ref = speed.corrected(o.wall, o.start, o.start + o.wall)
            o.cpu_ref = speed.corrected(o.cpu, o.start, o.start + o.wall)
        metrics = {
            "wall_s": {"value": statistics.median(sum(o.wall_ref for o in r) for r in rounds),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(sum(o.cpu_ref for o in r) for r in rounds),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "welfare": {"value": sum(w for w, _ in results), "unit": "roads"},
            "bound_ratio": {"value": statistics.fmean(w / u for w, u in results) if results else 0.0,
                            "unit": "ratio"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    details = {
        "workload": args.workload, "seed": args.seed, "instance_seed": instance_seed,
        "trace": trace, "setup_s": [s["setup_s"] for s in setups],
        "setup_raw_s": [s["setup_raw_s"] for s in setups],
        "rounds": [[{"argv": list(o.argv), "code": o.code, "wall_s": o.wall, "cpu_s": o.cpu,
                     "wall_ref_s": o.wall_ref, "cpu_ref_s": o.cpu_ref, "stdout": o.out}
                    for o in r] for r in rounds],
        "result": result,
    }
    if tracer is not None:
        details["spans"] = tracer.spans
    else:
        details["probe_median_s"] = statistics.median(d for _, d in speed.samples)
    (out_dir / ("trace.json" if trace else "result.json")).write_text(json.dumps(details) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
