"""Paired benchmark runs of two checkouts, written as one ``BENCH_*.json``.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_name.json \\
        --claim TEXT [--instance-seed N] WORKLOAD:PAIRS [WORKLOAD:PAIRS ...]

For each ``WORKLOAD:PAIRS`` it runs, for seeds 1..PAIRS,

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0 \\
        [--instance-seed N]

from the root of each checkout, the parent first on odd seeds and the
change first on even ones, one run at a time.  ``S`` is ``run_seconds`` of
the change's ``BENCHMARK.json``, which also names the end-to-end metrics,
whether lower or higher is better, and each one's relative ``bound``; the
script only reads it.  Per workload the file records every run, each
side's attempted and failed operations, and for each end-to-end metric:

- each side's median and quartiles;
- the number of pairs in which the change did better;
- ``worse_than_bound``: whether the change's median is worse than the
  parent's by more than ``bound`` times the parent's median.

It also reads each run's ``perfbench/out/WORKLOAD/result.json`` and records
every request's shortest raw ``wall_s``, per run and, over all runs, per
side: the benchmark corrects a request's time from the host-speed probes
taken while it ran, one every 0.1 s, so a request that gets near that
interval can end a run with no probe inside it.  ``--instance-seed``
passes the held-out instance seed on, to confirm a claim on it.

``regressed`` lists the flagged metrics.  ``parent`` and ``change`` are
the two commits; a side that is not the root of a git checkout (an
exported tree, say) stops the script before any run.  Before every run
the script deletes the ``__pycache__`` directories inside the checkout,
so both sides start without compiled bytecode of their own code,
whatever earlier runs left.  (A fresh ``PYTHONPYCACHEPREFIX`` per run would do that too, but it
also hides the installed packages' bytecode, so every set-up would compile
numpy and scipy.)  Only the standard library is used, so the script runs
before either checkout's dependencies are imported.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import shutil
import subprocess
import sys
from pathlib import Path

HOW = ("each command run from the root of a checkout of the parent and of the change, "
       "in pairs, alternating which side ran first (odd seeds: parent first)")


def _cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _host() -> dict:
    host = {"vcpus": os.cpu_count(), "cpu": _cpu_name(), "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            host[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            host[package] = None
    return host


def _commit(checkout: Path) -> str:
    """The short commit of ``checkout``; exits when it is not the root of a
    git checkout, whose commit would be unknown or another repository's."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel",
                           "--short", "HEAD"], capture_output=True, text=True)
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        sys.exit(f"{checkout} is not the root of a git checkout, so its commit is unknown")
    return lines[1]


def _clear_bytecode(checkout: Path) -> None:
    """Delete the checkout's ``__pycache__`` directories."""
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache)


def _run(checkout: Path, argv: list[str]) -> dict:
    """One benchmark run: its ``correct``/``attempted``/``failed`` and the
    value of each end-to-end metric, from the last line of stdout."""
    _clear_bytecode(checkout)
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed in {checkout} (exit {done.returncode}):\n"
                 f"{done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    flat = {key: result[key] for key in ("correct", "attempted", "failed")}
    flat.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return flat


def _shortest_walls(checkout: Path, workload: str) -> dict[str, float]:
    """Each request's shortest raw ``wall_s`` in the last run's
    ``result.json``, keyed by its command line with the instance path cut
    to the file name."""
    details = json.loads((checkout / "perfbench" / "out" / workload / "result.json").read_text())
    shortest: dict[str, float] = {}
    for requests in details["rounds"]:
        for request in requests:
            key = " ".join(Path(a).name if os.sep in a else a for a in request["argv"])
            shortest[key] = min(request["wall_s"], shortest.get(key, float("inf")))
    return shortest


def _gate(runs: list[dict], metric: dict) -> dict:
    """One end-to-end metric of a workload's runs, against its bound."""
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    values = {side: [r[side][name] for r in runs] for side in ("parent", "change")}
    medians = {side: statistics.median(v) for side, v in values.items()}
    gate = {"better": metric["better"], "bound": bound, "medians": medians}
    if len(runs) >= 2:
        # quantiles(n=4) gives the three quartiles; keep the first and third
        gate["quartiles"] = {side: statistics.quantiles(v, n=4)[::2] for side, v in values.items()}
    gate["change_better_pairs"] = sum(
        sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
    gate["worse_than_bound"] = (
        sign * (medians["change"] - medians["parent"]) > bound * abs(medians["parent"]))
    return gate


def _pairs(workload: str, pairs: int, sides: dict[str, Path], seconds: float,
           end_to_end: list[dict], instance_seed: int | None) -> dict:
    runs = []
    for seed in range(1, pairs + 1):
        argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", f"{seconds:g}", "--trace", "0"]
        if instance_seed is not None:
            argv += ["--instance-seed", str(instance_seed)]
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        run = {"seed": seed, "command": " ".join(argv), "order": order}
        for side in order:
            print(f"bench_pairs: {workload} seed {seed} {side}", file=sys.stderr, flush=True)
            run[side] = _run(sides[side], argv)
            run[side]["shortest_raw_wall_s"] = _shortest_walls(sides[side], workload)
        runs.append(run)
    gates = {metric["name"]: _gate(runs, metric) for metric in end_to_end}
    shortest = {side: {key: min(r[side]["shortest_raw_wall_s"][key] for r in runs)
                       for key in runs[0][side]["shortest_raw_wall_s"]}
                for side in ("parent", "change")}
    for side, walls in shortest.items():
        key = min(walls, key=walls.get)
        print(f"bench_pairs: {workload} {side}: shortest raw wall_s {walls[key]:.3f} s ({key})",
              file=sys.stderr, flush=True)
    return {
        "workload": workload,
        "pairs": pairs,
        "runs": runs,
        "operations": {side: {k: sum(r[side][k] for r in runs) for k in ("attempted", "failed")}
                       for side in ("parent", "change")},
        "end_to_end": gates,
        "shortest_raw_wall_s": shortest,
        "regressed": [name for name, gate in gates.items() if gate["worse_than_bound"]],
    }


def _workload_pairs(text: str) -> tuple[str, int]:
    workload, sep, pairs = text.partition(":")
    if not sep or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS, got {text!r}")
    return workload, int(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/bench_pairs.py")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--claim", required=True, help="the claim the runs test")
    parser.add_argument("--instance-seed", type=int, default=None,
                        help="instance seed passed to perfbench/run.py (default: its own)")
    parser.add_argument("workloads", nargs="+", type=_workload_pairs, metavar="WORKLOAD:PAIRS")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: _commit(checkout) for side, checkout in sides.items()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    report = {"claim": args.claim, **commits, "how": HOW, "host": _host(),
              "instance_seed": args.instance_seed}
    for workload, pairs in args.workloads:
        report[workload] = _pairs(workload, pairs, sides, benchmark["run_seconds"],
                                  benchmark["end_to_end"], args.instance_seed)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
