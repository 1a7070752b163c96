"""Wall time and peak memory of the CLI on 92-, 1k-, 3k- and 10k-node instances.

    python3 scripts/bench_scale.py --change DIR [--parent DIR] --out BENCH_scale.json

For each node count it builds the instance with

    poishare gen --mode gowalla-like --seed 7 --nodes N --out FILE

and then runs on it ``validate``, ``solve-static -k 30`` on the default
route and with ``--route both``, ``solve-mobile -n 2 -k 10 -g 1``,
``solve-mobile -n 3 -k 10 -g 1 --route both`` and ``sweep --k-range
1:30``.  Every command runs ``REPEATS`` times, each time in a fresh
child of a fresh wrapper process, so the wrapper's ``RUSAGE_CHILDREN``
peak resident set is the command's own, and its wall time includes the
interpreter's start-up and imports.  At 92 nodes, the paper's size,
those dominate.
Before each run the checkout's ``__pycache__`` directories are deleted,
so no side imports bytecode an earlier run left.

The change, and the parent when given, run at every node count in
``NODES``.  Repetitions alternate which side runs first.  The file
records the commit of each side (a side that is not the root of a git
checkout stops the script before any run), every run, and per command
the median wall time, the largest peak, and the SHA-256 of the instance
each side built.  Only the standard library is used; it shares its host
and commit records with ``bench_pairs.py`` beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _clear_bytecode, _commit, _host

NODES = (92, 1000, 3000, 10000)
REPEATS = 3
SEED = 7
REQUESTS = (
    ("validate", "{instance}"),
    ("solve-static", "{instance}", "-k", "30"),
    ("solve-static", "{instance}", "-k", "30", "--route", "both"),
    ("solve-mobile", "{instance}", "-n", "2", "-k", "10", "-g", "1"),
    ("solve-mobile", "{instance}", "-n", "3", "-k", "10", "-g", "1", "--route", "both"),
    ("sweep", "{instance}", "--k-range", "1:30"),
)

# Runs one command as its only child and prints its wall time, exit code,
# peak resident set (RUSAGE_CHILDREN, KiB on Linux) and stderr tail.
WRAPPER = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
wall_s = time.perf_counter() - start
print(json.dumps({"exit": done.returncode, "wall_s": wall_s, "stderr": done.stderr[-2000:],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""


def _run(checkout: Path, argv: list[str]) -> dict:
    """One run of ``poishare ARGV`` from ``checkout``: wall time and peak RSS."""
    _clear_bytecode(checkout)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(checkout / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", WRAPPER, sys.executable, "-m", "poishare.cli",
                           *argv], cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"the wrapper failed in {checkout}:\n{done.stderr.strip()[-2000:]}")
    run = json.loads(done.stdout.strip().splitlines()[-1])
    if run["exit"] != 0:
        sys.exit(f"poishare {' '.join(argv)} exited {run['exit']} in {checkout}:\n{run['stderr']}")
    return {"wall_s": run["wall_s"], "peak_rss_mb": run["peak_rss_mb"]}


def _summary(runs: list[dict]) -> dict:
    return {"runs": runs,
            "median_wall_s": statistics.median(r["wall_s"] for r in runs),
            "max_peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}


def _measure(nodes: int, sides: dict[str, Path], work: Path) -> dict:
    """Every command at one node count, ``REPEATS`` times per side."""
    paths = {side: work / f"{side}-{nodes}.json" for side in sides}
    commands = [("gen", ["gen", "--mode", "gowalla-like", "--nodes", str(nodes),
                         "--seed", str(SEED), "--out", "{instance}"])]
    commands += [(" ".join(a for a in request if a != "{instance}"), list(request))
                 for request in REQUESTS]
    result: dict = {}
    for name, argv in commands:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for repeat in range(REPEATS):
            order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
            for side in order:
                print(f"bench_scale: {nodes} nodes, {name}, {side} run {repeat + 1}",
                      file=sys.stderr, flush=True)
                resolved = [str(paths[side]) if a == "{instance}" else a for a in argv]
                runs[side].append(_run(sides[side], resolved))
        result[name] = {side: _summary(side_runs) for side, side_runs in runs.items()}
    result["sha256"] = {side: hashlib.sha256(path.read_bytes()).hexdigest()
                        for side, path in paths.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/bench_scale.py")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--parent", type=Path, default=None, help="checkout of the parent")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)

    checkouts = {"change": args.change.resolve()}
    if args.parent is not None:
        checkouts["parent"] = args.parent.resolve()
    report = {"parent": _commit(checkouts["parent"]) if "parent" in checkouts else None,
              "change": _commit(checkouts["change"]), "host": _host(), "repeats": REPEATS,
              "seed": SEED, "nodes": {}}
    with tempfile.TemporaryDirectory(prefix="bench_scale_") as work:
        for nodes in NODES:
            report["nodes"][str(nodes)] = _measure(nodes, checkouts, Path(work))
            args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
