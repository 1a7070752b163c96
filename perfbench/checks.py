"""Checks of the program's outputs against the independent oracle and
against properties every correct answer has.

Each ``check_*`` function raises ``CheckFailure`` at the first violation
and otherwise returns the (welfare, upper bound) pairs of the greedy
results it saw (``gus``, ``gps`` and ``adjusted-gps``), which feed the
``welfare`` and ``bound_ratio`` metrics.  Structural checks (shape of a
selection or walk, start-node caps) run before welfare is recomputed, so
a corrupted output is reported by the first property it breaks.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .oracle import Oracle
from .workloads import parse_request

SWEEP_HEADER = ["k", "algorithm", "welfare", "upper_bound", "ratio", "bound", "wall_time_ms", "seed"]
#: Sweep algorithms whose welfare column is a welfare (``bound`` rows hold the guarantee).
WELFARE_ALGORITHMS = ("gus", "set-cover-baseline", "no-broadcast")


class CheckFailure(Exception):
    """An output contradicts the oracle or a property of correct answers."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def static_guarantee(k: int, m: int) -> float:
    """The abstract's greedy guarantee 1 - ((m-2)/m)((k-1)/k)^k."""
    return 1.0 - (m - 2) / m * ((k - 1) / k) ** k


def mobile_guarantee(k: int, nodes: int, g: int) -> float:
    """The augmented guarantee: a g/k share of the full-augmentation one."""
    return g / k * static_guarantee(k, nodes)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _check_bound_and_ratio(welfare: float, upper: float, ratio: float, what: str) -> None:
    require(welfare <= upper, f"{what}: welfare {welfare!r} exceeds its upper bound {upper!r}")
    require(ratio == welfare / upper, f"{what}: ratio {ratio!r} is not welfare/upper_bound")


def _check_per_user(oracle: Oracle, nodes, per_user, welfare: float, what: str) -> None:
    expected = oracle.per_user(nodes)
    require(len(per_user) == oracle.user_count, f"{what}: per_user has {len(per_user)} entries")
    require(all(float(a) == float(b) for a, b in zip(per_user, expected)),
            f"{what}: per-user welfare differs from the oracle")
    total = int(expected.sum())
    require(welfare == total / oracle.user_count,
            f"{what}: welfare {welfare!r} but the oracle gives {total / oracle.user_count!r}")


class ReferenceGreedy:
    """Greedy user selection recomputed from the definitions: each round
    adds the user whose broadcast newly reaches the most (user, road)
    pairs, ties to the lowest index."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.picks: list[int] = []
        self.gains: list[int] = []

    def prefix(self, k: int) -> list[int]:
        while len(self.picks) < k:
            gains = self.oracle.marginal_totals(self.picks)
            gains[self.picks] = -1
            best = int(gains.argmax())
            self.picks.append(best)
            self.gains.append(int(gains[best]))
        return self.picks[:k]


def check_solve_static(oracle: Oracle, greedy: ReferenceGreedy, request, payload: dict):
    m = oracle.user_count
    k = request.k
    what = f"solve-static -k {k}"
    require(payload["k"] == k and payload["algorithm"] == "gus", f"{what}: wrong k or algorithm")
    selection = [int(u) for u in payload["selection"]]
    require(len(selection) == k, f"{what}: {len(selection)} users selected")
    require(len(set(selection)) == k and all(0 <= u < m for u in selection),
            f"{what}: selection has duplicates or non-users")
    trace = payload["trace"]
    require([int(u) for u, _ in trace] == selection, f"{what}: trace and selection differ")
    gains = [float(g) for _, g in trace]
    require(all(b <= a for a, b in zip(gains, gains[1:])),
            f"{what}: greedy gains increase, which submodularity forbids")
    _check_per_user(oracle, selection, payload["per_user"], payload["welfare"], what)
    reference = greedy.prefix(k)
    require(selection == reference,
            f"{what}: selection {selection} is not the greedy selection {reference}")
    require(gains == [g / m for g in greedy.gains[:k]], f"{what}: traced gains differ from the oracle's")
    _check_bound_and_ratio(payload["welfare"], payload["upper_bound"], payload["ratio"], what)
    require(_close(payload["bound"], static_guarantee(k, m)), f"{what}: bound is not the closed form")
    return [(payload["welfare"], payload["upper_bound"])]


def check_solve_mobile(oracle: Oracle, request, payload: dict):
    n, k = request.n, request.k
    cap = 1 if request.adjusted else request.g
    what = f"solve-mobile -n {n} -k {k} " + ("--adjusted" if request.adjusted else f"-g {request.g}")
    algorithm = "adjusted-gps" if request.adjusted else "gps"
    require(payload["k"] == k and payload["algorithm"] == algorithm, f"{what}: wrong k or algorithm")
    walks = [[int(v) for v in walk] for walk in payload["walks"]]
    require(len(walks) == k, f"{what}: {len(walks)} walks returned")
    starts: dict[int, int] = {}
    for walk in walks:
        require(len(walk) == n + 1, f"{what}: walk {walk} does not have {n} edges")
        require(0 <= walk[0] < oracle.user_count, f"{what}: walk {walk} starts at a non-user")
        for a, b in zip(walk, walk[1:]):
            require((a, b) in oracle.roads, f"{what}: walk {walk} steps off the roads at ({a},{b})")
        starts[walk[0]] = starts.get(walk[0], 0) + 1
    overused = {s: c for s, c in starts.items() if c > cap}
    require(not overused, f"{what}: start nodes used more than {cap} times: {overused}")
    visited = {v for walk in walks for v in walk}
    _check_per_user(oracle, visited, payload["per_user"], payload["welfare"], what)
    _check_bound_and_ratio(payload["welfare"], payload["upper_bound"], payload["ratio"], what)
    g = k if request.adjusted else request.g
    require(_close(payload["bound"], mobile_guarantee(k, oracle.node_count, g)),
            f"{what}: bound is not the closed form")
    return [(payload["welfare"], payload["upper_bound"])]


def check_adjusted_vs_full(adjusted: dict, full: dict) -> None:
    """``adjusted-gps`` keeps the visited nodes of gps at g = k, so its
    welfare is at least that run's on the same (n, k)."""
    require(adjusted["welfare"] >= full["welfare"],
            f"adjusted-gps welfare {adjusted['welfare']!r} is below gps at g=k "
            f"({full['welfare']!r})")


def parse_sweep(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    require(header == SWEEP_HEADER, f"sweep: unexpected header {header}")
    rows = []
    for cols in reader:
        require(len(cols) == len(SWEEP_HEADER), f"sweep: malformed row {cols}")
        rows.append({
            "k": int(cols[0]), "algorithm": cols[1], "welfare": float(cols[2]),
            "upper_bound": float(cols[3]), "ratio": float(cols[4]), "bound": float(cols[5]),
        })
    return rows


def check_sweep(oracle: Oracle, greedy: ReferenceGreedy, request, text: str):
    m = oracle.user_count
    lo, _, hi = request.k_range.partition(":")
    ks = list(range(int(lo), int(hi or lo) + 1))
    algorithms = [a for a in request.algorithms.split(",") if a]
    rows = parse_sweep(text)
    by_key = {(r["k"], r["algorithm"]): r for r in rows}
    require(len(rows) == len(by_key) == len(ks) * len(algorithms)
            and set(by_key) == {(k, a) for k in ks for a in algorithms},
            f"sweep: expected one row per (k, algorithm), got {len(rows)} rows")

    expected = {}
    if "gus" in algorithms:
        picks = greedy.prefix(max(ks))
        expected["gus"] = {k: oracle.average(picks[:k]) for k in ks}
        if 1 in ks:
            best = int(oracle.single_user_totals().max())
            require(by_key[(1, "gus")]["welfare"] == best / m,
                    f"sweep: gus at k=1 reads {by_key[(1, 'gus')]['welfare']!r}, "
                    f"the best single user gives {best / m!r}")
    if "set-cover-baseline" in algorithms:
        picks = oracle.greedy_coverage(max(ks))
        expected["set-cover-baseline"] = {k: oracle.average(picks[:k]) for k in ks}
    if "no-broadcast" in algorithms:
        expected["no-broadcast"] = {k: oracle.base_total / m for k in ks}

    results = []
    for algorithm in algorithms:
        series = [by_key[(k, algorithm)] for k in ks]
        for k, row in zip(ks, series):
            what = f"sweep {algorithm} k={k}"
            guarantee = static_guarantee(k, m)
            if algorithm == "bound":
                require(_close(row["welfare"], guarantee) and row["bound"] == row["welfare"]
                        and row["upper_bound"] == 1.0, f"{what}: not the closed-form guarantee")
                continue
            require(row["welfare"] == expected[algorithm][k],
                    f"{what}: welfare {row['welfare']!r} but the oracle gives "
                    f"{expected[algorithm][k]!r}")
            require(_close(row["bound"], guarantee), f"{what}: bound is not the closed form")
            _check_bound_and_ratio(row["welfare"], row["upper_bound"], row["ratio"], what)
            if algorithm == "gus":
                results.append((row["welfare"], row["upper_bound"]))
        if algorithm in WELFARE_ALGORITHMS:
            welfares = [row["welfare"] for row in series]
            require(all(b >= a for a, b in zip(welfares, welfares[1:])),
                    f"sweep {algorithm}: welfare decreases as k grows")
    for k in ks:
        uppers = {by_key[(k, a)]["upper_bound"] for a in algorithms if a != "bound"}
        require(len(uppers) <= 1, f"sweep k={k}: algorithms report different upper bounds {uppers}")
    return results


def check_instance(oracle: Oracle, locations: int) -> None:
    require(oracle.node_count == locations,
            f"instance has {oracle.node_count} locations, expected {locations}")
    require(oracle.user_count == oracle.node_count, "instance has locations without a user")
    components = oracle.components()
    require(components == 1, f"roads form {components} components, expected one")


def check_round(oracle: Oracle, greedy: ReferenceGreedy, outputs):
    """Check one round of ``(argv, exit code, stdout)`` triples.

    Returns ``(failed, wrong, results, messages)``: requests that exited
    non-zero or failed a check, those that failed a check, the greedy
    results of the requests that passed, and one message per failure.
    A failed cross-request check is charged to the ``--adjusted`` request.
    """
    failed = wrong = 0
    results, messages = [], []
    mobile = {}
    for argv, code, out in outputs:
        request = parse_request(argv)
        if code != 0:
            failed += 1
            messages.append(f"{' '.join(argv)} exited {code}")
            continue
        try:
            if request.command == "sweep":
                results += check_sweep(oracle, greedy, request, out)
            elif request.command == "solve-static":
                results += check_solve_static(oracle, greedy, request, json.loads(out))
            else:
                payload = json.loads(out)
                results += check_solve_mobile(oracle, request, payload)
                mobile[(request.n, request.k, request.adjusted, request.g)] = (argv, payload)
        except (CheckFailure, ValueError, KeyError, TypeError) as exc:
            failed += 1
            wrong += 1
            messages.append(f"{' '.join(argv)}: check failed: {exc}")
    for (n, k, adjusted, _), (argv, payload) in mobile.items():
        full = mobile.get((n, k, False, k))
        if adjusted and full is not None:
            try:
                check_adjusted_vs_full(payload, full[1])
            except CheckFailure as exc:
                failed += 1
                wrong += 1
                messages.append(f"{' '.join(argv)}: check failed: {exc}")
    return failed, wrong, results, messages
