"""Command-line surface and experiment harness.

Commands: solve-static, solve-mobile, sweep, gen, ingest, validate.
Exit codes: 0 success, 1 input error, 2 infeasible, 3 crosscheck failure.

Machine output goes to stdout (CSV rows with a fixed schema, or JSON);
human-oriented summaries go to stderr so CSV output stays clean.  All
output except the wall_time_ms column is byte-deterministic for fixed
inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from . import io as instance_io
from .errors import CrosscheckError, InfeasibleError, InputError, PoiShareError
from .model import Instance, Selection, validate
from .pipeline import BoundingBox, GenSpec, ingest_instance, parse_checkins, synth_instance
from .static_solver import (
    greedy_max_coverage,
    gus,
    phi_empty,
    static_bound,
    ub1,
)
from .mobile_solver import adjusted_gps, gps, mobile_bound, ub2
from .welfare import ROUTES, CoverageState, phi_walks

CSV_HEADER = "k,algorithm,welfare,upper_bound,ratio,bound,wall_time_ms,seed"

STATIC_ALGORITHMS = ("gus", "set-cover-baseline", "no-broadcast", "bound")
MOBILE_ALGORITHMS = ("gps", "adjusted-gps")


@dataclass(frozen=True)
class ReportRow:
    k: int
    algorithm: str
    welfare: float
    upper_bound: float
    ratio: float
    bound: float
    wall_time_ms: float
    seed: int


@dataclass
class EvalReport:
    rows: list[ReportRow]

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=lambda r: (r.k, r.algorithm, r.seed))

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.sorted_rows():
            lines.append(
                f"{r.k},{r.algorithm},{r.welfare!r},{r.upper_bound!r},"
                f"{r.ratio!r},{r.bound!r},{r.wall_time_ms:.3f},{r.seed}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.sorted_rows()], indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout without one."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_k_range(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:
            raise InputError(f"bad k range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


# ---------------------------------------------------------------------------
# Sweep machinery
# ---------------------------------------------------------------------------


def _static_prefix_welfares(instance: Instance, picks, k_max: int) -> list[float]:
    """Average welfare after broadcasting each prefix of ``picks``."""
    state = CoverageState(instance)
    out = []
    for user in picks[:k_max]:
        state.add_nodes((user,))
        out.append(state.average())
    return out


def run_sweep(
    instance: Instance,
    ks: list[int],
    algorithms,
    seed: int,
    n: int = 2,
    g: int = 1,
    cap: int = 500_000,
) -> EvalReport:
    """One report row per (k, algorithm).

    Static algorithms exploit the greedy prefix property: one run at
    max(ks) yields every smaller budget's solution.  ``seed`` does not
    affect the deterministic solvers; it is recorded in every row for
    provenance.  Upper bounds are computed once per k,
    on one base welfare, before any algorithm's timer starts, so
    ``wall_time_ms`` is the algorithm's own time.
    """
    m = instance.user_count
    k_max = max(ks)
    rows: list[ReportRow] = []

    for algorithm in algorithms:
        if algorithm not in STATIC_ALGORITHMS + MOBILE_ALGORITHMS:
            raise InputError(f"unknown sweep algorithm {algorithm!r}")
        if algorithm in ("gus", "set-cover-baseline") and k_max > m:
            raise InputError(f"k range reaches {k_max} but instance has {m} users")
    base_welfare = phi_empty(instance).average
    static_upper = {}
    if {"gus", "set-cover-baseline", "no-broadcast"} & set(algorithms):
        static_upper = {k: ub1(instance, k, cap=cap, base=base_welfare) for k in ks}
    mobile_upper = {}
    if {"gps", "adjusted-gps"} & set(algorithms):
        mobile_upper = {k: ub2(instance, n, k, cap=cap, base=base_welfare) for k in ks}

    for algorithm in algorithms:
        t0 = time.monotonic()
        per_k: dict[int, tuple[float, float, float]] = {}  # k -> welfare, ub, bound
        if algorithm == "gus":
            result = gus(instance, k_max)
            welfares = _static_prefix_welfares(
                instance, [u for u, _ in result.trace], k_max
            )
            for k in ks:
                per_k[k] = (welfares[k - 1], static_upper[k], static_bound(k, m))
        elif algorithm == "set-cover-baseline":
            picks, _ = greedy_max_coverage(instance, k_max)
            welfares = _static_prefix_welfares(instance, list(picks), k_max)
            for k in ks:
                per_k[k] = (welfares[k - 1], static_upper[k], static_bound(k, m))
        elif algorithm == "no-broadcast":
            for k in ks:
                per_k[k] = (base_welfare, static_upper[k], static_bound(k, m))
        elif algorithm == "bound":
            for k in ks:
                b = static_bound(k, m)
                per_k[k] = (b, 1.0, b)
        elif algorithm == "gps":
            for k in ks:
                result = gps(instance, n, k, g=min(g, k))
                per_k[k] = (
                    result.welfare.average,
                    mobile_upper[k],
                    mobile_bound(k, instance.node_count, min(g, k)),
                )
        else:  # adjusted-gps
            for k in ks:
                result = adjusted_gps(instance, n, k)
                per_k[k] = (
                    result.welfare.average,
                    mobile_upper[k],
                    mobile_bound(k, instance.node_count, k),
                )
        elapsed_ms = (time.monotonic() - t0) * 1000.0 / len(ks)
        for k in ks:
            welfare, upper, bound = per_k[k]
            ratio = welfare / upper if upper > 0 else 0.0
            rows.append(ReportRow(k, algorithm, welfare, upper, ratio, bound, elapsed_ms, seed))
    return EvalReport(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_solve_static(args) -> int:
    instance = instance_io.load_instance(args.instance)
    t0 = time.monotonic()
    result = gus(instance, args.k, route=args.route)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    upper = ub1(instance, args.k, cap=args.cap)
    bound = static_bound(args.k, instance.user_count)
    welfare = result.welfare.average
    row = ReportRow(
        args.k, "gus", welfare, upper, welfare / upper, bound, elapsed_ms, args.seed
    )
    print(f"selection: {' '.join(str(u) for u in result.selection.users)}", file=sys.stderr)
    print(f"welfare: {welfare!r}  ratio: {row.ratio!r}  bound: {bound!r}", file=sys.stderr)
    if args.format == "json":
        payload = asdict(row)
        payload["selection"] = list(result.selection.users)
        payload["per_user"] = list(result.welfare.per_user)
        payload["trace"] = [[u, g] for u, g in result.trace]
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        _emit(EvalReport([row]).to_csv(), None)
    return 0


def _cmd_solve_mobile(args) -> int:
    instance = instance_io.load_instance(args.instance)
    t0 = time.monotonic()
    if args.adjusted:
        result = adjusted_gps(instance, args.n, args.k)
        algorithm = "adjusted-gps"
        bound = mobile_bound(args.k, instance.node_count, args.k)
    else:
        result = gps(instance, args.n, args.k, args.g)
        algorithm = "gps"
        bound = mobile_bound(args.k, instance.node_count, args.g)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    if args.route in ("matrix", "both"):
        # re-evaluate through the requested route; 'both' raises on mismatch
        result_welfare = phi_walks(instance, result.walks, route=args.route)
    else:
        result_welfare = result.welfare
    upper = ub2(instance, args.n, args.k, cap=args.cap)
    welfare = result_welfare.average
    row = ReportRow(
        args.k, algorithm, welfare, upper, welfare / upper, bound, elapsed_ms, args.seed
    )
    for walk in result.walks.walks:
        print(f"walk: {' '.join(str(v) for v in walk.nodes)}", file=sys.stderr)
    print(f"welfare: {welfare!r}  ratio: {row.ratio!r}  bound: {bound!r}", file=sys.stderr)
    if args.format == "json":
        payload = asdict(row)
        payload["walks"] = [list(w.nodes) for w in result.walks.walks]
        payload["per_user"] = list(result_welfare.per_user)
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        _emit(EvalReport([row]).to_csv(), None)
    return 0


def _cmd_sweep(args) -> int:
    instance = instance_io.load_instance(args.instance)
    ks = _parse_k_range(args.k_range)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    report = run_sweep(instance, ks, algorithms, args.seed, n=args.n, g=args.g, cap=args.cap)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(
        mode=args.mode,
        node_count=args.nodes,
        user_count=args.users,
        edge_prob=args.edge_prob,
        degree_mean=args.social_mean,
        degree_sigma=args.social_sigma,
        knn=args.knn,
        seed=args.seed,
        hops=args.hops,
        reduction_kind=args.kind,
    )
    instance = synth_instance(spec)
    _emit(instance_io.dumps_instance(instance), args.out)
    return 0


def _parse_bbox(text: str) -> BoundingBox:
    parts = text.split(":")
    if len(parts) != 4:
        raise InputError(f"bbox must be lat_min:lat_max:lon_min:lon_max, got {text!r}")
    lat_min, lat_max, lon_min, lon_max = (float(p) for p in parts)
    return BoundingBox(lat_min, lat_max, lon_min, lon_max)


def _cmd_ingest(args) -> int:
    if args.checkins == "-":
        lines = sys.stdin
    else:
        try:
            lines = open(args.checkins, "r", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read check-in file: {exc}") from exc
    errors: list = []
    with lines if lines is not sys.stdin else nullcontext(lines) as fh:
        records = parse_checkins(fh, errors=errors)
    for lineno, reason in errors:
        print(f"line {lineno}: {reason}", file=sys.stderr)
    bbox = _parse_bbox(args.bbox) if args.bbox else None
    instance = ingest_instance(
        records,
        bbox,
        cluster_target=args.clusters,
        knn=args.knn,
        degree_mean=args.social_mean,
        degree_sigma=args.social_sigma,
        seed=args.seed,
    )
    _emit(instance_io.dumps_instance(instance), args.out)
    return 0


def _cmd_validate(args) -> int:
    instance = instance_io.load_instance(args.instance, check=False)
    violations = validate(instance)
    if violations:
        for v in violations:
            print(v)
        raise InputError(f"{len(violations)} violation(s)")
    print("valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poishare",
        description="Solvers and benchmarks for social-enhanced PoI sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_options(p):
        p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--cap",
            type=int,
            default=500_000,
            help="search-node limit of the exact max-coverage search behind ub1/ub2; "
            "past it the bound reported is a relaxed but still valid one",
        )

    p = sub.add_parser("solve-static", help="greedy user selection")
    p.add_argument("instance")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--route", choices=ROUTES, default="set")
    add_report_options(p)
    p.set_defaults(func=_cmd_solve_static)

    p = sub.add_parser("solve-mobile", help="greedy path selection")
    p.add_argument("instance")
    p.add_argument("-n", type=int, required=True, help="walk length in edges")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-g", type=int, default=1, help="augmentation factor")
    p.add_argument("--adjusted", action="store_true", help="distinct-start post-processing")
    p.add_argument("--route", choices=ROUTES, default="set")
    add_report_options(p)
    p.set_defaults(func=_cmd_solve_mobile)

    p = sub.add_parser("sweep", help="budget sweep to CSV/JSON")
    p.add_argument("instance")
    p.add_argument("--k-range", required=True, help="K or LO:HI")
    p.add_argument(
        "--algorithms",
        default="gus,set-cover-baseline,no-broadcast,bound",
        help="comma-separated subset of "
        + ",".join(STATIC_ALGORITHMS + MOBILE_ALGORITHMS),
    )
    p.add_argument("-n", type=int, default=2, help="walk length for mobile algorithms")
    p.add_argument("-g", type=int, default=1, help="augmentation for gps")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    add_report_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--mode", required=True, choices=("synthetic-random", "gowalla-like", "reduction"))
    p.add_argument("--nodes", type=int, default=92)
    p.add_argument("--users", type=int, default=None)
    p.add_argument("--edge-prob", type=float, default=0.15)
    p.add_argument("--social-mean", type=float, default=24.0)
    p.add_argument("--social-sigma", type=float, default=8.0)
    p.add_argument("--knn", type=int, default=4)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--kind", choices=("vcp", "mobile"), default="vcp")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ingest", help="build an instance from check-in TSV")
    p.add_argument("checkins", help="TSV path or - for stdin")
    p.add_argument("--bbox", default=None, help="lat_min:lat_max:lon_min:lon_max")
    p.add_argument("--clusters", type=int, default=92)
    p.add_argument("--knn", type=int, default=4)
    p.add_argument("--social-mean", type=float, default=24.0)
    p.add_argument("--social-sigma", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except CrosscheckError as exc:
        print(f"crosscheck failure: {exc}", file=sys.stderr)
        return 3
    except PoiShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
