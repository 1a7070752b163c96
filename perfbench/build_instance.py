"""Set-up child: build one workload instance the way a user would.

    python3 -m perfbench.build_instance {paper|city} SEED OUT_DIR [--trace]

Run from the checkout root.  For ``city`` it first writes the seeded
check-in file (not timed).  It then starts the clock, imports
``poishare``, runs ``gen`` or ``ingest`` through ``poishare.cli.main``,
and loads the written instance back, which is what every later request
pays for too.  The last line of stdout is a JSON object with
``setup_s`` (at the host's reference speed, see ``perfbench.hostspeed``;
a traced set-up reports it raw), ``setup_raw_s``, the instance path,
size and SHA-256 and, with ``--trace``, the span table of the set-up.
It runs in its own process so that the import is paid afresh and the
set-up's memory peak stays out of the requests'.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from perfbench import workloads
from perfbench.hostspeed import Sampler
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.build_instance")
    parser.add_argument("instance", choices=("paper", "city"))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    instance_path = out_dir / f"{args.instance}-{args.seed}.json"
    checkin_path = out_dir / f"checkins-{args.seed}.tsv"
    if args.instance == "city":
        with open(checkin_path, "w", encoding="utf-8") as fh:
            fh.writelines(workloads.checkin_lines(args.seed))

    # A traced set-up is not timed, so its spans stay free of the probes.
    speed = contextlib.nullcontext() if args.trace else Sampler()
    with speed:
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import poishare
        from poishare import cli

        tracer = Tracer(poishare.InfeasibleError) if args.trace else None
        command = workloads.setup_argv(args.instance, args.seed, str(instance_path), str(checkin_path))
        err = io.StringIO()
        with tracer or contextlib.nullcontext():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(command)
            if code != 0:
                print(f"set-up command {command} exited {code}: {err.getvalue()}", file=sys.stderr)
                return 1
            poishare.io.load_instance(instance_path)
        setup_raw_s = time.perf_counter() - start

    print(json.dumps({
        "setup_s": setup_raw_s if args.trace else speed.corrected(setup_raw_s, start, start + setup_raw_s),
        "setup_raw_s": setup_raw_s,
        "instance": str(instance_path),
        "instance_bytes": instance_path.stat().st_size,
        "sha256": hashlib.sha256(instance_path.read_bytes()).hexdigest(),
        "spans": tracer.table() if tracer else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
