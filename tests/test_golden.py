"""Frozen CLI outputs on a seeded 40-location instance.

Each file in ``tests/golden/`` is the stdout of one request with the
``wall_time_ms`` values removed; a rewrite of the solvers must reproduce
them byte for byte.  ``--cap 20000`` stops ``ub1`` at the larger budgets
and both ``ub2`` searches, so the relaxed bounds are pinned as well as
the exact ones.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from poishare.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

INSTANCE_ARGV = ("gen", "--mode", "gowalla-like", "--nodes", "40", "--seed", "7")

REQUESTS = {
    "sweep.csv": ("sweep", "--k-range", "1:12"),
    "solve_static.json": ("solve-static", "-k", "12", "--route", "both", "--format", "json"),
    "solve_mobile_n2_g1.json": ("solve-mobile", "-n", "2", "-k", "6", "-g", "1", "--format", "json"),
    "solve_mobile_n3_g6.json": ("solve-mobile", "-n", "3", "-k", "6", "-g", "6", "--route", "both",
                                "--format", "json"),
    "solve_mobile_n2_adjusted.json": ("solve-mobile", "-n", "2", "-k", "6", "--adjusted",
                                      "--format", "json"),
}

_JSON_WALL_TIME = re.compile(r'^\s*"wall_time_ms": [^,\n]*,?\n', re.MULTILINE)


def strip_wall_time(text: str) -> str:
    """Drop the ``wall_time_ms`` CSV column or JSON key."""
    if text.lstrip().startswith(("{", "[")):
        return _JSON_WALL_TIME.sub("", text)
    lines = []
    for line in text.splitlines(keepends=True):
        cols = line.split(",")
        del cols[6]
        lines.append(",".join(cols))
    return "".join(lines)


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def outputs(instance_path: Path) -> dict[str, str]:
    instance_path.write_text(_run(INSTANCE_ARGV), encoding="utf-8")
    return {
        name: strip_wall_time(_run((argv[0], str(instance_path)) + argv[1:] + ("--cap", "20000")))
        for name, argv in REQUESTS.items()
    }


@pytest.fixture(scope="module")
def current(tmp_path_factory) -> dict[str, str]:
    return outputs(tmp_path_factory.mktemp("golden") / "instance.json")


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_output_matches_golden(current, name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert current[name] == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.mkdir(exist_ok=True)
        for name, text in outputs(Path(tmp) / "instance.json").items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
