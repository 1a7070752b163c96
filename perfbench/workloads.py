"""The benchmark's workloads: the instances, their seeds and the requests.

Each workload is the list of command lines a user would type, run against
one instance.  Two instances exist:

- ``paper``: ``poishare gen --mode gowalla-like`` with 92 locations, all of
  them users, in the paper's San Francisco box (seed 7, the instance of
  acceptance criteria 9 and 11);
- ``city``: ``poishare ingest`` of seeded synthetic check-ins around
  hotspots in the same box, clustered to 2,000 locations.

This module imports nothing but the standard library, so the set-up child
can write its inputs before it starts the clock on ``import poishare``.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from datetime import datetime, timedelta

#: Stands for the instance path in a request's command line.
INSTANCE = "{instance}"

PAPER_SEED = 7
CHECKIN_SEED = 2023
#: Instance seed kept out of tuning, for confirming a later claim on an
#: instance the change was not written against.
HELD_OUT_SEED = 101

PAPER_NODES = 92
#: lat_min, lat_max, lon_min, lon_max: the box ``gen --mode gowalla-like`` draws from.
SF_BOX = (37.7724, 37.7833, -122.4417, -122.4258)
CHECKINS = 6000
HOTSPOTS = 40
HOTSPOT_SHARE = 0.7
OUTSIDE_SHARE = 0.01
CHECKIN_USERS = 1500
CITY_LOCATIONS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    instance: str
    requests: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-static",
            "paper",
            (
                ("sweep", INSTANCE, "--k-range", "1:30"),
                ("solve-static", INSTANCE, "-k", "30", "--route", "both", "--format", "json"),
            ),
        ),
        Workload(
            "paper-mobile",
            "paper",
            (
                ("solve-mobile", INSTANCE, "-n", "2", "-k", "10", "-g", "1", "--format", "json"),
                ("solve-mobile", INSTANCE, "-n", "3", "-k", "10", "-g", "10", "--route", "both",
                 "--format", "json"),
                ("solve-mobile", INSTANCE, "-n", "3", "-k", "10", "--adjusted", "--format", "json"),
                ("solve-mobile", INSTANCE, "-n", "4", "-k", "10", "-g", "1", "--format", "json"),
            ),
        ),
        Workload(
            "city",
            "city",
            (
                ("sweep", INSTANCE, "--k-range", "1:30", "--algorithms", "gus,set-cover-baseline"),
                ("solve-static", INSTANCE, "-k", "30", "--route", "both", "--format", "json"),
            ),
        ),
    )
}

#: Warm-up request, run once before timing: it loads and validates the instance.
WARM_UP = ("validate", INSTANCE)


def default_seed(instance: str) -> int:
    return PAPER_SEED if instance == "paper" else CHECKIN_SEED


def expected_locations(instance: str) -> int:
    return PAPER_NODES if instance == "paper" else CITY_LOCATIONS


def setup_argv(instance: str, seed: int, instance_path: str, checkin_path: str) -> list[str]:
    """The command that builds the instance file."""
    if instance == "paper":
        return ["gen", "--mode", "gowalla-like", "--nodes", str(PAPER_NODES),
                "--seed", str(seed), "--out", instance_path]
    return ["ingest", checkin_path, "--bbox", ":".join(str(x) for x in SF_BOX),
            "--clusters", str(CITY_LOCATIONS), "--seed", str(seed), "--out", instance_path]


def checkin_lines(seed: int, count: int = CHECKINS):
    """Tab-separated check-ins: user, ISO time, latitude, longitude, location.

    A share gathers around hotspots, the rest is uniform over the box, and
    a few fall outside it for the bounding-box filter to drop.
    """
    rng = random.Random(seed)
    lat_min, lat_max, lon_min, lon_max = SF_BOX
    spots = [(rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max)) for _ in range(HOTSPOTS)]
    start = datetime(2010, 1, 1)
    for i in range(count):
        draw = rng.random()
        if draw < OUTSIDE_SHARE:
            lat, lon = lat_max + rng.uniform(0.001, 0.01), rng.uniform(lon_min, lon_max)
        elif draw < OUTSIDE_SHARE + HOTSPOT_SHARE:
            lat0, lon0 = spots[rng.randrange(HOTSPOTS)]
            lat, lon = rng.gauss(lat0, 0.0006), rng.gauss(lon0, 0.0008)
        else:
            lat, lon = rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max)
        when = start + timedelta(minutes=rng.randrange(60 * 24 * 365))
        yield (f"u{rng.randrange(CHECKIN_USERS)}\t{when:%Y-%m-%dT%H:%M:%SZ}\t"
               f"{lat:.6f}\t{lon:.6f}\tl{i}\n")


def parse_request(argv) -> argparse.Namespace:
    """The options of a request that its checks need."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("command")
    parser.add_argument("instance")
    parser.add_argument("-k", type=int)
    parser.add_argument("-n", type=int)
    parser.add_argument("-g", type=int, default=1)
    parser.add_argument("--adjusted", action="store_true")
    parser.add_argument("--k-range")
    parser.add_argument("--algorithms", default="gus,set-cover-baseline,no-broadcast,bound")
    parser.add_argument("--route", default="set")
    parser.add_argument("--format", default="csv")
    return parser.parse_args(list(argv))
