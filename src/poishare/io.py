"""Canonical on-disk instance format.

A single UTF-8 JSON document with fixed field names:

    {
      "node_count": int,
      "user_count": int,
      "sensing_edges": [[u, v], ...],
      "edge_weights": [w, ...],          # optional
      "social_edges": [[u, v], ...],
      "preferences": [[e, ...], ...],    # optional, one array per user
      "social_hop_radius": int
    }

Counts, edge ends, preference entries and the hop radius must be JSON
integers, and weights JSON numbers: ``2.7``, ``2.0``, ``1e9``, ``true`` and
``"2.5"`` are refused with InputError rather than truncated or converted.
Serialization is lossless and byte-deterministic for a given instance.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InputError
from .model import Instance, PreferenceProfile, SensingGraph, SocialGraph, validate

#: Largest ``node_count`` or ``user_count`` a document may declare, 100x the
#: largest instances the solvers are sized for.  Derived tables (incidence
#: lists, adjacency, per-node caches) are ``node_count`` long, so a few-byte
#: document declaring more is refused before any of them is built.
MAX_NODES = 1_000_000


def instance_to_payload(instance: Instance) -> dict:
    payload: dict = {
        "node_count": instance.sensing.node_count,
        "user_count": instance.sensing.user_count,
        "sensing_edges": [[u, v] for u, v in instance.sensing.edges],
    }
    if instance.sensing.edge_weights is not None:
        payload["edge_weights"] = list(instance.sensing.edge_weights)
    payload["social_edges"] = [[u, v] for u, v in instance.social.edges]
    if instance.preferences is not None:
        payload["preferences"] = [sorted(s) for s in instance.preferences.per_user_edges]
    payload["social_hop_radius"] = instance.social_hop_radius
    return payload


def _integer(value, what: str) -> int:
    if type(value) is not int:  # only integer literals load as int; bool is an int subclass
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _edges(rows, what: str) -> tuple[tuple[int, int], ...]:
    return tuple((_integer(u, what), _integer(v, what)) for u, v in rows)


def instance_from_payload(payload: dict) -> Instance:
    try:
        node_count = _integer(payload["node_count"], "node_count")
        user_count = _integer(payload["user_count"], "user_count")
        sensing_edges = _edges(payload["sensing_edges"], "a sensing edge end")
        social_edges = _edges(payload["social_edges"], "a social edge end")
        weights = payload.get("edge_weights")
        for w in weights or ():
            if type(w) not in (int, float):
                raise TypeError(f"an edge weight must be a number, got {w!r}")
        weights = None if weights is None else tuple(map(float, weights))
        prefs = payload.get("preferences")
        if prefs is not None:
            prefs = tuple(frozenset(_integer(e, "a preference entry") for e in row) for row in prefs)
        radius = _integer(payload.get("social_hop_radius", 1), "social_hop_radius")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    for name, count in (("node_count", node_count), ("user_count", user_count)):
        if not 0 <= count <= MAX_NODES:
            raise InputError(f"{name} {count} is outside [0, {MAX_NODES}]")
    sensing = SensingGraph(
        node_count=node_count,
        user_count=user_count,
        edges=sensing_edges,
        edge_weights=weights,
        allow_self_loops=any(u == v for u, v in sensing_edges),
    )
    return Instance(
        sensing=sensing,
        social=SocialGraph(user_count=user_count, edges=social_edges),
        preferences=None if prefs is None else PreferenceProfile(per_user_edges=prefs),
        social_hop_radius=radius,
    )


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_payload(instance), indent=2) + "\n"


def loads_instance(text: str, check: bool = True) -> Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"instance document is not valid JSON: {exc}") from exc
    instance = instance_from_payload(payload)
    if check:
        violations = validate(instance)
        if violations:
            raise InputError("invalid instance: " + "; ".join(violations))
    return instance


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def load_instance(path, check: bool = True) -> Instance:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read instance file {p}: {exc}") from exc
    return loads_instance(text, check=check)
