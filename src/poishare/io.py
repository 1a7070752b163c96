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


def instance_from_payload(payload: dict) -> Instance:
    try:
        node_count = int(payload["node_count"])
        user_count = int(payload["user_count"])
        sensing_edges = tuple((int(u), int(v)) for u, v in payload["sensing_edges"])
        social_edges = tuple((int(u), int(v)) for u, v in payload["social_edges"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    for name, count in (("node_count", node_count), ("user_count", user_count)):
        if not 0 <= count <= MAX_NODES:
            raise InputError(f"{name} {count} is outside [0, {MAX_NODES}]")
    weights = payload.get("edge_weights")
    prefs_raw = payload.get("preferences")
    sensing = SensingGraph(
        node_count=node_count,
        user_count=user_count,
        edges=sensing_edges,
        edge_weights=tuple(float(w) for w in weights) if weights is not None else None,
        allow_self_loops=any(u == v for u, v in sensing_edges),
    )
    social = SocialGraph(user_count=user_count, edges=social_edges)
    preferences = None
    if prefs_raw is not None:
        preferences = PreferenceProfile(
            per_user_edges=tuple(frozenset(int(e) for e in row) for row in prefs_raw)
        )
    return Instance(
        sensing=sensing,
        social=social,
        preferences=preferences,
        social_hop_radius=int(payload.get("social_hop_radius", 1)),
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
