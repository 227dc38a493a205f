"""MIS and MVC heuristics. Ties always break to the lower vertex id."""

from __future__ import annotations

from typing import List, Set

from ..problems.types import GraphInstance, Instance, ProblemKind, VertexSet


def _require(inst: Instance, *kinds: ProblemKind) -> GraphInstance:
    if inst.kind not in kinds:
        names = "/".join(k.value for k in kinds)
        raise ValueError(f"expected a {names} instance, got {inst.kind.value}")
    return inst.payload


def mis_greedy_min_degree(inst: Instance) -> VertexSet:
    """Adaptive greedy: repeatedly take the lowest-degree remaining vertex,
    then delete it and its neighbors."""
    p = _require(inst, ProblemKind.MIS)
    adj = [set(a) for a in p.adjacency()]
    alive: Set[int] = set(range(p.num_nodes))
    chosen: List[int] = []
    while alive:
        v = min(alive, key=lambda u: (len(adj[u] & alive), u))
        chosen.append(v)
        removed = (adj[v] & alive) | {v}
        alive -= removed
    return VertexSet.of(chosen)


def mis_degree_add(inst: Instance) -> VertexSet:
    """Static variant: scan vertices by their original degree (ascending) and
    add each one that stays independent. No degree updates."""
    p = _require(inst, ProblemKind.MIS)
    adj = p.adjacency()
    deg = [len(a) for a in adj]
    chosen: Set[int] = set()
    for v in sorted(range(p.num_nodes), key=lambda u: (deg[u], u)):
        if not any(w in chosen for w in adj[v]):
            chosen.add(v)
    return VertexSet.of(chosen)


def mvc_approx_matching(inst: Instance) -> VertexSet:
    """Maximal-matching 2-approximation: take both endpoints of each edge not
    yet covered, scanning edges in normalized order."""
    p = _require(inst, ProblemKind.MVC)
    cover: Set[int] = set()
    for u, v in p.edges:
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return VertexSet.of(cover)


def mvc_greedy_max_degree(inst: Instance) -> VertexSet:
    """Adaptive greedy: repeatedly add the vertex covering the most remaining
    edges until every edge is covered."""
    p = _require(inst, ProblemKind.MVC)
    cover: List[int] = []
    remaining = {e for e in p.edges}
    while remaining:
        counts: dict[int, int] = {}
        for u, v in remaining:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda u: (-counts[u], u))
        cover.append(v)
        remaining = {e for e in remaining if v not in e}
    return VertexSet.of(cover)


def mvc_degree_removal(inst: Instance) -> VertexSet:
    """Static variant: start from the full vertex set and scan by original
    degree (ascending), dropping each vertex whose removal leaves all its
    edges covered. The complement of this cover is exactly what
    mis_degree_add builds on the same graph."""
    p = _require(inst, ProblemKind.MVC)
    adj = p.adjacency()
    deg = [len(a) for a in adj]
    cover: Set[int] = set(range(p.num_nodes))
    for v in sorted(range(p.num_nodes), key=lambda u: (deg[u], u)):
        # dropping v is safe iff every incident edge keeps its other endpoint
        if all(w in cover for w in adj[v]):
            cover.discard(v)
    return VertexSet.of(cover)
