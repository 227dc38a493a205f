"""MIS and MVC heuristics. Ties always break to the lower vertex id."""

from __future__ import annotations

from typing import List, Set

from ..problems.types import GraphInstance, Instance, ProblemKind, VertexSet
from ._kinds import _require


def mis_greedy_min_degree(inst: Instance) -> VertexSet:
    """Adaptive greedy: repeatedly take the remaining vertex with the fewest
    remaining neighbours (ties to the lower id), then delete it and its
    neighbours.

    One degree table over the remaining vertices is updated as vertices
    leave, so a solve costs O(E + n * picks): each pick is one scan of the
    table, and each edge is visited twice over the whole run. A deleted
    vertex reads `n`, more than any degree."""
    p = _require(inst, ProblemKind.MIS)
    n = p.num_nodes
    adj = p.adjacency()
    deg = [len(a) for a in adj]
    chosen: List[int] = []
    while (low := min(deg)) < n:
        v = deg.index(low)
        chosen.append(v)
        gone = [w for w in adj[v] if deg[w] < n]
        gone.append(v)
        for u in gone:
            deg[u] = n
        for u in gone:
            for w in adj[u]:
                if deg[w] < n:
                    deg[w] -= 1
    return VertexSet.of(chosen)


def _degree_scan(p: GraphInstance) -> Set[int]:
    """Scan vertices by their original degree (ascending, then id) and keep
    each one with no kept neighbour. No degree updates."""
    adj = p.adjacency()
    deg = [len(a) for a in adj]
    chosen: Set[int] = set()
    for v in sorted(range(p.num_nodes), key=lambda u: (deg[u], u)):
        if not any(w in chosen for w in adj[v]):
            chosen.add(v)
    return chosen


def mis_degree_add(inst: Instance) -> VertexSet:
    """Static variant: scan vertices by their original degree (ascending) and
    add each one that stays independent. No degree updates."""
    return VertexSet.of(_degree_scan(_require(inst, ProblemKind.MIS)))


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
    """Adaptive greedy: repeatedly add the vertex covering the most uncovered
    edges (ties to the lower id) until every edge is covered.

    One table holds each vertex's count of uncovered edges and is updated as
    vertices join the cover, so a solve costs O(E + n * picks): each pick is
    one scan of the table. A vertex in the cover reads 0, and a neighbour w
    of a new pick still has the edge to it uncovered exactly when deg[w] > 0."""
    p = _require(inst, ProblemKind.MVC)
    adj = p.adjacency()
    deg = [len(a) for a in adj]
    cover: List[int] = []
    while (top := max(deg)) > 0:
        v = deg.index(top)
        cover.append(v)
        deg[v] = 0
        for w in adj[v]:
            if deg[w]:
                deg[w] -= 1
    return VertexSet.of(cover)


def mvc_degree_removal(inst: Instance) -> VertexSet:
    """Static variant: start from the full vertex set and scan by original
    degree (ascending), dropping each vertex whose removal leaves all its
    edges covered. The vertices dropped are exactly those mis_degree_add
    keeps on the same graph, so the cover is that set's complement."""
    p = _require(inst, ProblemKind.MVC)
    return VertexSet.of(set(range(p.num_nodes)) - _degree_scan(p))
