"""Weighted undirected graph used by the partitioner and the oracle.

Vertices are arbitrary hashable ids (the oracle uses state-variable keys);
both vertices and edges carry integer weights. Adding an existing edge
accumulates its weight, which is exactly what the oracle's workload graph
needs: an edge's weight counts how many commands accessed that pair of
variables together.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

Vertex = Hashable


class Graph:
    """Undirected weighted graph with O(1) neighbour access."""

    def __init__(self):
        self._adj: dict[Vertex, dict[Vertex, int]] = {}
        self._vertex_weight: dict[Vertex, int] = {}
        self._total_edge_weight = 0

    # -- construction -------------------------------------------------------

    def add_vertex(self, v: Vertex, weight: int = 1) -> None:
        """Add ``v`` (idempotent); re-adding updates its weight."""
        if v not in self._adj:
            self._adj[v] = {}
        self._vertex_weight[v] = weight

    def add_edge(self, u: Vertex, v: Vertex, weight: int = 1) -> None:
        """Add/accumulate an edge. Self-loops are ignored (cut-irrelevant)."""
        if u == v:
            self.add_vertex(u, self._vertex_weight.get(u, 1))
            return
        for w in (u, v):
            if w not in self._adj:
                self.add_vertex(w)
        self._adj[u][v] = self._adj[u].get(v, 0) + weight
        self._adj[v][u] = self._adj[v].get(u, 0) + weight
        self._total_edge_weight += weight

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and its incident edges."""
        for neighbour, weight in self._adj.pop(v, {}).items():
            del self._adj[neighbour][v]
            self._total_edge_weight -= weight
        self._vertex_weight.pop(v, None)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Vertex, Vertex]]) -> "Graph":
        graph = cls()
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    # -- queries --------------------------------------------------------------

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def total_vertex_weight(self) -> int:
        return sum(self._vertex_weight.values())

    @property
    def total_edge_weight(self) -> int:
        return self._total_edge_weight

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def sorted_vertices(self) -> list[Vertex]:
        """Vertices in a deterministic order (sorted by repr for mixed types)."""
        return sorted(self._adj, key=repr)

    def vertex_weight(self, v: Vertex) -> int:
        return self._vertex_weight[v]

    def neighbours(self, v: Vertex) -> Mapping[Vertex, int]:
        """Mapping neighbour -> edge weight."""
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[Vertex, Vertex, int]]:
        """Each undirected edge exactly once, as ``(u, v, weight)``."""
        seen: set[Vertex] = set()
        for u in self._adj:
            for v, weight in self._adj[u].items():
                if v not in seen:
                    yield u, v, weight
            seen.add(u)

    def copy(self) -> "Graph":
        out = Graph()
        for v, weight in self._vertex_weight.items():
            out.add_vertex(v, weight)
        for u, v, weight in self.edges():
            out.add_edge(u, v, weight)
        return out
