"""Multilevel k-way partitioner (the METIS stand-in) and its interface.

``MultilevelPartitioner.partition(graph, k)`` returns a dict mapping every
vertex to a part in ``range(k)``. The result is deterministic — a hard
requirement of the paper: every oracle replica runs the partitioner
independently on the same workload graph and must produce the identical
mapping (Task 6 of the oracle algorithm).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

from repro.graph.coarsen import coarsen
from repro.graph.graph import Graph, Vertex
from repro.graph.refine import rebalance, refine

Assignment = dict[Vertex, int]


class Partitioner(ABC):
    """Interface: anything that maps a graph's vertices to k parts.

    The oracle is pluggable — the paper notes "any algorithm that takes as
    input a graph and outputs a mapping of objects to partitions is a valid
    partitioner".
    """

    @abstractmethod
    def partition(self, graph: Graph, k: int) -> Assignment:
        """Assign every vertex of ``graph`` to a part in ``range(k)``."""


def greedy_growth(graph: Graph, k: int) -> Assignment:
    """Graph-growing initial partitioning (GGP, as in METIS).

    Regions are grown *sequentially*: region ``i`` BFS-grows from a fresh
    seed until it reaches its share of the total vertex weight, then the
    next region starts from the heaviest still-unassigned vertex. Filling
    one region at a time keeps dense clusters intact — interleaved growth
    tends to seed two regions inside the same cluster and then cannot
    separate them under the balance constraint.
    """
    if k <= 1:
        return {v: 0 for v in graph.vertices()}
    order = sorted(graph.vertices(),
                   key=lambda v: (-graph.vertex_weight(v), repr(v)))
    assignment: Assignment = {}
    unassigned = set(graph.vertices())
    remaining_weight = graph.total_vertex_weight

    for part in range(k - 1):
        capacity = remaining_weight / (k - part)
        grown = 0
        frontier: deque = deque()
        while unassigned and grown < capacity:
            v = None
            while frontier:
                candidate = frontier.popleft()
                if candidate in unassigned:
                    v = candidate
                    break
            if v is None:
                # Fresh seed: heaviest unassigned vertex.
                v = next(u for u in order if u in unassigned)
            assignment[v] = part
            unassigned.discard(v)
            grown += graph.vertex_weight(v)
            for neighbour in sorted(graph.neighbours(v), key=repr):
                if neighbour in unassigned:
                    frontier.append(neighbour)
        remaining_weight -= grown
    for v in unassigned:
        assignment[v] = k - 1
    return assignment


class MultilevelPartitioner(Partitioner):
    """Coarsen → greedy initial partition → project back with refinement.

    Parameters mirror the classic METIS knobs: the coarsest-size threshold,
    the balance tolerance and the number of refinement passes per level.
    """

    def __init__(self, coarsest_size: int = 200,
                 imbalance_tolerance: float = 0.05,
                 refine_passes: int = 6):
        self.coarsest_size = coarsest_size
        self.imbalance_tolerance = imbalance_tolerance
        self.refine_passes = refine_passes

    def partition(self, graph: Graph, k: int) -> Assignment:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if graph.num_vertices == 0:
            return {}
        if k == 1:
            return {v: 0 for v in graph.vertices()}

        levels = coarsen(graph, target_size=max(self.coarsest_size, 4 * k))
        coarsest = levels[-1].graph if levels else graph
        assignment = greedy_growth(coarsest, k)
        refine(coarsest, assignment, k, self.imbalance_tolerance,
               self.refine_passes)

        # Project back through the hierarchy, refining at each level.
        finer_graphs = [graph] + [level.graph for level in levels[:-1]]
        for level, finer in zip(reversed(levels), reversed(finer_graphs)):
            assignment = {v: assignment[super_vertex]
                          for v, super_vertex in level.parent.items()}
            rebalance(finer, assignment, k, self.imbalance_tolerance)
            refine(finer, assignment, k, self.imbalance_tolerance,
                   self.refine_passes)
        return assignment
