"""The benchmark's named workloads, built only through public APIs.

Each :class:`Workload` knows how to set up one deployment (graph,
assignment, cluster, preload, closed-loop clients) for a given workload
seed and virtual duration. The social graph always uses seed 3; the
workload seed only drives the generated op streams, so the program under
test receives nothing but the ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.chirper import TIMELINE_LIMIT, user_key
from repro.harness.cluster import ClusterConfig
from repro.harness.experiment import ChirperDeployment, static_assignment_for
from repro.harness.figures import FIGURE_EXECUTION
from repro.smr import ExecutionConfig
from repro.store import DurabilityConfig
from repro.workload import MixedWorkload, PostWorkload, clustered_graph

GRAPH_SEED = 3
USERS = 400
EDGE_CUT = 0.05
INTRA_DEGREE = 6
CLIENTS = 32
REPLICAS = 2
# Every workload shares one social graph: 4 planted communities groups.
GRAPH_PARTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scheme: str
    partitions: int
    mix: str                 # "post" or "mixed"
    planted: bool            # static planted assignment vs hash placement
    durable: bool            # WAL + durable checkpoints + parallel executor
    vtime_ms: float          # default virtual duration of one round
    # Distinct seeds a run pools its virtual metrics over (see run.py).
    subseeds: int

    def build(self, seed: int, vtime_ms: float) -> "Round":
        """Set up one round: everything up to the first kernel step."""
        graph, planted = clustered_graph(
            n=USERS, k=GRAPH_PARTS, intra_degree=INTRA_DEGREE,
            edge_cut_fraction=EDGE_CUT, seed=GRAPH_SEED)
        kwargs = {}
        if self.planted:
            kwargs["initial_assignment"] = static_assignment_for(
                graph, self.partitions, planted)
        if self.durable:
            kwargs["durability"] = DurabilityConfig()
            kwargs["parallel"] = ExecutionConfig(workers=4)
        config = ClusterConfig(scheme=self.scheme,
                               num_partitions=self.partitions,
                               replicas_per_partition=REPLICAS, seed=seed,
                               execution=FIGURE_EXECUTION, **kwargs)
        deployment = ChirperDeployment(graph, config)
        if self.durable:
            # Full timelines from the first command: checkpoint capture
            # copies the whole partition store, so a store still growing
            # would make the per-command cost depend on run length.
            deployment.cluster.preload(full_timelines(graph))
        if self.mix == "post":
            ops = PostWorkload(graph, seed=seed)
        else:
            ops = MixedWorkload(graph, seed=seed)
        counted = CountingWorkload(ops, deployment.cluster.env, vtime_ms)
        deployment.start_closed_loop_clients(CLIENTS, counted, vtime_ms)
        return Round(deployment, counted)


def full_timelines(graph) -> dict:
    """Chirper state with every timeline already at its cap."""
    state = {}
    for u in graph.vertices():
        friends = sorted(graph.neighbours(u))
        state[user_key(u)] = {
            "following": friends,
            "followers": friends,
            "timeline": [(f"pre/{u}/{i}", u, f"preload {i}")
                         for i in range(TIMELINE_LIMIT)],
        }
    return state


class CountingWorkload:
    """Wraps a workload's streams to count the ops actually dispatched.

    The closed loop draws one op per client after the end time and drops
    it; an op counts as issued only when drawn before the end time, the
    same test the loop applies at the same instant.
    """

    def __init__(self, inner, env, end_ms: float):
        self.inner = inner
        self.env = env
        self.end_ms = end_ms
        self.issued = 0

    def stream(self, client_index: int):
        for op in self.inner.stream(client_index):
            if self.env.now < self.end_ms:
                self.issued += 1
            yield op


@dataclass
class Round:
    deployment: ChirperDeployment
    counted: CountingWorkload

    @property
    def cluster(self):
        return self.deployment.cluster

    def completed_ok(self) -> int:
        return sum(c.ops_completed for c in self.deployment.chirper_clients)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="chirper-post-dssmr",
        why=("DS-SMR posts fanning out across 4 hash-placed partitions: "
             "ordering, core moves/consults, net and obs do most work"),
        scheme="dssmr", partitions=4, mix="post", planted=False,
        durable=False, vtime_ms=1000.0, subseeds=4),
    Workload(
        name="chirper-mix-smr",
        why=("single-group SMR baseline on the read-heavy mix: no amcast, "
             "oracle or moves; sim, net, smr and apps dominate"),
        scheme="smr", partitions=1, mix="mixed", planted=False,
        durable=False, vtime_ms=5000.0, subseeds=1),
    Workload(
        name="chirper-mix-ssmr-durable",
        why=("S-SMR mix with WAL, durable checkpoints and 4 parallel "
             "workers: the only workload reaching store, reconfig capture "
             "and smr.parallel"),
        scheme="ssmr", partitions=4, mix="mixed", planted=True,
        durable=True, vtime_ms=300.0, subseeds=1),
)}
