"""The key-value workload every fault campaign drives.

One definition of each piece the campaigns share:

* :func:`kv_command` — the linearizability command mix (reads,
  increments, two-key swaps and sums); the mix thresholds are data, so a
  harness that wants a write-heavier mix passes its own in place of
  :data:`MIX`.
* :func:`build_kv_cluster` — the deployment: ``num_partitions`` x 2
  replicas, ``keys`` placed round-robin over the partitions and
  preloaded to zero, clients with the resilience layer armed.
* :func:`run_wave` — one closed-loop client wave over that deployment,
  optionally recording a linearizability history.

Callers pass the cluster seed they derive (:func:`cluster_seed`), so
every harness keeps its own seed stream and its runs stay byte-stable.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.checkers import History
from repro.harness.cluster import Cluster, ClusterConfig
from repro.resilience import RetryPolicy
from repro.sim import SeedStream
from repro.smr import Command, ReplyStatus

#: Keys of the default workload (spread over both partitions).
KEYS = tuple(f"k{i}" for i in range(6))

#: Cumulative thresholds of the command mix: ``get`` below the first,
#: ``incr`` below the second, ``swap`` below the third, ``sum`` above.
MIX = (0.30, 0.65, 0.85)


def kv_command(rng: random.Random, keys: Sequence[str] = KEYS,
               mix: tuple = MIX) -> Command:
    """Draw one command of the linearizability workload mix."""
    get, incr, swap = mix
    kind = rng.random()
    if kind < get:
        key = rng.choice(keys)
        return Command(op="get", args={"key": key}, variables=(key,))
    if kind < incr:
        key = rng.choice(keys)
        return Command(op="incr", args={"key": key}, variables=(key,),
                       writes=(key,))
    if kind < swap:
        a, b = rng.sample(keys, 2)
        return Command(op="swap", args={"a": a, "b": b}, variables=(a, b),
                       writes=(a, b))
    picked = rng.sample(keys, 2)
    return Command(op="sum", args={"keys": picked}, variables=tuple(picked))


def cluster_seed(seed: int, child: str, stream: str) -> int:
    """The deployment seed a harness derives from its campaign seed."""
    return SeedStream(seed).child(child).stream(stream).randrange(2 ** 31)


def build_kv_cluster(scheme: str, seed: int, keys: Sequence[str] = KEYS,
                     num_partitions: int = 2, ballast: int = 0,
                     tracer=None, profiler=None, **config) -> Cluster:
    """Build and preload the campaigns' key-value deployment.

    ``ballast`` adds that many never-accessed keys ``x<i>`` on partition
    0 (they inflate the state image a peer transfer ships without
    perturbing the workload). Remaining keyword arguments are
    :class:`ClusterConfig` fields; ``retry_policy`` defaults to the
    resilience layer's defaults.
    """
    contents = {key: 0 for key in keys}
    assignment = {key: i % num_partitions for i, key in enumerate(keys)}
    for index in range(ballast):
        contents[f"x{index}"] = index
        assignment[f"x{index}"] = 0
    config.setdefault("retry_policy", RetryPolicy())
    cluster = Cluster(ClusterConfig(
        scheme=scheme, num_partitions=num_partitions,
        replicas_per_partition=2, seed=seed,
        initial_assignment=assignment if scheme != "smr" else None,
        **config), tracer=tracer, profiler=profiler)
    cluster.preload(contents)
    return cluster


def run_wave(cluster: Cluster, num_clients: int, ops_per_client: int,
             rng_tag: str, prefix: str = "c",
             history: Optional[History] = None,
             keys: Sequence[str] = KEYS, mix: tuple = MIX,
             think_ms: tuple = (0.0, 1.0)):
    """Start a closed-loop client wave; returns ``(status, done)``.

    Client ``i`` is ``<prefix><i>`` and draws its commands and think
    times from ``Random(f"{rng_tag}/{i}")``. ``status`` counts completed
    ops, finished clients, summed latency and completion times, and
    ``done_at`` — the virtual time the last client finished, when
    ``done`` fires.
    """
    env = cluster.env
    status = {"completed": 0, "finished": 0, "done_at": None,
              "latency_ms": 0.0, "completions": []}
    done = env.event()
    clients = [cluster.new_client(f"{prefix}{i}")
               for i in range(num_clients)]

    def loop(client, index):
        rng = random.Random(f"{rng_tag}/{index}")
        for _ in range(ops_per_client):
            command = kv_command(rng, keys, mix)
            invoked = env.now
            reply = yield from client.run_command(command)
            if history is not None:
                result = reply.value if reply.status is not ReplyStatus.NOK \
                    else str(reply.value)
                history.record(client.name, command.op, command.args,
                               result, invoked, env.now)
            status["latency_ms"] += env.now - invoked
            status["completions"].append(env.now)
            status["completed"] += 1
            yield env.timeout(rng.uniform(*think_ms))
        status["finished"] += 1
        if status["finished"] == num_clients:
            status["done_at"] = env.now
            done.succeed(None)

    for index, client in enumerate(clients):
        env.process(loop(client, index), name=f"wave/{client.name}")
    return status, done
