"""One server factory for every construction path (Cluster._make_server).

Every path that builds a server or oracle replica — build, grow,
recover_server, cold_restart_server, power_restore and the heal
supervisor's replacements — must hand back a node carrying exactly the
features the ClusterConfig asks for.
"""

import pytest

from repro.core import ORACLE_GROUP
from repro.harness import build_cluster, cluster_invariants
from repro.harness.chaos import _reset_id_counters
from repro.harness.experiment import ChirperDeployment
from repro.harness.cluster import ClusterConfig
from repro.harness.faults import recover_victim
from repro.heal import FAST_TIMING, ClusterHealer
from repro.obs import CommandTracer
from repro.qos import QosConfig
from repro.smr import Command, ExecutionConfig, ExecutionModel
from repro.store import DurabilityConfig
from repro.workload import MixedWorkload, clustered_graph

KEYS = tuple(f"k{i}" for i in range(4))

#: Every feature armed — dedup off on purpose: the test-only switch must
#: survive every rebuild, not silently re-arm.
FULL = dict(parallel=ExecutionConfig(workers=2), qos=QosConfig(),
            durability=DurabilityConfig(), dedup=False)
BARE = {}


def make_cluster(scheme, features):
    _reset_id_counters()
    assignment = (None if scheme == "smr"
                  else {key: i % 2 for i, key in enumerate(KEYS)})
    cluster = build_cluster(
        tracer=CommandTracer(), scheme=scheme, num_partitions=2,
        replicas_per_partition=2, seed=5, initial_assignment=assignment,
        **features)
    cluster.preload({key: 0 for key in KEYS})
    return cluster


def run_traffic(cluster, count=6, name=None):
    client = cluster.new_client(name)

    def proc(env):
        for index in range(count):
            key = KEYS[index % len(KEYS)]
            yield from client.run_command(Command(
                op="incr", args={"key": key}, variables=(key,),
                writes=(key,)))

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 2_000)


def follower(cluster, partition="p0"):
    speaker = cluster.directory.speaker(partition)
    return [m for m in cluster.directory.members(partition)
            if m != speaker][0]


def everything(cluster):
    return list(cluster.servers.values()) + list(cluster.oracles)


# -- the construction paths ---------------------------------------------------

def path_build(cluster):
    return everything(cluster)


def path_grow(cluster):
    cluster.env.process(cluster.grow("p2"))
    cluster.run(until=cluster.env.now + 3_000)
    assert "p2" in cluster.partitions
    return [cluster.servers[m] for m in cluster.directory.members("p2")]


def path_recover_server(cluster):
    victim = follower(cluster)
    cluster.servers[victim].crash()
    replacement = cluster.recover_server(victim)
    cluster.run(until=cluster.env.now + 2_000)
    assert replacement.recovery.installed
    return [replacement]


def path_cold_restart_server(cluster):
    victim = follower(cluster)
    cluster.servers[victim].crash()
    replacement = cluster.cold_restart_server(victim)
    cluster.run(until=cluster.env.now + 2_000)
    return [replacement]


def path_power_restore(cluster):
    cluster.power_fail()
    cluster.run(until=cluster.env.now + 50)
    cluster.power_restore()
    cluster.run(until=cluster.env.now + 2_000)
    return everything(cluster)


def path_heal(cluster):
    victim = follower(cluster)
    healer = ClusterHealer(cluster, timing=FAST_TIMING)
    cluster.run(until=cluster.env.now + 100)
    crashed = cluster.servers[victim]
    crashed.crash()
    cluster.run(until=cluster.env.now + 1_500)
    healer.stop()
    assert healer.replaces.value >= 1
    assert cluster.servers[victim] is not crashed
    return [cluster.servers[victim]]


PATHS = {
    "build": path_build,
    "grow": path_grow,
    "recover_server": path_recover_server,
    "cold_restart_server": path_cold_restart_server,
    "power_restore": path_power_restore,
    "heal": path_heal,
}
NEEDS_DISKS = {"cold_restart_server", "power_restore"}
NEEDS_ORACLE = {"grow"}


def cases():
    for scheme in ("smr", "ssmr", "dssmr", "dynastar"):
        for path in PATHS:
            if path in NEEDS_ORACLE and scheme in ("smr", "ssmr"):
                continue
            for label, features in (("full", FULL), ("bare", BARE)):
                if path in NEEDS_DISKS and "durability" not in features:
                    continue
                yield pytest.param(scheme, path, features,
                                   id=f"{scheme}-{path}-{label}")


def assert_configured_features(cluster, server):
    config = cluster.config
    name = server.node.name
    group = cluster.directory.group_of(name)
    is_oracle = group == ORACLE_GROUP
    assert server.tracer is cluster.tracer, name
    assert server.replies.enabled == config.dedup, name
    if is_oracle or config.parallel is None:
        assert server.parallel is None, name
    else:
        assert server.parallel.config == config.parallel, name
    speaker = name == cluster.directory.speaker(group)
    assert (server.qos is not None) == (
        speaker and config.qos is not None), name
    if server.qos is not None:
        assert cluster.qos_admission[group] is server.qos
    assert (server.wal is not None) == (config.durability is not None), name
    if server.wal is not None:
        assert not server.wal.closed, name
    if is_oracle:
        return
    if config.scheme == "smr":
        assert server.recovery_host.replica is server, name
    else:
        assert server.checkpointer.server is server, name
        assert server.checkpoint_host.server is server, name


@pytest.mark.parametrize("scheme,path,features", list(cases()))
def test_every_path_builds_the_configured_features(scheme, path, features):
    cluster = make_cluster(scheme, features)
    run_traffic(cluster)
    built = PATHS[path](cluster)
    assert built
    for server in built:
        assert_configured_features(cluster, server)


class TestSmrRecovery:
    """Classic SMR goes through the same recovery entry points."""

    def test_recover_server_handles_smr(self):
        cluster = make_cluster("smr", BARE)
        run_traffic(cluster)
        victim = follower(cluster)
        cluster.servers[victim].crash()
        run_traffic(cluster, name="c1")
        replacement = cluster.recover_server(victim)
        cluster.run(until=cluster.env.now + 2_000)
        assert cluster.servers[victim] is replacement
        assert replacement.recovery.installed
        speaker = cluster.servers[cluster.directory.speaker("p0")]
        assert replacement.executed == speaker.executed
        assert replacement.store.snapshot() == speaker.store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_recovered_replica_keeps_tracer_and_dedup_setting(self):
        cluster = make_cluster("smr", dict(dedup=False))
        run_traffic(cluster)
        victim = follower(cluster)
        cluster.servers[victim].crash()
        replacement = recover_victim(cluster, victim)
        assert replacement.tracer is cluster.tracer
        assert replacement.replies.enabled is False
        cluster.run(until=cluster.env.now + 1_000)
        # The replacement's executor is traced like every other replica.
        run_traffic(cluster, name="c1")
        assert any(span.node == victim and span.name == "execute"
                   for span in cluster.tracer.spans)


class TestChirperInvariants:
    """cluster_invariants on the paper's own workload: Chirper stores
    hold list- and dict-valued items."""

    @pytest.mark.parametrize("scheme", ["smr", "dssmr"])
    def test_invariants_hold_on_chirper_stores(self, scheme):
        _reset_id_counters()
        graph, _planted = clustered_graph(n=24, k=2, intra_degree=3,
                                          edge_cut_fraction=0.1, seed=1)
        config = ClusterConfig(scheme=scheme, num_partitions=2, seed=3,
                               execution=ExecutionModel(base_ms=0.05))
        deployment = ChirperDeployment(graph, config)
        deployment.start_closed_loop_clients(
            2, MixedWorkload(graph, seed=3), end_time_ms=200.0)
        cluster = deployment.cluster
        cluster.run(until=1_000.0)
        assert any(isinstance(value, dict) for server in
                   cluster.servers.values()
                   for value in server.store.snapshot().values())
        assert cluster_invariants(cluster) == []

    def test_divergent_chirper_replicas_are_reported(self):
        _reset_id_counters()
        graph, _planted = clustered_graph(n=24, k=2, intra_degree=3,
                                          edge_cut_fraction=0.1, seed=1)
        deployment = ChirperDeployment(graph, ClusterConfig(
            scheme="ssmr", num_partitions=2, seed=3))
        cluster = deployment.cluster
        replica = cluster.servers[follower(cluster)]
        key = next(iter(replica.store.snapshot()))
        replica.store.write(key, {"tampered": [1, 2]})
        assert "p0 replicas diverge on state" in cluster_invariants(cluster)
