"""Tests for partitioned-replica crash recovery (checkpoint install +
ordered-log suffix replay)."""

import pytest

from repro.harness import cluster_invariants
from repro.reconfig import recover_partition_server
from repro.smr import Command

from tests.reconfig.test_checkpoint import build_loaded_cluster


def incr(key):
    return Command(op="incr", args={"key": key}, variables=(key,),
                   writes=(key,))


def continuous_load(cluster, name, count=15, pause=4.0):
    client = cluster.new_client(name)
    replies = []

    def proc(env):
        for index in range(count):
            reply = yield from client.run_command(incr(f"k{index % 4}"))
            replies.append(reply.value)
            yield env.timeout(pause)

    cluster.env.process(proc(cluster.env))
    return replies


class TestPartitionRecovery:
    def test_recovery_catches_up_under_load(self):
        cluster = build_loaded_cluster()
        replies = continuous_load(cluster, "load")
        env = cluster.env

        def chaos(env):
            yield env.timeout(10)
            cluster.servers["p0s1"].crash()
            yield env.timeout(25)        # misses part of the workload
            cluster.recover_server("p0s1")

        env.process(chaos(env))
        cluster.run(until=env.now + 20_000)
        assert len(replies) == 15
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert recovered.executed == cluster.servers["p0s0"].executed
        assert len(recovered.executed) == len(set(recovered.executed))
        assert cluster_invariants(cluster) == []

    def test_recovered_replica_serves_multi_partition_commands(self):
        """After recovery the replica participates in cross-partition
        exchanges again (its exchange state was part of the checkpoint)."""
        cluster = build_loaded_cluster()
        env = cluster.env

        def chaos(env):
            yield env.timeout(5)
            cluster.servers["p0s1"].crash()
            yield env.timeout(20)
            cluster.recover_server("p0s1")

        env.process(chaos(env))
        cluster.run(until=env.now + 5_000)
        client = cluster.new_client("multi")
        replies = []

        def proc(env):
            reply = yield from client.run_command(
                Command(op="sum", args={"keys": ["k0", "k1"]},
                        variables=("k0", "k1")))
            replies.append(reply.value)

        env.process(proc(env))
        cluster.run(until=env.now + 5_000)
        assert replies
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.executed == cluster.servers["p0s0"].executed
        assert cluster_invariants(cluster) == []

    def test_repeated_crash_recover_cycles(self):
        cluster = build_loaded_cluster()
        replies = continuous_load(cluster, "load", count=20)
        env = cluster.env

        def chaos(env):
            for cycle in range(3):
                yield env.timeout(8)
                cluster.servers["p0s1"].crash()
                yield env.timeout(12)
                cluster.recover_server("p0s1")

        env.process(chaos(env))
        cluster.run(until=env.now + 30_000)
        assert len(replies) == 20
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert recovered.executed == cluster.servers["p0s0"].executed
        assert cluster_invariants(cluster) == []

    def test_recovery_then_join(self):
        """A freshly recovered replica still delivers the next epoch
        fence — recovery restores multicast participation, not just
        state."""
        cluster = build_loaded_cluster()
        env = cluster.env

        def chaos(env):
            yield env.timeout(5)
            cluster.servers["p1s1"].crash()
            yield env.timeout(20)
            cluster.recover_server("p1s1")
            yield env.timeout(50)
            yield from cluster.grow("p2")

        env.process(chaos(env))
        cluster.run(until=env.now + 20_000)
        recovered = cluster.servers["p1s1"]
        assert recovered.recovery.installed
        assert recovered.epoch == 1
        assert cluster.servers["p2s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_speaker_recovery_rejected(self):
        """The group speaker doubles as the sequencer: its loss is not
        recoverable under a sequencer log (Paxos is the FT story)."""
        cluster = build_loaded_cluster()
        cluster.servers["p0s0"].crash()
        with pytest.raises(ValueError):
            recover_partition_server(cluster.servers["p0s0"],
                                     cluster.servers["p0s1"])

    def test_cross_partition_peer_rejected(self):
        cluster = build_loaded_cluster()
        cluster.servers["p0s1"].crash()
        with pytest.raises(ValueError):
            recover_partition_server(cluster.servers["p0s1"],
                                     cluster.servers["p1s0"])


class TestTerminalRecovery:
    """Satellite of the durability PR: a transfer with every source
    peer gone turns *terminal* — failed flag, flight record, failure
    hook — instead of hanging forever."""

    def test_all_sources_gone_marks_failed_and_fires_hook(self):
        cluster = build_loaded_cluster()
        cluster.servers["p0s1"].crash()
        replacement = cluster.recover_server("p0s1")
        # The only source (p0s0, the speaker) dies before answering.
        cluster.servers["p0s0"].crash()
        cluster.run(until=cluster.env.now + 3_000)
        recovery = replacement.recovery
        assert recovery.failed and not recovery.installed
        assert recovery.peers_tried == ["p0s0"]
        assert cluster.recovery_failures == [recovery]

    def test_hooks_receive_the_terminal_recovery(self):
        cluster = build_loaded_cluster()
        seen = []
        cluster.recovery_failure_hooks.append(seen.append)
        cluster.servers["p0s1"].crash()
        replacement = cluster.recover_server("p0s1")
        cluster.servers["p0s0"].crash()
        cluster.run(until=cluster.env.now + 3_000)
        assert seen == [replacement.recovery]

    def test_live_fallback_peer_prevents_terminal(self):
        """Three replicas: the primary source dies mid-transfer, but a
        fallback peer completes it — no terminal failure."""
        from repro.harness import build_cluster
        from repro.harness.faults import reset_id_counters

        reset_id_counters()
        cluster = build_cluster(scheme="dssmr", num_partitions=2,
                                replicas_per_partition=3, seed=3,
                                initial_assignment={f"k{i}": i % 2
                                                    for i in range(4)})
        cluster.preload({f"k{i}": 0 for i in range(4)})
        run_workload_terminal(cluster)
        cluster.servers["p0s1"].crash()
        replacement = cluster.recover_server("p0s1")
        # recover_server picks the first live member as primary source;
        # kill exactly that one.
        primary = replacement.recovery.peer_name
        cluster.servers[primary].crash()
        cluster.run(until=cluster.env.now + 5_000)
        recovery = replacement.recovery
        assert recovery.installed and not recovery.failed
        assert len(recovery.peers_tried) == 2
        assert cluster.recovery_failures == []


def run_workload_terminal(cluster, count=8, name="c0"):
    client = cluster.new_client(name)

    def proc(env):
        for index in range(count):
            key = f"k{index % 4}"
            yield from client.run_command(incr(key))

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)
