"""Cluster-level tests for the cold-start recovery ladder
(repro.store.coldstart via Cluster.cold_restart_server / power cycle)."""

from repro.harness import build_cluster, cluster_invariants
from repro.harness.faults import reset_id_counters
from repro.reconfig.checkpoint import state_checksum
from repro.smr import Command
from repro.store import DurabilityConfig


def incr(key):
    return Command(op="incr", args={"key": key}, variables=(key,),
                   writes=(key,))


def build_durable_cluster(seed=3, scheme="dssmr", **durability_kwargs):
    reset_id_counters()
    cluster = build_cluster(
        scheme=scheme, num_partitions=2, replicas_per_partition=2,
        seed=seed, initial_assignment={f"k{i}": i % 2 for i in range(4)},
        durability=DurabilityConfig(**durability_kwargs))
    cluster.preload({f"k{i}": 0 for i in range(4)})
    return cluster


def run_workload(cluster, count=8, name="c0"):
    client = cluster.new_client(name)

    def proc(env):
        for index in range(count):
            key = f"k{index % 4}"
            yield from client.run_command(incr(key))

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)


def images(cluster):
    return {name: {"store": server.store.snapshot(),
                   "executed": list(server.executed)}
            for name, server in sorted(cluster.servers.items())}


class TestPowerCycle:
    def test_full_cluster_power_loss_restores_from_local_disk(self):
        """Every partition comes back from its own disks — zero live
        peers exist after a whole-cluster power failure."""
        cluster = build_durable_cluster()
        run_workload(cluster)
        live = state_checksum(images(cluster))

        cluster.power_fail()
        cluster.run(until=cluster.env.now + 50)
        cluster.power_restore()
        cluster.run(until=cluster.env.now + 2_000)

        assert state_checksum(images(cluster)) == live
        assert cluster.disks.stats.cold_starts >= 4
        assert cluster_invariants(cluster) == []

    def test_cluster_serves_fresh_commands_after_restore(self):
        cluster = build_durable_cluster(seed=5)
        run_workload(cluster)
        before = cluster.servers["p0s0"].store.read("k0")
        cluster.power_fail()
        cluster.run(until=cluster.env.now + 50)
        cluster.power_restore()
        cluster.run(until=cluster.env.now + 2_000)
        run_workload(cluster, count=4, name="c1")
        assert cluster.servers["p0s0"].store.read("k0") == before + 1
        assert cluster_invariants(cluster) == []


class TestLadder:
    def test_clean_follower_restarts_without_peer_fallback(self):
        cluster = build_durable_cluster()
        run_workload(cluster)
        cluster.servers["p0s1"].crash()
        cluster.cold_restart_server("p0s1")
        cluster.run(until=cluster.env.now + 1_000)
        stats = cluster.disks.stats
        assert stats.cold_starts == 1
        assert stats.peer_fallbacks == 0
        assert cluster.servers["p0s1"].store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_speaker_cold_restart_reconciles_sequencer(self):
        """The restarting sequencer must never reuse a sequence number:
        traffic after the restart keeps the history linearizable."""
        cluster = build_durable_cluster(seed=7)
        run_workload(cluster)
        cluster.servers["p0s0"].crash()
        cluster.cold_restart_server("p0s0")
        cluster.run(until=cluster.env.now + 1_000)
        run_workload(cluster, count=6, name="c2")
        assert cluster_invariants(cluster) == []

    def test_corrupt_wal_falls_back_to_peer(self):
        """Rung 2: a CRC failure means the local history cannot be
        trusted past the anomaly — recovery must pull a peer's state
        instead of silently replaying the readable prefix."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        disk = cluster.disks.disk("p0s1")
        segment = disk.files("wal.")[0]
        disk._durable[segment][8] ^= 0x40
        cluster.servers["p0s1"].crash()
        cluster.cold_restart_server("p0s1")
        cluster.run(until=cluster.env.now + 2_000)
        stats = cluster.disks.stats
        assert stats.peer_fallbacks == 1
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_torn_tail_is_not_corruption(self):
        """Rung 1 still applies to a torn tail: the half-written record
        never happened (no reply was sent for it), so the local prefix
        is complete and no peer transfer is needed."""
        cluster = build_durable_cluster(seed=11)
        run_workload(cluster)
        disk = cluster.disks.disk("p0s1")
        disk.tear_tail()
        cluster.servers["p0s1"].crash()
        cluster.cold_restart_server("p0s1")
        cluster.run(until=cluster.env.now + 2_000)
        assert cluster.disks.stats.peer_fallbacks == 0
        assert cluster.servers["p0s1"].store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_corrupt_wal_with_no_live_peer_installs_prefix(self):
        """Rung 3: corruption and nobody to fall back to. The readable
        prefix is installed instead of hanging or silently completing —
        un-replied suffix commands are left to client resends."""
        cluster = build_durable_cluster(seed=13)
        run_workload(cluster)
        cluster.power_fail()
        disk = cluster.disks.disk("p0s1")
        segment = disk.files("wal.")[0]
        disk._durable[segment][8] ^= 0x40
        fallbacks_before = cluster.disks.stats.peer_fallbacks
        from repro.store.coldstart import cold_start_member
        replacement = cold_start_member(cluster, "p0s1")
        cluster.run(until=cluster.env.now + 500)
        # No peer was alive: the ladder landed on rung 3, not rung 2.
        assert cluster.disks.stats.peer_fallbacks == fallbacks_before
        assert replacement._start_gate.triggered
        # The preloaded base image survived even with the log unreadable.
        assert set(replacement.store.snapshot()) >= {"k0", "k2"}
