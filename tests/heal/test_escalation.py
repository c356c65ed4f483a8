"""Terminal-recovery escalation (satellite of the durability PR).

A peer state transfer that exhausts every source lands in the cluster's
``recovery_failure_hooks``; the healer must escalate — spare-join when
spare capacity exists, abandon otherwise — never leave the victim in a
silent half-recovered limbo.
"""

from repro.harness import build_cluster
from repro.harness.faults import reset_id_counters
from repro.heal import FAST_TIMING, ClusterHealer


class FakeRecovery:
    """Just the surface the healer reads off a terminal recovery."""

    def __init__(self, server, peers_tried):
        self.server = server
        self.peers_tried = peers_tried
        self.failed = True
        self.installed = False


def build_healed_cluster(spare_partition=None, seed=3):
    reset_id_counters()
    cluster = build_cluster(scheme="dssmr", num_partitions=2,
                            replicas_per_partition=2, seed=seed,
                            initial_assignment={f"k{i}": i % 2
                                                for i in range(4)})
    cluster.preload({f"k{i}": 0 for i in range(4)})
    healer = ClusterHealer(cluster, FAST_TIMING,
                           spare_partition=spare_partition)
    return cluster, healer


class TestEscalation:
    def test_terminal_recovery_is_counted_and_abandoned(self):
        cluster, healer = build_healed_cluster()
        cluster.run(until=50)
        victim = cluster.servers["p0s1"]
        cluster._on_recovery_failure(
            FakeRecovery(victim, ["p0s0"]))
        assert healer.recovery_failures.value == 1
        assert healer.snapshot()["recovery_failures"] == 1
        # No spare capacity: every supervisor stops acting for the name.
        for supervisor in healer.supervisors:
            assert supervisor._peers["p0s1"]["state"] == "abandoned"
        assert any("terminal" in text for _, text in healer.timeline)

    def test_terminal_recovery_joins_spare_when_available(self):
        cluster, healer = build_healed_cluster(spare_partition="p2")
        cluster.run(until=50)
        victim = cluster.servers["p0s1"]
        cluster._on_recovery_failure(
            FakeRecovery(victim, ["p0s0"]))
        cluster.run(until=cluster.env.now + 5_000)
        assert healer.recovery_failures.value == 1
        assert healer.spare_joins.value == 1
        assert "p2s0" in cluster.servers

    def test_stopped_healer_ignores_failures(self):
        cluster, healer = build_healed_cluster()
        cluster.run(until=50)
        healer.stop()
        cluster._on_recovery_failure(
            FakeRecovery(cluster.servers["p0s1"], ["p0s0"]))
        assert healer.recovery_failures.value == 0
