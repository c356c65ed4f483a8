"""The recovery supervisor group: lease election, failover, fencing.

Supervisors serialise everything — the lease and every recovery action —
through their own Paxos log, so the properties here are really about the
epoch fence: exactly one supervisor acts per epoch, a dead holder is
replaced by a higher epoch, and actions stamped with a stale epoch are
rejected by every member at apply time.
"""

import pytest

from repro.harness.faults import reset_id_counters
from repro.harness.kvworkload import build_kv_cluster, cluster_seed
from repro.heal import FAST_TIMING, ClusterHealer


@pytest.fixture
def cluster():
    reset_id_counters()
    return build_kv_cluster(
        "dssmr", cluster_seed(11, "dssmr", "heal-supervisor"))


@pytest.fixture
def healer(cluster):
    return ClusterHealer(cluster, timing=FAST_TIMING)


class TestLease:
    def test_exactly_one_holder_elected(self, cluster, healer):
        cluster.env.run(until=200.0)
        holders = {s.holder for s in healer.supervisors}
        epochs = {s.epoch for s in healer.supervisors}
        assert epochs == {1}
        assert len(holders) == 1
        assert holders.pop() in {s.node.name for s in healer.supervisors}
        # The ledger saw exactly that one claim.
        assert healer.leases == [(1, healer.supervisors[0].holder)]

    def test_election_is_deterministic(self):
        holders = []
        for _ in range(2):
            reset_id_counters()
            c = build_kv_cluster(
                "dssmr", cluster_seed(11, "dssmr", "heal-supervisor"))
            h = ClusterHealer(c, timing=FAST_TIMING)
            c.env.run(until=200.0)
            holders.append([s.holder for s in h.supervisors])
        assert holders[0] == holders[1]

    def test_dead_holder_is_replaced_at_a_higher_epoch(self, cluster,
                                                       healer):
        env = cluster.env
        env.run(until=200.0)
        holder = healer.supervisors[0].holder
        victim = next(s for s in healer.supervisors
                      if s.node.name == holder)
        victim.stop()
        env.run(until=600.0)
        survivors = [s for s in healer.supervisors if s is not victim]
        assert {s.epoch for s in survivors} == {2}
        new_holder = {s.holder for s in survivors}.pop()
        assert new_holder != holder
        assert healer.leases[-1] == (2, new_holder)

    def test_non_holders_never_issue_actions(self, cluster, healer):
        env = cluster.env
        env.run(until=100.0)
        holder = healer.supervisors[0].holder
        # Crash a follower with no harness recovery: only the holder may
        # submit the repair, and execution is deduped by uid anyway.
        victim = sorted(n for n, (role, _g) in healer.roles.items()
                        if role == "follower")[0]
        cluster.servers[victim].crash()
        env.run(until=600.0)
        assert healer.replaces.value == 1
        episodes = [e for e in healer.episodes if e.victim == victim]
        assert len(episodes) == 1
        assert episodes[0].action == "replace"
        assert episodes[0].closed_at is not None
        # Every survivor agrees on the same epoch and holder afterwards.
        assert {s.holder for s in healer.supervisors} == {holder}


class TestEpochFence:
    def test_stale_epoch_action_is_rejected(self, cluster, healer):
        env = cluster.env
        env.run(until=200.0)
        supervisor = healer.supervisors[0]
        assert supervisor.epoch == 1
        # A decided action stamped with a bygone epoch must not reach
        # the healer: the old holder lost its lease mid-flight.
        victim = sorted(n for n, (role, _g) in healer.roles.items()
                        if role == "follower")[0]
        stale = {"uid": "act-stale", "kind": "action", "epoch": 0,
                 "action": "replace", "victim": victim,
                 "role": "follower", "group": "p0", "attempt": 0}
        supervisor._on_decide(99, stale)
        assert healer.replaces.value == 0
        # The same entry at the current epoch goes through.
        current = dict(stale, epoch=1, uid="act-current")
        supervisor._on_decide(100, current)
        env.run(until=260.0)
        assert healer.replaces.value == 1

    def test_stale_lease_claim_is_rejected(self, cluster, healer):
        env = cluster.env
        env.run(until=200.0)
        supervisor = healer.supervisors[0]
        holder = supervisor.holder
        # Claims must advance the epoch by exactly one; a replayed or
        # minority-partitioned claim for the current epoch is ignored.
        supervisor._on_decide(101, {"uid": "lease-replay", "kind": "lease",
                                    "epoch": 1, "holder": "h9"})
        assert supervisor.epoch == 1
        assert supervisor.holder == holder

    def test_healer_executes_each_uid_once(self, cluster, healer):
        env = cluster.env
        env.run(until=100.0)
        victim = sorted(n for n, (role, _g) in healer.roles.items()
                        if role == "follower")[0]
        cluster.servers[victim].crash()
        entry = {"uid": "act-x", "kind": "action", "epoch": 1,
                 "action": "replace", "victim": victim,
                 "role": "follower", "group": "p0", "attempt": 0}
        healer.execute(entry, env.now)
        healer.execute(entry, env.now)   # duplicate apply: same uid
        assert healer.replaces.value == 1

    def test_stopped_healer_refuses_actions(self, cluster, healer):
        env = cluster.env
        env.run(until=100.0)
        victim = sorted(n for n, (role, _g) in healer.roles.items()
                        if role == "follower")[0]
        cluster.servers[victim].crash()
        healer.stop()
        healer.execute({"uid": "act-late", "kind": "action", "epoch": 1,
                        "action": "replace", "victim": victim,
                        "role": "follower", "group": "p0", "attempt": 0},
                       env.now)
        assert healer.replaces.value == 0
