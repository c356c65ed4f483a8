"""Tests for partition checkpoints and the canonical serialisation."""

from repro.harness import build_cluster
from repro.reconfig import canonical_bytes, state_checksum
from repro.smr import Command


def run_workload(cluster, count=8, name="c0"):
    client = cluster.new_client(name)

    def proc(env):
        for index in range(count):
            key = f"k{index % 4}"
            yield from client.run_command(
                Command(op="incr", args={"key": key}, variables=(key,),
                        writes=(key,)))

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)


def build_loaded_cluster(seed=3, scheme="dssmr"):
    from repro.harness.faults import reset_id_counters

    reset_id_counters()
    cluster = build_cluster(scheme=scheme, num_partitions=2,
                            replicas_per_partition=2, seed=seed,
                            initial_assignment={f"k{i}": i % 2
                                                for i in range(4)})
    cluster.preload({f"k{i}": 0 for i in range(4)})
    run_workload(cluster)
    return cluster


class TestCanonicalSerialisation:
    def test_dict_order_independence(self):
        assert canonical_bytes({"a": 1, "b": 2}) == \
            canonical_bytes({"b": 2, "a": 1})
        assert state_checksum({"a": {"x": 1, "y": 2}}) == \
            state_checksum({"a": {"y": 2, "x": 1}})

    def test_sets_are_sorted(self):
        assert state_checksum({"s": {"b", "a", "c"}}) == \
            state_checksum({"s": {"c", "a", "b"}})

    def test_values_distinguished(self):
        assert state_checksum({"a": 1}) != state_checksum({"a": 2})
        assert state_checksum({"a": 1}) != state_checksum({"a": "1"})
        assert state_checksum([1, 2]) != state_checksum((2, 1))

    def test_nested_structures(self):
        a = {"m": [{"k": {1, 2}}, ("t", 3)], "n": {"p": {"q": 0}}}
        b = {"n": {"p": {"q": 0}}, "m": [{"k": {2, 1}}, ("t", 3)]}
        assert canonical_bytes(a) == canonical_bytes(b)


class TestPartitionCheckpointer:
    def test_capture_reflects_server_state(self):
        cluster = build_loaded_cluster()
        server = cluster.servers["p0s0"]
        checkpoint = server.checkpointer.capture("test")
        assert checkpoint.partition == "p0"
        assert checkpoint.replica == "p0s0"
        assert checkpoint.store == server.store.snapshot()
        assert checkpoint.executed == list(server.executed)
        assert checkpoint.applied_count == server.log.applied_count
        assert checkpoint.epoch == server.epoch
        assert checkpoint.location_slice == {
            key: "p0" for key in server.store.snapshot()}
        assert checkpoint.checksum == checkpoint.compute_checksum()

    def test_capture_is_a_snapshot_not_a_view(self):
        cluster = build_loaded_cluster()
        server = cluster.servers["p0s0"]
        checkpoint = server.checkpointer.capture("test")
        before = dict(checkpoint.store)
        run_workload(cluster, count=4, name="c1")
        assert checkpoint.store == before

    def test_replicas_capture_identical_checksums(self):
        """Converged replicas of one partition agree on the checksum —
        the transfer integrity check relies on this equality."""
        cluster = build_loaded_cluster()
        first = cluster.servers["p0s0"].checkpointer.capture("a")
        second = cluster.servers["p0s1"].checkpointer.capture("b")
        assert first.checksum == second.checksum

    def test_same_seed_runs_capture_identical_checksums(self):
        checksums = []
        for _ in range(2):
            cluster = build_loaded_cluster(seed=9)
            checksums.append(
                cluster.servers["p1s0"].checkpointer.capture("d").checksum)
        assert checksums[0] == checksums[1]

    def test_history_trimmed_to_keep(self):
        cluster = build_loaded_cluster()
        checkpointer = cluster.servers["p0s0"].checkpointer
        for index in range(7):
            checkpointer.capture(f"c{index}")
        assert checkpointer.captures == 7
        assert len(checkpointer.history) == checkpointer.keep
        assert checkpointer.latest() is checkpointer.history[-1]

    def test_epoch_boundary_auto_captures(self):
        """Join fences trigger a capture on every established server."""
        cluster = build_loaded_cluster()
        before = {name: cluster.servers[name].checkpointer.captures
                  for name in ("p0s0", "p0s1", "p1s0", "p1s1")}

        def driver(env):
            yield from cluster.grow("p2")

        cluster.env.process(driver(cluster.env))
        cluster.run(until=10_000)
        for name, count in before.items():
            checkpointer = cluster.servers[name].checkpointer
            assert checkpointer.captures > count, name
            assert checkpointer.latest().epoch == 1
