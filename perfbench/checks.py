"""End-state correctness check and the virtual-results digest.

The check is written here rather than reusing
``repro.harness.invariants.cluster_invariants``: that function hashes
store values (``_freeze``) and raises ``TypeError: unhashable type:
'dict'`` on Chirper's dict-valued stores.
"""

from __future__ import annotations

import hashlib
import json


def digest(value) -> str:
    """sha256 of ``value``'s canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def replica_groups(cluster) -> dict:
    """Live replicas of every partition, in name order."""
    return {partition: [(name, cluster.servers[name])
                        for name in sorted(cluster.directory.members(partition))
                        if not cluster.servers[name].node.crashed]
            for partition in cluster.partitions}


def check_replicas(cluster) -> tuple[list[str], dict]:
    """Per partition: live replicas agree on the store digest and on the
    ``executed`` order, and none executed a command id twice.

    Returns ``(violations, state)`` where ``state`` maps each partition to
    its agreed store and execution digests.
    """
    violations: list[str] = []
    state: dict[str, dict] = {}
    for partition, members in sorted(replica_groups(cluster).items()):
        stores = {name: digest(server.store.snapshot())
                  for name, server in members}
        orders = {name: digest(server.executed) for name, server in members}
        for name, server in members:
            executed = server.executed
            if len(set(executed)) != len(executed):
                violations.append(f"{partition}/{name}: executed a command "
                                  "id twice")
        if len(set(stores.values())) > 1:
            violations.append(f"{partition}: store digests differ {stores}")
        if len(set(orders.values())) > 1:
            violations.append(f"{partition}: executed orders differ {orders}")
        first = members[0][0]
        state[partition] = {"store": stores[first], "executed": orders[first],
                            "commands": len(members[0][1].executed)}
    return violations, state
