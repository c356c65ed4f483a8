"""Shared fault-victim helpers: who can crash, and how they come back.

The schedule runner (:mod:`repro.fuzz.runner`, behind the fuzz, chaos
and heal campaigns) and the self-healing figure need the same two
closure pairs for
:meth:`~repro.net.failure.FailureInjector.crash_restart_at`:

* **restart** (amnesia) — the victim object dies and a replacement is
  rebuilt under the same name: classic SMR replicas through
  snapshot-and-catch-up (:mod:`repro.smr.recovery`), partitioned replicas
  through checkpoint-install recovery (:mod:`repro.reconfig.recovery`).
  Valid only for non-speaker partition replicas: neither recovery path
  can resurrect an ordering endpoint's sequencer state.
* **blackout** — the victim is cut off at the network level (drops all
  traffic both ways) and later reconnects with its in-memory state
  intact (:meth:`~repro.ordering.ProtocolNode.reconnect`). Valid for
  *any* node — sequencers, Paxos leaders and oracle replicas included —
  the fault class the chaos campaign once exempted.

Victim *roles* name the interesting positions in a deployment
independently of scheme and shape, so seeded generators can draw a role
and let :func:`select_victim` resolve the concrete node and crash mode.
"""

from __future__ import annotations

import itertools

#: Crash-victim roles a scenario/schedule generator may draw.
VICTIM_ROLES = ("follower", "speaker", "oracle")


def reset_id_counters() -> None:
    """Reset the module-global id counters commands and multicasts draw
    from. Run behaviour then depends only on its own seeds, never on what
    ran earlier in the process — the property behind every harness's
    run-twice-compare-reports determinism test."""
    import repro.ordering.atomic_multicast as atomic_multicast
    import repro.reconfig.manager as reconfig_manager
    import repro.reconfig.transfer as reconfig_transfer
    import repro.smr.command as command
    import repro.smr.recovery as recovery
    command._cmd_counter = itertools.count()
    atomic_multicast._am_counter = itertools.count()
    recovery._recovery_counter = itertools.count()
    reconfig_manager._rid_counter = itertools.count()
    reconfig_transfer._transfer_counter = itertools.count()


def _node_of(cluster, name: str):
    """The :class:`ProtocolNode` behind ``name`` (server or oracle)."""
    if name in cluster.servers:
        return cluster.servers[name].node
    for oracle in cluster.oracles:
        if oracle.node.name == name:
            return oracle.node
    raise KeyError(f"no such node in this deployment: {name!r}")


def select_victim(cluster, role: str,
                  partition_index: int = 0) -> tuple[str, str]:
    """Resolve a victim role to ``(node_name, crash_mode)``.

    ``crash_mode`` is ``"restart"`` (amnesia + full recovery) for
    followers and ``"blackout"`` (network cut + reconnect) for speakers
    and oracle replicas. The ``oracle`` role degrades to ``speaker`` on
    schemes without an oracle group, so scheme-agnostic scenarios stay
    runnable everywhere.
    """
    if role not in VICTIM_ROLES:
        raise ValueError(f"unknown victim role {role!r}; "
                         f"pick one of {VICTIM_ROLES}")
    if role == "oracle" and not cluster.oracles:
        role = "speaker"
    if role == "oracle":
        # The oracle group's own speaker: consults and moves stall until
        # the reconnect, the hardest oracle fault the protocols must ride.
        names = sorted(o.node.name for o in cluster.oracles)
        return names[partition_index % len(names)], "blackout"
    partition = cluster.partitions[partition_index % len(cluster.partitions)]
    members = cluster.directory.members(partition)
    speaker = cluster.directory.speaker(partition)
    if role == "speaker":
        return speaker, "blackout"
    followers = [name for name in members if name != speaker]
    if not followers:    # single-replica partition: only a blackout works
        return speaker, "blackout"
    return followers[-1], "restart"


def crash_victim(cluster, victim: str) -> None:
    """Amnesia-crash server ``victim`` (object-level: the process dies)."""
    cluster.servers[victim].crash()


def recover_victim(cluster, victim: str):
    """Recover an amnesia-crashed server under the same name.

    One helper for every scheme (:meth:`Cluster.recover_server`) —
    classic SMR replicas come back through peer-snapshot recovery,
    partitioned replicas through the checkpoint-install path. Durable
    deployments (``ClusterConfig.durability``) restart from the victim's
    own disk instead, falling back to peers only for a gapped or
    corrupted local history (:mod:`repro.store.coldstart`). Returns the
    replacement server.
    """
    if getattr(cluster, "disks", None) is not None:
        return cluster.cold_restart_server(victim)
    return cluster.recover_server(victim)


def blackout_victim(cluster, victim: str) -> None:
    """Cut ``victim`` off the network; its in-memory state survives."""
    node = _node_of(cluster, victim)
    cluster.network.crash(node.name)


def reconnect_victim(cluster, victim: str) -> None:
    """End a blackout: rejoin the network and re-arm message dispatch."""
    _node_of(cluster, victim).reconnect()


def make_crash_restart(cluster, victim: str, mode: str):
    """The ``(crash, restart)`` closure pair for
    :meth:`~repro.net.failure.FailureInjector.crash_restart_at`."""
    if mode == "restart":
        return (lambda: crash_victim(cluster, victim),
                lambda: recover_victim(cluster, victim))
    if mode == "blackout":
        return (lambda: blackout_victim(cluster, victim),
                lambda: reconnect_victim(cluster, victim))
    raise ValueError(f"unknown crash mode {mode!r}")
