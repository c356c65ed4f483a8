"""Durability campaign: crash-consistent cold start, proven end to end.

The experiment behind figure 20 and ``python -m repro durability``. Four
sections, every one seeded and byte-deterministic (the CLI byte-compares
two same-seed runs in CI):

* **Replay equivalence** — for every scheme, a chaos-style workload
  runs to completion, the whole cluster loses power (every un-fsynced
  byte drops), cold-starts from disk alone with *zero* live peers, and
  the replayed state must hash-equal the live state it replaced:
  ``state == replay(wal)``, the fundamental WAL correctness property.
  A second workload wave then proves the revived cluster is live, and
  the end-state invariant suite must stay clean.
* **Power loss under live load** — the same whole-cluster power cycle,
  but *mid-workload* through the fuzzer's single execution path
  (:func:`~repro.fuzz.runner.run_schedule`): in-flight commands ride
  client retries across the outage and the recorded history must stay
  linearizable.
* **Fault ladder** — a follower's disk suffers a torn write *and* bit
  rot before an amnesia crash; its cold start must detect the damage
  (CRC, not trust), fall back to a peer state transfer
  (``peer_fallbacks`` rises), and converge to its speaker's exact
  state — corruption is never silently skipped.
* **Overhead & recovery time** — the same closed-loop workload with
  durability off and on (the fsync barrier's price, figure 20 left
  panel), and crash-to-converged recovery time of a cold local restart
  vs a full peer state transfer (right panel): the point of carrying a
  WAL is that restarting from local disk beats re-shipping the whole
  partition image.
"""

from __future__ import annotations

from repro.harness.cluster import Cluster
from repro.harness.faults import reset_id_counters
from repro.harness.invariants import cluster_invariants
from repro.harness.kvworkload import build_kv_cluster, cluster_seed, run_wave
from repro.reconfig.checkpoint import state_checksum
from repro.store import DurabilityConfig

#: Schemes the replay-equivalence section proves.
SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")
SMOKE_SCHEMES = ("smr", "dssmr")

#: Documented ceiling on the WAL's added latency per command, in
#: virtual ms. The execution barrier waits for at most one group-commit
#: window (``group_commit_ms`` = 1.0) plus one fsync (``fsync_ms`` =
#: 0.3 + the batch's bytes at 4096 bytes/ms); multi-partition commands
#: may pay it once per delivering group. Figure 20 and the perf gate
#: assert the *measured* mean overhead stays under this bound.
OVERHEAD_BOUND_MS = 4.0


def _build(scheme: str, seed: int, tag: str,
           durability: bool = True, extra_keys: int = 0) -> Cluster:
    reset_id_counters()
    return build_kv_cluster(
        scheme, cluster_seed(seed, "durability", tag), ballast=extra_keys,
        durability=DurabilityConfig() if durability else None)


def _member_image(server) -> dict:
    return {"store": server.store.snapshot(),
            "executed": list(server.executed)}


def _cluster_hash(cluster: Cluster) -> str:
    """One digest over every member's store and execution order."""
    return state_checksum({name: _member_image(cluster.servers[name])
                           for name in sorted(cluster.servers)})


# -- section 1: replay equivalence -------------------------------------------


def _replay_equivalence(scheme: str, seed: int, num_clients: int,
                        ops: int) -> dict:
    cluster = _build(scheme, seed, f"replay/{scheme}")
    _, done = run_wave(cluster, num_clients, ops, "w", prefix="w")
    cluster.run(until=1_500.0)
    completed_first = done.triggered
    live_hash = _cluster_hash(cluster)

    cluster.power_fail()
    cluster.run(until=cluster.env.now + 50.0)
    cluster.power_restore()
    cluster.run(until=cluster.env.now + 1_000.0)
    replayed_hash = _cluster_hash(cluster)

    status2, done2 = run_wave(cluster, 2, max(ops // 2, 3), "x", prefix="x")
    cluster.run(until=cluster.env.now + 1_500.0)
    violations = cluster_invariants(cluster)
    stats = cluster.disks.stats
    return {
        "scheme": scheme,
        "live_hash": live_hash,
        "replayed_hash": replayed_hash,
        "hash_equal": live_hash == replayed_hash,
        "first_wave_completed": completed_first,
        "second_wave_ops": status2["completed"],
        "second_wave_completed": done2.triggered,
        "cold_starts": stats.cold_starts,
        "peer_fallbacks": stats.peer_fallbacks,
        "records_replayed": stats.records_replayed,
        "violations": list(violations),
    }


# -- section 2: power loss under live load -----------------------------------


def _power_under_load(scheme: str, seed: int, num_clients: int,
                      ops: int) -> dict:
    from repro.fuzz.runner import run_schedule
    from repro.fuzz.schedule import FaultSchedule

    schedule = FaultSchedule(
        seed=seed, index=0, scheme=scheme,
        events=(
            {"kind": "drop", "at": 0.0, "end": 300.0, "fraction": 0.01},
            {"kind": "power_loss", "at": 90.0, "duration": 60.0},
        ),
        num_clients=num_clients, ops_per_client=ops,
        durability=True)
    run = run_schedule(schedule)
    return {
        "scheme": scheme,
        "schedule": schedule.describe(),
        "ops_completed": run.ops_completed,
        "ops_expected": run.ops_expected,
        "linearizability": run.linearizability,
        "violations": list(run.violations),
        "ok": run.ok,
    }


# -- section 3: torn write + bit rot -> peer-fallback ladder ------------------


def _fault_ladder(scheme: str, seed: int, num_clients: int,
                  ops: int) -> dict:
    cluster = _build(scheme, seed, f"ladder/{scheme}")
    run_wave(cluster, num_clients, ops, "w", prefix="w")
    cluster.run(until=500.0)

    partition = cluster.partitions[0]
    members = list(cluster.directory.members(partition))
    speaker = cluster.directory.speaker(partition)
    victim = next(m for m in members if m != speaker)
    disk = cluster.disks.disk(victim)
    disk.inject_bitrot()
    disk.tear_tail()
    cluster.servers[victim].crash()
    cluster.cold_restart_server(victim)

    run_wave(cluster, 2, max(ops // 2, 3), "x", prefix="x")
    cluster.run(until=cluster.env.now + 2_000.0)
    violations = cluster_invariants(cluster)
    stats = cluster.disks.stats
    victim_hash = state_checksum(_member_image(cluster.servers[victim]))
    speaker_hash = state_checksum(_member_image(cluster.servers[speaker]))
    return {
        "scheme": scheme,
        "victim": victim,
        "peer_fallbacks": stats.peer_fallbacks,
        "corrupt_records": stats.corrupt_records,
        "torn_tails": stats.torn_tails,
        "converged": victim_hash == speaker_hash,
        "violations": list(violations),
    }


# -- section 4: overhead and recovery time -----------------------------------


def _overhead(scheme: str, seed: int, num_clients: int, ops: int) -> dict:
    """Mean client-observed command latency, durability off vs on.

    The WAL's price is the execution barrier: a command's reply waits
    for its log entry to be durable. Group commit bounds the wait to
    one commit window plus one (batched) fsync per delivering group.
    """
    latency = {}
    for durable in (False, True):
        cluster = _build(scheme, seed, f"overhead/{scheme}",
                         durability=durable)
        status, done = run_wave(cluster, num_clients, ops, "w", prefix="w")
        cluster.run(until=4_000.0)
        key = "wal_on" if durable else "wal_off"
        latency[key] = (round(status["latency_ms"] / status["completed"], 3)
                        if done.triggered and status["completed"] else None)
    off, on = latency["wal_off"], latency["wal_on"]
    overhead = round(on - off, 3) if off is not None and on is not None \
        else None
    return {
        "scheme": scheme,
        "mean_latency_ms_wal_off": off,
        "mean_latency_ms_wal_on": on,
        "overhead_ms": overhead,
        "bound_ms": OVERHEAD_BOUND_MS,
        "within_bound": (overhead is not None
                         and overhead <= OVERHEAD_BOUND_MS),
    }


def _converge_ms(cluster: Cluster, victim: str, speaker: str,
                 deadline_ms: float = 3_000.0):
    """Virtual ms until the victim's image matches its speaker's."""
    start = cluster.env.now
    step = 5.0
    while cluster.env.now - start < deadline_ms:
        cluster.run(until=cluster.env.now + step)
        victim_hash = state_checksum(
            _member_image(cluster.servers[victim]))
        speaker_hash = state_checksum(
            _member_image(cluster.servers[speaker]))
        if victim_hash == speaker_hash:
            return round(cluster.env.now - start, 3)
    return None


def _recovery_time(scheme: str, seed: int, num_clients: int, ops: int,
                   mode: str, extra_keys: int) -> dict:
    """Crash-to-converged time: cold local restart vs peer transfer.

    The steady-state deployment shape: a durable checkpoint exists (the
    periodic checkpointer fires every ``checkpoint_every`` entries; the
    short measurement wave forces one explicitly) so a cold local
    restart is checkpoint-install plus a short WAL suffix — flat in the
    state-image size — while a peer transfer ships the whole image in
    flow-controlled chunks and grows with it.
    """
    cluster = _build(scheme, seed, f"recovery/{scheme}/{mode}",
                     extra_keys=extra_keys)
    run_wave(cluster, num_clients, ops, "w", prefix="w")
    cluster.run(until=500.0)

    partition = cluster.partitions[0]
    speaker = cluster.directory.speaker(partition)
    victim = next(m for m in cluster.directory.members(partition)
                  if m != speaker)
    cluster.servers[victim].checkpointer.capture(reason="measurement")
    cluster.run(until=cluster.env.now + 20.0)   # let the capture fsync
    cluster.servers[victim].crash()
    if mode == "cold_local":
        cluster.cold_restart_server(victim)
    else:
        cluster.recover_server(victim)
    converge = _converge_ms(cluster, victim, speaker)
    return {
        "scheme": scheme,
        "mode": mode,
        "extra_keys": extra_keys,
        "recovery_ms": converge,
        "violations": list(cluster_invariants(cluster)),
    }


# -- campaign ----------------------------------------------------------------


def run_durability_campaign(seed: int = 0, smoke: bool = False) -> dict:
    """Run every section; canonical, JSON-stable result dict."""
    schemes = SMOKE_SCHEMES if smoke else SCHEMES
    num_clients = 2 if smoke else 3
    ops = 5 if smoke else 10

    replay = [_replay_equivalence(s, seed, num_clients, ops)
              for s in schemes]
    power = [_power_under_load(s, seed, num_clients, ops)
             for s in (("dssmr",) if smoke else schemes)]
    ladder = [_fault_ladder(s, seed, num_clients, ops)
              for s in (("dssmr",) if smoke else ("smr", "dssmr"))]
    overhead = [_overhead(s, seed, num_clients, ops)
                for s in (("dssmr",) if smoke else ("ssmr", "dssmr"))]
    sizes = (0, 500) if smoke else (0, 500, 2000)
    recovery = [_recovery_time("dssmr", seed, num_clients, ops, mode,
                               extra_keys)
                for extra_keys in sizes
                for mode in ("cold_local", "peer_transfer")]

    replay_ok = all(r["hash_equal"] and r["second_wave_completed"]
                    and not r["violations"] for r in replay)
    power_ok = all(p["ok"] for p in power)
    ladder_ok = all(l["peer_fallbacks"] >= 1 and l["converged"]
                    and not l["violations"] for l in ladder)
    overhead_ok = all(o["within_bound"] for o in overhead)
    recovery_ok = all(r["recovery_ms"] is not None
                      and not r["violations"] for r in recovery)
    return {
        "seed": seed,
        "smoke": smoke,
        "replay_equivalence": replay,
        "power_under_load": power,
        "fault_ladder": ladder,
        "overhead": overhead,
        "recovery_time": recovery,
        "summary": {
            "replay_ok": replay_ok,
            "power_ok": power_ok,
            "ladder_ok": ladder_ok,
            "overhead_ok": overhead_ok,
            "recovery_ok": recovery_ok,
            "ok": (replay_ok and power_ok and ladder_ok
                   and overhead_ok and recovery_ok),
        },
    }


def format_durability_report(data: dict) -> str:
    lines = [f"durability campaign (seed {data['seed']}"
             f"{', smoke' if data['smoke'] else ''})", ""]
    lines.append("replay equivalence (power loss, zero live peers):")
    for r in data["replay_equivalence"]:
        lines.append(
            f"  {r['scheme']:9s} hash_equal={r['hash_equal']} "
            f"cold_starts={r['cold_starts']} "
            f"records_replayed={r['records_replayed']} "
            f"violations={len(r['violations'])}")
    lines.append("power loss under live load:")
    for p in data["power_under_load"]:
        lines.append(
            f"  {p['scheme']:9s} {p['ops_completed']}/{p['ops_expected']} "
            f"ops, {p['linearizability']}, "
            f"violations={len(p['violations'])}")
    lines.append("torn write + bit rot -> peer-fallback ladder:")
    for l in data["fault_ladder"]:
        lines.append(
            f"  {l['scheme']:9s} victim={l['victim']} "
            f"fallbacks={l['peer_fallbacks']} "
            f"converged={l['converged']} "
            f"violations={len(l['violations'])}")
    lines.append("WAL overhead (mean command latency):")
    for o in data["overhead"]:
        lines.append(
            f"  {o['scheme']:9s} off={o['mean_latency_ms_wal_off']}ms "
            f"on={o['mean_latency_ms_wal_on']}ms "
            f"overhead={o['overhead_ms']}ms "
            f"(bound {o['bound_ms']}ms)")
    lines.append("recovery time (crash -> converged with speaker):")
    for r in data["recovery_time"]:
        lines.append(f"  {r['mode']:13s} +{r['extra_keys']:4d} keys: "
                     f"{r['recovery_ms']}ms")
    summary = data["summary"]
    lines.append("")
    lines.append("summary: " + " ".join(
        f"{key}={value}" for key, value in sorted(summary.items())))
    return "\n".join(lines)
