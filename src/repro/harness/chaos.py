"""Chaos campaign: randomized fault schedules against every scheme.

A preset of the schedule campaign (:mod:`repro.fuzz.campaign`). Each
scenario is drawn from a seeded generator — a mix of message drops,
latency spikes, duplication, bounded reordering, a network partition
window and a crash-restart whose victim is drawn by *role*: followers
die with amnesia and recover through :mod:`repro.smr.recovery` (classic
SMR) or checkpoint-install recovery (:mod:`repro.reconfig.recovery`);
speakers and oracle replicas suffer a network blackout and reconnect
with their in-memory ordering state intact (no recovery path can
rebuild a sequencer). :func:`generate_chaos_schedule` emits the scenario
for one scheme as a :class:`~repro.fuzz.schedule.FaultSchedule`, and the
campaign runs it against classic SMR, S-SMR and DS-SMR deployments whose
clients use the resilience layer (:mod:`repro.resilience`), then checks
the system's guarantees after the network heals:

* every client request completed before the deadline;
* the recorded history is linearizable (Wing–Gong checker);
* the shared end-state invariants (:mod:`repro.harness.invariants`):
  exactly-once execution, replica convergence, unique placement, oracle
  map accuracy and configuration-epoch agreement.

Everything — fault schedule, workload, backoff jitter — derives from the
campaign seed, so ``run_chaos_campaign(n, seed)`` is fully deterministic:
two runs produce byte-identical reports. Because a scenario *is* a fuzz
schedule, any chaos run can be shrunk or replayed with the fuzzer's
tooling. The CLI entry point is
``python -m repro chaos --scenarios N --seed S``.
"""

from __future__ import annotations

from typing import Sequence

from repro.fuzz.campaign import (FAULTS_OPS_DONE, FuzzCampaignResult,
                                 Preset, run_campaign, run_cell)
from repro.fuzz.generate import shape_nodes
from repro.fuzz.schedule import FaultSchedule
from repro.harness.faults import VICTIM_ROLES
from repro.harness.kvworkload import KEYS
from repro.sim import SeedStream

#: Schemes every scenario is run against.
CHAOS_SCHEMES = ("smr", "ssmr", "dssmr")

#: Virtual-time bounds of one scenario run (ms).
FAULT_END_MS = 300.0
DEADLINE_MS = 8_000.0


def _crash_victim(scheme: str, role: str, slot: int) -> tuple[str, str]:
    """Resolve a crash ``role`` to ``(node, mode)`` for ``scheme``.

    Mirrors :func:`repro.harness.faults.select_victim` but works on the
    *static* deployment shape (:func:`shape_nodes`), so the schedule is
    built before any cluster exists. The oracle role degrades to speaker
    on schemes without an oracle group.
    """
    shape = shape_nodes(scheme)
    if role == "oracle" and shape["oracles"]:
        pool, mode = shape["oracles"], "blackout"
    elif role == "follower":
        pool, mode = shape["followers"], "restart"
    else:
        pool, mode = shape["speakers"], "blackout"
    return pool[slot % len(pool)], mode


def _partition_islands(shape: dict) -> tuple[list, list]:
    """The two sides of a chaos split: partition against partition, or
    (classic SMR) the follower cut off from the sequencer."""
    if len(shape["partitions"]) > 1:
        return (list(shape["servers"][shape["partitions"][0]]),
                list(shape["servers"][shape["partitions"][1]]))
    members = shape["servers"][shape["partitions"][0]]
    return [members[0]], list(members[1:])


def generate_chaos_schedule(seed: int, index: int, scheme: str,
                            num_clients: int = 3,
                            ops_per_client: int = 8) -> FaultSchedule:
    """Draw scenario ``index`` of campaign ``seed`` for ``scheme``.

    A pure function. The draws do not depend on ``scheme``, so every
    scheme of a campaign faces the same scenario; crash events also
    record the drawn ``role`` and partition ``slot`` for the report.
    """
    rng = SeedStream(seed).child("scenario").stream(f"s{index}")
    end = FAULT_END_MS
    events: list[dict] = [{"kind": "drop", "at": 0.0, "end": end,
                           "fraction": round(rng.uniform(0.005, 0.025),
                                             4)}]
    if rng.random() < 0.5:
        events.append({"kind": "delay", "at": 0.0, "end": end,
                       "fraction": round(rng.uniform(0.05, 0.20), 3),
                       "spike_ms": round(rng.uniform(5.0, 20.0), 2)})
    if rng.random() < 0.5:
        events.append({"kind": "duplicate", "at": 0.0, "end": end,
                       "fraction": round(rng.uniform(0.05, 0.20), 3),
                       "copies": 1})
    if rng.random() < 0.5:
        events.append({"kind": "reorder", "at": 0.0, "end": end,
                       "fraction": round(rng.uniform(0.10, 0.30), 3),
                       "window_ms": round(rng.uniform(1.0, 4.0), 2)})
    if rng.random() < 0.4:
        start = round(rng.uniform(40.0, 180.0), 1)
        island_a, island_b = _partition_islands(shape_nodes(scheme))
        events.append({"kind": "partition", "at": start,
                       "end": round(start + rng.uniform(30.0, 60.0), 1),
                       "island_a": island_a, "island_b": island_b})
    if rng.random() < 0.4:
        time = round(rng.uniform(40.0, 150.0), 1)
        slot = rng.randrange(2)
        recover = round(time + rng.uniform(50.0, 100.0), 1)
        role = VICTIM_ROLES[rng.randrange(len(VICTIM_ROLES))]
        node, mode = _crash_victim(scheme, role, slot)
        events.append({"kind": "crash", "at": time, "node": node,
                       "mode": mode, "duration": recover - time,
                       "role": role, "slot": slot})
    return FaultSchedule(
        seed=seed, index=index, scheme=scheme, events=tuple(events),
        horizon_ms=end, deadline_ms=DEADLINE_MS, num_clients=num_clients,
        ops_per_client=ops_per_client, num_keys=len(KEYS))


def describe_chaos(schedule: FaultSchedule) -> str:
    """The chaos report's fault summary (the same for every scheme)."""
    events = {event["kind"]: event for event in schedule.events}
    parts = [f"drop={events['drop']['fraction']:.3f}"]
    if "delay" in events:
        parts.append(f"delay({events['delay']['fraction']:.2f},"
                     f"{events['delay']['spike_ms']:.0f}ms)")
    if "duplicate" in events:
        parts.append(f"dup({events['duplicate']['fraction']:.2f})")
    if "reorder" in events:
        parts.append(f"reorder({events['reorder']['fraction']:.2f})")
    if "partition" in events:
        parts.append(f"split[{events['partition']['at']:.0f},"
                     f"{events['partition']['end']:.0f})")
    if "crash" in events:
        crash = events["crash"]
        parts.append(f"crash({crash['role']}:p{crash['slot']}"
                     f"@{crash['at']:.0f})")
    return " ".join(parts)


def _title(data: dict) -> str:
    entries = data["schedules"]
    schemes = sorted({entry["scheme"] for entry in entries},
                     key=CHAOS_SCHEMES.index)
    scenarios = {entry["index"] for entry in entries}
    return (f"chaos campaign: seed={data['seed']}, "
            f"{len(scenarios)} scenario(s) x {'/'.join(schemes)}")


#: The chaos campaign's preset: no shrinking, resilience columns.
CHAOS = Preset(title=_title,
               columns=(*FAULTS_OPS_DONE,
                        ("timeouts", run_cell("timeouts")),
                        ("resends", run_cell("resends"))),
               describe=describe_chaos, shrinks=False)


def run_chaos_campaign(num_scenarios: int = 10, seed: int = 0,
                       schemes: Sequence[str] = CHAOS_SCHEMES,
                       num_clients: int = 3,
                       ops_per_client: int = 8) -> FuzzCampaignResult:
    """Run ``num_scenarios`` seeded scenarios against every scheme."""
    schedules = (generate_chaos_schedule(seed, index, scheme,
                                         num_clients=num_clients,
                                         ops_per_client=ops_per_client)
                 for index in range(num_scenarios) for scheme in schemes)
    return run_campaign(schedules, seed, preset=CHAOS)
