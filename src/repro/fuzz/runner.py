"""Schedule-driven run: build a deployment, apply the faults, check.

``run_schedule`` is the single execution path behind the fuzzer, the
replay artifact and the chaos and heal presets: reset the global id
counters, build the scheme's key-value deployment
(:mod:`repro.harness.kvworkload`), install every schedule event against
the simulation clock, run the seeded client wave to completion, heal at
the horizon, settle, then check

* completion — every client op finished before the virtual deadline;
* linearizability — the bounded Wing–Gong checker over the recorded
  history (an ``inconclusive`` verdict is reported but is *not* a
  violation, so the shrinker never chases checker-budget artifacts);
* the end-state invariant suite (:mod:`repro.harness.invariants`).

Runs are deterministic: the same schedule produces a byte-identical
:meth:`ScheduleRunResult.to_dict`, which is what ``--replay`` compares.

Events that do not apply to the deployment at hand — a crash naming a
node the scheme does not build, an amnesia restart aimed at a speaker,
a leave for a partition that never joined — are *skipped
deterministically* and counted in ``events_skipped`` instead of
erroring. That keeps hand-edited and shrunk schedules sound: removing
the join event from a join+leave schedule leaves a runnable (if
pointless) leave, not a crash of the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.checkers import (INCONCLUSIVE, VIOLATION, History,
                            KvSequentialSpec, check_linearizable_bounded)
from repro.fuzz.schedule import FaultSchedule, normalize_schedule
from repro.harness.cluster import Cluster
from repro.harness.faults import make_crash_restart, reset_id_counters
from repro.harness.invariants import cluster_invariants
from repro.harness.kvworkload import build_kv_cluster, cluster_seed, run_wave
from repro.net import FailureInjector
from repro.obs import CommandTracer, command_timeline, find_anomalies
from repro.obs.report import slowest_traces
from repro.qos import QosConfig
from repro.resilience import RequestTimeout, RetryPolicy
from repro.smr import Command, ExecutionConfig
from repro.store import DurabilityConfig

#: Settle time after the cooldown round before invariant checking (ms).
SETTLE_MS = 400.0

#: Test-only deliberate protocol bugs the runner can arm.  ``no_dedup``
#: disables the server reply caches, so a client resend under loss
#: double-executes its command — the fuzzer must find and shrink it.
INJECTABLE_BUGS = ("no_dedup",)


@dataclass
class ScheduleRunResult:
    """Outcome of one schedule run, canonically serialisable."""

    schedule: FaultSchedule
    ops_completed: int
    ops_expected: int
    finished_at: Optional[float]     # virtual ms; None if the run wedged
    timeouts: int
    resends: int
    messages_sent: int
    linearizability: str             # linearizable | violation | inconclusive
    violations: tuple[str, ...]
    events_skipped: tuple[str, ...] = ()
    trace_notes: tuple[str, ...] = ()
    # ClusterHealer.snapshot() for supervisor-enabled schedules (MTTR
    # accounting: detections, episodes, unavailability); None otherwise.
    heal: Optional[dict] = None
    # FlightRecorder.dump() — the last protocol events of every node.
    # Populated when the run violated an invariant (post-mortem context
    # rides the repro artifact) or ran a healing episode; None otherwise.
    flight: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """Canonical JSON shape — byte-compared by ``--replay``."""
        return {
            "schedule_digest": self.schedule.digest(),
            "scheme": self.schedule.scheme,
            "ops_completed": self.ops_completed,
            "ops_expected": self.ops_expected,
            "finished_at": self.finished_at,
            "timeouts": self.timeouts,
            "resends": self.resends,
            "messages_sent": self.messages_sent,
            "linearizability": self.linearizability,
            "violations": list(self.violations),
            "events_skipped": list(self.events_skipped),
            "trace_notes": list(self.trace_notes),
            "heal": self.heal,
            "flight": self.flight,
        }


def _build_cluster(schedule: FaultSchedule, keys: tuple,
                   tracer) -> Cluster:
    if (schedule.inject_bug is not None
            and schedule.inject_bug not in INJECTABLE_BUGS):
        raise ValueError(f"unknown injectable bug "
                         f"{schedule.inject_bug!r}; "
                         f"pick one of {INJECTABLE_BUGS}")
    # qos=True arms the full overload-control stack with a token bucket
    # low enough that the generator's burst rates actually shed (the
    # fuzzer's execution model leaves the executors far from saturated,
    # so CoDel alone would rarely fire) plus a retry budget on every
    # client — the maximal surface for QoS x fault interactions.
    return build_kv_cluster(
        schedule.scheme,
        cluster_seed(schedule.seed, schedule.scheme,
                     f"fuzz{schedule.index}"),
        keys, tracer=tracer,
        retry_policy=RetryPolicy(budget_ratio=0.2 if schedule.qos
                                 else None),
        dedup=schedule.inject_bug != "no_dedup",
        qos=QosConfig(rate_per_s=2_000.0) if schedule.qos else None,
        durability=DurabilityConfig() if schedule.durability else None,
        parallel=ExecutionConfig(workers=4) if schedule.parallel
        else None)


def _overload_burst(cluster: Cluster, event: dict, burst_index: int,
                    keys: tuple):
    """Generator: open-loop read-only surge over the event's window.

    Burst clients are real cluster clients (their AIMD windows and
    retry budgets are live), but their ops are *not* recorded in the
    linearizability history and do not count toward completion — the
    burst is environment, not workload. Ops are read-only gets, so the
    recorded history's sequential spec is unaffected, and a burst op
    that exhausts its retry budget after the window is simply dropped.
    """
    env = cluster.env
    rng = cluster.seeds.child("overload-burst").stream(f"b{burst_index}")
    clients = [cluster.new_client(f"burst{burst_index}x{i}")
               for i in range(event["clients"])]
    gap_ms = 1000.0 / event["rate_per_s"]

    def one_op(client, key):
        try:
            yield from client.pace()
            yield from client.run_command(
                Command(op="get", args={"key": key}, variables=(key,)))
        except RequestTimeout:
            pass

    index = 0
    while True:
        yield env.timeout(gap_ms * (0.5 + rng.random()))
        if env.now >= event["end"]:
            return
        env.process(
            one_op(clients[index % len(clients)], rng.choice(keys)),
            name=f"fuzz/burst{burst_index}-{index}")
        index += 1


def _apply_schedule(cluster: Cluster, injector: FailureInjector,
                    schedule: FaultSchedule, skipped: list,
                    reconfig_done: list, keys: tuple = ()) -> None:
    """Install every schedule event against the simulation clock."""
    env = cluster.env

    def skip(event, why: str) -> None:
        skipped.append(f"{event['kind']}@{event['at']:.0f}: {why}")

    for event in schedule.events:
        kind = event["kind"]
        if kind in FailureInjector.MESSAGE_EVENT_KINDS:
            injector.apply_event(event)
        elif kind == "crash":
            self_name, mode = event["node"], event["mode"]
            known = (self_name in cluster.servers
                     or any(o.node.name == self_name
                            for o in cluster.oracles))
            if not known:
                skip(event, f"no node {self_name!r} in a "
                            f"{schedule.scheme} deployment")
                continue
            if mode == "restart":
                speakers = {cluster.directory.speaker(p)
                            for p in cluster.partitions}
                if self_name not in cluster.servers or (
                        self_name in speakers
                        and not schedule.durability):
                    # Amnesia cannot resurrect sequencer state; only a
                    # blackout models a speaker/oracle outage — unless
                    # the deployment is durable, where the cold-start
                    # ladder reconciles the sequencer from its WAL.
                    skip(event, "restart (amnesia) is only valid for "
                                "follower replicas")
                    continue
            crash, restart = make_crash_restart(cluster, self_name, mode)
            if schedule.supervisor:
                # Autonomous mode: the harness only injects the fault.
                # No restart is scheduled at all — detection and recovery
                # are entirely the supervisor's job — and the crash
                # bypasses the injector so heal_all cannot resurrect the
                # victim behind the supervisor's back.
                env.schedule_callback(event["at"], crash)
            else:
                injector.crash_restart_at(event["at"], self_name,
                                          event["duration"],
                                          crash=crash, restart=restart)
        elif kind in ("join", "leave"):
            if cluster.reconfig is None:
                skip(event, f"{schedule.scheme} is not elastic")
                continue
            partition = event["partition"]
            done = env.event()
            reconfig_done.append(done)

            def start_reconfig(kind=kind, partition=partition, done=done):
                def run():
                    joined = partition in cluster.partitions
                    if kind == "join" and joined:
                        skipped.append(f"join@{env.now:.0f}: "
                                       f"{partition} already joined")
                    elif kind == "leave" and not joined:
                        skipped.append(f"leave@{env.now:.0f}: "
                                       f"{partition} not in the "
                                       f"configuration")
                    elif kind == "join":
                        yield from cluster.grow(partition)
                    else:
                        yield from cluster.shrink(partition)
                    done.succeed(None)
                env.process(run(), name=f"fuzz/{kind}-{partition}")

            env.schedule_callback(event["at"], start_reconfig)
        elif kind == "overload":
            burst_index = len([e for e in schedule.events
                               if e["kind"] == "overload"
                               and e["at"] < event["at"]])

            def start_burst(event=event, burst_index=burst_index):
                env.process(_overload_burst(cluster, event, burst_index,
                                            keys),
                            name=f"fuzz/burst{burst_index}")

            env.schedule_callback(event["at"], start_burst)
        elif kind in ("disk_torn_write", "disk_bitrot"):
            if cluster.disks is None:
                skip(event, "durability is not armed")
                continue
            node, method = event["node"], (
                "tear_tail" if kind == "disk_torn_write"
                else "inject_bitrot")

            def corrupt(node=node, method=method):
                getattr(cluster.disks.disk(node), method)()

            env.schedule_callback(event["at"], corrupt)
        elif kind == "disk_slow":
            if cluster.disks is None:
                skip(event, "durability is not armed")
                continue
            node, factor = event["node"], event["factor"]

            def slow_down(node=node, factor=factor):
                cluster.disks.disk(node).slow_factor = factor

            def speed_up(node=node):
                cluster.disks.disk(node).slow_factor = 1.0

            env.schedule_callback(event["at"], slow_down)
            env.schedule_callback(event["end"], speed_up)
        elif kind == "power_loss":
            if cluster.disks is None:
                skip(event, "durability is not armed")
                continue
            if schedule.supervisor:
                # The healer's replace actions would race the restore:
                # a deployment with zero live peers has nothing for the
                # supervisors to recover from anyway.
                skip(event, "power_loss and the heal supervisor are "
                            "mutually exclusive")
                continue

            def power_cycle(event=event):
                cluster.power_fail()
                env.schedule_callback(event["duration"],
                                      cluster.power_restore)

            env.schedule_callback(event["at"], power_cycle)
        else:
            raise ValueError(f"unknown event kind {kind!r}")


def run_schedule(schedule: FaultSchedule,
                 linearizability_budget: int = 200_000
                 ) -> ScheduleRunResult:
    """Run one fault schedule end to end and check every invariant."""
    schedule = normalize_schedule(schedule)
    reset_id_counters()
    keys = tuple(f"k{i}" for i in range(max(schedule.num_keys, 2)))
    tracer = CommandTracer()
    cluster = _build_cluster(schedule, keys, tracer)
    env = cluster.env

    healer = None
    if schedule.supervisor:
        # Late import: repro.heal lazily wires back into ordering/harness.
        from repro.heal.healer import ClusterHealer
        healer = ClusterHealer(cluster)

    injector = FailureInjector(
        env, cluster.network,
        cluster.seeds.child(f"fuzz{schedule.index}"))
    skipped: list[str] = []
    reconfig_done: list = []
    _apply_schedule(cluster, injector, schedule, skipped, reconfig_done,
                    keys=keys)
    # A clean network for the post-fault phase: the invariants are
    # end-state guarantees, and trailing in-window faults would race them.
    env.schedule_callback(schedule.horizon_ms, injector.heal_all)

    # -- workload ----------------------------------------------------------
    history = History()
    status, workload_done = run_wave(
        cluster, schedule.num_clients, schedule.ops_per_client,
        f"{schedule.seed}/{schedule.scheme}/fuzz{schedule.index}",
        history=history, keys=keys)
    end_marker = {"at": None}

    def driver():
        yield workload_done
        # In-flight joins/leaves must land before the end-state check —
        # retries run forever, so they complete once the network heals.
        for done in reconfig_done:
            yield done
        if env.now < schedule.horizon_ms + 10.0:
            yield env.timeout(schedule.horizon_ms + 10.0 - env.now)
        # Cooldown round on a fresh client: new log entries make any
        # replica with a trailing log gap detect it and request backfill.
        cooldown = cluster.new_client("cool")
        for key in keys:
            yield from cooldown.run_command(
                Command(op="get", args={"key": key}, variables=(key,)))
        yield env.timeout(SETTLE_MS)
        if healer is not None:
            # End the healing loop so its heartbeat/detector timers stop
            # generating events; any in-flight state transfer it started
            # still runs to completion before the end-state checks.
            healer.stop()
        end_marker["at"] = env.now

    env.process(driver(), name="fuzz/driver")
    env.run(until=schedule.deadline_ms)
    if healer is not None:
        healer.stop()   # a wedged run never reached the driver's stop

    # -- checks ------------------------------------------------------------
    violations: list[str] = []
    expected = schedule.num_clients * schedule.ops_per_client
    linearizability = INCONCLUSIVE
    if status["completed"] != expected or end_marker["at"] is None:
        violations.append(f"only {status['completed']}/{expected} ops "
                          f"completed before the deadline")
    else:
        linearizability = check_linearizable_bounded(
            history, KvSequentialSpec({key: 0 for key in keys}),
            max_nodes=linearizability_budget)
        if linearizability == VIOLATION:
            violations.append("history is not linearizable")

    violations.extend(cluster_invariants(cluster))

    trace_notes: list[str] = []
    if violations:
        stuck = tracer.open_traces()
        if stuck:
            trace_notes.append(
                "stuck commands (root span never closed): "
                + ", ".join(stuck[:6])
                + (f" (+{len(stuck) - 6} more)" if len(stuck) > 6 else ""))
        trace_notes.extend(find_anomalies(tracer.spans)[:4])
        slow = slowest_traces(tracer.spans, 1)
        if slow:
            trace_notes.append(command_timeline(tracer.spans, slow[0]))

    heal = healer.snapshot() if healer is not None else None
    flight = None
    if violations or (heal is not None and heal.get("episodes")):
        # Post-mortem context: the flight recorder's last-events rings
        # from *every* node ride the repro artifact, so a shrunk repro
        # shows what each node saw right before the violation.
        flight = cluster.network.flight.dump()

    return ScheduleRunResult(
        schedule=schedule,
        ops_completed=status["completed"], ops_expected=expected,
        finished_at=end_marker["at"],
        timeouts=sum(c.timeouts for c in cluster.clients),
        resends=sum(c.resends for c in cluster.clients),
        messages_sent=cluster.network.messages_sent,
        linearizability=linearizability,
        violations=tuple(violations),
        events_skipped=tuple(skipped),
        trace_notes=tuple(trace_notes),
        heal=heal,
        flight=flight)
