"""Overload campaign: goodput under saturation, with and without QoS.

The experiment behind figure 19 and ``python -m repro qos``. An open-loop
arrival process offers load at a fixed multiple of the cluster's nominal
execution capacity; every arrival is a single-partition command issued
through a pool of client proxies. Offered load is *open loop* — arrivals
do not wait for earlier commands to finish — so beyond saturation the
uncontrolled system accumulates queueing without bound and its *goodput*
(completions within the latency SLO) collapses, while raw completions
stay near capacity (reply caches make resends cheap). With
:class:`~repro.qos.QosConfig` armed, sequencer-side CoDel shedding plus
the clients' AIMD windows and retry budgets bound the queues, so goodput
plateaus at capacity instead.

Everything derives from the campaign seed (arrival jitter, key choice,
client backoff), so two runs with the same arguments produce identical
result dicts — the CLI byte-compares its canonical JSON in CI.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.faults import reset_id_counters
from repro.qos import QosConfig
from repro.resilience import RequestTimeout, RetryPolicy
from repro.sim import SeedStream
from repro.sim.monitor import nearest_rank
from repro.smr import Command, ExecutionModel

#: Keys preloaded into every cluster, spread over both partitions.
KEYS = tuple(f"k{i}" for i in range(8))

#: Per-command simulated execution cost (ms). With two partitions the
#: nominal cluster capacity is ``2 * 1000 / EXEC_MS`` commands/s.
EXEC_MS = 1.0

#: Latency SLO (ms) defining goodput: a completion slower than this is
#: throughput, not goodput.
SLO_MS = 75.0

#: Offered-load multipliers of nominal capacity, sub- to super-saturation.
MULTIPLIERS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.5)
SMOKE_MULTIPLIERS = (0.5, 2.0)


def _round(value: float, digits: int = 3) -> float:
    if value != value or math.isinf(value):  # NaN / inf -> JSON-safe zero
        return 0.0
    return round(value, digits)


def nominal_capacity_per_s(num_partitions: int = 2) -> float:
    """Commands/s the partitioned executors can sustain, pre-coordination."""
    return num_partitions * 1000.0 / EXEC_MS


def run_overload_point(multiplier: float, qos_on: bool, seed: int = 0,
                       scheme: str = "ssmr",
                       duration_ms: float = 2_000.0,
                       drain_ms: float = 1_000.0,
                       num_proxies: int = 32,
                       slo_ms: float = SLO_MS) -> dict:
    """Run one offered-load point and return its measurements.

    ``multiplier`` scales nominal capacity; ``qos_on`` arms the full QoS
    stack (admission + adaptive batching + AIMD + retry budget) versus
    the uncontrolled baseline (fixed batching, plain infinite retries).
    Arrivals stop at ``duration_ms``; the run then drains for
    ``drain_ms`` so in-flight commands can finish. Goodput counts
    completions within ``slo_ms``, per second of the arrival window.
    """
    reset_id_counters()
    assignment = {key: i % 2 for i, key in enumerate(KEYS)}
    tag = f"{scheme}/{multiplier}/{'on' if qos_on else 'off'}"
    cluster_seed = SeedStream(seed).child("overload").stream(tag) \
        .randrange(2 ** 31)
    retry = RetryPolicy(budget_ratio=0.2 if qos_on else None)
    cluster = Cluster(ClusterConfig(
        scheme=scheme, num_partitions=2, replicas_per_partition=2,
        seed=cluster_seed, retry_policy=retry,
        execution=ExecutionModel(base_ms=EXEC_MS, per_variable_ms=0.0),
        initial_assignment=assignment,
        # Rate-limit each partition's intake just under its executor
        # capacity (1000/EXEC_MS cmd/s); CoDel mops up queueing that the
        # bucket's burst allowance lets through.
        qos=QosConfig(rate_per_s=0.95 * 1000.0 / EXEC_MS)
        if qos_on else None))
    cluster.preload({key: 0 for key in KEYS})

    env = cluster.env
    proxies = [cluster.new_client(f"c{i}") for i in range(num_proxies)]
    offered_per_s = multiplier * nominal_capacity_per_s()
    mean_gap_ms = 1000.0 / offered_per_s
    rng = random.Random(f"overload/{seed}/{tag}")
    stats = {"arrivals": 0, "completed": 0, "good": 0, "gave_up": 0}
    latencies: list[float] = []
    # Latency of traffic served on its first protocol attempt — the
    # latency the admission controller is accountable for. All-completion
    # percentiles mix in the retry churn of the shed excess, which in an
    # open-loop overload grows with run length by construction.
    accepted: list[float] = []

    def one_op(client, key):
        invoked = env.now
        command = Command(op="incr", args={"key": key}, variables=(key,),
                          writes=(key,), client=client.name)
        try:
            # Open-loop pressure still honours the client's AIMD window:
            # the pacing wait counts against the op's SLO latency.
            yield from client.pace()
            reply = yield from client.run_command(command)
        except RequestTimeout:
            stats["gave_up"] += 1
            return
        latency = env.now - invoked
        stats["completed"] += 1
        latencies.append(latency)
        if reply.attempt == 1:
            accepted.append(latency)
        if latency <= slo_ms:
            stats["good"] += 1

    def arrivals():
        index = 0
        while True:
            # Seeded jitter around the mean keeps arrivals aperiodic
            # (mean of 0.5 + U[0,1) is 1.0) without a second knob.
            yield env.timeout(mean_gap_ms * (0.5 + rng.random()))
            if env.now >= duration_ms:
                return
            key = rng.choice(KEYS)
            client = proxies[index % num_proxies]
            env.process(one_op(client, key), name=f"op{index}")
            stats["arrivals"] += 1
            index += 1

    env.process(arrivals(), name="overload/arrivals")
    cluster.run(until=duration_ms + drain_ms)

    seconds = duration_ms / 1000.0
    shed = sum(a.shed for a in cluster.qos_admission.values())
    admitted = sum(a.admitted for a in cluster.qos_admission.values())
    return {
        "multiplier": multiplier,
        "qos": qos_on,
        "offered_per_s": _round(offered_per_s),
        "arrivals": stats["arrivals"],
        "completed": stats["completed"],
        "gave_up": stats["gave_up"],
        "goodput_per_s": _round(stats["good"] / seconds),
        "throughput_per_s": _round(stats["completed"] / seconds),
        "p50_ms": _round(nearest_rank(latencies, 50)),
        "p99_ms": _round(nearest_rank(latencies, 99)),
        "accepted": len(accepted),
        "accepted_p99_ms": _round(nearest_rank(accepted, 99)),
        "timeouts": sum(c.timeouts for c in cluster.clients),
        "resends": sum(c.resends for c in cluster.clients),
        "overload_replies": sum(c.overload_replies
                                for c in cluster.clients),
        "shed": shed,
        "admitted": admitted,
        "aimd_window_min": _round(min(
            (c.congestion.window for c in cluster.clients
             if c.congestion is not None), default=0.0)),
        "retry_budget_denied": sum(
            c.retry_budget.denied for c in cluster.clients
            if c.retry_budget is not None),
    }


def run_overload_campaign(seed: int = 0, smoke: bool = False,
                          scheme: str = "ssmr",
                          multipliers: Optional[tuple] = None) -> dict:
    """Sweep offered load with QoS off and on; return the result dict.

    The dict is stable under repetition (same seed, same arguments) and
    is what ``python -m repro qos`` serialises as canonical JSON.
    """
    if multipliers is None:
        multipliers = SMOKE_MULTIPLIERS if smoke else MULTIPLIERS
    duration_ms = 800.0 if smoke else 2_000.0
    drain_ms = 600.0 if smoke else 1_000.0
    # The proxy pool must be wide enough that the AIMD min-window pacing
    # floor (window 1 → one send per rtt_ms per proxy) clears the top
    # offered rate, or client-side queueing would cap goodput below the
    # admission controller's plateau.
    num_proxies = 24 if smoke else 32
    points = []
    for qos_on in (False, True):
        for multiplier in multipliers:
            points.append(run_overload_point(
                multiplier, qos_on, seed=seed, scheme=scheme,
                duration_ms=duration_ms, drain_ms=drain_ms,
                num_proxies=num_proxies))
    return {
        "format": "repro-qos/1",
        "scheme": scheme,
        "seed": seed,
        "smoke": smoke,
        "capacity_per_s": _round(nominal_capacity_per_s()),
        "slo_ms": SLO_MS,
        "duration_ms": duration_ms,
        "points": points,
        "summary": _summary(points),
    }


def _summary(points: list) -> dict:
    """Peak vs beyond-saturation goodput, per mode (the fig19 claim)."""
    out = {}
    for qos_on, label in ((False, "qos_off"), (True, "qos_on")):
        mode = [p for p in points if p["qos"] is qos_on]
        peak = max((p["goodput_per_s"] for p in mode), default=0.0)
        tail = [p for p in mode if p["multiplier"] > 1.0]
        tail_min = min((p["goodput_per_s"] for p in tail), default=peak)
        out[label] = {
            "peak_goodput_per_s": _round(peak),
            "tail_min_goodput_per_s": _round(tail_min),
            "tail_ratio": _round(tail_min / peak if peak else 0.0),
            "tail_p99_ms": _round(max(
                (p["p99_ms"] for p in tail), default=0.0)),
            "tail_accepted_p99_ms": _round(max(
                (p["accepted_p99_ms"] for p in tail), default=0.0)),
        }
    return out


def format_overload_report(data: dict) -> str:
    """Human-readable table for stderr / the committed results file."""
    lines = [
        f"overload campaign: scheme={data['scheme']} seed={data['seed']} "
        f"capacity={data['capacity_per_s']:.0f}/s slo={data['slo_ms']:.0f}ms"
        + (" (smoke)" if data["smoke"] else ""),
        f"{'mode':>4} {'xcap':>5} {'offered/s':>9} {'goodput/s':>9} "
        f"{'thru/s':>7} {'p50ms':>7} {'p99ms':>8} {'shed':>6} "
        f"{'resend':>6} {'ovld':>6}",
    ]
    for p in data["points"]:
        mode = "on" if p["qos"] else "off"
        lines.append(
            f"{mode:>4} {p['multiplier']:>5.2f} {p['offered_per_s']:>9.0f} "
            f"{p['goodput_per_s']:>9.1f} {p['throughput_per_s']:>7.1f} "
            f"{p['p50_ms']:>7.2f} {p['p99_ms']:>8.2f} {p['shed']:>6} "
            f"{p['resends']:>6} {p['overload_replies']:>6}")
    for label, s in data["summary"].items():
        lines.append(
            f"{label}: peak {s['peak_goodput_per_s']:.1f}/s, "
            f"beyond-saturation min {s['tail_min_goodput_per_s']:.1f}/s "
            f"(ratio {s['tail_ratio']:.2f}), tail p99 "
            f"{s['tail_p99_ms']:.1f}ms, accepted p99 "
            f"{s['tail_accepted_p99_ms']:.1f}ms")
    return "\n".join(lines)
