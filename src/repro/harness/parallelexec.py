"""Parallel-execution campaign: equivalence proof + worker/conflict sweep.

The driver behind ``python -m repro parallelexec`` and figure 21 (E22).
Two halves:

* **Equivalence** — the P-SMR correctness property: for a *fixed delivered
  log*, conflict-aware parallel execution produces byte-identical state,
  execution history and replies to sequential execution. A closed-loop
  workload cannot test this (faster replies change submission times and
  hence the log itself), so the equivalence workload is *open-loop*: each
  client submits on a fixed virtual-time grid, spaced widely enough that
  every command's full lifetime fits inside its slot. Submission times —
  and therefore message order, latency draws and the ordered log — are
  then identical whether executors run sequentially or on worker pools,
  and the end states must match byte for byte.

* **Throughput sweep** — an executor-bound closed-loop workload against a
  single DS-SMR partition: many clients, a heavy execution cost model, and
  a hot-key conflict knob (each op hits a shared hot variable with
  probability ``conflict``, its client-private variable otherwise). Varying
  the worker count shows the parallel engine converting idle simulated
  cores into throughput until conflicts serialize it — the figure-21
  surface. The campaign gates on the headline claim: >= 2.5x single-
  partition throughput at 4 workers under 10% conflict.

Everything derives from the seed and runs in virtual time, so campaign
results are byte-deterministic: the CI smoke job runs the campaign twice
and compares the JSON payloads byte for byte.
"""

from __future__ import annotations

import json
import random
from typing import Optional

from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.faults import reset_id_counters
from repro.harness.kvworkload import build_kv_cluster, cluster_seed, kv_command
from repro.harness.report import format_table
from repro.reconfig.checkpoint import state_checksum
from repro.smr import Command, ExecutionConfig, ExecutionModel, ReplyStatus

RESULT_FORMAT = "repro-parallelexec/1"

#: Equivalence schedule: one command per client per slot. The slot must
#: swallow a command's whole lifetime (consult + order + execute + reply,
#: including a DS-SMR move/retry chain) in *both* executions, so that
#: submission times never depend on reply times.
SLOT_MS = 50.0
CLIENT_STAGGER_MS = 12.0
EQUIVALENCE_DEADLINE_MS = 60_000.0

#: Throughput sweep deployment: one partition, closed loop, executor-bound.
SWEEP_EXECUTION = ExecutionModel(base_ms=1.0, per_variable_ms=0.02)
HOT_KEY = "h0"

#: Headline gate (ISSUE acceptance): 4 workers, 10% conflict, vs sequential.
GATE_WORKERS = 4
GATE_CONFLICT = 0.1
GATE_MIN_SPEEDUP = 2.5

EQUIVALENCE_SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")


# -- equivalence ------------------------------------------------------------

def run_equivalence_case(scheme: str, seed: int,
                         parallel: Optional[ExecutionConfig],
                         num_clients: int = 4,
                         ops_per_client: int = 10) -> dict:
    """One open-loop run; returns the run's behavioural fingerprint.

    The fingerprint covers everything the P-SMR argument promises is
    invariant under parallel execution: per-replica stores, execution
    histories, reply caches, and the reply values each client observed.
    Reply *times* are deliberately excluded — finishing earlier is the
    entire point of the engine.
    """
    reset_id_counters()
    cluster = build_kv_cluster(
        scheme, cluster_seed(seed, scheme, "parallelexec"),
        parallel=parallel)
    env = cluster.env
    observed: list = []
    status = {"completed": 0, "finished": 0}
    done = env.event()

    def loop(client, index):
        rng = random.Random(f"parallelexec/{seed}/{scheme}/{index}")
        start = (index + 1) * CLIENT_STAGGER_MS
        yield env.timeout(start)
        for op in range(ops_per_client):
            slot = start + op * SLOT_MS
            if env.now < slot:
                yield env.timeout(slot - env.now)
            command = kv_command(rng)
            reply = yield from client.run_command(command)
            observed.append((client.name, op, command.op,
                             reply.status.value, repr(reply.value)))
            status["completed"] += 1
        status["finished"] += 1
        if status["finished"] == num_clients:
            done.succeed(None)

    for index in range(num_clients):
        client = cluster.new_client(f"c{index}")
        env.process(loop(client, index), name=f"parallelexec/c{index}")
    env.run(until=EQUIVALENCE_DEADLINE_MS)

    servers = sorted(cluster.servers.items())
    fingerprint = {
        "stores": {name: server.store.snapshot()
                   for name, server in servers},
        "executed": {name: list(server.executed)
                     for name, server in servers},
        "replies": {name: {cid: (reply.status.value, repr(reply.value))
                           for cid, reply
                           in sorted(server.replies._replies.items())}
                    for name, server in servers},
        "observed": sorted(observed),
    }
    return {
        "completed": status["completed"],
        "expected": num_clients * ops_per_client,
        "checksum": state_checksum(fingerprint),
    }


def run_equivalence(schemes=EQUIVALENCE_SCHEMES, seeds=(1, 2, 3),
                    workers=(1, 2, 4)) -> dict:
    """Sequential-vs-parallel fingerprint comparison, every case.

    Returns per-case rows plus an overall verdict; a single mismatched
    checksum anywhere fails the campaign gate.
    """
    cases = []
    all_equal = True
    for scheme in schemes:
        for seed in seeds:
            base = run_equivalence_case(scheme, seed, None)
            row = {
                "scheme": scheme,
                "seed": seed,
                "completed": base["completed"],
                "expected": base["expected"],
                "sequential_checksum": base["checksum"],
                "workers": {},
            }
            for count in workers:
                run = run_equivalence_case(
                    scheme, seed, ExecutionConfig(workers=count))
                equal = (run["checksum"] == base["checksum"]
                         and run["completed"] == base["completed"])
                row["workers"][str(count)] = {
                    "checksum": run["checksum"],
                    "equal": equal,
                }
                all_equal = all_equal and equal
            cases.append(row)
    return {"cases": cases, "all_equal": all_equal}


# -- throughput sweep -------------------------------------------------------

def run_throughput(workers: int, conflict: float, seed: int = 1,
                   num_clients: int = 24,
                   duration_ms: float = 3000.0) -> dict:
    """One closed-loop, executor-bound cell of the figure-21 surface.

    ``workers=0`` runs the sequential executor (``parallel=None``) — the
    baseline row of the sweep.
    """
    reset_id_counters()
    parallel = ExecutionConfig(workers=workers) if workers else None
    cluster = Cluster(ClusterConfig(
        scheme="dssmr", num_partitions=1, replicas_per_partition=2,
        seed=cluster_seed(seed, "parallelexec",
                          f"sweep/{workers}/{conflict}"),
        execution=SWEEP_EXECUTION, parallel=parallel))
    initial = {HOT_KEY: 0}
    initial.update({f"c{i}": 0 for i in range(num_clients)})
    cluster.preload(initial)
    env = cluster.env
    status = {"completed": 0}

    def loop(client, index):
        rng = random.Random(f"sweep/{seed}/{workers}/{conflict}/{index}")
        while True:
            key = HOT_KEY if rng.random() < conflict else f"c{index}"
            command = Command(op="incr", args={"key": key},
                              variables=(key,), writes=(key,))
            reply = yield from client.run_command(command)
            if (reply.status is ReplyStatus.OK
                    and env.now <= duration_ms):
                status["completed"] += 1

    for index in range(num_clients):
        client = cluster.new_client(f"w{index}")
        env.process(loop(client, index), name=f"sweep/w{index}")
    env.run(until=duration_ms)

    cell = {
        "workers": workers,
        "conflict": conflict,
        "completed": status["completed"],
        "throughput_kcps": round(status["completed"] / duration_ms, 4),
    }
    if parallel is not None:
        stats = cluster.exec_stats()
        cell["utilization"] = stats["utilization"]
        cell["stall_fraction"] = stats["stall_fraction"]
        cell["barriers"] = stats["barriers"]
    return cell


def run_sweep(workers=(1, 2, 4, 8), conflicts=(0.0, 0.1, 0.5, 1.0),
              seed: int = 1, num_clients: int = 24,
              duration_ms: float = 3000.0) -> dict:
    """The figure-21 surface: throughput over workers x conflict rate.

    Every conflict column includes the sequential baseline (``workers=0``)
    and per-cell speedup relative to it.
    """
    cells = []
    baselines = {}
    for conflict in conflicts:
        base = run_throughput(0, conflict, seed=seed,
                              num_clients=num_clients,
                              duration_ms=duration_ms)
        baselines[conflict] = base["throughput_kcps"]
        cells.append(base)
        for count in workers:
            cell = run_throughput(count, conflict, seed=seed,
                                  num_clients=num_clients,
                                  duration_ms=duration_ms)
            baseline = baselines[conflict]
            cell["speedup"] = (round(cell["throughput_kcps"] / baseline, 3)
                               if baseline > 0 else 0.0)
            cells.append(cell)
    return {"cells": cells}


def _gate(sweep: dict, equivalence: dict) -> dict:
    speedup = None
    for cell in sweep["cells"]:
        if (cell["workers"] == GATE_WORKERS
                and cell["conflict"] == GATE_CONFLICT):
            speedup = cell.get("speedup")
    passed = (equivalence["all_equal"] and speedup is not None
              and speedup >= GATE_MIN_SPEEDUP)
    return {
        "equivalent": equivalence["all_equal"],
        "speedup_at_gate": speedup,
        "gate_workers": GATE_WORKERS,
        "gate_conflict": GATE_CONFLICT,
        "min_speedup": GATE_MIN_SPEEDUP,
        "passed": passed,
    }


# -- campaign ---------------------------------------------------------------

def run_campaign(seed: int = 1, smoke: bool = False) -> dict:
    """The full parallel-execution campaign (equivalence + sweep + gate)."""
    if smoke:
        equivalence = run_equivalence(seeds=(seed,), workers=(1, 4))
        sweep = run_sweep(workers=(1, 2, 4), conflicts=(0.0, GATE_CONFLICT),
                          seed=seed, num_clients=16, duration_ms=1500.0)
    else:
        equivalence = run_equivalence(seeds=(seed, seed + 1, seed + 2))
        sweep = run_sweep(seed=seed)
    return {
        "format": RESULT_FORMAT,
        "seed": seed,
        "smoke": smoke,
        "equivalence": equivalence,
        "sweep": sweep,
        "gate": _gate(sweep, equivalence),
    }


def to_json(results: dict) -> str:
    """Canonical byte-deterministic serialisation (CI compares these)."""
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


def format_report(results: dict) -> str:
    lines = ["parallel execution campaign",
             f"  seed {results['seed']}"
             f"{' (smoke)' if results['smoke'] else ''}", ""]
    eq_rows = []
    for case in results["equivalence"]["cases"]:
        for count, run in sorted(case["workers"].items(),
                                 key=lambda item: int(item[0])):
            eq_rows.append([case["scheme"], str(case["seed"]), count,
                            "ok" if run["equal"] else "MISMATCH",
                            f"{case['completed']}/{case['expected']}"])
    lines.append(format_table(
        ["scheme", "seed", "workers", "state", "ops"], eq_rows))
    lines.append("")
    sweep_rows = []
    for cell in results["sweep"]["cells"]:
        sweep_rows.append([
            "seq" if cell["workers"] == 0 else str(cell["workers"]),
            f"{cell['conflict']:.2f}",
            f"{cell['throughput_kcps']:.4f}",
            f"{cell.get('speedup', 1.0):.3f}x" if cell["workers"] else "-",
            f"{cell.get('utilization', 0.0):.3f}" if cell["workers"] else "-",
            f"{cell.get('stall_fraction', 0.0):.3f}"
            if cell["workers"] else "-",
        ])
    lines.append(format_table(
        ["workers", "conflict", "kcmd/ms", "speedup", "util", "stall"],
        sweep_rows))
    gate = results["gate"]
    lines.append("")
    lines.append(
        f"gate: equivalence {'ok' if gate['equivalent'] else 'FAILED'}, "
        f"speedup {gate['speedup_at_gate']}x at {gate['gate_workers']} "
        f"workers / {gate['gate_conflict']:.0%} conflict "
        f"(need >= {gate['min_speedup']}x) -> "
        f"{'PASS' if gate['passed'] else 'FAIL'}")
    return "\n".join(lines)
