"""Wall-clock Chirper benchmark: host time and virtual time, per layer.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload chirper-post-dssmr --seed 1 \\
        --seconds 30 --trace 0

One run repeats *rounds* of the named workload until ``--seconds`` of
host time are spent. A round builds the deployment from scratch (graph,
assignment, cluster, preload, 32 closed-loop clients), runs
``Cluster.run`` for the workload's virtual duration, drains in-flight
commands for a grace period, then checks the replicas' end state.
Rounds cycle through the workload's ``subseeds`` sub-seeds derived from
``--seed``; the virtual metrics pool the first round of each sub-seed,
and every run makes at least one more round than it has sub-seeds, so
some sub-seed always runs twice. Rounds of one sub-seed must produce the
same virtual-results digest; a mismatch is a determinism failure.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced reference round and then traced rounds (see ``spans.py``) and
reports the per-layer metrics. Every metric is printed as a
``metric <name> <value> <unit>`` line; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every round passed the
correctness check and the determinism guard.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"

#: Virtual ms after the end time in which in-flight commands complete
#: before the end state is checked (the closed loop issues nothing new).
GRACE_MS = 2000.0
#: Sub-seed ``j`` of ``--seed s`` is ``s * SUBSEED_STRIDE + j``.
SUBSEED_STRIDE = 1000
#: Imports happen once per process, so besides this process's own import
#: time the run times the same imports in this many fresh interpreters
#: and reports the median.
IMPORT_SAMPLES = 4
_IMPORT_PROBE = """
import sys, time
began = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
print(time.perf_counter() - began)
"""
#: Each timed ``Cluster.run`` is cut into virtual slices of about this
#: many host seconds, with the calibration loop timed before, between and
#: after them (host speed changes within a second, so samples are dense).
SLICE_S = 0.25
#: The traced run's span self times must add up to its wall time within
#: this share; the rest is kernel loop time outside ``Environment.step``.
SELF_TIME_TOLERANCE = 0.10

LAYERS = ("sim", "net", "ordering", "smr", "ssmr", "core", "apps", "obs",
          "store", "reconfig")

#: name -> unit, in print order.
END_TO_END = {
    "cmds_per_ref_s": "cmd/ref-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "vtput_cps": "cmd/virtual-s",
    "vlat_p50_ms": "ms",
    "vlat_p99_ms": "ms",
}

PER_LAYER = {
    "sim.events_per_cmd": "event/cmd",
    "sim.us_per_event": "us/event",
    "net.msgs_per_cmd": "msg/cmd",
    "net.bytes_per_cmd": "B/cmd",
    "net.us_per_msg": "us/msg",
    "ordering.submits_per_cmd": "msg/cmd",
    "ordering.decides_per_cmd": "msg/cmd",
    "ordering.rmcast_per_cmd": "msg/cmd",
    "core.consults_per_cmd": "consult/cmd",
    "core.moves_per_cmd": "move/cmd",
    "core.retries_per_cmd": "retry/cmd",
    "core.fallbacks_per_cmd": "fallback/cmd",
    "core.cache_hit_ratio": "ratio",
    "core.oracle_busy_frac": "ratio",
    "core.oracle_queue_peak": "count",
    "smr.queue_peak": "count",
    "smr.exec_utilization": "ratio",
    "smr.exec_stall_frac": "ratio",
    "apps.applies_per_cmd": "apply/cmd",
    "apps.us_per_apply": "us/apply",
    "obs.records_per_cmd": "record/cmd",
    "obs.us_per_record": "us/record",
    "store.wal_appends_per_cmd": "append/cmd",
    "store.fsyncs_per_cmd": "fsync/cmd",
    "store.ckpt_saves": "count",
    "reconfig.captures": "count",
    "reconfig.ms_per_capture": "ms/capture",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "vt.net_ms": "ms/cmd",
    "vt.order_ms": "ms/cmd",
    "vt.execute_ms": "ms/cmd",
    "vt.oracle_ms": "ms/cmd",
    "vt.consult_ms": "ms/cmd",
    "vt.move_ms": "ms/cmd",
    "trace.overhead_frac": "ratio",
}


@dataclass
class RoundResult:
    setup_s: float
    run_s: float          # host seconds of the timed Cluster.run slices
    ref_s: float          # the same time in reference seconds
    total_s: float
    issued: int
    completed_ok: int
    sub_seed: int
    counts: dict
    window: list          # sorted post-warmup latencies (virtual ms)
    digest: str
    violations: list
    layers: dict = field(default_factory=dict)


# -- one round ---------------------------------------------------------------

def nearest_rank(ordered: list, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[rank], len(ordered) - rank - 1


def post_warmup(cluster, vtime_ms: float) -> list:
    """Sorted latencies of commands completed after the warmup (the first
    third of the run) and before the end time."""
    warmup = vtime_ms / 3
    completions = cluster.latency.completions
    return sorted(v for t, v in zip(completions.times, completions.values)
                  if warmup <= t <= vtime_ms)


def virtual_metrics(windows: list, vtime_ms: float) -> tuple[dict, int, int]:
    """Virtual throughput and latency pooled over post-warmup windows;
    also the sample count and the samples beyond p99."""
    pooled = sorted(v for window in windows for v in window)
    if not pooled:
        raise RuntimeError("no command completed after warmup")
    p50, _ = nearest_rank(pooled, 50)
    p99, beyond = nearest_rank(pooled, 99)
    seconds = len(windows) * (vtime_ms * 2 / 3) / 1000.0
    return ({"vtput_cps": len(pooled) / seconds,
             "vlat_p50_ms": p50, "vlat_p99_ms": p99}, len(pooled), beyond)


def layer_counts(cluster, vtime_ms: float) -> dict:
    """Counters read from public state at the end of the timed window."""
    scrape = cluster.registry.scrape()
    kinds = cluster.network.sent_by_kind
    oracle = cluster.oracle
    exec_stats = cluster.exec_stats()
    return {
        "completed": cluster.latency.count,
        "messages": cluster.network.messages_sent,
        "bytes": cluster.network.bytes_sent,
        "submits": sum(n for k, n in kinds.items() if k.endswith("/submit")),
        "decides": sum(n for k, n in kinds.items() if k.endswith("/decide")),
        "rmcast": kinds.get("rmcast", 0),
        "consults": cluster.total_consults(),
        "moves": cluster.moves_total(),
        "retries": cluster.total_retries(),
        "fallbacks": cluster.total_fallbacks(),
        "cache_hits": cluster.total_cache_hits(),
        "oracle_busy_frac": (oracle.busy.busy_fraction(0.0, vtime_ms)
                             if oracle is not None else 0.0),
        "oracle_queue_peak": scrape["oracle.queue_peak"],
        "queue_peak": max(server.queue_peak
                          for server in cluster.servers.values()),
        "exec_utilization": exec_stats.get("utilization", 0.0),
        "exec_stall_frac": exec_stats.get("stall_fraction", 0.0),
        "wal_appends": scrape.get("store.appends", 0),
        "fsyncs": scrape.get("store.fsyncs", 0),
        "ckpt_saves": scrape.get("store.checkpoints_saved", 0),
        "captures": scrape["reconfig.checkpoints"],
    }


def vt_split(profiler) -> dict:
    """Attributed virtual ms from the profiler's cost tree (totals)."""
    paths = profiler.paths()
    return {
        "net": profiler.cost_of("net"),
        "order": sum(profiler.cost_of(*p) for p in paths
                     if p[-1] == "order"),
        "execute": sum(profiler.cost_of(*p) for p in paths
                       if p[0] == "replica" and (
                           p[-1] == "execute"
                           or p[-1].startswith("exec.run"))),
        "oracle": profiler.cost_of("oracle"),
        "consult": profiler.cost_of("client", "consult"),
        "move": profiler.cost_of("client", "move"),
    }


def timed_run(cluster, vtime_ms: float) -> tuple[float, float]:
    """Run to ``vtime_ms`` in slices; return its host seconds and its
    reference seconds (each slice scaled by the mean of the reference
    loop times taken just before and after it)."""
    from calibrate import NOMINAL_S, loop_seconds

    run_s = ref_s = 0.0
    now, step = 0.0, vtime_ms / 64
    before = loop_seconds()
    while now < vtime_ms:
        now = min(vtime_ms, now + step)
        started = time.perf_counter()
        cluster.run(until=now)
        elapsed = time.perf_counter() - started
        after = loop_seconds()
        run_s += elapsed
        ref_s += elapsed * NOMINAL_S / ((before + after) / 2)
        before = after
        # Slice boundaries never change the simulation: Cluster.run
        # stops and resumes exactly at any virtual time.
        step *= min(4.0, max(0.25, SLICE_S / max(elapsed, 1e-6)))
    return run_s, ref_s


def run_round(workload, seed: int, vtime_ms: float, tracer=None,
              tamper=None) -> RoundResult:
    from checks import check_replicas, digest
    from repro.harness.faults import reset_id_counters

    # Garbage of the previous round is collected now, not inside the
    # timed window of this one.
    gc.collect()
    began = time.perf_counter()
    reset_id_counters()
    rnd = workload.build(seed, vtime_ms)
    setup_s = time.perf_counter() - began
    if tracer is not None:
        tracer.clear()
    run_s, ref_s = timed_run(rnd.cluster, vtime_ms)
    counts = layer_counts(rnd.cluster, vtime_ms)
    layers = {}
    if tracer is not None:
        layers = tracer.summary(len(tracer))
        layers["vt"] = vt_split(tracer.profiler)
    rnd.cluster.run(until=vtime_ms + GRACE_MS)
    if tamper is not None:
        tamper(rnd.cluster)
    violations, state = check_replicas(rnd.cluster)
    window = post_warmup(rnd.cluster, vtime_ms)
    issued, completed_ok = rnd.counted.issued, rnd.completed_ok()
    fingerprint = digest({
        "virtual": virtual_metrics([window], vtime_ms),
        "messages_sent": counts["messages"], "issued": issued,
        "completed": completed_ok, "state": state})
    return RoundResult(
        setup_s=setup_s, run_s=run_s, ref_s=ref_s,
        total_s=time.perf_counter() - began, issued=issued,
        completed_ok=completed_ok, sub_seed=seed, counts=counts,
        window=window, digest=fingerprint, violations=violations,
        layers=layers)


# -- a run: rounds until the time budget is spent ----------------------------

def rounds_until(budget_s: float, make_round, minimum: int) -> list:
    """Call ``make_round(index)`` while another round fits in ``budget_s``
    (and at least ``minimum`` times)."""
    began = time.perf_counter()
    results = [make_round(0)]
    while True:
        elapsed = time.perf_counter() - began
        typical = statistics.median(r.total_s for r in results)
        if len(results) >= minimum and elapsed + typical > budget_s:
            return results
        results.append(make_round(len(results)))


def import_times() -> list[float]:
    """Import time of the benchmark's modules in fresh interpreters."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times


def end_to_end(rounds: list, virtual: dict, import_s: float) -> dict:
    return {
        "cmds_per_ref_s": statistics.median(
            r.counts["completed"] / r.ref_s for r in rounds),
        "setup_s": import_s + statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **virtual,
    }


def per_layer(reference, traced: list) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds (counts are deterministic,
    so they come from the last round; times are medians over rounds)."""
    last = traced[-1]
    c = last.counts
    cmds = c["completed"]
    calls = last.layers["calls"]

    def calls_of(suffix: str) -> int:
        return sum(n for name, n in calls.items() if name.endswith(suffix))

    run_s = statistics.median(r.run_s for r in traced)
    spanned = {layer: statistics.median(
        r.layers["self_s"].get(layer, 0.0) for r in traced)
        for layer in set().union(*(r.layers["self_s"] for r in traced))}
    # sim also owns the kernel loop time between Environment.step spans.
    unspanned = statistics.median(
        r.run_s - r.layers["root_s"] for r in traced)
    self_s = dict(spanned)
    self_s["sim"] = self_s.get("sim", 0.0) + unspanned
    events = calls_of(":Environment.step")
    applies = calls_of(":ChirperStateMachine.apply")
    records = calls_of(":FlightRecorder.record")
    vt = last.layers["vt"]
    metrics = {
        "sim.events_per_cmd": events / cmds,
        "sim.us_per_event": self_s["sim"] / events * 1e6,
        "net.msgs_per_cmd": c["messages"] / cmds,
        "net.bytes_per_cmd": c["bytes"] / cmds,
        "net.us_per_msg": self_s.get("net", 0.0) / c["messages"] * 1e6,
        "ordering.submits_per_cmd": c["submits"] / cmds,
        "ordering.decides_per_cmd": c["decides"] / cmds,
        "ordering.rmcast_per_cmd": c["rmcast"] / cmds,
        "core.consults_per_cmd": c["consults"] / cmds,
        "core.moves_per_cmd": c["moves"] / cmds,
        "core.retries_per_cmd": c["retries"] / cmds,
        "core.fallbacks_per_cmd": c["fallbacks"] / cmds,
        "core.cache_hit_ratio": (
            c["cache_hits"] / (c["cache_hits"] + c["consults"])
            if c["cache_hits"] + c["consults"] else 0.0),
        "core.oracle_busy_frac": c["oracle_busy_frac"],
        "core.oracle_queue_peak": c["oracle_queue_peak"],
        "smr.queue_peak": c["queue_peak"],
        "smr.exec_utilization": c["exec_utilization"],
        "smr.exec_stall_frac": c["exec_stall_frac"],
        "apps.applies_per_cmd": applies / cmds,
        "apps.us_per_apply": (self_s.get("apps", 0.0) / applies * 1e6
                              if applies else 0.0),
        "obs.records_per_cmd": records / cmds,
        "obs.us_per_record": (self_s.get("obs", 0.0) / records * 1e6
                              if records else 0.0),
        "store.wal_appends_per_cmd": c["wal_appends"] / cmds,
        "store.fsyncs_per_cmd": c["fsyncs"] / cmds,
        "store.ckpt_saves": c["ckpt_saves"],
        "reconfig.captures": c["captures"],
        "reconfig.ms_per_capture": (
            self_s.get("reconfig", 0.0) / c["captures"] * 1e3
            if c["captures"] else 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.self_frac"] = self_s.get(layer, 0.0) / run_s
    for stage, total in vt.items():
        metrics[f"vt.{stage}_ms"] = total / cmds
    metrics["trace.overhead_frac"] = (
        statistics.median(r.ref_s for r in traced) / reference.ref_s - 1.0)
    extras = {
        "spanned_self_s": sum(spanned.values()),
        "traced_run_s": run_s,
        "unspanned_frac": unspanned / run_s,
        "other_layers": {k: v for k, v in sorted(self_s.items())
                         if k not in LAYERS},
        "bases": {"cmds": cmds, "events": events, "applies": applies,
                  "records": records, **c},
    }
    return metrics, extras


# -- entry point -------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of rounds to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--vtime-ms", type=float, default=None,
                        help="override the workload's virtual duration "
                             "(self-tests use tiny ones)")
    return parser.parse_args(argv)


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import digest as digest_of
    from workloads import WORKLOADS
    own_import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    vtime_ms = args.vtime_ms or workload.vtime_ms
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {vtime_ms:g} virtual ms per round, "
          f"budget {args.seconds:g} s, trace {args.trace}")

    subseeds = 1 if args.trace else workload.subseeds

    def one(index, tracer=None):
        seed = args.seed * SUBSEED_STRIDE + index % subseeds
        return run_round(workload, seed, vtime_ms, tracer=tracer)

    if args.trace:
        # One sub-seed: every traced round repeats the reference round.
        from spans import SpanTracer
        reference = one(0)
        tracer = SpanTracer()
        tracer.install()
        try:
            traced = rounds_until(args.seconds - reference.total_s,
                                  lambda index: one(index, tracer),
                                  minimum=1)
        finally:
            tracer.uninstall()
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}.npz"
        tracer.write(spans_path, traced[-1].layers["spans"])
        rounds = [reference] + traced
    else:
        rounds = rounds_until(args.seconds, one, minimum=subseeds + 1)

    correct = True
    for index, r in enumerate(rounds):
        for violation in r.violations:
            print(f"CORRECTNESS round {index}: {violation}")
            correct = False
    by_seed: dict[int, set] = {}
    for r in rounds:
        by_seed.setdefault(r.sub_seed, set()).add(r.digest)
    for seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            print(f"DETERMINISM: rounds of sub-seed {seed} gave "
                  f"{len(digests)} different virtual-results digests: "
                  f"{sorted(digests)}")
            correct = False
    pool = rounds[:subseeds]
    issued = sum(r.issued for r in pool)
    completed = sum(r.completed_ok for r in pool)
    virtual, samples, beyond = virtual_metrics([r.window for r in pool],
                                               vtime_ms)
    print(f"rounds {len(rounds)}, sub-seeds {[r.sub_seed for r in pool]}; "
          f"virtual-results digest "
          f"{digest_of([r.digest for r in pool])}")
    print(f"commands issued {issued}, completed {completed}, cmd_fail_frac "
          f"{(issued - completed) / issued!r} ratio")

    import_s = statistics.median([own_import_s] + import_times())
    measured = rounds if not args.trace else [reference]
    e2e = end_to_end(measured, virtual, import_s)
    raw = statistics.median(r.counts["completed"] / r.run_s
                            for r in measured)
    print_metric("cmds_per_wall_s", raw, "cmd/s",
                 "raw host seconds; not bounded, host speed drifts")
    notes = {
        "cmds_per_ref_s": "median of %d rounds, %d cmds/round" % (
            len(measured), rounds[0].counts["completed"]),
        "setup_s": f"median imports {import_s:.3f} s of "
                   f"{IMPORT_SAMPLES + 1} + median round set-up",
        "vtput_cps": f"n={samples} post-warmup",
        "vlat_p50_ms": f"n={samples}",
        "vlat_p99_ms": f"n={samples}, {beyond} beyond",
    }
    for name, unit in END_TO_END.items():
        print_metric(name, e2e[name], unit, notes.get(name, ""))
    reported = {name: {"value": e2e[name], "unit": unit}
                for name, unit in END_TO_END.items()}

    if args.trace:
        layer, extras = per_layer(reference, traced)
        bases = extras["bases"]
        print(f"traced rounds {len(traced)}; spans written to "
              f"{spans_path.relative_to(ROOT)}")
        print(f"bases: {json.dumps(bases, sort_keys=True)}")
        for name, unit in PER_LAYER.items():
            print_metric(name, layer[name], unit)
        print(f"self time: spans {extras['spanned_self_s']:.4f} s of "
              f"traced wall {extras['traced_run_s']:.4f} s; kernel loop "
              f"outside spans {extras['unspanned_frac']:.4f} (tolerance "
              f"{SELF_TIME_TOLERANCE}), client generators count as sim")
        print(f"other layers: {json.dumps(extras['other_layers'])}")
        reported = {name: {"value": layer[name], "unit": unit}
                    for name, unit in PER_LAYER.items()}

    print(json.dumps({"correct": correct, "attempted": issued,
                      "failed": issued - completed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
