"""Command-line interface: run experiments and figures without writing code.

Examples::

    python -m repro figure fig1 --duration-ms 6000
    python -m repro experiment --scheme dssmr --partitions 4 \
        --edge-cut 0.05 --duration-ms 5000
    python -m repro partition --vertices 5000 --parts 4
    python -m repro list-figures

Every campaign subcommand (chaos, fuzz, heal, qos, durability,
parallelexec, reconfig) is one :class:`Campaign` entry of
:data:`CAMPAIGNS`: its flags, a ``run`` returning the canonical result
dict, a ``report`` rendered from that dict, and an ``ok`` gate deciding
the exit code. :func:`_finish` emits every command's output the same
way.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import re
import sys
import time
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Sequence


def _figure_registry() -> dict[str, Callable]:
    """``figN`` -> ``figures.figureN_*`` for every reproduced figure."""
    from repro.harness import figures
    return {f"fig{match[1]}": function
            for name, function in vars(figures).items()
            if (match := re.fullmatch(r"figure(\d+)_\w+", name))}


def _finish(started: float, report: str, code: int,
            payload: Optional[dict] = None, json_stdout: bool = False,
            out: Optional[str] = None) -> int:
    """Emit a command's output and return its exit ``code``.

    The report goes to stdout — or to stderr when ``json_stdout`` puts
    the canonical ``payload`` JSON there, so stdout stays byte-comparable
    across runs. ``out`` also receives the JSON. The elapsed host time
    always goes to stderr.
    """
    text = None if payload is None else json.dumps(
        payload, sort_keys=True, separators=(",", ":"))
    if report:
        print(report, file=sys.stderr if json_stdout else sys.stdout)
    if json_stdout and text is not None:
        print(text)
    if out and text is not None:
        with open(out, "w") as sink:
            sink.write(text + "\n")
        print(f"wrote campaign JSON to {out}", file=sys.stderr)
    print(f"\n(wall time: {time.perf_counter() - started:.1f}s)",
          file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# campaigns


def _lazy(path: str) -> Callable:
    """``module:attr.attr`` resolved on first call (keeps startup light)."""
    module, attrs = path.split(":")

    def call(*args, **kwargs):
        target = reduce(getattr, attrs.split("."),
                        importlib.import_module(module))
        return target(*args, **kwargs)
    return call


@dataclass(frozen=True)
class Campaign:
    """One campaign subcommand: flags, run, report and exit gate.

    ``run(args)`` returns the canonical result dict, ``report(dict)``
    renders it and ``ok(dict, args)`` decides the exit code. ``payload``
    selects the part of the dict emitted as JSON (all of it by default).
    """

    help: str
    arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], dict]
    report: Callable[[dict], str]
    ok: Callable[[dict, argparse.Namespace], bool]
    payload: Callable[[dict], dict] = lambda data: data


def _output_flags(parser: argparse.ArgumentParser,
                  smoke: bool = True) -> None:
    if smoke:
        parser.add_argument("--smoke", action="store_true",
                            help="short fixed campaign printing the "
                                 "canonical JSON on stdout (CI "
                                 "byte-compares two same-seed runs)")
    parser.add_argument("--json", action="store_true",
                        help="print the canonical campaign JSON on stdout "
                             "(report goes to stderr)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the canonical campaign JSON to "
                             "PATH")


def _schedule_flags(parser: argparse.ArgumentParser, unit: str) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--ops", type=int, default=8,
                        help=f"operations per client per {unit}")


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenarios", type=int, default=10,
                        help="number of generated fault scenarios")
    _schedule_flags(parser, "scenario")


def _fuzz_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schedules", type=int, default=10,
                        help="number of generated schedules to run")
    _schedule_flags(parser, "schedule")
    _output_flags(parser)
    parser.add_argument("--replay", default=None, metavar="ARTIFACT",
                        help="re-run a repro artifact and byte-compare the "
                             "outcome instead of fuzzing")
    parser.add_argument("--inject-bug", default=None, choices=["no_dedup"],
                        help="test-only deliberate protocol bug; the "
                             "campaign must then FIND a violation")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging minimisation of "
                             "violating schedules")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write replayable repro artifacts for "
                             "violations into DIR")
    parser.add_argument("--supervisor", action="store_true",
                        help="run every schedule under the autonomous "
                             "recovery supervisor (repro.heal): crashes "
                             "get no harness restart and the generator "
                             "adds false-suspicion faults")
    parser.add_argument("--overload", action="store_true",
                        help="QoS fuzzing: clusters run with overload "
                             "control armed and the generator adds "
                             "overload-burst events (background open-loop "
                             "traffic surges)")
    parser.add_argument("--disk", action="store_true",
                        help="storage fuzzing: clusters run with durable "
                             "storage armed (repro.store) and the "
                             "generator adds torn-write, bit-rot, "
                             "slow-disk and power-loss events")
    parser.add_argument("--parallel", action="store_true",
                        help="parallel-execution fuzzing: every server "
                             "executes on a 4-worker conflict-aware pool "
                             "(repro.smr.parallel); the linearizability "
                             "checker fuzzes the sequential-equivalence "
                             "argument under faults")


def _heal_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenarios", type=int, default=4,
                        help="scenarios per scheme (each crashes a "
                             "follower, a sequencer and an oracle)")
    _schedule_flags(parser, "scenario")
    _output_flags(parser)


def _qos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scheme", default="ssmr",
                        choices=["smr", "ssmr", "dssmr", "dynastar"])
    _output_flags(parser)


def _seed_arguments(default: int) -> Callable:
    def add(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--seed", type=int, default=default)
        _output_flags(parser)
    return add


def _reconfig_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", default="dssmr",
                        choices=["dssmr", "dynastar"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--ops", type=int, default=36,
                        help="operations per client")
    parser.add_argument("--no-chaos", action="store_true",
                        help="disable the background message faults")
    _output_flags(parser, smoke=False)


def _run_fuzz(args) -> dict:
    from repro.fuzz import load_artifact, replay_artifact, run_fuzz_campaign

    if args.replay:
        return {"replay": replay_artifact(load_artifact(args.replay))
                .to_dict()}
    return run_fuzz_campaign(
        num_schedules=6 if args.smoke else args.schedules, seed=args.seed,
        num_clients=args.clients, ops_per_client=args.ops,
        inject_bug=args.inject_bug, shrink=not args.no_shrink,
        artifacts_dir=args.artifacts, supervisor=args.supervisor,
        overload=args.overload, disk=args.disk,
        parallel=args.parallel).to_dict()


def _fuzz_report(data: dict) -> str:
    from repro.fuzz.artifact import format_replay
    from repro.fuzz.campaign import FUZZ

    if "replay" in data:
        return format_replay(data["replay"])
    return FUZZ.report(data)


def _fuzz_ok(data: dict, args) -> bool:
    if "replay" in data:
        # Only a byte-identical reproduction passes: CI treats any drift
        # — even "still violating, different signature" — as news.
        return data["replay"]["verdict"] == "identical"
    # With a deliberate bug the fuzzer must FIND it; a clean campaign
    # means the fuzzer lost its teeth.
    return (data["violations"] > 0) == bool(args.inject_bug)


def _no_violations(data: dict, _args) -> bool:
    return data["violations"] == 0


def _qos_ok(data: dict, args) -> bool:
    # QoS must beat the baseline beyond saturation (full sweep only; the
    # smoke sweep is a determinism probe, too short to claim the shape).
    summary = data["summary"]
    return args.smoke or (summary["qos_on"]["tail_ratio"]
                          > summary["qos_off"]["tail_ratio"])


CAMPAIGNS: dict[str, Campaign] = {
    "chaos": Campaign(
        help="seeded chaos campaign against every scheme",
        arguments=_chaos_arguments,
        run=lambda args: _lazy("repro.harness.chaos:run_chaos_campaign")(
            num_scenarios=args.scenarios, seed=args.seed,
            num_clients=args.clients, ops_per_client=args.ops).to_dict(),
        report=_lazy("repro.harness.chaos:CHAOS.report"),
        ok=_no_violations),
    "fuzz": Campaign(
        help="deterministic fault-schedule fuzzer: generate, run, shrink, "
             "replay",
        arguments=_fuzz_arguments, run=_run_fuzz, report=_fuzz_report,
        ok=_fuzz_ok),
    "qos": Campaign(
        help="overload campaign: offered-load sweep with QoS (admission "
             "control + AIMD) off and on",
        arguments=_qos_arguments,
        run=lambda args: _lazy(
            "repro.harness.overload:run_overload_campaign")(
            seed=args.seed, smoke=args.smoke, scheme=args.scheme),
        report=_lazy("repro.harness.overload:format_overload_report"),
        ok=_qos_ok),
    "durability": Campaign(
        help="durable-storage campaign: WAL replay equivalence, "
             "whole-cluster power loss, torn-write/bit-rot recovery ladder",
        arguments=_seed_arguments(0),
        run=lambda args: _lazy(
            "repro.harness.durability:run_durability_campaign")(
            seed=args.seed, smoke=args.smoke),
        report=_lazy("repro.harness.durability:format_durability_report"),
        ok=lambda data, _args: data["summary"]["ok"]),
    "heal": Campaign(
        help="self-healing campaign: crash every role, let the recovery "
             "supervisor repair the cluster",
        arguments=_heal_arguments,
        run=lambda args: _lazy("repro.heal.campaign:run_heal_campaign")(
            num_scenarios=2 if args.smoke else args.scenarios,
            seed=args.seed, num_clients=args.clients,
            ops_per_client=args.ops).to_dict(),
        report=_lazy("repro.heal.campaign:HEAL.report"),
        ok=_no_violations),
    "parallelexec": Campaign(
        help="parallel-execution campaign: sequential equivalence proof + "
             "worker/conflict throughput sweep",
        arguments=_seed_arguments(1),
        run=lambda args: _lazy("repro.harness.parallelexec:run_campaign")(
            seed=args.seed, smoke=args.smoke),
        report=_lazy("repro.harness.parallelexec:format_report"),
        ok=lambda data, _args: data["gate"]["passed"]),
    "reconfig": Campaign(
        help="elastic reconfiguration smoke: crash-restart recovery + live "
             "partition join under chaos",
        arguments=_reconfig_arguments,
        run=lambda args: _lazy(
            "repro.harness.elastic:run_elastic_scenario")(
            seed=args.seed, scheme=args.scheme, num_clients=args.clients,
            ops_per_client=args.ops, chaos=not args.no_chaos).to_dict(),
        report=_lazy("repro.harness.elastic:format_elastic_report"),
        ok=lambda data, _args: not data["violations"],
        payload=_lazy("repro.harness.elastic:canonical_metrics")),
}


def _run_campaign(campaign: Campaign, args) -> int:
    started = time.perf_counter()
    data = campaign.run(args)
    return _finish(started, campaign.report(data),
                   0 if campaign.ok(data, args) else 1,
                   payload=campaign.payload(data),
                   json_stdout=(getattr(args, "json", False)
                                or getattr(args, "smoke", False)),
                   out=getattr(args, "out", None))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DS-SMR reproduction: experiments and figures")
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("figure_id", help="fig1..fig21 (see list-figures)")
    figure.add_argument("--seed", type=int, default=None,
                        help="seed (default: the figure's own)")
    figure.add_argument("--duration-ms", type=float, default=None,
                        help="virtual run length per configuration")

    sub.add_parser("list-figures", help="list reproducible figures")

    experiment = sub.add_parser(
        "experiment", help="one Chirper experiment configuration")
    experiment.add_argument("--scheme", default="dssmr",
                            choices=["smr", "ssmr", "dssmr", "dynastar"])
    experiment.add_argument("--partitions", type=int, default=2)
    experiment.add_argument("--users", type=int, default=200)
    experiment.add_argument("--edge-cut", type=float, default=0.0)
    experiment.add_argument("--clients-per-partition", type=int, default=8)
    experiment.add_argument("--duration-ms", type=float, default=5_000.0)
    experiment.add_argument("--seed", type=int, default=5)

    partition = sub.add_parser(
        "partition", help="run the multilevel partitioner on a demo graph")
    partition.add_argument("--vertices", type=int, default=5_000)
    partition.add_argument("--parts", type=int, default=4)
    partition.add_argument("--seed", type=int, default=7)

    trace = sub.add_parser(
        "trace", help="traced workload: spans, latency breakdown, anomalies")
    trace.add_argument("--scheme", default="dssmr",
                       choices=["smr", "ssmr", "dssmr", "dynastar"])
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--clients", type=int, default=3)
    trace.add_argument("--ops", type=int, default=10,
                       help="operations per client")
    trace.add_argument("--partitions", type=int, default=2)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the span stream as JSONL to PATH")
    trace.add_argument("--timelines", type=int, default=3,
                       help="print timelines of the N slowest commands")
    trace.add_argument("--k", type=float, default=3.0,
                       help="slow-command anomaly threshold (x p95)")

    profile = sub.add_parser(
        "profile", help="virtual-time profiler: attribute simulated cost "
                        "to a component/stage tree, folded stacks + table")
    profile.add_argument("--scheme", default="dssmr",
                         choices=["smr", "ssmr", "dssmr", "dynastar"])
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--clients", type=int, default=3)
    profile.add_argument("--ops", type=int, default=10,
                         help="operations per client")
    profile.add_argument("--partitions", type=int, default=2)
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the self/total cost table")
    profile.add_argument("--smoke", action="store_true",
                         help="profile all four schemes at the fixed smoke "
                              "configuration and print the canonical JSON "
                              "on stdout (CI byte-compares two runs)")
    profile.add_argument("--json", action="store_true",
                         help="print the canonical profile JSON on stdout "
                              "(report goes to stderr)")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="write the folded-stack text to PATH "
                              "(flamegraph.pl-compatible)")

    perfcheck = sub.add_parser(
        "perfcheck", help="perf-regression gate: run the seeded perf "
                          "suite and compare against a committed baseline")
    perfcheck.add_argument("--seed", type=int, default=7)
    perfcheck.add_argument("--baseline",
                           default="benchmarks/baselines/perf_smoke.json",
                           metavar="PATH")
    perfcheck.add_argument("--tolerance", type=float, default=0.05,
                           help="relative drift allowed before the gate "
                                "fails (throughput down / p95 up)")
    perfcheck.add_argument("--slowdown", type=float, default=1.0,
                           help="scale the execution cost model (test "
                                "knob: CI injects 1.2 and requires the "
                                "gate to FAIL)")
    perfcheck.add_argument("--substrate-baseline",
                           default="benchmarks/baselines/"
                                   "substrate_micro.json",
                           metavar="PATH",
                           help="wall-clock substrate floor file (event "
                                "heap + message delivery rates); gating "
                                "mode only — wall-clock numbers never "
                                "enter the canonical JSON")
    perfcheck.add_argument("--no-substrate", action="store_true",
                           help="skip the wall-clock substrate gate")
    perfcheck.add_argument("--update-baseline", action="store_true",
                           help="write the current metrics to --baseline "
                                "(and refreshed substrate floors to "
                                "--substrate-baseline) instead of gating")
    perfcheck.add_argument("--smoke", action="store_true",
                           help="print the canonical metrics JSON on "
                                "stdout without gating (CI byte-compares "
                                "two runs)")

    for name, campaign in CAMPAIGNS.items():
        campaign.arguments(sub.add_parser(name, help=campaign.help))
    return parser


# ---------------------------------------------------------------------------
# the other commands


def cmd_figure(args) -> int:
    registry = _figure_registry()
    figure_fn = registry.get(args.figure_id)
    if figure_fn is None:
        print(f"unknown figure {args.figure_id!r}; "
              f"try: {', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    # Forward only the options the user gave and the figure takes, so
    # every figure otherwise runs at its own default seed and length.
    given = {"seed": args.seed, "duration_ms": args.duration_ms}
    params = inspect.signature(figure_fn).parameters
    kwargs = {name: value for name, value in given.items()
              if value is not None and name in params}
    started = time.perf_counter()
    return _finish(started, str(figure_fn(**kwargs)), 0)


def cmd_list_figures(_args) -> int:
    registry = _figure_registry()
    for figure_id in sorted(registry, key=lambda f: int(f[3:])):
        doc = (registry[figure_id].__doc__ or "").strip().splitlines()[0]
        print(f"{figure_id:6s} {doc}")
    return 0


def cmd_experiment(args) -> int:
    from repro.harness.experiment import (run_chirper_experiment,
                                          static_assignment_for)
    from repro.harness.figures import FIGURE_EXECUTION
    from repro.harness.metrics import ExperimentMetrics
    from repro.harness.report import format_sparkline, format_table
    from repro.workload import clustered_graph

    graph, planted = clustered_graph(
        n=args.users, k=max(args.partitions, 1), intra_degree=6,
        edge_cut_fraction=args.edge_cut, seed=3)
    kwargs = {}
    if args.scheme == "ssmr":
        kwargs["initial_assignment"] = static_assignment_for(
            graph, args.partitions, planted)
    result = run_chirper_experiment(
        args.scheme, graph, num_partitions=args.partitions,
        clients_per_partition=args.clients_per_partition,
        duration_ms=args.duration_ms, warmup_ms=args.duration_ms / 3,
        seed=args.seed, execution=FIGURE_EXECUTION, **kwargs)
    print(format_table(ExperimentMetrics.ROW_HEADERS,
                       [result.metrics.row()]))
    print(f"\ntput/s over time: {format_sparkline(result.throughput)}")
    print(f"moves/s over time: {format_sparkline(result.moves)}")
    return 0


def cmd_partition(args) -> int:
    from repro.graph import (MultilevelPartitioner, edge_cut_fraction,
                             imbalance)
    from repro.workload import holme_kim_graph

    graph = holme_kim_graph(args.vertices, m=3, triad_probability=0.7,
                            seed=args.seed)
    started = time.perf_counter()
    assignment = MultilevelPartitioner().partition(graph, args.parts)
    elapsed = time.perf_counter() - started
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(f"parts: {args.parts}  time: {elapsed:.2f}s  "
          f"edge-cut: {edge_cut_fraction(graph, assignment):.1%}  "
          f"imbalance: {imbalance(graph, assignment, args.parts):.2%}")
    return 0


def cmd_trace(args) -> int:
    from repro.harness.tracerun import run_traced_workload
    from repro.obs import (command_timeline, dump_jsonl, find_anomalies,
                           latency_breakdown, stage_sum_errors)
    from repro.obs.report import slowest_traces

    started = time.perf_counter()
    run = run_traced_workload(args.scheme, seed=args.seed,
                              num_clients=args.clients,
                              ops_per_client=args.ops,
                              num_partitions=args.partitions)
    spans = run.spans
    lines = []
    if args.out:
        count = dump_jsonl(spans, args.out)
        lines.append(f"wrote {count} span(s) to {args.out}")
    lines.append(f"traced {run.completed}/{run.expected} command(s), "
                 f"{len(spans)} span(s), scheme={run.scheme} "
                 f"seed={run.seed}")
    lines.append("")
    lines.append(latency_breakdown(spans,
                                   label=f"{run.scheme} seed={run.seed}"))
    errors = stage_sum_errors(spans)
    if errors:
        lines.append(f"\nstage-sum mismatches in {len(errors)} "
                     f"command(s): {', '.join(errors[:5])}")
    else:
        lines.append("\nper-command stage sums match end-to-end latency "
                     "exactly")
    anomalies = find_anomalies(spans, k=args.k)
    if anomalies:
        lines.append("\nanomalies:")
        lines.extend(f"  - {flag}" for flag in anomalies)
    else:
        lines.append("no anomalies flagged")
    if args.timelines:
        lines.append("\nslowest command timeline(s):")
        for trace_id in slowest_traces(spans, args.timelines):
            lines.append("")
            lines.append(command_timeline(spans, trace_id))
    ok = run.completed == run.expected and not errors
    return _finish(started, "\n".join(lines), 0 if ok else 1)


def cmd_profile(args) -> int:
    from repro.harness.tracerun import run_traced_workload
    from repro.obs.profile import VirtualProfiler

    started = time.perf_counter()
    if args.smoke:
        schemes = ("smr", "ssmr", "dssmr", "dynastar")
        clients, ops, partitions = 3, 10, 2
    else:
        schemes = (args.scheme,)
        clients, ops, partitions = args.clients, args.ops, args.partitions
    payload: dict = {"seed": args.seed, "schemes": {}}
    folded_sections: list[str] = []
    lines: list[str] = []
    ok = True
    for scheme in schemes:
        profiler = VirtualProfiler(scheme=scheme)
        run = run_traced_workload(scheme, seed=args.seed,
                                  num_clients=clients, ops_per_client=ops,
                                  num_partitions=partitions, trace=True,
                                  profiler=profiler)
        errors = profiler.stage_sum_errors()
        ok = ok and run.completed == run.expected and not errors
        payload["schemes"][scheme] = profiler.to_dict()
        folded_sections.append(profiler.folded())
        lines.append(f"== {scheme}: {run.completed}/{run.expected} "
                     f"command(s), {profiler.total_cost():.1f}ms "
                     f"attributed ==")
        lines.append(profiler.table(top=args.top))
        lines.append(f"stage-sum mismatches in {len(errors)} command(s): "
                     f"{', '.join(errors[:5])}" if errors else
                     "per-command stage sums match end-to-end latency "
                     "exactly")
        lines.append("")
    if args.out:
        with open(args.out, "w") as sink:
            sink.write("\n".join(folded_sections) + "\n")
        print(f"wrote folded stacks to {args.out}", file=sys.stderr)
    emit_json = args.json or args.smoke
    return _finish(started, "\n".join(lines), 0 if ok else 1,
                   payload=payload if emit_json else None,
                   json_stdout=emit_json)


def cmd_perfcheck(args) -> int:
    from repro.harness.perf import (compare_substrate, compare_to_baseline,
                                    load_baseline, make_substrate_baseline,
                                    run_perf_suite, run_substrate_micro)

    started = time.perf_counter()
    current = run_perf_suite(seed=args.seed, slowdown=args.slowdown)
    if args.update_baseline:
        with open(args.baseline, "w") as sink:
            json.dump(current, sink, sort_keys=True, indent=2)
            sink.write("\n")
        print(f"wrote baseline to {args.baseline}", file=sys.stderr)
        if not args.no_substrate:
            floors = make_substrate_baseline(run_substrate_micro())
            with open(args.substrate_baseline, "w") as sink:
                json.dump(floors, sink, sort_keys=True, indent=2)
                sink.write("\n")
            print(f"wrote substrate floors to {args.substrate_baseline}",
                  file=sys.stderr)
        return _finish(started, "", 0)
    if args.smoke:
        # Canonical JSON on stdout, no gating: CI byte-compares two runs.
        return _finish(started, "", 0, payload=current, json_stdout=True)
    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"no baseline at {args.baseline}; create one with "
              f"--update-baseline", file=sys.stderr)
        return 2
    failures = compare_to_baseline(current, baseline, args.tolerance)
    lines = []
    for scheme, metrics in sorted(current["schemes"].items()):
        base = baseline.get("schemes", {}).get(scheme, {})
        lines.append(
            f"{scheme:9s} throughput "
            f"{metrics['throughput_ops_per_s']:8.1f} ops/s (baseline "
            f"{base.get('throughput_ops_per_s', 0):8.1f})  p95 "
            f"{metrics['latency_p95_ms']:.3f}ms (baseline "
            f"{base.get('latency_p95_ms', 0):.3f}ms)")
    par = current.get("parallel")
    if par is not None:
        lines.append(f"parallel  {par['speedup']:.3f}x at {par['workers']} "
                     f"workers / {par['conflict']:.0%} conflict "
                     f"(minimum {par['min_speedup']:.1f}x)")
    if not args.no_substrate:
        floors = load_baseline(args.substrate_baseline)
        if floors is not None:
            rates = run_substrate_micro()
            failures.extend(compare_substrate(rates, floors))
            lines.append(
                f"substrate {rates['events_per_s']:,.0f} events/s "
                f"(floor {floors.get('events_per_s_floor', 0):,.0f}), "
                f"{rates['messages_per_s']:,.0f} msgs/s "
                f"(floor {floors.get('messages_per_s_floor', 0):,.0f})")
        else:
            print(f"no substrate floors at {args.substrate_baseline}; "
                  f"create them with --update-baseline", file=sys.stderr)
    if failures:
        lines.append(f"\nPERF GATE FAILED ({len(failures)} regression(s), "
                     f"tolerance {args.tolerance:.0%}):")
        lines.extend(f"  - {failure}" for failure in failures)
    else:
        lines.append(f"\nperf gate passed (tolerance {args.tolerance:.0%})")
    return _finish(started, "\n".join(lines), 1 if failures else 0)


COMMANDS: dict[str, Callable] = {
    "figure": cmd_figure,
    "list-figures": cmd_list_figures,
    "experiment": cmd_experiment,
    "partition": cmd_partition,
    "profile": cmd_profile,
    "perfcheck": cmd_perfcheck,
    "trace": cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in CAMPAIGNS:
        return _run_campaign(CAMPAIGNS[args.command], args)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
