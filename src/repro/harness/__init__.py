"""Experiment harness: build clusters, drive workloads, report figures.

The harness assembles full deployments of any of the four schemes (classic
SMR, static S-SMR, DS-SMR, DS-SMR with the graph-partitioned oracle),
drives closed-loop Chirper clients against them, and aggregates the metrics
behind every figure of the paper: throughput and latency, move counts over
time, retry/consult rates, and oracle CPU load.
"""

from repro.harness.cluster import Cluster, ClusterConfig, build_cluster
from repro.harness.elastic import (
    ElasticResult,
    run_elastic_scenario,
    run_scaleout_timeline,
)
from repro.harness.invariants import cluster_invariants
from repro.harness.metrics import ExperimentMetrics
from repro.harness.experiment import (
    ChirperDeployment,
    ExperimentResult,
    run_chirper_experiment,
)
from repro.harness.report import format_series, format_table
from repro.harness.sweep import SweepResult, sweep
from repro.harness.tracerun import TraceRun, run_traced_workload

__all__ = [
    "ChirperDeployment",
    "Cluster",
    "ClusterConfig",
    "ElasticResult",
    "ExperimentMetrics",
    "ExperimentResult",
    "SweepResult",
    "TraceRun",
    "build_cluster",
    "cluster_invariants",
    "format_series",
    "format_table",
    "run_chirper_experiment",
    "run_elastic_scenario",
    "run_scaleout_timeline",
    "run_traced_workload",
    "sweep",
]
