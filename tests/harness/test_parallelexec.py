"""Tests for the parallelexec campaign driver (smoke-sized)."""

import pytest

from repro.harness.parallelexec import (format_report, run_campaign,
                                        run_throughput, to_json)


@pytest.fixture(scope="module")
def smoke():
    """One smoke campaign shared by the module's tests."""
    return run_campaign(smoke=True)


def test_smoke_campaign_gates_and_is_deterministic(smoke):
    first = smoke
    assert first["format"] == "repro-parallelexec/1"
    assert first["gate"]["passed"], first["gate"]
    assert first["equivalence"]["all_equal"]
    # Byte-determinism: CI runs the smoke campaign twice and compares
    # stdout; the same property must hold in-process.
    second = run_campaign(smoke=True)
    assert to_json(first) == to_json(second)


def test_smoke_report_renders(smoke):
    report = format_report(smoke)
    assert "parallel execution campaign" in report
    assert "PASS" in report
    assert "MISMATCH" not in report


def test_throughput_scales_with_workers_at_low_conflict():
    seq = run_throughput(0, 0.0, num_clients=16, duration_ms=1000.0)
    par = run_throughput(4, 0.0, num_clients=16, duration_ms=1000.0)
    assert par["completed"] > 2 * seq["completed"]
    assert par["utilization"] > 0.5


def test_full_conflict_cannot_beat_sequential():
    seq = run_throughput(0, 1.0, num_clients=16, duration_ms=1000.0)
    par = run_throughput(4, 1.0, num_clients=16, duration_ms=1000.0)
    # Every command writes the hot key: the scheduler serializes them in
    # delivery order, so extra workers add nothing (and lose nothing).
    assert par["completed"] == seq["completed"]
