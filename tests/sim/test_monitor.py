"""Unit tests for the measurement instruments."""

import math

import pytest

from repro.sim import BusyTracker, Counter, LatencyRecorder, TimeSeries


class TestTimeSeries:
    def test_records_in_order(self):
        series = TimeSeries("s")
        series.record(1.0, 10)
        series.record(2.0, 20)
        assert list(series) == [(1.0, 10), (2.0, 20)]
        assert series.last() == 20

    def test_rejects_time_going_backwards(self):
        series = TimeSeries()
        series.record(5.0, 1)
        with pytest.raises(ValueError):
            series.record(4.0, 1)

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.record(5.0, 1)
        series.record(5.0, 2)
        assert len(series) == 2

    def test_window_sum_half_open(self):
        series = TimeSeries()
        for t in (1.0, 2.0, 3.0):
            series.record(t, 1)
        assert series.window_sum(1.0, 3.0) == 2  # [1, 3)

    def test_bucketed_rate(self):
        series = TimeSeries()
        for t in (0.5, 0.6, 1.5):
            series.record(t, 1)
        rate = series.bucketed_rate(1.0, end=2.0)
        assert rate.times == [1.0, 2.0]
        assert rate.values == [2.0, 1.0]

    def test_bucketed_rate_requires_positive_bucket(self):
        with pytest.raises(ValueError):
            TimeSeries().bucketed_rate(0)


class TestCounter:
    def test_total_accumulates(self):
        counter = Counter("c")
        counter.increment(1.0)
        counter.increment(2.0, amount=5)
        assert counter.total == 6


class TestLatencyRecorder:
    def test_mean_and_percentiles(self):
        recorder = LatencyRecorder()
        for i, latency in enumerate([1.0, 2.0, 3.0, 4.0]):
            recorder.record(float(i), latency)
        assert recorder.mean() == 2.5
        assert recorder.percentile(50) == 2.0
        assert recorder.percentile(100) == 4.0

    def test_empty_is_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.mean())
        assert math.isnan(recorder.percentile(95))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(1.0, -0.1)

    def test_percentile_range_validated(self):
        recorder = LatencyRecorder()
        recorder.record(0.0, 1.0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_windowed_mean(self):
        recorder = LatencyRecorder()
        recorder.record(0.5, 2.0)
        recorder.record(0.8, 4.0)
        recorder.record(1.5, 10.0)
        windowed = recorder.windowed_mean(1.0, end=2.0)
        assert windowed.values[0] == 3.0
        assert windowed.values[1] == 10.0


class TestBusyTracker:
    def test_busy_fraction(self):
        tracker = BusyTracker()
        tracker.begin(0.0)
        tracker.end(2.0)
        tracker.add_busy(5.0, 1.0)
        assert tracker.busy_fraction(0.0, 10.0) == pytest.approx(0.3)
        assert tracker.total_busy() == pytest.approx(3.0)

    def test_nested_begin_rejected(self):
        tracker = BusyTracker()
        tracker.begin(0.0)
        with pytest.raises(ValueError):
            tracker.begin(1.0)

    def test_end_without_begin_rejected(self):
        with pytest.raises(ValueError):
            BusyTracker().end(1.0)

    def test_load_series_shape(self):
        tracker = BusyTracker()
        tracker.add_busy(0.0, 0.5)
        series = tracker.load_series(1.0, end=3.0)
        assert series.values == [0.5, 0.0, 0.0]

    def test_partial_overlap(self):
        tracker = BusyTracker()
        tracker.add_busy(0.5, 1.0)  # busy [0.5, 1.5)
        assert tracker.busy_fraction(1.0, 2.0) == pytest.approx(0.5)


class TestWindowEdgeCases:
    """Half-open windows, single samples and exact-boundary timestamps."""

    def test_window_sum_boundaries_half_open(self):
        series = TimeSeries()
        series.record(1.0, 10)
        series.record(2.0, 20)
        # The start edge is inclusive, the end edge exclusive.
        assert series.window_sum(1.0, 2.0) == 10
        assert series.window_sum(2.0, 3.0) == 20

    def test_window_sum_empty_window(self):
        series = TimeSeries()
        series.record(1.0, 10)
        assert series.window_sum(2.0, 5.0) == 0
        assert series.window_sum(1.0, 1.0) == 0  # zero-width

    def test_windowed_mean_empty_bucket_is_nan(self):
        recorder = LatencyRecorder()
        recorder.record(0.5, 2.0)
        recorder.record(2.5, 4.0)
        windowed = recorder.windowed_mean(1.0, end=3.0)
        assert windowed.values[0] == 2.0
        assert math.isnan(windowed.values[1])   # nothing in [1, 2)
        assert windowed.values[2] == 4.0

    def test_single_sample_percentiles(self):
        recorder = LatencyRecorder()
        recorder.record(0.0, 7.0)
        for p in (0, 50, 95, 99, 100):
            assert recorder.percentile(p) == 7.0
        assert recorder.mean() == 7.0

    def test_percentile_exact_rank_boundaries(self):
        recorder = LatencyRecorder()
        for i, latency in enumerate([1.0, 2.0, 3.0, 4.0]):
            recorder.record(float(i), latency)
        # Nearest-rank: p exactly on a rank boundary maps to that rank.
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(25) == 1.0
        assert recorder.percentile(75) == 3.0
        assert recorder.percentile(100) == 4.0


class TestBusyFractionEdgeCases:
    def test_empty_window_rejected(self):
        tracker = BusyTracker()
        with pytest.raises(ValueError):
            tracker.busy_fraction(1.0, 1.0)
        with pytest.raises(ValueError):
            tracker.busy_fraction(2.0, 1.0)

    def test_no_intervals_is_zero(self):
        assert BusyTracker().busy_fraction(0.0, 10.0) == 0.0

    def test_interval_exactly_on_window_boundary(self):
        tracker = BusyTracker()
        tracker.add_busy(2.0, 1.0)      # busy [2, 3)
        # Windows touching the interval's edges see none of it.
        assert tracker.busy_fraction(0.0, 2.0) == 0.0
        assert tracker.busy_fraction(3.0, 4.0) == 0.0
        # The exact window is fully busy.
        assert tracker.busy_fraction(2.0, 3.0) == pytest.approx(1.0)

    def test_zero_duration_interval_contributes_nothing(self):
        tracker = BusyTracker()
        tracker.add_busy(1.0, 0.0)
        assert tracker.total_busy() == 0.0
        assert tracker.busy_fraction(0.0, 2.0) == 0.0

    def test_begin_end_at_same_time(self):
        tracker = BusyTracker()
        tracker.begin(1.0)
        tracker.end(1.0)
        assert tracker.total_busy() == 0.0

    def test_interval_spanning_whole_window(self):
        tracker = BusyTracker()
        tracker.add_busy(0.0, 10.0)
        assert tracker.busy_fraction(4.0, 6.0) == pytest.approx(1.0)

    def test_add_busy_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            BusyTracker().add_busy(1.0, -0.5)

    def test_end_before_begin_rejected(self):
        tracker = BusyTracker()
        tracker.begin(2.0)
        with pytest.raises(ValueError):
            tracker.end(1.0)

