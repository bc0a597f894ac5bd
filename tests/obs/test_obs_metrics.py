"""The metrics registry and its Prometheus text exposition."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestCounters:
    def test_counter_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help",
                                   labelnames=("kind",))
        counter.labels(kind="get").inc()
        counter.labels(kind="put").inc(2)
        assert counter.labels(kind="get").value == 1
        assert counter.labels(kind="put").value == 2

    def test_unlabelled_convenience_rejected_on_labelled_family(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help",
                                   labelnames=("kind",))
        with pytest.raises(ValueError, match="labelled"):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help",
                                   labelnames=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(nope="x")

    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("c_total", "help")


class TestGauges:
    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help")
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2
        gauge.set(7)
        assert gauge.value == 7


class TestHistograms:
    def test_observations_land_in_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help",
                                       buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        text = registry.render()
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="10"} 3' in text
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_count 4" in text
        assert "h_sum 55.55" in text

    def test_boundary_observation_counts_in_its_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le="1" is inclusive
        assert 'h_bucket{le="1"} 1' in registry.render()

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestPrometheusExposition:
    def test_help_and_type_headers(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests accepted.")
        text = registry.render()
        assert "# HELP requests_total Requests accepted." in text
        assert "# TYPE requests_total counter" in text

    def test_families_render_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "later name, first registered")
        registry.gauge("a", "earlier name, second registered")
        text = registry.render()
        assert text.index("b_total") < text.index("# HELP a ")

    def test_trailing_newline_and_no_blank_lines(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        text = registry.render()
        assert text.endswith("\n")
        assert "" not in text[:-1].split("\n")

    def test_label_values_escape_quotes_and_backslashes(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help",
                                   labelnames=("path",))
        counter.labels(path='a"b\\c\nd').inc()
        assert 'c_total{path="a\\"b\\\\c\\nd"} 1' in registry.render()

    def test_integral_values_render_without_decimal_point(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").inc(3)
        assert "c_total 3\n" in registry.render()

    @given(st.lists(st.floats(0.0001, 100.0), min_size=1, max_size=30))
    def test_bucket_counts_are_monotone_and_end_at_count(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "help")
        for value in values:
            histogram.observe(value)
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in registry.render().splitlines()
            if line.startswith("h_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == len(values)
