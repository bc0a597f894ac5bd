"""Trace exporters: Chrome trace-event JSON and the summary table."""

from __future__ import annotations

import json

from repro.obs.export import (
    chrome_trace_document,
    summarize,
    write_chrome_trace,
)
from repro.obs.trace import Span


def span(name="s", category="c", start=0.0, duration=1.0, span_id=1,
         parent_id=None, pid=100, tid=1, worker="",
         args=None) -> Span:
    return Span(name=name, category=category, start=start,
                duration=duration, span_id=span_id, parent_id=parent_id,
                pid=pid, tid=tid, worker=worker,
                args=dict(args or {}))


class TestChromeTraceDocument:
    def test_schema_of_a_complete_event(self):
        doc = chrome_trace_document([
            span(name="work", category="checker", start=1.5,
                 duration=0.25, span_id=7, parent_id=3,
                 args={"states": 10}),
        ])
        assert doc["displayTimeUnit"] == "ms"
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        (event,) = events
        assert event["name"] == "work"
        assert event["cat"] == "checker"
        assert event["ts"] == 1.5e6
        assert event["dur"] == 0.25e6
        assert event["pid"] == 1
        assert event["tid"] == 1
        assert event["args"] == {"states": 10, "span_id": 7,
                                 "parent_id": 3}

    def test_coordinator_is_pid_1_workers_sequential(self):
        doc = chrome_trace_document([
            # A worker span starting first must not steal row 1.
            span(start=0.0, span_id=1, worker="worker-a", pid=900),
            span(start=1.0, span_id=2, worker="", pid=800),
            span(start=2.0, span_id=3, worker="worker-b", pid=901),
        ])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pid_of = {e["args"]["span_id"]: e["pid"] for e in events}
        assert pid_of[2] == 1
        assert pid_of[1] == 2
        assert pid_of[3] == 3

    def test_process_name_metadata_labels_every_process(self):
        doc = chrome_trace_document([
            span(span_id=1, worker="", pid=800),
            span(span_id=2, worker="worker-a", pid=900),
        ])
        meta = {e["pid"]: e["args"]["name"]
                for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta[1] == "coordinator (pid 800)"
        assert meta[2] == "worker-a (pid 900)"

    def test_threads_get_sequential_tids_within_a_process(self):
        doc = chrome_trace_document([
            span(span_id=1, tid=140000001),
            span(span_id=2, tid=140000002),
            span(span_id=3, tid=140000001),
        ])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        tids = [e["tid"] for e in events]
        assert tids == [1, 2, 1]

    def test_events_sort_by_start_time(self):
        doc = chrome_trace_document([
            span(span_id=1, start=3.0),
            span(span_id=2, start=1.0),
            span(span_id=3, start=2.0),
        ])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["args"]["span_id"] for e in events] == [2, 3, 1]

    def test_written_file_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, [span()])
        loaded = json.loads(path.read_text())
        assert {e["ph"] for e in loaded["traceEvents"]} == {"M", "X"}


class TestTraceSummary:
    def test_aggregates_per_category(self):
        summary = summarize([
            span(category="checker", duration=0.1, span_id=1),
            span(category="checker", duration=0.3, span_id=2),
            span(category="store", duration=0.05, span_id=3),
        ])
        checker, store = summary.rows
        assert checker.category == "checker"
        assert checker.count == 2
        assert abs(checker.total_s - 0.4) < 1e-12
        assert abs(checker.mean_s - 0.2) < 1e-12
        assert checker.p95_s == 0.3
        assert store.category == "store"
        assert store.count == 1

    def test_spans_with_a_tier_get_a_row_per_tier(self):
        summary = summarize([
            span(category="obligation", span_id=1,
                 args={"tier": "numpy"}),
            span(category="obligation", span_id=2, duration=2.0,
                 args={"tier": "tuple"}),
            span(category="obligation", span_id=3,
                 args={"tier": "numpy"}),
            span(category="session", span_id=4, duration=0.5),
        ])
        counts = {row.category: row.count for row in summary.rows}
        assert counts == {"obligation:numpy": 2, "obligation:tuple": 1,
                          "session": 1}
        assert summary.render().splitlines()[2].startswith(
            "obligation:numpy"
        )

    def test_rows_sort_by_total_time_descending(self):
        summary = summarize([
            span(category="small", duration=0.01, span_id=1),
            span(category="big", duration=5.0, span_id=2),
        ])
        assert [row.category for row in summary.rows] == ["small", "big"][::-1]

    def test_render_is_a_fixed_width_table(self):
        summary = summarize([span(category="checker", duration=0.002)])
        lines = summary.render().splitlines()
        assert lines[0].split() == ["category", "count", "total",
                                    "mean", "p95"]
        assert set(lines[1]) == {"-"}
        assert lines[2].startswith("checker")
        assert lines[2].endswith("ms")

    def test_empty_trace_renders_header_only(self):
        lines = summarize([]).render().splitlines()
        assert len(lines) == 2
