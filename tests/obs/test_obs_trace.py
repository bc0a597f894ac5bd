"""The tracer: span recording, nesting, attribution, and ingest."""

from __future__ import annotations

import dataclasses
import threading

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.trace import (
    _NOOP,
    Span,
    Tracer,
    span_from_dict,
    span_to_dict,
    spans_to_payload,
    trace_clock,
)


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.enable()
    return tracer


class TestSpanRecording:
    def test_span_records_on_exit(self):
        tracer = make_tracer()
        with tracer.span("work", "cat", size=3):
            pass
        (span,) = tracer.spans()
        assert span.name == "work"
        assert span.category == "cat"
        assert span.args == {"size": 3}
        assert span.duration >= 0.0
        assert span.parent_id is None

    def test_nested_spans_attribute_parents(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner"):
                    pass
        inner, mid, out = tracer.spans()
        assert out.span_id == outer.span_id
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert out.parent_id is None

    def test_reset_forgets_spans_and_open_parents(self):
        # What a forked pool process must do with the tracer it
        # inherited mid-span from its parent.
        tracer = make_tracer()
        with tracer.span("inherited"):
            tracer.instant("before")
            tracer.reset()
            assert not tracer.enabled
            assert tracer.spans() == ()
            tracer.enable()
            with tracer.span("own"):
                pass
            (own,) = tracer.spans()
        assert own.name == "own"
        assert own.parent_id is None

    def test_siblings_share_a_parent(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, _ = tracer.spans()
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_set_attaches_args_mid_span(self):
        tracer = make_tracer()
        with tracer.span("work", items=1) as span:
            span.set(outcome="hit", items=2)
        (recorded,) = tracer.spans()
        assert recorded.args == {"items": 2, "outcome": "hit"}

    def test_instant_is_zero_duration_and_parented(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            tracer.instant("tick", "events", n=1)
        tick, _ = tracer.spans()
        assert tick.duration == 0.0
        assert tick.parent_id == outer.span_id
        assert tick.args == {"n": 1}

    def test_threads_do_not_adopt_each_others_children(self):
        tracer = make_tracer()
        ready = threading.Event()

        def other() -> None:
            with tracer.span("thread-side"):
                pass
            ready.set()

        with tracer.span("main-side"):
            thread = threading.Thread(target=other)
            thread.start()
            ready.wait(5.0)
            thread.join(5.0)
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["thread-side"].parent_id is None
        assert by_name["main-side"].parent_id is None
        assert by_name["thread-side"].tid != by_name["main-side"].tid

    def test_drain_clears_the_buffer(self):
        tracer = make_tracer()
        with tracer.span("once"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == ()

    def test_worker_label_applies_to_recorded_spans(self):
        tracer = Tracer()
        tracer.enable(worker="worker-7")
        with tracer.span("shard"):
            pass
        assert tracer.spans()[0].worker == "worker-7"


class TestDisabledPath:
    def test_disabled_span_is_the_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("anything") is _NOOP
        with tracer.span("anything") as span:
            span.set(ignored=True)
        assert tracer.spans() == ()

    def test_disabled_instant_and_ingest_drop(self):
        tracer = Tracer()
        tracer.instant("tick")
        tracer.ingest([span_to_dict(_dummy_span())], clock=0.0,
                      worker="w")
        assert tracer.spans() == ()

    def test_disable_keeps_recorded_spans_until_drained(self):
        tracer = make_tracer()
        with tracer.span("kept"):
            pass
        tracer.disable()
        assert len(tracer.spans()) == 1


def _dummy_span(start: float = 1.0) -> Span:
    return Span(name="n", category="c", start=start, duration=0.5,
                span_id=9, parent_id=None, pid=4242, tid=1,
                args={"k": "v"})


class TestIngest:
    def test_skewed_clock_lands_spans_on_the_local_timeline(self):
        tracer = make_tracer()
        # A worker whose monotonic epoch is far in the "future": its
        # clock read 1000.0 when it shipped a span started at 999.0 —
        # i.e. one second before shipping.
        payload = [span_to_dict(_dummy_span(start=999.0))]
        before = trace_clock()
        tracer.ingest(payload, clock=1000.0, worker="worker-1", pid=77)
        after = trace_clock()
        (span,) = tracer.spans()
        assert before - 1.0 <= span.start <= after - 1.0
        assert span.worker == "worker-1"
        assert span.pid == 77

    def test_ingested_spans_get_fresh_ids_and_remapped_parents(self):
        tracer = make_tracer()
        with tracer.span("local"):
            pass
        (local,) = tracer.spans()
        outer = dataclasses.replace(_dummy_span(), span_id=local.span_id)
        inner = dataclasses.replace(_dummy_span(), span_id=7,
                                    parent_id=local.span_id)
        orphan = dataclasses.replace(_dummy_span(), span_id=8,
                                     parent_id=99)
        payload = spans_to_payload((outer, inner, orphan))
        tracer.ingest(payload, clock=0.0, worker="a")
        tracer.ingest(payload, clock=0.0, worker="b")
        spans = tracer.spans()
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids)) == 7
        for batch in (spans[1:4], spans[4:7]):
            new_outer, new_inner, new_orphan = batch
            assert new_inner.parent_id == new_outer.span_id
            assert new_outer.parent_id is None
            assert new_orphan.parent_id is None

    def test_two_workers_with_opposite_skews_interleave(self):
        tracer = make_tracer()
        # Both workers shipped a span that ended the instant they
        # shipped; whatever their epochs, the rebased starts must all
        # land within each other's round-trip, not epochs apart.
        tracer.ingest([span_to_dict(_dummy_span(start=5.0))],
                      clock=5.5, worker="early-epoch")
        tracer.ingest([span_to_dict(_dummy_span(start=1e6))],
                      clock=1e6 + 0.5, worker="late-epoch")
        starts = [span.start for span in tracer.spans()]
        assert abs(starts[0] - starts[1]) < 1.0


class TestPayloadRoundTrip:
    @given(
        name=st.text(min_size=1, max_size=20),
        category=st.text(min_size=1, max_size=10),
        start=st.floats(0, 1e6, allow_nan=False),
        duration=st.floats(0, 1e3, allow_nan=False),
        span_id=st.integers(1, 2**31),
        parent_id=st.none() | st.integers(1, 2**31),
        args=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.floats(allow_nan=False),
                      st.text(max_size=8), st.booleans()),
            max_size=4,
        ),
    )
    def test_dict_round_trip_is_lossless(self, name, category, start,
                                         duration, span_id, parent_id,
                                         args):
        span = Span(name=name, category=category, start=start,
                    duration=duration, span_id=span_id,
                    parent_id=parent_id, pid=1, tid=2, worker="w",
                    args=args)
        assert span_from_dict(span_to_dict(span)) == span

    def test_payload_offsets_apply_to_every_span(self):
        spans = (_dummy_span(start=1.0), _dummy_span(start=2.0))
        payload = spans_to_payload(spans)
        rebased = [span_from_dict(doc, offset=10.0, worker="w", pid=3)
                   for doc in payload]
        assert [span.start for span in rebased] == [11.0, 12.0]
