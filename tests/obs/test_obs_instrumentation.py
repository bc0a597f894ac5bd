"""Tracing wired through the engines: spans appear, bytes do not change."""

from __future__ import annotations

import json
import os
import timeit

import pytest

from repro.api import Session, VerificationRequest
from repro.cli import _ProgressPrinter, main
from repro.obs.trace import TRACER
from repro.policies import BalanceCountPolicy
from repro.verify.distributed import WorkerRuntime
from repro.verify.encoding import StateCodec
from repro.verify.tasks import CheckerConfig, ExpandTask, TracedResult

CODEC = StateCodec(n_cores=3, max_value=3)


def _request() -> VerificationRequest:
    builder = VerificationRequest.builder("prove")
    builder.policy("balance_count")
    builder.scope(cores=3, max_load=2)
    return builder.build()


class TestEngineSpans:
    def test_serial_run_records_checker_and_session_spans(self):
        TRACER.enable()
        result = Session().run(_request())
        spans = TRACER.drain()
        assert result.exit_code == 0
        categories = {span.category for span in spans}
        assert "session" in categories
        assert "closure" in categories
        assert "checker" in categories
        root = next(s for s in spans if s.category == "session")
        assert root.name == "request.prove"
        assert root.args["store_hit"] is False

    @pytest.mark.parametrize("mode, tier", [("numpy", "numpy"),
                                            ("off", "tuple")])
    def test_obligation_spans_name_the_tier_that_served_them(
            self, monkeypatch, mode, tier):
        monkeypatch.setenv("REPRO_KERNEL", mode)
        TRACER.enable()
        Session().run(_request())
        spans = [s for s in TRACER.drain() if s.category == "obligation"]
        assert sorted(s.name for s in spans) == ["checker.closure",
                                                 "checker.progress",
                                                 "checker.sweep"]
        assert {s.args["tier"] for s in spans} == {tier}
        # Every state of the 3-core, load 0..2 scope is swept, by the
        # liveness obligations and by the state sweeps alike.
        assert {s.args["states"] for s in spans} == {27}

    def test_rendered_output_identical_with_tracing_on_and_off(self):
        plain = Session().run(_request()).render()
        TRACER.enable()
        traced = Session().run(_request()).render()
        assert traced == plain

    def test_disabled_tracer_records_nothing_during_a_run(self):
        Session().run(_request())
        assert TRACER.spans() == ()


class TestWorkerCapture:
    def test_traced_task_returns_wrapped_spans(self):
        runtime = WorkerRuntime()
        task = ExpandTask(config=CheckerConfig(policy=BalanceCountPolicy()),
                          codec=CODEC, packed=(CODEC.encode((0, 1, 2)),),
                          trace=True)
        outcome = runtime.execute(task)
        assert isinstance(outcome, TracedResult)
        assert outcome.pid > 0
        assert outcome.clock > 0.0
        names = {doc["name"] for doc in outcome.spans}
        assert "worker.ExpandTask" in names
        # The worker-side tracer is torn down again after the task.
        assert not TRACER.enabled
        assert TRACER.spans() == ()

    def test_untraced_task_returns_the_bare_value(self):
        runtime = WorkerRuntime()
        task = ExpandTask(config=CheckerConfig(policy=BalanceCountPolicy()),
                          codec=CODEC, packed=(CODEC.encode((0, 1, 2)),))
        assert not isinstance(runtime.execute(task), TracedResult)

    def test_coordinator_side_tracer_wins_over_capture(self):
        # In-process transports share the coordinator's tracer: spans
        # must land there directly, not be double-wrapped.
        TRACER.enable()
        runtime = WorkerRuntime()
        task = ExpandTask(config=CheckerConfig(policy=BalanceCountPolicy()),
                          codec=CODEC, packed=(CODEC.encode((0, 1, 2)),),
                          trace=True)
        outcome = runtime.execute(task)
        assert not isinstance(outcome, TracedResult)
        assert any(span.name == "worker.ExpandTask"
                   for span in TRACER.spans())


class TestPoolCapture:
    ARGV = ["verify", "balance_count", "--cores", "4", "--max-load", "3",
            "--jobs", "2"]

    def test_pool_processes_ship_their_spans_home(self, tmp_path, capsys):
        assert main(self.ARGV) == 0
        plain = capsys.readouterr().out
        trace_path = tmp_path / "t.json"
        assert main(self.ARGV + ["--trace", str(trace_path)]) == 0
        assert capsys.readouterr().out == plain
        document = json.loads(trace_path.read_text())
        rows = {event["pid"]: event["args"]["name"]
                for event in document["traceEvents"] if event["ph"] == "M"}
        pool_rows = {pid for pid, name in rows.items()
                     if name.startswith("pool (pid ")
                     and f"(pid {os.getpid()})" not in name}
        names = {event["name"] for event in document["traceEvents"]
                 if event["ph"] == "X" and event["pid"] in pool_rows}
        assert {"worker.SweepTask", "worker.ExpandTask"} <= names
        assert "worker.LivenessTask" not in names

    def test_pool_spin_up_is_an_engine_acquire_span(self, tmp_path,
                                                    capsys):
        trace_path = tmp_path / "t.json"
        assert main(self.ARGV + ["--trace", str(trace_path)]) == 0
        capsys.readouterr()
        document = json.loads(trace_path.read_text())
        acquires = [event for event in document["traceEvents"]
                    if event["ph"] == "X"
                    and event["name"] == "engine.acquire"]
        assert len(acquires) == 1
        assert acquires[0]["args"]["engine"] == "pool[jobs=2]"

    def test_span_ids_are_unique_across_processes(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(self.ARGV + ["--trace", str(trace_path)]) == 0
        capsys.readouterr()
        document = json.loads(trace_path.read_text())
        args = [event["args"] for event in document["traceEvents"]
                if "span_id" in event.get("args", {})]
        ids = [arg["span_id"] for arg in args]
        assert len({event["pid"] for event in document["traceEvents"]}) > 1
        assert len(ids) == len(set(ids))
        parents = {arg["parent_id"] for arg in args if "parent_id" in arg}
        assert parents <= set(ids)


class TestNoOpOverhead:
    def test_disabled_span_call_is_cheap(self):
        # The disabled path is one attribute check plus returning the
        # shared no-op handle; guard against it growing allocation or
        # locking. Generous absolute bound: well under 5µs per call
        # even on a loaded CI box.
        per_call = min(
            timeit.repeat(
                "with TRACER.span('x', 'y', a=1): pass",
                globals={"TRACER": TRACER}, number=10_000, repeat=5,
            )
        ) / 10_000
        assert per_call < 5e-6


class TestProgressFormat:
    def test_pinned_prefix_format(self):
        from repro.api.session import LevelCompleted, StatesExplored

        ticks = iter([0.0, 1.0, 2.0, 4.0])
        printer = _ProgressPrinter(clock=lambda: next(ticks))
        first = printer.format(StatesExplored(states=500))
        second = printer.format(LevelCompleted(level=1,
                                               states_expanded=100,
                                               frontier=7))
        third = printer.format(object())
        assert first == "[progress +1.00s 500/s] StatesExplored(states=500)"
        assert second.startswith("[progress +2.00s 250/s] ")
        # Events without counts keep the running rate denominator.
        assert third.startswith("[progress +4.00s 125/s] ")

    def test_rate_is_dash_until_a_count_arrives(self):
        ticks = iter([0.0, 0.5])
        printer = _ProgressPrinter(clock=lambda: next(ticks))
        assert printer.format(object()).startswith("[progress +0.50s -/s] ")
