"""Tests for sessions: event streams, engine injection, verdict mapping."""

import itertools

import pytest

from repro.api import (
    DistributedEngine,
    EngineError,
    EngineSpec,
    LevelCompleted,
    MachineChecked,
    PolicyFinished,
    PolicyStarted,
    RequestError,
    RequestFailed,
    RequestFinished,
    RequestStarted,
    Session,
    StatesExplored,
    Verdict,
    ViolationFound,
    VerificationRequest,
    run_request,
    with_engine,
)
from repro.store import MemoryStore


def events_of(request, **session_kwargs):
    events = []
    session = Session(subscribers=[events.append], **session_kwargs)
    result = session.run(request)
    return events, result


class TestEventStream:
    def test_every_run_is_bracketed(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("balance_count").build())
        events, result = events_of(request)
        assert isinstance(events[0], RequestStarted)
        assert events[0].request is request
        assert events[0].engine == "serial"
        assert isinstance(events[-1], RequestFinished)
        assert events[-1].result is result

    def test_serial_hunt_reports_exploration_progress(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("balance_count").build())
        events, result = events_of(request, expand_stride=1)
        explored = [e for e in events if isinstance(e, StatesExplored)]
        # The packed-state explorer expands level by level, emitting one
        # cumulative progress event per BFS level rather than one per
        # state: counts are strictly increasing and end at the total.
        assert explored, "serial hunts must report exploration progress"
        counts = [e.states for e in explored]
        assert counts == sorted(set(counts))
        assert counts[-1] == result.analysis.states_explored

    def test_distributed_hunt_reports_levels(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("balance_count")
                   .distributed(2, in_process=True).build())
        events, result = events_of(request)
        levels = [e for e in events if isinstance(e, LevelCompleted)]
        assert levels, "BFS engines must report completed levels"
        assert [e.level for e in levels] == list(range(len(levels)))
        assert (sum(e.states_expanded for e in levels)
                == result.analysis.states_explored)
        assert levels[-1].frontier == 0  # exploration drains the frontier

    def test_zoo_reports_each_policy(self):
        request = (VerificationRequest.builder("zoo")
                   .scope(cores=3, max_load=2).build())
        events, result = events_of(request)
        started = [e for e in events if isinstance(e, PolicyStarted)]
        finished = [e for e in events if isinstance(e, PolicyFinished)]
        assert len(started) == len(finished) == 9
        assert [e.policy for e in started] == [
            c.policy_name for c in result.zoo.certificates
        ]
        assert (sum(e.proved for e in finished)
                == result.stats.policies_proved)

    def test_campaign_reports_machines_and_violations(self):
        request = (VerificationRequest.builder("campaign")
                   .policy("naive")
                   .campaign(machines=6, rounds=8, max_cores=5).build())
        events, result = events_of(request)
        machines = [e for e in events if isinstance(e, MachineChecked)]
        assert [e.machines for e in machines] == list(range(1, 7))
        violations = [e for e in events if isinstance(e, ViolationFound)]
        assert len(violations) == len(result.campaign.violations)
        assert all(e.obligation == "campaign" for e in violations)

    def test_refuted_proof_emits_violations(self):
        request = (VerificationRequest.builder("prove")
                   .policy("naive").scope(cores=3, max_load=2).build())
        events, result = events_of(request)
        violations = [e for e in events if isinstance(e, ViolationFound)]
        # naive passes Lemma1 but fails the concurrent obligations
        assert {e.obligation for e in violations} >= {"steal_soundness",
                                                      "work_conservation"}
        assert len(violations) == len(result.certificate.report.refuted)

    def test_failed_runs_end_with_request_failed(self):
        # Connecting to a dead endpoint fails the engine; the event
        # stream must still terminate (RequestFailed, not silence).
        request = (VerificationRequest.builder("hunt")
                   .policy("balance_count")
                   .distributed(endpoints=["127.0.0.1:1"]).build())
        events = []
        with pytest.raises(EngineError, match="distributed run failed"):
            Session(subscribers=[events.append]).run(request)
        assert isinstance(events[0], RequestStarted)
        assert isinstance(events[-1], RequestFailed)
        assert "distributed run failed" in events[-1].error

    def test_subscribe_after_construction(self):
        seen = []
        session = Session()
        session.subscribe(seen.append)
        session.run(VerificationRequest.builder("hunt")
                    .policy("balance_count").build())
        assert seen


def event_types(events):
    """The run-length encoded types of ``events``: ``"A B*3 C"``."""
    runs = [(name, len(list(group))) for name, group in
            itertools.groupby(type(event).__name__ for event in events)]
    return " ".join(name if count == 1 else f"{name}*{count}"
                    for name, count in runs)


class TestEventSequences:
    """The types and order of every event, per engine and request kind,
    with no store, a cold store and a warm store."""

    ENGINES = {
        "serial": EngineSpec(),
        "pool": EngineSpec(kind="pool", jobs=2),
        "distributed": EngineSpec(kind="distributed", workers=2,
                                  in_process=True),
    }
    REQUESTS = {
        "prove": (VerificationRequest.builder("prove")
                  .policy("naive").scope(cores=3, max_load=2).build()),
        "hunt": (VerificationRequest.builder("hunt")
                 .policy("naive").scope(cores=3, max_load=2).build()),
        "zoo": (VerificationRequest.builder("zoo")
                .scope(cores=2, max_load=1).build()),
        "campaign": (VerificationRequest.builder("campaign")
                     .policy("naive")
                     .campaign(machines=3, rounds=4, seed=1).build()),
    }
    #: What one run reports between RequestStarted and its violations:
    #: serial prove reports no exploration and serial hunt reports
    #: cumulative counts; the pool and distributed engines report BFS
    #: levels; only the serial campaign reports machines.
    SERIAL = {
        "prove": "",
        "hunt": "StatesExplored*2",
        "zoo": " ".join(["PolicyStarted PolicyFinished"] * 9),
        "campaign": "MachineChecked*3",
    }
    SHARDED = {
        "prove": "LevelCompleted*2",
        "hunt": "LevelCompleted*2",
        "zoo": " ".join(["PolicyStarted LevelCompleted PolicyFinished"] * 9),
        "campaign": "",
    }
    PROGRESS = {"serial": SERIAL, "pool": SHARDED, "distributed": SHARDED}
    VIOLATIONS = {"prove": "ViolationFound*4", "hunt": "ViolationFound",
                  "zoo": "ViolationFound*5",
                  "campaign": "ViolationFound*5"}

    @pytest.mark.parametrize("kind", sorted(REQUESTS))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("store", ["none", "cold", "warm"])
    def test_event_types_and_order(self, engine, kind, store):
        request = with_engine(self.REQUESTS[kind], self.ENGINES[engine])
        memory = None if store == "none" else MemoryStore()
        if store == "warm":
            Session(store=memory).run(request)
        events, _ = events_of(request, store=memory, expand_stride=1)
        violations = self.VIOLATIONS[kind]
        if engine != "serial" and kind == "campaign":
            # Sharded campaigns merge their shards' violations.
            violations = "ViolationFound"
        middle = ("ResultReused" if store == "warm"
                  else self.PROGRESS[engine][kind])
        expected = " ".join(part for part in (
            "RequestStarted", middle, violations, "RequestFinished",
        ) if part)
        assert event_types(events) == expected

    def test_partially_warm_zoo_reuses_inside_its_row(self):
        memory = MemoryStore()
        row = (VerificationRequest.builder("prove")
               .policy("greedy_halving").scope(cores=2, max_load=1)
               .max_orders(720).build())
        Session(store=memory).run(row)
        events, result = events_of(self.REQUESTS["zoo"], store=memory)
        index = [c.policy_name for c in result.zoo.certificates].index(
            "greedy_halving(margin=2)")
        rows = ["PolicyStarted PolicyFinished"] * 9
        rows[index] = "PolicyStarted ResultReused PolicyFinished"
        assert event_types(events) == " ".join(
            ["RequestStarted", *rows, "ViolationFound*5", "RequestFinished"])

    @pytest.mark.parametrize("kind", ["prove", "hunt"])
    def test_async_distributed_reports_state_counts(self, kind):
        # Barrier-free exploration has no levels; how many counts and
        # partition splits it reports depends on scheduling.
        request = with_engine(self.REQUESTS[kind], EngineSpec(
            kind="distributed", workers=2, in_process=True, mode="async"))
        events, _ = events_of(request, expand_stride=1)
        middle = {type(e).__name__ for e in events[1:-1]} - {
            "PartitionSplit", "ViolationFound"}
        assert middle == {"StatesExplored"}
        assert isinstance(events[0], RequestStarted)
        assert isinstance(events[-1], RequestFinished)


class TestSessionMechanics:
    def test_injected_engine_overrides_the_request_spec(self):
        # The request says serial; the injected in-process distributed
        # engine actually runs it — how tests drive custom coordinators
        # through the public API.
        request = (VerificationRequest.builder("hunt")
                   .policy("balance_count").build())
        engine = DistributedEngine(workers=2, in_process=True)
        events = []
        session = Session(subscribers=[events.append], engine=engine)
        result = session.run(request)
        assert any(isinstance(e, LevelCompleted) for e in events)
        serial = run_request(request)
        assert result.normalized().analysis == serial.normalized().analysis

    def test_expand_stride_must_be_positive(self):
        with pytest.raises(RequestError, match="expand_stride"):
            Session(expand_stride=0)

    def test_verdict_mapping_and_exit_codes(self):
        proved = run_request(VerificationRequest.builder("prove")
                             .policy("balance_count")
                             .scope(cores=3, max_load=2).build())
        assert proved.verdict is Verdict.PROVED and proved.exit_code == 0
        refuted = run_request(VerificationRequest.builder("prove")
                              .policy("naive")
                              .scope(cores=3, max_load=2).build())
        assert refuted.verdict is Verdict.REFUTED and refuted.exit_code == 2
        violated_hunt = run_request(VerificationRequest.builder("hunt")
                                    .policy("naive").build())
        # hunt is a reporting command: violations never gate the shell
        assert violated_hunt.verdict is Verdict.VIOLATED
        assert violated_hunt.exit_code == 0

    def test_total_timing_is_always_present(self):
        result = run_request(VerificationRequest.builder("hunt")
                             .policy("balance_count").build())
        assert result.timings["total_s"] > 0.0

    def test_exactly_one_payload_is_set(self):
        result = run_request(VerificationRequest.builder("hunt")
                             .policy("balance_count").build())
        payloads = [result.certificate, result.analysis, result.zoo,
                    result.campaign]
        assert sum(p is not None for p in payloads) == 1
        assert result.kind == "hunt"
