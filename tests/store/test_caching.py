"""Incremental re-verification through the session: hits explore
nothing, misses fan out, reports stay byte-identical."""

import dataclasses

import pytest

from repro.api import (
    EngineSpec,
    LevelCompleted,
    MachineChecked,
    PolicyStarted,
    RequestFinished,
    RequestStarted,
    ResultReused,
    Session,
    StatesExplored,
    VerificationRequest,
    build_policy,
    with_engine,
)
from repro.api.engine import SerialEngine
from repro.api.request import PolicySpec
from repro.store import CachingEngine, MemoryStore, store_key
from repro.verify.report import zoo_lineup, zoo_lineup_entries

EXPLORATION_EVENTS = (LevelCompleted, StatesExplored, MachineChecked)


class CountingEngine(SerialEngine):
    """A serial engine that counts real dispatches: every driver call
    takes one task map."""

    def __init__(self):
        self.dispatches = 0
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return super().__enter__()

    def tasks(self, on_machine=None):
        self.dispatches += 1
        return super().tasks(on_machine)


class CountingStore(MemoryStore):
    """A memory store that counts its loads."""

    def __init__(self):
        super().__init__()
        self.loads = 0

    def load(self, key):
        self.loads += 1
        return super().load(key)


def run_with_store(request, store, **session_kwargs):
    events = []
    engine = CountingEngine()
    session = Session(subscribers=[events.append], engine=engine,
                      store=store, **session_kwargs)
    result = session.run(request)
    return result, events, engine


def reused(events):
    return [e for e in events if isinstance(e, ResultReused)]


def explored(events):
    return [e for e in events if isinstance(e, EXPLORATION_EVENTS)]


PROVE = (VerificationRequest.builder("prove")
         .policy("balance_count").scope(cores=3, max_load=2).build())
HUNT = (VerificationRequest.builder("hunt")
        .policy("naive").scope(cores=3, max_load=2).build())
CAMPAIGN = (VerificationRequest.builder("campaign")
            .policy("balance_count")
            .campaign(machines=5, rounds=5, seed=3).build())
ZOO = VerificationRequest.builder("zoo").scope(cores=3, max_load=2).build()


class TestWholeRequestCaching:
    @pytest.mark.parametrize("request_", [PROVE, HUNT, CAMPAIGN, ZOO],
                             ids=["prove", "hunt", "campaign", "zoo"])
    def test_warm_run_reuses_and_explores_nothing(self, request_):
        store = MemoryStore()
        cold, cold_events, cold_engine = run_with_store(request_, store)
        assert cold_engine.dispatches > 0
        assert not reused(cold_events)

        warm, warm_events, warm_engine = run_with_store(request_, store)
        assert warm_engine.dispatches == 0
        assert len(reused(warm_events)) == 1
        assert not explored(warm_events)
        assert warm.render() == cold.render()
        assert warm.normalized() == cold.normalized()
        assert warm.exit_code == cold.exit_code

    def test_event_stream_shape_on_a_hit(self):
        store = MemoryStore()
        run_with_store(PROVE, store)
        _, events, _ = run_with_store(PROVE, store)
        assert isinstance(events[0], RequestStarted)
        assert "cached[" in events[0].engine
        assert isinstance(events[1], ResultReused)
        assert events[1].key == store_key(PROVE)
        assert events[1].request == PROVE
        assert isinstance(events[-1], RequestFinished)

    def test_refresh_redispatches_and_overwrites(self):
        store = MemoryStore()
        run_with_store(PROVE, store)
        result, events, engine = run_with_store(PROVE, store,
                                                store_refresh=True)
        assert engine.dispatches > 0
        assert not reused(events)
        # The refreshed entry is still served afterwards.
        _, warm_events, warm_engine = run_with_store(PROVE, store)
        assert warm_engine.dispatches == 0
        assert len(reused(warm_events)) == 1

    def test_different_requests_do_not_collide(self):
        store = MemoryStore()
        run_with_store(PROVE, store)
        other = (VerificationRequest.builder("prove")
                 .policy("balance_count", margin=3)
                 .scope(cores=3, max_load=2).build())
        _, events, engine = run_with_store(other, store)
        assert engine.dispatches > 0
        assert not reused(events)


class TestZooPartitioning:
    def test_lineup_entries_stay_aligned_with_the_lineup(self):
        from repro.api import parse_topology

        for topology in (None, parse_topology("numa:2x2")):
            policies = zoo_lineup(topology)
            entries = zoo_lineup_entries(topology)
            assert len(policies) == len(entries)
            for policy, (name, kwargs) in zip(policies, entries):
                built = build_policy(PolicySpec(name=name, **kwargs),
                                     topology)
                assert type(built) is type(policy)
                assert built.name == policy.name

    def test_partially_warm_zoo_only_proves_the_misses(self):
        store = MemoryStore()
        # Prove one lineup row standalone, at the zoo's effective
        # parameters (zoo defaults max_orders to 720).
        row = (VerificationRequest.builder("prove")
               .policy("balance_count", margin=2)
               .scope(cores=3, max_load=2).max_orders(720).build())
        run_with_store(row, store)

        _, events, engine = run_with_store(ZOO, store)
        lineup_size = len(zoo_lineup(None))
        assert len(reused(events)) == 1          # the pre-proved row
        assert engine.dispatches == lineup_size - 1

    def test_zoo_rows_serve_a_later_standalone_prove(self):
        store = MemoryStore()
        run_with_store(ZOO, store)
        row = (VerificationRequest.builder("prove")
               .policy("greedy_halving")
               .scope(cores=3, max_load=2).max_orders(720).build())
        _, events, engine = run_with_store(row, store)
        assert engine.dispatches == 0
        assert len(reused(events)) == 1

    def test_fully_warm_zoo_is_one_lookup(self):
        store = MemoryStore()
        run_with_store(ZOO, store)
        _, events, engine = run_with_store(ZOO, store)
        assert engine.dispatches == 0
        assert len(reused(events)) == 1
        assert not [e for e in events if isinstance(e, PolicyStarted)]

    def test_zoo_served_row_by_row_acquires_no_engine(self):
        # The matrix entry is gone but every row is stored: each row is
        # a hit, so the engine is never entered.
        store = MemoryStore()
        run_with_store(ZOO, store)
        assert store.remove(store_key(ZOO))
        _, events, engine = run_with_store(ZOO, store)
        assert engine.entered == 0
        assert engine.dispatches == 0
        assert len(reused(events)) == len(zoo_lineup(None))
        assert store_key(ZOO) in store.keys()  # the matrix is stored again


class TestOneLookupChain:
    """A request is looked up once: the exact key, then (when the
    request is not spelled serial) its proof key."""

    @pytest.mark.parametrize("spec, loads", [
        (EngineSpec(), 1),
        (EngineSpec(kind="pool", jobs=2), 2),
    ], ids=["serial", "jobs2"])
    def test_a_cold_request_walks_the_chain_once(self, spec, loads):
        store = CountingStore()
        result, _, engine = run_with_store(with_engine(PROVE, spec), store)
        assert engine.dispatches == 1
        assert store.loads == loads
        assert not result.provenance.hit


class TestEngineEquivalenceWithStore:
    ENGINES = {
        "serial": EngineSpec(),
        "pool": EngineSpec(kind="pool", jobs=2),
        "distributed": EngineSpec(kind="distributed", workers=2,
                                  in_process=True),
    }

    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_warm_equals_cold_on_every_engine(self, engine_name):
        request = with_engine(PROVE, self.ENGINES[engine_name])
        store = MemoryStore()
        cold_events, warm_events = [], []
        cold = Session(subscribers=[cold_events.append],
                       store=store).run(request)
        warm = Session(subscribers=[warm_events.append],
                       store=store).run(request)
        assert not reused(cold_events)
        assert len(reused(warm_events)) == 1
        assert not explored(warm_events)
        assert warm.render() == cold.render()
        assert warm.normalized() == cold.normalized()

    def test_proved_entries_are_shared_across_engines(self):
        # Proved results are engine-independent (the engine-equivalence
        # suites pin serial/pool/distributed proved outputs
        # byte-identical), so a serial proof answers the pooled
        # spelling via its engine-normalised proof key — and the pooled
        # run stores nothing new.
        store = MemoryStore()
        Session(store=store).run(PROVE)
        events = []
        pooled = with_engine(PROVE, self.ENGINES["pool"])
        result = Session(subscribers=[events.append],
                         store=store).run(pooled)
        assert len(reused(events)) == 1
        assert store.keys() == (store_key(PROVE),)
        assert result.provenance is not None and result.provenance.hit
        assert result.provenance.served_from == store_key(PROVE)

    def test_campaigns_key_separately_by_engine(self):
        # Campaign coverage is a function of (seed, shard count), so
        # the coverage class stays in the key and a serial campaign
        # must not masquerade as a pooled one.
        store = MemoryStore()
        Session(store=store).run(CAMPAIGN)
        events = []
        pooled = with_engine(CAMPAIGN, self.ENGINES["pool"])
        Session(subscribers=[events.append], store=store).run(pooled)
        assert not reused(events)
        assert len(store.keys()) == 2

    def test_warm_distributed_run_spawns_no_workers(self):
        spawned = []

        class TrackingEngine(SerialEngine):
            def __enter__(self):
                spawned.append(True)
                return super().__enter__()

        store = MemoryStore()
        Session(engine=TrackingEngine(), store=store).run(PROVE)
        assert spawned == [True]
        Session(engine=TrackingEngine(), store=store).run(PROVE)
        assert spawned == [True]  # warm run never acquired the backend


class TestCachingEngineDirectly:
    def test_load_result_repoints_the_request(self):
        store = MemoryStore()
        Session(store=store).run(PROVE)
        spelled_differently = dataclasses.replace(PROVE, max_orders=5040)
        assert store_key(spelled_differently) == store_key(PROVE)
        loaded = CachingEngine(store).load_result(spelled_differently)
        assert loaded is not None
        assert loaded.request == spelled_differently


WIDE_PROVE = (VerificationRequest.builder("prove")
              .policy("balance_count").scope(cores=3, max_load=4).build())
REFUTED_WIDE = (VerificationRequest.builder("prove")
                .policy("naive").scope(cores=3, max_load=4).build())
REFUTED_NARROW = (VerificationRequest.builder("prove")
                  .policy("naive").scope(cores=3, max_load=2).build())


class TestSubsumption:
    """Opt-in serving of narrower prove requests from wider proofs."""

    def test_subsumption_is_off_by_default(self):
        store = MemoryStore()
        run_with_store(WIDE_PROVE, store)
        _result, events, engine = run_with_store(PROVE, store)
        # Byte-identity default: the narrower request explores.
        assert engine.dispatches == 1
        assert not reused(events)

    def test_wider_proof_answers_a_narrower_request_when_opted_in(self):
        store = MemoryStore()
        run_with_store(WIDE_PROVE, store)
        result, events, engine = run_with_store(PROVE, store,
                                                store_subsume=True)
        assert engine.dispatches == 0
        assert not explored(events)
        assert len(reused(events)) == 1
        assert result.verdict.value == "proved"
        assert result.provenance is not None
        assert result.provenance.hit
        assert result.provenance.served_from == store_key(WIDE_PROVE)
        # The verdict transfers; the certificate keeps the superset's
        # own counts (verdict-preserving, not byte-preserving).
        assert result.request == PROVE

    def test_exact_hit_wins_over_a_subsuming_entry(self):
        store = MemoryStore()
        run_with_store(WIDE_PROVE, store)
        run_with_store(PROVE, store)
        result, _events, engine = run_with_store(PROVE, store,
                                                 store_subsume=True)
        assert engine.dispatches == 0
        assert result.provenance.served_from == store_key(PROVE)

    def test_tightest_subsuming_proof_is_chosen(self):
        widest = (VerificationRequest.builder("prove")
                  .policy("balance_count").scope(cores=3, max_load=5)
                  .build())
        store = MemoryStore()
        run_with_store(widest, store)
        run_with_store(WIDE_PROVE, store)
        result, _events, _engine = run_with_store(PROVE, store,
                                                  store_subsume=True)
        assert result.provenance.served_from == store_key(WIDE_PROVE)

    def test_refutations_never_transfer_to_a_narrower_scope(self):
        # The wider scope's counterexample may live outside the
        # narrower scope entirely: a cached refutation answers only
        # its exact request.
        store = MemoryStore()
        run_with_store(REFUTED_WIDE, store)
        _result, events, engine = run_with_store(REFUTED_NARROW, store,
                                                 store_subsume=True)
        assert engine.dispatches == 1
        assert not reused(events)

    def test_subsumption_never_widens(self):
        store = MemoryStore()
        run_with_store(PROVE, store)
        _result, _events, engine = run_with_store(WIDE_PROVE, store,
                                                  store_subsume=True)
        assert engine.dispatches == 1
