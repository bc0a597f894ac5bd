"""Engine equivalence, driven purely through ``repro.api``.

The stack's core guarantee — serial, pool, and distributed engines
produce identical verdicts — restated at the API layer: one
:class:`VerificationRequest`, re-targeted at each engine with
``with_engine``, must yield :class:`VerificationResult`\\ s that are
*equal* once timings (the only engine-dependent content) are normalized
away. The distributed engine runs over in-process transports here, so
every frame still round-trips the wire encoding without socket setup.
"""

import dataclasses

import pytest

from repro.api import (
    EngineSpec,
    Session,
    VerificationRequest,
    with_engine,
)

ENGINES = {
    "serial": EngineSpec(),
    "pool": EngineSpec(kind="pool", jobs=2),
    "distributed": EngineSpec(kind="distributed", workers=2,
                              in_process=True),
    "async": EngineSpec(kind="distributed", workers=2, in_process=True,
                        mode="async"),
}


def results_for(base_request):
    results = {}
    for name, engine in ENGINES.items():
        result = Session().run(with_engine(base_request, engine))
        # Equality must only be over engine-independent content: zero
        # the timings and re-point the request at the common engine.
        normal = result.normalized()
        results[name] = dataclasses.replace(
            normal, request=with_engine(normal.request, EngineSpec())
        )
    return results


def assert_all_equal(results):
    serial = results["serial"]
    for name, result in results.items():
        assert result == serial, f"{name} diverged from serial"
        assert result.render() == serial.render()


class TestEngineEquivalence:
    def test_prove_proved_policy(self):
        request = (VerificationRequest.builder("prove")
                   .policy("balance_count").scope(cores=3, max_load=2)
                   .build())
        results = results_for(request)
        assert results["serial"].ok
        assert_all_equal(results)

    def test_prove_refuted_policy_same_counterexamples(self):
        request = (VerificationRequest.builder("prove")
                   .policy("naive").scope(cores=3, max_load=2).build())
        results = results_for(request)
        assert not results["serial"].ok
        # Sharded engines are mutually identical; the serial engine
        # matches them on everything except `states_checked` of refuted
        # sweeps (each shard stops at its own chunk's first
        # counterexample — the documented divergence in
        # repro.verify.parallel).
        assert results["pool"] == results["distributed"]
        assert results["pool"] == results["async"]
        serial, pool = results["serial"], results["pool"]
        assert serial.verdict == pool.verdict
        for ours, theirs in zip(serial.certificate.report.results,
                                pool.certificate.report.results):
            assert ours.status == theirs.status
            assert ours.counterexample == theirs.counterexample

    def test_hunt_with_topology_quotient(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("balance_count").topology("numa:2x2")
                   .scope(max_load=2).build())
        results = results_for(request)
        assert results["serial"].verdict.ok
        assert_all_equal(results)

    def test_prove_with_the_flat_group(self):
        request = (VerificationRequest.builder("prove")
                   .policy("balance_count").scope(cores=4, max_load=2)
                   .symmetric().build())
        results = results_for(request)
        assert results["serial"].ok
        assert_all_equal(results)

    def test_hunt_with_the_flat_group(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("naive").scope(cores=4, max_load=3)
                   .symmetric().build())
        results = results_for(request)
        assert not results["serial"].verdict.ok
        assert_all_equal(results)

    def test_hierarchical_hunt(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("hierarchical").topology("numa:2x2")
                   .scope(max_load=2).build())
        assert_all_equal(results_for(request))

    def test_campaign_coverage_is_engine_independent(self):
        # Coverage is a function of (seed, worker count): pool with 2
        # jobs and 2 distributed workers must fuzz identical machines.
        request = (VerificationRequest.builder("campaign")
                   .policy("balance_count")
                   .campaign(machines=8, rounds=6, seed=11).build())
        pool = Session().run(
            with_engine(request, ENGINES["pool"])
        ).normalized()
        dist = Session().run(
            with_engine(request, ENGINES["distributed"])
        ).normalized()
        assert pool.campaign == dist.campaign
        assert pool.render() == dist.render()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_render_matches_the_legacy_cli_format(self, engine):
        request = with_engine(
            (VerificationRequest.builder("hunt")
             .policy("balance_count").build()),
            ENGINES[engine],
        )
        rendered = Session().run(request).render()
        assert rendered.startswith("no violation; exact worst-case N = 1")


class TestPoolLifetime:
    """A pool engine forks one process pool per ``with`` block."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The pools the pool engine's ``Pool(...)`` calls made."""
        from repro.verify import parallel

        made = []
        real_context = parallel._pool_context

        class CountingContext:
            def Pool(self, *args, **kwargs):
                made.append(real_context().Pool(*args, **kwargs))
                return made[-1]

        monkeypatch.setattr(parallel, "_pool_context", CountingContext)
        return made

    def test_zoo_rows_share_one_pool(self, pools):
        request = (VerificationRequest.builder("zoo")
                   .scope(cores=2, max_load=1).build())
        pooled = Session().run(with_engine(request, ENGINES["pool"]))
        assert len(pools) == 1
        serial = Session().run(request)
        assert pooled.render() == serial.render()

    def test_every_call_in_the_block_maps_over_the_entered_pool(self, pools):
        from repro.api import PoolEngine
        from repro.policies import BalanceCountPolicy, NaiveOverloadedPolicy
        from repro.verify import StateScope

        scope = StateScope(n_cores=3, max_load=2)
        with PoolEngine(2) as engine:
            proved = engine.analyze(BalanceCountPolicy(), scope)
            refuted = engine.analyze(NaiveOverloadedPolicy(), scope)
        assert len(pools) == 1
        assert proved.worst_case_rounds is not None
        assert refuted.lasso is not None
        # Outside the block a call gets, and closes, a pool of its own.
        again = engine.analyze(NaiveOverloadedPolicy(), scope)
        assert len(pools) == 2
        assert again.lasso == refuted.lasso

    def test_a_session_reenters_the_open_pool(self, pools):
        """``Session(engine=e).run`` enters ``e`` again inside the
        caller's block: both runs map over the one pool, which closes
        when the caller's block ends."""
        from multiprocessing.pool import RUN

        from repro.api import PoolEngine

        request = (VerificationRequest.builder("hunt")
                   .policy("naive").scope(cores=3, max_load=2).build())
        with PoolEngine(2) as engine:
            first = Session(engine=engine).run(request)
            second = Session(engine=engine).run(request)
            assert len(pools) == 1
            assert pools[0]._state == RUN
        assert len(pools) == 1
        assert pools[0]._state != RUN
        assert first.render() == second.render() \
            == Session().run(request).render()


class TestDistributedLifetime:
    """A distributed engine acquires one worker fleet per ``with``
    block, however often sessions re-enter it."""

    def test_a_session_reenters_the_open_fleet(self, monkeypatch):
        from repro.api import DistributedEngine
        from repro.verify.distributed import Coordinator

        made = []
        real_init = Coordinator.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Coordinator, "__init__", counting_init)
        request = (VerificationRequest.builder("hunt")
                   .policy("naive").scope(cores=3, max_load=2).build())
        with DistributedEngine(workers=2, in_process=True) as engine:
            first = Session(engine=engine).run(request)
            second = Session(engine=engine).run(request)
            assert len(made) == 1
            assert engine.coordinator is made[0]
        assert len(made) == 1
        with pytest.raises(Exception, match="not open"):
            engine.coordinator
        assert first.render() == second.render() \
            == Session().run(request).render()

    def test_inner_exit_keeps_the_fleet_open(self):
        from repro.api import DistributedEngine

        with DistributedEngine(workers=2, in_process=True) as engine:
            coordinator = engine.coordinator
            with engine:
                assert engine.coordinator is coordinator
            assert engine.coordinator is coordinator
        with pytest.raises(Exception, match="not open"):
            engine.coordinator
