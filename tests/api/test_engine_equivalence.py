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
