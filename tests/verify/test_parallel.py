"""Tests for the parallel sharded verification engine.

The load-bearing property everywhere: for any ``jobs``, the merged
outcome is *identical* to the serial path — same statuses, same
counterexamples, same exact ``N``, same state counts — because the
reducers are deterministic and order-independent. Scopes here are tiny so
each pool spin-up stays cheap.
"""

import pytest

from repro.policies import BalanceCountPolicy
from repro.policies.naive import GreedyReadyPolicy, NaiveOverloadedPolicy
from repro.verify import (
    CampaignConfig,
    ModelChecker,
    PolicyReplicator,
    StateScope,
    derive_campaign_seed,
    merge_campaign_reports,
    merge_graphs,
    merge_proof_results,
    prove_work_conserving,
    resolve_jobs,
    run_campaign,
)
from repro.verify.campaign import CampaignReport
from repro.verify.symmetry import FlatSymmetryGroup
from repro.verify.parallel import pool_tasks
from repro.verify.work_conservation import analyze, campaign, prove
from repro.verify.obligations import (
    LEMMA1,
    PROGRESS,
    Counterexample,
    ProofResult,
    ProofStatus,
)

SCOPE = StateScope(n_cores=3, max_load=2)


def _result(status=ProofStatus.PROVED_AT_SCOPE, state=None, checked=10,
            obligation=LEMMA1, elapsed=1.0):
    counterexample = None
    if state is not None:
        status = ProofStatus.REFUTED
        counterexample = Counterexample(state=state, detail="boom")
    return ProofResult(
        obligation=obligation, policy_name="p", status=status,
        scope="s", states_checked=checked, counterexample=counterexample,
        elapsed_s=elapsed,
    )


class TestMergeProofResults:
    def test_all_proved_sums_counts_and_maxes_elapsed(self):
        merged = merge_proof_results(
            [_result(checked=3, elapsed=1.0), _result(checked=4, elapsed=2.5)]
        )
        assert merged.status is ProofStatus.PROVED_AT_SCOPE
        assert merged.states_checked == 7
        assert merged.elapsed_s == 2.5
        assert merged.counterexample is None

    def test_any_refuted_dominates(self):
        merged = merge_proof_results(
            [_result(), _result(state=(0, 2)), _result()]
        )
        assert merged.status is ProofStatus.REFUTED
        assert merged.counterexample.state == (0, 2)

    def test_lexicographically_first_counterexample_wins(self):
        merged = merge_proof_results(
            [_result(state=(1, 0, 2)), _result(state=(0, 2, 2))]
        )
        assert merged.counterexample.state == (0, 2, 2)

    def test_descending_order_for_canonical_sweeps(self):
        merged = merge_proof_results(
            [_result(state=(1, 0)), _result(state=(2, 0))],
            order_key=FlatSymmetryGroup().serial_order_key,
        )
        assert merged.counterexample.state == (2, 0)

    def test_merge_is_order_independent(self):
        shards = [_result(state=(2, 0)), _result(checked=5),
                  _result(state=(0, 2))]
        forward = merge_proof_results(shards)
        backward = merge_proof_results(list(reversed(shards)))
        assert forward.counterexample.state == backward.counterexample.state
        assert forward.states_checked == backward.states_checked

    def test_empty_and_mixed_obligations_rejected(self):
        with pytest.raises(ValueError):
            merge_proof_results([])
        with pytest.raises(ValueError):
            merge_proof_results([_result(), _result(obligation=PROGRESS)])


class TestMergeGraphs:
    def test_union_and_truncation(self):
        g1 = {(0, 2): frozenset({(1, 1)})}
        g2 = {(1, 1): frozenset({(1, 1)}), (0, 2): frozenset({(1, 1)})}
        edges, truncated = merge_graphs([(g1, False), (g2, True)])
        assert edges == {(0, 2): frozenset({(1, 1)}),
                         (1, 1): frozenset({(1, 1)})}
        assert truncated


class TestMergeCampaignReports:
    def test_sums_and_maxes(self):
        a = CampaignReport(policy_name="p", machines=2, rounds=10, steals=3,
                           failures=1, max_rounds_to_quiescence=2)
        b = CampaignReport(policy_name="p", machines=3, rounds=15, steals=4,
                           failures=0, max_rounds_to_quiescence=5)
        b.violations.append(Counterexample(state=(0, 2), detail="x"))
        merged = merge_campaign_reports([a, b])
        assert merged.machines == 5
        assert merged.rounds == 25
        assert merged.steals == 7
        assert merged.failures == 1
        assert merged.max_rounds_to_quiescence == 5
        assert not merged.clean

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_campaign_reports([])


class TestHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_derive_campaign_seed_reproducible_and_distinct(self):
        seeds = [derive_campaign_seed(42, i) for i in range(16)]
        assert seeds == [derive_campaign_seed(42, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert derive_campaign_seed(0, 0) != derive_campaign_seed(1, 0)

    def test_policy_replicator_clones_are_independent(self):
        template = BalanceCountPolicy(margin=3)
        factory = PolicyReplicator(template)
        one, two = factory(), factory()
        assert one is not two and one is not template
        assert one.margin == 3
        assert one.name == template.name


class TestCertificateEquivalence:
    @pytest.mark.parametrize("policy_cls", [
        BalanceCountPolicy,          # fully proved
        NaiveOverloadedPolicy,       # refuted (ping-pong lasso)
        GreedyReadyPolicy,           # refuted at the lemma layer
    ])
    def test_parallel_matches_serial(self, policy_cls):
        serial = prove_work_conserving(policy_cls(), SCOPE)
        with pool_tasks(2) as tasks:
            parallel = prove(policy_cls(), SCOPE, tasks)
        assert parallel.proved == serial.proved
        assert parallel.exact_worst_rounds == serial.exact_worst_rounds
        assert parallel.potential_bound == serial.potential_bound
        assert parallel.min_decrease == serial.min_decrease
        assert (parallel.analysis.states_explored
                == serial.analysis.states_explored)
        for ours, theirs in zip(parallel.report.results,
                                serial.report.results):
            assert ours.obligation.key == theirs.obligation.key
            assert ours.status == theirs.status
            if theirs.counterexample is not None:
                assert ours.counterexample.state == theirs.counterexample.state
                assert ours.counterexample.detail == theirs.counterexample.detail

    def test_jobs_one_is_the_serial_path(self):
        with pool_tasks(1) as tasks:
            assert tasks.n_shards == 1
            cert = prove(BalanceCountPolicy(), SCOPE, tasks)
        assert cert.proved

    def test_more_shards_than_states(self):
        tiny = StateScope(n_cores=2, max_load=1)
        serial = prove_work_conserving(BalanceCountPolicy(), tiny)
        with pool_tasks(8) as tasks:
            parallel = prove(BalanceCountPolicy(), tiny, tasks)
        assert parallel.proved == serial.proved
        assert (parallel.report.result_for("lemma1").states_checked
                == serial.report.result_for("lemma1").states_checked)

    def test_symmetric_mode_matches(self):
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE,
                                       symmetry=FlatSymmetryGroup())
        with pool_tasks(3) as tasks:
            parallel = prove(BalanceCountPolicy(), SCOPE, tasks,
                             symmetry=FlatSymmetryGroup())
        assert parallel.proved == serial.proved
        assert parallel.exact_worst_rounds == serial.exact_worst_rounds
        assert (parallel.analysis.states_explored
                == serial.analysis.states_explored)


class TestAnalyzeParallel:
    def test_violation_matches_serial(self):
        serial = ModelChecker(NaiveOverloadedPolicy()).analyze(SCOPE)
        with pool_tasks(2) as tasks:
            parallel = analyze(NaiveOverloadedPolicy(), SCOPE, tasks)
        assert parallel.violated and serial.violated
        assert parallel.lasso.cycle == serial.lasso.cycle
        assert parallel.states_explored == serial.states_explored

    def test_clean_policy_matches_serial(self):
        serial = ModelChecker(BalanceCountPolicy()).analyze(SCOPE)
        with pool_tasks(2) as tasks:
            parallel = analyze(BalanceCountPolicy(), SCOPE, tasks)
        assert not parallel.violated
        assert parallel.worst_case_rounds == serial.worst_case_rounds
        assert parallel.states_explored == serial.states_explored


class TestCampaignParallel:
    CONFIG = CampaignConfig(n_machines=6, max_cores=5, max_load=4,
                            rounds_per_machine=8, seed=11)

    def _campaign(self, factory, jobs):
        with pool_tasks(jobs) as tasks:
            return campaign(factory, self.CONFIG, tasks)

    def test_budget_is_conserved_and_reproducible(self):
        first = self._campaign(BalanceCountPolicy, jobs=2)
        second = self._campaign(BalanceCountPolicy, jobs=2)
        assert first.machines == self.CONFIG.n_machines
        assert first.rounds == (self.CONFIG.n_machines
                                * self.CONFIG.rounds_per_machine)
        assert first.describe() == second.describe()
        assert first.clean

    def test_jobs_exceeding_machines_is_clamped(self):
        report = self._campaign(BalanceCountPolicy, jobs=32)
        assert report.machines == self.CONFIG.n_machines

    def test_jobs_one_matches_plain_run_campaign(self):
        direct = run_campaign(BalanceCountPolicy, self.CONFIG)
        routed = self._campaign(BalanceCountPolicy, jobs=1)
        assert routed.describe() == direct.describe()

    def test_unpicklable_factory_is_supported(self):
        # The CLI hands a closure; PolicyReplicator must carry it through.
        report = self._campaign(lambda: BalanceCountPolicy(margin=2),
                                jobs=2)
        assert report.machines == self.CONFIG.n_machines


class TestTopologySymmetryParallel:
    """Engine equivalence under a NUMA symmetry group and topology."""

    def _setup(self):
        from repro.policies.numa_aware import NumaAwareChoicePolicy
        from repro.topology.numa import symmetric_numa
        from repro.verify.symmetry import NumaSymmetryGroup

        topo = symmetric_numa(2, 2)
        return topo, NumaSymmetryGroup(topo), NumaAwareChoicePolicy(topo)

    def test_numa_group_certificate_matches_serial(self):
        topo, group, policy = self._setup()
        scope = StateScope(n_cores=4, max_load=3)
        serial = prove_work_conserving(policy, scope, symmetry=group,
                                       topology=topo)
        with pool_tasks(2) as tasks:
            parallel = prove(policy, scope, tasks, symmetry=group,
                             topology=topo)
        assert parallel.render() == serial.render()
        assert parallel.proved

    def test_hierarchical_analyze_matches_serial(self):
        from repro.topology.numa import symmetric_numa
        from repro.verify.hierarchical import HierarchySpec

        spec = HierarchySpec(topology=symmetric_numa(2, 2))
        scope = StateScope(n_cores=4, max_load=3)
        analyses = {}
        for jobs in (1, 2):
            with pool_tasks(jobs) as tasks:
                analyses[jobs] = analyze(None, scope, tasks, hierarchy=spec,
                                         symmetry=spec.symmetry_group())
        serial, parallel = analyses[1], analyses[2]
        assert not serial.violated and not parallel.violated
        assert parallel.worst_case_rounds == serial.worst_case_rounds
        assert parallel.states_explored == serial.states_explored

    def test_merge_order_key_for_numa_groups(self):
        from repro.topology.numa import symmetric_numa
        from repro.verify.symmetry import NumaSymmetryGroup

        # The NUMA group's serial order is descending per node block:
        # (2, 0, 0, 0) (load on node 0) precedes (0, 0, 2, 0) only
        # after canonicalisation maps both to the same representative —
        # use states in distinct orbits to pin the ordering.
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        merged = merge_proof_results(
            [_result(state=(1, 1, 0, 0)), _result(state=(2, 0, 0, 0))],
            order_key=group.serial_order_key,
        )
        assert merged.counterexample.state == (2, 0, 0, 0)
