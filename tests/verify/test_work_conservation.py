"""Tests for the assembled work-conservation certificate (the paper's §4
pipeline end to end)."""

import pytest

from repro.policies import (
    BalanceCountPolicy,
    NaiveOverloadedPolicy,
    WeightedBalancePolicy,
)
from repro.verify import StateScope, prove_work_conserving
from repro.verify.symmetry import FlatSymmetryGroup

from tests.conftest import PROVEN_POLICIES


class TestCertificatesForProvenPolicies:
    @pytest.mark.parametrize("policy", PROVEN_POLICIES,
                             ids=lambda p: p.name)
    def test_full_pipeline_proves(self, policy, small_scope):
        cert = prove_work_conserving(policy, small_scope)
        assert cert.proved
        assert cert.report.all_proved
        assert not cert.analysis.violated
        assert cert.potential_bound is not None
        assert cert.exact_worst_rounds is not None

    def test_bound_dominates_exact(self, small_scope):
        cert = prove_work_conserving(BalanceCountPolicy(), small_scope)
        assert cert.potential_bound >= cert.exact_worst_rounds

    def test_certificate_renders(self, small_scope):
        cert = prove_work_conserving(BalanceCountPolicy(), small_scope)
        text = cert.render()
        assert "WORK-CONSERVING" in text
        assert "exact worst-case N" in text
        assert "lemma1" in text

    def test_obligation_results_accessible_by_key(self, small_scope):
        cert = prove_work_conserving(BalanceCountPolicy(), small_scope)
        for key in ("lemma1", "filter_soundness", "steal_soundness",
                    "choice_irrelevance", "potential_decrease",
                    "progress", "good_state_closure", "work_conservation"):
            assert cert.report.result_for(key).ok

    def test_unknown_obligation_key_raises(self, small_scope):
        cert = prove_work_conserving(BalanceCountPolicy(), small_scope)
        with pytest.raises(KeyError):
            cert.report.result_for("does_not_exist")


class TestCertificatesForBrokenPolicies:
    def test_naive_policy_not_proved(self):
        cert = prove_work_conserving(
            NaiveOverloadedPolicy(), StateScope(n_cores=3, max_load=2)
        )
        assert not cert.proved
        assert cert.analysis.violated
        refuted_keys = {r.obligation.key for r in cert.report.refuted}
        assert "work_conservation" in refuted_keys
        assert "steal_soundness" in refuted_keys
        # Lemma1 is NOT refuted — the paper's point about needing more
        # than the sequential lemma.
        assert "lemma1" not in refuted_keys

    def test_naive_certificate_renders_violation(self):
        cert = prove_work_conserving(
            NaiveOverloadedPolicy(), StateScope(n_cores=3, max_load=2)
        )
        text = cert.render()
        assert "VIOLATED" in text
        assert "NOT PROVED" in text

    def test_margin1_refutes_lemma1_and_more(self):
        cert = prove_work_conserving(
            BalanceCountPolicy(margin=1), StateScope(n_cores=3, max_load=2)
        )
        assert not cert.proved
        refuted_keys = {r.obligation.key for r in cert.report.refuted}
        assert "lemma1" in refuted_keys

    def test_weighted_policy_without_count_margin_not_proved(self,
                                                             small_scope):
        cert = prove_work_conserving(WeightedBalancePolicy(), small_scope)
        assert not cert.proved
        # No potential bound: the potential obligation failed.
        assert cert.potential_bound is None


class TestScopeScaling:
    def test_four_core_scope_proves(self):
        cert = prove_work_conserving(
            BalanceCountPolicy(),
            StateScope(n_cores=4, max_load=3),
            max_orders=24,
        )
        assert cert.proved
        assert cert.exact_worst_rounds == 2

    def test_symmetric_mode_matches_full(self, small_scope):
        full = prove_work_conserving(BalanceCountPolicy(), small_scope)
        sym = prove_work_conserving(BalanceCountPolicy(), small_scope,
                                    symmetry=FlatSymmetryGroup())
        assert full.proved == sym.proved
        assert full.exact_worst_rounds == sym.exact_worst_rounds

    def test_policy_choice_mode(self, small_scope):
        """Restricting to the policy's own deterministic choice is weaker
        but must still prove for Listing 1."""
        cert = prove_work_conserving(BalanceCountPolicy(), small_scope,
                                     choice_mode="policy")
        assert cert.proved


class TestSweepCount:
    """How often the state sweeps build ``views_of`` views: four times
    per state on the tuple loops, and on the numpy kernel only for the
    states a refuted obligation replays."""

    @pytest.fixture
    def views_calls(self, monkeypatch):
        from importlib import import_module

        from repro.verify.enumeration import views_of

        # ``repro.verify.potential`` is also the name of a re-exported
        # function, so the modules are looked up by name.
        lemmas = import_module("repro.verify.lemmas")
        potential = import_module("repro.verify.potential")

        calls = []

        def counting_views_of(state, nodes=None):
            calls.append(tuple(state))
            return views_of(state, nodes)

        monkeypatch.setattr(lemmas, "views_of", counting_views_of)
        monkeypatch.setattr(potential, "views_of", counting_views_of)
        return calls

    def test_serial_prove_sweeps_the_scope_four_times(self, monkeypatch,
                                                      views_calls):
        """Lemma1, filter soundness, steal soundness (which choice
        irrelevance relabels) and one potential loop each build every
        state's views once; nothing else sweeps the scope."""
        from repro.verify.enumeration import count_states

        monkeypatch.setenv("REPRO_KERNEL", "off")
        scope = StateScope(n_cores=3, max_load=2)
        cert = prove_work_conserving(BalanceCountPolicy(), scope)
        assert cert.proved
        assert len(views_calls) == 4 * count_states(scope)

    def test_kernel_prove_builds_no_views(self, monkeypatch, views_calls):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        cert = prove_work_conserving(BalanceCountPolicy(),
                                     StateScope(n_cores=3, max_load=2))
        assert cert.proved
        assert views_calls == []

    def test_kernel_refutation_replays_only_its_witnesses(self, monkeypatch,
                                                          views_calls):
        """Each refuted sweep obligation replays its tuple checker on
        its first failing state, and no other state gets views."""
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        cert = prove_work_conserving(NaiveOverloadedPolicy(),
                                     StateScope(n_cores=3, max_load=2))
        replayed = [
            cert.report.result_for(key).counterexample.state
            for key in ("lemma1", "filter_soundness", "steal_soundness",
                        "potential_decrease")
            if not cert.report.result_for(key).ok
        ]
        assert replayed
        assert sorted(views_calls) == sorted(replayed)

