"""Tests for the hierarchical verification module (§5 composed liveness)."""

import pytest

from repro.core.balancer import LoadBalancer
from repro.policies import BalanceCountPolicy
from repro.policies.hierarchical import HierarchicalBalancer, ScopedPolicy
from repro.verify import StateScope, analyze_hierarchical
from repro.verify.hierarchical import HierarchicalAnalysis
from repro.verify.symmetry import FlatSymmetryGroup


class TestHierarchicalLiveness:
    def test_default_hierarchical_balancer_verifies(self):
        analysis = analyze_hierarchical(
            StateScope(n_cores=4, max_load=3), group_size=2,
        )
        assert not analysis.violated
        assert analysis.worst_case_rounds is not None
        assert analysis.states_checked == 4 ** 4

    def test_six_core_three_groups(self):
        analysis = analyze_hierarchical(
            StateScope(n_cores=6, max_load=2, max_total=8), group_size=2,
        )
        assert not analysis.violated

    def test_worst_case_is_small(self):
        analysis = analyze_hierarchical(
            StateScope(n_cores=4, max_load=3), group_size=2,
        )
        # Two levels per round: convergence within a handful of rounds.
        assert analysis.worst_case_rounds <= 6

    def test_group_size_must_divide(self):
        with pytest.raises(ValueError):
            analyze_hierarchical(
                StateScope(n_cores=4, max_load=2), group_size=3,
            )

    def test_proof_result_conversion(self):
        analysis = analyze_hierarchical(
            StateScope(n_cores=4, max_load=2), group_size=2,
        )
        result = analysis.to_proof_result("balance_count")
        assert result.ok
        assert "hierarchical" in result.policy_name


class TestBrokenHierarchicalVariants:
    def test_under_balancing_group_margin_caught(self):
        """A group-level margin of 4 on 2-core groups leaves group
        imbalances of 2-3 unfixed; when the intra level cannot help
        either (the surplus sits on one core of a foreign group), the
        wasted-core condition persists forever — the analysis must say
        so."""
        def factory(machine, domains):
            return HierarchicalBalancer(
                machine, domains,
                group_policy=BalanceCountPolicy(margin=4),
                intra_policy=BalanceCountPolicy(margin=2),
                keep_history=False,
            )

        analysis = analyze_hierarchical(
            StateScope(n_cores=4, max_load=3), group_size=2,
            balancer_factory=factory,
        )
        assert analysis.violated
        assert analysis.cycle_witness is not None

    def test_flat_balancer_through_the_same_harness(self):
        """Sanity: the harness also accepts a flat balancer (a trivial
        'hierarchy'), and Listing 1 passes as it must."""
        def factory(machine, domains):
            return LoadBalancer(machine, BalanceCountPolicy(),
                                keep_history=False,
                                check_invariants=False)

        analysis = analyze_hierarchical(
            StateScope(n_cores=4, max_load=2), group_size=2,
            balancer_factory=factory,
        )
        assert not analysis.violated


class TestScopedIntraLevel:
    def test_scoped_policy_forms_the_intra_level(self):
        """The intra level is exactly the flat pipeline on a scoped
        policy; its obligations are covered by the flat checkers."""
        from repro.verify import check_lemma1

        # A scoped policy over the whole scope's cores degenerates to
        # the base policy; Lemma1 transfers.
        scoped = ScopedPolicy(BalanceCountPolicy(), allowed=[0, 1, 2])
        result = check_lemma1(scoped, StateScope(n_cores=3, max_load=3))
        assert result.ok


class TestAdversarialHierarchicalChecker:
    """The §5 extension under the full §4.3 adversary."""

    def _spec(self, **kwargs):
        from repro.topology.numa import symmetric_numa
        from repro.verify.hierarchical import HierarchySpec

        return HierarchySpec(topology=symmetric_numa(2, 2), **kwargs)

    def test_default_balancer_survives_the_adversary(self):
        from repro.verify.hierarchical import HierarchicalModelChecker

        analysis = HierarchicalModelChecker(self._spec()).analyze(
            StateScope(n_cores=4, max_load=3)
        )
        assert not analysis.violated
        assert analysis.worst_case_rounds is not None

    def test_adversarial_n_at_least_deterministic_n(self):
        from repro.verify.hierarchical import HierarchicalModelChecker

        scope = StateScope(n_cores=4, max_load=3)
        adversarial = HierarchicalModelChecker(self._spec()).analyze(scope)
        deterministic = analyze_hierarchical(scope, group_size=2)
        assert (adversarial.worst_case_rounds
                >= deterministic.worst_case_rounds)

    def test_domain_group_quotient_matches_full(self):
        from repro.verify.hierarchical import HierarchicalModelChecker

        scope = StateScope(n_cores=4, max_load=3)
        spec = self._spec()
        full = HierarchicalModelChecker(spec).analyze(scope)
        quotient = HierarchicalModelChecker(
            spec, symmetry=spec.symmetry_group()
        ).analyze(scope)
        assert full.violated == quotient.violated
        assert full.worst_case_rounds == quotient.worst_case_rounds
        assert quotient.states_explored < full.states_explored

    def test_under_balancing_group_margin_caught_adversarially(self):
        """The same broken variant the deterministic sweep catches."""
        from repro.verify.hierarchical import HierarchicalModelChecker

        analysis = HierarchicalModelChecker(
            self._spec(group_margin=4)
        ).analyze(StateScope(n_cores=4, max_load=3))
        assert analysis.violated
        assert analysis.lasso is not None

    def test_progress_and_closure_obligations_run(self):
        from repro.verify.hierarchical import HierarchicalModelChecker

        checker = HierarchicalModelChecker(self._spec())
        scope = StateScope(n_cores=4, max_load=2)
        assert checker.check_progress(scope).ok
        assert checker.check_good_state_closure(scope).ok

    def test_no_sequential_regime(self):
        """Hierarchical rounds have no §4.2 fresh-snapshot regime, so the
        checker cannot be built for one."""
        from repro.verify.hierarchical import HierarchicalModelChecker

        with pytest.raises(TypeError):
            HierarchicalModelChecker(self._spec(), sequential=True)
        assert not HierarchicalModelChecker(self._spec()).sequential

    def test_build_checker_dispatch(self):
        from repro.core.errors import VerificationError
        from repro.policies import BalanceCountPolicy
        from repro.verify.hierarchical import (
            HierarchicalModelChecker,
            build_checker,
        )
        from repro.verify.model_checker import ModelChecker

        hierarchical = build_checker(None, hierarchy=self._spec())
        assert isinstance(hierarchical, HierarchicalModelChecker)
        flat = build_checker(BalanceCountPolicy())
        assert type(flat) is ModelChecker
        with pytest.raises(VerificationError):
            build_checker(None)

    def test_intra_group_policy_scopes_the_filter(self):
        from repro.core.policy import LoadView
        from repro.verify.hierarchical import IntraGroupPolicy

        scoped = IntraGroupPolicy(BalanceCountPolicy(), (0, 0, 1, 1))
        idle = LoadView(cid=0, load_count=0)
        same_group = LoadView(cid=1, load_count=3)
        other_group = LoadView(cid=2, load_count=3)
        assert scoped.can_steal(idle, same_group)
        assert not scoped.can_steal(idle, other_group)

    def test_flat_group_rejected_as_partition_breaking(self):
        """The flat S_n group merges states across balancing
        groups the scoped filter distinguishes — it silently changed
        verdicts (e.g. intra_margin=3 at 2x2) and must be refused."""
        from repro.core.errors import VerificationError
        from repro.verify.hierarchical import HierarchicalModelChecker

        with pytest.raises(VerificationError, match="partition"):
            HierarchicalModelChecker(self._spec(),
                                     symmetry=FlatSymmetryGroup())

    def test_partial_group_block_swaps_rejected(self):
        from repro.core.errors import VerificationError
        from repro.verify.hierarchical import HierarchicalModelChecker
        from repro.verify.symmetry import BlockSymmetryGroup

        # Singleton-core blocks, all in one class: equivalent to the
        # flat group but shaped as a BlockSymmetryGroup — still unsound.
        sneaky = BlockSymmetryGroup(
            4, [(0,), (1,), (2,), (3,)], [(0, 1, 2, 3)], name="sneaky"
        )
        with pytest.raises(VerificationError, match="unsound"):
            HierarchicalModelChecker(self._spec(), symmetry=sneaky)

    def test_numa_group_of_same_topology_accepted(self):
        from repro.verify.hierarchical import HierarchicalModelChecker
        from repro.verify.symmetry import NumaSymmetryGroup

        spec = self._spec()
        checker = HierarchicalModelChecker(
            spec, symmetry=NumaSymmetryGroup(spec.topology)
        )
        assert not checker.analyze(StateScope(n_cores=4, max_load=2)).violated

    @pytest.mark.parametrize("margins", [(2, 2), (2, 3), (4, 2), (3, 3)])
    def test_domain_group_agrees_with_ground_truth_across_margins(
        self, margins
    ):
        """Including the margin combos where the (refused) flat group
        silently flipped the verdict."""
        from repro.verify.hierarchical import HierarchicalModelChecker

        group_margin, intra_margin = margins
        spec = self._spec(group_margin=group_margin,
                          intra_margin=intra_margin)
        scope = StateScope(n_cores=4, max_load=2)
        full = HierarchicalModelChecker(spec).analyze(scope)
        quotient = HierarchicalModelChecker(
            spec, symmetry=spec.symmetry_group()
        ).analyze(scope)
        assert full.violated == quotient.violated
        assert full.worst_case_rounds == quotient.worst_case_rounds
