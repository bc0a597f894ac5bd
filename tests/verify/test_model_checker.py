"""Tests for the explicit-state model checker: lassos and exact N."""

import pytest

from repro.policies import (
    BalanceCountPolicy,
    GreedyHalvingPolicy,
    NaiveOverloadedPolicy,
)
from repro.policies.naive import GreedyReadyPolicy
from repro.verify.symmetry import FlatSymmetryGroup
from repro.verify import (
    ModelChecker,
    StateScope,
    is_bad_state,
)
from repro.verify.encoding import StateCodec
from repro.verify.enumeration import iter_states
from repro.verify.transition import enumerate_round_branches

from tests.conftest import PROVEN_POLICIES


class TestPingPongDiscovery:
    """E5: the checker must rediscover the paper's counterexample."""

    def test_naive_filter_violates_work_conservation(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated
        assert analysis.worst_case_rounds is None

    def test_lasso_is_the_papers_pingpong(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        cycle = set(analysis.lasso.cycle)
        # The exact §4.3 oscillation between (0,1,2) and (0,2,1).
        assert cycle == {(0, 1, 2), (0, 2, 1)}
        assert all(is_bad_state(s) for s in analysis.lasso.cycle)

    def test_lasso_description_is_readable(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        text = analysis.lasso.describe()
        assert "repeats" in text and "forever" in text

    def test_violation_surfaces_in_proof_result(self):
        analysis = ModelChecker(NaiveOverloadedPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        result = analysis.to_proof_result()
        assert not result.ok
        assert "lasso" in result.counterexample.detail


class TestProvenPolicies:
    @pytest.mark.parametrize("policy", PROVEN_POLICIES,
                             ids=lambda p: p.name)
    def test_no_violation_at_scope(self, policy, small_scope):
        analysis = ModelChecker(policy).analyze(small_scope)
        assert not analysis.violated
        assert analysis.worst_case_rounds is not None

    def test_exact_worst_case_small_machine(self):
        """3 cores, loads <= 3: one concurrent round always suffices for
        Listing 1 (at most one idle core can be contested)."""
        analysis = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=3, max_load=3)
        )
        assert analysis.worst_case_rounds == 1

    def test_depth_does_not_grow_worst_case_on_two_cores(self):
        """An idle core stops being idle after its first successful
        steal, so the *bad condition* clears in one round no matter how
        deep the imbalance — depth costs steals, not bad rounds."""
        shallow = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=2, max_load=3)
        ).worst_case_rounds
        deep = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=2, max_load=8)
        ).worst_case_rounds
        assert shallow == deep == 1

    def test_contention_grows_worst_case(self):
        """What does cost bad rounds: several idle cores racing for the
        same victim — the loser stays idle into the next round."""
        low = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=3, max_load=3)
        ).worst_case_rounds
        high = ModelChecker(BalanceCountPolicy()).analyze(
            StateScope(n_cores=4, max_load=3)
        ).worst_case_rounds
        assert low == 1
        assert high == 2

    def test_five_core_exact_n_is_three(self):
        """The contention series continues: at 5 cores three idle cores
        can lose successive races, so N = 3 (symmetry-reduced sweep)."""
        analysis = ModelChecker(
            BalanceCountPolicy(), symmetry=FlatSymmetryGroup(),
            max_orders=5040,
        ).analyze(StateScope(n_cores=5, max_load=3))
        assert not analysis.violated
        assert not analysis.truncated
        assert analysis.worst_case_rounds == 3

    def test_halving_converges_no_slower_than_single_steal(self):
        scope = StateScope(n_cores=2, max_load=8)
        single = ModelChecker(BalanceCountPolicy()).analyze(scope)
        halving = ModelChecker(GreedyHalvingPolicy()).analyze(scope)
        assert halving.worst_case_rounds <= single.worst_case_rounds


class TestDegenerateMargins:
    def test_margin1_oscillates(self):
        analysis = ModelChecker(BalanceCountPolicy(margin=1)).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated

    def test_margin3_gets_stuck(self):
        analysis = ModelChecker(BalanceCountPolicy(margin=3)).analyze(
            StateScope(n_cores=2, max_load=2)
        )
        assert analysis.violated
        # The stuck state is a self-loop: the cycle has length 1.
        assert len(analysis.lasso.cycle) == 1
        assert is_bad_state(analysis.lasso.cycle[0])

    def test_greedy_ready_starves_under_adversary(self):
        analysis = ModelChecker(GreedyReadyPolicy()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated


class TestRegimes:
    def test_sequential_analysis_converges_for_naive_policy(self):
        """§4.2 vs §4.3: the naive filter is fine without concurrency —
        sequential rounds always fix the imbalance."""
        analysis = ModelChecker(NaiveOverloadedPolicy(),
                                sequential=True).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert not analysis.violated
        assert analysis.worst_case_rounds is not None

    def test_sequential_never_slower_than_needed(self):
        analysis = ModelChecker(BalanceCountPolicy(),
                                sequential=True).analyze(
            StateScope(n_cores=3, max_load=3)
        )
        assert analysis.worst_case_rounds == 1

    def test_round_model_is_fixed_at_construction(self):
        scope = StateScope(n_cores=3, max_load=2)
        concurrent = ModelChecker(NaiveOverloadedPolicy())
        sequential = ModelChecker(NaiveOverloadedPolicy(), sequential=True)
        assert not concurrent.sequential
        assert sequential.sequential
        assert not concurrent.analyze(scope).sequential
        assert sequential.analyze(scope).sequential

    def test_round_model_and_group_are_keyword_only(self):
        with pytest.raises(TypeError):
            ModelChecker(BalanceCountPolicy(), "all", 10, True)

    def test_successors_follow_the_checkers_round_model(self):
        """Each checker memoises its own regime's successors; the two
        regimes disagree on the naive policy's pingpong state."""
        policy = NaiveOverloadedPolicy()
        checkers = {sequential: ModelChecker(policy, sequential=sequential)
                    for sequential in (False, True)}
        for sequential, checker in checkers.items():
            for state in iter_states(StateScope(n_cores=3, max_load=2)):
                succ, _ = checker.successors(state)
                reference = enumerate_round_branches(
                    policy, state, sequential=sequential
                ).successor_states()
                assert succ == reference
        assert checkers[False].successors((0, 1, 2)) \
            != checkers[True].successors((0, 1, 2))

    def test_sequential_packed_expansion_bypasses_the_round_kernel(self):
        """The transition kernel models only the §4.3 round, so a
        sequential checker's packed expansion must match its own
        successors, not the kernel's."""
        scope = StateScope(n_cores=3, max_load=2)
        codec = StateCodec.for_scope(scope)
        checker = ModelChecker(NaiveOverloadedPolicy(), sequential=True)
        states = list(iter_states(scope))
        edges, _, _ = checker.expand_level(codec.encode_batch(states), codec)
        for state in states:
            succ, _ = checker.successors(state)
            assert {codec.decode(p) for p in edges[codec.encode(state)]} \
                == succ

    def test_sequential_checker_keeps_the_sweep_kernel(self):
        """Sweeps check single steals, which do not depend on the round
        model: a sequential checker still sweeps on the kernel."""
        scope = StateScope(n_cores=3, max_load=2)
        assert ModelChecker(BalanceCountPolicy()).sweep_kernel(scope) \
            is not None
        assert ModelChecker(BalanceCountPolicy(),
                            sequential=True).sweep_kernel(scope) is not None


class TestAuxiliaryObligations:
    def test_good_state_closure_for_listing1(self, small_scope):
        checker = ModelChecker(BalanceCountPolicy())
        assert checker.check_good_state_closure(small_scope).ok

    def test_progress_for_listing1(self, small_scope):
        checker = ModelChecker(BalanceCountPolicy())
        assert checker.check_progress(small_scope).ok

    def test_progress_holds_even_for_naive(self, small_scope):
        """Subtle: every naive round still commits one steal (the first
        executed attempt); the bug is that progress alone is not enough —
        the potential must also decrease. The checker must keep these
        separate."""
        checker = ModelChecker(NaiveOverloadedPolicy())
        assert checker.check_progress(small_scope).ok

    def test_progress_holds_even_for_margin1(self):
        """Even margin-1 rounds commit a steal in every branch: any
        load-1 thief targets an overloaded victim, and idle thieves that
        pick empty load-1 victims never mutate anything, so the round's
        overloaded-victim steal still lands. What refutes margin-1 is
        attribution (EMPTY_VICTIM with no concurrent cause) and the
        lasso — not progress."""
        checker = ModelChecker(BalanceCountPolicy(margin=1))
        result = checker.check_progress(StateScope(n_cores=3, max_load=2))
        assert result.ok


class TestSymmetryReduction:
    def test_symmetric_mode_agrees_with_full_mode(self):
        scope = StateScope(n_cores=3, max_load=3)
        full = ModelChecker(BalanceCountPolicy()).analyze(scope)
        sym = ModelChecker(BalanceCountPolicy(),
                           symmetry=FlatSymmetryGroup()).analyze(scope)
        assert full.violated == sym.violated
        assert full.worst_case_rounds == sym.worst_case_rounds
        assert sym.states_explored < full.states_explored

    def test_symmetric_mode_finds_the_pingpong_too(self):
        analysis = ModelChecker(NaiveOverloadedPolicy(),
                                symmetry=FlatSymmetryGroup()).analyze(
            StateScope(n_cores=3, max_load=2)
        )
        assert analysis.violated


class TestCaching:
    def test_successor_cache_reused(self):
        checker = ModelChecker(BalanceCountPolicy())
        first, _ = checker.successors((0, 1, 2))
        second, _ = checker.successors((0, 1, 2))
        assert first is second
