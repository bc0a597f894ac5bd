"""The progress and good-state-closure obligations read off the graph.

Where exploration runs on the numpy :class:`TransitionKernel`,
``ModelChecker.check_progress`` and ``check_good_state_closure`` answer
from the explored closure graph; the tuple executor's per-state loop
stays their oracle. Every test here is differential: the same
obligation is run once with the kernel and once with
``REPRO_KERNEL=off``, each over its own tier's explored graph of the
whole scope, and the two results must agree on status,
``states_checked`` and the counterexample (state, detail and data).
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import VerificationError
from repro.obs.trace import TRACER
from repro.policies import (
    BalanceCountPolicy,
    GreedyReadyPolicy,
    InvertedFilterPolicy,
    NaiveOverloadedPolicy,
    OverStealingPolicy,
    WeightedBalancePolicy,
)
from repro.topology.numa import symmetric_numa
from repro.verify import ModelChecker, StateScope, prove_work_conserving
from repro.verify.hierarchical import HierarchicalModelChecker, HierarchySpec
from repro.verify.kernel import KERNEL_ENV, TransitionKernel
from repro.verify.obligations import ProofStatus
from repro.verify.symmetry import (
    FlatSymmetryGroup,
    NumaSymmetryGroup,
    TrivialGroup,
)


class StallsAtThreePolicy(BalanceCountPolicy):
    """balance_count, except that a victim with three threads gives
    nothing: its bad states before ``(0, 0, 3)`` make progress, so the
    progress witness lies past the first bad state."""

    def __init__(self) -> None:
        super().__init__()
        self.name = "stalls_at_three"

    def steal_amount(self, thief, stealee) -> int:
        return 0 if stealee.nr_threads == 3 else 1


POLICIES = [
    BalanceCountPolicy(margin=1),
    BalanceCountPolicy(margin=2),
    BalanceCountPolicy(margin=3),
    InvertedFilterPolicy(),
    NaiveOverloadedPolicy(),
    GreedyReadyPolicy(),
    OverStealingPolicy(),
    WeightedBalancePolicy(),
    StallsAtThreePolicy(),
]

#: Group factories by name; ``numa:2x2`` only fits 4-core scopes.
GROUPS = {
    "trivial": TrivialGroup,
    "flat": FlatSymmetryGroup,
    "numa:2x2": lambda: NumaSymmetryGroup(symmetric_numa(2, 2)),
}

OBLIGATIONS = ("check_progress", "check_good_state_closure")


@contextlib.contextmanager
def kernel_env(mode: str) -> Iterator[None]:
    with mock.patch.dict(os.environ, {KERNEL_ENV: mode}):
        yield


def summary(result):
    """Everything of a result that must not depend on the tier."""
    cx = result.counterexample
    return (
        result.obligation.key, result.status, result.states_checked,
        result.scope,
        None if cx is None else (cx.state, cx.detail, cx.data),
    )


def run(policy, group_name, scope, obligation, mode):
    """Explore ``scope`` and run one obligation on its graph, in a fresh
    checker under ``REPRO_KERNEL=mode``, as a proof does.

    Returns the result and the ``checker.<obligation>`` span.
    """
    with kernel_env(mode):
        checker = ModelChecker(policy, symmetry=GROUPS[group_name]())
        graph, _ = checker.explore(
            checker.symmetry.iter_representatives(scope)
        )
        TRACER.enable()
        try:
            result = getattr(checker, obligation)(scope, graph)
            spans = TRACER.drain()
        finally:
            TRACER.disable()
            TRACER.drain()
    (span,) = [s for s in spans if s.category == "obligation"]
    return result, span


def assert_tiers_agree(policy, group_name, scope, obligation):
    fast, fast_span = run(policy, group_name, scope, obligation, "numpy")
    slow, slow_span = run(policy, group_name, scope, obligation, "off")
    assert fast_span.args["tier"] == "numpy"
    assert slow_span.args["tier"] == "tuple"
    assert fast_span.args["states"] == slow_span.args["states"]
    assert summary(fast) == summary(slow)
    return fast


class TestKernelMatchesTupleOracle:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_scopes_groups_and_policies(self, data):
        policy = data.draw(st.sampled_from(POLICIES), label="policy")
        n_cores = data.draw(st.integers(2, 4), label="cores")
        max_load = data.draw(st.integers(1, 3), label="max_load")
        groups = ["trivial", "flat"] + (["numa:2x2"] if n_cores == 4 else [])
        group_name = data.draw(st.sampled_from(groups), label="group")
        obligation = data.draw(st.sampled_from(OBLIGATIONS),
                               label="obligation")
        scope = StateScope(n_cores=n_cores, max_load=max_load)
        assert_tiers_agree(policy, group_name, scope, obligation)

    @pytest.mark.parametrize("group_name", sorted(GROUPS))
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_whole_scope_at_4x2(self, policy, group_name):
        scope = StateScope(n_cores=4, max_load=2)
        for obligation in OBLIGATIONS:
            assert_tiers_agree(policy, group_name, scope, obligation)

    def test_whole_scope_at_4x3(self):
        scope = StateScope(n_cores=4, max_load=3)
        for obligation in OBLIGATIONS:
            assert_tiers_agree(BalanceCountPolicy(margin=1), "trivial",
                               scope, obligation)

    @pytest.mark.parametrize("policy, witness", [
        (BalanceCountPolicy(margin=3), "no steal intent at all"),
        (InvertedFilterPolicy(), "committed no steal"),
    ], ids=["margin3", "inverted"])
    @pytest.mark.parametrize("group_name", ["trivial", "flat"])
    def test_refuted_progress_witnesses(self, policy, witness, group_name):
        """Both witness kinds are rebuilt exactly, branch index
        included, from the first flagged state in sweep order."""
        result = assert_tiers_agree(policy, group_name,
                                    StateScope(n_cores=3, max_load=3),
                                    "check_progress")
        assert result.status is ProofStatus.REFUTED
        assert witness in result.counterexample.detail

    def test_refutation_counts_branches_before_the_witness(self):
        """A witness past the first bad state: ``states_checked`` sums
        every earlier bad state's branches plus the witness's index —
        (0, 0, 2)'s two steal orders, then (0, 0, 3)'s first branch."""
        result = assert_tiers_agree(StallsAtThreePolicy(), "trivial",
                                    StateScope(n_cores=3, max_load=3),
                                    "check_progress")
        assert result.status is ProofStatus.REFUTED
        assert result.counterexample.state == (0, 0, 3)
        assert "committed no steal" in result.counterexample.detail
        assert result.states_checked == 3

    @pytest.mark.parametrize("obligation", OBLIGATIONS)
    @pytest.mark.parametrize("mode", ["numpy", "off"])
    def test_without_a_graph_the_checker_explores_the_scope(self, mode,
                                                            obligation):
        scope = StateScope(n_cores=3, max_load=3)
        policy = StallsAtThreePolicy()
        given_graph, _ = run(policy, "trivial", scope, obligation, mode)
        with kernel_env(mode):
            own = getattr(ModelChecker(policy), obligation)(scope)
        assert summary(own) == summary(given_graph)


def _two_overloaded(state) -> bool:
    return sum(1 for load in state if load >= 2) >= 2


def _two_overloaded_mask(self, packed):
    loads = (packed[:, None] >> self._shifts) & self._digit_mask
    return (loads >= 2).sum(axis=1) >= 2


class TestClosureWitnessRebuild:
    """No policy of the model refutes closure: a good state with an idle
    core has no overloaded core, so no steal moves anything. To reach
    the kernel path's witness rebuild, both paths swap in a badness
    predicate that good states can leave ("two overloaded cores")."""

    @pytest.fixture(autouse=True)
    def refutable_badness(self, monkeypatch):
        monkeypatch.setattr("repro.verify.model_checker.is_bad_state",
                            _two_overloaded)
        monkeypatch.setattr(TransitionKernel, "bad_mask",
                            _two_overloaded_mask)

    @pytest.mark.parametrize("group_name", ["trivial", "flat"])
    def test_refuted_closure_matches_the_oracle(self, group_name):
        result = assert_tiers_agree(
            BalanceCountPolicy(), group_name,
            StateScope(n_cores=3, max_load=3),
            "check_good_state_closure",
        )
        assert result.status is ProofStatus.REFUTED
        assert "successor" in result.counterexample.data


class TestGraphQueries:
    def test_a_kernel_flag_the_tuple_executor_clears_is_an_error(
            self, monkeypatch):
        """The kernel's stall flags are only trusted as far as the tuple
        executor rebuilds a witness."""
        original = TransitionKernel.expand_batch_arrays

        def always_stalls(self, packed, stalls=False):
            result = original(self, packed, stalls)
            if not stalls:
                return result
            return result[:3] + (numpy.ones(len(packed), dtype=bool),)

        monkeypatch.setattr(TransitionKernel, "expand_batch_arrays",
                            always_stalls)
        with kernel_env("numpy"):
            checker = ModelChecker(NaiveOverloadedPolicy())
            with pytest.raises(VerificationError,
                               match="tuple executor finds no"):
                checker.check_progress(StateScope(n_cores=4, max_load=3))

    def test_a_graph_missing_swept_states_is_an_error(self):
        with kernel_env("numpy"):
            checker = ModelChecker(BalanceCountPolicy())
            graph, _ = checker.explore([(0, 0, 2)])
            with pytest.raises(VerificationError, match="misses swept"):
                checker.check_progress(StateScope(n_cores=3, max_load=2),
                                       graph)


class TestOneExpansionPerProof:
    """A proof runs every explored state through the kernel once: the
    obligations add only the self-looping bad states' stall query."""

    @staticmethod
    def kernel_inputs(monkeypatch, policy, scope):
        calls: list[tuple[int, bool]] = []
        original = TransitionKernel.expand_batch_arrays

        def counting(self, packed, stalls=False):
            calls.append((len(packed), stalls))
            return original(self, packed, stalls)

        monkeypatch.setattr(TransitionKernel, "expand_batch_arrays",
                            counting)
        with kernel_env("numpy"):
            certificate = prove_work_conserving(policy, scope)
        explored = sum(n for n, stalls in calls if not stalls)
        candidates = sum(n for n, stalls in calls if stalls)
        return certificate, explored, candidates

    def test_balance_count_5x4_expands_each_state_once(self, monkeypatch):
        certificate, explored, candidates = self.kernel_inputs(
            monkeypatch, BalanceCountPolicy(),
            StateScope(n_cores=5, max_load=4),
        )
        assert certificate.proved
        assert explored == certificate.analysis.states_explored
        assert candidates == 0

    def test_naive_4x3_adds_only_the_self_loop_candidates(self,
                                                          monkeypatch):
        certificate, explored, candidates = self.kernel_inputs(
            monkeypatch, NaiveOverloadedPolicy(),
            StateScope(n_cores=4, max_load=3),
        )
        assert explored == certificate.analysis.states_explored
        assert candidates == 82
        assert certificate.report.result_for("progress").ok


    def test_serial_prove_builds_one_kernel(self, monkeypatch):
        """The driver checks the obligations on the runtime's checker,
        whose kernel exploration already built."""
        import repro.verify.model_checker as model_checker

        built = []
        original = model_checker.build_kernel

        def counting(*args, **kwargs):
            built.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(model_checker, "build_kernel", counting)
        with kernel_env("numpy"):
            prove_work_conserving(BalanceCountPolicy(),
                                  StateScope(n_cores=4, max_load=3))
        assert len(built) == 1

    def test_tuple_tier_enumerates_each_state_once(self, monkeypatch):
        """On the tuple tier the obligations reuse exploration's branch
        and successor memos."""
        enumerated = []
        original = ModelChecker._enumerate_round

        def counting(self, state):
            enumerated.append(state)
            return original(self, state)

        monkeypatch.setattr(ModelChecker, "_enumerate_round", counting)
        with kernel_env("off"):
            certificate = prove_work_conserving(
                BalanceCountPolicy(), StateScope(n_cores=4, max_load=3)
            )
        assert certificate.proved
        assert len(enumerated) == certificate.analysis.states_explored


class TestTuplePathStays:
    def test_hierarchical_checker_takes_the_tuple_path(self):
        spec = HierarchySpec(topology=symmetric_numa(2, 2))
        scope = StateScope(n_cores=4, max_load=2)
        results = {}
        for mode in ("numpy", "off"):
            with kernel_env(mode):
                checker = HierarchicalModelChecker(spec)
                TRACER.enable()
                try:
                    results[mode] = [
                        summary(getattr(checker, name)(scope))
                        for name in OBLIGATIONS
                    ]
                    spans = TRACER.drain()
                finally:
                    TRACER.disable()
                    TRACER.drain()
            assert [s.args["tier"] for s in spans
                    if s.category == "obligation"] == ["tuple", "tuple"]
        assert results["numpy"] == results["off"]

    def test_kernel_off_takes_the_tuple_path(self):
        for obligation in OBLIGATIONS:
            _, span = run(BalanceCountPolicy(), "trivial",
                          StateScope(n_cores=3, max_load=2), obligation,
                          "off")
            assert span.args["tier"] == "tuple"
