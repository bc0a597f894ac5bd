"""The progress and good-state-closure obligations on the numpy kernel.

Where exploration runs on the numpy :class:`TransitionKernel`, so do
``ModelChecker.check_progress`` and ``check_good_state_closure``; the
tuple executor stays their oracle. Every test here is differential:
the same obligation is run once with the kernel and once with
``REPRO_KERNEL=off``, and the two results must agree on status,
``states_checked`` and the counterexample (state, detail and data) —
over the whole-scope sweep and over the ``states=`` chunks
``liveness_shard_worker`` passes.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.verify import ModelChecker, StateScope
from repro.verify.hierarchical import HierarchicalModelChecker, HierarchySpec
from repro.verify.kernel import KERNEL_ENV, TransitionKernel
from repro.verify.obligations import ProofStatus
from repro.verify.symmetry import (
    FlatSymmetryGroup,
    NumaSymmetryGroup,
    TrivialGroup,
)

pytest.importorskip("numpy")

POLICIES = [
    BalanceCountPolicy(margin=1),
    BalanceCountPolicy(margin=2),
    BalanceCountPolicy(margin=3),
    InvertedFilterPolicy(),
    NaiveOverloadedPolicy(),
    GreedyReadyPolicy(),
    OverStealingPolicy(),
    WeightedBalancePolicy(),
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


def run(policy, group_name, scope, obligation, mode, chunk=None):
    """Run one obligation in a fresh checker under ``REPRO_KERNEL=mode``.

    Returns the result and the tier its ``checker.<obligation>`` span
    recorded.
    """
    with kernel_env(mode):
        checker = ModelChecker(policy, symmetry=GROUPS[group_name]())
        states = None
        if chunk is not None:
            shard, n_shards = chunk
            states = checker.symmetry.iter_representatives_chunk(
                scope, shard, n_shards
            )
        TRACER.enable()
        try:
            result = getattr(checker, obligation)(scope, states)
            spans = TRACER.drain()
        finally:
            TRACER.disable()
            TRACER.drain()
    (span,) = [s for s in spans if s.category == "obligation"]
    return result, span


def assert_tiers_agree(policy, group_name, scope, obligation, chunk=None):
    fast, fast_span = run(policy, group_name, scope, obligation, "numpy",
                          chunk)
    slow, slow_span = run(policy, group_name, scope, obligation, "off",
                          chunk)
    assert fast_span.args["tier"] == "numpy"
    assert slow_span.args["tier"] == "tuple"
    assert fast_span.args["states"] == slow_span.args["states"]
    assert summary(fast) == summary(slow)
    return fast


class TestKernelMatchesTupleOracle:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_scopes_groups_and_chunks(self, data):
        policy = data.draw(st.sampled_from(POLICIES), label="policy")
        n_cores = data.draw(st.integers(2, 4), label="cores")
        max_load = data.draw(st.integers(1, 3), label="max_load")
        groups = ["trivial", "flat"] + (["numa:2x2"] if n_cores == 4 else [])
        group_name = data.draw(st.sampled_from(groups), label="group")
        obligation = data.draw(st.sampled_from(OBLIGATIONS),
                               label="obligation")
        n_shards = data.draw(st.integers(1, 3), label="n_shards")
        chunk = None
        if n_shards > 1:
            chunk = (data.draw(st.integers(0, n_shards - 1), label="shard"),
                     n_shards)
        scope = StateScope(n_cores=n_cores, max_load=max_load)
        assert_tiers_agree(policy, group_name, scope, obligation, chunk)

    @pytest.mark.parametrize("group_name", sorted(GROUPS))
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_whole_scope_at_4x2(self, policy, group_name):
        scope = StateScope(n_cores=4, max_load=2)
        for obligation in OBLIGATIONS:
            assert_tiers_agree(policy, group_name, scope, obligation)

    @pytest.mark.parametrize("shard", [0, 1, 2])
    def test_liveness_chunks_at_4x3(self, shard):
        scope = StateScope(n_cores=4, max_load=3)
        for obligation in OBLIGATIONS:
            assert_tiers_agree(BalanceCountPolicy(margin=1), "trivial",
                               scope, obligation, chunk=(shard, 3))

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
        every earlier bad state's branches plus the witness's index."""
        scope = StateScope(n_cores=4, max_load=3)
        states = [(0, 0, 0, 3), (1, 1, 1, 1), (0, 0, 3, 3), (0, 0, 1, 2),
                  (0, 0, 0, 3)]
        results = []
        for mode in ("numpy", "off"):
            with kernel_env(mode):
                checker = ModelChecker(BalanceCountPolicy(margin=3))
                results.append(checker.check_progress(scope, states))
        fast, slow = results
        assert summary(fast) == summary(slow)
        assert fast.status is ProofStatus.REFUTED
        assert fast.counterexample.state == (0, 0, 1, 2)
        assert fast.states_checked > 3

    def test_empty_sweep(self):
        scope = StateScope(n_cores=3, max_load=2)
        for obligation in OBLIGATIONS:
            with kernel_env("numpy"):
                result = getattr(ModelChecker(BalanceCountPolicy()),
                                 obligation)(scope, [])
            assert result.ok
            assert result.states_checked == 0


def _two_overloaded(state) -> bool:
    return sum(1 for load in state if load >= 2) >= 2


def _two_overloaded_mask(self, packed):
    loads = (packed[:, None] >> self._shifts_np) & self._digit_mask
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
    @pytest.mark.parametrize("chunk", [None, (1, 2)])
    def test_refuted_closure_matches_the_oracle(self, group_name, chunk):
        result = assert_tiers_agree(
            BalanceCountPolicy(), group_name,
            StateScope(n_cores=3, max_load=3),
            "check_good_state_closure", chunk,
        )
        assert result.status is ProofStatus.REFUTED
        assert "successor" in result.counterexample.data


class TestTuplePathStays:
    def test_hierarchical_checker_takes_the_tuple_path(self):
        spec = HierarchySpec(topology=symmetric_numa(2, 2))
        scope = StateScope(n_cores=4, max_load=2)
        results = {}
        for mode in ("numpy", "off"):
            with kernel_env(mode):
                checker = HierarchicalModelChecker(spec)
                states = list(checker.symmetry.iter_representatives(scope))
                assert checker._packed_sweep(scope, states) is None
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

    @pytest.mark.parametrize("mode", ["off", "python"])
    def test_kernel_off_and_python_tier_take_the_tuple_path(self, mode):
        with kernel_env(mode):
            checker = ModelChecker(BalanceCountPolicy())
            scope = StateScope(n_cores=3, max_load=2)
            assert checker._packed_sweep(
                scope, list(checker.symmetry.iter_representatives(scope))
            ) is None

    def test_states_outside_the_scope_codec_take_the_tuple_path(self):
        with kernel_env("numpy"):
            checker = ModelChecker(BalanceCountPolicy())
            scope = StateScope(n_cores=3, max_load=1)
            assert checker._packed_sweep(scope, [(0, 0, 9)]) is None
            assert checker._packed_sweep(scope, [(0, 1, 1)]) is not None
            result = checker.check_progress(scope, [(0, 0, 9)])
        with kernel_env("off"):
            oracle = ModelChecker(BalanceCountPolicy()).check_progress(
                scope, [(0, 0, 9)]
            )
        assert summary(result) == summary(oracle)
