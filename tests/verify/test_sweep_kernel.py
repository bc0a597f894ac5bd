"""The state sweeps on the numpy kernel.

Wherever a kernel is available, ``tasks.sweep_shard`` checks Lemma1,
filter soundness, steal soundness, choice irrelevance and the potential
obligation in one array pass over the kernel's tables; the tuple loops
of ``lemmas.py`` and ``potential.py`` stay their oracle. Every test here
is differential: the same shard is swept once with the kernel and once
with ``REPRO_KERNEL=off``, and every :class:`SweepShardResult` field
but the timings must agree — status, ``states_checked``, the
counterexample (state, detail and data), the minimum decrease of ``d``
and its maximum.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import IdleOnlyRandomStealPolicy, RandomStealPolicy
from repro.core.policy import Policy
from repro.obs.trace import TRACER
from repro.policies import (
    BalanceCountPolicy,
    GreedyHalvingPolicy,
    GreedyReadyPolicy,
    InvertedFilterPolicy,
    NaiveOverloadedPolicy,
    OverStealingPolicy,
    ProvableWeightedPolicy,
    WeightedBalancePolicy,
)
from repro.topology.numa import symmetric_numa
from repro.verify import StateScope, prove_work_conserving
from repro.verify.encoding import StateCodec
from repro.verify.hierarchical import IntraGroupPolicy
from repro.verify.kernel import KERNEL_ENV
from repro.verify.obligations import ProofStatus
from repro.verify.tasks import (
    CheckerConfig,
    LocalRuntime,
    ShardSpec,
    SweepTask,
)

POLICIES = [
    BalanceCountPolicy(margin=1),
    BalanceCountPolicy(margin=2),
    BalanceCountPolicy(margin=3),
    GreedyHalvingPolicy(),
    GreedyReadyPolicy(),
    InvertedFilterPolicy(),
    NaiveOverloadedPolicy(),
    OverStealingPolicy(),
    ProvableWeightedPolicy(),
    WeightedBalancePolicy(),
    RandomStealPolicy(seed=3),
    IdleOnlyRandomStealPolicy(seed=3),
]


class TablePolicy(Policy):
    """A loads-only policy answering from given tables.

    ``can_steal`` admits exactly the ``(thief.nr_threads,
    stealee.nr_threads)`` pairs in ``admit``; ``steal_amount`` looks the
    pair up in ``amounts`` (default 1).
    """

    filter_invariance = "loads"
    name = "table"

    def __init__(self, admit, amounts=None) -> None:
        self.admit = frozenset(admit)
        self.amounts = dict(amounts or {})

    def can_steal(self, thief, stealee) -> bool:
        return (thief.nr_threads, stealee.nr_threads) in self.admit

    def steal_amount(self, thief, stealee) -> int:
        return self.amounts.get((thief.nr_threads, stealee.nr_threads), 1)


class OtherNodePolicy(BalanceCountPolicy):
    """Listing 1, but only across NUMA nodes.

    Inherits ``"loads"``: under a one-core-per-node topology every pair
    of cores sits on two nodes, so every pair answers alike and the
    checker gets a kernel — whose tables answer for the topology's
    nodes, not for the all-node-0 views the state sweeps check.
    """

    def can_steal(self, thief, stealee) -> bool:
        return (thief.node != stealee.node
                and super().can_steal(thief, stealee))


@contextlib.contextmanager
def kernel_env(mode: str) -> Iterator[None]:
    with mock.patch.dict(os.environ, {KERNEL_ENV: mode}):
        yield


def summary(shard):
    """Every field of a sweep result that must not depend on the tier."""
    results = {}
    for key, result in shard.results.items():
        cx = result.counterexample
        results[key] = (
            result.obligation.key, result.status, result.states_checked,
            result.scope, result.policy_name,
            None if cx is None else (cx.state, cx.detail, cx.data),
        )
    return results, shard.min_decrease, shard.max_potential


def sweep(policy, scope, mode, shard=0, n_shards=1, topology=None):
    """One sweep task under ``REPRO_KERNEL=mode``: its summary and the
    tier its ``checker.sweep`` span recorded."""
    spec = ShardSpec(CheckerConfig(policy=policy, topology=topology),
                     scope, shard, n_shards)
    with kernel_env(mode):
        TRACER.enable()
        try:
            result = LocalRuntime().run(SweepTask(spec=spec))
            spans = TRACER.drain()
        finally:
            TRACER.disable()
            TRACER.drain()
    (span,) = [s for s in spans if s.name == "checker.sweep"]
    assert span.category == "obligation"
    return summary(result), span.args


def assert_tiers_agree(policy, scope, shard=0, n_shards=1, topology=None):
    fast, fast_span = sweep(policy, scope, "numpy", shard, n_shards,
                            topology)
    slow, slow_span = sweep(policy, scope, "off", shard, n_shards, topology)
    assert fast_span["tier"] == "numpy"
    assert slow_span["tier"] == "tuple"
    assert fast_span["states"] == slow_span["states"]
    assert fast == slow
    return fast


#: Per-core load bound by core count: keeps each tuple sweep small.
MAX_LOAD = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}


@st.composite
def scopes(draw):
    n_cores = draw(st.integers(1, 5), label="cores")
    max_load = draw(st.integers(0, MAX_LOAD[n_cores]), label="max_load")
    max_total = draw(st.none() | st.integers(0, n_cores * max_load),
                     label="max_total")
    return StateScope(n_cores=n_cores, max_load=max_load,
                      max_total=max_total)


@st.composite
def shards(draw):
    n_shards = draw(st.integers(1, 3), label="n_shards")
    return draw(st.integers(0, n_shards - 1), label="shard"), n_shards


class TestFusedSweepMatchesTupleOracle:
    @given(policy=st.sampled_from(POLICIES), scope=scopes(),
           chunk=shards())
    @settings(max_examples=60, deadline=None)
    def test_library_policies(self, policy, scope, chunk):
        assert_tiers_agree(policy, scope, *chunk)

    @given(data=st.data(), scope=scopes(), chunk=shards())
    @settings(max_examples=80, deadline=None)
    def test_drawn_tables(self, data, scope, chunk):
        top = scope.n_cores * scope.max_load
        cells = [(t, v) for t in range(top + 1) for v in range(top + 1)]
        admit = data.draw(st.sets(st.sampled_from(cells)), label="admit")
        amounts = data.draw(
            st.dictionaries(st.sampled_from(cells), st.integers(-1, 4)),
            label="amounts",
        )
        assert_tiers_agree(TablePolicy(admit, amounts), scope, *chunk)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_whole_scope_at_4x3(self, policy):
        assert_tiers_agree(policy, StateScope(n_cores=4, max_load=3))

    @pytest.mark.parametrize("shard", [0, 1, 2])
    def test_refuted_chunks_at_4x3(self, shard):
        assert_tiers_agree(OverStealingPolicy(),
                           StateScope(n_cores=4, max_load=3), shard, 3)

    def test_empty_chunk(self):
        """More shards than states: the last shard sweeps nothing."""
        results, min_decrease, max_potential = assert_tiers_agree(
            BalanceCountPolicy(), StateScope(n_cores=1, max_load=1), 2, 3
        )
        assert min_decrease is None and max_potential is None
        assert {r[2] for r in results.values()} == {0}


#: Tables refuting one clause each, the obligation the clause refutes
#: and a phrase of its counterexample. (The steal-soundness clause "the
#: victim ends idle" cannot fire on abstract states: the clamp keeps the
#: victim's running task.)
CLAUSES = [
    ("never", set(), {}, "lemma1", "existence direction"),
    ("to-single", {(0, 1), (0, 2), (0, 3)}, {}, "lemma1",
     "completeness direction"),
    ("victim-without-ready", {(1, 1)}, {}, "filter_soundness",
     "no ready task"),
    ("amount-zero", {(0, 2)}, {(0, 2): 0}, "steal_soundness",
     "moves no task"),
    ("swap", {(1, 2)}, {}, "steal_soundness", "does not shrink"),
    ("overshoot", {(0, 3)}, {(0, 3): 2}, "steal_soundness", "overshoots"),
    ("amount-negative", {(0, 2)}, {(0, 2): -1}, "potential_decrease",
     "moves nothing"),
    ("swap", {(1, 2)}, {}, "potential_decrease", "leaves d at"),
]


class TestEachClause:
    @pytest.mark.parametrize(
        "admit, amounts, key, phrase",
        [case[1:] for case in CLAUSES],
        ids=[f"{case[0]}-{case[3]}" for case in CLAUSES],
    )
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_refuting_table(self, admit, amounts, key, phrase, n_shards):
        scope = StateScope(n_cores=3, max_load=3)
        for shard in range(n_shards):
            results, _, _ = assert_tiers_agree(
                TablePolicy(admit, amounts), scope, shard, n_shards
            )
            status, _, _, _, counterexample = results[key][1:]
            assert status is ProofStatus.REFUTED
            assert phrase in counterexample[1]

    def test_refutation_counts_every_earlier_state(self):
        """A counterexample deep in the sweep: ``states_checked`` sums
        every earlier state's checks plus the replayed state's."""
        scope = StateScope(n_cores=3, max_load=3)
        # (0, 0, 2) admits two sound steals; (0, 0, 3)'s first overshoots.
        results, _, _ = assert_tiers_agree(
            TablePolicy({(0, 2), (0, 3)}, {(0, 3): 2}), scope
        )
        status, checked, _, _, counterexample = results["steal_soundness"][1:]
        assert status is ProofStatus.REFUTED
        assert counterexample[0] == (0, 0, 3)
        assert checked == 3
        assert results["choice_irrelevance"][2] == checked


class TestKernelChoice:
    def test_numpy_is_the_default_tier(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        TRACER.enable()
        try:
            prove_work_conserving(BalanceCountPolicy(),
                                  StateScope(n_cores=3, max_load=2))
            spans = TRACER.drain()
        finally:
            TRACER.disable()
            TRACER.drain()
        assert [s.args["tier"] for s in spans
                if s.name == "checker.sweep"] == ["numpy"]

    def test_node_reading_policy_under_a_topology(self):
        """The checker's kernel answers for one core per node; the sweep
        must not reuse it for its all-node-0 views."""
        topology = symmetric_numa(3, 1)
        scope = StateScope(n_cores=3, max_load=3)
        config = CheckerConfig(policy=OtherNodePolicy(), topology=topology)
        with kernel_env("numpy"):
            checker = config.build()
            assert checker._kernel_for(StateCodec.for_scope(scope)) \
                is not None
            assert checker.sweep_kernel(scope) is not None
        assert_tiers_agree(OtherNodePolicy(), scope, topology=topology)
        certificates = {}
        for mode in ("numpy", "off"):
            with kernel_env(mode):
                certificates[mode] = prove_work_conserving(
                    OtherNodePolicy(), scope, topology=topology
                ).render()
        assert certificates["numpy"] == certificates["off"]
        assert "existence direction" in certificates["numpy"]

    def test_scoped_loads_policy_runs_the_tuple_loops(self):
        policy = IntraGroupPolicy(BalanceCountPolicy(), (0, 0, 1, 1))
        scope = StateScope(n_cores=4, max_load=2)
        reports = {}
        for mode in ("numpy", "off"):
            results, span = sweep(policy, scope, mode)
            assert span["tier"] == "tuple"
            with kernel_env(mode):
                reports[mode] = (results, prove_work_conserving(
                    policy, scope
                ).render())
        assert reports["numpy"] == reports["off"]

    @pytest.mark.parametrize("policy, proved", [
        (BalanceCountPolicy(), True),
        (NaiveOverloadedPolicy(), False),
    ], ids=["balance_count", "naive"])
    def test_policy_choice_mode_sweeps_on_the_kernel(self, policy, proved):
        """The sweeps never consult ``choose``: under
        ``choice_mode='policy'`` they still run on the kernel, while
        exploration keeps the tuple executor."""
        scope = StateScope(n_cores=3, max_load=3)
        reports, tiers = {}, {}
        for mode in ("numpy", "off"):
            with kernel_env(mode):
                TRACER.enable()
                try:
                    cert = prove_work_conserving(policy, scope,
                                                 choice_mode="policy")
                    spans = TRACER.drain()
                finally:
                    TRACER.disable()
                    TRACER.drain()
            reports[mode] = cert.render()
            tiers[mode] = [s.args["tier"] for s in spans
                           if s.name == "checker.sweep"]
            assert cert.proved is proved
        assert reports["numpy"] == reports["off"]
        assert tiers == {"numpy": ["numpy"], "off": ["tuple"]}
        with kernel_env("numpy"):
            checker = CheckerConfig(policy=policy,
                                    choice_mode="policy").build()
            assert checker._kernel_for(StateCodec.for_scope(scope)) is None
            assert checker.sweep_kernel(scope) is not None
