"""Equivalence tests for the vectorised transition kernel.

The kernel is only sound if it is *indistinguishable* from the tuple
executor it replaces, so every test here is a differential one:

* ``TransitionKernel`` successors and truncation flags versus
  :func:`~repro.verify.transition.enumerate_round_branches`, across
  policies and permutation caps;
* the hierarchical packed fast path's ``_inter_mid_states`` versus the
  shared tuple helper ``_inter_outcomes`` (the docstring contract in
  ``repro.verify.hierarchical`` points at this file);
* the ``REPRO_KERNEL`` eligibility gates (mode parsing, opt-in
  declarations, bytes-form codecs);
* the progress obligation's row counts and stall flags versus the
  tuple executor's branches, and ``bad_mask`` versus ``is_bad_state``.
"""

import contextlib
import io
import itertools

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.request import PolicySpec, build_policy
from repro.cli import main
from repro.core.errors import VerificationError
from repro.core.policy import Policy
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
from repro.verify import (
    StateCodec,
    StateScope,
    TransitionKernel,
    build_kernel,
    prove_work_conserving,
)
from repro.verify.hierarchical import (
    HierarchicalModelChecker,
    HierarchySpec,
    _inter_outcomes,
)
from repro.verify.enumeration import is_bad_state
from repro.verify.kernel import kernel_mode
from repro.verify.obligations import ProofStatus
from repro.verify.symmetry import TrivialGroup
from repro.verify.transition import enumerate_round_branches

POLICIES = [
    BalanceCountPolicy(),
    GreedyHalvingPolicy(),
    GreedyReadyPolicy(),
    InvertedFilterPolicy(),
    NaiveOverloadedPolicy(),
    OverStealingPolicy(),
    ProvableWeightedPolicy(),
    WeightedBalancePolicy(),
]

def kernel_for(policy, codec, max_orders=5040):
    """Build a kernel regardless of the environment's REPRO_KERNEL."""
    return TransitionKernel(policy, codec, max_orders=max_orders)


def assert_batch_matches_tuples(kernel, codec, states, max_orders):
    batch = kernel.expand_batch(codec.encode_batch(states))
    for state, (succ, truncated) in zip(states, batch):
        reference = enumerate_round_branches(
            kernel.policy, state, max_orders=max_orders
        )
        assert {codec.decode(p) for p in succ} \
            == reference.successor_states(), state
        assert truncated == reference.truncated, state


class TestKernelMatchesTupleExecutor:
    @pytest.mark.parametrize(
        "policy", POLICIES, ids=lambda p: p.name,
    )
    def test_full_product_space(self, policy):
        """Every 4-core state with loads 0..3, uncapped permutations."""
        states = list(itertools.product(range(4), repeat=4))
        codec = StateCodec(n_cores=4, max_value=12)
        kernel = kernel_for(policy, codec)
        assert_batch_matches_tuples(kernel, codec, states, 5040)

    @pytest.mark.parametrize("max_orders", [1, 2, 3])
    def test_truncation_caps_agree(self, max_orders):
        """The per-combination permutation cap and its truncation flag."""
        states = list(itertools.product(range(4), repeat=4))
        codec = StateCodec(n_cores=4, max_value=12)
        kernel = kernel_for(
            NaiveOverloadedPolicy(), codec, max_orders=max_orders
        )
        assert_batch_matches_tuples(kernel, codec, states, max_orders)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_wider_states(self, data):
        """Sampled 5-core states — beyond the exhaustive 4-core grid."""
        policy = data.draw(st.sampled_from(POLICIES))
        states = data.draw(st.lists(
            st.lists(st.integers(min_value=0, max_value=3),
                     min_size=5, max_size=5).map(tuple),
            min_size=1, max_size=8,
        ))
        codec = StateCodec(n_cores=5, max_value=15)
        kernel = kernel_for(policy, codec, max_orders=6)
        assert_batch_matches_tuples(kernel, codec, states, 6)


class TestHierarchicalMidStates:
    """``_inter_mid_states`` (packed fast path) vs ``_inter_outcomes``."""

    @pytest.mark.parametrize("nodes,cores,top,max_orders", [
        (2, 2, 3, 5040),
        (2, 2, 2, 1),
        (3, 2, 1, 2),
    ])
    def test_exhaustive_mid_state_equivalence(self, nodes, cores, top,
                                              max_orders):
        topo = symmetric_numa(nodes, cores)
        checker = HierarchicalModelChecker(
            HierarchySpec(topology=topo), symmetry=TrivialGroup(),
            max_orders=max_orders,
        )
        n = nodes * cores
        for state in itertools.product(range(top + 1), repeat=n):
            mids, truncated = checker._inter_mid_states(state)
            outcomes, ref_truncated = _inter_outcomes(
                checker.group_policy, checker.groups,
                checker._group_nodes, state,
                choice_mode=checker.choice_mode, max_orders=max_orders,
            )
            assert mids == {mid for mid, _, _ in outcomes}, state
            assert truncated == ref_truncated, state

    def test_group_can_memo_only_for_loads_invariant_policies(self):
        checker = HierarchicalModelChecker(
            HierarchySpec(topology=symmetric_numa(2, 2)),
            symmetry=TrivialGroup(),
        )
        assert checker._group_loads_invariant
        checker._inter_mid_states((3, 0, 0, 0))
        assert checker._group_can_memo  # populated by the fast path


class TestEligibilityGates:
    def test_mode_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_mode() == "numpy"
        monkeypatch.setenv("REPRO_KERNEL", " OFF ")
        assert kernel_mode() == "off"
        monkeypatch.setenv("REPRO_KERNEL", "Numpy")
        assert kernel_mode() == "numpy"

    @pytest.mark.parametrize("mode", ["python", "auto", "vectorised"])
    def test_removed_and_unknown_modes_are_rejected(self, monkeypatch,
                                                    mode):
        monkeypatch.setenv("REPRO_KERNEL", mode)
        with pytest.raises(VerificationError, match="off|numpy"):
            kernel_mode()

    def test_off_disables_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        codec = StateCodec(n_cores=3, max_value=6)
        assert build_kernel(BalanceCountPolicy(), codec) is None

    def test_policy_and_checker_opt_outs(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        codec = StateCodec(n_cores=3, max_value=6)
        policy = BalanceCountPolicy()
        assert build_kernel(policy, codec, choice_mode="policy") is None
        assert build_kernel(policy, codec, max_orders=0) is None

        class OpaquePolicy(BalanceCountPolicy):
            filter_invariance = "none"

        assert build_kernel(OpaquePolicy(), codec) is None

    def test_undeclared_policy_gets_no_kernel(self, monkeypatch):
        """Eligibility is opt-in: a direct ``Policy`` subclass that
        declares nothing stays on the tuple executor."""
        monkeypatch.setenv("REPRO_KERNEL", "numpy")

        class Undeclared(Policy):
            def can_steal(self, thief, stealee):
                return stealee.nr_threads - thief.nr_threads >= 2

        assert Undeclared.filter_invariance == "none"
        assert build_kernel(Undeclared(),
                            StateCodec(n_cores=3, max_value=6)) is None

    @pytest.mark.parametrize("name", [
        "balance_count", "greedy_halving", "naive", "weighted",
        "idle_random_steal", "numa_choice",
    ])
    def test_benchmark_policies_build_a_kernel(self, monkeypatch, name):
        """Every policy the benchmark proves or hunts still declares
        itself loads-invariant, so none of them loses the kernel."""
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        policy = build_policy(PolicySpec(name=name), symmetric_numa(3, 2))
        assert build_kernel(policy,
                            StateCodec(n_cores=6, max_value=12)) is not None

    def test_bytes_form_codec_gets_no_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        codec = StateCodec(n_cores=16, max_value=16)
        assert not codec.use_int
        assert build_kernel(BalanceCountPolicy(), codec) is None

    def test_bytes_form_hunt_matches_kernel_off(self, monkeypatch):
        """``hunt balance_count --cores 16 --max-load 1 --symmetric``
        packs 80-bit states: the same output under both modes."""
        outputs = {}
        for mode in ("off", "numpy"):
            monkeypatch.setenv("REPRO_KERNEL", mode)
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(["hunt", "balance_count", "--cores", "16",
                             "--max-load", "1", "--symmetric"])
            outputs[mode] = (code, buffer.getvalue())
        assert outputs["numpy"] == outputs["off"]
        assert "over 17 states" in outputs["off"][1]

    @pytest.mark.parametrize("mode", ["off", "numpy"])
    def test_cid_reading_filter_is_refuted_on_every_tier(self, monkeypatch,
                                                          mode):
        """A filter that never picks core 0 as victim starves it: the
        lasso ``(2, 0, 0)`` repeats forever. The kernel probes one cid
        pair, so it must not serve this undeclared policy; if it did,
        progress and work conservation would be proved with ``N = 1``."""
        monkeypatch.setenv("REPRO_KERNEL", mode)

        class SkipsCoreZero(Policy):
            name = "skips_core_zero"

            def can_steal(self, thief, stealee):
                return (stealee.cid != 0
                        and self.load(stealee) - self.load(thief) >= 2)

            def steal_amount(self, thief, stealee):
                return 1

        cert = prove_work_conserving(SkipsCoreZero(),
                                     StateScope(n_cores=3, max_load=3))
        report = cert.report
        assert report.result_for("progress").status is ProofStatus.REFUTED
        wc = report.result_for("work_conservation")
        assert wc.status is ProofStatus.REFUTED
        assert (2, 0, 0) in wc.counterexample.data["cycle"]
        assert not cert.proved


    @pytest.mark.parametrize("mode", ["off", "numpy"])
    def test_cid_reading_subclass_of_a_library_policy_is_refuted(
            self, monkeypatch, mode):
        """A subclass of a library policy inherits its ``"loads"``
        declaration. Overriding the filter to skip core 0 as victim must
        still refute progress and work conservation on every tier: the
        kernel probes every core pair, sees the pairs disagree, and
        leaves the policy to the tuple executor."""
        monkeypatch.setenv("REPRO_KERNEL", mode)

        class SkipsCoreZero(BalanceCountPolicy):
            name = "balance_count_skips_core_zero"

            def can_steal(self, thief, stealee):
                return stealee.cid != 0 and super().can_steal(thief,
                                                              stealee)

        assert SkipsCoreZero.filter_invariance == "loads"
        cert = prove_work_conserving(SkipsCoreZero(),
                                     StateScope(n_cores=3, max_load=3))
        report = cert.report
        assert report.result_for("progress").status is ProofStatus.REFUTED
        wc = report.result_for("work_conservation")
        assert wc.status is ProofStatus.REFUTED
        assert (2, 0, 0) in wc.counterexample.data["cycle"]
        assert not cert.proved

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.sampled_from([BalanceCountPolicy, GreedyHalvingPolicy,
                              NaiveOverloadedPolicy, OverStealingPolicy]),
        n_cores=st.integers(min_value=2, max_value=4),
        reads=st.sampled_from(["thief-cid", "victim-cid", "victim-node"]),
        target=st.integers(min_value=0, max_value=4),
        grouped=st.booleans(),
    )
    def test_position_reading_subclasses_match_the_tuple_executor_or_get_no_kernel(
            self, base, n_cores, reads, target, grouped):
        """Subclasses of library policies that read a cid or a node: the
        kernel either reproduces the tuple executor's successors at
        every state, with the same cids and nodes, or is refused."""
        nodes = (tuple(cid % 2 for cid in range(n_cores)) if grouped
                 else None)

        class ReadsPosition(base):
            def can_steal(self, thief, stealee):
                position = {"thief-cid": thief.cid,
                            "victim-cid": stealee.cid,
                            "victim-node": stealee.node}[reads]
                return position != target and super().can_steal(thief,
                                                                stealee)

        policy = ReadsPosition()
        codec = StateCodec(n_cores=n_cores, max_value=2 * n_cores)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_KERNEL", "numpy")
            kernel = build_kernel(policy, codec, nodes=nodes)
        if kernel is None:
            return
        states = list(itertools.product(range(3), repeat=n_cores))
        batch = kernel.expand_batch(codec.encode_batch(states))
        for state, (succ, truncated) in zip(states, batch):
            reference = enumerate_round_branches(policy, state, nodes=nodes)
            assert {codec.decode(p) for p in succ} \
                == reference.successor_states(), state
            assert truncated == reference.truncated, state


class TestManyThiefExpansion:
    """The n-thief array expansion versus the tuple executor.

    The kernel executes *every* thief count through the mixed-radix
    shared-prefix-tree expansion — there is no per-state fallback — so
    states with three, four, and five racing thieves must reproduce the
    tuple executor's successor sets and truncation flags exactly, caps
    included.
    """

    #: 6-core states with known many-thief structure under
    #: ``BalanceCountPolicy`` (idle cores race for the loaded ones).
    MANY_THIEF_STATES = [
        (0, 0, 0, 4, 4, 4),    # three racing thieves
        (0, 0, 0, 0, 4, 4),    # four
        (0, 0, 0, 0, 0, 5),    # five
        (1, 0, 2, 0, 5, 4),    # mixed running/ready victims
        (2, 0, 0, 0, 6, 6),    # four thieves, unequal victims
    ]

    @staticmethod
    def thief_count(kernel, packed):
        """Number of cores with at least one admissible victim."""
        arr = numpy.asarray([packed], dtype=numpy.int64)
        loads = (arr[:, None] >> kernel._shifts) & kernel._digit_mask
        running = (loads > 0).astype(numpy.int64)
        ready = loads - running
        intents = kernel._can[
            running[:, :, None], running[:, None, :],
            ready[:, :, None], ready[:, None, :],
        ]
        intents &= ~kernel._eye
        if kernel._mask is not None:
            intents &= kernel._mask
        return int(intents.any(axis=2).sum())

    def test_handpicked_states_cover_three_to_five_thieves(self):
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        counts = {
            self.thief_count(kernel, codec.encode(s))
            for s in self.MANY_THIEF_STATES
        }
        assert {3, 4, 5} <= counts

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_many_thief_states_match_tuples(self, policy):
        """Every policy, capped at 30 orders (truncates 5! mid-tree) —
        permissive policies make the uncapped tuple oracle enumerate
        hundreds of thousands of orders per state."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(policy, codec, max_orders=30)
        assert_batch_matches_tuples(
            kernel, codec, self.MANY_THIEF_STATES, 30
        )

    def test_many_thief_uncapped_universe(self):
        """The full k! = 120 order universe, no truncation anywhere."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        assert_batch_matches_tuples(
            kernel, codec, self.MANY_THIEF_STATES, 5040
        )

    @pytest.mark.parametrize("max_orders", [1, 2, 7, 23])
    def test_many_thief_truncation_caps(self, max_orders):
        """Caps that truncate 3!, 4! and 5! mid-tree, flag included."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(
            BalanceCountPolicy(), codec, max_orders=max_orders
        )
        assert_batch_matches_tuples(
            kernel, codec, self.MANY_THIEF_STATES, max_orders
        )

    def test_six_core_grid_matches_tuples(self):
        """A dense 6-core sweep — thief counts 0 through 5 mixed.

        Capped at 24 orders to keep the tuple-executor oracle fast:
        the cap truncates five-thief states mid-tree (24 < 5!), so the
        sweep still pins the truncated-tree walk; the uncapped k = 5
        universe is pinned by ``MANY_THIEF_STATES`` above.
        """
        states = list(itertools.product((0, 2, 3), repeat=6))
        codec = StateCodec(n_cores=6, max_value=18)
        kernel = kernel_for(BalanceCountPolicy(), codec,
                            max_orders=24)
        assert_batch_matches_tuples(kernel, codec, states, 24)

    def test_expand_batch_arrays_layout(self):
        """The flat (values, counts, truncated) contract: state ``i``
        owns the run ``values[sum(counts[:i]):][:counts[i]]``, matching
        ``expand_batch`` exactly."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        packed = codec.encode_batch(self.MANY_THIEF_STATES)
        values, counts, truncated = kernel.expand_batch_arrays(
            numpy.asarray(packed, dtype=numpy.int64)
        )
        assert len(values) == int(counts.sum())
        flat = values.tolist()
        cursor = 0
        for (succ, trunc), count, tflag in zip(
            kernel.expand_batch(packed), counts.tolist(),
            truncated.tolist(),
        ):
            assert flat[cursor:cursor + count] == succ
            assert trunc == tflag
            cursor += count


class TestBranchCountsAndStalls:
    """The progress obligation's view of the kernel: per-state row
    counts are the tuple executor's branch counts, and the stall flag
    marks a branch that committed no steal."""

    @staticmethod
    def assert_rows_match_branches(kernel, codec, states, max_orders):
        packed = numpy.asarray(codec.encode_batch(states), dtype=numpy.int64)
        plain = kernel.expand_batch_arrays(packed)
        values, counts, truncated, stalled = kernel.expand_batch_arrays(
            packed, stalls=True
        )
        assert len(plain) == 3
        assert values.tolist() == plain[0].tolist()
        assert counts.tolist() == plain[1].tolist()
        assert truncated.tolist() == plain[2].tolist()
        for state, count, flag in zip(states, counts.tolist(),
                                      stalled.tolist()):
            enumeration = enumerate_round_branches(
                kernel.policy, state, max_orders=max_orders
            )
            assert count == len(enumeration.branches), state
            assert flag == any(
                not b.attempts or b.successes == 0
                for b in enumeration.branches
            ), state

    @pytest.mark.parametrize(
        "policy", POLICIES + [BalanceCountPolicy(margin=1),
                              BalanceCountPolicy(margin=3)],
        ids=lambda p: p.name,
    )
    def test_full_product_space(self, policy):
        states = list(itertools.product(range(4), repeat=4))
        codec = StateCodec(n_cores=4, max_value=12)
        kernel = kernel_for(policy, codec)
        self.assert_rows_match_branches(kernel, codec, states, 5040)

    @pytest.mark.parametrize("max_orders", [1, 2, 7, 23])
    def test_many_thief_states_under_caps(self, max_orders):
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(
            BalanceCountPolicy(margin=1), codec,
            max_orders=max_orders,
        )
        self.assert_rows_match_branches(
            kernel, codec, TestManyThiefExpansion.MANY_THIEF_STATES,
            max_orders,
        )

    def test_empty_batch(self):
        codec = StateCodec(n_cores=3, max_value=6)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        result = kernel.expand_batch_arrays(
            numpy.empty(0, dtype=numpy.int64), stalls=True
        )
        assert [len(part) for part in result] == [0, 0, 0, 0]

    def test_bad_mask_matches_is_bad_state(self):
        states = list(itertools.product(range(4), repeat=4))
        codec = StateCodec(n_cores=4, max_value=12)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        mask = kernel.bad_mask(
            numpy.asarray(codec.encode_batch(states), dtype=numpy.int64)
        )
        assert mask.tolist() == [is_bad_state(s) for s in states]
