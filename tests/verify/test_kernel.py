"""Equivalence tests for the vectorised transition kernel.

The kernel is only sound if it is *indistinguishable* from the tuple
executor it replaces, so every test here is a differential one:

* ``TransitionKernel`` successors and truncation flags versus
  :func:`~repro.verify.transition.enumerate_round_branches`, across
  policies and permutation caps;
* ``HierarchicalModelChecker.expand_level`` on the kernel path versus
  its tuple-path ``successors()``, state by state;
* the ``REPRO_KERNEL`` eligibility gates (mode parsing, opt-in
  declarations, bytes-form codecs);
* the progress obligation's branch counts and stall flags versus the
  tuple executor's branches, and ``bad_mask`` versus ``is_bad_state``;
* the steal orders the kernel keeps per commutation class versus a
  brute-force closure under swaps of non-interfering steals, and the
  reduced kernel versus ``REPRO_KERNEL=off`` on drawn states, tables,
  pair masks and hierarchical intra phases.
"""

import contextlib
import io
import itertools
import math

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
    IntraGroupPolicy,
)
from repro.verify.enumeration import is_bad_state
from repro.verify.kernel import (
    _class_leaders,
    _pairs,
    _perm_tree,
    kernel_mode,
    pair_mask_for,
)
from repro.verify.obligations import ProofStatus
from repro.verify.symmetry import TrivialGroup
from repro.verify.transition import (
    DEFAULT_MAX_ORDERS,
    enumerate_round_branches,
)
from test_sweep_kernel import TablePolicy, kernel_env

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


def expand_runs(kernel, packed):
    """``expand_batch_arrays`` split by ``counts``: one
    ``(successors, truncated)`` pair per input state, in input order."""
    values, counts, truncated = kernel.expand_batch_arrays(
        numpy.asarray(packed, dtype=numpy.int64)
    )
    runs = numpy.split(values, numpy.cumsum(counts)[:-1])
    return [(run.tolist(), flag)
            for run, flag in zip(runs, truncated.tolist())]


def assert_batch_matches_tuples(kernel, codec, states, max_orders):
    batch = expand_runs(kernel, codec.encode_batch(states))
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


class TestHierarchicalKernelPath:
    """Hierarchical ``expand_level`` on the kernel vs ``successors()``."""

    @pytest.mark.parametrize("symmetry", ["trivial", "domains"])
    @pytest.mark.parametrize("max_orders", [1, 2, DEFAULT_MAX_ORDERS])
    @pytest.mark.parametrize("nodes,cores,top", [(2, 2, 3), (3, 2, 2)])
    def test_every_state_matches_the_tuple_path(self, monkeypatch, nodes,
                                                cores, top, max_orders,
                                                symmetry):
        spec = HierarchySpec(topology=symmetric_numa(nodes, cores))

        def checker():
            group = (TrivialGroup() if symmetry == "trivial"
                     else spec.symmetry_group())
            return HierarchicalModelChecker(spec, symmetry=group,
                                            max_orders=max_orders)

        scope = StateScope(n_cores=nodes * cores, max_load=top)
        codec = StateCodec.for_scope(scope)
        states = list(itertools.product(range(top + 1),
                                        repeat=nodes * cores))
        monkeypatch.setenv("REPRO_KERNEL", "off")
        tuple_checker = checker()
        reference = [tuple_checker.successors(state) for state in states]
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        kernel_checker = checker()
        assert kernel_checker._kernel_for(codec) is not None
        packed = codec.encode_batch(states)
        # One batch, so mid states are shared across rounds of a chunk;
        # then each state alone, which reads its own truncation flag.
        kernel_checker.expand_level(packed, codec)
        for state, p, (succ, truncated) in zip(states, packed, reference):
            edges, kernel_truncated, _ = kernel_checker.expand_level(
                [p], codec
            )
            assert {codec.decode(s) for s in edges[p]} == succ, state
            assert kernel_truncated == truncated, state


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
        batch = expand_runs(kernel, codec.encode_batch(states))
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

    @pytest.mark.parametrize("max_orders", [1, 2, 7])
    def test_twelve_thieves_outgrow_an_int64_pattern(self, max_orders):
        """12 thieves have 66 steal pairs: interference patterns take
        Python ints, and the successors still match the tuples."""
        states = [(0,) * 12 + (13,), (0,) * 11 + (1, 13)]
        codec = StateCodec(n_cores=13, max_value=13)
        kernel = kernel_for(BalanceCountPolicy(margin=1), codec,
                            max_orders=max_orders)
        assert self.thief_count(kernel, codec.encode(states[0])) == 12
        assert_batch_matches_tuples(kernel, codec, states, max_orders)

    def test_expand_batch_arrays_layout(self):
        """The flat (values, counts, truncated) contract: state ``i``
        owns the run ``values[sum(counts[:i]):][:counts[i]]``, matching
        the expansion of state ``i`` alone exactly."""
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        packed = codec.encode_batch(self.MANY_THIEF_STATES)
        values, counts, truncated = kernel.expand_batch_arrays(
            numpy.asarray(packed, dtype=numpy.int64)
        )
        assert len(values) == int(counts.sum())
        flat = values.tolist()
        cursor = 0
        for state, count, tflag in zip(packed, counts.tolist(),
                                       truncated.tolist()):
            [(succ, trunc)] = expand_runs(kernel, [state])
            assert flat[cursor:cursor + count] == succ
            assert trunc == tflag
            cursor += count

    def test_expand_batch_arrays_of_no_states(self):
        codec = StateCodec(n_cores=6, max_value=20)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        values, counts, truncated = kernel.expand_batch_arrays(
            numpy.asarray([], dtype=numpy.int64)
        )
        assert len(values) == len(counts) == len(truncated) == 0


class TestBranchCountsAndStalls:
    """The progress obligation's view of the kernel: its per-state
    branch counts are the tuple executor's, and the stall flag marks a
    branch that committed no steal."""

    @staticmethod
    def assert_rows_match_branches(kernel, codec, states, max_orders):
        packed = numpy.asarray(codec.encode_batch(states), dtype=numpy.int64)
        plain = kernel.expand_batch_arrays(packed)
        values, counts, truncated, stalled, branches = \
            kernel.expand_batch_arrays(packed, stalls=True)
        assert len(plain) == 3
        assert values.tolist() == plain[0].tolist()
        assert counts.tolist() == plain[1].tolist()
        assert truncated.tolist() == plain[2].tolist()
        for state, count, flag in zip(states, branches.tolist(),
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
        assert [len(part) for part in result] == [0, 0, 0, 0, 0]

    def test_bad_mask_matches_is_bad_state(self):
        states = list(itertools.product(range(4), repeat=4))
        codec = StateCodec(n_cores=4, max_value=12)
        kernel = kernel_for(BalanceCountPolicy(), codec)
        mask = kernel.bad_mask(
            numpy.asarray(codec.encode_batch(states), dtype=numpy.int64)
        )
        assert mask.tolist() == [is_bad_state(s) for s in states]


def brute_force_leaders(k, cap, pattern):
    """The least order of every commutation class that meets the first
    ``cap`` permutations, with classes closed under swaps of adjacent
    non-interfering steals."""
    interfering = set()
    for bit, (i, j) in enumerate(_pairs(k)):
        if pattern >> bit & 1:
            interfering |= {(i, j), (j, i)}
    perms = list(itertools.permutations(range(k)))
    rank = {perm: index for index, perm in enumerate(perms)}
    placed = set()
    leaders = set()
    for perm in perms:
        if perm in placed:
            continue
        members = {perm}
        stack = [perm]
        while stack:
            order = stack.pop()
            for x in range(k - 1):
                if (order[x], order[x + 1]) in interfering:
                    continue
                swapped = (order[:x] + (order[x + 1], order[x])
                           + order[x + 2:])
                if swapped not in members:
                    members.add(swapped)
                    stack.append(swapped)
        placed |= members
        if min(rank[order] for order in members) < cap:
            leaders.add(min(members))
    return leaders


def tree_orders(tree):
    """The full steal orders at the leaves of an order tree."""
    prefixes = [()]
    for parents, cols in zip(tree.parents, tree.cols):
        prefixes = [prefixes[p] + (c,)
                    for p, c in zip(parents.tolist(), cols.tolist())]
    return prefixes


class TestCommutationReduction:
    """The kernel runs one steal order per commutation class: the
    lexicographically least member of every class that meets the capped
    permutation prefix, and nothing else."""

    @staticmethod
    def assert_leaders(k, cap, pattern):
        expected = brute_force_leaders(k, cap, pattern)
        leaders = _class_leaders(k, cap, pattern)
        assert leaders == sorted(expected), (k, cap, pattern)
        tree = _perm_tree(k, cap, pattern)
        assert tree_orders(tree) == leaders

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_interference_graph_up_to_four_thieves(self, k):
        for pattern in range(1 << len(_pairs(k))):
            for cap in sorted({1, 2, 6, math.factorial(k)}):
                self.assert_leaders(k, cap, pattern)

    @given(pattern=st.integers(0, (1 << len(_pairs(5))) - 1),
           cap=st.sampled_from([1, 2, 6, 120]))
    @settings(max_examples=40, deadline=None)
    def test_sampled_five_thief_graphs(self, pattern, cap):
        self.assert_leaders(5, cap, pattern)

    def test_extreme_graphs(self):
        """All pairs interfering keeps the capped prefix itself; no pair
        interfering leaves one order, the ascending one."""
        for k in range(1, 7):
            clique = (1 << len(_pairs(k))) - 1
            for cap in (1, 7, math.factorial(k)):
                prefix = list(itertools.islice(
                    itertools.permutations(range(k)), cap
                ))
                assert _class_leaders(k, cap, clique) == prefix
                assert _class_leaders(k, cap, 0) == [tuple(range(k))]


@st.composite
def reduction_cases(draw):
    """A kernel-eligible policy, a core count, states and a cap."""
    kind = draw(st.sampled_from(["library", "table", "scoped"]),
                label="kind")
    n_cores = draw(st.integers(2, 5), label="cores")
    top_load = 3 if n_cores <= 4 else 2
    if kind == "library":
        policy = draw(st.sampled_from(POLICIES), label="policy")
    elif kind == "table":
        top = n_cores * top_load
        cells = [(t, v) for t in range(top + 1) for v in range(top + 1)]
        admit = draw(st.sets(st.sampled_from(cells)), label="admit")
        amounts = draw(
            st.dictionaries(st.sampled_from(cells), st.integers(-1, 4)),
            label="amounts",
        )
        policy = TablePolicy(admit, amounts)
    else:
        groups = draw(st.lists(st.integers(0, 1), min_size=n_cores,
                               max_size=n_cores), label="groups")
        policy = IntraGroupPolicy(draw(st.sampled_from(POLICIES)), groups)
    states = draw(st.lists(
        st.lists(st.integers(0, top_load), min_size=n_cores,
                 max_size=n_cores).map(tuple),
        min_size=1, max_size=6,
    ), label="states")
    max_orders = draw(st.sampled_from([1, 2, 6]), label="max_orders")
    return policy, n_cores, top_load, states, max_orders


class TestReducedKernelMatchesKernelOff:
    """Per state, the reduced kernel equals the tuple executor that
    ``REPRO_KERNEL=off`` runs: successors, branch counts, stall and
    truncation flags."""

    @given(case=reduction_cases())
    @settings(max_examples=80, deadline=None)
    def test_flat_rounds(self, case):
        policy, n_cores, top_load, states, max_orders = case
        codec = StateCodec(n_cores=n_cores, max_value=n_cores * top_load)
        kernel = TransitionKernel(
            policy, codec, max_orders=max_orders,
            pair_mask=pair_mask_for(policy, n_cores),
        )
        assert kernel.uniform
        packed = numpy.asarray(codec.encode_batch(states),
                               dtype=numpy.int64)
        values, counts, truncated, stalled, branches = \
            kernel.expand_batch_arrays(packed, stalls=True)
        assert len(values) == int(counts.sum())
        cursor = 0
        for index, state in enumerate(states):
            reference = enumerate_round_branches(policy, state,
                                                 max_orders=max_orders)
            run = values[cursor:cursor + int(counts[index])].tolist()
            cursor += int(counts[index])
            assert {codec.decode(p) for p in run} \
                == reference.successor_states(), state
            assert int(counts[index]) <= len(reference.branches)
            assert int(branches[index]) == len(reference.branches), state
            assert bool(stalled[index]) == any(
                not b.attempts or b.successes == 0
                for b in reference.branches
            ), state
            assert bool(truncated[index]) == reference.truncated, state

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_hierarchical_intra_phase(self, data):
        """``expand_level`` of the hierarchical checker, whose mid states
        run the reduced kernel under an intra-group pair mask, versus its
        successors with ``REPRO_KERNEL=off``."""
        nodes, cores = data.draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]),
                                 label="layout")
        max_orders = data.draw(st.sampled_from([1, 2, 6]),
                               label="max_orders")
        states = data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=nodes * cores,
                     max_size=nodes * cores).map(tuple),
            min_size=1, max_size=4,
        ), label="states")
        spec = HierarchySpec(topology=symmetric_numa(nodes, cores))
        scope = StateScope(n_cores=nodes * cores, max_load=3)
        codec = StateCodec.for_scope(scope)
        with kernel_env("off"):
            oracle = HierarchicalModelChecker(spec, symmetry=TrivialGroup(),
                                              max_orders=max_orders)
            reference = [oracle.successors(s) for s in states]
        with kernel_env("numpy"):
            checker = HierarchicalModelChecker(
                spec, symmetry=TrivialGroup(), max_orders=max_orders
            )
            assert checker._kernel_for(codec) is not None
            for state, (succ, truncated) in zip(states, reference):
                packed = codec.encode(state)
                edges, kernel_truncated, _ = checker.expand_level(
                    [packed], codec
                )
                assert {codec.decode(s) for s in edges[packed]} == succ
                assert kernel_truncated == truncated, state
