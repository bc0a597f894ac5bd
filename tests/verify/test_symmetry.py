"""Tests for the symmetry-group engine: laws, oracles, compatibility.

The laws every group must satisfy:

* ``canonicalize`` is idempotent and constant on each orbit;
* ``iter_representatives`` yields exactly one state per orbit (checked
  against a brute-force orbit oracle that applies every group element);
* representative counting is closed-form-consistent with enumeration,
  and orbit sizes sum back to the full state count;
* chunked representative iteration partitions the representatives;
* the flat group is bit-identical to the legacy
  ``canonical()``/``iter_canonical_states()`` pair.
"""

import itertools

import pytest

from repro.core.errors import VerificationError
from repro.topology.domains import build_domain_tree
from repro.topology.numa import NumaTopology, mesh_numa, symmetric_numa
from repro.verify.enumeration import (
    StateScope,
    canonical,
    count_states,
    iter_canonical_states,
    iter_states,
)
from repro.verify.symmetry import (
    BlockSymmetryGroup,
    FlatSymmetryGroup,
    NumaSymmetryGroup,
    SymmetryGroup,
    TrivialGroup,
    symmetry_from_domains,
)

SCOPE_2X2 = StateScope(n_cores=4, max_load=2)
SCOPE_2X2_DEEP = StateScope(n_cores=4, max_load=3)
SCOPE_CAPPED = StateScope(n_cores=4, max_load=3, max_total=5, min_total=1)


def brute_force_orbit(group: SymmetryGroup, state: tuple[int, ...],
                      blocks, classes) -> set[tuple[int, ...]]:
    """All images of ``state`` under the block group, by enumeration.

    Applies every combination of within-block permutations and
    same-class block permutations — the oracle the fast canonicalizer
    is checked against.
    """
    images = set()
    class_perm_sets = [
        list(itertools.permutations(cls)) for cls in classes
    ]
    for class_perms in itertools.product(*class_perm_sets):
        # block_map[b] = the block whose cores' loads land on block b.
        block_map = {}
        for cls, perm in zip(classes, class_perms):
            for target, source in zip(cls, perm):
                block_map[target] = source
        moved = [0] * len(state)
        for target, source in block_map.items():
            for t_cid, s_cid in zip(blocks[target], blocks[source]):
                moved[t_cid] = state[s_cid]
        block_perm_sets = [
            set(itertools.permutations([moved[cid] for cid in block]))
            for block in blocks
        ]
        for block_values in itertools.product(*block_perm_sets):
            image = [0] * len(state)
            for block, values in zip(blocks, block_values):
                for cid, value in zip(block, values):
                    image[cid] = value
            images.add(tuple(image))
    return images


class TestCanonicalizeLaws:
    @pytest.mark.parametrize("scope", [SCOPE_2X2, SCOPE_CAPPED])
    def test_idempotent(self, scope):
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        for state in iter_states(scope):
            once = group.canonicalize(state)
            assert group.canonicalize(once) == once

    def test_orbit_invariant(self):
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        for state in iter_states(SCOPE_2X2):
            orbit = brute_force_orbit(group, state, group.blocks,
                                      group.classes)
            forms = {group.canonicalize(s) for s in orbit}
            assert forms == {group.canonicalize(state)}

    def test_canonical_form_is_in_the_orbit(self):
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        for state in iter_states(SCOPE_2X2):
            orbit = brute_force_orbit(group, state, group.blocks,
                                      group.classes)
            assert group.canonicalize(state) in orbit

    def test_wrong_width_rejected(self):
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        with pytest.raises(VerificationError):
            group.canonicalize((1, 2, 3))


class TestRepresentativeEnumeration:
    @pytest.mark.parametrize("scope", [SCOPE_2X2, SCOPE_2X2_DEEP,
                                       SCOPE_CAPPED])
    def test_one_per_orbit(self, scope):
        """Representatives = image of canonicalize over the full scope."""
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        reps = list(group.iter_representatives(scope))
        assert len(reps) == len(set(reps))
        assert set(reps) == {
            group.canonicalize(s) for s in iter_states(scope)
        }

    @pytest.mark.parametrize("scope", [SCOPE_2X2, SCOPE_2X2_DEEP,
                                       SCOPE_CAPPED])
    def test_count_matches_enumeration(self, scope):
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        assert group.count_representatives(scope) == len(
            list(group.iter_representatives(scope))
        )

    @pytest.mark.parametrize("scope", [SCOPE_2X2, SCOPE_2X2_DEEP,
                                       SCOPE_CAPPED])
    def test_orbit_sizes_sum_to_state_count(self, scope):
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        total = sum(
            group.orbit_size(rep)
            for rep in group.iter_representatives(scope)
        )
        assert total == count_states(scope)

    def test_group_order(self):
        group = NumaSymmetryGroup(symmetric_numa(2, 2))
        # 2! per node × 2! node swap.
        assert group.group_order(4) == 8
        with pytest.raises(VerificationError):
            group.group_order(5)


class TestFlatGroupCompatibility:
    """The flat group must be bit-identical to the legacy helpers."""

    @pytest.mark.parametrize("scope", [
        StateScope(n_cores=3, max_load=3),
        StateScope(n_cores=4, max_load=2, max_total=5, min_total=1),
    ])
    def test_iteration_identical(self, scope):
        group = FlatSymmetryGroup()
        assert list(group.iter_representatives(scope)) == list(
            iter_canonical_states(scope)
        )

    def test_canonicalize_identical(self):
        group = FlatSymmetryGroup()
        for state in iter_states(StateScope(n_cores=3, max_load=3)):
            assert group.canonicalize(state) == canonical(state)

    def test_trivial_group_is_identity(self):
        group = TrivialGroup()
        scope = StateScope(n_cores=3, max_load=2)
        assert list(group.iter_representatives(scope)) == list(
            iter_states(scope)
        )
        assert group.orbit_size((0, 1, 2)) == 1
        assert group.canonicalize((2, 0, 1)) == (2, 0, 1)


class TestNodeClasses:
    def test_symmetric_numa_merges_all_nodes(self):
        group = NumaSymmetryGroup(symmetric_numa(4, 2))
        assert group.classes == ((0, 1, 2, 3),)

    def test_mesh_splits_distance_inequivalent_nodes(self):
        # In a 2x2 mesh only diagonal node pairs commute with the
        # distance matrix.
        group = NumaSymmetryGroup(mesh_numa(2, 1))
        assert sorted(group.classes) == [(0, 3), (1, 2)]

    def test_unequal_node_sizes_never_merge(self):
        topo = NumaTopology(
            n_cores=3, n_nodes=2, core_to_node=(0, 0, 1),
            distances=((10, 20), (20, 10)),
        )
        group = NumaSymmetryGroup(topo)
        assert sorted(group.classes) == [(0,), (1,)]

    def test_domain_tree_group_matches_numa_blocks(self):
        topo = symmetric_numa(2, 2)
        from_domains = symmetry_from_domains(build_domain_tree(topo))
        from_numa = NumaSymmetryGroup(topo)
        assert from_domains.blocks == from_numa.blocks
        assert sorted(from_domains.classes) == sorted(from_numa.classes)

    def test_malformed_blocks_rejected(self):
        with pytest.raises(VerificationError):
            BlockSymmetryGroup(4, [(0, 1), (1, 2, 3)], [(0,), (1,)])
        with pytest.raises(VerificationError):
            BlockSymmetryGroup(4, [(0, 1), (2, 3)], [(0,)])
        with pytest.raises(VerificationError):
            BlockSymmetryGroup(3, [(0, 1), (2,)], [(0, 1)])


class TestQuotientSoundness:
    """Quotiented verdicts must equal full-space verdicts."""

    def test_numa_choice_policy(self):
        from repro.policies.numa_aware import NumaAwareChoicePolicy
        from repro.verify.model_checker import ModelChecker

        topo = symmetric_numa(2, 2)
        policy = NumaAwareChoicePolicy(topo)
        # choice_mode='all' never consults choose, so the quotient is
        # sound for NUMA-aware policies there (and only there — policy
        # mode is refused, see TestChoiceEquivarianceGuard).
        full = ModelChecker(policy, choice_mode="all",
                            topology=topo).analyze(SCOPE_2X2_DEEP)
        quotient = ModelChecker(
            policy, choice_mode="all",
            symmetry=NumaSymmetryGroup(topo),
        ).analyze(SCOPE_2X2_DEEP)
        assert full.violated == quotient.violated
        assert full.worst_case_rounds == quotient.worst_case_rounds
        assert quotient.states_explored < full.states_explored

    def test_quotient_still_finds_violations(self):
        from repro.policies.naive import NaiveOverloadedPolicy
        from repro.verify.model_checker import ModelChecker

        topo = symmetric_numa(2, 2)
        policy = NaiveOverloadedPolicy()
        quotient = ModelChecker(
            policy, symmetry=NumaSymmetryGroup(topo)
        ).analyze(SCOPE_2X2)
        full = ModelChecker(policy).analyze(SCOPE_2X2)
        assert quotient.violated == full.violated


class TestChoiceEquivarianceGuard:
    """Unsound (group, choice_mode='policy') combinations must refuse."""

    def test_random_choice_rejects_any_group(self):
        from repro.baselines import RandomStealPolicy
        from repro.verify.model_checker import ModelChecker

        with pytest.raises(VerificationError, match="stateful"):
            ModelChecker(RandomStealPolicy(seed=0), choice_mode="policy",
                         symmetry=FlatSymmetryGroup())

    def test_distance_choice_rejects_flat_group(self):
        from repro.policies.numa_aware import NumaAwareChoicePolicy
        from repro.verify.model_checker import ModelChecker

        topo = symmetric_numa(2, 2)
        with pytest.raises(VerificationError, match="distance-based"):
            ModelChecker(NumaAwareChoicePolicy(topo),
                         choice_mode="policy", symmetry=FlatSymmetryGroup())

    def test_distance_choice_rejects_even_its_own_group(self):
        """Cross-node cid tie-breaks are not equivariant: on numa:3x2
        the quotient under-reports the exact N (2 instead of 3), so the
        checker must refuse the combination outright."""
        from repro.policies.numa_aware import NumaAwareChoicePolicy
        from repro.verify.model_checker import ModelChecker

        topo = symmetric_numa(2, 2)
        with pytest.raises(VerificationError, match="distance-based"):
            ModelChecker(NumaAwareChoicePolicy(topo),
                         choice_mode="policy",
                         symmetry=NumaSymmetryGroup(topo))

    def test_load_only_choice_accepts_groups_in_policy_mode(self):
        from repro.policies import BalanceCountPolicy
        from repro.verify.model_checker import ModelChecker

        topo = symmetric_numa(2, 2)
        full = ModelChecker(BalanceCountPolicy(),
                            choice_mode="policy").analyze(SCOPE_2X2)
        quotient = ModelChecker(
            BalanceCountPolicy(), choice_mode="policy",
            symmetry=NumaSymmetryGroup(topo),
        ).analyze(SCOPE_2X2)
        assert full.violated == quotient.violated
        assert full.worst_case_rounds == quotient.worst_case_rounds

    def test_all_mode_never_consults_choose(self):
        from repro.baselines import RandomStealPolicy
        from repro.verify.model_checker import ModelChecker

        # choice_mode='all' quantifies over candidates, so the quotient
        # is sound even for a stateful choice — must not be rejected.
        ModelChecker(RandomStealPolicy(seed=0), choice_mode="all",
                     symmetry=FlatSymmetryGroup())


import numpy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.encoding import StateCodec

#: Every group shape the engines can hand to ``canonicalize_batch``:
#: identity, full renaming, single-class blocks, multi-class blocks
#: (distance-inequivalent mesh nodes), and a domain-tree group.
BATCH_GROUPS = [
    ("trivial", 4, TrivialGroup()),
    ("flat", 4, FlatSymmetryGroup()),
    ("numa-2x2", 4, NumaSymmetryGroup(symmetric_numa(2, 2))),
    ("numa-3x2", 6, NumaSymmetryGroup(symmetric_numa(3, 2))),
    ("mesh-2x2", 8, NumaSymmetryGroup(mesh_numa(2, 2))),
    ("domain-2x2", 4,
     symmetry_from_domains(build_domain_tree(symmetric_numa(2, 2)))),
]


def states_batch(n_cores, max_value):
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=max_value),
                 min_size=n_cores, max_size=n_cores).map(tuple),
        min_size=0, max_size=12,
    )


class TestBatchCanonicalisation:
    """``canonicalize_batch`` is pointwise ``canonicalize_packed``.

    The array pipeline's soundness rests on this equality: the closure
    engines canonicalise whole successor arrays in one call, and any
    divergence from the scalar path would silently change verdicts.
    Pinned for every group shape and both codec forms (int and bytes —
    the latter exercising the scalar fallback), as lists and as arrays.
    """

    @pytest.mark.parametrize("label,n_cores,group", BATCH_GROUPS,
                             ids=[g[0] for g in BATCH_GROUPS])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_int_codec(self, label, n_cores, group,
                                         data):
        states = data.draw(states_batch(n_cores, 6))
        codec = StateCodec(n_cores=n_cores, max_value=6)
        assert codec.use_int
        packed = codec.encode_batch(states)
        expected = [group.canonicalize_packed(p, codec) for p in packed]
        assert list(group.canonicalize_batch(packed, codec)) == expected
        arr = numpy.asarray(packed, dtype=numpy.int64)
        out = group.canonicalize_batch(arr, codec)
        assert isinstance(out, numpy.ndarray)
        assert out.tolist() == expected

    @pytest.mark.parametrize("label,n_cores,group", BATCH_GROUPS,
                             ids=[g[0] for g in BATCH_GROUPS])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_on_bytes_codec(self, label, n_cores, group,
                                           data):
        max_value = 1 << 20
        states = data.draw(states_batch(n_cores, max_value))
        codec = StateCodec(n_cores=n_cores, max_value=max_value)
        assert not codec.use_int
        packed = codec.encode_batch(states)
        expected = [group.canonicalize_packed(p, codec) for p in packed]
        assert list(group.canonicalize_batch(packed, codec)) == expected
        # The closure loop holds bytes-form frontiers in object arrays.
        arr = numpy.asarray(packed, dtype=object)
        out = group.canonicalize_batch(arr, codec)
        assert isinstance(out, numpy.ndarray) and out.dtype == object
        assert out.tolist() == expected

    @pytest.mark.parametrize("label,n_cores,group", BATCH_GROUPS,
                             ids=[g[0] for g in BATCH_GROUPS])
    def test_exhaustive_small_grid(self, label, n_cores, group):
        """Every state of a small grid — no sampling gaps."""
        max_load = 2 if n_cores > 4 else 3
        codec = StateCodec(n_cores=n_cores, max_value=3 * n_cores)
        states = list(itertools.product(range(max_load + 1),
                                        repeat=n_cores))
        packed = codec.encode_batch(states)
        expected = [group.canonicalize_packed(p, codec) for p in packed]
        assert list(group.canonicalize_batch(packed, codec)) == expected
