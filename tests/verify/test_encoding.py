"""Property tests for the packed-state codec (``repro.verify.encoding``).

Two pillars of the packed-state core are pinned here:

* the codec is a **bijection** between load vectors and packed states,
  in both the int form (small scopes) and the bytes form (wide scopes),
  scalar and batch alike;
* **canonicalisation commutes with packing**: for every symmetry group
  the engines accept, ``canonicalize_packed`` on the packed form equals
  packing the tuple-form ``canonicalize`` result — which is what lets
  the packed engines quotient frontiers without ever materialising
  tuples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import VerificationError
from repro.topology.domains import build_domain_tree
from repro.topology.numa import symmetric_numa
from repro.verify import INT_FORM_MAX_BITS, StateCodec, StateScope
from repro.verify.encoding import decode_graph
from repro.verify.model_checker import PackedGraph
from repro.verify.symmetry import (
    BlockSymmetryGroup,
    FlatSymmetryGroup,
    NumaSymmetryGroup,
    TrivialGroup,
    symmetry_from_domains,
)

#: (n_cores, max_value) grid spanning both packed forms: 1-bit digits,
#: the 63-bit int-form boundary, and wide bytes-form codecs.
CODEC_GRID = [
    (1, 0), (1, 1), (2, 3), (3, 4), (4, 12), (7, 9), (9, 127),
    (16, 15), (21, 7), (32, 3), (40, 255), (64, 1),
]


def states_for(n_cores: int, max_value: int):
    """A strategy over load vectors the codec must round-trip."""
    return st.lists(
        st.integers(min_value=0, max_value=max_value),
        min_size=n_cores, max_size=n_cores,
    ).map(tuple)


class TestRoundTrip:
    @pytest.mark.parametrize("n_cores,max_value", CODEC_GRID)
    def test_decode_encode_identity_across_grid(self, n_cores, max_value):
        codec = StateCodec(n_cores=n_cores, max_value=max_value)

        @settings(max_examples=40, deadline=None)
        @given(state=states_for(n_cores, max_value))
        def check(state):
            assert codec.decode(codec.encode(state)) == state

        check()

    @given(
        n_cores=st.integers(min_value=1, max_value=12),
        max_value=st.integers(min_value=0, max_value=300),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_forms_match_scalar(self, n_cores, max_value, data):
        codec = StateCodec(n_cores=n_cores, max_value=max_value)
        batch = data.draw(st.lists(states_for(n_cores, max_value),
                                   min_size=0, max_size=24))
        packed = codec.encode_batch(batch)
        assert packed == [codec.encode(s) for s in batch]
        assert codec.decode_batch(packed) == list(batch)

    @pytest.mark.parametrize("n_cores,max_value", CODEC_GRID)
    def test_form_selection_matches_bit_budget(self, n_cores, max_value):
        codec = StateCodec(n_cores=n_cores, max_value=max_value)
        assert codec.use_int == (
            n_cores * codec.bits <= INT_FORM_MAX_BITS
        )
        packed = codec.encode((0,) * n_cores)
        assert isinstance(packed, int if codec.use_int else bytes)

    def test_order_preserving_both_forms(self):
        for n_cores, max_value in ((4, 12), (40, 255)):
            codec = StateCodec(n_cores=n_cores, max_value=max_value)

            @settings(max_examples=60, deadline=None)
            @given(a=states_for(n_cores, max_value),
                   b=states_for(n_cores, max_value))
            def check(a, b):
                assert (codec.encode(a) < codec.encode(b)) == (a < b)

            check()

    def test_for_states_covers_conserved_totals(self):
        codec = StateCodec.for_states(3, [(0, 1, 2), (1, 1, 1)])
        # A steal may pile the whole total onto one core.
        assert codec.max_value == 3
        assert codec.decode(codec.encode((3, 0, 0))) == (3, 0, 0)

    def test_for_scope_honours_total_cap(self):
        assert StateCodec.for_scope(
            StateScope(n_cores=4, max_load=3)
        ).max_value == 12
        assert StateCodec.for_scope(
            StateScope(n_cores=4, max_load=3, max_total=5)
        ).max_value == 5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(VerificationError):
            StateCodec(n_cores=0, max_value=1)
        with pytest.raises(VerificationError):
            StateCodec(n_cores=2, max_value=-1)

    @pytest.mark.parametrize("n_cores,max_value", [(4, 9), (16, 15)],
                             ids=["int-form", "bytes-form"])
    def test_decode_graph_matches_scalar_decode(self, n_cores, max_value):
        codec = StateCodec(n_cores=n_cores, max_value=max_value)

        @settings(max_examples=60, deadline=None)
        @given(data=st.data())
        def check(data):
            keys = data.draw(st.lists(states_for(n_cores, max_value),
                                      min_size=0, max_size=12, unique=True))
            edges = {}
            for key in keys:
                succs = data.draw(st.lists(states_for(n_cores, max_value),
                                           max_size=6))
                edges[codec.encode(key)] = [codec.encode(s) for s in succs]
            graph = PackedGraph.from_mapping(codec, edges)
            loads = decode_graph(codec, graph)
            assert loads.shape == (len(keys), n_cores)
            assert [tuple(row) for row in loads.tolist()] == sorted(keys)
            assert {
                codec.decode(p): frozenset(codec.decode(s) for s in row)
                for p, row in graph.items()
            } == {
                codec.decode(p): frozenset(codec.decode(s) for s in succs)
                for p, succs in edges.items()
            }

        check()


#: Every group shape the engines accept, over a 2x2 NUMA box.
def groups_under_test():
    topo = symmetric_numa(2, 2)
    return [
        TrivialGroup(),
        FlatSymmetryGroup(),
        NumaSymmetryGroup(topo),
        BlockSymmetryGroup(
            4, blocks=[(0, 1), (2, 3)], classes=[(0, 1)],
            name="block-2x2",
        ),
        symmetry_from_domains(build_domain_tree(topo)),
    ]


class TestPackedCanonicalisation:
    @pytest.mark.parametrize(
        "group", groups_under_test(), ids=lambda g: g.name,
    )
    def test_packed_equals_tuple_canonicalisation(self, group):
        codec = StateCodec(n_cores=4, max_value=12)

        @settings(max_examples=150, deadline=None)
        @given(state=states_for(4, 12))
        def check(state):
            packed = codec.encode(state)
            assert group.canonicalize_packed(packed, codec) \
                == codec.encode(group.canonicalize(state))

        check()

    @pytest.mark.parametrize(
        "group", groups_under_test(), ids=lambda g: g.name,
    )
    def test_packed_canonicalisation_is_idempotent(self, group):
        codec = StateCodec(n_cores=4, max_value=12)

        @settings(max_examples=60, deadline=None)
        @given(state=states_for(4, 12))
        def check(state):
            once = group.canonicalize_packed(codec.encode(state), codec)
            assert group.canonicalize_packed(once, codec) == once

        check()

    def test_flat_group_bytes_form_fast_path(self):
        codec = StateCodec(n_cores=40, max_value=255)
        assert not codec.use_int
        group = FlatSymmetryGroup()

        @settings(max_examples=40, deadline=None)
        @given(state=states_for(40, 255))
        def check(state):
            packed = codec.encode(state)
            assert group.canonicalize_packed(packed, codec) \
                == codec.encode(tuple(sorted(state, reverse=True)))

        check()
