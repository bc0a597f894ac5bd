"""The array graph algorithms against the dict algorithms they replaced.

:meth:`~repro.verify.model_checker.ModelChecker.analyze_graph` peels
the bad subgraph of a CSR
:class:`~repro.verify.model_checker.PackedGraph` in numpy
(:func:`~repro.verify.model_checker.peel_bad_region`) and runs the
lasso DFS over the survivors only
(:func:`~repro.verify.model_checker.find_lasso`). The reference below
is the tuple-dict implementation the checker used before: a DFS over
every bad state and a memoised recursive escape depth. On random
graphs both must report the same lasso (prefix and cycle), the same
exact worst-case ``N``, and the same state and bad-state counts, in
both packed forms.
"""

from __future__ import annotations

from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import BalanceCountPolicy
from repro.verify import ModelChecker, StateCodec, StateScope
from repro.verify.enumeration import LoadState, is_bad_state
from repro.verify.model_checker import Lasso, PackedGraph

TupleGraph = dict[LoadState, frozenset[LoadState]]


def reference_lasso(edges: TupleGraph, bad: set[LoadState]) -> Lasso | None:
    """The dict DFS: roots and children in ascending order, bad states
    only."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {s: WHITE for s in bad}
    for root in sorted(bad):
        if colour[root] != WHITE:
            continue
        path = [root]
        stack: list[tuple[LoadState, Iterator[LoadState]]] = [
            (root, iter(sorted(edges.get(root, frozenset()))))
        ]
        colour[root] = GREY
        while stack:
            state, children = stack[-1]
            advanced = False
            for child in children:
                if child not in bad:
                    continue
                if colour[child] == GREY:
                    start = path.index(child)
                    return Lasso(prefix=tuple(path[:start]),
                                 cycle=tuple(path[start:]))
                if colour[child] == WHITE:
                    colour[child] = GREY
                    path.append(child)
                    stack.append(
                        (child, iter(sorted(edges.get(child, frozenset()))))
                    )
                    advanced = True
                    break
            if not advanced:
                colour[state] = BLACK
                path.pop()
                stack.pop()
    return None


def reference_escape(edges: TupleGraph, bad: set[LoadState]) -> int:
    """The recursive worst-case escape depth of an acyclic bad region."""
    memo: dict[LoadState, int] = {}

    def escape(state: LoadState) -> int:
        if state not in bad:
            return 0
        if state not in memo:
            memo[state] = 1 + max(
                (escape(s) for s in edges.get(state, frozenset())),
                default=0,
            )
        return memo[state]

    return max((escape(state) for state in sorted(bad)), default=0)


#: One codec per packed form: 3 cores fit an ``int64``; 16 cores of
#: 5-bit digits need 80 bits, so they pack into ``bytes``.
CODECS = {
    "int-form": StateCodec(n_cores=3, max_value=3),
    "bytes-form": StateCodec(n_cores=16, max_value=16),
}


def widen(codec: StateCodec, state: LoadState) -> LoadState:
    """``state`` padded with idle cores to the codec's width."""
    return state + (0,) * (codec.n_cores - len(state))


def check_against_reference(codec: StateCodec, edges: TupleGraph):
    """Analyse ``edges`` both ways; return the checker's analysis."""
    graph = PackedGraph.from_mapping(codec, {
        codec.encode(state): {codec.encode(s) for s in succ}
        for state, succ in edges.items()
    })
    analysis = ModelChecker(BalanceCountPolicy()).analyze_graph(
        StateScope(n_cores=codec.n_cores, max_load=1), graph, False
    )
    bad = {state for state in edges if is_bad_state(state)}
    lasso = reference_lasso(edges, bad)
    assert analysis.lasso == lasso
    assert analysis.violated == (lasso is not None)
    assert analysis.worst_case_rounds == (
        None if lasso is not None else reference_escape(edges, bad)
    )
    assert analysis.states_explored == len(edges)
    assert analysis.bad_states == len(bad)
    return analysis


#: Three-core load vectors: a mix of bad (idle and overloaded) and good
#: states to draw graphs over.
POOL = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)
        if a + b + c <= 3]


@st.composite
def random_graphs(draw, acyclic: bool = False) -> TupleGraph:
    """A closed graph over a random subset of :data:`POOL`.

    ``acyclic`` keeps only edges that go down a random ranking, so the
    bad region never holds a cycle and ``N`` is a longest path.
    """
    states = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=14,
                           unique=True))
    rank = {state: i for i, state in enumerate(states)}
    edges: TupleGraph = {}
    for state in states:
        targets = [s for s in states if not acyclic or rank[s] < rank[state]]
        succ = draw(st.lists(st.sampled_from(targets), max_size=4)
                    if targets else st.just([]))
        edges[state] = frozenset(succ)
    return edges


@pytest.mark.parametrize("form", sorted(CODECS))
class TestMatchesDictAlgorithms:
    def test_random_graphs(self, form):
        codec = CODECS[form]

        @settings(max_examples=150, deadline=None)
        @given(edges=random_graphs())
        def check(edges):
            check_against_reference(codec, {
                widen(codec, s): frozenset(widen(codec, t) for t in succ)
                for s, succ in edges.items()
            })

        check()

    def test_random_acyclic_graphs(self, form):
        codec = CODECS[form]

        @settings(max_examples=150, deadline=None)
        @given(edges=random_graphs(acyclic=True))
        def check(edges):
            analysis = check_against_reference(codec, {
                widen(codec, s): frozenset(widen(codec, t) for t in succ)
                for s, succ in edges.items()
            })
            assert not analysis.violated

        check()

    @pytest.mark.parametrize("length", range(7))
    def test_chain_of_bad_states_escapes_in_its_length(self, form, length):
        """``length`` bad states in a row, then a good state: N is
        exactly ``length``, up to 6."""
        codec = CODECS[form]
        bad_states = [s for s in POOL if is_bad_state(s)][:length]
        chain = [widen(codec, s) for s in bad_states] \
            + [widen(codec, (1, 1, 1))]
        edges = {s: frozenset([t]) for s, t in zip(chain, chain[1:])}
        edges[chain[-1]] = frozenset([chain[-1]])
        analysis = check_against_reference(codec, edges)
        assert analysis.worst_case_rounds == length

    def test_self_loop_is_a_one_state_cycle(self, form):
        codec = CODECS[form]
        loop = widen(codec, (0, 1, 2))
        analysis = check_against_reference(codec, {loop: frozenset([loop])})
        assert analysis.lasso == Lasso(prefix=(), cycle=(loop,))

    def test_cycle_behind_peeled_states(self, form):
        """The smallest bad roots lead only into peeled subtrees before
        the survivors' cycle: DFS order over all bad states and over the
        survivors finds the same lasso, prefix included."""
        codec = CODECS[form]
        a, b, c, d, e = (widen(codec, s) for s in
                         [(0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 2, 1),
                          (0, 3, 0)])
        good = widen(codec, (1, 1, 1))
        edges = {
            a: frozenset([b, good]),     # peeled in round 2
            b: frozenset([good]),        # peeled in round 1
            c: frozenset([a, d]),        # survivor: enters the cycle
            d: frozenset([b, e]),        # cycle d -> e -> d
            e: frozenset([d]),
            good: frozenset([good, c]),  # the cycle is reached via good
        }
        analysis = check_against_reference(codec, edges)
        assert analysis.lasso == Lasso(prefix=(c,), cycle=(d, e))
