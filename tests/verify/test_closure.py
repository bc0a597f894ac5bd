"""The one closure loop, ``bfs_closure``, against a plain reference BFS.

Every engine explores through :func:`repro.verify.model_checker.
bfs_closure`: the serial checker with one in-process shard, the pool
and the level-sync distributed engine with one shard per worker. The
reference below is a plain level-synchronous BFS over the tuple
executor's canonical successor sets, each level expanded in ascending
state order. The shared loop
must return the same graph and truncation flag, and call its progress
hooks with the same arguments in the same order, whatever the shard
count and whichever packed form (``int`` or ``bytes``) the codec picks.
"""

from __future__ import annotations

import pytest

from repro.policies import BalanceCountPolicy, NaiveOverloadedPolicy
from repro.topology.numa import symmetric_numa
from repro.verify import ModelChecker, StateScope
from repro.verify.encoding import StateCodec
from repro.verify.model_checker import bfs_closure, closure_start
from repro.verify.parallel import bfs_closure as parallel_bfs_closure
from repro.verify.symmetry import (
    FlatSymmetryGroup,
    NumaSymmetryGroup,
    TrivialGroup,
)


def reference_closure(checker, initial):
    """Level-synchronous BFS over tuple successors.

    Returns the graph, the truncation flag, and the per-level
    ``(level, expanded, next_frontier)`` triples.
    """
    frontier = sorted({checker.symmetry.canonicalize(s) for s in initial})
    seen = set(frontier)
    edges = {}
    truncated = False
    levels = []
    while frontier:
        for state in frontier:
            edges[state], trunc = checker.successors(state)
            truncated = truncated or trunc
        fresh = {succ for state in frontier for succ in edges[state]
                 if succ not in seen}
        seen |= fresh
        levels.append((len(levels), len(frontier), len(fresh)))
        frontier = sorted(fresh)
    return edges, truncated, levels


def pool_like(checker):
    """A ``map_expand`` that returns ``(edges, truncated)`` pairs only,
    like the pool and the level-sync distributed engine."""
    def map_expand(codec, chunks):
        return [checker.expand_level(chunk, codec)[:2] for chunk in chunks]
    return map_expand


CASES = [
    ("balance-trivial", BalanceCountPolicy(), TrivialGroup(),
     StateScope(n_cores=3, max_load=3)),
    ("naive-flat", NaiveOverloadedPolicy(), FlatSymmetryGroup(),
     StateScope(n_cores=4, max_load=2)),
    ("balance-numa", BalanceCountPolicy(),
     NumaSymmetryGroup(symmetric_numa(2, 2)),
     StateScope(n_cores=4, max_load=2)),
]


@pytest.mark.parametrize("mode", ["off", "numpy"])
@pytest.mark.parametrize("label,policy,group,scope", CASES,
                         ids=[case[0] for case in CASES])
class TestMatchesReference:
    def test_explore_graph_and_on_expand_calls(self, monkeypatch, mode,
                                               label, policy, group, scope):
        monkeypatch.setenv("REPRO_KERNEL", mode)
        initial = list(group.iter_representatives(scope))
        edges, truncated, levels = reference_closure(
            ModelChecker(policy, symmetry=group), initial
        )
        calls: list[int] = []
        got = ModelChecker(policy, symmetry=group).explore(
            initial, on_expand=calls.append
        )
        assert got == (edges, truncated)
        cumulative = [sum(expanded for _, expanded, _ in levels[:i + 1])
                      for i in range(len(levels))]
        assert calls == cumulative
        assert calls[-1] == len(edges)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_sharded_graph_and_on_level_calls(self, monkeypatch, mode,
                                              label, policy, group, scope,
                                              n_shards):
        monkeypatch.setenv("REPRO_KERNEL", mode)
        initial = list(group.iter_representatives(scope))
        edges, truncated, levels = reference_closure(
            ModelChecker(policy, symmetry=group), initial
        )
        calls: list[tuple[int, int, int]] = []
        got = bfs_closure(
            pool_like(ModelChecker(policy, symmetry=group)), n_shards,
            initial, group,
            on_level=lambda *args: calls.append(args),
        )
        assert got == (edges, truncated)
        assert calls == levels


class TestBytesForm:
    """States wider than 63 bits travel as ``bytes`` in object arrays."""

    #: 16 cores with a total load of 16: 5 bits a core, 80 bits a state.
    #: Each thief has one victim, which keeps the tuple oracle cheap.
    INITIAL = [(2,) + (1,) * 14 + (0,), (3,) + (1,) * 13 + (0, 0),
               (4,) + (1,) * 12 + (0, 0, 0)]

    def test_codec_is_bytes_form(self):
        codec, frontier = closure_start(self.INITIAL, FlatSymmetryGroup())
        assert not codec.use_int
        assert frontier.dtype == object
        assert frontier.tolist() == sorted(
            codec.encode(FlatSymmetryGroup().canonicalize(s))
            for s in self.INITIAL
        )

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_matches_reference(self, n_shards):
        def checker():
            return ModelChecker(BalanceCountPolicy(), max_orders=2,
                                symmetry=FlatSymmetryGroup())

        edges, truncated, levels = reference_closure(checker(), self.INITIAL)
        assert len(levels) > 1
        calls: list[tuple[int, int, int]] = []
        got = bfs_closure(pool_like(checker()), n_shards, self.INITIAL,
                          FlatSymmetryGroup(),
                          on_level=lambda *args: calls.append(args))
        assert got == (edges, truncated)
        assert calls == levels
        assert checker().explore(self.INITIAL) == (edges, truncated)


class TestEdgeCases:
    def test_no_initial_states(self):
        assert closure_start([], TrivialGroup()) is None
        assert ModelChecker(BalanceCountPolicy()).explore([]) == ({}, False)

    def test_parallel_reexports_the_one_loop(self):
        assert parallel_bfs_closure is bfs_closure

    def test_codec_fits_the_canonical_states(self):
        codec, _ = closure_start([(0, 0, 3), (1, 1, 0)],
                                 FlatSymmetryGroup())
        assert codec == StateCodec(n_cores=3, max_value=3)
