"""Explicit-state model checking of work conservation.

The paper's definition (Section 3.2) asks for an ``N`` such that after
``N`` load-balancing rounds no core is idle while another is overloaded —
for *every* initial state, under *every* resolution of the concurrency.
Over abstract states this is a liveness property of a finite
nondeterministic transition system, and therefore decidable:

* a **violation** is an infinite execution that remains inside *bad*
  states (idle-while-overloaded) forever; in a finite graph that is
  exactly a reachable cycle lying wholly inside the bad region — a
  *lasso*. The §4.3 ping-pong is such a lasso:
  ``(0,1,2) -> (0,2,1) -> (0,1,2)``;
* if the bad region contains no cycle, every execution escapes it within
  a bounded number of rounds, and the worst case over the (acyclic) bad
  region is the exact ``N`` of the definition.

The checker explores the *closure* of the scope: steals conserve total
thread count, so every reachable state lives in the finite simplex of
vectors with the same total, even when a single core's load exceeds the
scope's per-core bound (over-stealing policies do that).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.obs.trace import TRACER
from repro.topology.numa import NumaTopology
from repro.verify.encoding import PackedState, StateCodec, decode_graph
from repro.verify.enumeration import (
    LoadState,
    StateScope,
    is_bad_state,
)
from repro.verify.kernel import TransitionKernel, build_kernel
from repro.verify.symmetry import SymmetryGroup, TrivialGroup
from repro.verify.obligations import (
    GOOD_STATE_CLOSURE,
    PROGRESS,
    WORK_CONSERVATION,
    Counterexample,
    Obligation,
    ProofResult,
    ProofStatus,
    timed_check,
)
from repro.verify.transition import (
    DEFAULT_MAX_ORDERS,
    BranchEnumeration,
    enumerate_round_branches,
)


class PackedGraph(Mapping):
    """A packed transition graph in compressed sparse row (CSR) form.

    The closure, and each chunk of it an expansion returns, is three
    arrays: ``states``, the packed states ascending (``int64``, or
    ``object`` holding a bytes-form codec's ``bytes``); ``indptr``,
    where row ``i`` spans ``indices[indptr[i]:indptr[i + 1]]``; and
    ``indices``, each row's distinct canonical successors, ascending.
    The column indices are packed states, so a chunk's rows may name
    states outside the chunk. As a read-only ``Mapping``,
    ``graph[packed]`` is a row and ``.values()`` every row.
    """

    __slots__ = ("codec", "states", "indptr", "indices")

    def __init__(self, codec: StateCodec, states: Any, indptr: Any,
                 indices: Any) -> None:
        self.codec = codec
        self.states = states
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_pairs(cls, codec: StateCodec, states: Any, owner: Any,
                   values: Any) -> "PackedGraph":
        """The graph over ``states`` whose row ``owner[k]`` holds
        ``values[k]``, the pairs as :func:`_dedup` returns them."""
        indptr = np.zeros(len(states) + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=len(states)),
                  out=indptr[1:])
        return cls(codec, states, indptr, values)

    @classmethod
    def from_rows(cls, codec: StateCodec, states: Any,
                  rows: Sequence[Collection[PackedState]]) -> "PackedGraph":
        """The graph whose row ``i`` is ``rows[i]``, in any order."""
        owner = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        values = _packed_array(codec, [value for row in rows
                                       for value in row])
        values, owner = _dedup(values, owner)
        return cls.from_pairs(codec, states, owner, values)

    @classmethod
    def from_mapping(cls, codec: StateCodec, edges: dict) -> "PackedGraph":
        """The graph of the async closure's ``{state: row}`` dict."""
        states = sorted(edges)
        return cls.from_rows(codec, _packed_array(codec, states),
                             [edges[state] for state in states])

    @classmethod
    def concat(cls, codec: StateCodec,
               chunks: "Sequence[PackedGraph]") -> "PackedGraph":
        """Chunks over disjoint states as one graph, rows in state order."""
        states = np.concatenate([chunk.states for chunk in chunks])
        lengths = np.concatenate([np.diff(chunk.indptr) for chunk in chunks])
        indices = np.concatenate([chunk.indices for chunk in chunks])
        starts = np.cumsum(lengths) - lengths
        order = np.argsort(states, kind="stable")
        lengths = lengths[order]
        indptr = np.zeros(len(states) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        gather = (np.repeat(starts[order] - indptr[:-1], lengths)
                  + np.arange(indptr[-1]))
        return cls(codec, states[order], indptr, indices[gather])

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[PackedState]:
        return iter(self.states.tolist())

    def __getitem__(self, packed: PackedState) -> Any:
        row = int(np.searchsorted(self.states, packed))
        if row == len(self.states) or self.states[row] != packed:
            raise KeyError(packed)
        return self.indices[self.indptr[row]:self.indptr[row + 1]]

    def values(self) -> list[Any]:  # type: ignore[override]
        """Every row, in state order."""
        if not len(self.states):
            return []
        return np.split(self.indices, self.indptr[1:-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedGraph):
            return NotImplemented
        return (self.codec == other.codec
                and np.array_equal(self.states, other.states)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))


def _dedup(values: Any, owner: Any) -> tuple[Any, Any]:
    """``(values, owner)`` pairs sorted by owner, then value, without
    repeats."""
    order = np.lexsort((values, owner))
    values = values[order]
    owner = owner[order]
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = (owner[1:] != owner[:-1]) | (values[1:] != values[:-1])
    return values[keep], owner[keep]


def _row_entries(graph: PackedGraph, rows: Any) -> tuple[Any, Any]:
    """The entries of ``graph``'s rows at positions ``rows``: for each
    entry, the index into ``rows`` of the row that holds it, and its
    packed successor."""
    lengths = graph.indptr[rows + 1] - graph.indptr[rows]
    owner = np.repeat(np.arange(len(rows)), lengths)
    offset = np.arange(int(lengths.sum())) - (np.cumsum(lengths)
                                              - lengths)[owner]
    return owner, graph.indices[graph.indptr[rows][owner] + offset]


#: Sentinel distinguishing "never built" from "built as ineligible".
_KERNEL_UNSET = object()


@dataclass(frozen=True)
class Lasso:
    """A witness of non-work-conservation: a reachable bad cycle.

    Attributes:
        prefix: bad states leading from an initial state to the cycle.
        cycle: the repeating bad states (first element repeats after the
            last).
    """

    prefix: tuple[LoadState, ...]
    cycle: tuple[LoadState, ...]

    def describe(self) -> str:
        """Render the lasso the way the paper narrates the ping-pong."""
        path = " -> ".join(str(s) for s in self.prefix + self.cycle)
        loop = " -> ".join(str(s) for s in self.cycle + (self.cycle[0],))
        return f"reachable via {path}; repeats {loop} forever"


@dataclass
class WorkConservationAnalysis:
    """Result of model-checking work conservation at a scope.

    Attributes:
        policy_name: the policy analysed.
        scope: human-readable scope description.
        sequential: whether the §4.2 regime was analysed instead of §4.3.
        violated: True when a lasso was found.
        lasso: the witness, when violated.
        worst_case_rounds: exact worst-case ``N`` over all scope states
            (None when violated — no finite N exists).
        states_explored: number of distinct abstract states visited.
        bad_states: number of bad states among them.
        truncated: True when permutation caps were hit; "no violation"
            then only covers the explored subset.
    """

    policy_name: str
    scope: str
    sequential: bool
    violated: bool
    lasso: Lasso | None
    worst_case_rounds: int | None
    states_explored: int
    bad_states: int
    truncated: bool
    elapsed_s: float = 0.0

    def to_proof_result(self) -> ProofResult:
        """Summarise as a :class:`ProofResult` for report composition."""
        if self.violated:
            assert self.lasso is not None
            counterexample = Counterexample(
                state=self.lasso.cycle[0],
                detail="work-conservation lasso: " + self.lasso.describe(),
                data={
                    "prefix": self.lasso.prefix,
                    "cycle": self.lasso.cycle,
                },
            )
            status = ProofStatus.REFUTED
        else:
            counterexample = None
            status = ProofStatus.PROVED_AT_SCOPE
        return ProofResult(
            obligation=WORK_CONSERVATION,
            policy_name=self.policy_name,
            status=status,
            scope=self.scope,
            states_checked=self.states_explored,
            counterexample=counterexample,
            elapsed_s=self.elapsed_s,
        )


class ModelChecker:
    """Explores the round transition system of one policy.

    Attributes:
        policy: the policy under analysis.
        choice_mode: ``'all'`` quantifies over every candidate choice
            (default — matches the ∀ in the definition); ``'policy'``
            fixes the policy's own deterministic choice.
        max_orders: cap on steal-order permutations per round.
        sequential: check the §4.2 regime (each steal sees fresh loads)
            instead of the §4.3 stale-snapshot round. The transition
            kernel models only the latter, so a sequential checker runs
            every round on the tuple executor.
        symmetry: the :class:`~repro.verify.symmetry.SymmetryGroup`
            whose orbits the checker quotients by. Any group whose
            elements the transition relation cannot observe is sound:
            the flat group for load-only policies, a topology's
            automorphism group in ``choice_mode='all'`` (where the
            policy's ``choose`` is never consulted); the trivial group
            disables reduction. Under ``choice_mode='policy'`` the
            choice's tie-breaks must be equivariant too — enforced via
            :attr:`~repro.core.policy.Policy.choice_invariance`.
        topology: optional machine layout; when given, snapshot views
            carry real node ids so topology-aware policies see the
            machine they were written for (defaults to the symmetry
            group's topology, when it has one).
    """

    #: Whether a round is the flat round :class:`TransitionKernel`
    #: models. A subclass whose round adds phases sets this False, and
    #: its progress and closure obligations run on the tuple executor.
    flat_round = True

    def __init__(self, policy: Policy, choice_mode: str = "all",
                 max_orders: int = DEFAULT_MAX_ORDERS, *,
                 sequential: bool = False,
                 symmetry: SymmetryGroup = TrivialGroup(),
                 topology: NumaTopology | None = None) -> None:
        self.policy = policy
        self.choice_mode = choice_mode
        self.max_orders = max_orders
        self.sequential = sequential
        self.symmetry = symmetry
        self.topology = topology
        if choice_mode == "policy" and not self.symmetry.is_trivial:
            self._check_choice_equivariance(policy)
        self._nodes: tuple[int, ...] | None = (
            topology.core_to_node if topology is not None
            else self.symmetry.core_nodes
        )
        self._successor_cache: dict[
            LoadState, tuple[frozenset[LoadState], bool]
        ] = {}
        self._branch_cache: dict[LoadState, BranchEnumeration] = {}
        self._kernel_cache: dict[
            tuple[StateCodec, tuple[int, ...] | None, str],
            TransitionKernel | None,
        ] = {}

    def _check_choice_equivariance(self, policy: Policy) -> None:
        """Refuse quotients that ``choice_mode='policy'`` makes unsound.

        In policy mode the transition relation includes the policy's own
        ``choose``, so the quotient is only sound when, whenever two
        candidates tie under the choice's ranking, some group element
        swaps exactly them (see
        :attr:`~repro.core.policy.Policy.choice_invariance`). Load-only
        choices with cid tie-breaks satisfy that under any renaming
        group (the transposition of two tying cores is always in the
        group). Distance-based choices do **not**, even under their own
        topology's automorphism group: two candidates can tie at equal
        distance in *different* interchangeable nodes, and the fix-up
        there is a whole-node swap that moves other, unequal cores —
        empirically the quotient then under-reports the exact ``N``
        (e.g. ``numa_choice`` on ``numa:3x2``). Stateful (random)
        choices are equivariant under nothing.

        Raises:
            VerificationError: the (group, choice) combination could
                silently change verdicts.
        """
        invariance = getattr(policy, "choice_invariance", "renaming")
        if invariance == "renaming":
            return
        if invariance == "distance":
            raise VerificationError(
                f"policy {policy.name!r} makes distance-based choices,"
                " whose cross-node tie-breaks are not equivariant under"
                " any symmetry group: quotients are unsound under"
                " choice_mode='policy' — drop the symmetry group or use"
                " choice_mode='all'"
            )
        raise VerificationError(
            f"policy {policy.name!r} has a stateful (non-equivariant)"
            " choice; symmetry quotients are unsound under"
            " choice_mode='policy' — drop the symmetry group or use"
            " choice_mode='all'"
        )

    def _canon(self, state: LoadState) -> LoadState:
        if self.symmetry.is_trivial:
            return state
        return self.symmetry.canonicalize(state)

    def branches(self, state: LoadState) -> BranchEnumeration:
        """Round-branch enumeration of ``state``, memoized per checker.

        The memo is keyed on the state as given — under a non-trivial
        symmetry group every caller canonicalises first, so the key *is*
        the canonical state and permutation-equivalent states share one
        entry. Within a parallel shard (each worker owns one checker)
        this is the "memoize round-branch transitions" layer:
        ``analyze``, ``check_progress`` and ``successors`` all hit the
        same cache instead of re-enumerating the branching structure per
        obligation.

        Only *bad* states are retained, so the memo stays bounded by the
        bad region instead of the whole reachable closure. On the tuple
        path exploration's :meth:`successors` enumerates every bad state
        and the progress obligation, run afterwards on the same checker,
        reuses those entries; when the transition kernel serves the
        obligations, this method runs only to rebuild a refuted
        obligation's witness.
        """
        cached = self._branch_cache.get(state)
        if cached is None:
            cached = self._enumerate_round(state)
            if is_bad_state(state):
                self._branch_cache[state] = cached
        return cached

    def _enumerate_round(self, state: LoadState) -> BranchEnumeration:
        """Every resolution of one round from ``state``, unmemoised.

        The one hook a checker with a different round model overrides
        (see :class:`~repro.verify.hierarchical.HierarchicalModelChecker`);
        :meth:`branches` owns the memo.
        """
        return enumerate_round_branches(
            self.policy, state,
            choice_mode=self.choice_mode,
            sequential=self.sequential,
            max_orders=self.max_orders,
            nodes=self._nodes,
        )

    def successors(self, state: LoadState,
                   ) -> tuple[frozenset[LoadState], bool]:
        """Distinct (canonicalised) successor states and truncation flag."""
        cached = self._successor_cache.get(state)
        if cached is not None:
            return cached
        enumeration = self.branches(state)
        result = (
            frozenset(self._canon(s) for s in enumeration.successor_states()),
            enumeration.truncated,
        )
        self._successor_cache[state] = result
        return result

    # ------------------------------------------------------------------
    # packed expansion
    # ------------------------------------------------------------------

    def _kernel_for(self, codec: StateCodec,
                    sweeps: bool = False) -> TransitionKernel | None:
        """The (possibly ineligible) kernel for ``codec``, memoized.

        ``sweeps`` asks for the state sweeps' kernel (:meth:`sweep_kernel`):
        its tables are probed with every core at node 0 instead of at the
        checker's node ids, and it is built for ``choice_mode='all'``
        whatever the checker's mode. Without a topology under
        ``choice_mode='all'`` both are the same kernel. A sequential
        checker's rounds have no kernel; its sweeps' kernel checks
        single steals, which do not depend on the round model.
        """
        if self.sequential and not sweeps:
            return None
        key = (codec, None if sweeps else self._nodes,
               "all" if sweeps else self.choice_mode)
        kernel = self._kernel_cache.get(key, _KERNEL_UNSET)
        if kernel is _KERNEL_UNSET:
            kernel = build_kernel(
                self.policy, codec,
                choice_mode=key[2],
                max_orders=self.max_orders,
                nodes=key[1],
            )
            self._kernel_cache[key] = kernel
        return kernel  # type: ignore[return-value]

    def sweep_kernel(self, scope: StateScope) -> TransitionKernel | None:
        """The kernel the state sweeps over ``scope`` run on, or ``None``.

        The §4.2 lemma sweeps and the §4.3 potential sweep check the
        views :func:`~repro.verify.enumeration.views_of` builds — every
        core at node 0 — at every off-diagonal pair, so the tables must
        answer for exactly those: under a topology the sweeps get a
        kernel probed without node ids, and ``"scoped-loads"`` policies
        get none (their tables leave the off-mask pairs unprobed). The
        sweeps never consult ``choose``, so the kernel is built for
        ``choice_mode='all'`` whatever the checker's mode; the other
        gates are :meth:`explore`'s.
        """
        if getattr(self.policy, "filter_invariance", "none") != "loads":
            return None
        return self._kernel_for(StateCodec.for_scope(scope), sweeps=True)

    def _expand_fresh(self, states: Any, codec: StateCodec,
                      ) -> tuple[PackedGraph, Any]:
        """The packed successors of ``states``, a sorted array of
        distinct packed states, as a CSR chunk.

        Dispatches to the transition kernel when the policy and
        parameters admit one, else decodes and runs the tuple executor
        per state, whose successors are sorted per row as they enter
        the chunk — the paths produce identical (canonicalised)
        successor sets, which the CI ``smoke-kernel`` job diffs
        end-to-end. Returns the chunk and each state's truncation flag
        (a ``bool`` array).
        """
        kernel = self._kernel_for(codec)
        group = self.symmetry
        if kernel is None:
            with TRACER.span("checker.expand", "checker", tier="tuple",
                             states=len(states)):
                expanded = [self.successors(codec.decode(packed))
                            for packed in states.tolist()]
                chunk = PackedGraph.from_rows(codec, states, [
                    [codec.encode(s) for s in succ] for succ, _ in expanded
                ])
            return chunk, np.array([t for _, t in expanded], dtype=bool)
        # Expansion, canonicalisation, and per-state dedup all stay in
        # int64 arrays; no Python object is built per successor.
        with TRACER.span("checker.kernel", "checker", tier="numpy",
                         states=len(states)) as kernel_span:
            values, counts, trunc_flags = kernel.expand_batch_arrays(states)
            kernel_span.set(values=int(values.size))
        owner = np.repeat(np.arange(len(states)), counts)
        # Dedup raw values first: the kernel runs one steal order per
        # commutation class, but distinct classes and victim
        # combinations still reach the same packed state, and
        # canonicalising before collapsing would pay the (comparatively
        # pricey) per-element canonicalisation for each copy.
        with TRACER.span("checker.dedup", "checker",
                         values=int(values.size)):
            values, owner = _dedup(values, owner)
        if not group.is_trivial:
            with TRACER.span("checker.canonicalise", "checker",
                             tier="numpy", values=int(values.size)):
                values = group.canonicalize_batch(values, codec)
            with TRACER.span("checker.dedup", "checker",
                             values=int(values.size)):
                values, owner = _dedup(values, owner)
        return PackedGraph.from_pairs(codec, states, owner, values), \
            trunc_flags

    def expand_level(self, packed_states: Iterable[PackedState],
                     codec: StateCodec) -> tuple[PackedGraph, bool]:
        """Packed successors of a frontier chunk, as a CSR chunk.

        The batch analogue of :meth:`successors`: every engine's
        expansion — serial levels, pool workers, remote workers — runs
        through here, so the kernel/tuple dispatch lives in exactly one
        place. Returns a :class:`PackedGraph` over the distinct input
        states and whether any enumeration was truncated; the chunk is
        what an :class:`~repro.verify.tasks.ExpandTask` answers with,
        and :func:`bfs_closure` merges its ``indices`` into the next
        frontier.
        """
        states = np.unique(_packed_array(codec, packed_states))
        chunk, truncated = self._expand_fresh(states, codec)
        return chunk, bool(truncated.any())

    # ------------------------------------------------------------------
    # work conservation
    # ------------------------------------------------------------------

    def explore(self, initial_states: Iterable[LoadState],
                on_expand: Callable[[int], None] | None = None,
                ) -> tuple[PackedGraph, bool]:
        """Reachable closure of ``initial_states`` as a packed graph.

        Returns the closure (every explored state's distinct
        canonicalised successors) and whether any enumeration was
        truncated. Exploration is the expensive half of :meth:`analyze`.
        A state's row is a pure function of (policy, state, parameters),
        so every engine's closure of the same states is the same graph.

        The closure is :func:`bfs_closure` with one shard whose chunk
        expands through :meth:`expand_level` in this process, so the
        transition kernel vectorises whole levels. The graph stays
        packed: :meth:`analyze_graph` decodes only its states.

        ``on_expand`` (when given) is called after each expanded level
        with the cumulative number of states explored so far — the
        progress hook behind :class:`repro.api.Session`'s serial-engine
        events. Pure observer; it cannot influence exploration.
        """
        def map_expand(codec: StateCodec, chunks: list[list[PackedState]],
                       ) -> list[tuple[PackedGraph, bool]]:
            return [self.expand_level(chunk, codec) for chunk in chunks]

        return bfs_closure(
            map_expand, 1, initial_states, self.symmetry,
            on_level=None if on_expand is None
            else cumulative_levels(on_expand),
        )

    def analyze_graph(self, scope: StateScope, graph: PackedGraph,
                      truncated: bool,
                      elapsed_s: float = 0.0) -> WorkConservationAnalysis:
        """Run the graph algorithms over an explored closure.

        The cheap half of :meth:`analyze`, on the graph's arrays: the bad
        mask comes from one bulk decode of the states
        (:func:`~repro.verify.encoding.decode_graph`) and the bad
        subgraph is peeled (:func:`peel_bad_region`), whose round count
        is the exact ``N`` unless survivors reach a lasso
        (:func:`find_lasso`). Only the lasso's rows become tuples.
        """
        with TRACER.span("checker.analyze", "checker") as span:
            loads = decode_graph(graph.codec, graph)
            bad = (loads == 0).any(axis=1) & (loads >= 2).any(axis=1)
            rounds, live, rows, cols = peel_bad_region(graph, bad)
            lasso = None
            if live.any():
                path, start = find_lasso(live, rows, cols)
                states = [tuple(row) for row in loads[path].tolist()]
                lasso = Lasso(prefix=tuple(states[:start]),
                              cycle=tuple(states[start:]))
            n_bad = int(bad.sum())
            span.set(states=len(graph), bad=n_bad, peel_rounds=rounds,
                     survivors=int(live.sum()))
        return WorkConservationAnalysis(
            policy_name=self.policy.name,
            scope=scope.describe(),
            sequential=self.sequential,
            violated=lasso is not None,
            lasso=lasso,
            worst_case_rounds=None if lasso is not None else rounds,
            states_explored=len(graph),
            bad_states=n_bad,
            truncated=truncated,
            elapsed_s=elapsed_s,
        )

    def analyze(self, scope: StateScope,
                initial_states: Iterable[LoadState] | None = None,
                on_expand: Callable[[int], None] | None = None,
                ) -> WorkConservationAnalysis:
        """Model-check work conservation over every state in ``scope``.

        Explores the reachable closure of the scope, finds bad-region
        lassos, and — absent a lasso — computes the exact worst-case
        number of rounds to escape the bad region. ``initial_states``
        optionally overrides the scope sweep (the parallel engine's
        per-shard hook); ``on_expand`` observes exploration progress
        (see :meth:`explore`).
        """
        with timed_check() as timer:
            if initial_states is None:
                initial_states = self.symmetry.iter_representatives(scope)
            edges, truncated = self.explore(initial_states,
                                            on_expand=on_expand)
            analysis = self.analyze_graph(scope, edges, truncated)
        analysis.elapsed_s = timer.elapsed
        return analysis

    # ------------------------------------------------------------------
    # auxiliary obligations
    # ------------------------------------------------------------------

    def _sweep_obligation(
        self, obligation: Obligation, span_name: str, scope: StateScope,
        graph: PackedGraph | None, bad_states: bool,
        check_at: Callable[[LoadState], tuple[int, Counterexample | None]],
        flag_rows: Callable[[TransitionKernel, Any, Any, Any],
                            tuple[Any, Any]],
    ) -> ProofResult:
        """Check ``obligation`` at every bad (or every good) state of the
        scope's representatives, in sweep order.

        ``graph`` is the scope's explored closure; without one, the
        scope is explored here. ``check_at`` is the tuple executor's
        check of one canonical state: ``(checked, counterexample)``,
        where ``checked`` is what the state adds to ``states_checked``.
        Where :meth:`explore` runs on the numpy kernel, the obligation
        is read off the graph instead: ``flag_rows`` takes the kernel,
        the swept canonical packed states of the right kind, and their
        rows' entries (:func:`_row_entries`), and returns what each
        state checks and whether it is flagged; ``check_at`` then
        rebuilds the first flagged state's counterexample exactly as
        the tuple sweep reports it.
        """
        checked = 0
        counterexample: Counterexample | None = None
        with timed_check() as timer, TRACER.span(span_name,
                                                 "obligation") as span:
            swept = list(self.symmetry.iter_representatives(scope))
            if graph is None:
                graph, _ = self.explore(swept)
            kernel = (self._kernel_for(graph.codec)
                      if self.flat_round and swept else None)
            span.set(tier="tuple" if kernel is None else "numpy",
                     states=len(swept))
            if kernel is None:
                for state in swept:
                    state = self._canon(state)
                    if is_bad_state(state) != bad_states:
                        continue
                    count, counterexample = check_at(state)
                    checked += count
                    if counterexample is not None:
                        break
            else:
                codec = graph.codec
                packed = self.symmetry.canonicalize_batch(
                    np.asarray(codec.encode_batch(swept), dtype=np.int64),
                    codec,
                )
                packed = packed[kernel.bad_mask(packed) == bad_states]
                rows = np.searchsorted(graph.states, packed)
                if not ((rows < len(graph)).all()
                        and np.array_equal(graph.states[rows], packed)):
                    raise VerificationError(
                        f"{self.policy.name}: the graph for"
                        f" {obligation.key} misses swept states"
                    )
                counts, flagged = flag_rows(kernel, packed,
                                            *_row_entries(graph, rows))
                hits = np.flatnonzero(flagged)
                first = int(hits[0]) if hits.size else len(packed)
                checked = int(counts[:first].sum())
                if hits.size:
                    state = codec.decode(int(packed[first]))
                    count, counterexample = check_at(state)
                    checked += count
                    if counterexample is None:
                        raise VerificationError(
                            f"{self.policy.name}: the transition kernel"
                            f" flagged state {state} for {obligation.key}"
                            " but the tuple executor finds no"
                            " counterexample"
                        )
        status = (
            ProofStatus.REFUTED if counterexample is not None
            else ProofStatus.PROVED_AT_SCOPE
        )
        return ProofResult(
            obligation=obligation,
            policy_name=self.policy.name,
            status=status,
            scope=scope.describe(),
            states_checked=checked,
            counterexample=counterexample,
            elapsed_s=timer.elapsed,
        )

    def check_good_state_closure(self, scope: StateScope,
                                 graph: PackedGraph | None = None,
                                 ) -> ProofResult:
        """Good states must only step to good states (§3.2 persistence).

        ``graph`` is the scope's explored closure (explored here when
        not given). Where :meth:`explore` runs on the numpy kernel, the
        first good swept state whose row holds a bad state fails; it is
        replayed on the tuple executor, which rebuilds the same
        counterexample the tuple sweep reports.
        """
        return self._sweep_obligation(
            GOOD_STATE_CLOSURE, "checker.closure", scope, graph,
            bad_states=False, check_at=self._closure_at,
            flag_rows=self._closure_rows,
        )

    def _closure_at(self, state: LoadState,
                    ) -> tuple[int, Counterexample | None]:
        """Closure at one canonical good state (one state checked)."""
        succ, _ = self.successors(state)
        bad_next = [s for s in succ if is_bad_state(s)]
        if not bad_next:
            return 1, None
        return 1, Counterexample(
            state=state,
            detail=(
                f"good state reaches bad state {bad_next[0]}"
                " in one round"
            ),
            data={"successor": bad_next[0]},
        )

    @staticmethod
    def _closure_rows(kernel: TransitionKernel, good: Any, owner: Any,
                      successors: Any) -> tuple[Any, Any]:
        """One state checked per good state; flagged where its row holds
        a bad state."""
        reaches_bad = np.zeros(len(good), dtype=bool)
        reaches_bad[owner[kernel.bad_mask(successors)]] = True
        return np.ones(len(good), dtype=np.int64), reaches_bad

    def check_progress(self, scope: StateScope,
                       graph: PackedGraph | None = None,
                       ) -> ProofResult:
        """Every branch out of a bad state commits at least one steal.

        This is the "first executed steal always succeeds" argument: in
        a bad state Lemma1 gives the idle core a candidate, so the round
        has intents, and the first steal to execute re-checks against
        unmutated state and must succeed. ``graph`` is the scope's
        explored closure (explored here when not given). Where
        :meth:`explore` runs on the numpy kernel, the obligation is read
        off the graph: a branch that commits no steal leaves the state
        unchanged, so only a bad state whose row holds itself can stall,
        and only those states run through the kernel for their stall
        flags. Every state's branch count comes from the kernel's
        tables. The first stalling state is replayed on the tuple
        executor for the counterexample and the index of the failing
        branch.
        """
        return self._sweep_obligation(
            PROGRESS, "checker.progress", scope, graph,
            bad_states=True, check_at=self._progress_at,
            flag_rows=self._progress_rows,
        )

    def _progress_at(self, state: LoadState,
                     ) -> tuple[int, Counterexample | None]:
        """Progress at one canonical bad state.

        Counts branches up to and including the first that commits no
        steal, whose counterexample it returns.
        """
        enumeration = self.branches(state)
        for checked, branch in enumerate(enumeration.branches, 1):
            if branch.attempts and branch.successes == 0:
                return checked, Counterexample(
                    state=state,
                    detail=(
                        "a round with steal intents committed no"
                        f" steal (order {branch.order})"
                    ),
                    data={"order": branch.order},
                )
            if not branch.attempts:
                return checked, Counterexample(
                    state=state,
                    detail=(
                        "bad state produced no steal intent at all"
                        " (idle core starves with nothing to try)"
                    ),
                    data={},
                )
        return len(enumeration.branches), None

    @staticmethod
    def _progress_rows(kernel: TransitionKernel, bad: Any, owner: Any,
                       successors: Any) -> tuple[Any, Any]:
        """Each bad state's branch count; flagged where a branch
        commits no steal, which only a self-looping state can have."""
        loops = np.zeros(len(bad), dtype=bool)
        loops[owner[successors == bad[owner]]] = True
        stalled = np.zeros(len(bad), dtype=bool)
        candidates = np.unique(bad[loops])
        if candidates.size:
            *_, flags = kernel.expand_batch_arrays(candidates, stalls=True)
            stalled[loops] = flags[np.searchsorted(candidates, bad[loops])]
        return kernel.branch_counts(bad), stalled


# ---------------------------------------------------------------------------
# closure exploration
# ---------------------------------------------------------------------------


def _packed_array(codec: StateCodec, values: Iterable[PackedState]) -> Any:
    """Packed states as a numpy array: ``int64`` for the int form, and
    ``object`` holding the ``bytes`` for the bytes form.

    Both dtypes order exactly like the packed values, so ``np.unique``,
    ``searchsorted`` and ``insert`` keep frontiers sorted in the
    codec's order in either form.
    """
    dtype = np.int64 if codec.use_int else object
    if isinstance(values, (list, np.ndarray)):
        return np.asarray(values, dtype=dtype)
    return np.fromiter(values, dtype=dtype)


def closure_start(initial_states: Iterable[LoadState],
                  group: SymmetryGroup) -> tuple[StateCodec, Any] | None:
    """The codec and sorted canonical packed frontier of a closure.

    The prologue every closure driver shares (:func:`bfs_closure` and
    the distributed engine's async mode): the codec is derived from the
    initial states (canonicalisation permutes loads, so it fits their
    canonical forms too), which are then canonicalised in one packed
    batch. ``None`` when there are no initial states.
    """
    raw = list(initial_states)
    if not raw:
        return None
    codec = StateCodec.for_states(len(raw[0]), raw)
    packed = _packed_array(codec, codec.encode_batch(raw))
    return codec, np.unique(group.canonicalize_batch(packed, codec))


def bfs_closure(map_expand: Callable, n_shards: int,
                initial_states: Iterable[LoadState],
                symmetry: SymmetryGroup,
                on_level: "Callable[[int, int, int], None] | None" = None,
                ) -> tuple[PackedGraph, bool]:
    """Level-synchronous BFS over the reachable closure, engine-agnostic.

    The one frontier/visited loop: every engine's closure driver
    (:func:`repro.verify.work_conservation.analyze`, mapping each
    level's chunks as expand tasks — in this process, on a pool, or on
    the distributed engine's level-sync workers) and
    :meth:`ModelChecker.explore` run it. The caller owns
    the visited set and the frontier, both sorted numpy arrays of
    *packed* states (:mod:`repro.verify.encoding`; ``int64``, or
    ``object`` for bytes-form codecs). Each level, the frontier is
    striped round-robin into ``n_shards`` chunks and handed to
    ``map_expand(codec, chunks)``, which must return one
    ``(chunk, truncated)`` pair per chunk, as
    :meth:`ModelChecker.expand_level` does (a pool maps them onto
    worker processes; a coordinator ships them to remote workers as one
    batched frontier-exchange round per level); the chunks' ``indices``
    feed the next frontier. The codec is order-preserving, so the
    packed sort stripes states into exactly the chunks the tuple engine
    built. Every state is expanded exactly once globally, and each
    level costs one round trip regardless of link latency. The closure
    is every chunk concatenated into one :class:`PackedGraph`.

    ``on_level`` (when given) is called after each completed level with
    ``(level_index, states_expanded_this_level, next_frontier_size)`` —
    the hook :class:`repro.api.Session` turns into ``LevelCompleted``
    progress events (:func:`cumulative_levels` adapts it to a running
    count). The callback cannot influence exploration.
    """
    start = closure_start(initial_states, symmetry)
    if start is None:
        return PackedGraph.from_rows(StateCodec(1, 0),
                                     np.empty(0, np.int64), []), False
    codec, frontier = start
    seen = frontier
    graph: list[PackedGraph] = []
    truncated = False
    level = 0
    while frontier.size:
        states = frontier.tolist()
        chunks = [states[shard::n_shards] for shard in range(n_shards)]
        chunks = [chunk for chunk in chunks if chunk]
        successors: list[Any] = []
        with TRACER.span("closure.level", "closure", level=level,
                         frontier=len(states), chunks=len(chunks)):
            for chunk, chunk_truncated in map_expand(codec, chunks):
                graph.append(chunk)
                truncated = truncated or chunk_truncated
                successors.append(chunk.indices)
        # Visited membership is one searchsorted merge per level. The
        # fresh states come out ascending, so the next frontier is
        # sorted without a sort.
        candidates = np.unique(np.concatenate(successors))
        pos = np.searchsorted(seen, candidates)
        clipped = np.minimum(pos, seen.size - 1)
        fresh = candidates[(pos == seen.size) | (seen[clipped] != candidates)]
        seen = np.insert(seen, np.searchsorted(seen, fresh), fresh)
        if on_level is not None:
            on_level(level, len(states), int(fresh.size))
        level += 1
        frontier = fresh
    return PackedGraph.concat(codec, graph), truncated


def cumulative_levels(on_expand: Callable[[int], None],
                      ) -> Callable[[int, int, int], None]:
    """An ``on_level`` hook that reports the running number of states
    expanded to ``on_expand`` — the serial engine's ``StatesExplored``
    progress.

    Levels are disjoint, so the running sum of their sizes is the number
    of states explored so far.
    """
    expanded = 0

    def on_level(level: int, states: int, fresh: int) -> None:
        nonlocal expanded
        expanded += states
        on_expand(expanded)

    return on_level


# ---------------------------------------------------------------------------
# graph algorithms
# ---------------------------------------------------------------------------


def peel_bad_region(graph: PackedGraph, bad: Any,
                    ) -> tuple[int, Any, Any, Any]:
    """Peel the bad subgraph of ``graph`` until it stops shrinking.

    Each round removes every bad state with no live bad successor. A
    state removed in round ``k`` leaves the bad region within ``k``
    rounds whatever the adversary picks, and some execution takes
    exactly ``k``; so when every bad state peels, the number of rounds
    is the paper's exact worst-case ``N``. A survivor keeps a surviving
    bad successor forever, so the survivors reach a bad cycle.

    Returns the number of rounds, the survivors' mask, and the edges
    among the survivors as row and column positions, in row order and,
    within a row, ascending.
    """
    rows = np.repeat(np.arange(len(graph)), np.diff(graph.indptr))
    cols = np.searchsorted(graph.states, graph.indices)
    keep = bad[rows] & bad[cols]
    rows, cols = rows[keep], cols[keep]
    live = bad.copy()
    rounds = 0
    while True:
        has_child = np.bincount(rows, minlength=len(graph)) > 0
        if not (live & ~has_child).any():
            return rounds, live, rows, cols
        rounds += 1
        live &= has_child
        keep = live[cols]
        rows, cols = rows[keep], cols[keep]


def find_lasso(live: Any, rows: Any, cols: Any) -> tuple[list[int], int]:
    """A cycle among the survivors of :func:`peel_bad_region` and a path
    to it: the state positions along both, and where the cycle starts.

    Iterative DFS with colouring, roots and children in ascending state
    order. Every bad state is a legal initial state, so any bad cycle
    is a violation witness. The same DFS over every bad state returns
    the same lasso: a peeled state reaches no cycle, so a peeled subtree
    finishes without a find and never lies on the path.
    """
    starts = np.searchsorted(rows, np.arange(len(live) + 1)).tolist()
    children = cols.tolist()
    WHITE, GREY, BLACK = 0, 1, 2
    colour = bytearray(len(live))
    for root in np.flatnonzero(live).tolist():
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        # [state, position of its next child in ``children``]
        stack = [[root, starts[root]]]
        while stack:
            state, cursor = top = stack[-1]
            if cursor == starts[state + 1]:
                colour[state] = BLACK
                stack.pop()
                continue
            child = children[cursor]
            top[1] = cursor + 1
            if colour[child] == GREY:
                path = [entry[0] for entry in stack]
                return path, path.index(child)
            if colour[child] == WHITE:
                colour[child] = GREY
                stack.append([child, starts[child]])
    raise VerificationError("peeling left survivors but found no cycle")
