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

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

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

#: An explored transition graph: state -> distinct successor states.
TransitionGraph = dict["LoadState", frozenset["LoadState"]]

#: The packed form the engines explore in: packed state -> packed
#: successors. Decoded back to a :data:`TransitionGraph` before any
#: certificate, rendering, or store-key code runs.
PackedGraph = dict["PackedState", frozenset["PackedState"]]

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
        # Keyed per codec with a plain packed-state inner dict: frontier
        # states hash one machine int each instead of a tuple, and a
        # fresh run skips per-state lookups entirely (the empty inner
        # dict short-circuits).
        self._packed_successor_cache: dict[
            StateCodec,
            dict[PackedState, tuple[frozenset[PackedState], bool]],
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
        path the progress obligation enumerates every bad state and
        exploration's :meth:`successors` then reuses those entries; when
        the transition kernel serves the obligations, this method runs
        only to rebuild a refuted obligation's witness.
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

    def _expand_fresh(self, packed_states: Sequence[PackedState],
                      codec: StateCodec,
                      ) -> tuple[list[tuple[frozenset[PackedState], bool]], Any]:
        """Uncached packed successors of a chunk, in input order.

        Dispatches to the transition kernel when the policy and
        parameters admit one, else decodes and runs the tuple executor
        per state — the paths produce identical (canonicalised)
        successor sets, which the CI ``smoke-kernel`` job diffs
        end-to-end.

        Returns the per-state ``(successors, truncated)`` entries plus
        the chunk's flat successor values (each state's deduped
        successors concatenated in input order): a numpy ``int64``
        array on the kernel path, else ``None``. The flat form lets
        the closure loop build the next frontier with array merges
        instead of per-state set unions.
        """
        kernel = self._kernel_for(codec)
        group = self.symmetry
        if kernel is None:
            out: list[tuple[frozenset[PackedState], bool]] = []
            with TRACER.span("checker.expand", "checker", tier="tuple",
                             states=len(packed_states)):
                for packed in packed_states:
                    succ, truncated = self.successors(codec.decode(packed))
                    out.append((
                        frozenset(codec.encode(s) for s in succ),
                        truncated,
                    ))
            return out, None
        # Expansion, canonicalisation, and per-state dedup all stay in
        # int64 arrays; Python objects materialise only at the memo
        # boundary below (one bulk tolist).
        def dedup(values: Any, owner: Any) -> tuple[Any, Any]:
            order = np.lexsort((values, owner))
            values = values[order]
            owner = owner[order]
            keep = np.empty(len(values), dtype=bool)
            keep[0] = True
            keep[1:] = (owner[1:] != owner[:-1]) \
                | (values[1:] != values[:-1])
            return values[keep], owner[keep]

        with TRACER.span("checker.kernel", "checker", tier="numpy",
                         states=len(packed_states)) as kernel_span:
            values, counts, trunc_flags = kernel.expand_batch_arrays(
                np.asarray(packed_states, dtype=np.int64)
            )
            kernel_span.set(values=int(values.size))
        owner = np.repeat(np.arange(len(packed_states)), counts)
        # Dedup raw values first: the kernel runs one steal order per
        # commutation class, but distinct classes and victim
        # combinations still reach the same packed state, and
        # canonicalising before collapsing would pay the (comparatively
        # pricey) per-element canonicalisation for each copy.
        with TRACER.span("checker.dedup", "checker",
                         values=int(values.size)):
            values, owner = dedup(values, owner)
        if not group.is_trivial:
            with TRACER.span("checker.canonicalise", "checker",
                             tier="numpy", values=int(values.size)):
                values = group.canonicalize_batch(values, codec)
            with TRACER.span("checker.dedup", "checker",
                             values=int(values.size)):
                values, owner = dedup(values, owner)
        dedup_counts = np.bincount(owner, minlength=len(packed_states))
        flat_list = values.tolist()
        entries = []
        cursor = 0
        for count, truncated in zip(dedup_counts.tolist(),
                                    trunc_flags.tolist()):
            entries.append((
                frozenset(flat_list[cursor:cursor + count]), truncated
            ))
            cursor += count
        return entries, values

    def expand_level(self, packed_states: Sequence[PackedState],
                     codec: StateCodec,
                     ) -> tuple[PackedGraph, bool, Any]:
        """Packed successors of a frontier chunk, memoized per checker.

        The batch analogue of :meth:`successors`: every engine's
        expansion — serial levels, pool workers, remote workers — runs
        through here, so the kernel/tuple dispatch and the per-checker
        memo live in exactly one place. Returns the edge dict, whether
        any enumeration was truncated, and the level's flat successor
        values. The third result concatenates every state's (deduped)
        successors: a numpy ``int64`` array when the whole chunk ran
        the kernel, else a plain list. The closure loop
        (:func:`bfs_closure`) uses it to build the next frontier with
        one ``np.unique`` + merge instead of per-state set unions; the
        edge dict is unchanged and remains the wire/store form.
        """
        memo = self._packed_successor_cache.setdefault(codec, {})
        if memo:
            misses = [p for p in packed_states if p not in memo]
        else:
            misses = list(packed_states)
        flat: Any = None
        if misses:
            fresh, flat = self._expand_fresh(misses, codec)
            memo.update(zip(misses, fresh))
        edges: PackedGraph = {}
        truncated = False
        for packed in packed_states:
            succ, trunc = memo[packed]
            edges[packed] = succ
            truncated = truncated or trunc
        if flat is None or len(misses) != len(packed_states):
            # The tuple executor, or memo hits whose successors are not
            # in the fresh flat array: collect from the frozensets.
            flat = [s for succ in edges.values() for s in succ]
        return edges, truncated, flat

    # ------------------------------------------------------------------
    # work conservation
    # ------------------------------------------------------------------

    def explore(self, initial_states: Iterable[LoadState],
                on_expand: Callable[[int], None] | None = None,
                ) -> tuple[TransitionGraph, bool]:
        """Reachable closure of ``initial_states`` as a transition graph.

        Returns the edge map (every explored state mapped to its distinct
        canonicalised successors) and whether any enumeration was
        truncated. Exploration is the expensive half of :meth:`analyze`;
        the parallel engine calls it per shard and merges the resulting
        graphs by plain dict union, which is sound because the successor
        map of a state is a pure function of (policy, state, parameters) —
        two shards reaching the same state compute identical edges.

        The closure is :func:`bfs_closure` with one shard whose chunk
        expands through :meth:`expand_level` in this process, so the
        transition kernel vectorises whole levels and the level's flat
        successor array feeds the frontier merge directly; the finished
        graph is decoded back to tuple form at the boundary, which keeps
        every downstream consumer (graph algorithms, certificates, store
        keys, rendered output) byte-identical to the historic tuple
        engine.

        ``on_expand`` (when given) is called after each expanded level
        with the cumulative number of states explored so far — the
        progress hook behind :class:`repro.api.Session`'s serial-engine
        events. Pure observer; it cannot influence exploration.
        """
        def map_expand(codec: StateCodec, chunks: list[list[PackedState]],
                       ) -> list[tuple[PackedGraph, bool, Any]]:
            return [self.expand_level(chunk, codec) for chunk in chunks]

        return bfs_closure(
            map_expand, 1, initial_states, self.symmetry,
            on_level=None if on_expand is None
            else cumulative_levels(on_expand),
        )

    def analyze_graph(self, scope: StateScope, edges: TransitionGraph,
                      truncated: bool,
                      elapsed_s: float = 0.0) -> WorkConservationAnalysis:
        """Run the graph algorithms over an explored transition graph.

        The cheap half of :meth:`analyze`: lasso detection over the bad
        region and, absent a lasso, the exact worst-case escape depth.
        Deterministic in the graph alone (iteration is over sorted
        states), so a merged multi-shard graph yields byte-identical
        verdicts to a single-process exploration.
        """
        seen = set(edges)
        bad = {s for s in seen if is_bad_state(s)}
        lasso = find_bad_lasso(edges, bad)
        worst = None
        if lasso is None:
            worst = longest_bad_escape(edges, bad)
        return WorkConservationAnalysis(
            policy_name=self.policy.name,
            scope=scope.describe(),
            sequential=self.sequential,
            violated=lasso is not None,
            lasso=lasso,
            worst_case_rounds=worst,
            states_explored=len(seen),
            bad_states=len(bad),
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

    def _packed_sweep(self, scope: StateScope, states: list[LoadState],
                      ) -> tuple[TransitionKernel, StateCodec, Any] | None:
        """The numpy kernel, codec and canonical packed form of a sweep.

        ``None`` when the obligation must run on the tuple executor: a
        round the kernel does not model (:attr:`flat_round`), no kernel
        for the scope's codec (the same gates :meth:`explore` applies),
        or swept states the scope's codec cannot pack.
        """
        if not self.flat_round:
            return None
        codec = StateCodec.for_scope(scope)
        kernel = self._kernel_for(codec)
        if kernel is None:
            return None
        loads = np.asarray(states, dtype=np.int64)
        if states and (loads.ndim != 2 or loads.shape[1] != codec.n_cores
                       or loads.min() < 0
                       or loads.sum(axis=1).max() > codec.max_value):
            return None
        packed = self.symmetry.canonicalize_batch(
            np.asarray(codec.encode_batch(states), dtype=np.int64), codec
        )
        return kernel, codec, packed

    def _sweep_obligation(
        self, obligation: Obligation, span_name: str, scope: StateScope,
        states: Iterable[LoadState] | None, bad_states: bool,
        check_at: Callable[[LoadState], tuple[int, Counterexample | None]],
        flag_packed: Callable[[TransitionKernel, StateCodec, Any],
                              tuple[int, int | None]],
    ) -> ProofResult:
        """Check ``obligation`` at every bad (or every good) swept state.

        ``check_at`` is the tuple executor's check of one canonical
        state: ``(checked, counterexample)``, where ``checked`` is what
        the state adds to ``states_checked``. On the kernel path
        ``flag_packed`` takes the kernel, the codec and the sweep's
        canonical packed states of the right kind, in sweep order, and
        returns what the states before the first flagged one checked,
        plus that state (``None`` when none is flagged); ``check_at``
        then rebuilds its counterexample exactly as the tuple sweep
        reports it.
        """
        checked = 0
        counterexample: Counterexample | None = None
        with timed_check() as timer, TRACER.span(span_name,
                                                 "obligation") as span:
            if states is None:
                states = self.symmetry.iter_representatives(scope)
            swept = list(states)
            sweep = self._packed_sweep(scope, swept)
            span.set(tier="tuple" if sweep is None else "numpy",
                     states=len(swept))
            if sweep is None:
                for state in swept:
                    state = self._canon(state)
                    if is_bad_state(state) != bad_states:
                        continue
                    count, counterexample = check_at(state)
                    checked += count
                    if counterexample is not None:
                        break
            else:
                kernel, codec, packed = sweep
                checked, flagged = flag_packed(
                    kernel, codec,
                    packed[kernel.bad_mask(packed) == bad_states],
                )
                if flagged is not None:
                    state = codec.decode(flagged)
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
                                 states: Iterable[LoadState] | None = None,
                                 ) -> ProofResult:
        """Good states must only step to good states (§3.2 persistence).

        ``states`` optionally restricts the sweep to one shard's chunk.
        Where :meth:`explore` runs on the numpy kernel, so does this
        sweep: the good states expand through :meth:`expand_level` (whose
        memo exploration then hits) and successor badness is tested on
        packed values. The first failing state is replayed on the tuple
        executor, which rebuilds the same counterexample the tuple
        sweep reports.
        """
        return self._sweep_obligation(
            GOOD_STATE_CLOSURE, "checker.closure", scope, states,
            bad_states=False, check_at=self._closure_at,
            flag_packed=self._closure_flags,
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

    def _closure_flags(self, kernel: TransitionKernel, codec: StateCodec,
                       good: Any) -> tuple[int, int | None]:
        """The first packed good state with a bad successor."""
        if not good.size:
            return 0, None
        unique, inverse = np.unique(good, return_inverse=True)
        keys = unique.tolist()
        edges, _, flat = self.expand_level(keys, codec)
        owner = np.repeat(np.arange(len(keys)),
                          [len(edges[key]) for key in keys])
        reaches_bad = np.zeros(len(keys), dtype=bool)
        reaches_bad[owner[kernel.bad_mask(
            np.asarray(flat, dtype=np.int64)
        )]] = True
        hits = np.nonzero(reaches_bad[inverse])[0]
        if not hits.size:
            return int(good.size), None
        first = int(hits[0])
        return first, int(good[first])

    def check_progress(self, scope: StateScope,
                       states: Iterable[LoadState] | None = None,
                       ) -> ProofResult:
        """Every branch out of a bad state commits at least one steal.

        This is the "first executed steal always succeeds" argument: in
        a bad state Lemma1 gives the idle core a candidate, so the round
        has intents, and the first steal to execute re-checks against
        unmutated state and must succeed. ``states`` optionally restricts
        the sweep to one shard's chunk. Where :meth:`explore` runs on
        the numpy kernel, so does this sweep: the kernel counts each
        state's branches arithmetically, and its stall flags mark states
        with a branch that committed no steal. The first flagged state
        is replayed on the tuple executor for the counterexample and the
        index of the failing branch.
        """
        return self._sweep_obligation(
            PROGRESS, "checker.progress", scope, states,
            bad_states=True, check_at=self._progress_at,
            flag_packed=self._progress_flags,
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

    def _progress_flags(self, kernel: TransitionKernel, codec: StateCodec,
                        bad: Any) -> tuple[int, int | None]:
        """The first packed bad state with a branch that commits no
        steal, and the branches of the bad states before it."""
        if not bad.size:
            return 0, None
        unique, inverse = np.unique(bad, return_inverse=True)
        *_, stalled, branch_counts = kernel.expand_batch_arrays(
            unique, stalls=True
        )
        branches = branch_counts[inverse]
        hits = np.nonzero(stalled[inverse])[0]
        if not hits.size:
            return int(branches.sum()), None
        first = int(hits[0])
        return int(branches[:first].sum()), int(bad[first])


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
                ) -> tuple[TransitionGraph, bool]:
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
    packed ``(edges, truncated)`` pair per chunk (a pool maps them onto
    worker processes; a coordinator ships them to remote workers as one
    batched frontier-exchange round per level). A result may carry a
    third item, the chunk's flat successor values (what
    :meth:`ModelChecker.expand_level` returns); otherwise the
    successors are read from the chunk's edges. The codec is
    order-preserving, so the packed sort stripes states into exactly the
    chunks the tuple engine built. Every state is expanded exactly once
    globally, so expansion work splits ``n_shards`` ways, and each level
    costs one round trip regardless of link latency. The finished graph
    is decoded back to tuple form before returning, keeping every
    downstream consumer byte-identical to the tuple engine.

    ``on_level`` (when given) is called after each completed level with
    ``(level_index, states_expanded_this_level, next_frontier_size)`` —
    the hook :class:`repro.api.Session` turns into ``LevelCompleted``
    progress events (:func:`cumulative_levels` adapts it to a running
    count). The callback cannot influence exploration.
    """
    start = closure_start(initial_states, symmetry)
    if start is None:
        return {}, False
    codec, frontier = start
    seen = frontier
    edges: PackedGraph = {}
    truncated = False
    level = 0
    while frontier.size:
        states = frontier.tolist()
        chunks = [states[shard::n_shards] for shard in range(n_shards)]
        chunks = [chunk for chunk in chunks if chunk]
        successors: list[Any] = []
        with TRACER.span("closure.level", "closure", level=level,
                         frontier=len(states), chunks=len(chunks)):
            for shard_edges, shard_truncated, *flat in map_expand(codec,
                                                                  chunks):
                edges.update(shard_edges)
                truncated = truncated or shard_truncated
                successors.append(_packed_array(
                    codec,
                    flat[0] if flat
                    else (s for succ in shard_edges.values() for s in succ),
                ))
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
    return decode_graph(codec, edges), truncated


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


def find_bad_lasso(edges: dict[LoadState, frozenset[LoadState]],
                   bad: set[LoadState]) -> Lasso | None:
    """Find a cycle lying wholly inside ``bad``, with an access path.

    Iterative DFS with colouring over the bad-only subgraph. Every bad
    state is a legal initial state (the definition quantifies over all
    initial states), so any bad cycle is a violation witness.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[LoadState, int] = {s: WHITE for s in bad}

    for root in sorted(bad):
        if colour[root] != WHITE:
            continue
        path: list[LoadState] = []
        stack: list[tuple[LoadState, Iterator[LoadState]]] = [
            (root, iter(sorted(edges.get(root, frozenset()))))
        ]
        colour[root] = GREY
        path.append(root)
        while stack:
            state, children = stack[-1]
            advanced = False
            for child in children:
                if child not in bad:
                    continue
                if colour[child] == GREY:
                    # Found a bad cycle: path[...index(child)...] -> child
                    start = path.index(child)
                    return Lasso(
                        prefix=tuple(path[:start]),
                        cycle=tuple(path[start:]),
                    )
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


def longest_bad_escape(edges: dict[LoadState, frozenset[LoadState]],
                       bad: set[LoadState]) -> int:
    """Worst-case rounds to leave the (acyclic) bad region.

    ``escape(s)`` = 0 for good states; for bad states it is
    ``1 + max(escape(successor))`` — the adversary picks the successor.
    The maximum over all bad states is the paper's ``N``. Assumes the bad
    subgraph is acyclic (call only after lasso detection found nothing).
    """
    memo: dict[LoadState, int] = {}

    def escape(state: LoadState) -> int:
        if state not in bad:
            return 0
        if state in memo:
            return memo[state]
        memo[state] = 1 + max(
            (escape(succ) for succ in edges.get(state, frozenset())),
            default=0,
        )
        return memo[state]

    worst = 0
    # Iterative-friendly: process in reverse topological-ish order by
    # repeatedly calling escape; recursion depth is bounded by the longest
    # bad chain, which is small at verification scopes.
    for state in sorted(bad):
        worst = max(worst, escape(state))
    return worst
