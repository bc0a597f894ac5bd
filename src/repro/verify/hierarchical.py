"""Verification of the hierarchical balancer (the §5 extension).

Two analyses live here:

* :class:`HierarchicalModelChecker` — the **full adversarial** analysis.
  One hierarchical round is modelled as a branching transition exactly
  like the flat §4.3 round: the inter-group phase quantifies over every
  victim-group choice and every execution order of the racing group
  steals (each steal re-checked against live state, one task moved from
  the victim group's most loaded donor to the thief group's least loaded
  agent), and the intra-group phase is the ordinary flat adversarial
  round under a policy whose filter is scoped to each thief's own group.
  The checker then reuses the flat engine's closure exploration, lasso
  detection, and exact worst-case ``N`` — under the domain tree's
  :class:`~repro.verify.symmetry.SymmetryGroup`, so hierarchical
  policies get the same quotient reduction flat ones do.
* :func:`analyze_hierarchical` — the older **deterministic-round**
  sweep, kept as a fast path: it iterates the concrete
  :class:`~repro.policies.hierarchical.HierarchicalBalancer` round map
  (one fixed resolution of the nondeterminism) from every scope state.
  A clean adversarial verdict implies a clean deterministic one, never
  the other way around; use the adversarial checker for claims.

The obligations decompose per level exactly as the paper predicts:
the *inter-group* filter is Listing 1's filter over group totals
(checked by the ordinary lemma checkers via
:class:`~repro.policies.hierarchical.GroupView`), and the *intra-group*
policy is the scoped flat policy (covered by the flat pipeline). What
this module adds is the composed liveness: the two levels together
really do clear the global wasted-core condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.cpu import CoreSnapshot, CoreView
from repro.core.errors import VerificationError
from repro.core.machine import Machine
from repro.core.policy import Policy
from repro.core.task import NICE_0_WEIGHT
from repro.policies.balance_count import BalanceCountPolicy
from repro.policies.hierarchical import GroupView, HierarchicalBalancer
from repro.topology.domains import (
    SchedDomain,
    build_domain_tree,
    flat_groups,
)
from repro.topology.numa import NumaTopology, symmetric_numa
from repro.verify.encoding import PackedState, StateCodec
from repro.verify.enumeration import (
    LoadState,
    StateScope,
    is_bad_state,
    iter_states,
)
from repro.verify.model_checker import ModelChecker
from repro.verify.obligations import (
    WORK_CONSERVATION,
    Counterexample,
    ProofResult,
    ProofStatus,
    timed_check,
)
from repro.verify.symmetry import (
    BlockSymmetryGroup,
    SymmetryGroup,
    TrivialGroup,
    symmetry_from_domains,
)
from repro.verify.transition import (
    DEFAULT_MAX_ORDERS,
    AbstractAttempt,
    BranchEnumeration,
    RoundBranch,
    enumerate_round_branches,
)


@dataclass
class HierarchicalAnalysis:
    """Liveness analysis of the deterministic hierarchical round map.

    Attributes:
        scope: the state universe swept.
        groups: the leaf-group layout analysed.
        violated: whether some state never clears the bad condition.
        cycle_witness: a state on a bad cycle, when violated.
        worst_case_rounds: scope-wide worst N, when not violated.
        states_checked: initial states swept.
    """

    scope: str
    groups: tuple[tuple[int, ...], ...]
    violated: bool
    cycle_witness: LoadState | None
    worst_case_rounds: int | None
    states_checked: int
    elapsed_s: float = 0.0

    def to_proof_result(self, policy_name: str) -> ProofResult:
        """Summarise as a ProofResult for report composition."""
        counterexample = None
        if self.violated:
            counterexample = Counterexample(
                state=self.cycle_witness or (),
                detail="hierarchical rounds cycle without clearing the"
                       " wasted-core condition",
            )
        return ProofResult(
            obligation=WORK_CONSERVATION,
            policy_name=f"hierarchical({policy_name})",
            status=(ProofStatus.REFUTED if self.violated
                    else ProofStatus.PROVED_AT_SCOPE),
            scope=self.scope,
            states_checked=self.states_checked,
            counterexample=counterexample,
            elapsed_s=self.elapsed_s,
        )


def _round_map(loads: LoadState, domains: SchedDomain,
               balancer_factory) -> LoadState:
    """Apply one hierarchical round to an abstract state."""
    machine = Machine.from_loads(list(loads))
    balancer = balancer_factory(machine, domains)
    balancer.run_round()
    return tuple(machine.loads())


def analyze_hierarchical(scope: StateScope,
                         group_size: int,
                         balancer_factory=None,
                         max_rounds: int = 200) -> HierarchicalAnalysis:
    """Sweep the scope through the hierarchical round map.

    Args:
        scope: abstract states to start from; ``scope.n_cores`` must be
            divisible into groups of ``group_size``.
        group_size: cores per leaf group (one NUMA node per group here —
            the grouping, not the distances, is what the balancer sees).
        balancer_factory: ``(machine, domains) -> balancer``; defaults to
            :class:`~repro.policies.hierarchical.HierarchicalBalancer`
            with its default policies.
        max_rounds: iteration cutoff per state (cycle detection makes
            this a backstop, not the verdict).

    Returns:
        The :class:`HierarchicalAnalysis`.
    """
    if scope.n_cores % group_size != 0:
        raise ValueError(
            f"group_size {group_size} does not divide {scope.n_cores}"
        )
    n_groups = scope.n_cores // group_size
    topology = symmetric_numa(n_groups, group_size)
    domains = build_domain_tree(topology)
    factory = balancer_factory or (
        lambda machine, doms: HierarchicalBalancer(
            machine, doms, keep_history=False
        )
    )

    groups = tuple(topology.cores_of(node) for node in range(n_groups))
    worst = 0
    checked = 0
    violated = False
    witness: LoadState | None = None

    with timed_check() as timer:
        # Memoised per-state verdicts: rounds-to-good, or -1 for cycling.
        verdict: dict[LoadState, int] = {}
        for initial in iter_states(scope):
            checked += 1
            path: list[LoadState] = []
            seen_at: dict[LoadState, int] = {}
            state = initial
            result: int | None = None
            for step in range(max_rounds + 1):
                if not is_bad_state(state):
                    result = step
                    break
                if state in verdict:
                    cached = verdict[state]
                    result = -1 if cached < 0 else step + cached
                    break
                if state in seen_at:
                    result = -1  # cycle of bad states
                    break
                seen_at[state] = step
                path.append(state)
                state = _round_map(state, domains, factory)
            if result is None:
                result = -1  # exceeded max_rounds: treat as divergence
            for position, visited in enumerate(path):
                verdict[visited] = (
                    -1 if result < 0 else result - position
                )
            if result < 0:
                violated = True
                witness = initial
                break
            worst = max(worst, result)

    return HierarchicalAnalysis(
        scope=scope.describe() + f", groups of {group_size}",
        groups=groups,
        violated=violated,
        cycle_witness=witness,
        worst_case_rounds=None if violated else worst,
        states_checked=checked,
        elapsed_s=timer.elapsed,
    )


# ---------------------------------------------------------------------------
# full adversarial hierarchical checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchySpec:
    """A picklable description of one hierarchical balancer to check.

    Carries primitives only (topology + margins), so the same spec can
    rebuild an identical checker in a pool worker or on a remote
    machine — the distributed engines key their per-worker checker
    caches on its pickle.

    Attributes:
        topology: the machine layout; NUMA nodes are the (default)
            balancing groups.
        group_size: optional intra-node split, forwarded to
            :func:`~repro.topology.domains.build_domain_tree`.
        group_margin: Listing 1 margin of the inter-group filter.
        intra_margin: Listing 1 margin of the intra-group filter.
    """

    topology: NumaTopology
    group_size: int | None = None
    group_margin: int = 2
    intra_margin: int = 2

    def domains(self) -> SchedDomain:
        """The scheduling-domain tree this spec balances over."""
        return build_domain_tree(self.topology, self.group_size)

    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Leaf-group core sets, the units of the inter-group phase."""
        return tuple(flat_groups(self.domains()))

    def symmetry_group(self) -> BlockSymmetryGroup:
        """The domain tree's automorphism group (sound for this checker:
        the balancer consults grouping only, never distances)."""
        return symmetry_from_domains(self.domains())

    def describe(self) -> str:
        """Human-readable spec for reports."""
        split = f", groups of {self.group_size}" if self.group_size else ""
        return (
            f"{self.topology.name}{split} (margins"
            f" {self.group_margin}/{self.intra_margin})"
        )


class IntraGroupPolicy(Policy):
    """A flat policy whose filter is scoped to each thief's own group.

    Running one flat round under this policy models *all* intra-group
    rounds happening in one phase: groups are disjoint and a thief can
    only select victims inside its own group, so interleavings across
    groups cannot interact — the successor states equal those of
    running each group's round separately.

    Attributes:
        base: the intra-group policy being scoped.
        core_to_group: per-core group index.
    """

    #: The filter is the base's loads-only filter behind a static
    #: same-group pair admission — exactly the contract the packed
    #: kernel's pair mask captures (see :mod:`repro.verify.kernel`).
    filter_invariance = "scoped-loads"

    def __init__(self, base: Policy,
                 core_to_group: Sequence[int]) -> None:
        self.base = base
        self.core_to_group = tuple(core_to_group)
        self.name = f"intra({base.name})"
        # choose() delegates to the base, so the symmetry-soundness
        # guard must see the base's invariance class, not the default.
        self.choice_invariance = getattr(base, "choice_invariance",
                                         "renaming")

    def load(self, core: CoreView) -> float:
        return self.base.load(core)

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Base filter, restricted to the thief's own group."""
        return (
            self.core_to_group[thief.cid] == self.core_to_group[stealee.cid]
            and self.base.can_steal(thief, stealee)
        )

    def choose(self, thief: CoreView,
               candidates: Sequence[CoreSnapshot]) -> CoreSnapshot:
        return self.base.choose(thief, candidates)

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        return self.base.steal_amount(thief, stealee)


def _abstract_group_view(gid: int, cores: Sequence[int],
                         loads: Sequence[int], node: int) -> GroupView:
    """The :class:`GroupView` of an abstract state's group.

    Mirrors the dispatch-eager convention: a core with load ``k > 0``
    runs one task and queues ``k - 1``.
    """
    running = total = 0
    for cid in cores:
        load = loads[cid]
        total += load
        running += load > 0
    return GroupView(
        cid=gid,
        cores=tuple(cores),
        nr_ready=total - running,
        running=running,
        weighted_load=total * NICE_0_WEIGHT,
        node=node,
    )


def _execute_inter_phase(
    group_policy: Policy,
    groups: Sequence[tuple[int, ...]],
    group_nodes: Sequence[int],
    loads: Sequence[int],
    assignment: dict[int, int],
    order: Sequence[int],
) -> tuple[LoadState, tuple[AbstractAttempt, ...], tuple[int, ...]]:
    """Run the inter-group steals of one branch, in ``order``.

    Mirrors :meth:`~repro.policies.hierarchical.HierarchicalBalancer.
    _execute_group_steal`: the group filter is re-checked against live
    group totals, the donor is the victim group's most loaded core with
    a ready task, the agent is the thief group's least loaded core, and
    exactly one task moves per successful steal.
    """
    live = list(loads)
    attempts: list[AbstractAttempt] = []
    agent_order: list[int] = []
    for thief_gid in order:
        victim_gid = assignment[thief_gid]
        thief_cores = groups[thief_gid]
        victim_cores = groups[victim_gid]
        agent = min(thief_cores, key=lambda cid: (live[cid], cid))
        agent_order.append(agent)
        donors = [cid for cid in victim_cores if live[cid] >= 2]
        donor = (
            max(donors, key=lambda cid: (live[cid], -cid)) if donors
            else max(victim_cores, key=lambda cid: (live[cid], -cid))
        )
        if not donors or not group_policy.can_steal(
            _abstract_group_view(thief_gid, thief_cores, live,
                                 group_nodes[thief_gid]),
            _abstract_group_view(victim_gid, victim_cores, live,
                                 group_nodes[victim_gid]),
        ):
            attempts.append(AbstractAttempt(agent, donor, False, 0))
            continue
        live[donor] -= 1
        live[agent] += 1
        attempts.append(AbstractAttempt(agent, donor, True, 1))
    return tuple(live), tuple(attempts), tuple(agent_order)


def _inter_outcomes(
    group_policy: Policy,
    groups: Sequence[tuple[int, ...]],
    group_nodes: Sequence[int],
    state: Sequence[int],
    choice_mode: str = "all",
    max_orders: int = DEFAULT_MAX_ORDERS,
) -> tuple[list[tuple[LoadState, tuple[AbstractAttempt, ...],
                      tuple[int, ...]]], bool]:
    """Phase-1 outcomes of one hierarchical round.

    Branches over the inter-group selection (every filtered victim
    group in ``choice_mode='all'``, the policy's own choice otherwise)
    and over every execution order of the racing group steals, capped
    at ``max_orders`` permutations per victim assignment. The one
    implementation of the phase: the tuple enumeration
    (:func:`enumerate_hierarchical_round`) and the packed path of
    :class:`HierarchicalModelChecker` both call it.
    """
    views = [
        _abstract_group_view(gid, cores, state, group_nodes[gid])
        for gid, cores in enumerate(groups)
    ]
    intents: list[tuple[int, tuple[int, ...]]] = []
    for thief_view in views:
        candidates = [
            v for v in views
            if v.cid != thief_view.cid
            and group_policy.can_steal(thief_view, v)
        ]
        if not candidates:
            continue
        if choice_mode == "all":
            victims = tuple(v.cid for v in candidates)
        else:
            victims = (group_policy.choose(thief_view, candidates).cid,)
        intents.append((thief_view.cid, victims))

    truncated = False
    inter: list[tuple[LoadState, tuple[AbstractAttempt, ...],
                      tuple[int, ...]]] = []
    if not intents:
        inter.append((tuple(state), (), ()))
    else:
        thieves = [thief for thief, _ in intents]
        victim_sets = [victims for _, victims in intents]
        for victim_combo in itertools.product(*victim_sets):
            assignment = dict(zip(thieves, victim_combo))
            for i, order in enumerate(itertools.permutations(thieves)):
                if i >= max_orders:
                    truncated = True
                    break
                inter.append(_execute_inter_phase(
                    group_policy, groups, group_nodes, state,
                    assignment, order,
                ))
    return inter, truncated


def enumerate_hierarchical_round(
    group_policy: Policy,
    intra_policy: IntraGroupPolicy,
    groups: Sequence[tuple[int, ...]],
    group_nodes: Sequence[int],
    state: Sequence[int],
    choice_mode: str = "all",
    max_orders: int = DEFAULT_MAX_ORDERS,
    nodes: Sequence[int] | None = None,
) -> BranchEnumeration:
    """Every resolution of one hierarchical round's nondeterminism.

    Phase 1 branches over the inter-group selection and steal orders
    (:func:`_inter_outcomes`); phase 2 runs the flat adversarial round
    under the scoped ``intra_policy`` from each phase-1 end state. A
    full branch is the concatenation of both phases' attempts.
    """
    inter, truncated = _inter_outcomes(
        group_policy, groups, group_nodes, state,
        choice_mode=choice_mode, max_orders=max_orders,
    )

    branches: list[RoundBranch] = []
    # Commuting/failed inter steals often reach identical mid states;
    # the intra enumeration depends only on the mid state, so memoize
    # it per round instead of re-running the exponential enumeration.
    intra_memo: dict[LoadState, BranchEnumeration] = {}
    for mid_state, inter_attempts, inter_order in inter:
        intra = intra_memo.get(mid_state)
        if intra is None:
            intra = enumerate_round_branches(
                intra_policy, mid_state, choice_mode=choice_mode,
                max_orders=max_orders, nodes=nodes,
            )
            intra_memo[mid_state] = intra
        truncated = truncated or intra.truncated
        for branch in intra.branches:
            branches.append(RoundBranch(
                state=branch.state,
                attempts=inter_attempts + branch.attempts,
                order=inter_order + branch.order,
            ))
    return BranchEnumeration(branches=branches, truncated=truncated)


class HierarchicalModelChecker(ModelChecker):
    """Adversarial model checking of the two-level hierarchical round.

    Subclasses :class:`~repro.verify.model_checker.ModelChecker` and
    replaces only the round model: the round-enumeration hook
    (:func:`enumerate_hierarchical_round`) and, on the kernel path, the
    packed expansion, which composes the shared inter-group phase
    (:func:`_inter_outcomes`) with the flat kernel path for the
    intra-group phase. Closure exploration, lasso search, exact
    worst-case ``N``, the branch memo and the progress/closure
    obligations are inherited unchanged — hierarchical policies get the
    very same adversarial work-conservation checking flat policies do,
    under the domain tree's symmetry group.

    Attributes:
        spec: the :class:`HierarchySpec` under analysis.
        group_policy: the inter-group filter policy.
        groups: leaf-group core sets.
    """

    # The round's inter-group phase is not in the flat kernel's model:
    # the progress and closure obligations stay on the tuple executor.
    flat_round = False

    def __init__(self, spec: HierarchySpec, choice_mode: str = "all",
                 max_orders: int = DEFAULT_MAX_ORDERS, *,
                 symmetry: SymmetryGroup = TrivialGroup()) -> None:
        self.spec = spec
        self.group_policy: Policy = BalanceCountPolicy(
            margin=spec.group_margin
        )
        intra_base = BalanceCountPolicy(margin=spec.intra_margin)
        self.groups = spec.groups()
        core_to_group = [0] * spec.topology.n_cores
        for gid, cores in enumerate(self.groups):
            for cid in cores:
                core_to_group[cid] = gid
        scoped = IntraGroupPolicy(intra_base, core_to_group)
        super().__init__(
            scoped, choice_mode=choice_mode, max_orders=max_orders,
            symmetry=symmetry, topology=spec.topology,
        )
        self._check_group_preservation(core_to_group)
        self.policy.name = (
            f"hierarchical({intra_base.name}, {spec.describe()})"
        )
        self._group_nodes = tuple(
            spec.topology.node_of(cores[0]) for cores in self.groups
        )
        # Cross-round memo for the packed fast path: mid-state ->
        # (canonical packed intra successors, truncated). Commuting or
        # failed inter steals reach the same mid states from *different*
        # round-start states, so unlike the per-round memo inside
        # enumerate_hierarchical_round this one pays off across the
        # whole exploration.
        self._intra_packed_memo: dict[
            StateCodec, dict[LoadState, tuple[frozenset[PackedState], bool]]
        ] = {}

    def _expand_fresh(self, packed_states: Sequence[PackedState],
                      codec: StateCodec,
                      ) -> tuple[list[tuple[frozenset[PackedState], bool]], Any]:
        """Packed hierarchical expansion: shared inter, kernel intra.

        The inter-group phase runs :func:`_inter_outcomes`, the helper
        the tuple enumeration uses. The intra-group phase — the flat
        round under the scoped policy — runs the chunk's distinct,
        not-yet-memoised mid states through the flat kernel path
        (:meth:`ModelChecker._expand_fresh`) in one batch. A round's
        successors are the union of its mid states' intra successors,
        which is exactly the tuple path's successor set. The flat result
        is ``None``: the closure loop collects successors from the
        frozensets.
        """
        if self._kernel_for(codec) is None:
            return super()._expand_fresh(packed_states, codec)
        memo = self._intra_packed_memo.setdefault(codec, {})
        rounds: list[tuple[set[LoadState], bool]] = []
        missing: set[LoadState] = set()
        for loads in codec.decode_batch(packed_states):
            inter, truncated = _inter_outcomes(
                self.group_policy, self.groups, self._group_nodes, loads,
                choice_mode=self.choice_mode, max_orders=self.max_orders,
            )
            mids = {mid for mid, _, _ in inter}
            rounds.append((mids, truncated))
            missing |= mids - memo.keys()
        if missing:
            batch = list(missing)
            fresh, _ = super()._expand_fresh(codec.encode_batch(batch), codec)
            memo.update(zip(batch, fresh))
        out: list[tuple[frozenset[PackedState], bool]] = []
        for mids, truncated in rounds:
            entries = [memo[mid] for mid in mids]
            successors = (entries[0][0] if len(entries) == 1
                          else frozenset().union(*(s for s, _ in entries)))
            out.append((successors,
                        truncated or any(t for _, t in entries)))
        return out, None

    def _check_group_preservation(self, core_to_group: Sequence[int]) -> None:
        """Refuse symmetry groups that break the balancing-group partition.

        The hierarchical round observes which balancing group a core
        belongs to (the scoped intra filter, the inter-group phase), so
        a sound quotient may only swap cores *within* one balancing
        group, or swap *entire* balancing groups — the flat ``S_n``
        group (:class:`~repro.verify.symmetry.FlatSymmetryGroup`) merges
        states across
        groups and silently changes verdicts.

        Raises:
            VerificationError: the group's blocks or classes move cores
                between balancing groups.
        """
        if self.symmetry.is_trivial:
            return
        if not isinstance(self.symmetry, BlockSymmetryGroup):
            raise VerificationError(
                f"symmetry group {self.symmetry.name!r} does not"
                " preserve the balancing-group partition; use the"
                " hierarchy's own symmetry_group()"
            )
        whole_groups = {tuple(cores) for cores in self.groups}
        for block in self.symmetry.blocks:
            if len({core_to_group[cid] for cid in block}) != 1:
                raise VerificationError(
                    f"symmetry block {block} of {self.symmetry.name!r}"
                    " spans balancing groups; quotient would be unsound"
                )
        for cls in self.symmetry.classes:
            if len(cls) > 1 and any(
                tuple(self.symmetry.blocks[b]) not in whole_groups
                for b in cls
            ):
                raise VerificationError(
                    f"symmetry class {cls} of {self.symmetry.name!r}"
                    " swaps partial balancing groups; quotient would be"
                    " unsound"
                )

    def _enumerate_round(self, state: LoadState) -> BranchEnumeration:
        """Every resolution of one hierarchical round from ``state``."""
        return enumerate_hierarchical_round(
            self.group_policy, self.policy, self.groups,
            self._group_nodes, state,
            choice_mode=self.choice_mode,
            max_orders=self.max_orders,
            nodes=self._nodes,
        )


def build_checker(policy: Policy | None, choice_mode: str = "all",
                  max_orders: int = DEFAULT_MAX_ORDERS,
                  symmetry: SymmetryGroup = TrivialGroup(),
                  topology: NumaTopology | None = None,
                  hierarchy: HierarchySpec | None = None) -> ModelChecker:
    """The one checker factory every engine builds through.

    The serial path, the pool workers, and the remote workers all
    construct their checker here from the same picklable parameters, so
    a proof's transition semantics cannot drift between engines: a
    :class:`HierarchySpec` selects the hierarchical checker (``policy``
    is then ignored), anything else the flat one.
    """
    if hierarchy is not None:
        return HierarchicalModelChecker(
            hierarchy, choice_mode=choice_mode, max_orders=max_orders,
            symmetry=symmetry,
        )
    if policy is None:
        raise VerificationError(
            "a policy is required unless a hierarchy spec is given"
        )
    return ModelChecker(
        policy, choice_mode=choice_mode, max_orders=max_orders,
        symmetry=symmetry, topology=topology,
    )
