"""Exhaustive small-scope checks of the paper's per-step lemmas.

These are the sequential-setting obligations of Section 4.2, checked the
way Leon checks Listing 2 — as ∀-statements over states — but by
bounded-exhaustive enumeration instead of an SMT back end. Each checker
returns a :class:`~repro.verify.obligations.ProofResult` carrying either
"proved at scope" with the number of states swept, or the first
counterexample found.

All checkers run the *actual policy code* on snapshot views built from
abstract states (:func:`repro.verify.enumeration.views_of`), so a bug in
``can_steal`` or ``steal_amount`` cannot hide behind a parallel model.

A proof's state sweeps run these loops only where no transition kernel
serves them (``REPRO_KERNEL=off``, bytes-form scopes, policies without
a kernel or with ``"scoped-loads"`` tables); elsewhere
:func:`repro.verify.tasks.sweep_shard` checks the same obligations in
one array pass over the kernel's checked tables. The loops stay the
oracle that pass is tested against, and they rebuild its
counterexamples: a refuted obligation is replayed here on its first
failing state.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Sequence

from repro.core.cpu import CoreSnapshot, is_overloaded
from repro.core.policy import Policy
from repro.verify.enumeration import (
    LoadState,
    StateScope,
    iter_states,
    snapshot_from_load,
    views_of,
)
from repro.verify.obligations import (
    CHOICE_IRRELEVANCE,
    FILTER_SOUNDNESS,
    LEMMA1,
    STEAL_SOUNDNESS,
    Counterexample,
    ProofResult,
    ProofStatus,
    timed_check,
)

#: Signature shared by all lemma checkers.
LemmaChecker = Callable[[Policy, StateScope], ProofResult]


def _result(obligation, policy: Policy, scope: StateScope, checked: int,
            counterexample: Counterexample | None,
            elapsed: float) -> ProofResult:
    status = (
        ProofStatus.REFUTED if counterexample is not None
        else ProofStatus.PROVED_AT_SCOPE
    )
    return ProofResult(
        obligation=obligation,
        policy_name=policy.name,
        status=status,
        scope=scope.describe(),
        states_checked=checked,
        counterexample=counterexample,
        elapsed_s=elapsed,
    )


def check_lemma1(policy: Policy, scope: StateScope,
                 states: Iterable[LoadState] | None = None) -> ProofResult:
    """Listing 2's Lemma1, exhaustively at scope.

    For every state and every *idle* thief:

    * existence — if some core is overloaded, the filter keeps at least
      one core (``cores.exists(isOverloaded) ==> cores.exists(canSteal)``);
    * completeness — every core the filter keeps is overloaded
      (``cores.forall(canSteal ==> isOverloaded)``).

    Args:
        policy: the policy to check.
        scope: the state universe (used for the report's scope line).
        states: optional explicit state set to sweep instead of the whole
            of ``iter_states(scope)`` — the hook the parallel engine uses
            to hand each shard its chunk.
    """
    checked = 0
    counterexample: Counterexample | None = None
    with timed_check() as timer:
        for state in (iter_states(scope) if states is None else states):
            views = views_of(state)
            for thief in views:
                if thief.nr_threads != 0:
                    continue  # Lemma1 requires the thief to be idle
                checked += 1
                others = [v for v in views if v.cid != thief.cid]
                kept = [v for v in others if policy.can_steal(thief, v)]
                overloaded_exists = any(is_overloaded(v) for v in others)
                if overloaded_exists and not kept:
                    counterexample = Counterexample(
                        state=state,
                        detail=(
                            f"idle thief {thief.cid} filters out every core"
                            " although an overloaded core exists"
                            " (existence direction)"
                        ),
                        data={"thief": thief.cid},
                    )
                    break
                not_overloaded = [v.cid for v in kept if not is_overloaded(v)]
                if not_overloaded:
                    counterexample = Counterexample(
                        state=state,
                        detail=(
                            f"idle thief {thief.cid} may steal from"
                            f" non-overloaded core(s) {not_overloaded}"
                            " (completeness direction)"
                        ),
                        data={"thief": thief.cid, "victims": not_overloaded},
                    )
                    break
            if counterexample is not None:
                break
    return _result(LEMMA1, policy, scope, checked, counterexample, timer.elapsed)


def check_filter_soundness(policy: Policy, scope: StateScope,
                           states: Iterable[LoadState] | None = None,
                           ) -> ProofResult:
    """Filtered victims must always hold a stealable (ready) task.

    Stronger than Lemma1's completeness: quantifies over *all* thieves,
    not only idle ones, because non-idle cores also run balancing
    operations in the model (Section 3.1). ``states`` optionally restricts
    the sweep to one shard's chunk (see :mod:`repro.verify.parallel`).
    """
    checked = 0
    counterexample: Counterexample | None = None
    with timed_check() as timer:
        for state in (iter_states(scope) if states is None else states):
            views = views_of(state)
            for thief in views:
                for victim in views:
                    if victim.cid == thief.cid:
                        continue
                    checked += 1
                    if not policy.can_steal(thief, victim):
                        continue
                    if victim.nr_ready < 1:
                        counterexample = Counterexample(
                            state=state,
                            detail=(
                                f"thief {thief.cid} may steal from core"
                                f" {victim.cid} which has no ready task"
                            ),
                            data={"thief": thief.cid, "victim": victim.cid},
                        )
                        break
                if counterexample is not None:
                    break
            if counterexample is not None:
                break
    return _result(
        FILTER_SOUNDNESS, policy, scope, checked, counterexample, timer.elapsed
    )


def simulate_steal(policy: Policy, thief: CoreSnapshot,
                   victim: CoreSnapshot) -> tuple[int, int, int]:
    """Apply step 3 abstractly: returns (new_thief, new_victim, moved).

    Mirrors the balancer's clamping: the requested amount is bounded by
    the victim's ready count (the running task is never stolen).
    """
    requested = policy.steal_amount(thief, victim)
    moved = max(0, min(requested, victim.nr_ready))
    return (
        thief.nr_threads + moved,
        victim.nr_threads - moved,
        moved,
    )


def _steal_violation(policy: Policy, state: tuple[int, ...],
                     thief: CoreSnapshot,
                     victim: CoreSnapshot) -> Counterexample | None:
    """Check one (thief, victim) steal against the soundness conditions."""
    new_thief, new_victim, moved = simulate_steal(policy, thief, victim)
    if moved < 1:
        return Counterexample(
            state=state,
            detail=(
                f"steal {thief.cid}<-{victim.cid} moves no task although"
                " the filter admitted the pair"
            ),
            data={"thief": thief.cid, "victim": victim.cid},
        )
    if new_victim == 0:
        return Counterexample(
            state=state,
            detail=(
                f"steal {thief.cid}<-{victim.cid} leaves the victim idle"
                " (the paper: 'the overloaded core should not end up"
                " idle')"
            ),
            data={"thief": thief.cid, "victim": victim.cid},
        )
    old_gap = abs(victim.nr_threads - thief.nr_threads)
    new_gap = abs(new_victim - new_thief)
    if new_gap >= old_gap:
        return Counterexample(
            state=state,
            detail=(
                f"steal {thief.cid}<-{victim.cid} does not shrink the"
                f" pairwise load gap ({old_gap} -> {new_gap})"
            ),
            data={
                "thief": thief.cid,
                "victim": victim.cid,
                "old_gap": old_gap,
                "new_gap": new_gap,
            },
        )
    if new_thief > new_victim:
        return Counterexample(
            state=state,
            detail=(
                f"steal {thief.cid}<-{victim.cid} overshoots: thief ends"
                f" above victim ({new_thief} > {new_victim})"
            ),
            data={"thief": thief.cid, "victim": victim.cid},
        )
    return None


def check_steal_soundness(policy: Policy, scope: StateScope,
                          states: Iterable[LoadState] | None = None,
                          ) -> ProofResult:
    """§4.2's stealCore soundness, for every filtered pair in scope.

    The steal must move work, must not idle the victim, must strictly
    shrink the pairwise gap, and must not overshoot — the last two are
    exactly what the potential-function proof of §4.3 consumes.
    ``states`` optionally restricts the sweep to one shard's chunk.
    """
    checked = 0
    counterexample: Counterexample | None = None
    with timed_check() as timer:
        for state in (iter_states(scope) if states is None else states):
            views = views_of(state)
            for thief in views:
                for victim in views:
                    if victim.cid == thief.cid:
                        continue
                    if not policy.can_steal(thief, victim):
                        continue
                    checked += 1
                    counterexample = _steal_violation(
                        policy, state, thief, victim
                    )
                    if counterexample is not None:
                        break
                if counterexample is not None:
                    break
            if counterexample is not None:
                break
    return _result(
        STEAL_SOUNDNESS, policy, scope, checked, counterexample, timer.elapsed
    )


def check_choice_irrelevance(policy: Policy, scope: StateScope,
                             states: Iterable[LoadState] | None = None,
                             ) -> ProofResult:
    """Section 3.1's claim: the choice step cannot break the proofs.

    For every state, thief and *every* candidate the filter keeps — not
    just the one the policy's ``choose`` would pick — the steal soundness
    conditions hold. Together with the balancer's runtime enforcement
    that ``choose`` returns a candidate (Listing 1's ``ensuring``), this
    makes arbitrary NUMA/cache heuristics in step 2 proof-free.
    ``states`` optionally restricts the sweep to one shard's chunk.

    :func:`check_steal_soundness` already sweeps every filtered
    candidate and never consults ``choose``, so this is its result
    relabelled (:func:`as_choice_irrelevance`).
    """
    return as_choice_irrelevance(check_steal_soundness(policy, scope, states))


def as_choice_irrelevance(steal: ProofResult) -> ProofResult:
    """The choice-irrelevance result a steal-soundness result implies.

    Same pairs, same order, same conditions and count; a counterexample's
    detail is prefixed ``"choice-irrelevance broken: "``.
    """
    counterexample = steal.counterexample
    if counterexample is not None:
        counterexample = Counterexample(
            state=counterexample.state,
            detail="choice-irrelevance broken: " + counterexample.detail,
            data=counterexample.data,
        )
    return replace(steal, obligation=CHOICE_IRRELEVANCE,
                   counterexample=counterexample)


def check_lemma1_weighted_states(policy: Policy, scope: StateScope,
                                 nice_levels: Sequence[int] = (-5, 0, 5),
                                 ) -> ProofResult:
    """Lemma1 swept over states with heterogeneous task weights.

    The plain :func:`check_lemma1` models every task at nice 0; this
    variant re-checks the lemma when cores carry the *same thread counts*
    but different niceness mixes, by scaling each core's weighted load to
    the extreme allowed by ``nice_levels``. It exists to catch weighted
    filters whose behaviour differs between uniform and skewed weights
    (the single-heavy-thread trap described in
    :mod:`repro.policies.weighted`).
    """
    from repro.core.task import nice_to_weight

    weights = sorted(nice_to_weight(n) for n in nice_levels)
    checked = 0
    counterexample: Counterexample | None = None
    with timed_check() as timer:
        for state in iter_states(scope):
            for weight in (weights[0], weights[-1]):
                views = [
                    CoreSnapshot(
                        cid=cid,
                        nr_ready=max(0, load - 1),
                        has_current=load > 0,
                        weighted_load=load * weight,
                        node=0,
                        version=0,
                    )
                    for cid, load in enumerate(state)
                ]
                for thief in views:
                    if thief.nr_threads != 0:
                        continue
                    checked += 1
                    others = [v for v in views if v.cid != thief.cid]
                    kept = [v for v in others if policy.can_steal(thief, v)]
                    if any(is_overloaded(v) for v in others) and not kept:
                        counterexample = Counterexample(
                            state=state,
                            detail=(
                                "weighted Lemma1 existence fails at task"
                                f" weight {weight} for idle thief"
                                f" {thief.cid}"
                            ),
                            data={"weight": weight, "thief": thief.cid},
                        )
                        break
                    bad = [v.cid for v in kept if not is_overloaded(v)]
                    if bad:
                        counterexample = Counterexample(
                            state=state,
                            detail=(
                                "weighted Lemma1 completeness fails at"
                                f" task weight {weight}: non-overloaded"
                                f" victims {bad}"
                            ),
                            data={"weight": weight, "victims": bad},
                        )
                        break
                if counterexample is not None:
                    break
            if counterexample is not None:
                break
    return _result(LEMMA1, policy, scope, checked, counterexample, timer.elapsed)


def single_heavy_thread_views(n_cores: int,
                              heavy_weight: int) -> list[CoreSnapshot]:
    """Adversarial weighted state: one idle core, one single-heavy core.

    Core 0 is idle; core 1 runs a single task of ``heavy_weight``; the
    remaining cores run one nice-0 task each. A weight-only filter sees a
    huge imbalance toward core 1 but core 1 has nothing stealable — the
    state that motivates the structural conjunct in
    :class:`repro.policies.weighted.WeightedBalancePolicy`.
    """
    from repro.core.task import NICE_0_WEIGHT

    views = [snapshot_from_load(0, 0)]
    views.append(
        CoreSnapshot(
            cid=1, nr_ready=0, has_current=True,
            weighted_load=heavy_weight, node=0, version=0,
        )
    )
    for cid in range(2, n_cores):
        views.append(
            CoreSnapshot(
                cid=cid, nr_ready=0, has_current=True,
                weighted_load=NICE_0_WEIGHT, node=0, version=0,
            )
        )
    return views
