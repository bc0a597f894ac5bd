"""The load-difference potential function and the bounded-steals theorem.

Section 4.3's second proof obligation: show that

    d(c1, ..., cn) = sum_i sum_j | load_i - load_j |

strictly decreases with every successful stealing attempt. Because
``d >= 0``, the number of successful steals from any initial state is
bounded by ``d / (min decrease)``; combined with the first obligation
(every failure is caused by a success — see
:mod:`repro.verify.trace_audit`) and progress (every round in a bad state
commits a steal — :meth:`repro.verify.model_checker.ModelChecker.check_progress`,
read off the same explored transition graph the model checker
analyses), this bounds the number of rounds during which a core can
remain idle while another is overloaded. That composition *is* the
paper's work-conservation proof; :mod:`repro.verify.work_conservation`
assembles it into a certificate.

For a single one-task steal between cores whose loads differ by at least
2, the pair's term shrinks by exactly 4 (the ordered-pair sum counts the
pair twice) and no cross term grows, so the minimum decrease is 4; the
checker measures the actual minimum at scope rather than assuming it.

:func:`sweep_potential` is the tuple loop: the oracle and fallback of
the fused array sweep in :func:`repro.verify.tasks.sweep_shard`, which
computes ``d`` in the same sorted-coefficient form as :func:`potential`
and replays this loop on the first state refuting the obligation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.policy import Policy
from repro.verify.enumeration import (
    LoadState,
    StateScope,
    iter_states,
    views_of,
)
from repro.verify.lemmas import simulate_steal
from repro.verify.obligations import (
    POTENTIAL_DECREASE,
    Counterexample,
    ProofResult,
    ProofStatus,
    timed_check,
)


def potential(state: Sequence[int]) -> int:
    """The paper's ``d``: sum over ordered pairs of |load_i - load_j|.

    O(n log n): after sorting, ``sum_i (2i - n + 1) * load_(i)`` equals
    the pairwise absolute-difference sum; the ordered-pair convention of
    the paper doubles it.
    """
    ordered = sorted(state)
    n = len(ordered)
    pair_sum = sum((2 * i - n + 1) * load for i, load in enumerate(ordered))
    return 2 * pair_sum


def potential_after_steal(state: Sequence[int], thief: int, victim: int,
                          moved: int) -> int:
    """``d`` after moving ``moved`` tasks from ``victim`` to ``thief``."""
    after = list(state)
    after[victim] -= moved
    after[thief] += moved
    return potential(after)


@dataclass
class PotentialSweep:
    """What one pass over every admissible steal establishes.

    Attributes:
        result: the potential-decrease obligation, with the first
            counterexample and ``states_checked`` counted up to it.
        min_decrease: smallest decrease of ``d`` over every admissible
            steal (``None`` when none is admissible; 0 or negative when
            some steal fails to decrease ``d``).
        max_potential: largest ``d`` over the swept states (``None``
            when there are none).
    """

    result: ProofResult
    min_decrease: int | None
    max_potential: int | None


def sweep_potential(policy: Policy, scope: StateScope,
                    states: Iterable[LoadState] | None = None,
                    ) -> PotentialSweep:
    """Visit every admissible steal in scope once.

    Sweeps every state, every thief, every *candidate* victim (not only
    the policy's preferred choice — the proof must survive any choice),
    simulates the clamped steal, and compares potentials. The obligation
    stops counting at its first counterexample; the extrema keep going
    to the end of the sweep. ``states`` optionally restricts the sweep
    to one shard's chunk (see :mod:`repro.verify.parallel`).
    """
    checked = 0
    counterexample: Counterexample | None = None
    minimum: int | None = None
    peak: int | None = None
    with timed_check() as timer:
        for state in (iter_states(scope) if states is None else states):
            views = views_of(state)
            d_before = potential(state)
            if peak is None or d_before > peak:
                peak = d_before
            for thief in views:
                for victim in views:
                    if victim.cid == thief.cid:
                        continue
                    if not policy.can_steal(thief, victim):
                        continue
                    _, _, moved = simulate_steal(policy, thief, victim)
                    d_after = potential_after_steal(
                        state, thief.cid, victim.cid, moved
                    )
                    if minimum is None or d_before - d_after < minimum:
                        minimum = d_before - d_after
                    if counterexample is not None:
                        continue
                    checked += 1
                    if moved == 0:
                        counterexample = Counterexample(
                            state=state,
                            detail=(
                                f"admissible steal {thief.cid}<-{victim.cid}"
                                " moves nothing; d cannot decrease"
                            ),
                            data={"thief": thief.cid, "victim": victim.cid},
                        )
                    elif d_after >= d_before:
                        counterexample = Counterexample(
                            state=state,
                            detail=(
                                f"steal {thief.cid}<-{victim.cid} (moved"
                                f" {moved}) leaves d at {d_after}"
                                f" (was {d_before})"
                            ),
                            data={
                                "thief": thief.cid,
                                "victim": victim.cid,
                                "d_before": d_before,
                                "d_after": d_after,
                            },
                        )
    status = (
        ProofStatus.REFUTED if counterexample is not None
        else ProofStatus.PROVED_AT_SCOPE
    )
    return PotentialSweep(
        result=ProofResult(
            obligation=POTENTIAL_DECREASE,
            policy_name=policy.name,
            status=status,
            scope=scope.describe(),
            states_checked=checked,
            counterexample=counterexample,
            elapsed_s=timer.elapsed,
        ),
        min_decrease=minimum,
        max_potential=peak,
    )


def check_potential_decrease(policy: Policy, scope: StateScope,
                             states: Iterable[LoadState] | None = None,
                             ) -> ProofResult:
    """Exhaustively verify that every admissible steal decreases ``d``.

    The obligation half of :func:`sweep_potential`. ``states``
    optionally restricts the sweep to one shard's chunk.
    """
    return sweep_potential(policy, scope, states).result


def min_observed_decrease(policy: Policy, scope: StateScope,
                          states: Iterable[LoadState] | None = None,
                          ) -> int | None:
    """Smallest ``d`` decrease over every admissible steal in scope.

    Returns ``None`` when no steal is admissible anywhere in scope, and
    0 or a negative value when some steal fails to decrease ``d`` (the
    potential obligation is then refuted; the bound is meaningless).
    ``states`` optionally restricts the sweep to one shard's chunk; shard
    minima merge by ``min`` (ignoring ``None``).
    """
    return sweep_potential(policy, scope, states).min_decrease


def steal_bound(state: Sequence[int], min_decrease: int) -> int:
    """Upper bound on successful steals from ``state``.

    ``d`` starts at ``potential(state)``, never goes below 0, and each
    steal removes at least ``min_decrease``.
    """
    if min_decrease <= 0:
        raise ValueError(
            f"min_decrease must be positive, got {min_decrease}"
        )
    return potential(state) // min_decrease


def round_bound(state: Sequence[int], min_decrease: int) -> int:
    """Upper bound on rounds before the bad condition clears, from ``state``.

    Progress guarantees every round spent in a bad state commits at least
    one steal, so the number of bad rounds is at most the steal bound;
    one extra round covers the transition into the good region.
    """
    return steal_bound(state, min_decrease) + 1


def max_potential(scope: StateScope,
                  states: Iterable[LoadState] | None = None) -> int | None:
    """Largest ``d`` over the scope (or one shard's chunk of it).

    Because ``//`` and ``+ 1`` are monotone, the worst round bound over a
    scope is ``max_potential // min_decrease + 1`` — so shards only need
    to report their local maximum of ``d`` and the reducer takes ``max``.
    Returns ``None`` for an empty chunk.
    """
    return max(
        (potential(state)
         for state in (iter_states(scope) if states is None else states)),
        default=None,
    )


def worst_round_bound(scope: StateScope, min_decrease: int,
                      states: Iterable[LoadState] | None = None) -> int:
    """The certificate's ``N``: the round bound maximised over the scope."""
    if min_decrease <= 0:
        raise ValueError(
            f"min_decrease must be positive, got {min_decrease}"
        )
    worst_d = max_potential(scope, states)
    if worst_d is None:
        return 0
    return worst_d // min_decrease + 1
