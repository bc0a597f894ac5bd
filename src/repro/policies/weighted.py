"""Niceness-weighted load balancing.

Section 3.1: "CFS considers some threads more important (different
niceness), and gives them a higher share of CPU resources. In this
context, the load balancer tries to balance the number of threads weighted
by their importance." Section 4.2 reports that Lemma1 "is still
automatically verified for a load balancer that tries to balance the
number of threads weighted by their importance" — this module is that
policy.

The filter combines two conditions:

* a *weighted imbalance*: the victim's weighted load exceeds the thief's
  by at least ``margin_weight``; and
* a *structural surplus*: the victim has at least two threads.

The second conjunct is what keeps Lemma1's completeness direction true: a
core running a single very heavy thread has enormous weighted load but
nothing stealable (the running thread cannot be migrated), so a filter
based on weights alone would select victims that can never yield a task.
The default ``margin_weight`` is twice the smallest possible task weight,
which keeps the existence direction true as well: any overloaded core
(two or more threads) outweighs an idle core by at least that much,
whatever the niceness mix.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.core.policy import Policy
from repro.core.cpu import CoreView, is_overloaded
from repro.core.task import MAX_NICE, nice_to_weight

#: The smallest weight a task can have (nice 19).
MIN_TASK_WEIGHT = nice_to_weight(MAX_NICE)


class WeightedBalancePolicy(Policy):
    """Balance CFS-weighted load, stealing only structurally-safe victims.

    Attributes:
        margin_weight: minimum weighted-load gap required to steal.
            Defaults to ``2 * MIN_TASK_WEIGHT`` so an idle core can always
            steal from any overloaded core (Lemma1 existence direction).
    """

    #: Filter and steal amount read only the two views' loads.
    filter_invariance = "loads"

    def __init__(self, margin_weight: int = 2 * MIN_TASK_WEIGHT) -> None:
        if margin_weight < 1:
            raise ConfigurationError(
                f"margin_weight must be >= 1, got {margin_weight}"
            )
        self.margin_weight = margin_weight
        self.name = f"weighted_balance(margin_weight={margin_weight})"

    def load(self, core: CoreView) -> float:
        """CFS-weighted load of the core."""
        return core.weighted_load

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Weighted imbalance and a structurally overloaded victim.

        The ``is_overloaded`` conjunct guarantees the victim has a ready
        (hence stealable) task and prevents weight-only selection of
        single-heavy-thread cores.
        """
        imbalance = stealee.weighted_load - thief.weighted_load
        return imbalance >= self.margin_weight and is_overloaded(stealee)

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        """One task, as in Listing 1; weighted variants still move units."""
        return 1


class ProvableWeightedPolicy(WeightedBalancePolicy):
    """Weighted balancing strengthened to satisfy the concurrent proof.

    :class:`WeightedBalancePolicy` passes Lemma1 and is correct in the
    sequential setting of §4.2, but its filter admits steals between cores
    whose *thread counts* differ by only one; under adversarial
    concurrency such steals can ping-pong (the §4.3 pathology reappears
    one level up), so the potential-function certificate does not apply.
    This reproduction's verifier demonstrates exactly that — see the E6
    benchmark and EXPERIMENTS.md.

    This variant adds Listing 1's thread-count margin as an extra
    conjunct. Every steal then shrinks the thread-count gap by two, the
    potential function over thread counts strictly decreases, and the full
    work-conservation certificate goes through while the policy still
    prefers weight-balancing victims.

    Attributes:
        margin: thread-count margin (Listing 1's 2).
        margin_weight: inherited weighted-imbalance margin.
    """

    def __init__(self, margin: int = 2,
                 margin_weight: int = 2 * MIN_TASK_WEIGHT) -> None:
        super().__init__(margin_weight=margin_weight)
        if margin < 2:
            raise ConfigurationError(
                f"margin must be >= 2 for the concurrent proof, got {margin}"
            )
        self.margin = margin
        self.name = (
            f"provable_weighted(margin={margin},"
            f" margin_weight={margin_weight})"
        )

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Weighted imbalance *and* Listing 1's thread-count margin."""
        count_gap = stealee.nr_threads - thief.nr_threads
        return (
            count_gap >= self.margin
            and super().can_steal(thief, stealee)
        )
