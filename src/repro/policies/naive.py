"""Deliberately broken filters: the paper's counterexamples.

Section 4.3 shows that replacing Listing 1's filter with

    def canSteal(stealee) = { stealee.load() >= 2 }

"makes our algorithm incorrect in the presence of failures": on a
three-core machine ``[idle, 1 thread, 2 threads]``, the two non-idle cores
can bounce a thread back and forth forever while the idle core's steals
always fail. These policies exist so the verification layer has real bugs
to find — the model checker must rediscover the ping-pong lasso
automatically (experiment E5), and Lemma1 must flag the filters that are
statically unsound (experiment E3).
"""

from __future__ import annotations

from repro.core.policy import Policy
from repro.core.cpu import CoreView


class NaiveOverloadedPolicy(Policy):
    """§4.3's broken filter: steal from anyone with two or more threads.

    The filter ignores the thief's own load, so a core with one thread
    will happily steal from a core with two, swapping their roles and
    recreating the imbalance elsewhere. Lemma1 *holds* for this filter
    when the thief is idle — the bug is invisible to the sequential
    analysis and only the concurrent model check exposes it, which is
    precisely the paper's point.
    """

    name = "naive_overloaded"
    #: Filter and steal amount read only the two views' loads.
    filter_invariance = "loads"

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """``stealee.load() >= 2`` — no comparison with the thief."""
        return stealee.nr_threads >= 2

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        return 1


class GreedyReadyPolicy(Policy):
    """Steal from any core with a ready task, however small the imbalance.

    A "work stealing without a filter" strawman: the filter only checks
    that the victim has something stealable. Equal-load cores steal from
    each other, the potential function does not decrease, and adversarial
    orderings starve idle cores. Used by the random-steal baseline and the
    margin ablation.
    """

    name = "greedy_ready"
    #: Filter and steal amount read only the two views' loads.
    filter_invariance = "loads"

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Victim merely needs a ready (stealable) task."""
        return stealee.nr_ready >= 1

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        return 1


class InvertedFilterPolicy(Policy):
    """A mutation that steals from *less* loaded cores.

    Exists for mutation-testing the lemma checker: Lemma1's completeness
    direction ("thief only selects overloaded cores") must refute this
    filter immediately.
    """

    name = "inverted_filter"
    #: Filter and steal amount read only the two views' loads.
    filter_invariance = "loads"

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Backwards on purpose: victim has *fewer* threads than thief."""
        return thief.nr_threads - stealee.nr_threads >= 2

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        return 1


class OverStealingPolicy(Policy):
    """A mutation that drains the victim's entire runqueue.

    Filter is Listing 1's (sound); the bug is in step 3: stealing
    everything can leave the victim with only its running task — or, for
    an undispatched victim, completely idle — and can overshoot the thief
    past the victim, breaking the potential-decrease certificate. The
    steal-soundness obligation must refute this policy.
    """

    name = "over_stealing"
    #: Filter and steal amount read only the two views' loads.
    filter_invariance = "loads"

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Listing 1's sound filter."""
        return stealee.nr_threads - thief.nr_threads >= 2

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        """Take every ready task the victim has."""
        return max(1, stealee.nr_ready)
