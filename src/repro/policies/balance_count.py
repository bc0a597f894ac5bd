"""Listing 1: the simple thread-count load balancer.

The policy that the paper proves work-conserving:

* ``load`` — the number of threads on the core
  (``ready.size + current.size``);
* ``filter`` — "a core A only steals tasks from a core B if A has at
  least two fewer threads than B" (``stealee.load() - self.load() >= 2``);
* ``steal`` — one task (``stealOneThread``).

The *margin* of 2 is load-bearing: with margin 1, two cores whose loads
differ by one keep exchanging a task (each steal flips the sign of the
difference), so successive rounds oscillate and an idle third core can
starve; with margin 3, a machine like ``[0, 2]`` is stuck — an idle core
coexists with an overloaded one forever. Both degenerate margins are kept
constructible here precisely so the verification layer and the ablation
benchmarks can exhibit those failures; :class:`BalanceCountPolicy` with
the default margin is the proven configuration.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.core.policy import Policy
from repro.core.cpu import CoreView


class BalanceCountPolicy(Policy):
    """Steal one task when the victim has ``margin`` more threads than us.

    Attributes:
        margin: minimum thread-count gap required to steal; the paper's
            (and the proven) value is 2.
    """

    #: Filter and steal amount read only the two views' loads.
    filter_invariance = "loads"

    def __init__(self, margin: int = 2) -> None:
        if margin < 1:
            raise ConfigurationError(f"margin must be >= 1, got {margin}")
        self.margin = margin
        self.name = f"balance_count(margin={margin})"

    def load(self, core: CoreView) -> float:
        """Thread count: Listing 1's ``ready.size + current.size``."""
        return core.nr_threads

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Listing 1 line 6: ``stealee.load() - self.load() >= 2``."""
        return stealee.nr_threads - thief.nr_threads >= self.margin

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        """Listing 1 line 13: steal exactly one thread."""
        return 1


class GreedyHalvingPolicy(BalanceCountPolicy):
    """A faster-converging variant: steal half of the surplus.

    Same filter as :class:`BalanceCountPolicy`; the steal amount is
    ``(stealee.load - thief.load) // 2``, which equalises the pair in one
    operation instead of one task per round. Kept as an extension-point
    demonstration: the steal-soundness obligation (victim not left idle,
    pairwise gap shrinks) still holds, so the work-conservation proof
    carries over with a smaller round bound.
    """

    def __init__(self, margin: int = 2) -> None:
        super().__init__(margin=margin)
        self.name = f"greedy_halving(margin={margin})"

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        """Half the gap, rounded down; at least one task."""
        gap = stealee.nr_threads - thief.nr_threads
        return max(1, gap // 2)
