"""Random work stealing: plausible, popular, and unprovable.

Classic Cilk-style work stealing steals from a *uniformly random* victim
with no load comparison. It performs well in expectation — randomness is
a decent balancer — but it offers exactly the kind of guarantee the
paper is dissatisfied with: probabilistic, not worst-case. Under an
adversarial steal ordering the model checker finds starvation lassos
(equal-load cores trading tasks while an idle core's attempts keep
failing), making this the natural "why we need the filter" baseline.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.cpu import CoreSnapshot, CoreView
from repro.core.policy import Policy


class RandomStealPolicy(Policy):
    """Steal one task from a random core that has anything stealable.

    The filter keeps every core with a ready task — no imbalance margin,
    no overload requirement beyond stealability — and the choice is
    seeded-uniform among them.

    Attributes:
        seed: RNG seed (runs are reproducible).
    """

    #: Seeded-random choice: equivariant under no renaming (see Policy).
    choice_invariance = "none"
    #: Filter and steal amount read only the two views' loads.
    filter_invariance = "loads"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.seed = seed
        self.name = f"random_steal(seed={seed})"

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Anyone with a ready task is a victim candidate."""
        return stealee.nr_ready >= 1

    def choose(self, thief: CoreView,
               candidates: Sequence[CoreSnapshot]) -> CoreSnapshot:
        """Uniformly random victim."""
        return candidates[self._rng.randrange(len(candidates))]

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        return 1


class IdleOnlyRandomStealPolicy(RandomStealPolicy):
    """Random stealing restricted to idle thieves.

    The common refinement — busy cores never steal — which removes the
    equal-load ping-pong but still lacks the margin that makes the
    potential argument go through; the verifier shows which obligations
    it gains and which it still fails.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.name = f"idle_random_steal(seed={seed})"

    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Only idle thieves steal, from anyone with a ready task."""
        return thief.nr_threads == 0 and stealee.nr_ready >= 1
