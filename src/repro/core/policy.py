"""The three-step policy abstraction (Figure 1 of the paper).

The paper decomposes one core's load-balancing operation into three steps
so that each can be verified in isolation:

1. **Filter** (:meth:`Policy.can_steal`): from all cores, keep only those
   this core may steal from. Lock-free, read-only, may act on stale data.
2. **Choice** (:meth:`Policy.choose`): pick one core among the filtered
   candidates. This is where all the "smart placement" heuristics live —
   NUMA, cache locality, priorities — and the proofs ignore it entirely,
   requiring only that the chosen core is one of the candidates
   (Listing 1's ``ensuring(res => cores.contains(res))``).
3. **Steal** (:meth:`Policy.steal_amount` executed by the balancer): with
   both runqueues locked, re-check the filter against live state and, if
   it still holds, migrate that many tasks.

A policy also defines its **load metric** (:meth:`Policy.load`), the
user-defined quantity being balanced — plain thread counts in Listing 1,
niceness-weighted counts for CFS-like fairness. The work-conservation
obligations are stated against thread counts (idle/overloaded are
structural properties), while the *filter* may use any load metric; the
verification layer checks the two agree where it matters (Lemma 1).

Policies must keep ``can_steal``/``choose``/``load`` pure: they receive
immutable :class:`~repro.core.cpu.CoreSnapshot` views during selection, so
mutation is impossible by construction, matching the model's requirement
that "the selection phase may not modify runqueues".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.core.cpu import CoreSnapshot, CoreView
from repro.core.errors import ConfigurationError
from repro.core.task import NICE_0_WEIGHT


@dataclass(frozen=True)
class LoadView:
    """A synthetic :class:`~repro.core.cpu.CoreView` built from a load count.

    The verification layer reasons over abstract states that are plain
    integer vectors ("core i has load 3"). ``LoadView`` lets the *real*
    policy code run against those abstract states without materialising
    tasks and runqueues: a core with load ``k > 0`` is modelled as one
    running task plus ``k - 1`` ready tasks, all at nice 0.

    Attributes:
        cid: core id.
        load_count: total threads on the core.
        node: NUMA node (defaults to 0; abstract states are topology-free
            unless the scope says otherwise).
    """

    cid: int
    load_count: int
    node: int = 0

    def __post_init__(self) -> None:
        if self.load_count < 0:
            raise ConfigurationError(
                f"load_count must be >= 0, got {self.load_count}"
            )

    @property
    def nr_ready(self) -> int:
        """Ready tasks: all but the one modelled as running."""
        return max(0, self.load_count - 1)

    @property
    def has_current(self) -> bool:
        """A core with any load is modelled as running one task."""
        return self.load_count > 0

    @property
    def weighted_load(self) -> int:
        """All modelled tasks are nice-0."""
        return self.load_count * NICE_0_WEIGHT

    @property
    def nr_threads(self) -> int:
        """Total threads on the core."""
        return self.load_count


class Policy(ABC):
    """A scheduling policy expressed in the three-step abstraction.

    Subclasses override :meth:`can_steal` (mandatory — it is the object of
    the proofs) and optionally :meth:`load`, :meth:`choose` and
    :meth:`steal_amount`. All four methods must be pure functions of their
    arguments.

    Attributes:
        name: identifier used in proof reports and benchmark output.
    """

    #: Identifier used in reports; subclasses override.
    name: str = "policy"

    #: What the *choice* step may observe, which bounds the symmetry
    #: quotients that are sound under ``choice_mode='policy'``:
    #: ``"renaming"`` — choice depends only on loads (and deterministic
    #: tie-breaks), invariant under any core renaming; ``"distance"`` —
    #: choice consults NUMA distances, invariant only under
    #: distance-preserving renamings; ``"none"`` — choice is stateful
    #: (e.g. seeded-random), equivariant under no renaming at all.
    #: Irrelevant in ``choice_mode='all'``, which never calls ``choose``.
    choice_invariance: str = "renaming"

    #: What the *filter* (and steal amount) may observe, which decides
    #: whether the packed transition kernel
    #: (:mod:`repro.verify.kernel`) may stand in for the tuple executor:
    #: ``"loads"`` — ``can_steal``/``steal_amount`` depend only on the
    #: scalar load fields of the two views (``nr_ready``,
    #: ``has_current``, ``nr_threads``, ``weighted_load``), never on
    #: ``cid``, ``node``, ``version``, task identities, or external
    #: state; ``"scoped-loads"`` — loads plus a static cid-based pair
    #: admission (the policy must expose ``core_to_group``); ``"none"``
    #: (the default) — anything else, which keeps the policy on the
    #: tuple executor. Eligibility is opt-in: the kernel probes the
    #: filter at one cid pair, so a policy that declares ``"loads"``
    #: but consults cids, nodes, or mutable state would silently get
    #: wrong successors. Every library policy declares ``"loads"``, and
    #: a subclass inherits its parent's declaration.
    filter_invariance: str = "none"

    def load(self, core: CoreView) -> float:
        """The user-defined load metric (Listing 1's ``load()``).

        Default: thread count — ``ready.size + current.size``.
        """
        return core.nr_threads

    @abstractmethod
    def can_steal(self, thief: CoreView, stealee: CoreView) -> bool:
        """Step 1 — the filter: may ``thief`` steal from ``stealee``?

        Called lock-free on snapshots during selection and again on live
        cores, under both runqueue locks, immediately before stealing
        (Listing 1 line 12). A ``False`` on re-check is an optimistic
        failure, not an error.
        """

    def choose(self, thief: CoreView,
               candidates: Sequence[CoreSnapshot]) -> CoreSnapshot:
        """Step 2 — the choice: pick a victim among filtered candidates.

        Default: the most loaded candidate (ties broken by lowest core
        id, keeping rounds deterministic). The balancer enforces the
        Listing 1 postcondition that the result is one of ``candidates``.

        Args:
            thief: the stealing core's view of itself.
            candidates: non-empty filtered snapshots.
        """
        return max(candidates, key=lambda c: (self.load(c), -c.cid))

    def steal_amount(self, thief: CoreView, stealee: CoreView) -> int:
        """Step 3 — how many tasks to migrate once the re-check passed.

        Default: one task, as in Listing 1's ``stealOneThread``. The
        balancer additionally clamps to the victim's ready-task count
        (the running task can never be stolen).
        """
        return 1

    def describe(self) -> str:
        """One-line human-readable description for reports."""
        doc = (self.__doc__ or "").strip().splitlines()
        return f"{self.name}: {doc[0] if doc else 'no description'}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def filter_candidates(policy: Policy, thief: CoreView,
                      snapshots: Sequence[CoreSnapshot]) -> list[CoreSnapshot]:
    """Apply step 1: keep the cores ``thief`` may steal from.

    A core never steals from itself; everything else is up to the
    policy's filter.

    Args:
        policy: the policy whose filter to apply.
        thief: the stealing core's self-view.
        snapshots: observations of all cores (including the thief's own,
            which is skipped).

    Returns:
        Snapshots that passed the filter, in core-id order.
    """
    return [
        snap for snap in snapshots
        if snap.cid != thief.cid and policy.can_steal(thief, snap)
    ]
