"""Multi-application colocation: workloads sharing one machine.

The paper's related-work section faults regression testing for running
applications "in isolation to avoid performance fluctuations due to non
deterministic scheduling decisions in multi-application workloads",
noting such tests "are unlikely to find complex bugs that happen when
multiple applications are scheduled together". The EuroSys'16 bugs the
paper builds on were exactly colocation bugs (an R process beside a
database; make beside scientific apps).

:class:`MixedWorkload` composes any set of workloads onto one machine:
each component keeps its own placement policy, task population and
completion criterion, while the scheduler under test sees their union.
The colocation benchmark runs a barrier application *beside* an OLTP
database and measures what each costs the other under different
balancers — the experiment isolation-based testing cannot run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.errors import ConfigurationError
from repro.core.task import Task
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation


class MixedWorkload(Workload):
    """Several workloads co-scheduled on one machine.

    Callbacks fan out to every component; task-completion events are
    routed to the component that owns the task (components never see
    each other's tasks). The mix is finished when every component is.

    Attributes:
        components: the colocated workloads, in attach order.
    """

    name = "mixed"

    def __init__(self, components: Sequence[Workload]) -> None:
        super().__init__()
        if not components:
            raise ConfigurationError("MixedWorkload needs >= 1 component")
        self.components = list(components)
        self._owner_of_task: dict[int, Workload] = {}

    # ------------------------------------------------------------------
    # ownership routing
    # ------------------------------------------------------------------

    def _adopt_new_tasks(self, sim: "Simulation",
                         component: Workload) -> None:
        """Claim ownership of tasks the component just created."""
        for task in sim.machine.tasks():
            if task.tid not in self._owner_of_task:
                self._owner_of_task[task.tid] = component

    def attach(self, sim: "Simulation") -> None:
        for component in self.components:
            component.attach(sim)
            self._adopt_new_tasks(sim, component)

    def on_tick(self, sim: "Simulation") -> None:
        for component in self.components:
            component.on_tick(sim)
            self._adopt_new_tasks(sim, component)

    def on_task_finished(self, sim: "Simulation", task: Task,
                         cid: int) -> None:
        owner = self._owner_of_task.get(task.tid)
        if owner is None:
            return
        owner.on_task_finished(sim, task, cid)
        # The owner may have revived the task (closed-loop workloads) or
        # spawned new ones; adopt anything fresh.
        self._adopt_new_tasks(sim, owner)

    def finished(self, sim: "Simulation") -> bool:
        return all(c.finished(sim) for c in self.components)

    def describe(self) -> str:
        inner = " + ".join(c.describe() for c in self.components)
        return f"mixed({inner})"
