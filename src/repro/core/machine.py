"""The simulated multicore machine.

A :class:`Machine` bundles the cores, their runqueues, and the NUMA
topology, and offers the two operations the scheduler model of Section 3.1
needs: a consistent-enough *snapshot* for the lock-free selection phase
(each core snapshot is internally consistent; the vector across cores may
be stale, exactly like lock-free reads of other cores' state), and global
invariant checks (thread conservation) that the verification layer uses
as its baseline soundness net.

Machines can be built directly from *load vectors* — e.g. ``[0, 1, 2]``
for the three-core counterexample of Section 4.3 — which is the
representation the model checker enumerates.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cpu import Core, CoreSnapshot
from repro.core.errors import ConfigurationError, SchedulingInvariantError
from repro.core.runqueue import validate_disjoint
from repro.core.task import Task, TaskState
from repro.topology.numa import NumaTopology, uniform_topology


class Machine:
    """N cores with per-core runqueues on a NUMA topology.

    Attributes:
        topology: the machine's :class:`~repro.topology.numa.NumaTopology`.
        cores: list of :class:`~repro.core.cpu.Core`, indexed by core id.
    """

    def __init__(self, n_cores: int | None = None,
                 topology: NumaTopology | None = None) -> None:
        """Create a machine.

        Args:
            n_cores: number of cores; ignored when ``topology`` is given.
            topology: explicit topology; defaults to a single-node (UMA)
                machine of ``n_cores`` cores.

        Raises:
            ConfigurationError: if neither argument is provided or
                ``n_cores`` disagrees with the topology.
        """
        if topology is None:
            if n_cores is None:
                raise ConfigurationError(
                    "Machine needs n_cores or an explicit topology"
                )
            topology = uniform_topology(n_cores)
        elif n_cores is not None and n_cores != topology.n_cores:
            raise ConfigurationError(
                f"n_cores={n_cores} disagrees with topology"
                f" ({topology.n_cores} cores)"
            )
        self.topology = topology
        self.cores = [
            Core(cid, node=topology.node_of(cid))
            for cid in range(topology.n_cores)
        ]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Number of cores on the machine."""
        return len(self.cores)

    def core(self, cid: int) -> Core:
        """Return the core with id ``cid``."""
        return self.cores[cid]

    def __iter__(self):
        return iter(self.cores)

    def snapshot(self) -> list[CoreSnapshot]:
        """Snapshot every core for a lock-free selection phase.

        Each per-core snapshot is consistent; the list as a whole is only
        as consistent as lock-free reads can be, which is the model's
        intent: selection acts on possibly-stale observations.
        """
        return [core.snapshot() for core in self.cores]

    # ------------------------------------------------------------------
    # aggregate state
    # ------------------------------------------------------------------

    def loads(self) -> list[int]:
        """Thread-count load of every core (Listing 1's ``load()``)."""
        return [core.nr_threads for core in self.cores]

    def weighted_loads(self) -> list[int]:
        """CFS-weighted load of every core."""
        return [core.weighted_load for core in self.cores]

    def total_threads(self) -> int:
        """Total tasks on the machine (running + ready)."""
        return sum(core.nr_threads for core in self.cores)

    def idle_cores(self) -> list[int]:
        """Ids of idle cores (no current task, empty runqueue)."""
        return [core.cid for core in self.cores if core.idle]

    def overloaded_cores(self) -> list[int]:
        """Ids of overloaded cores (two or more threads)."""
        return [core.cid for core in self.cores if core.overloaded]

    def is_work_conserving_state(self) -> bool:
        """Whether the *current state* wastes no core.

        True iff no core is idle while another is overloaded — the
        condition that must eventually hold forever for the scheduler to
        be work-conserving (Section 3.2). A single state satisfying this
        is necessary but not sufficient; the verification layer reasons
        about whole executions.
        """
        return not (self.idle_cores() and self.overloaded_cores())

    def tasks(self) -> list[Task]:
        """All tasks currently visible to the scheduler, in core order."""
        out: list[Task] = []
        for core in self.cores:
            if core.current is not None:
                out.append(core.current)
            out.extend(core.runqueue)
        return out

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------

    def place_task(self, task: Task, cid: int) -> None:
        """Enqueue ``task`` on core ``cid``'s runqueue."""
        task.state = TaskState.READY
        self.cores[cid].runqueue.push(task)

    def dispatch_all(self) -> None:
        """Have every core pick a current task from its runqueue if idle."""
        for core in self.cores:
            core.pick_next()

    @classmethod
    def from_loads(cls, loads: Sequence[int],
                   topology: NumaTopology | None = None,
                   nice: int = 0,
                   dispatch: bool = True) -> "Machine":
        """Build a machine whose cores carry the given thread counts.

        This is the bridge between the verification layer's abstract
        states (integer load vectors) and concrete machines: core ``i``
        receives ``loads[i]`` nice-``nice`` infinite tasks, and, when
        ``dispatch`` is true, immediately runs one of them.

        Args:
            loads: per-core thread counts; e.g. ``[0, 1, 2]`` builds the
                Section 4.3 counterexample machine.
            topology: optional topology (must match ``len(loads)``).
            nice: niceness of the created tasks.
            dispatch: whether cores pick a current task immediately.

        Returns:
            The populated machine.
        """
        if any(load < 0 for load in loads):
            raise ConfigurationError("loads must be >= 0")
        machine = cls(n_cores=len(loads), topology=topology)
        for cid, load in enumerate(loads):
            for k in range(load):
                machine.place_task(
                    Task(nice=nice, name=f"c{cid}w{k}"), cid
                )
        if dispatch:
            machine.dispatch_all()
        return machine

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate global scheduler invariants, raising on violation.

        Checks:
            * no task appears on two runqueues (thread conservation);
            * no task is both current somewhere and queued somewhere;
            * every current task is in RUNNING state;
            * core ids are dense and match runqueue owners.

        Raises:
            SchedulingInvariantError: describing the first violation.
        """
        validate_disjoint([core.runqueue for core in self.cores])
        current_ids: dict[int, int] = {}
        for core in self.cores:
            if core.runqueue.owner != core.cid:
                raise SchedulingInvariantError(
                    f"core {core.cid} owns runqueue of {core.runqueue.owner}"
                )
            if core.current is None:
                continue
            tid = core.current.tid
            if tid in current_ids:
                raise SchedulingInvariantError(
                    f"task {tid} current on cores {current_ids[tid]}"
                    f" and {core.cid}"
                )
            current_ids[tid] = core.cid
            if core.current.state is not TaskState.RUNNING:
                raise SchedulingInvariantError(
                    f"current task {tid} on core {core.cid} is in state"
                    f" {core.current.state.value}, expected running"
                )
        queued_ids = {
            task.tid
            for core in self.cores
            for task in core.runqueue
        }
        both = queued_ids & set(current_ids)
        if both:
            raise SchedulingInvariantError(
                f"tasks {sorted(both)} are simultaneously current and queued"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(cores={self.n_cores}, loads={self.loads()})"
