"""Engine adapters: one protocol over serial, pool, and distributed backends.

The verification stack has three execution backends — this process, the
:mod:`multiprocessing` pool of :mod:`repro.verify.parallel`, and the
coordinator/worker dispatch of :mod:`repro.verify.distributed` — with
the guarantee that all three produce byte-identical verdicts. This
module makes that guarantee a *type*: :class:`Engine` is the protocol
every backend implements, and callers (the
:class:`~repro.api.session.Session`, primarily) pick a backend by
constructing a different adapter — never by importing
``parallel``/``distributed`` internals.

The backends differ only in where a list of shard tasks runs, so each
adapter supplies a :class:`~repro.verify.work_conservation.TaskMap`
(:meth:`TaskEngine.tasks`) and inherits ``prove``, ``analyze`` and
``run_campaign`` from :class:`TaskEngine`, which hands the map to the
one driver of each request kind. Adding a future backend (an
authenticated transport, say) means writing one ``tasks`` method;
every entry point — CLI, spec files, programmatic callers — picks it up
through :func:`create_engine` without a new flag plumb-through.

Engines are context managers: ``__enter__`` acquires whatever the
backend needs (nothing, a process pool, a worker fleet), ``__exit__``
releases it. The :class:`DistributedEngine` wraps every
:class:`~repro.core.errors.VerificationError` in an
:class:`EngineError` prefixed ``"distributed run failed: "`` — the
exact failure surface the CLI has always presented.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - hints only; imported lazily at runtime
    from repro.verify.distributed import Coordinator, LocalWorkerPool

from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.obs.trace import TRACER
from repro.topology.numa import NumaTopology
from repro.verify.campaign import CampaignConfig, CampaignReport
from repro.verify.enumeration import StateScope
from repro.verify.hierarchical import HierarchySpec
from repro.verify.model_checker import WorkConservationAnalysis
from repro.verify.symmetry import SymmetryGroup, TrivialGroup
from repro.verify.transition import DEFAULT_MAX_ORDERS
from repro.verify.work_conservation import (
    TaskMap,
    WorkConservationCertificate,
    analyze,
    campaign,
    local_tasks,
    prove,
)

from repro.api.request import EngineSpec, RequestError

#: ``on_level(level, states_expanded, next_frontier)`` progress hook.
LevelCallback = Callable[[int, int, int], None]

#: ``on_machine(machines_done, violations_so_far)`` campaign hook.
MachineCallback = Callable[[int, int], None]

#: ``on_reassign(task_index, lost_worker_name)`` dispatch hook.
ReassignCallback = Callable[[int, str], None]

#: ``on_expand(states_explored_so_far)`` cumulative progress hook.
ExpandCallback = Callable[[int], None]

#: ``on_partition_split(partition, source, target, pending)`` steal hook.
SplitCallback = Callable[[int, str, str, int], None]


class EngineError(VerificationError):
    """A backend failed to execute a request (transport loss, spawn
    failure, ...) — as opposed to the request being refuted."""


@runtime_checkable
class Engine(Protocol):
    """What a verification backend must provide.

    All three request methods share one surface — identical parameters,
    identical result types — because the engine-equivalence guarantee
    (same request, same verdict, any backend) is only meaningful if the
    surface is shared; :class:`TaskEngine` implements them once over a
    backend's task map. Progress callbacks are optional observers; an
    engine that cannot emit a given signal ignores the callback.
    """

    def describe(self) -> str:
        """One-line engine description for events and reports."""
        ...

    def __enter__(self) -> "Engine":
        ...

    def __exit__(self, *exc_info: object) -> None:
        ...

    def prove(self, policy: Policy, scope: StateScope, *,
              choice_mode: str = "all",
              max_orders: int = DEFAULT_MAX_ORDERS,
              symmetry: SymmetryGroup = TrivialGroup(),
              topology: NumaTopology | None = None,
              on_level: LevelCallback | None = None,
              ) -> WorkConservationCertificate:
        """Run the full §4 pipeline for one policy."""
        ...

    def analyze(self, policy: Policy | None, scope: StateScope, *,
                choice_mode: str = "all",
                max_orders: int = DEFAULT_MAX_ORDERS,
                symmetry: SymmetryGroup = TrivialGroup(),
                topology: NumaTopology | None = None,
                hierarchy: HierarchySpec | None = None,
                on_level: LevelCallback | None = None,
                ) -> WorkConservationAnalysis:
        """Model-check work conservation only (the ``hunt`` path)."""
        ...

    def run_campaign(self, policy_factory: Callable[[], Policy],
                     config: CampaignConfig, *,
                     on_machine: MachineCallback | None = None,
                     ) -> CampaignReport:
        """Run a randomised fuzzing campaign."""
        ...


class TaskEngine:
    """``prove``, ``analyze`` and ``run_campaign``, written once.

    A backend implements :meth:`tasks`; each request kind hands the map
    to its driver in :mod:`repro.verify.work_conservation`. Progress
    hooks pass through to the closure: ``on_level`` fires per BFS level
    and ``on_expand`` with the cumulative states explored, whichever the
    caller supplies (the async distributed mode honours only
    ``on_expand``); ``on_machine`` reaches campaigns that run in this
    process.
    """

    def tasks(self, on_machine: MachineCallback | None = None,
              ) -> ContextManager[TaskMap]:
        """Where this backend runs a request's shard tasks."""
        raise NotImplementedError

    def prove(self, policy: Policy, scope: StateScope, *,
              on_level: LevelCallback | None = None,
              on_expand: ExpandCallback | None = None,
              **params: Any) -> WorkConservationCertificate:
        with self.tasks() as tasks:
            return prove(policy, scope, tasks, on_level=on_level,
                         on_expand=on_expand, **params)

    def analyze(self, policy: Policy | None, scope: StateScope, *,
                on_level: LevelCallback | None = None,
                on_expand: ExpandCallback | None = None,
                **params: Any) -> WorkConservationAnalysis:
        with self.tasks() as tasks:
            return analyze(policy, scope, tasks, on_level=on_level,
                           on_expand=on_expand, **params)

    def run_campaign(self, policy_factory: Callable[[], Policy],
                     config: CampaignConfig, *,
                     on_machine: MachineCallback | None = None,
                     ) -> CampaignReport:
        with self.tasks(on_machine) as tasks:
            return campaign(policy_factory, config, tasks)


class SerialEngine(TaskEngine):
    """The unsharded reference path: one shard, in this process.

    ``prove`` reports no exploration progress, so its ``on_level`` is
    ignored; ``analyze`` reports through ``on_expand`` (the cumulative
    states explored after each BFS level), which the session throttles
    into events, and campaigns report every machine.
    """

    def describe(self) -> str:
        return "serial"

    def __enter__(self) -> "SerialEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    @contextmanager
    def tasks(self, on_machine: MachineCallback | None = None,
              ) -> Iterator[TaskMap]:
        yield local_tasks(on_machine)

    def prove(self, policy: Policy, scope: StateScope, *,
              on_level: LevelCallback | None = None,
              **params: Any) -> WorkConservationCertificate:
        return super().prove(policy, scope, **params)


class PoolEngine(TaskEngine):
    """The ``--jobs N`` multiprocessing engine.

    ``__enter__`` opens one process pool
    (:func:`repro.verify.parallel.pool_tasks`), every call inside the
    ``with`` block maps its tasks over it, and ``__exit__`` closes it:
    a zoo forks one pool, not one per row. Re-entering the engine (a
    :class:`~repro.api.session.Session` given an entered engine enters
    it again) reuses the open pool, which the outermost ``__exit__``
    closes. A call outside the block gets a pool of its own.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._depth = 0
        self._pool: ExitStack | None = None
        self._tasks: TaskMap | None = None

    def describe(self) -> str:
        return f"pool[jobs={self.jobs}]"

    def __enter__(self) -> "PoolEngine":
        if self._depth == 0:
            from repro.verify.parallel import pool_tasks

            with ExitStack() as stack:
                self._tasks = stack.enter_context(pool_tasks(self.jobs))
                self._pool = stack.pop_all()
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._depth -= 1
        if self._depth:
            return
        pool, self._pool, self._tasks = self._pool, None, None
        if pool is not None:
            pool.close()

    def tasks(self, on_machine: MachineCallback | None = None,
              ) -> ContextManager[TaskMap]:
        if self._tasks is not None:
            return nullcontext(self._tasks)
        from repro.verify.parallel import pool_tasks

        return pool_tasks(self.jobs)


class DistributedEngine(TaskEngine):
    """The coordinator/worker engine behind ``--distributed``/``--workers``.

    ``__enter__`` acquires the worker fleet per the construction
    arguments — spawn ``workers`` localhost subprocesses (the reference
    TCP deployment), connect to ``endpoints``, or stand up ``workers``
    in-process transports (every frame still round-trips the wire
    encoding; the zero-setup deployment tests use) — and ``__exit__``
    releases it. A caller-owned :class:`~repro.verify.distributed.
    Coordinator` may be injected instead; it is then *not* closed on
    exit.

    Every :class:`~repro.core.errors.VerificationError` — spawn or
    connect failures, worker loss, unsound parameter combinations
    detected mid-dispatch — surfaces as :class:`EngineError` with the
    ``"distributed run failed: "`` prefix.

    Like :class:`PoolEngine`, re-entering the engine (a
    :class:`~repro.api.session.Session` given an entered engine enters
    it again) reuses the open fleet, which the outermost ``__exit__``
    releases.
    """

    def __init__(self, workers: int | None = None,
                 endpoints: Sequence[str] = (),
                 in_process: bool = False,
                 coordinator: Coordinator | None = None,
                 mode: str = "level-sync",
                 partitions: int | None = None) -> None:
        self._workers = workers
        self._endpoints = tuple(endpoints)
        self._in_process = in_process
        self._coordinator: Coordinator | None = coordinator
        self._owned_pool: LocalWorkerPool | None = None
        self._owns_coordinator = coordinator is None
        self._depth = 0
        #: ``"level-sync"`` (barriered BFS) or ``"async"`` (barrier-free
        #: hash-partitioned exploration); see repro.verify.distributed.
        self.mode = mode
        self.partitions = partitions
        #: forwarded to the coordinator once open (ShardReassigned events).
        self.on_reassign: ReassignCallback | None = None
        #: async-mode steal observer (PartitionSplit events).
        self.on_partition_split: SplitCallback | None = None

    def describe(self) -> str:
        suffix = ", async" if self.mode == "async" else ""
        if self._endpoints:
            return f"distributed[{','.join(self._endpoints)}{suffix}]"
        if self._in_process:
            return f"distributed[{self._workers} in-process workers{suffix}]"
        if self._workers is not None:
            return f"distributed[{self._workers} tcp workers{suffix}]"
        return f"distributed[injected coordinator{suffix}]"

    def __enter__(self) -> "DistributedEngine":
        if self._depth == 0 and self._owns_coordinator:
            self._acquire()
        self._depth += 1
        self.coordinator.on_reassign = self.on_reassign
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._depth -= 1
        if not self._depth:
            self._close()

    def _acquire(self) -> None:
        from repro.verify.distributed import (
            Coordinator,
            InProcessTransport,
            LocalWorkerPool,
            connect_workers,
        )

        try:
            with TRACER.span("engine.acquire", "engine",
                             engine=self.describe()):
                if self._endpoints:
                    self._coordinator = connect_workers(self._endpoints)
                elif self._in_process:
                    self._coordinator = Coordinator([
                        InProcessTransport(name=f"in-process-{i}")
                        for i in range(self._workers or 1)
                    ])
                else:
                    self._owned_pool = LocalWorkerPool(self._workers or 1)
                    self._coordinator = self._owned_pool.__enter__()
        except VerificationError as exc:
            self._close()
            raise EngineError(f"distributed run failed: {exc}") from exc

    def _close(self) -> None:
        if not self._owns_coordinator:
            return
        if self._owned_pool is not None:
            pool, self._owned_pool = self._owned_pool, None
            self._coordinator = None
            pool.__exit__(None, None, None)
        elif self._coordinator is not None:
            coordinator, self._coordinator = self._coordinator, None
            coordinator.close()

    @property
    def coordinator(self) -> Coordinator:
        """The live coordinator; entering the engine first is the
        caller's job."""
        if self._coordinator is None:
            raise EngineError(
                "distributed engine is not open: use it as a context"
                " manager"
            )
        return self._coordinator

    @contextmanager
    def tasks(self, on_machine: MachineCallback | None = None,
              ) -> Iterator[TaskMap]:
        from repro.verify.distributed import coordinator_tasks

        try:
            yield coordinator_tasks(self.coordinator, self.mode,
                                    self.partitions,
                                    self.on_partition_split)
        except EngineError:
            raise
        except VerificationError as exc:
            raise EngineError(f"distributed run failed: {exc}") from exc


def create_engine(spec: EngineSpec) -> Engine:
    """Construct the engine an :class:`EngineSpec` describes."""
    if spec.kind == "serial":
        return SerialEngine()
    if spec.kind == "pool":
        if spec.jobs == 1:
            # One worker is the serial path; skip the pool machinery
            # exactly as the drivers themselves would.
            return SerialEngine()
        return PoolEngine(spec.jobs)
    if spec.kind == "distributed":
        return DistributedEngine(workers=spec.workers,
                                 endpoints=spec.endpoints,
                                 in_process=spec.in_process,
                                 mode=spec.mode,
                                 partitions=spec.partitions)
    raise RequestError(f"unknown engine kind {spec.kind!r}")
