"""Engine adapters: one protocol over serial, pool, and distributed backends.

The verification stack grew three execution backends — the serial
checkers, the :mod:`multiprocessing` pool of
:mod:`repro.verify.parallel`, and the coordinator/worker dispatch of
:mod:`repro.verify.distributed` — with the guarantee that all three
produce byte-identical verdicts. This module makes that guarantee a
*type*: :class:`Engine` is the protocol every backend implements, and
callers (the :class:`~repro.api.session.Session`, primarily) pick a
backend by constructing a different adapter — never by importing
``parallel``/``distributed`` internals.

Adding a future backend (async hash-partitioned exploration, an
authenticated transport) means writing one new ``Engine``
implementation; every entry point — CLI, spec files, programmatic
callers — picks it up through :func:`create_engine` without a new flag
plumb-through.

Engines are context managers: ``__enter__`` acquires whatever the
backend needs (nothing, a pool per call, a worker fleet), ``__exit__``
releases it. The :class:`DistributedEngine` wraps every
:class:`~repro.core.errors.VerificationError` in an
:class:`EngineError` prefixed ``"distributed run failed: "`` — the
exact failure surface the CLI has always presented.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - hints only; imported lazily at runtime
    from repro.verify.distributed import Coordinator, LocalWorkerPool

from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.obs.trace import TRACER
from repro.topology.numa import NumaTopology
from repro.verify.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.verify.enumeration import StateScope
from repro.verify.hierarchical import HierarchySpec, build_checker
from repro.verify.model_checker import WorkConservationAnalysis
from repro.verify.symmetry import SymmetryGroup
from repro.verify.transition import DEFAULT_MAX_ORDERS
from repro.verify.work_conservation import (
    WorkConservationCertificate,
    prove_work_conserving,
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

    All three methods mirror the serial entry points exactly —
    identical parameters, identical result types — because the
    engine-equivalence guarantee (same request, same verdict, any
    backend) is only meaningful if the surface is shared. Progress
    callbacks are optional observers; an engine that cannot emit a
    given signal ignores the callback.
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
              symmetric: bool = False,
              symmetry: SymmetryGroup | None = None,
              topology: NumaTopology | None = None,
              on_level: LevelCallback | None = None,
              ) -> WorkConservationCertificate:
        """Run the full §4 pipeline for one policy."""
        ...

    def analyze(self, policy: Policy | None, scope: StateScope, *,
                choice_mode: str = "all",
                max_orders: int = DEFAULT_MAX_ORDERS,
                symmetric: bool = False,
                sequential: bool = False,
                symmetry: SymmetryGroup | None = None,
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


class SerialEngine:
    """The unsharded reference path, in this process.

    ``prove`` reports no levels, so ``on_level`` is ignored there;
    ``analyze`` reports exploration progress through the checker's
    ``on_expand`` hook (the cumulative states explored after each BFS
    level) instead, which the session throttles into events.
    """

    def describe(self) -> str:
        return "serial"

    def __enter__(self) -> "SerialEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def prove(self, policy, scope, *, choice_mode="all",
              max_orders=DEFAULT_MAX_ORDERS, symmetric=False,
              symmetry=None, topology=None, on_level=None,
              ) -> WorkConservationCertificate:
        return prove_work_conserving(
            policy, scope, choice_mode=choice_mode, max_orders=max_orders,
            symmetric=symmetric, symmetry=symmetry, topology=topology,
        )

    def analyze(self, policy, scope, *, choice_mode="all",
                max_orders=DEFAULT_MAX_ORDERS, symmetric=False,
                sequential=False, symmetry=None, topology=None,
                hierarchy=None, on_level=None,
                on_expand: Callable[[int], None] | None = None,
                ) -> WorkConservationAnalysis:
        checker = build_checker(
            policy, choice_mode=choice_mode, max_orders=max_orders,
            symmetric=symmetric, symmetry=symmetry, topology=topology,
            hierarchy=hierarchy,
        )
        return checker.analyze(scope, sequential=sequential,
                               on_expand=on_expand)

    def run_campaign(self, policy_factory, config, *,
                     on_machine=None) -> CampaignReport:
        return run_campaign(policy_factory, config, on_machine=on_machine)


class PoolEngine:
    """The ``--jobs N`` multiprocessing engine.

    A thin adapter over :mod:`repro.verify.parallel`; each call owns its
    pool (the drivers create and tear one down per sweep), so enter/exit
    hold no state.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs

    def describe(self) -> str:
        return f"pool[jobs={self.jobs}]"

    def __enter__(self) -> "PoolEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def prove(self, policy, scope, *, choice_mode="all",
              max_orders=DEFAULT_MAX_ORDERS, symmetric=False,
              symmetry=None, topology=None, on_level=None,
              ) -> WorkConservationCertificate:
        from repro.verify.parallel import prove_work_conserving_parallel

        return prove_work_conserving_parallel(
            policy, scope, jobs=self.jobs, choice_mode=choice_mode,
            max_orders=max_orders, symmetric=symmetric, symmetry=symmetry,
            topology=topology, on_level=on_level,
        )

    def analyze(self, policy, scope, *, choice_mode="all",
                max_orders=DEFAULT_MAX_ORDERS, symmetric=False,
                sequential=False, symmetry=None, topology=None,
                hierarchy=None, on_level=None,
                ) -> WorkConservationAnalysis:
        from repro.verify.parallel import analyze_parallel

        return analyze_parallel(
            policy, scope, jobs=self.jobs, choice_mode=choice_mode,
            max_orders=max_orders, symmetric=symmetric,
            sequential=sequential, symmetry=symmetry, topology=topology,
            hierarchy=hierarchy, on_level=on_level,
        )

    def run_campaign(self, policy_factory, config, *,
                     on_machine=None) -> CampaignReport:
        from repro.verify.parallel import run_campaign_parallel

        return run_campaign_parallel(policy_factory, config,
                                     jobs=self.jobs)


class DistributedEngine:
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
        if self._coordinator is not None:  # injected, or re-entered
            self._coordinator.on_reassign = self.on_reassign
            return self
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
        self._coordinator.on_reassign = self.on_reassign
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._close()

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

    def prove(self, policy, scope, *, choice_mode="all",
              max_orders=DEFAULT_MAX_ORDERS, symmetric=False,
              symmetry=None, topology=None, on_level=None,
              on_expand: ExpandCallback | None = None,
              ) -> WorkConservationCertificate:
        from repro.verify.distributed import prove_work_conserving_distributed

        try:
            return prove_work_conserving_distributed(
                policy, scope, self.coordinator, choice_mode=choice_mode,
                max_orders=max_orders, symmetric=symmetric,
                symmetry=symmetry, topology=topology,
                mode=self.mode, partitions=self.partitions,
                on_level=on_level, on_expand=on_expand,
                on_partition_split=self.on_partition_split,
            )
        except EngineError:
            raise
        except VerificationError as exc:
            raise EngineError(f"distributed run failed: {exc}") from exc

    def analyze(self, policy, scope, *, choice_mode="all",
                max_orders=DEFAULT_MAX_ORDERS, symmetric=False,
                sequential=False, symmetry=None, topology=None,
                hierarchy=None, on_level=None,
                on_expand: ExpandCallback | None = None,
                ) -> WorkConservationAnalysis:
        from repro.verify.distributed import analyze_distributed

        try:
            return analyze_distributed(
                policy, scope, self.coordinator, choice_mode=choice_mode,
                max_orders=max_orders, symmetric=symmetric,
                sequential=sequential, symmetry=symmetry,
                topology=topology, hierarchy=hierarchy,
                mode=self.mode, partitions=self.partitions,
                on_level=on_level, on_expand=on_expand,
                on_partition_split=self.on_partition_split,
            )
        except EngineError:
            raise
        except VerificationError as exc:
            raise EngineError(f"distributed run failed: {exc}") from exc

    def run_campaign(self, policy_factory, config, *,
                     on_machine=None) -> CampaignReport:
        from repro.verify.distributed import run_campaign_distributed

        try:
            return run_campaign_distributed(policy_factory, config,
                                            self.coordinator)
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
