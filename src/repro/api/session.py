"""Sessions: run a request on an engine, observe progress, get a result.

A :class:`Session` is the one executor behind every entry point. It
resolves a :class:`~repro.api.request.VerificationRequest` into runtime
objects, acquires the requested engine, runs the request, and packages
the outcome as a typed :class:`~repro.api.result.VerificationResult` —
emitting structured :class:`ProgressEvent` values to subscribers along
the way.

Events are plain frozen dataclasses, not log lines: a caller can drive
a progress bar off ``LevelCompleted``, alert on ``ShardReassigned``,
or stream ``ViolationFound`` into an issue tracker. Guarantees:

* Every run starts with ``RequestStarted`` and ends with exactly one
  terminal event: ``RequestFinished`` (carrying the result) on success,
  ``RequestFailed`` (carrying the error, which then propagates to the
  caller) otherwise.
* Events are observational only — unsubscribing cannot change a
  verdict, and verdicts are byte-identical with zero subscribers.
* Ordering is per-run; ``ShardReassigned`` and ``PartitionSplit`` may
  arrive from a coordinator dispatch thread, so subscribers must be
  thread-safe when running distributed requests.

Usage::

    from repro.api import Session, VerificationRequest

    request = (VerificationRequest.builder("prove")
               .policy("balance_count").pool(jobs=4).build())
    session = Session(subscribers=[print])
    result = session.run(request)
    assert result.ok and result.certificate is not None

Callers that want to *consume* progress rather than observe it use the
streaming surface instead of subscribers: :meth:`Session.iter_events`
returns an :class:`EventStream` (a plain iterator driving the run on a
background thread, with the result available once exhausted),
:meth:`Session.run_streaming` is the generator form (``result = yield
from session.run_streaming(request)``), and :meth:`Session.aiter_events`
adapts the stream to ``async for``. All three yield exactly the events
a subscriber would see, in the same order.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncIterator,
    Callable,
    ContextManager,
    Generator,
    Iterable,
    Iterator,
)

from repro.obs.trace import TRACER
from repro.verify.campaign import CampaignReport
from repro.verify.obligations import Counterexample
from repro.verify.report import ZooReport, zoo_lineup, zoo_lineup_entries
from repro.verify.work_conservation import WorkConservationCertificate

from repro.api.engine import DistributedEngine, Engine, create_engine
from repro.api.request import RequestError, VerificationRequest
from repro.api.result import (
    StoreProvenance,
    VerificationResult,
    result_from_analysis,
    result_from_campaign,
    result_from_certificate,
    result_from_zoo,
)

if TYPE_CHECKING:  # pragma: no cover - hints only; imported lazily
    from repro.store.backends import ResultStore
    from repro.store.caching import CachingEngine

#: How many serial-engine expansions between ``StatesExplored`` events.
DEFAULT_EXPAND_STRIDE = 1000


# ---------------------------------------------------------------------------
# progress events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProgressEvent:
    """Base class of everything a session emits."""


@dataclass(frozen=True)
class RequestStarted(ProgressEvent):
    """A run began; ``engine`` is the engine's one-line description."""

    request: VerificationRequest
    engine: str


@dataclass(frozen=True)
class PolicyStarted(ProgressEvent):
    """A zoo run reached policy ``index`` of ``total``."""

    policy: str
    index: int
    total: int


@dataclass(frozen=True)
class PolicyFinished(ProgressEvent):
    """A zoo run finished one policy's full pipeline."""

    policy: str
    index: int
    total: int
    proved: bool


@dataclass(frozen=True)
class LevelCompleted(ProgressEvent):
    """The closure exploration finished one BFS level (pool and
    distributed engines; the serial engine reports the same levels as
    :class:`StatesExplored` counts instead)."""

    level: int
    states_expanded: int
    frontier: int


@dataclass(frozen=True)
class StatesExplored(ProgressEvent):
    """Serial exploration progress, throttled to the session's stride."""

    states: int


@dataclass(frozen=True)
class ShardReassigned(ProgressEvent):
    """A distributed worker was lost and its in-flight task requeued.

    May be emitted from a coordinator dispatch thread.
    """

    task_index: int
    worker: str


@dataclass(frozen=True)
class PartitionSplit(ProgressEvent):
    """An async-mode partition moved between workers (work stealing).

    Emitted when the coordinator re-routes a partition from ``source``
    to ``target`` — because ``target`` went idle, or joined the fleet
    mid-run — carrying ``pending`` queued states with it. Like
    :class:`ShardReassigned`, may arrive from a coordinator dispatch
    thread.
    """

    partition: int
    source: str
    target: str
    pending: int


@dataclass(frozen=True)
class MachineChecked(ProgressEvent):
    """A (serial) campaign finished fuzzing one machine."""

    machines: int
    violations: int


@dataclass(frozen=True)
class ResultReused(ProgressEvent):
    """A stored result served in place of a fresh proof.

    Emitted by sessions running with a result store
    (:mod:`repro.store`): once per whole request served from the
    store, or once per zoo row when a zoo run is partially warm —
    dashboards and ``--progress`` can therefore distinguish cache
    hits from fresh exploration.

    Attributes:
        request: the request (or derived per-policy prove request of a
            zoo row) whose result was reused.
        key: the content address it was served from.
    """

    request: VerificationRequest
    key: str


@dataclass(frozen=True)
class ViolationFound(ProgressEvent):
    """A refuted obligation, lasso, or campaign violation.

    Emitted once per counterexample when the run's results are
    assembled (engines running in worker processes cannot stream
    counterexamples as they are found).
    """

    obligation: str
    counterexample: Counterexample


@dataclass(frozen=True)
class RequestFinished(ProgressEvent):
    """The run completed; ``result`` is what :meth:`Session.run`
    returns."""

    result: VerificationResult


@dataclass(frozen=True)
class RequestFailed(ProgressEvent):
    """The run aborted — engine failure, checker refusal, or any other
    exception (which propagates to the :meth:`Session.run` caller after
    this event)."""

    request: VerificationRequest
    error: str


Subscriber = Callable[[ProgressEvent], None]


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------


class Session:
    """Runs verification requests and reports structured progress.

    Args:
        subscribers: initial progress subscribers (more via
            :meth:`subscribe`). A subscriber that raises aborts the
            run — observers are trusted code.
        engine: inject a pre-built engine (overriding each request's
            ``engine`` spec) — how tests drive an in-process
            coordinator through the public API. The session still
            enters/exits it per run.
        expand_stride: emit :class:`StatesExplored` every this many
            serial expansions.
        store: a :class:`~repro.store.backends.ResultStore`; when
            given, every run consults it before exploring anything and
            stores what it freshly proves, emitting
            :class:`ResultReused` for each hit. Zoo runs are cached at
            both granularities — the whole matrix, and one derived
            prove request per row, so a partially warm lineup only
            re-proves its misses.
        store_refresh: skip store lookups (but still store fresh
            results) — ``--store-refresh``.
        store_subsume: let a stored *proved* entry whose scope subsumes
            the request answer it (``--store-subsume``).
            Verdict-preserving but not byte-preserving — see
            :class:`~repro.store.caching.CachingEngine`.
    """

    def __init__(self, subscribers: Iterable[Subscriber] = (),
                 engine: Engine | None = None,
                 expand_stride: int = DEFAULT_EXPAND_STRIDE,
                 store: "ResultStore | None" = None,
                 store_refresh: bool = False,
                 store_subsume: bool = False) -> None:
        self._subscribers: list[Subscriber] = list(subscribers)
        self._engine = engine
        if expand_stride < 1:
            raise RequestError(
                f"expand_stride must be >= 1, got {expand_stride}"
            )
        self.expand_stride = expand_stride
        self._expand_seen = 0
        self._store = store
        self._store_refresh = store_refresh
        self._store_subsume = store_subsume

    def subscribe(self, subscriber: Subscriber) -> None:
        """Add a progress subscriber."""
        self._subscribers.append(subscriber)

    # -- event plumbing -------------------------------------------------

    def _emit(self, event: ProgressEvent) -> None:
        for subscriber in self._subscribers:
            subscriber(event)

    def _on_level(self, level: int, expanded: int, frontier: int) -> None:
        self._emit(LevelCompleted(level=level, states_expanded=expanded,
                                  frontier=frontier))

    def _on_expand(self, states: int) -> None:
        # Emit whenever the count crosses a stride boundary. The serial
        # checker reports once per BFS level (the cumulative states
        # explored) and the async explorer in merge-sized jumps, so a
        # count is emitted whenever a jump crosses a boundary.
        if states // self.expand_stride > self._expand_seen // self.expand_stride:
            self._emit(StatesExplored(states=states))
        self._expand_seen = states

    def _on_machine(self, machines: int, violations: int) -> None:
        self._emit(MachineChecked(machines=machines, violations=violations))

    def _on_reassign(self, task_index: int, worker: str) -> None:
        self._emit(ShardReassigned(task_index=task_index, worker=worker))

    def _on_partition_split(self, partition: int, source: str,
                            target: str, pending: int) -> None:
        self._emit(PartitionSplit(partition=partition, source=source,
                                  target=target, pending=pending))

    def _on_reused(self, request: VerificationRequest, key: str) -> None:
        self._emit(ResultReused(request=request, key=key))

    # -- running --------------------------------------------------------

    def run(self, request: VerificationRequest) -> VerificationResult:
        """Execute ``request`` and return its typed result.

        Raises:
            RequestError: the request is invalid (also raised eagerly
                by the request's own constructor).
            EngineError: the backend failed (worker loss, spawn
                failure, ...).
            VerificationError: an unsound parameter combination the
                checkers refuse (e.g. a non-equivariant choice under a
                symmetry quotient), or a store that cannot be written.
        """
        engine = self._engine if self._engine is not None \
            else create_engine(request.engine)
        if isinstance(engine, DistributedEngine):
            # Entering the engine copies the hooks onto the coordinator
            # (on_reassign) and the async explorer (on_partition_split).
            engine.on_reassign = self._on_reassign
            engine.on_partition_split = self._on_partition_split
        caching: CachingEngine | None = None
        if self._store is not None:
            from repro.store.caching import CachingEngine

            caching = CachingEngine(engine, self._store,
                                    refresh=self._store_refresh,
                                    subsume=self._store_subsume,
                                    on_reused=self._on_reused)
            engine = caching
        self._emit(RequestStarted(request=request,
                                  engine=engine.describe()))
        start = time.perf_counter()
        self._expand_seen = 0
        hit = False
        try:
            with TRACER.span("request." + request.kind, "session",
                             engine=engine.describe()) as root:
                result = None
                if caching is not None:
                    # Whole-request fast path: a warm request acquires
                    # no backend at all (no pool, no worker fleet).
                    result = caching.load_result(request)
                    hit = result is not None
                root.set(store_hit=hit)
                if result is None:
                    with engine:
                        runner = {
                            "prove": self._run_prove,
                            "hunt": self._run_hunt,
                            "zoo": self._run_zoo,
                            "campaign": self._run_campaign,
                        }[request.kind]
                        result = runner(request, engine)
                    if caching is not None and request.kind == "zoo":
                        # Engine-level binding stored the per-row
                        # results; the assembled matrix gets its own
                        # entry so a fully warm zoo is one lookup, not
                        # eleven.
                        caching.save_result(request, result)
        except BaseException as exc:
            self._emit(RequestFailed(request=request, error=str(exc)))
            raise
        result = result.with_timings(
            {**result.timings, "total_s": time.perf_counter() - start}
        )
        if caching is not None:
            # Provenance rides on the returned result only — stored
            # entries never carry it (the same entry is a miss once and
            # a hit ever after).
            from repro.store.keys import coverage_shards, store_key

            result = replace(result, provenance=StoreProvenance(
                store_key=store_key(request),
                shards=coverage_shards(request),
                hit=hit,
                served_from=caching.last_hit_key if hit else None,
            ))
        self._emit_violations(result)
        self._emit(RequestFinished(result=result))
        return result

    # -- streaming ------------------------------------------------------

    def iter_events(self, request: VerificationRequest) -> "EventStream":
        """Run ``request`` on a background thread, streaming its events.

        Returns an :class:`EventStream` — a plain iterator yielding
        every event a subscriber would see, in the same order, ending
        after the terminal event. Once exhausted, ``stream.result``
        holds the run's :class:`~repro.api.result.VerificationResult`;
        a failed run re-raises its error from the iterator after
        yielding :class:`RequestFailed`.

        One stream at a time per session: the stream feeds off the
        session's subscriber path, so two overlapping streaming runs on
        one session would interleave their events into both streams
        (exactly as they would for a shared subscriber).
        """
        return EventStream(self, request)

    def run_streaming(
        self, request: VerificationRequest,
    ) -> Generator[ProgressEvent, None, VerificationResult]:
        """Generator form of :meth:`iter_events`.

        Yields the run's events and *returns* the result, so a
        delegating consumer writes::

            result = yield from session.run_streaming(request)

        Plain ``for`` loops read the result off the terminal
        :class:`RequestFinished` event instead.
        """
        stream = self.iter_events(request)
        yield from stream
        return stream.result

    async def aiter_events(
        self, request: VerificationRequest,
    ) -> AsyncIterator[ProgressEvent]:
        """Asyncio adapter for :meth:`iter_events`.

        Yields the same events ``async for``-style without blocking the
        event loop (the stream's blocking reads run in the loop's
        default executor while the run itself stays on the stream's
        worker thread). The terminal :class:`RequestFinished` event
        carries the result; a failed run raises its error after
        :class:`RequestFailed`.
        """
        import asyncio

        stream = self.iter_events(request)
        loop = asyncio.get_running_loop()
        while True:
            event = await loop.run_in_executor(None, stream.next_event)
            if event is None:
                return
            yield event

    def _run_streamed(self, request: VerificationRequest,
                      deliver: Subscriber) -> VerificationResult:
        """Run with ``deliver`` temporarily subscribed (a stream's feed)."""
        self._subscribers.append(deliver)
        try:
            return self.run(request)
        finally:
            self._subscribers.remove(deliver)

    @staticmethod
    def _bound(engine: Engine,
               request: VerificationRequest) -> ContextManager[Any]:
        """Bind ``request`` on a caching engine; no-op on a bare one."""
        bind = getattr(engine, "bound", None)
        return bind(request) if bind is not None else nullcontext()

    def _progress_hooks(self, engine: Engine) -> dict[str, Any]:
        """The closure-progress kwargs this backend supports.

        Level-synchronous backends report per-level
        (:class:`LevelCompleted`); the async distributed mode has no
        levels and reports a cumulative expansion count instead
        (:class:`StatesExplored`, throttled by the session's stride,
        exactly like the serial DFS). A caching engine reports as the
        backend it wraps.
        """
        backend = getattr(engine, "inner", engine)
        if (isinstance(backend, DistributedEngine)
                and backend.mode == "async"):
            return {"on_expand": self._on_expand}
        return {"on_level": self._on_level}

    def _emit_violations(self, result: VerificationResult) -> None:
        certificates: list[WorkConservationCertificate] = []
        if result.certificate is not None:
            certificates.append(result.certificate)
        if result.zoo is not None:
            certificates.extend(result.zoo.certificates)
        for cert in certificates:
            for proof in cert.report.refuted:
                if proof.counterexample is not None:
                    self._emit(ViolationFound(
                        obligation=proof.obligation.key,
                        counterexample=proof.counterexample,
                    ))
        if result.analysis is not None and result.analysis.violated:
            lasso_cx = result.analysis.to_proof_result().counterexample
            if lasso_cx is not None:
                self._emit(ViolationFound(obligation="work_conservation",
                                          counterexample=lasso_cx))
        if result.campaign is not None:
            for violation in result.campaign.violations:
                self._emit(ViolationFound(obligation="campaign",
                                          counterexample=violation))

    # -- per-kind runners ----------------------------------------------

    def _run_prove(self, request: VerificationRequest,
                   engine: Engine) -> VerificationResult:
        resolved = request.resolve()
        assert resolved.policy is not None  # guaranteed by request validation
        with self._bound(engine, request):
            cert = engine.prove(
                resolved.policy, resolved.scope,
                choice_mode=request.choice_mode,
                max_orders=request.effective_max_orders,
                symmetry=resolved.symmetry,
                topology=resolved.topology,
                **self._progress_hooks(engine),
            )
        return result_from_certificate(request, cert)

    def _run_hunt(self, request: VerificationRequest,
                  engine: Engine) -> VerificationResult:
        from repro.api.engine import SerialEngine

        resolved = request.resolve()
        # The serial closure reports progress through the checker's
        # cumulative per-level count, not levels; a caching engine is as
        # serial as the backend it wraps.
        hooks = (
            {"on_expand": self._on_expand}
            if isinstance(getattr(engine, "inner", engine), SerialEngine)
            else self._progress_hooks(engine)
        )
        with self._bound(engine, request):
            analysis = engine.analyze(
                resolved.policy, resolved.scope,
                choice_mode=request.choice_mode,
                max_orders=request.effective_max_orders,
                symmetry=resolved.symmetry,
                topology=resolved.topology,
                hierarchy=resolved.hierarchy,
                **hooks,
            )
        return result_from_analysis(request, analysis)

    @staticmethod
    def _zoo_row_request(request: VerificationRequest, name: str,
                         kwargs: dict) -> VerificationRequest:
        """The derived prove request addressing one zoo row.

        Spelled with the zoo's *effective* scope and order cap, so the
        row shares a store entry with any equivalent standalone prove
        request on the same engine.
        """
        builder = (VerificationRequest.builder("prove")
                   .policy(name, **kwargs)
                   .scope(cores=request.cores,
                          max_load=request.effective_max_load)
                   .max_orders(request.effective_max_orders)
                   .choice_mode(request.choice_mode)
                   .symmetric(request.symmetric)
                   .no_symmetry(request.no_symmetry)
                   .topology(request.topology)
                   .engine(request.engine))
        return builder.build()

    def _run_zoo(self, request: VerificationRequest,
                 engine: Engine) -> VerificationResult:
        resolved = request.resolve()
        policies = zoo_lineup(resolved.topology)
        # With a store attached, each row is dispatched under its own
        # derived prove request: the lineup partitions into hits served
        # from the store and misses fanned out to the backend.
        entries = (zoo_lineup_entries(resolved.topology)
                   if hasattr(engine, "bound") else None)
        if entries is not None and len(entries) != len(policies):
            # The request-level lineup drifted from the built one (a
            # test pins their alignment, so this is belt-and-braces):
            # misaligned rows would store certificates under the wrong
            # addresses, so run this zoo uncached instead.
            entries = None
        certificates: list[WorkConservationCertificate] = []
        for index, policy in enumerate(policies):
            self._emit(PolicyStarted(policy=policy.name, index=index,
                                     total=len(policies)))
            if entries is not None:
                name, kwargs = entries[index]
                context: ContextManager[Any] = self._bound(
                    engine, self._zoo_row_request(request, name, kwargs)
                )
            else:
                context = nullcontext()
            with context:
                cert = engine.prove(
                    policy, resolved.scope,
                    choice_mode=request.choice_mode,
                    max_orders=request.effective_max_orders,
                    symmetry=resolved.symmetry,
                    topology=resolved.topology,
                    **self._progress_hooks(engine),
                )
            certificates.append(cert)
            self._emit(PolicyFinished(policy=policy.name, index=index,
                                      total=len(policies),
                                      proved=cert.proved))
        report = ZooReport(scope=resolved.scope.describe(),
                           certificates=certificates)
        return result_from_zoo(request, report)

    def _run_campaign(self, request: VerificationRequest,
                      engine: Engine) -> VerificationResult:
        config = request.campaign_config()
        with self._bound(engine, request):
            report: CampaignReport = engine.run_campaign(
                request.policy_factory(), config,
                on_machine=self._on_machine,
            )
        return result_from_campaign(request, report)


# ---------------------------------------------------------------------------
# streaming
# ---------------------------------------------------------------------------

_STREAM_DONE = object()  # queue sentinel: the run is over


class EventStream:
    """Iterator over one streaming run's progress events.

    Created by :meth:`Session.iter_events`. The run executes on a
    daemon worker thread; iterating yields every event the run emits —
    including those arriving from coordinator dispatch threads — in
    emission order, ending after the terminal event
    (:class:`RequestFinished` or :class:`RequestFailed`). A failed run
    re-raises its error from the iterator *after* yielding
    :class:`RequestFailed`, so consumers always observe the complete
    event sequence. Once exhausted, :attr:`result` holds the run's
    result.
    """

    def __init__(self, session: Session,
                 request: VerificationRequest) -> None:
        self.request = request
        self._queue: queue.SimpleQueue[Any] = queue.SimpleQueue()
        self._result: VerificationResult | None = None
        self._error: BaseException | None = None
        self._finished = False
        self._thread = threading.Thread(
            target=self._run, args=(session,),
            name="repro-event-stream", daemon=True,
        )
        self._thread.start()

    def _run(self, session: Session) -> None:
        try:
            self._result = session._run_streamed(self.request,
                                                 self._queue.put)
        except BaseException as exc:  # re-raised by the consumer
            self._error = exc
        finally:
            self._queue.put(_STREAM_DONE)

    def next_event(self) -> ProgressEvent | None:
        """Block for the next event; ``None`` once the run is over.

        A failed run raises its error here (once, after the final
        :class:`RequestFailed` event has been returned) instead of
        ever returning ``None``.
        """
        if self._finished:
            return None
        item = self._queue.get()
        if item is _STREAM_DONE:
            self._finished = True
            self._thread.join()
            if self._error is not None:
                raise self._error
            return None
        return item

    def __iter__(self) -> Iterator[ProgressEvent]:
        return self

    def __next__(self) -> ProgressEvent:
        event = self.next_event()
        if event is None:
            raise StopIteration
        return event

    @property
    def result(self) -> VerificationResult:
        """The run's result; available once the stream is exhausted."""
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise RequestError(
                "the stream's result is only available after iterating"
                " it to the end"
            )
        return self._result


def run_request(request: VerificationRequest,
                subscribers: Iterable[Subscriber] = (),
                ) -> VerificationResult:
    """One-shot convenience: run ``request`` on a fresh session."""
    return Session(subscribers=subscribers).run(request)
