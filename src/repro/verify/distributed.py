"""Distributed verification: coordinator/worker shard dispatch.

:mod:`repro.verify.parallel` made the §4 pipeline shard-parallel on one
host; this module lets the shards leave the machine. Its engine is a
:class:`~repro.verify.work_conservation.TaskMap`
(:func:`coordinator_tasks`): the one pipeline driver builds the same
:mod:`repro.verify.tasks` shard tasks as for every engine, a
:class:`Coordinator` hands them to workers over a pluggable transport,
each worker runs them on the same :class:`~repro.verify.tasks.
WorkerRuntime`, and the picklable shard results fold through the same
merge reducers — so the distributed verdict is byte-identical to the
pool engine's, which is byte-identical to the serial path.

Architecture
------------

* **Transports** (:class:`WorkerClient` implementations) — where a task
  runs:

  - :class:`InProcessTransport` executes tasks in the coordinator
    process, round-tripping every message through the wire encoding
    (tests and a zero-setup fallback);
  - :class:`SocketTransport` speaks the length-prefixed frame protocol
    of :mod:`repro.verify.wire` over TCP to a ``python -m repro worker
    --listen HOST:PORT`` process anywhere on the network;
  - :class:`LocalWorkerPool` spawns ``N`` worker subprocesses on
    localhost (each listening on an OS-assigned port) and connects a
    :class:`SocketTransport` to each — the reference deployment behind
    ``--distributed N``, exercising the full network stack without
    needing a second machine.

* **Scheduling** — :meth:`Coordinator.map` fans a task list across all
  live workers (one dispatch thread per worker pulling from a shared
  queue) and returns results in task order. Workers send heartbeat
  frames while computing; a worker that disconnects, times out past the
  coordinator's patience, or dies mid-task is retired and its in-flight
  task is *reassigned* to the survivors — a lost worker degrades to
  re-dispatch instead of a hung proof. Reassignment is sound because
  every task is a pure function of its payload: re-running shard ``k``
  elsewhere yields the identical shard result.

* **BFS frontier exchange** (``mode="level-sync"``) — the model
  checker's closure exploration reuses
  :func:`~repro.verify.model_checker.bfs_closure` with chunks shipped
  as :class:`~repro.verify.tasks.ExpandTask` batches: one round trip per
  BFS level, with the coordinator deduplicating canonical states between
  levels, so exploration works over high-latency links (cost per level
  is one exchange, not one per state). Workers memoize one
  :class:`~repro.verify.model_checker.ModelChecker` per checker config,
  so their transition caches persist across every level of a proof.

* **Async hash-partitioned exploration** (``mode="async"``) — the
  barrier-free alternative: canonical packed states are partitioned by
  a seed-independent hash (:func:`~repro.verify.tasks.partition_of`),
  each worker drains its own partitions *transitively* (same-partition
  successors never cross the wire) and streams cross-partition
  successors back as pipelined ``forward`` frames while still
  computing; the :class:`AsyncPartitionExplorer` routes them on,
  detects quiescence with a central counting round (every route and
  completion passes through one lock, the degenerate — and therefore
  exact — form of a Mattern-style credit scheme), steals partitions
  onto idle or late-joining workers, and reseeds migrated partitions so
  no state is ever expanded twice. The successor map is a pure function
  of the state set, so the merged graph — and every verdict and
  certificate derived from it — is byte-identical to level-sync and to
  serial regardless of partition count, scheduling, steals, or worker
  deaths.

Determinism: shard count is fixed at dispatch time (one shard per worker
known at the start of the run), merge reducers are order-independent,
and reassignment re-runs pure tasks — so worker deaths, scheduling, and
network timing cannot change a verdict. The async mode keeps the same
guarantee by a different route: its exploration *order* is timing-
dependent, but the explored *set* (the reachable closure) and each
state's successor set are not.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import tempfile
import threading
import traceback
from collections import Counter, deque
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import VerificationError
from repro.obs.trace import TRACER
from repro.verify.encoding import PackedState, StateCodec, decode_graph
from repro.verify.model_checker import (
    PackedGraph,
    TransitionGraph,
    closure_start,
)
from repro.verify.tasks import (
    CheckerConfig,
    ForwardBatch,
    PartitionControlTask,
    PartitionExpandResult,
    PartitionExpandTask,
    TracedResult,
    WorkerRuntime,
    partition_of,
)
from repro.verify.wire import (
    ERROR,
    FORMAT_JSON,
    FORWARD,
    HEARTBEAT,
    HELLO,
    PING,
    PONG,
    RESULT,
    SHUTDOWN,
    TASK,
    ConnectionClosed,
    WireMessage,
    WireProtocolError,
    decode_message,
    encode_message,
    hello_payload,
    recv_message,
    send_message,
)
from repro.verify.work_conservation import TaskMap

#: Default seconds between worker heartbeat frames during a task.
DEFAULT_HEARTBEAT_S = 1.0

#: Default seconds of frame silence before a worker is presumed dead.
DEFAULT_PATIENCE_S = 30.0

#: Default cap on how many times one task may be reassigned.
DEFAULT_MAX_REASSIGNMENTS = 3

#: Exploration modes the distributed drivers accept.
EXPLORATION_MODES = ("level-sync", "async")

#: Default hash partitions per initial worker in async mode: enough
#: headroom that idle workers and late joiners can be handed whole
#: partitions (the cheap migration unit) without re-hashing any state.
DEFAULT_PARTITIONS_PER_WORKER = 4

#: Run-id source for async explorations (unique per coordinator process;
#: verdicts never depend on it — it only namespaces worker-side state).
_RUN_IDS = itertools.count()


class WorkerLost(VerificationError):
    """Transport-level worker failure; the coordinator reassigns."""


class TaskFailed(VerificationError):
    """A task raised inside a worker; deterministic, so never reassigned."""


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` with a validated port range.

    The single parser behind ``--listen``, ``--workers`` and
    :func:`connect_workers`, so every surface rejects a malformed
    endpoint with the same one-line error instead of a downstream
    ``bind()``/``connect()`` traceback.

    Raises:
        VerificationError: not ``HOST:PORT``, or port outside 0..65535.
    """
    host, _, port_text = text.strip().rpartition(":")
    if not host or not port_text.isdigit():
        raise VerificationError(
            f"endpoint {text!r} is not HOST:PORT"
        )
    port = int(port_text)
    if port > 65535:
        raise VerificationError(
            f"endpoint {text!r}: port must be 0..65535"
        )
    return host, port


def _enable_keepalive(sock: socket.socket) -> None:
    """Arm TCP keepalive so a half-open peer cannot wedge a blocking read.

    A coordinator host that hard-crashes (no FIN) would otherwise leave
    the single-connection worker blocked in ``recv`` forever, deaf to
    every future coordinator. With these (platform-gated) knobs the OS
    declares the peer dead after ~2 minutes of silence and the read
    fails over to the accept loop.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for name, value in (("TCP_KEEPIDLE", 60), ("TCP_KEEPINTVL", 10),
                            ("TCP_KEEPCNT", 6)):
            if hasattr(socket, name):
                sock.setsockopt(socket.IPPROTO_TCP,
                                getattr(socket, name), value)
    except OSError:
        pass  # keepalive is an optimisation, never a requirement


def _disable_nagle(sock: socket.socket) -> None:
    """Send small frames at once instead of waiting for the peer's ACK.

    Task, result, heartbeat and forward frames are request/response
    sized; with Nagle's algorithm a short frame can sit in the send
    buffer until the previous one is acknowledged.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # a latency optimisation, never a requirement


def _ingest_traced(value: Any, worker: str) -> Any:
    """Unwrap a :class:`TracedResult`, merging its spans.

    The single point worker results re-enter the coordinator: spans
    captured remotely land on the local timeline (clock-offset rebased,
    attributed to ``worker``) and callers only ever see the inner
    result. Plain results pass through untouched, so the reducers are
    oblivious to tracing either way.
    """
    if isinstance(value, TracedResult):
        TRACER.ingest(value.spans, clock=value.clock, worker=worker,
                      pid=value.pid)
        return value.value
    return value


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class WorkerServer:
    """A TCP worker: accepts coordinators, executes tasks, heartbeats.

    One coordinator connection is served at a time (shard dispatch gives
    every worker exactly one coordinator); after a coordinator
    disconnects the server keeps accepting, so a long-lived ``python -m
    repro worker --listen`` terminal serves any number of consecutive
    proof runs. A ``shutdown`` frame stops the server for good.

    Attributes:
        host: bind address.
        port: bind port (0 lets the OS choose; see :attr:`bound_port`).
        heartbeat_s: seconds between heartbeat frames during a task.
    """

    #: Floor on the heartbeat interval: below this a task would spin the
    #: serving thread and flood the socket instead of computing.
    MIN_HEARTBEAT_S = 0.05

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        self.host = host
        self.port = port
        self.heartbeat_s = max(heartbeat_s, self.MIN_HEARTBEAT_S)
        self.bound_port: int | None = None
        self._shutdown = threading.Event()
        self._server: socket.socket | None = None

    def shutdown(self) -> None:
        """Ask :meth:`serve_forever` to stop after the current connection."""
        self._shutdown.set()

    def serve_forever(
        self, announce: Callable[[str], None] | None = None,
        ready: threading.Event | None = None,
    ) -> None:
        """Bind, announce ``listening on HOST:PORT``, and serve.

        Args:
            announce: sink for the one announcement line (defaults to
                printing on stdout, which ``LocalWorkerPool`` parses to
                learn OS-assigned ports).
            ready: optional event set once the socket is listening
                (threaded tests synchronise on it).
        """
        with socket.create_server(
            (self.host, self.port), reuse_port=False
        ) as server:
            self._server = server
            self.bound_port = server.getsockname()[1]
            line = f"repro-worker listening on {self.host}:{self.bound_port}"
            if announce is None:
                print(line, flush=True)
            else:
                announce(line)
            if ready is not None:
                ready.set()
            server.settimeout(0.2)
            while not self._shutdown.is_set():
                try:
                    conn, _addr = server.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.settimeout(None)
                    _enable_keepalive(conn)
                    _disable_nagle(conn)
                    self._serve_connection(conn)
        self._server = None

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one coordinator until it hangs up or shuts us down.

        Each connection gets a private :class:`WorkerRuntime`: checker
        memos only pay off within one proof run (one connection), and a
        task thread orphaned by a vanished coordinator must not share
        mutable state with the next coordinator's tasks. (The orphan
        itself runs to completion of its one task and exits — pure
        Python compute cannot be cancelled preemptively.)
        """
        runtime = WorkerRuntime()
        # One writer lock per connection: during an async partition task
        # the task thread streams FORWARD frames while the serving
        # thread heartbeats — interleaved frame bytes would corrupt the
        # stream, so every send on this socket takes the lock.
        send_lock = threading.Lock()
        while True:
            try:
                message = recv_message(conn)
            except (ConnectionClosed, OSError):
                return
            except WireProtocolError as exc:
                # Tell the peer why before hanging up — this is how a
                # coordinator from another release learns it is a
                # version mismatch rather than a dead worker.
                try:
                    send_message(
                        conn,
                        WireMessage(kind=ERROR,
                                    payload={"traceback": str(exc)}),
                        fmt=FORMAT_JSON,
                    )
                except OSError:
                    pass
                return
            try:
                if message.kind == HELLO:
                    send_message(
                        conn, WireMessage(kind=HELLO,
                                          payload=hello_payload()),
                        fmt=FORMAT_JSON,
                    )
                elif message.kind == PING:
                    send_message(conn, WireMessage(kind=PONG),
                                 fmt=FORMAT_JSON)
                elif message.kind == SHUTDOWN:
                    self._shutdown.set()
                    return
                elif message.kind == TASK:
                    self._serve_task(conn, message, runtime, send_lock)
                else:
                    return  # kinds a worker never receives
            except (ConnectionClosed, OSError):
                return

    def _serve_task(self, conn: socket.socket, message: WireMessage,
                    runtime: WorkerRuntime,
                    send_lock: threading.Lock) -> None:
        """Execute one task, heartbeating until the result is ready.

        Async partition tasks additionally stream :data:`FORWARD`
        frames through ``emit`` while running; the shared ``send_lock``
        keeps them whole against concurrent heartbeats.
        """
        box: list[tuple[str, Any]] = []

        def emit(frame: ForwardBatch) -> None:
            with send_lock:
                send_message(conn, WireMessage(kind=FORWARD,
                                               task_id=message.task_id,
                                               payload=frame))

        def run() -> None:
            try:
                box.append((RESULT,
                            runtime.execute(message.payload, emit=emit)))
            except BaseException:
                box.append((ERROR, traceback.format_exc()))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        while True:
            thread.join(self.heartbeat_s)
            if not thread.is_alive():
                break
            with send_lock:
                send_message(
                    conn,
                    WireMessage(kind=HEARTBEAT, task_id=message.task_id),
                    fmt=FORMAT_JSON,
                )
        kind, value = box[0]
        if kind == RESULT:
            with send_lock:
                send_message(conn, WireMessage(kind=RESULT,
                                               task_id=message.task_id,
                                               payload=value))
        else:
            with send_lock:
                send_message(
                    conn,
                    WireMessage(kind=ERROR, task_id=message.task_id,
                                payload={"traceback": value}),
                    fmt=FORMAT_JSON,
                )


# ---------------------------------------------------------------------------
# coordinator side: transports
# ---------------------------------------------------------------------------


class WorkerClient:
    """One dispatchable worker, however its tasks actually run.

    Subclasses implement :meth:`submit` (run one task payload to
    completion, raising :class:`WorkerLost` on transport death and
    :class:`TaskFailed` on an in-task exception) and :meth:`close`.
    A client is used by at most one coordinator thread at a time.

    Attributes:
        on_forward: mid-task frame sink. When set, transports deliver
            each :class:`~repro.verify.tasks.ForwardBatch` the worker
            streams *during* :meth:`submit` to this callable (from the
            submitting thread); the async explorer points it at its
            router. When ``None``, frames are dropped (level-sync tasks
            never emit any).
    """

    name = "worker"
    on_forward: Callable[[ForwardBatch], None] | None = None

    def submit(self, task_id: int, payload: Any) -> Any:
        raise NotImplementedError

    def close(self, shutdown: bool = False) -> None:
        """Release the transport; ``shutdown`` also stops the worker."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class InProcessTransport(WorkerClient):
    """Executes tasks in the coordinator process, through the wire.

    Every task and result round-trips through
    :func:`~repro.verify.wire.encode_message` /
    :func:`~repro.verify.wire.decode_message`, so anything that would not
    survive a real network hop fails here too — which is what makes the
    in-process equivalence tests meaningful.
    """

    def __init__(self, name: str = "in-process") -> None:
        self.name = name
        self._runtime = WorkerRuntime()

    def submit(self, task_id: int, payload: Any) -> Any:
        request = decode_message(encode_message(
            WireMessage(kind=TASK, task_id=task_id, payload=payload)
        ))

        def emit(frame: ForwardBatch) -> None:
            if self.on_forward is None:
                return
            hop = decode_message(encode_message(
                WireMessage(kind=FORWARD, task_id=task_id, payload=frame)
            ))
            self.on_forward(hop.payload)

        try:
            result = self._runtime.execute(request.payload, emit=emit)
        except Exception as exc:
            raise TaskFailed(
                f"task {task_id} failed on {self.name}: {exc}"
            ) from exc
        reply = decode_message(encode_message(
            WireMessage(kind=RESULT, task_id=task_id, payload=result)
        ))
        return reply.payload


class SocketTransport(WorkerClient):
    """A persistent TCP connection to one :class:`WorkerServer`.

    Connects and handshakes eagerly in the constructor (version mismatch
    fails the run before any shard is dispatched, not mid-proof). While a
    task runs the worker heartbeats every ``heartbeat_s``; a silence
    longer than ``patience_s`` — no heartbeat, no result — means the
    worker is dead or wedged, and :meth:`submit` raises
    :class:`WorkerLost` so the coordinator can reassign.
    """

    def __init__(self, host: str, port: int,
                 patience_s: float = DEFAULT_PATIENCE_S,
                 connect_timeout_s: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.patience_s = patience_s
        self.name = f"{host}:{port}"
        self._sock: socket.socket | None = None
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout_s
            )
            _disable_nagle(self._sock)
            self._sock.settimeout(patience_s)
            send_message(self._sock,
                         WireMessage(kind=HELLO, payload=hello_payload()),
                         fmt=FORMAT_JSON)
            reply = recv_message(self._sock)
            if reply.kind == ERROR:
                detail = (reply.payload or {}).get("traceback", "")
                raise WireProtocolError(
                    f"worker {self.name} rejected the handshake: {detail}"
                )
            if reply.kind != HELLO:
                raise WireProtocolError(
                    f"worker {self.name} answered hello with {reply.kind!r}"
                )
        except (OSError, WireProtocolError) as exc:
            self.close()
            raise WorkerLost(
                f"cannot establish worker {self.name}: {exc}"
            ) from exc

    def submit(self, task_id: int, payload: Any) -> Any:
        assert self._sock is not None, "transport is closed"
        try:
            send_message(self._sock, WireMessage(kind=TASK, task_id=task_id,
                                                 payload=payload))
            while True:
                message = recv_message(self._sock)
                if message.kind == HEARTBEAT:
                    continue  # still alive; the recv timeout re-arms
                if message.kind == FORWARD:
                    # Mid-task stream: route and keep waiting (a forward
                    # frame proves liveness just like a heartbeat).
                    if self.on_forward is not None:
                        self.on_forward(message.payload)
                    continue
                if message.kind == RESULT:
                    return message.payload
                if message.kind == ERROR:
                    detail = (message.payload or {}).get("traceback", "")
                    raise TaskFailed(
                        f"task {task_id} failed on worker {self.name}:\n"
                        f"{detail}"
                    )
                raise WireProtocolError(
                    f"unexpected {message.kind!r} while awaiting task"
                    f" {task_id}"
                )
        except TaskFailed:
            raise
        except socket.timeout as exc:
            raise WorkerLost(
                f"worker {self.name} silent for {self.patience_s}s"
            ) from exc
        except (OSError, WireProtocolError) as exc:
            raise WorkerLost(f"worker {self.name} lost: {exc}") from exc

    def ping(self) -> bool:
        """Cheap liveness probe outside any task."""
        if self._sock is None:
            return False
        try:
            send_message(self._sock, WireMessage(kind=PING),
                         fmt=FORMAT_JSON)
            return recv_message(self._sock).kind == PONG
        except (OSError, WireProtocolError):
            return False

    def close(self, shutdown: bool = False) -> None:
        if self._sock is None:
            return
        try:
            if shutdown:
                send_message(self._sock, WireMessage(kind=SHUTDOWN),
                             fmt=FORMAT_JSON)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------


class Coordinator:
    """Fans task lists across workers; reassigns on worker loss.

    Attributes:
        max_reassignments: how many times one task may be re-dispatched
            after worker deaths before the run is declared failed.
        on_reassign: optional observer called as ``on_reassign(task_index,
            worker_name)`` whenever a lost worker's in-flight task is
            requeued for the survivors — the hook behind
            :class:`repro.api`'s ``ShardReassigned`` progress events.
            Called from a dispatch thread; it must not block and cannot
            influence scheduling.
    """

    def __init__(self, clients: Sequence[WorkerClient],
                 max_reassignments: int = DEFAULT_MAX_REASSIGNMENTS) -> None:
        if not clients:
            raise VerificationError("a coordinator needs at least one worker")
        self._clients: list[WorkerClient] = list(clients)
        self._retired: list[WorkerClient] = []
        self.max_reassignments = max_reassignments
        self.on_reassign: Callable[[int, str], None] | None = None
        self._membership_listeners: list[
            Callable[[WorkerClient], None]
        ] = []

    @property
    def n_workers(self) -> int:
        """Live workers — the shard count new dispatches will use."""
        return len(self._clients)

    @property
    def clients(self) -> tuple[WorkerClient, ...]:
        """Snapshot of the live workers."""
        return tuple(self._clients)

    @property
    def lost_workers(self) -> list[str]:
        """Names of workers retired after transport failures."""
        return [client.name for client in self._retired]

    def add_worker(self, client: WorkerClient) -> None:
        """Admit a worker mid-run (dynamic membership).

        Level-synchronous :meth:`map` calls snapshot their worker set at
        dispatch time, so a late joiner only helps from the *next* map
        onward; an in-progress async exploration subscribes through
        :meth:`add_membership_listener` and puts the newcomer to work
        immediately (it starts by stealing a partition).
        """
        self._clients.append(client)
        for listener in list(self._membership_listeners):
            listener(client)

    def retire(self, client: WorkerClient) -> None:
        """Retire a worker after a transport failure (idempotent)."""
        self._retire(client)

    def add_membership_listener(
        self, listener: Callable[[WorkerClient], None]
    ) -> None:
        """Register a callback fired with each :meth:`add_worker` client."""
        self._membership_listeners.append(listener)

    def remove_membership_listener(
        self, listener: Callable[[WorkerClient], None]
    ) -> None:
        if listener in self._membership_listeners:
            self._membership_listeners.remove(listener)

    def map(self, payloads: Sequence[Any]) -> list[Any]:
        """Run every payload on some worker; results in payload order.

        One dispatch thread per live worker pulls tasks from a shared
        queue. A :class:`WorkerLost` retires that worker and requeues its
        task (up to :attr:`max_reassignments` times) for the survivors; a
        :class:`TaskFailed` aborts the whole map — the task is a pure
        function of its payload, so it would fail anywhere.

        Raises:
            WorkerLost: every worker died, or a task exhausted its
                reassignment budget.
            TaskFailed: a task raised inside a worker.
        """
        if not payloads:
            return []
        if not self._clients:
            raise WorkerLost("no live workers remain")
        n_tasks = len(payloads)
        results: list[Any] = [None] * n_tasks
        pending: deque[tuple[int, int]] = deque(
            (index, 0) for index in range(n_tasks)
        )
        completed = 0
        failure: Exception | None = None
        cond = threading.Condition()

        def dispatch(client: WorkerClient) -> None:
            nonlocal completed, failure
            while True:
                with cond:
                    while (not pending and completed < n_tasks
                           and failure is None):
                        cond.wait()
                    if failure is not None or completed == n_tasks:
                        return
                    index, attempts = pending.popleft()
                try:
                    with TRACER.span("coordinator.dispatch",
                                     "coordinator", task=index,
                                     worker=client.name,
                                     kind=type(payloads[index]).__name__):
                        value = _ingest_traced(
                            client.submit(index, payloads[index]),
                            client.name,
                        )
                except WorkerLost as exc:
                    requeued = False
                    with cond:
                        self._retire(client)
                        if attempts >= self.max_reassignments:
                            if failure is None:
                                failure = WorkerLost(
                                    f"task {index} lost {attempts + 1}"
                                    f" workers (last: {exc})"
                                )
                        elif not self._clients:
                            if failure is None:
                                failure = WorkerLost(
                                    f"all workers lost (last: {exc})"
                                )
                        else:
                            pending.append((index, attempts + 1))
                            requeued = True
                        cond.notify_all()
                    # Observer runs outside the lock: a slow callback
                    # must not stall the surviving dispatch threads.
                    if requeued and self.on_reassign is not None:
                        self.on_reassign(index, client.name)
                    return
                except Exception as exc:
                    with cond:
                        # A TaskFailed recorded by another thread wins:
                        # it names the deterministic in-task bug, which a
                        # concurrent transport loss must not mask.
                        if failure is None or not isinstance(
                            failure, TaskFailed
                        ):
                            failure = exc
                        cond.notify_all()
                    return
                with cond:
                    results[index] = value
                    completed += 1
                    cond.notify_all()

        threads = [
            threading.Thread(target=dispatch, args=(client,), daemon=True)
            for client in list(self._clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failure is not None:
            raise failure
        return results

    def _retire(self, client: WorkerClient) -> None:
        if client in self._clients:
            self._clients.remove(client)
            self._retired.append(client)
        client.close()

    def close(self, shutdown: bool = False) -> None:
        """Close every live transport (optionally stopping the workers).

        A clean close is not a failure: the closed clients do *not* join
        :attr:`lost_workers`, which only ever names transport casualties.
        """
        for client in self._clients:
            client.close(shutdown=shutdown)
        self._clients = []

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LocalWorkerPool:
    """``N`` subprocess workers on localhost — the reference deployment.

    Spawns ``python -m repro worker --listen 127.0.0.1:0`` subprocesses,
    parses each worker's announcement line for its OS-assigned port, and
    connects a :class:`SocketTransport` to each — so ``--distributed N``
    exercises exactly the protocol a real multi-machine deployment uses,
    TCP and all. Use as a context manager; exit shuts the workers down.
    """

    #: Seconds a spawned worker gets to announce its port before the
    #: pool declares it wedged (covers slow imports on loaded hosts).
    STARTUP_TIMEOUT_S = 60.0

    def __init__(self, n_workers: int,
                 patience_s: float = DEFAULT_PATIENCE_S,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        if n_workers < 1:
            raise VerificationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.processes: list[subprocess.Popen] = []
        self._stderr_files: list[Any] = []
        clients: list[WorkerClient] = []
        try:
            for _ in range(n_workers):
                # stderr goes to an unbounded temp file, not a pipe: a
                # chatty worker must never block on a full pipe buffer
                # mid-task (which would read as a heartbeat timeout),
                # and the file stays readable for crash diagnostics.
                stderr_file = tempfile.TemporaryFile(mode="w+")
                process = subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--listen", "127.0.0.1:0",
                     "--heartbeat", str(heartbeat_s)],
                    stdout=subprocess.PIPE,
                    stderr=stderr_file,
                    text=True,
                    env=self._worker_env(),
                )
                self.processes.append(process)
                self._stderr_files.append(stderr_file)
            for process, stderr_file in zip(self.processes,
                                            self._stderr_files):
                clients.append(SocketTransport(
                    "127.0.0.1", self._read_port(process, stderr_file),
                    patience_s=patience_s,
                ))
        except BaseException:
            for client in clients:
                client.close()
            self._terminate()
            raise
        self.coordinator = Coordinator(clients)

    @staticmethod
    def _worker_env() -> dict[str, str]:
        """Subprocess environment with this ``repro`` on the path."""
        import repro

        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)
        ))
        env = os.environ.copy()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        return env

    @classmethod
    def _read_port(cls, process: subprocess.Popen,
                   stderr_file: Any) -> int:
        """Parse ``listening on HOST:PORT`` from a worker's stdout.

        Bounded by :attr:`STARTUP_TIMEOUT_S` (a worker that wedges
        before announcing must fail the run, not hang it) via a reader
        thread — portable to platforms where ``select`` cannot wait on
        pipes — and quotes the worker's stderr on failure so a crashed
        subprocess is diagnosable.
        """
        stdout = process.stdout
        assert stdout is not None
        box: list[str] = []

        def read() -> None:
            box.append(stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(cls.STARTUP_TIMEOUT_S)
        line = box[0] if box else ""
        if "listening on" not in line:
            diagnosis = f"said {line!r}" if box else (
                f"no announcement within {cls.STARTUP_TIMEOUT_S}s"
            )
            try:
                # A crashing worker EOFs stdout a beat before it exits
                # and flushes stderr; give it that beat.
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
            if process.poll() is not None:
                stderr_file.seek(0)
                stderr_tail = stderr_file.read()[-2000:].strip()
                if stderr_tail:
                    diagnosis += f"; stderr: {stderr_tail}"
            raise WorkerLost(
                f"worker subprocess {process.pid} failed to start"
                f" ({diagnosis})"
            )
        return int(line.rsplit(":", 1)[1])

    def _terminate(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        for stderr_file in self._stderr_files:
            try:
                stderr_file.close()
            except OSError:
                pass
        self._stderr_files = []

    def __enter__(self) -> Coordinator:
        return self.coordinator

    def __exit__(self, *exc_info: object) -> None:
        self.coordinator.close(shutdown=True)
        self._terminate()


def connect_workers(endpoints: Iterable[str],
                    patience_s: float = DEFAULT_PATIENCE_S) -> Coordinator:
    """Coordinator over ``host:port`` endpoints (the ``--workers`` flag).

    Raises:
        VerificationError: malformed endpoint.
        WorkerLost: an endpoint refused the connection or handshake.
    """
    clients: list[WorkerClient] = []
    try:
        for endpoint in endpoints:
            host, port = parse_endpoint(endpoint)
            clients.append(SocketTransport(host, port,
                                           patience_s=patience_s))
    except BaseException:
        for client in clients:
            client.close()
        raise
    return Coordinator(clients)


# ---------------------------------------------------------------------------
# async hash-partitioned exploration
# ---------------------------------------------------------------------------


class AsyncPartitionExplorer:
    """Barrier-free closure exploration over hash partitions.

    The reachable state space is split into ``n_partitions`` by
    :func:`~repro.verify.tasks.partition_of`; every partition has
    exactly one owning worker at any moment, and workers drain their
    partitions continuously — there is no BFS level and no barrier.
    All coordinator-side state lives behind one condition variable:

    * ``inbox[p]`` — routed-but-undispatched states of partition ``p``;
    * ``routed`` — every state ever placed in an inbox *or* already
      expanded (the global dedup set);
    * ``edges`` / ``expanded[p]`` — the merged packed graph and its
      per-partition key sets (the seed payload for migrations);
    * ``in_flight[p]`` — the batch currently on the wire for ``p``.

    **Termination** is a counting round in the Mattern style collapsed
    to its exact central case: every route (+) and every merged result
    (−) passes through the one lock, so "all inboxes empty and nothing
    in flight" *is* global quiescence, with no probe messages needed.

    **Work stealing / dynamic membership**: a worker with no pending
    partition of its own takes the fullest pending partition from an
    owner that still keeps ≥ 2 non-empty ones; a worker added through
    :meth:`Coordinator.add_worker` mid-run joins the same way. A stolen
    or reassigned partition is *re-seeded* — the heir's visited set is
    replaced with the partition's already-expanded keys — so migration
    never re-expands a state and never loses one.

    **Fault tolerance** mirrors :meth:`Coordinator.map`: a lost worker
    is retired, its in-flight batch re-queued, and its partitions
    spread over the survivors, budgeted per partition by
    ``max_reassignments``; a :class:`TaskFailed` aborts the run
    (deterministic — it would fail anywhere).
    """

    #: States per expand batch. Small enough to pipeline (forwards for
    #: an early batch route while later ones are still queued), large
    #: enough that framing never dominates.
    BATCH_CAP = 512

    def __init__(self, coordinator: Coordinator, config: CheckerConfig,
                 codec: StateCodec, n_partitions: int,
                 on_expand: Callable[[int], None] | None = None,
                 on_partition_split:
                     "Callable[[int, str, str, int], None] | None" = None,
                 ) -> None:
        if n_partitions < 1:
            raise VerificationError(
                f"n_partitions must be >= 1, got {n_partitions}"
            )
        self.coordinator = coordinator
        self.config = config
        self.codec = codec
        self.n_partitions = n_partitions
        self.on_expand = on_expand
        self.on_partition_split = on_partition_split
        self.run_id = f"async-{os.getpid()}-{next(_RUN_IDS)}"
        self._cond = threading.Condition()
        self._inbox: dict[int, set[PackedState]] = {
            p: set() for p in range(n_partitions)
        }
        self._routed: set[PackedState] = set()
        self._edges: PackedGraph = {}
        self._expanded: dict[int, set[PackedState]] = {
            p: set() for p in range(n_partitions)
        }
        self._truncated = False
        self._assignment: dict[int, WorkerClient] = {}
        self._needs_seed: set[int] = set()
        self._in_flight: dict[int, tuple[WorkerClient,
                                         tuple[PackedState, ...]]] = {}
        self._attempts: dict[int, int] = {p: 0 for p in range(n_partitions)}
        self._live: list[WorkerClient] = []
        self._threads: list[threading.Thread] = []
        self._failure: Exception | None = None
        self._finished = False
        self._task_ids = itertools.count()
        self._expand_lock = threading.Lock()
        self._reported = 0

    # -- routing (callers hold self._cond) ------------------------------

    def _route(self, states: Iterable[PackedState]) -> None:
        """Place never-before-seen states in their partition inboxes."""
        for packed in states:
            if packed in self._routed:
                continue
            self._routed.add(packed)
            partition = partition_of(packed, self.codec, self.n_partitions)
            self._inbox[partition].add(packed)

    def _route_to(self, partition: int,
                  states: Iterable[PackedState]) -> None:
        """:meth:`_route` for states the sender already hashed.

        Forward frames and task results arrive grouped by target
        partition, computed worker-side with the same pure
        ``partition_of`` over the same codec and partition count —
        re-hashing each state here would be pure coordinator overhead,
        paid under the one condition lock.
        """
        inbox = self._inbox[partition]
        routed = self._routed
        for packed in states:
            if packed not in routed:
                routed.add(packed)
                inbox.add(packed)

    def _on_forward(self, frame: ForwardBatch) -> None:
        """Transport sink for mid-task forward frames."""
        if frame.run_id != self.run_id:
            return  # a stale frame from a previous run on this worker
        if TRACER.enabled:
            TRACER.instant(
                "async.forward", "async", partition=frame.partition,
                targets=len(frame.targets),
                states=sum(len(states)
                           for states in frame.targets.values()),
            )
        with self._cond:
            for target, states in frame.targets.items():
                self._route_to(target, states)
            self._cond.notify_all()

    def _quiescent(self) -> bool:
        return not self._in_flight and not any(self._inbox.values())

    # -- scheduling (callers hold self._cond) ---------------------------

    def _pick(self, client: WorkerClient) -> int | None:
        """The client's own next dispatchable partition, if any."""
        mine = [p for p, owner in self._assignment.items()
                if owner is client and self._inbox[p]
                and p not in self._in_flight]
        return min(mine) if mine else None

    def _steal(self, client: WorkerClient) -> tuple[int, str] | None:
        """Move one pending partition from a loaded owner to ``client``.

        Only owners that would keep at least one non-empty partition
        are victims (otherwise two idle workers would trade the last
        partition back and forth); among eligible partitions the
        fullest inbox moves, since it buys the thief the most runway.
        """
        candidates = [p for p, owner in self._assignment.items()
                      if owner is not client and self._inbox[p]
                      and p not in self._in_flight]
        if not candidates:
            return None
        loads = Counter(
            self._assignment[p] for p in range(self.n_partitions)
            if self._inbox[p] or p in self._in_flight
        )
        eligible = [p for p in candidates
                    if loads[self._assignment[p]] >= 2]
        if not eligible:
            return None
        partition = max(eligible, key=lambda p: (len(self._inbox[p]), -p))
        source = self._assignment[partition]
        self._assignment[partition] = client
        self._needs_seed.add(partition)
        return partition, source.name

    # -- dispatch threads ------------------------------------------------

    def _dispatch(self, client: WorkerClient) -> None:
        while True:
            split_event: tuple[int, str, str, int] | None = None
            seed_task: PartitionControlTask | None = None
            with self._cond:
                while True:
                    if self._failure is not None or self._finished:
                        return
                    partition = self._pick(client)
                    if partition is None:
                        stolen = self._steal(client)
                        if stolen is not None:
                            partition, source_name = stolen
                            split_event = (partition, source_name,
                                           client.name,
                                           len(self._inbox[partition]))
                    if partition is not None:
                        break
                    if self._quiescent():
                        self._finished = True
                        self._cond.notify_all()
                        return
                    self._cond.wait()
                batch = tuple(sorted(
                    self._inbox[partition]
                ))[:self.BATCH_CAP]
                self._inbox[partition].difference_update(batch)
                self._in_flight[partition] = (client, batch)
                if partition in self._needs_seed:
                    seed_task = PartitionControlTask(
                        run_id=self.run_id, op="seed", partition=partition,
                        visited=tuple(sorted(self._expanded[partition])),
                    )
            # Hooks fire outside the lock: a slow observer must not
            # stall routing or the other dispatch threads.
            if split_event is not None and self.on_partition_split:
                self.on_partition_split(*split_event)
            if split_event is not None and TRACER.enabled:
                TRACER.instant("async.steal", "async",
                               partition=split_event[0],
                               source=split_event[1],
                               thief=split_event[2],
                               pending=split_event[3])
            try:
                if seed_task is not None:
                    _ingest_traced(
                        client.submit(next(self._task_ids), seed_task),
                        client.name,
                    )
                    with self._cond:
                        self._needs_seed.discard(partition)
                with TRACER.span("async.expand", "async",
                                 partition=partition, batch=len(batch),
                                 worker=client.name) as span:
                    result = _ingest_traced(
                        client.submit(
                            next(self._task_ids),
                            PartitionExpandTask(
                                config=self.config, codec=self.codec,
                                run_id=self.run_id, partition=partition,
                                n_partitions=self.n_partitions,
                                batch=batch,
                                trace=TRACER.enabled,
                            ),
                        ),
                        client.name,
                    )
                    span.set(edges=len(result.edges),
                             inbox=len(self._inbox[partition]))
            except WorkerLost as exc:
                self._handle_loss(client, partition, batch, exc)
                return
            except Exception as exc:
                with self._cond:
                    # A TaskFailed recorded by another thread wins: it
                    # names the deterministic in-task bug.
                    if self._failure is None or not isinstance(
                        self._failure, TaskFailed
                    ):
                        self._failure = exc
                    self._cond.notify_all()
                return
            self._merge(partition, result)

    def _merge(self, partition: int,
               result: PartitionExpandResult) -> None:
        with self._cond:
            self._in_flight.pop(partition, None)
            self._edges.update(result.edges)
            self._expanded[partition].update(result.edges.keys())
            self._truncated = self._truncated or result.truncated
            # Everything just expanded counts as routed (forwards from
            # other partitions must not re-queue it) and leaves the
            # inbox (a racing forward may have re-queued it already).
            self._routed.update(result.edges.keys())
            self._inbox[partition].difference_update(result.edges.keys())
            for target, states in result.forwards.items():
                self._route_to(target, states)
            self._attempts[partition] = 0
            count = len(self._edges)
            self._cond.notify_all()
        if self.on_expand is not None:
            # Serialise and monotonise progress reports: merges race,
            # and a cumulative counter must never appear to go back.
            with self._expand_lock:
                if count > self._reported:
                    self._reported = count
                    self.on_expand(count)

    def _handle_loss(self, client: WorkerClient, partition: int,
                     batch: tuple[PackedState, ...],
                     exc: WorkerLost) -> None:
        reassign_events: list[tuple[int, str]] = []
        with self._cond:
            self._in_flight.pop(partition, None)
            self._inbox[partition].update(batch)
            self._attempts[partition] += 1
            if client in self._live:
                self._live.remove(client)
            self.coordinator.retire(client)
            if self._attempts[partition] > self.coordinator.max_reassignments:
                if self._failure is None:
                    self._failure = WorkerLost(
                        f"partition {partition} lost"
                        f" {self._attempts[partition]} workers"
                        f" (last: {exc})"
                    )
            elif not self._live:
                if self._failure is None:
                    self._failure = WorkerLost(
                        f"all workers lost (last: {exc})"
                    )
            else:
                orphans = sorted(
                    p for p, owner in self._assignment.items()
                    if owner is client
                )
                for index, orphan in enumerate(orphans):
                    heir = self._live[index % len(self._live)]
                    self._assignment[orphan] = heir
                    self._needs_seed.add(orphan)
                reassign_events = [(orphan, client.name)
                                   for orphan in orphans]
            self._cond.notify_all()
        if self.coordinator.on_reassign is not None:
            for orphan, name in reassign_events:
                self.coordinator.on_reassign(orphan, name)

    def _on_worker_added(self, client: WorkerClient) -> None:
        with self._cond:
            if self._finished or self._failure is not None:
                return
            client.on_forward = self._on_forward
            self._live.append(client)
            thread = threading.Thread(target=self._dispatch,
                                      args=(client,), daemon=True)
            self._threads.append(thread)
            self._cond.notify_all()
        thread.start()

    # -- entry point -----------------------------------------------------

    def run(self, initial_packed: Iterable[PackedState]
            ) -> tuple[PackedGraph, bool]:
        """Explore the closure of ``initial_packed``; packed graph out.

        Raises:
            WorkerLost: every worker died, or a partition exhausted the
                coordinator's reassignment budget.
            TaskFailed: a task raised inside a worker.
        """
        clients = list(self.coordinator.clients)
        if not clients:
            raise WorkerLost("no live workers to dispatch partitions to")
        for client in clients:
            client.on_forward = self._on_forward
        self._live = list(clients)
        for partition in range(self.n_partitions):
            self._assignment[partition] = clients[partition % len(clients)]
        with self._cond:
            self._route(initial_packed)
        self.coordinator.add_membership_listener(self._on_worker_added)
        try:
            # Started from a local list: a worker joining while these
            # start appends (and starts) its own thread in _threads.
            threads = [
                threading.Thread(target=self._dispatch, args=(client,),
                                 daemon=True)
                for client in clients
            ]
            with self._cond:
                self._threads.extend(threads)
            for thread in threads:
                thread.start()
            while True:
                with self._cond:
                    threads = list(self._threads)
                alive = [t for t in threads if t.is_alive()]
                if not alive:
                    break
                for thread in alive:
                    thread.join()
        finally:
            self.coordinator.remove_membership_listener(
                self._on_worker_added
            )
            for client in list(self.coordinator.clients):
                client.on_forward = None
        if self._failure is not None:
            raise self._failure
        self._drop_run()
        return dict(self._edges), self._truncated

    def _drop_run(self) -> None:
        """Best-effort worker-side cleanup; failure cannot matter now."""
        for client in list(self.coordinator.clients):
            try:
                client.submit(
                    next(self._task_ids),
                    PartitionControlTask(run_id=self.run_id, op="drop-run"),
                )
            except (WorkerLost, TaskFailed):
                pass


def async_closure(coordinator: Coordinator, config: CheckerConfig,
                  initial_states,
                  n_partitions: int | None = None,
                  on_expand: Callable[[int], None] | None = None,
                  on_partition_split:
                      "Callable[[int, str, str, int], None] | None" = None,
                  ) -> tuple[TransitionGraph, bool]:
    """Async counterpart of :func:`~repro.verify.model_checker.bfs_closure`.

    Same contract — canonical initial states in, decoded tuple graph
    out — with the level loop replaced by an
    :class:`AsyncPartitionExplorer` run, quotiented by
    ``config.symmetry``. The canonicalisation and codec
    derivation (:func:`~repro.verify.model_checker.closure_start`) and
    the final decode are the ones ``bfs_closure`` runs, so both modes
    feed byte-identical graphs to every downstream consumer.
    """
    start = closure_start(initial_states, config.symmetry)
    if start is None:
        return {}, False
    codec, frontier = start
    if n_partitions is None:
        n_partitions = max(
            1, DEFAULT_PARTITIONS_PER_WORKER * coordinator.n_workers
        )
    explorer = AsyncPartitionExplorer(
        coordinator, config, codec, n_partitions,
        on_expand=on_expand, on_partition_split=on_partition_split,
    )
    edges, truncated = explorer.run(frontier.tolist())
    return decode_graph(codec, edges), truncated


def resolve_mode(mode: str) -> str:
    """Validate an exploration mode name (one-line error on typos)."""
    if mode not in EXPLORATION_MODES:
        raise VerificationError(
            f"unknown exploration mode {mode!r}:"
            f" expected one of {', '.join(EXPLORATION_MODES)}"
        )
    return mode


# ---------------------------------------------------------------------------
# drivers (one shard per worker)
# ---------------------------------------------------------------------------


def coordinator_tasks(
    coordinator: Coordinator, mode: str = "level-sync",
    partitions: int | None = None,
    on_partition_split:
        "Callable[[int, str, str, int], None] | None" = None,
) -> TaskMap:
    """The distributed engine's
    :class:`~repro.verify.work_conservation.TaskMap`.

    One shard per live worker, mapped through :meth:`Coordinator.map`.
    ``mode`` selects how the closure runs: ``"level-sync"`` (the
    barriered :func:`~repro.verify.model_checker.bfs_closure` over
    mapped expand tasks, reporting levels) or ``"async"`` (the
    barrier-free :func:`async_closure` over ``partitions`` hash
    partitions, reporting cumulative progress and steals through
    ``on_partition_split``). The sweep phases are mode-independent —
    their shard split stays one per worker either way, which is why
    both modes share one store coverage class.

    Raises:
        VerificationError: unknown ``mode``.
        WorkerLost: the coordinator has no live worker.
    """
    resolve_mode(mode)
    if coordinator.n_workers < 1:
        raise WorkerLost("no live workers to dispatch shards to")
    if mode == "level-sync":
        return TaskMap(coordinator.n_workers, coordinator.map)

    def explore_async(config, initial_states, on_expand):
        return async_closure(
            coordinator, config, initial_states, n_partitions=partitions,
            on_expand=on_expand, on_partition_split=on_partition_split,
        )

    return TaskMap(coordinator.n_workers, coordinator.map, explore_async)

