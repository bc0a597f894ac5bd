"""The HTTP verification front end (``python -m repro serve``).

A stdlib-``asyncio`` HTTP/1.1 server — no frameworks, no new deps —
that turns the streaming Session API into a service:

* ``POST /run-spec`` with a spec document (the same JSON ``run-spec``
  loads from disk) executes its runs on a worker thread and streams
  every :class:`~repro.api.session.ProgressEvent` back as it happens:
  NDJSON by default, Server-Sent Events when the client sends
  ``Accept: text/event-stream``. The stream's final event carries the
  full report — the exact ``[{"run", "store_key", "result"}, ...]``
  document ``run-spec --json`` writes — plus the exit code. With
  ``Accept: application/json`` the events are skipped and the response
  body *is* that report document.
* Warm requests are answered straight from the configured store: the
  session enters its engine only on a store miss, so a fully
  warm ``POST`` explores nothing and returns in store-lookup time.
* ``GET /healthz`` answers liveness; ``GET /metrics`` exposes the
  hit/miss/inflight/eviction counters — as the historical JSON document
  by default, or as Prometheus text exposition (including run-latency,
  store-round-trip, and streamed-event histograms/counters) when the
  client sends ``Accept: text/plain``.
* ``POST /gc`` runs the store's eviction pass (age / LRU-size /
  subsumption policies from the JSON body) and feeds the eviction
  counter.

Authentication mirrors the store server's model at HTTP grain: started
with a secret, every ``POST`` must carry ``Authorization: Bearer
<secret>`` (constant-time compare); reads stay open. Run the service
behind TLS termination if the network is hostile — the secret, unlike
the store protocol's HMAC, does cross this wire.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hmac
import json
import threading
from typing import Any, AsyncIterator, Mapping

from repro.api.request import VerificationRequest
from repro.api.result import VerificationResult
from repro.api.session import ProgressEvent, Session
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACER

#: Largest accepted request body (a spec document; far below this).
MAX_BODY_BYTES = 1 << 22

_JSON = "application/json"
_NDJSON = "application/x-ndjson"
_SSE = "text/event-stream"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


def event_to_dict(event: ProgressEvent) -> dict[str, Any]:
    """One event as a JSON-safe document: ``{"event": <class name>,
    <field>: <value>, ...}``.

    Requests flatten to their one-line description plus kind (the full
    request document already rides in the final report); results to
    verdict and exit code; anything else non-primitive to ``str()``.
    """
    data: dict[str, Any] = {"event": type(event).__name__}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if isinstance(value, VerificationRequest):
            data[field.name] = {"kind": value.kind,
                                "describe": value.describe()}
        elif isinstance(value, VerificationResult):
            data[field.name] = {"verdict": value.verdict.value,
                                "exit_code": value.exit_code}
        elif isinstance(value, (str, int, float, bool)) or value is None:
            data[field.name] = value
        else:
            data[field.name] = str(value)
    return data


class ServiceMetrics:
    """The ``/metrics`` instruments, shared across request handlers.

    Built on :class:`~repro.obs.metrics.MetricsRegistry` so one set of
    instruments serves both wire formats: :meth:`snapshot` keeps the
    historical flat-integer JSON document byte-for-byte, while
    :meth:`render_prometheus` exposes the same families — plus the
    run-latency, store-round-trip, and streamed-event instruments that
    have no flat-integer shape — as Prometheus text exposition.
    """

    _COUNTERS = (
        ("requests", "POST /run-spec requests accepted."),
        ("runs", "Spec runs executed (hit or miss)."),
        ("hits", "Runs answered straight from the store."),
        ("misses", "Runs that actually explored."),
        ("evictions", "Store entries removed via POST /gc."),
        ("failures", "Spec executions that raised."),
    )

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"repro_service_{name}_total",
                                        help_text)
            for name, help_text in self._COUNTERS
        }
        self._inflight = self.registry.gauge(
            "repro_service_inflight", "Specs currently executing.")
        self.run_seconds = self.registry.histogram(
            "repro_service_run_seconds",
            "Wall time of one spec run, by store outcome.",
            labelnames=("outcome",))
        self.stream_events = self.registry.counter(
            "repro_service_stream_events_total",
            "Progress-event documents streamed to clients.")
        self.store_rpc_seconds = self.registry.histogram(
            "repro_service_store_rpc_seconds",
            "NetworkStore round-trips, by request kind.",
            labelnames=("kind",))

    def bump(self, counter: str, by: int = 1) -> None:
        if counter == "inflight":
            self._inflight.inc(by)
        else:
            self._counters[counter].inc(by)

    def observe_run(self, seconds: float, hit: bool) -> None:
        outcome = "hit" if hit else "miss"
        self.run_seconds.labels(outcome=outcome).observe(seconds)

    def observe_store_rpc(self, kind: str, seconds: float,
                          request_bytes: int) -> None:
        """The :attr:`NetworkStore.on_rpc` hook signature."""
        del request_bytes  # latency is the axis worth a histogram
        self.store_rpc_seconds.labels(kind=kind).observe(seconds)

    def snapshot(self) -> dict[str, int]:
        snap = {name: int(child.value)
                for name, child in self._counters.items()}
        snap["inflight"] = int(self._inflight.value)
        return snap

    def render_prometheus(self) -> str:
        return self.registry.render()


class VerificationService:
    """The handler behind ``python -m repro serve``.

    Args:
        store: a :class:`~repro.store.backends.ResultStore` every spec
            run consults (``None`` disables caching — every run is
            cold).
        store_refresh: skip lookups, still store fresh results.
        store_subsume: let proved superset-scope entries answer.
        secret: when given, require ``Authorization: Bearer <secret>``
            on every POST.
    """

    def __init__(self, store: Any | None = None, *,
                 store_refresh: bool = False,
                 store_subsume: bool = False,
                 secret: str | None = None) -> None:
        self.store = store
        self.store_refresh = store_refresh
        self.store_subsume = store_subsume
        self.secret = secret
        self.metrics = ServiceMetrics()
        # A network-backed store reports every round-trip into the
        # store-RPC histogram; local backends have no such hook.
        if store is not None and hasattr(store, "on_rpc"):
            store.on_rpc = self.metrics.observe_store_rpc
        self._server: asyncio.Server | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the resolved address."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port,
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, path, headers, body = request
                await self._dispatch(writer, method, path, headers, body)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader,
                            ) -> tuple[str, str, dict[str, str],
                                       bytes] | None:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        try:
            method, target, _version = \
                request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        # An oversized body is never read; the dispatcher rejects it
        # off the declared length.
        if not 0 < length <= MAX_BODY_BYTES:
            return method.upper(), target, headers, b""
        return method.upper(), target, headers, \
            await reader.readexactly(length)

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       body: bytes, content_type: str = _JSON) -> None:
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    @staticmethod
    def _json_bytes(document: Any) -> bytes:
        return (json.dumps(document, indent=2, sort_keys=True) + "\n") \
            .encode("utf-8")

    async def _reject(self, writer: asyncio.StreamWriter, status: int,
                      reason: str) -> None:
        await self._respond(writer, status,
                            self._json_bytes({"error": reason}))

    def _authorized(self, headers: Mapping[str, str]) -> bool:
        if self.secret is None:
            return True
        header = headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        return (scheme.lower() == "bearer"
                and hmac.compare_digest(token.strip(), self.secret))

    # -- routing --------------------------------------------------------

    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        path: str, headers: Mapping[str, str],
                        body: bytes) -> None:
        path = path.split("?", 1)[0]
        with TRACER.span("http.request", "service", method=method,
                         path=path, bytes=len(body)):
            await self._route(writer, method, path, headers, body)

    async def _route(self, writer: asyncio.StreamWriter, method: str,
                     path: str, headers: Mapping[str, str],
                     body: bytes) -> None:
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200,
                                self._json_bytes({"status": "ok"}))
        elif path == "/metrics" and method == "GET":
            if "text/plain" in headers.get("accept", ""):
                body = self.metrics.render_prometheus().encode("utf-8")
                await self._respond(writer, 200, body,
                                    content_type=_PROMETHEUS)
                return
            document = dict(self.metrics.snapshot())
            document["store"] = (self.store.describe()
                                 if self.store is not None else None)
            await self._respond(writer, 200, self._json_bytes(document))
        elif path == "/run-spec" and method == "POST":
            if not self._authorized(headers):
                await self._reject(writer, 401, "missing or bad bearer"
                                                " token")
                return
            try:
                declared = int(headers.get("content-length", "0"))
            except ValueError:
                declared = 0
            if declared > MAX_BODY_BYTES:
                await self._reject(writer, 413, "spec document too large")
                return
            await self._run_spec(writer, headers, body)
        elif path == "/gc" and method == "POST":
            if not self._authorized(headers):
                await self._reject(writer, 401, "missing or bad bearer"
                                                " token")
                return
            await self._gc(writer, body)
        elif path in ("/healthz", "/metrics", "/run-spec", "/gc"):
            await self._reject(writer, 405, f"{method} not supported"
                                            f" on {path}")
        else:
            await self._reject(writer, 404, f"no such endpoint {path!r}")

    # -- POST /gc -------------------------------------------------------

    async def _gc(self, writer: asyncio.StreamWriter,
                  body: bytes) -> None:
        gc = getattr(self.store, "gc", None)
        if gc is None:
            await self._reject(writer, 400, "the configured store has no"
                                            " eviction pass")
            return
        try:
            options = json.loads(body) if body.strip() else {}
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError.
            await self._reject(writer, 400, f"gc body is not JSON: {exc}")
            return
        if not isinstance(options, dict):
            await self._reject(writer, 400, "gc body must be an object")
            return
        try:
            report = await asyncio.get_running_loop().run_in_executor(
                None, lambda: gc(
                    max_age_days=options.get("max_age_days"),
                    max_entries=options.get("max_entries"),
                    subsume=bool(options.get("subsume", False)),
                ),
            )
        except (TypeError, ValueError) as exc:
            await self._reject(writer, 400, f"bad gc options: {exc}")
            return
        self.metrics.bump("evictions", len(report.evicted))
        await self._respond(writer, 200, self._json_bytes({
            "checked": report.checked,
            "kept": report.kept,
            "evicted": [[key, reason] for key, reason in report.evicted],
        }))

    # -- POST /run-spec -------------------------------------------------

    async def _run_spec(self, writer: asyncio.StreamWriter,
                        headers: Mapping[str, str], body: bytes) -> None:
        from repro.api.spec import SpecError, parse_spec

        try:
            document = json.loads(body.decode("utf-8"))
            if not isinstance(document, dict):
                raise SpecError("a spec must be a JSON object")
            spec = parse_spec(document)
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            await self._reject(writer, 400, f"spec body is not JSON: {exc}")
            return
        except SpecError as exc:
            await self._reject(writer, 400, str(exc))
            return

        accept = headers.get("accept", "")
        mode = (_SSE if _SSE in accept
                else _JSON if _JSON in accept and _NDJSON not in accept
                else _NDJSON)
        self.metrics.bump("requests")
        self.metrics.bump("inflight")
        try:
            if mode == _JSON:
                outcome = await self._execute(spec)
                await self._finish_plain(writer, outcome)
            else:
                await self._stream(writer, spec, mode)
        finally:
            self.metrics.bump("inflight", -1)

    def _session(self, subscriber: Any = None) -> Session:
        return Session(
            subscribers=(subscriber,) if subscriber is not None else (),
            store=self.store,
            store_refresh=self.store_refresh,
            store_subsume=self.store_subsume,
        )

    def _count_run(self, result: VerificationResult) -> None:
        self.metrics.bump("runs")
        hit = result.provenance is not None and result.provenance.hit
        self.metrics.bump("hits" if hit else "misses")
        self.metrics.observe_run(
            float(result.timings.get("total_s", 0.0)), hit)

    @staticmethod
    def _report_entry(run: Any,
                      result: VerificationResult) -> dict[str, Any]:
        from repro.api.report import result_to_dict
        from repro.store.keys import store_key

        # The same shape run-spec --json writes, so an HTTP client and
        # a local run produce interchangeable report documents.
        return {"run": run.name, "store_key": store_key(run.request),
                "result": result_to_dict(result)}

    async def _execute(self, spec: Any) -> dict[str, Any]:
        """Run every spec run on a worker thread; the final report."""
        def work() -> dict[str, Any]:
            session = self._session()
            report, exit_code = [], 0
            for run in spec.runs:
                result = session.run(run.request)
                self._count_run(result)
                report.append(self._report_entry(run, result))
                exit_code = max(exit_code, result.exit_code)
            return {"report": report, "exit_code": exit_code}

        try:
            return await asyncio.get_running_loop().run_in_executor(
                None, work)
        except Exception as exc:  # surfaced as an error document
            self.metrics.bump("failures")
            return {"error": str(exc), "exit_code": 70}

    async def _finish_plain(self, writer: asyncio.StreamWriter,
                            outcome: dict[str, Any]) -> None:
        if "error" in outcome:
            await self._respond(writer, 500, self._json_bytes(outcome))
        else:
            await self._respond(writer, 200,
                                self._json_bytes(outcome["report"]))

    async def _stream(self, writer: asyncio.StreamWriter, spec: Any,
                      mode: str) -> None:
        """Execute the spec on a worker thread, relaying every event."""
        writer.write(
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {mode}\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        async for document in self._spec_events(spec):
            payload = json.dumps(document, sort_keys=True)
            if mode == _SSE:
                writer.write(f"data: {payload}\n\n".encode("utf-8"))
            else:
                writer.write(f"{payload}\n".encode("utf-8"))
            self.metrics.stream_events.inc()
            await writer.drain()

    async def _spec_events(self, spec: Any,
                           ) -> AsyncIterator[dict[str, Any]]:
        """Every event document of a spec execution, ending with either
        ``spec_finished`` (report + exit code) or ``spec_failed``."""
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()

        def emit(document: dict[str, Any] | None) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, document)

        def work() -> None:
            try:
                session = self._session(
                    lambda event: emit(event_to_dict(event)))
                report, exit_code = [], 0
                for run in spec.runs:
                    emit({"event": "RunStarted", "run": run.name})
                    result = session.run(run.request)
                    self._count_run(result)
                    report.append(self._report_entry(run, result))
                    exit_code = max(exit_code, result.exit_code)
                emit({"event": "spec_finished", "report": report,
                      "exit_code": exit_code})
            except Exception as exc:
                self.metrics.bump("failures")
                emit({"event": "spec_failed", "error": str(exc),
                      "exit_code": 70})
            finally:
                emit(None)

        thread = threading.Thread(target=work, name="repro-serve-spec",
                                  daemon=True)
        thread.start()
        while True:
            document = await queue.get()
            if document is None:
                break
            yield document
        await loop.run_in_executor(None, thread.join)
