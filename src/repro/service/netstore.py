"""``NetworkStore``: the proof store behind ``tcp://host:port``.

A :class:`~repro.store.backends.ResultStore` whose entries live on a
:class:`~repro.service.server.StoreServer`. Accepted anywhere
``--store DIR`` works — ``python -m repro prove ... --store
tcp://cache:7App`` is the same run with a shared cache — and designed
around one rule: **the cache may disappear, the answer may not.**

* Connect and read timeouts bound every network wait.
* Connection attempts retry a bounded number of times with exponential
  backoff, then declare the server *down* for a cooldown window —
  subsequent lookups fail fast instead of re-paying the timeout.
* While down (or denied), every protocol method degrades to the empty
  store: ``load`` misses, ``save`` drops the entry, ``keys`` is empty,
  ``remove`` is False. The inner engine simply proves what the cache
  cannot provide; killing the server mid-run costs warm latency, never
  the result.
* Every entry received is re-validated client-side
  (:func:`~repro.store.backends.decode_entry` re-hashes the embedded
  request against the key), so a hostile or corrupt server produces
  misses, not wrong answers.

:meth:`NetworkStore.ping` is the loud variant for startup checks: it
raises :class:`StoreUnavailable` with the server's denial reason, so a
misconfigured ``--store-auth`` surfaces immediately instead of as a
silently cold fleet.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable

from repro.api.result import VerificationResult
from repro.core.errors import VerificationError
from repro.framing import WireProtocolError, parse_endpoint
from repro.obs.trace import TRACER, trace_clock
from repro.store.backends import StoreError, decode_entry, encode_entry

from repro.service import wire

#: ``--store`` values with this scheme name a store server.
URL_SCHEME = "tcp://"

#: Default seconds to wait for a TCP connect.
DEFAULT_CONNECT_TIMEOUT_S = 2.0
#: Default seconds to wait for each response frame.
DEFAULT_READ_TIMEOUT_S = 10.0
#: Default extra connection attempts after the first failure.
DEFAULT_RETRIES = 2
#: Default first backoff (doubles per retry).
DEFAULT_BACKOFF_S = 0.05
#: Default seconds the server stays declared down after the retry
#: budget is spent.
DEFAULT_COOLDOWN_S = 5.0


class StoreUnavailable(VerificationError):
    """The store server cannot be used (unreachable, or it denied the
    handshake)."""


def is_store_url(value: str) -> bool:
    """Whether a ``--store`` argument names a server, not a directory."""
    return value.strip().lower().startswith(URL_SCHEME)


def parse_store_url(url: str) -> tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``.

    Raises:
        StoreUnavailable: a malformed URL (wrong scheme, or not
            ``host:port`` with a port in 1..65535).
    """
    stripped = url.strip()
    if not is_store_url(stripped):
        raise StoreUnavailable(
            f"store URL {url!r} does not start with {URL_SCHEME!r}"
        )
    try:
        host, port = parse_endpoint(stripped[len(URL_SCHEME):].rstrip("/"))
    except VerificationError as exc:
        raise StoreUnavailable(f"store URL {url!r}: {exc}") from None
    if port == 0:
        raise StoreUnavailable(f"store URL {url!r} names port 0")
    return host, port


class NetworkStore:
    """A :class:`~repro.store.backends.ResultStore` served over TCP.

    One persistent authenticated connection, guarded by a lock (the
    caching engine calls from one thread at a time; the lock makes
    sharing an instance across threads merely slow, not wrong).

    Args:
        host: server host.
        port: server port.
        secret: shared secret for the HMAC challenge (must match the
            server's ``--auth``; ``None`` for an open server).
        connect_timeout: seconds per TCP connect attempt.
        read_timeout: seconds per response frame.
        retries: extra connect attempts after the first failure.
        backoff_s: first retry's sleep; doubles per retry.
        cooldown_s: how long the server stays declared down once the
            retry budget is spent (lookups fail fast meanwhile).
    """

    def __init__(self, host: str, port: int, *,
                 secret: str | None = None,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT_S,
                 read_timeout: float = DEFAULT_READ_TIMEOUT_S,
                 retries: int = DEFAULT_RETRIES,
                 backoff_s: float = DEFAULT_BACKOFF_S,
                 cooldown_s: float = DEFAULT_COOLDOWN_S) -> None:
        self.host = host
        self.port = port
        self.secret = secret
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._down_until = 0.0
        self._denied: str | None = None
        # Injectable for fault-injection tests.
        self._sleep: Callable[[float], None] = time.sleep
        self._clock: Callable[[], float] = time.monotonic
        #: RPC observer: called after every exchange with ``(kind,
        #: seconds, request_bytes)`` — success or failure, bytes 0 when
        #: the frame never left. The HTTP service hooks its round-trip
        #: histogram here.
        self.on_rpc: Callable[[str, float, int], None] | None = None

    @classmethod
    def from_url(cls, url: str, **kwargs: Any) -> "NetworkStore":
        """Build from a ``tcp://host:port`` spelling."""
        host, port = parse_store_url(url)
        return cls(host, port, **kwargs)

    def describe(self) -> str:
        return f"net[{URL_SCHEME}{self.host}:{self.port}]"

    # -- connection management ------------------------------------------

    def close(self) -> None:
        """Drop the connection (it reopens on the next use)."""
        with self._lock:
            self._drop()

    def ping(self) -> None:
        """Connect and authenticate, raising on failure.

        Raises:
            StoreUnavailable: unreachable server, version skew, or a
                denied handshake — with the reason.
        """
        with self._lock:
            self._down_until = 0.0  # a ping is an explicit fresh try
            self._denied = None
            self._ensure_connected()

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure_connected(self) -> socket.socket:
        """The live connection, dialling (with bounded retry) if needed.

        Raises:
            StoreUnavailable: still in cooldown, previously denied, or
                every attempt failed.
        """
        if self._sock is not None:
            return self._sock
        if self._denied is not None:
            raise StoreUnavailable(
                f"store server {self.host}:{self.port} denied this"
                f" client: {self._denied}"
            )
        now = self._clock()
        if now < self._down_until:
            raise StoreUnavailable(
                f"store server {self.host}:{self.port} is in its"
                " unreachable cooldown"
            )
        failure: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff_s * (2 ** (attempt - 1)))
            try:
                sock = self._dial()
                self._sock = sock
                self._down_until = 0.0
                return sock
            except StoreUnavailable:
                self._drop()
                raise  # denial is final, not retryable
            except (OSError, WireProtocolError) as exc:
                failure = exc
                self._drop()
        self._down_until = self._clock() + self.cooldown_s
        raise StoreUnavailable(
            f"store server {self.host}:{self.port} unreachable after"
            f" {self.retries + 1} attempts: {failure}"
        )

    def _dial(self) -> socket.socket:
        """One connect + handshake attempt."""
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout)
        try:
            sock.settimeout(self.read_timeout)
            kind, payload = wire.recv_frame(sock)
            if kind != wire.CHALLENGE:
                raise WireProtocolError(
                    f"expected a challenge, got {kind!r}"
                )
            auth = (wire.auth_digest(self.secret, str(payload.get("nonce")))
                    if self.secret is not None else None)
            wire.send_frame(sock, wire.HELLO, {
                "version": wire.SERVICE_WIRE_VERSION, "auth": auth,
            })
            kind, payload = wire.recv_frame(sock)
            if kind == wire.DENIED:
                self._denied = str(payload.get("reason", "denied"))
                raise StoreUnavailable(
                    f"store server {self.host}:{self.port} denied this"
                    f" client: {self._denied}"
                )
            if kind != wire.WELCOME:
                raise WireProtocolError(
                    f"expected a welcome, got {kind!r}"
                )
            return sock
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise

    def _request(self, kind: str, payload: dict[str, Any],
                 ) -> tuple[str, dict[str, Any]]:
        """One request/response exchange.

        A failure mid-exchange retries once on a fresh connection (the
        persistent socket may simply have been idled out); a second
        failure propagates as :class:`StoreUnavailable`.

        Observability: the exchange is traced as a ``store.rpc`` span
        (kind, attempts, bytes on the wire) and reported to
        :attr:`on_rpc` whether it succeeds or fails.

        Raises:
            StoreUnavailable: the server cannot be reached or answered
                unusably.
        """
        started = trace_clock()
        sent_bytes = 0
        with TRACER.span("store.rpc", "netstore", kind=kind) as span:
            try:
                with self._lock:
                    for attempt in range(2):
                        sock = self._ensure_connected()
                        try:
                            frame = wire.encode_frame(kind, payload)
                            sent_bytes = len(frame)
                            sock.sendall(frame)
                            reply = wire.recv_frame(sock)
                            span.set(attempts=attempt + 1,
                                     sent_bytes=sent_bytes)
                            return reply
                        except (OSError,
                                WireProtocolError) as exc:
                            self._drop()
                            if attempt:
                                self._down_until = (self._clock()
                                                    + self.cooldown_s)
                                raise StoreUnavailable(
                                    f"store server"
                                    f" {self.host}:{self.port}"
                                    f" failed mid-request: {exc}"
                                ) from exc
                    raise AssertionError("unreachable")
            finally:
                if self.on_rpc is not None:
                    self.on_rpc(kind, trace_clock() - started,
                                sent_bytes)

    # -- the ResultStore protocol (degrading) ---------------------------

    def load(self, key: str) -> VerificationResult | None:
        try:
            kind, payload = self._request(wire.GET, {"key": key})
        except StoreUnavailable:
            return None
        if kind != wire.ENTRY:
            return None
        entry = payload.get("entry")
        if not isinstance(entry, str):
            return None
        try:
            # Client-side validation: the server is not trusted.
            return decode_entry(key, entry)
        except StoreError:
            return None

    def save(self, key: str, result: VerificationResult) -> None:
        try:
            self._request(wire.PUT,
                          {"key": key, "entry": encode_entry(key, result)})
        except StoreUnavailable:
            return  # a dropped cache write never fails the run

    def keys(self) -> tuple[str, ...]:
        try:
            kind, payload = self._request(wire.LIST, {})
        except StoreUnavailable:
            return ()
        if kind != wire.KEYS:
            return ()
        keys = payload.get("keys")
        if not isinstance(keys, list):
            return ()
        return tuple(sorted(k for k in keys if isinstance(k, str)))

    def remove(self, key: str) -> bool:
        try:
            kind, payload = self._request(wire.REMOVE, {"key": key})
        except StoreUnavailable:
            return False
        return kind == wire.OK and bool(payload.get("removed"))

    def touch(self, key: str, *, now: float | None = None) -> None:
        """No-op: the server stamps last access on every ``get`` hit,
        so an extra round trip per hit would buy nothing. The wire
        ``touch`` frame exists for tools that want to stamp without
        fetching; see :meth:`touch_remote`."""
        return

    def touch_remote(self, key: str) -> None:
        """Explicitly stamp ``key``'s last access on the server."""
        try:
            self._request(wire.TOUCH, {"key": key})
        except StoreUnavailable:
            return

    def server_stats(self) -> dict[str, int]:
        """The server's request counters.

        Raises:
            StoreUnavailable: the server cannot be reached.
        """
        kind, payload = self._request(wire.GET_STATS, {})
        if kind != wire.STATS:
            raise StoreUnavailable(
                f"store server answered stats with {kind!r}"
            )
        return {k: int(v) for k, v in payload.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)}
