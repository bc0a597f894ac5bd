"""The proof-store server: one ``FileStore``, any number of engines.

:class:`StoreServer` listens on a TCP port and speaks the framed JSON
protocol of :mod:`repro.service.wire`, fronting any backend with the
raw-entry face (``load_text``/``save_text`` — in practice a
:class:`~repro.store.backends.FileStore`). A ``--distributed`` or async
worker fleet pointed at it with ``--store tcp://host:port`` shares one
cache: the first engine to prove a scope pays for it, everyone else
replays it.

The server is deliberately dumb about *content*: it moves raw entry
documents and lets both ends validate. ``save_text`` refuses any
document the store could not read back (wrong address, skewed wire
version, malformed result), and every client re-validates what it
receives — so the server can corrupt availability, never answers.

Threading model: one daemon thread per connection plus one acceptor;
the :class:`~repro.store.backends.FileStore` is already safe for
concurrent writers (atomic temp-file replaces), and the counters take
a lock. This is a cache, not a database — a crashed server loses
nothing but warm latency.
"""

from __future__ import annotations

import secrets
import socket
import threading
from typing import Any

from repro.framing import ConnectionClosed, WireProtocolError
from repro.obs.metrics import MetricsRegistry
from repro.store.backends import StoreError

from repro.service import wire

#: How long a connection may sit idle mid-handshake before the server
#: reclaims its thread.
HANDSHAKE_TIMEOUT_S = 10.0


class StoreServer:
    """A threaded TCP front for one result store.

    Args:
        store: the backend to front; must expose the raw-entry face
            (``load_text``/``save_text``) next to the
            :class:`~repro.store.backends.ResultStore` protocol.
        host: interface to bind.
        port: port to bind (0 picks a free one; see :attr:`address`).
        secret: when given, every connection must answer the HMAC
            challenge (see :mod:`repro.service.wire`); when ``None``
            the server is open.
    """

    def __init__(self, store: Any, host: str = "127.0.0.1",
                 port: int = 0, *, secret: str | None = None) -> None:
        self.store = store
        self.secret = secret
        self._listener = socket.create_server((host, port))
        # A blocked accept() does not reliably wake when another thread
        # closes the listener; poll the shutdown flag instead.
        self._listener.settimeout(0.1)
        self._closed = threading.Event()
        self._accept_thread: threading.Thread | None = None
        # Counters live in a MetricsRegistry so the server can be
        # scraped (via registry.render()) next to the HTTP front end;
        # stats() keeps serving the flat dict GET_STATS always carried.
        self.registry = MetricsRegistry()
        self._stats = {
            name: self.registry.counter(f"repro_store_{name}_total",
                                        help_text)
            for name, help_text in (
                ("hits", "GET frames answered with an entry."),
                ("misses", "GET frames answered with a miss."),
                ("puts", "PUT frames accepted."),
                ("removals", "REMOVE frames that deleted an entry."),
                ("connections", "TCP connections accepted."),
                ("denied", "Connections refused at the handshake."),
            )
        }

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolved even when created with
        port 0."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> "StoreServer":
        """Start accepting connections on a background thread."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-store-server",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections on the calling thread until closed."""
        self._accept_loop()

    def close(self) -> None:
        """Stop accepting and close the listening socket. In-flight
        connections finish their current frame and then drop."""
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability --------------------------------------------------

    def stats(self) -> dict[str, int]:
        """A snapshot of the request counters."""
        return {name: int(counter.value)
                for name, counter in self._stats.items()}

    def _count(self, counter: str) -> None:
        self._stats[counter].inc()

    # -- the accept loop ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue  # re-check the shutdown flag
            except OSError:
                return  # listener closed
            conn.settimeout(None)
            self._count("connections")
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-store-conn", daemon=True,
            ).start()

    # -- one connection -------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                if not self._handshake(conn):
                    return
                conn.settimeout(None)
                while not self._closed.is_set():
                    try:
                        kind, payload = wire.recv_frame(conn)
                    except ConnectionClosed:
                        return
                    if kind == wire.BYE:
                        return
                    self._answer(conn, kind, payload)
        except (WireProtocolError, OSError):
            return  # a broken peer costs one thread, nothing shared

    def _handshake(self, conn: socket.socket) -> bool:
        """Challenge the peer; True when it may proceed."""
        conn.settimeout(HANDSHAKE_TIMEOUT_S)
        nonce = secrets.token_hex(16)
        wire.send_frame(conn, wire.CHALLENGE, {
            "nonce": nonce, "version": wire.SERVICE_WIRE_VERSION,
        })
        try:
            kind, payload = wire.recv_frame(conn)
        except WireProtocolError:
            # Includes version skew: the peer's hello frame carries its
            # version in the envelope and decode_frame refused it.
            self._deny(conn, "unreadable hello (version skew?)")
            return False
        except socket.timeout:
            return False
        if kind != wire.HELLO:
            self._deny(conn, f"expected hello, got {kind!r}")
            return False
        if payload.get("version") != wire.SERVICE_WIRE_VERSION:
            self._deny(conn, "service wire version mismatch")
            return False
        if self.secret is not None and not wire.verify_auth(
                self.secret, nonce, payload.get("auth")):
            self._deny(conn, "authentication failed")
            return False
        wire.send_frame(conn, wire.WELCOME, {})
        return True

    def _deny(self, conn: socket.socket, reason: str) -> None:
        self._count("denied")
        try:
            wire.send_frame(conn, wire.DENIED, {"reason": reason})
        except OSError:
            pass

    def _answer(self, conn: socket.socket, kind: str,
                payload: dict[str, Any]) -> None:
        if kind == wire.GET:
            key = str(payload.get("key", ""))
            text = self.store.load_text(key)
            if text is None:
                self._count("misses")
                wire.send_frame(conn, wire.MISS, {"key": key})
            else:
                self._count("hits")
                self._touch(key)
                wire.send_frame(conn, wire.ENTRY,
                                {"key": key, "entry": text})
        elif kind == wire.PUT:
            key = str(payload.get("key", ""))
            entry = payload.get("entry")
            if not isinstance(entry, str):
                wire.send_frame(conn, wire.ERROR,
                                {"reason": "put without an entry body"})
                return
            try:
                self.store.save_text(key, entry)
            except StoreError as exc:
                wire.send_frame(conn, wire.ERROR, {"reason": str(exc)})
                return
            self._count("puts")
            wire.send_frame(conn, wire.OK, {"key": key})
        elif kind == wire.LIST:
            wire.send_frame(conn, wire.KEYS,
                            {"keys": list(self.store.keys())})
        elif kind == wire.REMOVE:
            key = str(payload.get("key", ""))
            removed = bool(self.store.remove(key))
            if removed:
                self._count("removals")
            wire.send_frame(conn, wire.OK,
                            {"key": key, "removed": removed})
        elif kind == wire.TOUCH:
            key = str(payload.get("key", ""))
            self._touch(key)
            wire.send_frame(conn, wire.OK, {"key": key})
        elif kind == wire.GET_STATS:
            wire.send_frame(conn, wire.STATS, self.stats())
        else:
            wire.send_frame(conn, wire.ERROR,
                            {"reason": f"unexpected frame kind {kind!r}"})

    def _touch(self, key: str) -> None:
        toucher = getattr(self.store, "touch", None)
        if toucher is not None:
            toucher(key)
