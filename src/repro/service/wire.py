"""The proof-store service's wire protocol.

The store vocabulary over the shared framing layer of
:mod:`repro.framing`: every message is one ``4-byte big-endian length
|| UTF-8 JSON body`` frame — JSON *only*, because store entries are
JSON documents already and a cache server exposed on a network must
never execute ``pickle`` from its peers. The whole protocol can be
spoken (and debugged) with ``nc`` plus a hex editor for the length
prefix.

Every envelope carries ``{"v": SERVICE_WIRE_VERSION, "kind",
"payload"}``; :func:`decode_frame` rejects any other version with
:class:`~repro.framing.WireProtocolError`, so a client and server from
different releases refuse each other at the handshake instead of
mis-serving entries.

Handshake and authentication
----------------------------

On connect the server speaks first::

    server -> client   challenge {"nonce": <hex>, "version": V}
    client -> server   hello     {"version": V, "auth": <hmac hex>}
    server -> client   welcome   {}           (or: denied {...}, close)

``auth`` is ``HMAC-SHA256(secret, nonce)`` over the server's random
per-connection nonce (:func:`auth_digest`) — the shared secret never
crosses the wire, and a captured digest is useless against the next
connection's nonce. A server started without a secret accepts any
``auth`` value (including none); a server started *with* one compares
digests in constant time and drops the connection on mismatch.

After the handshake the client issues requests (``get``/``put``/
``keys``/``remove``/``touch``/``stats``/``bye``) and the server answers
each with exactly one response frame (``entry``/``miss``/``ok``/
``keys``/``stats``/``error``).
"""

from __future__ import annotations

import hashlib
import hmac
import socket
from typing import Any

from repro import framing
from repro.framing import WireProtocolError

#: Protocol version; bump on any incompatible envelope or payload
#: change. Independent of :data:`repro.verify.wire.WIRE_VERSION` (the
#: coordinator/worker protocol): store *entries* carry their own wire
#: version inside the entry document, which the client re-validates on
#: every load.
SERVICE_WIRE_VERSION = 1

#: Refuse frames larger than this (corrupt length prefix / wrong peer).
MAX_FRAME_BYTES = 1 << 26

# Server -> client kinds.
CHALLENGE = "challenge"  #: first frame: {"nonce", "version"}
WELCOME = "welcome"      #: handshake accepted
DENIED = "denied"        #: handshake rejected: {"reason"}; then close
ENTRY = "entry"          #: get hit: {"key", "entry"}
MISS = "miss"            #: get miss: {"key"}
OK = "ok"                #: put/remove/touch ack: {"key", ...}
KEYS = "keys"            #: keys response: {"keys": [...]}
STATS = "stats"          #: stats response: counter mapping
ERROR = "error"          #: request-level failure: {"reason"}

# Client -> server kinds.
HELLO = "hello"          #: handshake response: {"version", "auth"}
GET = "get"              #: {"key"}
PUT = "put"              #: {"key", "entry"}
LIST = "list"            #: {} -> KEYS
REMOVE = "remove"        #: {"key"} -> OK {"removed": bool}
TOUCH = "touch"          #: {"key"} -> OK (LRU stamp only)
GET_STATS = "get-stats"  #: {} -> STATS
BYE = "bye"              #: close the session cleanly

#: Kinds a conforming peer may send (decode rejects everything else).
ALL_KINDS = frozenset({
    CHALLENGE, WELCOME, DENIED, ENTRY, MISS, OK, KEYS, STATS, ERROR,
    HELLO, GET, PUT, LIST, REMOVE, TOUCH, GET_STATS, BYE,
})


def auth_digest(secret: str, nonce: str) -> str:
    """The HMAC-SHA256 hex digest a client answers a challenge with."""
    return hmac.new(secret.encode("utf-8"), nonce.encode("utf-8"),
                    hashlib.sha256).hexdigest()


def verify_auth(secret: str, nonce: str, digest: object) -> bool:
    """Constant-time check of a client's ``auth`` digest."""
    if not isinstance(digest, str):
        return False
    return hmac.compare_digest(auth_digest(secret, nonce), digest)


def encode_frame(kind: str, payload: dict[str, Any] | None = None) -> bytes:
    """Serialise one envelope to its framed bytes (length prefix
    included).

    Raises:
        WireProtocolError: unknown kind or a payload JSON cannot
            express.
    """
    if kind not in ALL_KINDS:
        raise WireProtocolError(f"unknown message kind {kind!r}")
    envelope = {"v": SERVICE_WIRE_VERSION, "kind": kind,
                "payload": payload or {}}
    body = framing.encode_json(envelope, separators=(",", ":"))
    return framing.LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> tuple[str, dict[str, Any]]:
    """Parse one frame body back into ``(kind, payload)``.

    Raises:
        WireProtocolError: undecodable body, version mismatch, or
            unknown kind.
    """
    envelope = framing.decode_json(body, protocol="service wire",
                                   version=SERVICE_WIRE_VERSION,
                                   kinds=ALL_KINDS)
    payload = envelope.get("payload")
    return envelope["kind"], payload if isinstance(payload, dict) else {}


def send_frame(sock: socket.socket, kind: str,
               payload: dict[str, Any] | None = None) -> None:
    """Encode and send one frame."""
    sock.sendall(encode_frame(kind, payload))


def recv_frame(sock: socket.socket,
               max_frame: int = MAX_FRAME_BYTES,
               ) -> tuple[str, dict[str, Any]]:
    """Receive and decode one frame. A socket timeout propagates (the
    client's read-timeout policy).

    Raises:
        ConnectionClosed: the peer hung up.
        WireProtocolError: oversized or malformed frame.
    """
    return decode_frame(framing.recv_frame(sock, max_frame))
