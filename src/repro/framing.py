"""Length-prefixed framing shared by the package's two TCP protocols.

The worker wire (:mod:`repro.verify.wire`) and the store wire
(:mod:`repro.service.wire`) both send frames ``4-byte big-endian length
|| body`` whose body holds an envelope ``{"v": VERSION, "kind": KIND,
...}``; each adds only its vocabulary, version and size cap. Every
decode failure, from a truncated stream to JSON nested past the
parser's recursion limit, is a :class:`WireProtocolError`. Nothing here
unpickles, and nothing here imports the package beyond its exceptions,
so ``--listen`` parsing loads neither protocol.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Collection

from repro.core.errors import VerificationError

#: The length prefix of every frame.
LENGTH = struct.Struct("!I")


class WireProtocolError(VerificationError):
    """A frame violated its protocol (version, kind, size, or format)."""


class ConnectionClosed(WireProtocolError):
    """The peer closed the connection mid-frame or between frames."""


def send_frame(sock: socket.socket, body: bytes) -> None:
    """Send ``body`` as one length-prefixed frame."""
    sock.sendall(LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    """Read exactly ``n_bytes``, raising :class:`ConnectionClosed` on EOF."""
    chunks: list[bytes] = []
    remaining = n_bytes
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {n_bytes} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, max_frame: int) -> bytes:
    """Receive one frame's body, refusing a length over ``max_frame``
    before reading any of it. A socket timeout propagates as ``OSError``.

    Raises:
        ConnectionClosed: the peer hung up.
        WireProtocolError: the frame exceeds ``max_frame``.
    """
    (length,) = LENGTH.unpack(_recv_exact(sock, LENGTH.size))
    if length > max_frame:
        raise WireProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return _recv_exact(sock, length)


def encode_json(envelope: dict[str, Any],
                separators: tuple[str, str] | None = None) -> bytes:
    """UTF-8 JSON of an envelope; a payload JSON cannot express is a
    :class:`WireProtocolError`."""
    try:
        return json.dumps(envelope, separators=separators).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireProtocolError(
            f"payload of {envelope.get('kind')!r} is not JSON-serialisable:"
            f" {exc}"
        ) from exc


def check_envelope(envelope: object, *, protocol: str, version: int,
                   kinds: Collection[str]) -> dict[str, Any]:
    """Check that a decoded body is an object of this ``version`` whose
    ``kind`` is one of ``kinds`` (``protocol`` names it in errors).

    Raises:
        WireProtocolError: not an object, version skew, or unknown kind.
    """
    if not isinstance(envelope, dict):
        raise WireProtocolError(
            f"frame body is {type(envelope).__name__}, expected an envelope"
        )
    peer = envelope.get("v")
    if peer != version:
        raise WireProtocolError(
            f"{protocol} version mismatch: peer speaks {peer!r}, this"
            f" build speaks {version}"
        )
    kind = envelope.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise WireProtocolError(f"unknown message kind {kind!r}")
    return envelope


def decode_json(body: bytes, *, protocol: str, version: int,
                kinds: Collection[str]) -> dict[str, Any]:
    """Decode a UTF-8 JSON envelope and :func:`check_envelope` it; bad
    UTF-8, bad JSON and nesting past the parser's recursion limit are
    each a :class:`WireProtocolError`."""
    try:
        envelope = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError.
        raise WireProtocolError(f"undecodable frame body: {exc}") from exc
    return check_envelope(envelope, protocol=protocol, version=version,
                          kinds=kinds)


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (port 0..65535): the one parser behind
    ``--listen``, ``--workers`` and ``tcp://`` store URLs, so each
    rejects a malformed endpoint with the same one-line
    :class:`VerificationError`."""
    host, _, port_text = text.strip().rpartition(":")
    if not host or not (port_text.isascii() and port_text.isdigit()):
        raise VerificationError(f"endpoint {text!r} is not HOST:PORT")
    port = int(port_text)
    if port > 65535:
        raise VerificationError(f"endpoint {text!r}: port must be 0..65535")
    return host, port
