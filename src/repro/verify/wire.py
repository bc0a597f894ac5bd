"""Wire protocol for distributed verification.

The coordinator/worker protocol (:mod:`repro.verify.distributed`) moves
three things across a process or network boundary: shard specifications
going out, shard results coming back, and the small control vocabulary
(hello, heartbeat, shutdown) that keeps a long-running proof honest
about worker health. This module frames all of it —
everything that touches a socket or a pipe is a :class:`WireMessage`
inside a length-prefixed frame, and nothing else is.

Framing and encodings
---------------------

A frame is ``4-byte big-endian length || 1 format byte || body``:

* format ``P`` — the body is a :mod:`pickle` of the envelope dict. Used
  for task and result messages, whose payloads (policies, shard specs,
  proof results) are arbitrary Python objects.
* format ``J`` — the body is UTF-8 JSON of the same envelope. Used for
  the control messages (hello, ping/pong, heartbeat, errors), whose
  payloads are plain dicts — so a worker's liveness protocol can be
  spoken (and debugged with ``nc``/``tcpdump``) without a Python peer.

Every envelope carries ``{"v": WIRE_VERSION, "kind", "task_id",
"payload"}``; :func:`decode_message` rejects any other version with
:class:`WireProtocolError`, so a coordinator and worker from different
releases fail loudly at the handshake instead of mis-merging shards.

Security note: the pickle format executes arbitrary code on decode, the
same trust model as :mod:`multiprocessing` pipes. Workers must only be
exposed on trusted networks (the reference deployment is localhost
subprocesses); there is no authentication layer.

The task payloads and their results live in :mod:`repro.verify.tasks`,
next to the runtime that executes them; this module only frames them.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any

from repro.core.errors import VerificationError

#: Protocol version; bump on any incompatible envelope or payload change.
#: v2: ShardSpec/CheckerConfig grew symmetry-group, topology, and
#: hierarchy fields (the topology-aware symmetry engine).
#: v3: ExpandTask grew codec/packed fields — BFS frontier batches travel
#: in packed form (:mod:`repro.verify.encoding`) and results come back
#: as packed graphs the coordinator decodes once at closure end.
#: v4: asynchronous hash-partitioned exploration — the ``forward``
#: message kind (mid-task cross-partition successor frames), plus the
#: :class:`PartitionExpandTask`/:class:`PartitionControlTask` payloads
#: and their :class:`PartitionExpandResult`/:class:`ForwardBatch`
#: companions.
#: v5: observability — work-carrying tasks grew a ``trace`` flag, and a
#: worker asked to trace wraps its result in :class:`TracedResult`
#: (captured spans + the worker's clock reading, for coordinator-side
#: timeline merging). Incompatible because a v4 peer would hand the
#: wrapper to its reducers as if it were the result.
#: v6: the task payloads moved to :mod:`repro.verify.tasks`;
#: ``ShardSpec`` carries a ``CheckerConfig`` instead of repeating its
#: fields, and ``ExpandTask`` lost its tuple-form ``states`` (its
#: ``codec`` is required).
#: v7: the round model is fixed per checker — ``ExpandTask`` and
#: ``PartitionExpandTask`` lost their ``sequential`` flag, and
#: ``CheckerConfig`` lost ``symmetric`` (its ``symmetry`` is always a
#: group).
WIRE_VERSION = 7

#: Format byte for pickle-encoded envelopes (arbitrary Python payloads).
FORMAT_PICKLE = b"P"
#: Format byte for JSON-encoded envelopes (control messages).
FORMAT_JSON = b"J"

#: Refuse frames larger than this (corrupt length prefix / wrong peer).
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct("!I")

# Message kinds.
HELLO = "hello"          #: handshake; JSON payload {"version", "pid"}
TASK = "task"            #: coordinator -> worker; payload is a *Task
RESULT = "result"        #: worker -> coordinator; payload is the result
ERROR = "error"          #: worker -> coordinator; JSON {"traceback"}
HEARTBEAT = "heartbeat"  #: worker -> coordinator while a task runs
PING = "ping"            #: liveness probe
PONG = "pong"            #: liveness probe response
SHUTDOWN = "shutdown"    #: coordinator -> worker; exit after this frame
FORWARD = "forward"      #: worker -> coordinator mid-task; a ForwardBatch

#: Kinds a conforming peer may send (decode rejects everything else).
ALL_KINDS = frozenset({
    HELLO, TASK, RESULT, ERROR, HEARTBEAT, PING, PONG, SHUTDOWN, FORWARD,
})


class WireProtocolError(VerificationError):
    """A frame violated the protocol (version, kind, size, or format)."""


class ConnectionClosed(WireProtocolError):
    """The peer closed the connection mid-frame or between frames."""


@dataclass(frozen=True)
class WireMessage:
    """One protocol message: a kind, an optional task id, a payload.

    Attributes:
        kind: one of the module-level kind constants.
        task_id: correlates results/heartbeats with the task they answer
            (-1 for control messages outside any task).
        payload: kind-specific content; must be picklable, and
            JSON-serialisable when sent in the JSON format.
    """

    kind: str
    task_id: int = -1
    payload: Any = None


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------


def encode_message(message: WireMessage, fmt: bytes = FORMAT_PICKLE) -> bytes:
    """Serialise a message to ``format byte || body``.

    Args:
        message: the message to encode.
        fmt: :data:`FORMAT_PICKLE` (any payload) or :data:`FORMAT_JSON`
            (payload must be JSON-serialisable).

    Raises:
        WireProtocolError: unknown kind or format, or a JSON encode of a
            non-JSON-serialisable payload.
    """
    if message.kind not in ALL_KINDS:
        raise WireProtocolError(f"unknown message kind {message.kind!r}")
    envelope = {
        "v": WIRE_VERSION,
        "kind": message.kind,
        "task_id": message.task_id,
        "payload": message.payload,
    }
    if fmt == FORMAT_PICKLE:
        return FORMAT_PICKLE + pickle.dumps(envelope)
    if fmt == FORMAT_JSON:
        try:
            return FORMAT_JSON + json.dumps(envelope).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise WireProtocolError(
                f"payload of {message.kind!r} is not JSON-serialisable:"
                f" {exc}"
            ) from exc
    raise WireProtocolError(f"unknown wire format {fmt!r}")


def decode_message(data: bytes) -> WireMessage:
    """Parse ``format byte || body`` back into a :class:`WireMessage`.

    Raises:
        WireProtocolError: empty/truncated data, unknown format byte,
            undecodable body, version mismatch, or unknown kind.
    """
    if not data:
        raise WireProtocolError("empty frame")
    fmt, body = data[:1], data[1:]
    try:
        if fmt == FORMAT_PICKLE:
            envelope = pickle.loads(body)
        elif fmt == FORMAT_JSON:
            envelope = json.loads(body.decode("utf-8"))
        else:
            raise WireProtocolError(f"unknown wire format {fmt!r}")
    except WireProtocolError:
        raise
    except Exception as exc:
        raise WireProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireProtocolError(
            f"frame body is {type(envelope).__name__}, expected an envelope"
        )
    version = envelope.get("v")
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"wire version mismatch: peer speaks {version!r}, this build"
            f" speaks {WIRE_VERSION}"
        )
    kind = envelope.get("kind")
    if kind not in ALL_KINDS:
        raise WireProtocolError(f"unknown message kind {kind!r}")
    return WireMessage(
        kind=kind,
        task_id=envelope.get("task_id", -1),
        payload=envelope.get("payload"),
    )


# ---------------------------------------------------------------------------
# framing over sockets
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, message: WireMessage,
                 fmt: bytes = FORMAT_PICKLE) -> None:
    """Encode and send one length-prefixed frame."""
    data = encode_message(message, fmt=fmt)
    sock.sendall(_LENGTH.pack(len(data)) + data)


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


def recv_message(sock: socket.socket,
                 max_frame: int = MAX_FRAME_BYTES) -> WireMessage:
    """Receive and decode one length-prefixed frame.

    Honours the socket's configured timeout (``socket.timeout`` — a
    subclass of ``OSError`` — propagates to the caller, which is how the
    coordinator implements its heartbeat patience).

    Raises:
        ConnectionClosed: the peer hung up.
        WireProtocolError: oversized or malformed frame.
    """
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > max_frame:
        raise WireProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return decode_message(_recv_exact(sock, length))


def hello_payload() -> dict[str, Any]:
    """The JSON payload both sides exchange in the HELLO handshake."""
    import os

    return {"version": WIRE_VERSION, "pid": os.getpid()}
