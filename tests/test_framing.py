"""The shared framing layer under the worker wire and the store wire.

Hypothesis feeds both envelope decoders arbitrary bodies, truncates
streams mid-frame and sends length prefixes over each cap: the only
exceptions that may come out are :class:`WireProtocolError` and
:class:`ConnectionClosed`, and no byte past an oversized prefix is
read. Only the JSON format is fuzzed; random bytes never reach
``pickle.loads``. The golden frames were recorded before the two wires
shared this layer and pin that their bytes did not change.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import VerificationError
from repro.framing import (
    LENGTH,
    ConnectionClosed,
    WireProtocolError,
    decode_json,
    parse_endpoint,
    recv_frame,
)
from repro.policies import BalanceCountPolicy
from repro.service import wire as store_wire
from repro.verify import StateScope
from repro.verify import wire as worker_wire
from repro.verify.tasks import CheckerConfig, ShardSpec, SweepTask

FUZZ = settings(max_examples=150, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Bodies nested past the JSON parser's recursion limit.
DEEP = st.builds(lambda opener, depth: opener * depth,
                 st.sampled_from([b"[", b'{"a":', b'{"payload":[']),
                 st.integers(min_value=2_000, max_value=100_000))

#: Envelope-shaped JSON whose version and kind may be anything.
ENVELOPES = st.fixed_dictionaries({
    "v": st.one_of(st.just(worker_wire.WIRE_VERSION),
                   st.just(store_wire.SERVICE_WIRE_VERSION), JSON_VALUES),
    "kind": st.one_of(st.sampled_from(sorted(worker_wire.ALL_KINDS
                                             | store_wire.ALL_KINDS)),
                      JSON_VALUES),
    "task_id": JSON_VALUES,
    "payload": JSON_VALUES,
}).map(lambda envelope: json.dumps(envelope).encode("utf-8"))

BODIES = st.one_of(st.binary(max_size=256), DEEP, ENVELOPES,
                   JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")))


def decode_worker(body: bytes) -> None:
    worker_wire.decode_message(worker_wire.FORMAT_JSON + body)


decode_store = store_wire.decode_frame

DECODERS = [decode_worker, decode_store]
RECEIVERS = [worker_wire.recv_message, store_wire.recv_frame]


def valid_frames() -> st.SearchStrategy[bytes]:
    """Whole frames (length prefix included) of either wire."""
    worker = st.builds(
        lambda kind, task_id, payload: worker_wire.encode_message(
            worker_wire.WireMessage(kind, task_id, payload),
            worker_wire.FORMAT_JSON),
        st.sampled_from(sorted(worker_wire.ALL_KINDS)),
        st.integers(-1, 1 << 20), JSON_VALUES,
    ).map(lambda body: LENGTH.pack(len(body)) + body)
    store = st.builds(
        store_wire.encode_frame,
        st.sampled_from(sorted(store_wire.ALL_KINDS)),
        st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
    )
    return worker | store


class TestEnvelopeDecoders:
    @pytest.mark.parametrize("decode", DECODERS)
    @FUZZ
    @given(body=BODIES)
    def test_any_body_decodes_or_is_a_protocol_error(self, decode, body):
        try:
            decode(body)
        except WireProtocolError:
            pass

    @pytest.mark.parametrize("decode", DECODERS)
    @settings(max_examples=20, deadline=None)
    @given(body=DEEP)
    def test_deep_nesting_is_a_protocol_error(self, decode, body):
        with pytest.raises(WireProtocolError, match="undecodable"):
            decode(body)

    @FUZZ
    @given(fmt=st.binary(min_size=1, max_size=1).filter(
        lambda b: b != worker_wire.FORMAT_PICKLE), body=BODIES)
    def test_any_format_byte_but_pickle_is_safe(self, fmt, body):
        try:
            worker_wire.decode_message(fmt + body)
        except WireProtocolError:
            pass

    @FUZZ
    @given(kind=st.sampled_from(sorted(worker_wire.ALL_KINDS)),
           task_id=st.integers(-1, 1 << 40), payload=JSON_VALUES)
    def test_worker_json_round_trip(self, kind, task_id, payload):
        message = worker_wire.WireMessage(kind, task_id, payload)
        assert worker_wire.decode_message(worker_wire.encode_message(
            message, worker_wire.FORMAT_JSON)) == message

    @FUZZ
    @given(kind=st.sampled_from(sorted(store_wire.ALL_KINDS)),
           payload=st.dictionaries(st.text(max_size=8), JSON_VALUES,
                                   max_size=4))
    def test_store_round_trip(self, kind, payload):
        frame = store_wire.encode_frame(kind, payload)
        assert store_wire.decode_frame(frame[LENGTH.size:]) == (kind,
                                                               payload)

    def test_the_protocols_refuse_each_others_versions(self):
        store_frame = store_wire.encode_frame(store_wire.HELLO, {})
        with pytest.raises(WireProtocolError, match="version mismatch"):
            decode_worker(store_frame[LENGTH.size:])
        worker_body = worker_wire.encode_message(
            worker_wire.WireMessage(worker_wire.HELLO),
            worker_wire.FORMAT_JSON)
        with pytest.raises(WireProtocolError, match="version mismatch"):
            decode_store(worker_body[1:])

    def test_unhashable_kind_is_a_protocol_error(self):
        with pytest.raises(WireProtocolError, match="unknown"):
            decode_json(b'{"v": 1, "kind": []}', protocol="test",
                        version=1, kinds={"hello"})


class TestStreams:
    @pytest.mark.parametrize("receive", RECEIVERS)
    @FUZZ
    @given(frame=valid_frames(), data=st.data())
    def test_a_stream_cut_mid_frame_is_connection_closed(
            self, receive, frame, data):
        cut = data.draw(st.integers(0, len(frame) - 1))
        server, client = socket.socketpair()
        try:
            client.sendall(frame[:cut])
            client.close()
            with pytest.raises(ConnectionClosed):
                receive(server, 1 << 20)
        finally:
            server.close()

    @pytest.mark.parametrize("receive", RECEIVERS)
    @FUZZ
    @given(cap=st.integers(0, 1 << 16), excess=st.integers(1, 1 << 31),
           trailing=st.binary(max_size=64))
    def test_nothing_past_an_oversized_prefix_is_read(
            self, receive, cap, excess, trailing):
        length = min(cap + excess, (1 << 32) - 1)
        server, client = socket.socketpair()
        try:
            client.sendall(LENGTH.pack(length) + trailing)
            client.shutdown(socket.SHUT_WR)
            with pytest.raises(WireProtocolError, match="cap"):
                receive(server, cap)
            rest = b""
            while chunk := server.recv(1 << 10):
                rest += chunk
            assert rest == trailing
        finally:
            server.close()
            client.close()

    @pytest.mark.parametrize("receive,cap", [
        (worker_wire.recv_message, 1 << 30),
        (store_wire.recv_frame, 1 << 26),
    ])
    def test_each_wire_keeps_its_own_default_cap(self, receive, cap):
        server, client = socket.socketpair()
        try:
            client.sendall(LENGTH.pack(cap + 1))
            with pytest.raises(WireProtocolError, match=f"{cap}-byte cap"):
                receive(server)
        finally:
            server.close()
            client.close()

    @FUZZ
    @given(frame=valid_frames())
    def test_valid_frames_survive_the_socket(self, frame):
        server, client = socket.socketpair()
        try:
            client.sendall(frame)
            assert recv_frame(server, 1 << 20) == frame[LENGTH.size:]
        finally:
            server.close()
            client.close()


class TestParseEndpoint:
    @FUZZ
    @given(text=st.text(max_size=24))
    def test_any_text_parses_or_is_a_one_line_error(self, text):
        try:
            host, port = parse_endpoint(text)
        except VerificationError:
            return
        assert host and 0 <= port <= 65535

    @pytest.mark.parametrize("bad", ["h:\u00b2", "h:\u0661\u0662", "h:+1"])
    def test_non_ascii_digit_ports_are_refused(self, bad):
        with pytest.raises(VerificationError, match="HOST:PORT"):
            parse_endpoint(bad)


#: JSON frames recorded from both wires before they shared this module,
#: length prefix included.
WORKER_GOLDEN = [
    (worker_wire.WireMessage(worker_wire.HELLO,
                             payload={"version": 9, "pid": 1234}),
     b'\x00\x00\x00QJ{"v": 9, "kind": "hello", "task_id": -1,'
     b' "payload": {"version": 9, "pid": 1234}}'),
    (worker_wire.WireMessage(worker_wire.PING),
     b'\x00\x00\x009J{"v": 9, "kind": "ping", "task_id": -1,'
     b' "payload": null}'),
    (worker_wire.WireMessage(worker_wire.HEARTBEAT, task_id=3,
                             payload={"elapsed": 1.5}),
     b'\x00\x00\x00IJ{"v": 9, "kind": "heartbeat", "task_id": 3,'
     b' "payload": {"elapsed": 1.5}}'),
    (worker_wire.WireMessage(worker_wire.ERROR, task_id=4,
                             payload={"traceback": "Traceback\n  boom"}),
     b'\x00\x00\x00WJ{"v": 9, "kind": "error", "task_id": 4,'
     b' "payload": {"traceback": "Traceback\\n  boom"}}'),
]

STORE_GOLDEN = [
    (store_wire.CHALLENGE, {"nonce": "ab12", "version": 1},
     b'\x00\x00\x00A{"v":1,"kind":"challenge",'
     b'"payload":{"nonce":"ab12","version":1}}'),
    (store_wire.HELLO, {"version": 1, "auth": "deadbeef"},
     b'\x00\x00\x00@{"v":1,"kind":"hello",'
     b'"payload":{"version":1,"auth":"deadbeef"}}'),
    (store_wire.GET, {"key": "kkkkkkkk"},
     b'\x00\x00\x001{"v":1,"kind":"get","payload":{"key":"kkkkkkkk"}}'),
    (store_wire.ENTRY,
     {"key": "k1", "entry": {"a": [1, 2.5, None, True], "b": "\u00e9"}},
     b'\x00\x00\x00Z{"v":1,"kind":"entry","payload":{"key":"k1",'
     b'"entry":{"a":[1,2.5,null,true],"b":"\\u00e9"}}}'),
]


def sent_bytes(send) -> bytes:
    """Everything ``send(sock)`` puts on a socket."""
    server, client = socket.socketpair()
    try:
        send(client)
        client.close()
        data = b""
        while chunk := server.recv(1 << 10):
            data += chunk
        return data
    finally:
        server.close()


class TestGoldenFrames:
    def test_versions_are_unchanged(self):
        assert worker_wire.WIRE_VERSION == 9
        assert store_wire.SERVICE_WIRE_VERSION == 1

    @pytest.mark.parametrize("message,golden", WORKER_GOLDEN)
    def test_worker_json_frames_are_byte_identical(self, message, golden):
        assert sent_bytes(lambda sock: worker_wire.send_message(
            sock, message, worker_wire.FORMAT_JSON)) == golden
        assert worker_wire.decode_message(golden[LENGTH.size:]) == message

    @pytest.mark.parametrize("kind,payload,golden", STORE_GOLDEN)
    def test_store_frames_are_byte_identical(self, kind, payload, golden):
        assert sent_bytes(lambda sock: store_wire.send_frame(
            sock, kind, payload)) == golden
        assert store_wire.decode_frame(golden[LENGTH.size:]) == (kind,
                                                                payload)

    def test_a_pickled_task_frame_round_trips(self):
        task = SweepTask(spec=ShardSpec(
            config=CheckerConfig(policy=BalanceCountPolicy()),
            scope=StateScope(n_cores=3, max_load=2), shard=0, n_shards=2))
        message = worker_wire.WireMessage(worker_wire.TASK, 5, task)
        frame = sent_bytes(lambda sock: worker_wire.send_message(sock,
                                                                 message))
        assert frame[LENGTH.size:LENGTH.size + 1] == worker_wire.FORMAT_PICKLE
        server, client = socket.socketpair()
        try:
            client.sendall(frame)
            decoded = worker_wire.recv_message(server)
        finally:
            server.close()
            client.close()
        # Policies compare by identity; the repr spells out every field.
        assert (decoded.kind, decoded.task_id) == (worker_wire.TASK, 5)
        assert repr(decoded.payload) == repr(task)
