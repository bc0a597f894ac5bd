"""The service wire protocol: framing, versioning, authentication."""

import socket
import struct
import threading

import pytest

from repro.framing import ConnectionClosed, WireProtocolError
from repro.service import wire


class TestFraming:
    @pytest.mark.parametrize("kind,payload", [
        (wire.GET, {"key": "ab" * 32}),
        (wire.ENTRY, {"key": "k", "entry": "{}"}),
        (wire.STATS, {"hits": 3, "misses": 0}),
        (wire.HELLO, {"version": 1, "auth": None}),
        (wire.BYE, None),
    ])
    def test_round_trip(self, kind, payload):
        frame = wire.encode_frame(kind, payload)
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4
        decoded_kind, decoded_payload = wire.decode_frame(frame[4:])
        assert decoded_kind == kind
        assert decoded_payload == (payload or {})

    def test_unknown_kind_refused_on_encode(self):
        with pytest.raises(WireProtocolError, match="unknown"):
            wire.encode_frame("gossip", {})

    def test_unknown_kind_refused_on_decode(self):
        frame = wire.encode_frame(wire.GET, {})
        body = frame[4:].replace(b'"get"', b'"g0t"')
        with pytest.raises(WireProtocolError, match="unknown"):
            wire.decode_frame(body)

    def test_unserialisable_payload_is_a_protocol_error(self):
        with pytest.raises(WireProtocolError, match="JSON"):
            wire.encode_frame(wire.PUT, {"entry": object()})

    def test_garbage_body_is_a_protocol_error(self):
        with pytest.raises(WireProtocolError, match="undecodable"):
            wire.decode_frame(b"\x80\x81 not json")

    def test_non_object_body_is_a_protocol_error(self):
        with pytest.raises(WireProtocolError, match="envelope"):
            wire.decode_frame(b"[1, 2, 3]")

    def test_deeply_nested_body_is_a_protocol_error(self):
        with pytest.raises(WireProtocolError, match="undecodable"):
            wire.decode_frame(b"[" * 100_000)


class TestVersioning:
    def test_version_skew_is_refused(self):
        frame = wire.encode_frame(wire.GET, {"key": "k"})
        body = frame[4:].replace(
            f'"v":{wire.SERVICE_WIRE_VERSION}'.encode(),
            f'"v":{wire.SERVICE_WIRE_VERSION + 1}'.encode(),
        )
        with pytest.raises(WireProtocolError,
                           match="version mismatch"):
            wire.decode_frame(body)

    def test_missing_version_is_refused(self):
        with pytest.raises(WireProtocolError,
                           match="version mismatch"):
            wire.decode_frame(b'{"kind": "get", "payload": {}}')


class TestAuth:
    def test_digest_is_deterministic_and_nonce_bound(self):
        one = wire.auth_digest("secret", "nonce-a")
        assert one == wire.auth_digest("secret", "nonce-a")
        assert one != wire.auth_digest("secret", "nonce-b")
        assert one != wire.auth_digest("other", "nonce-a")

    def test_verify_accepts_the_right_digest_only(self):
        digest = wire.auth_digest("secret", "n")
        assert wire.verify_auth("secret", "n", digest)
        assert not wire.verify_auth("secret", "n", digest[:-1] + "0")
        assert not wire.verify_auth("secret", "m", digest)
        assert not wire.verify_auth("secret", "n", None)
        assert not wire.verify_auth("secret", "n", 12345)


class TestSockets:
    def test_send_and_recv_over_a_real_socket(self):
        server, client = socket.socketpair()
        try:
            wire.send_frame(client, wire.GET, {"key": "abc"})
            kind, payload = wire.recv_frame(server)
            assert (kind, payload) == (wire.GET, {"key": "abc"})
        finally:
            server.close()
            client.close()

    def test_oversized_frame_is_refused_without_reading_it(self):
        server, client = socket.socketpair()
        try:
            client.sendall(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
            with pytest.raises(WireProtocolError, match="cap"):
                wire.recv_frame(server)
        finally:
            server.close()
            client.close()

    def test_peer_hangup_mid_frame_is_connection_closed(self):
        server, client = socket.socketpair()
        try:
            client.sendall(struct.pack("!I", 100) + b"partial")
            client.close()
            with pytest.raises(ConnectionClosed):
                wire.recv_frame(server)
        finally:
            server.close()

    def test_recv_honours_chunked_delivery(self):
        server, client = socket.socketpair()
        frame = wire.encode_frame(wire.PUT, {"key": "k",
                                             "entry": "x" * 4096})

        def dribble():
            for i in range(0, len(frame), 512):
                client.sendall(frame[i:i + 512])
            client.close()

        thread = threading.Thread(target=dribble)
        thread.start()
        try:
            kind, payload = wire.recv_frame(server)
            assert kind == wire.PUT
            assert payload["entry"] == "x" * 4096
        finally:
            thread.join()
            server.close()
