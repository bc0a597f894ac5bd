"""Tests for the distributed-verification wire protocol."""

import socket
import struct
import threading

import pytest

from repro.framing import ConnectionClosed, WireProtocolError
from repro.policies import BalanceCountPolicy
from repro.verify import ModelChecker, StateScope
from repro.verify.enumeration import iter_states
from repro.verify.encoding import StateCodec
from repro.verify.symmetry import FlatSymmetryGroup
from repro.verify.tasks import (
    CampaignTask,
    CheckerConfig,
    ExpandTask,
    PolicyReplicator,
    ShardSpec,
    SweepTask,
)
from repro.verify.wire import (
    ALL_KINDS,
    ERROR,
    FORMAT_JSON,
    FORMAT_PICKLE,
    HEARTBEAT,
    HELLO,
    RESULT,
    TASK,
    WIRE_VERSION,
    WireMessage,
    decode_message,
    encode_message,
    hello_payload,
    recv_message,
    send_message,
)
from repro.verify.campaign import CampaignConfig

SCOPE = StateScope(n_cores=3, max_load=2)
SPEC = ShardSpec(config=CheckerConfig(policy=BalanceCountPolicy()),
                 scope=SCOPE, shard=0, n_shards=2)
CODEC = StateCodec(n_cores=3, max_value=6)


class TestEncodeDecode:
    def test_pickle_roundtrip_of_task_payloads(self):
        tasks = [
            SweepTask(spec=SPEC),
            ExpandTask(config=CheckerConfig(policy=BalanceCountPolicy()),
                       codec=CODEC,
                       packed=tuple(CODEC.encode_batch([(0, 1, 2),
                                                        (1, 1, 1)]))),
            CampaignTask(replicator=PolicyReplicator(BalanceCountPolicy()),
                         config=CampaignConfig(n_machines=3)),
        ]
        for index, task in enumerate(tasks):
            message = WireMessage(kind=TASK, task_id=index, payload=task)
            decoded = decode_message(encode_message(message))
            assert decoded.kind == TASK
            assert decoded.task_id == index
            assert type(decoded.payload) is type(task)

    @pytest.mark.parametrize("n_cores,max_load", [(3, 2), (16, 1)],
                             ids=["int-form", "bytes-form"])
    def test_csr_chunk_result_round_trips_unchanged(self, n_cores, max_load):
        scope = StateScope(n_cores=n_cores, max_load=max_load)
        codec = StateCodec.for_scope(scope)
        states = [s for s in iter_states(scope) if sum(s) == n_cores][:40]
        result = ModelChecker(BalanceCountPolicy(), max_orders=2).expand_level(
            codec.encode_batch(states), codec
        )
        assert result[0].indices.size
        message = WireMessage(kind=RESULT, task_id=9, payload=result)
        decoded = decode_message(encode_message(message)).payload
        assert decoded == result
        assert decoded[0].states.dtype == result[0].states.dtype

    def test_json_roundtrip_of_control_messages(self):
        message = WireMessage(kind=HELLO, payload=hello_payload())
        data = encode_message(message, fmt=FORMAT_JSON)
        assert data[:1] == FORMAT_JSON
        decoded = decode_message(data)
        assert decoded.kind == HELLO
        assert decoded.payload["version"] == WIRE_VERSION

    def test_json_rejects_unserialisable_payload(self):
        message = WireMessage(kind=RESULT, payload=object())
        with pytest.raises(WireProtocolError):
            encode_message(message, fmt=FORMAT_JSON)

    def test_unknown_kind_rejected_both_ways(self):
        with pytest.raises(WireProtocolError):
            encode_message(WireMessage(kind="nonsense"))
        import pickle

        data = FORMAT_PICKLE + pickle.dumps(
            {"v": WIRE_VERSION, "kind": "nonsense", "payload": None}
        )
        with pytest.raises(WireProtocolError):
            decode_message(data)

    def test_version_mismatch_rejected(self):
        import pickle

        data = FORMAT_PICKLE + pickle.dumps(
            {"v": WIRE_VERSION + 1, "kind": HEARTBEAT, "payload": None}
        )
        with pytest.raises(WireProtocolError, match="version mismatch"):
            decode_message(data)

    def test_garbage_rejected(self):
        with pytest.raises(WireProtocolError):
            decode_message(b"")
        with pytest.raises(WireProtocolError):
            decode_message(b"Xjunk")
        with pytest.raises(WireProtocolError):
            decode_message(b"Jnot json at all")
        with pytest.raises(WireProtocolError):
            decode_message(b"Pnot a pickle")

    def test_non_envelope_body_rejected(self):
        import pickle

        with pytest.raises(WireProtocolError, match="expected an envelope"):
            decode_message(FORMAT_PICKLE + pickle.dumps([1, 2, 3]))

    def test_all_kinds_is_the_protocol_vocabulary(self):
        assert TASK in ALL_KINDS and RESULT in ALL_KINDS
        assert ERROR in ALL_KINDS and HEARTBEAT in ALL_KINDS


class TestFraming:
    def _pair(self):
        server, client = socket.socketpair()
        return server, client

    def test_send_recv_roundtrip(self):
        server, client = self._pair()
        try:
            message = WireMessage(kind=TASK, task_id=7,
                                  payload=SweepTask(spec=SPEC))
            send_message(client, message)
            received = recv_message(server)
            assert received.task_id == 7
            assert received.payload.spec.shard == 0
        finally:
            server.close()
            client.close()

    def test_many_frames_in_order(self):
        server, client = self._pair()
        try:
            for index in range(20):
                send_message(client,
                             WireMessage(kind=HEARTBEAT, task_id=index),
                             fmt=FORMAT_JSON)
            for index in range(20):
                assert recv_message(server).task_id == index
        finally:
            server.close()
            client.close()

    def test_eof_raises_connection_closed(self):
        server, client = self._pair()
        client.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_message(server)
        finally:
            server.close()

    def test_mid_frame_eof_raises_connection_closed(self):
        server, client = self._pair()
        try:
            client.sendall(struct.pack("!I", 100) + b"P12")
            client.close()
            with pytest.raises(ConnectionClosed):
                recv_message(server)
        finally:
            server.close()

    def test_oversized_frame_rejected(self):
        server, client = self._pair()
        try:
            client.sendall(struct.pack("!I", 1 << 29) + b"P")
            with pytest.raises(WireProtocolError, match="cap"):
                recv_message(server, max_frame=1024)
        finally:
            server.close()
            client.close()

    def test_recv_honours_socket_timeout(self):
        server, client = self._pair()
        try:
            server.settimeout(0.05)
            with pytest.raises(OSError):
                recv_message(server)
        finally:
            server.close()
            client.close()

    def test_concurrent_sender(self):
        """A frame sent from another thread arrives intact."""
        server, client = self._pair()
        codec = StateCodec(n_cores=3, max_value=600)
        payload = ExpandTask(
            config=CheckerConfig(policy=BalanceCountPolicy()),
            codec=codec,
            packed=tuple(codec.encode_batch([(i, i + 1, i + 2)
                                             for i in range(200)])),
        )

        def send():
            send_message(client, WireMessage(kind=RESULT, task_id=3,
                                             payload=payload))

        thread = threading.Thread(target=send)
        thread.start()
        try:
            received = recv_message(server)
            assert received.payload.packed == payload.packed
        finally:
            thread.join()
            server.close()
            client.close()


class TestCheckerConfig:
    def test_cache_key_stable_for_equal_configs(self):
        one = CheckerConfig(policy=BalanceCountPolicy(margin=2))
        two = CheckerConfig(policy=BalanceCountPolicy(margin=2))
        assert one.cache_key() == two.cache_key()

    def test_cache_key_distinguishes_parameters(self):
        base = CheckerConfig(policy=BalanceCountPolicy())
        assert base.cache_key() != CheckerConfig(
            policy=BalanceCountPolicy(), symmetry=FlatSymmetryGroup()
        ).cache_key()
        assert base.cache_key() != CheckerConfig(
            policy=BalanceCountPolicy(margin=3)
        ).cache_key()

    def test_build_carries_the_group_and_the_concurrent_round(self):
        trivial = CheckerConfig(policy=BalanceCountPolicy()).build()
        flat = CheckerConfig(policy=BalanceCountPolicy(),
                             symmetry=FlatSymmetryGroup()).build()
        assert trivial.symmetry.is_trivial
        assert flat.symmetry == FlatSymmetryGroup()
        assert not trivial.sequential and not flat.sequential
