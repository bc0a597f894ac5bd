"""StoreServer + NetworkStore: the shared fleet cache, and every way
it is allowed to fail (degrade, never lie)."""

import socket
import threading

import pytest

from repro.api import Session, VerificationRequest
from repro.service import wire
from repro.service.netstore import (
    NetworkStore,
    StoreUnavailable,
    is_store_url,
    parse_store_url,
)
from repro.service.server import StoreServer
from repro.store import FileStore, MemoryStore, store_key

PROVE = (VerificationRequest.builder("prove")
         .policy("balance_count").scope(cores=3, max_load=2).build())


@pytest.fixture
def server(tmp_path):
    with StoreServer(FileStore(tmp_path / "store")) as srv:
        yield srv


def client_for(server, **kwargs):
    host, port = server.address
    return NetworkStore(host, port, **kwargs)


class TestUrls:
    def test_is_store_url(self):
        assert is_store_url("tcp://cache:7000")
        assert is_store_url("  TCP://cache:7000 ")
        assert not is_store_url("/var/cache/repro")
        assert not is_store_url("cache:7000")

    def test_parse(self):
        assert parse_store_url("tcp://cache:7000") == ("cache", 7000)
        assert parse_store_url("tcp://[::1]:9") == ("[::1]", 9)

    @pytest.mark.parametrize("bad", [
        "http://cache:7000", "tcp://cache", "tcp://:7000",
        "tcp://cache:port", "tcp://cache:0", "tcp://cache:70000",
    ])
    def test_malformed_urls_are_refused(self, bad):
        with pytest.raises(StoreUnavailable):
            parse_store_url(bad)


class TestSharedCache:
    def test_one_clients_save_is_another_clients_hit(self, server):
        writer, reader = client_for(server), client_for(server)
        cold = Session(store=writer).run(PROVE)
        assert cold.provenance is not None and not cold.provenance.hit

        warm = Session(store=reader).run(PROVE)
        assert warm.provenance is not None and warm.provenance.hit
        assert warm.normalized() == cold.normalized()
        assert reader.keys() == writer.keys() == (store_key(PROVE),)

    def test_remove_round_trips(self, server):
        store = client_for(server)
        Session(store=store).run(PROVE)
        assert store.remove(store_key(PROVE))
        assert not store.remove(store_key(PROVE))
        assert store.keys() == ()
        assert store.load(store_key(PROVE)) is None

    def test_server_counts_the_traffic(self, server):
        store = client_for(server)
        Session(store=store).run(PROVE)   # miss + put
        Session(store=store).run(PROVE)   # hit
        stats = store.server_stats()
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] >= 1

    def test_hits_stamp_last_access_server_side(self, server, tmp_path):
        store = client_for(server)
        Session(store=store).run(PROVE)
        Session(store=store).run(PROVE)
        assert store_key(PROVE) in FileStore(tmp_path / "store").accesses()

    def test_tampered_server_entry_is_a_client_side_miss(
            self, server, tmp_path):
        store = client_for(server)
        Session(store=store).run(PROVE)
        key = store_key(PROVE)
        path = FileStore(tmp_path / "store").path_for(key)
        path.write_text(path.read_text().replace("proved", "provable"))
        # The raw document still arrives, but the client's re-hash
        # refuses it: a corrupt cache degrades to a miss, never a
        # wrong answer.
        assert store.load(key) is None


class TestAuth:
    def test_wrong_secret_is_denied(self, tmp_path):
        with StoreServer(FileStore(tmp_path / "s"),
                         secret="right") as server:
            bad = client_for(server, secret="wrong")
            with pytest.raises(StoreUnavailable, match="denied"):
                bad.ping()
            # ...and every store method degrades instead of raising.
            assert bad.load(store_key(PROVE)) is None
            assert bad.keys() == ()

    def test_missing_secret_is_denied(self, tmp_path):
        with StoreServer(FileStore(tmp_path / "s"),
                         secret="right") as server:
            with pytest.raises(StoreUnavailable, match="denied"):
                client_for(server).ping()

    def test_right_secret_is_welcomed(self, tmp_path):
        with StoreServer(FileStore(tmp_path / "s"),
                         secret="right") as server:
            store = client_for(server, secret="right")
            store.ping()
            Session(store=store).run(PROVE)
            assert store.keys() == (store_key(PROVE),)

    def test_denials_are_counted(self, tmp_path):
        with StoreServer(FileStore(tmp_path / "s"),
                         secret="right") as server:
            with pytest.raises(StoreUnavailable):
                client_for(server, secret="wrong").ping()
            assert server.stats()["denied"] == 1


class TestVersionSkew:
    def test_skewed_client_hello_is_refused(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        try:
            kind, payload = wire.recv_frame(sock)
            assert kind == wire.CHALLENGE
            # Hand-craft a hello whose envelope claims a future version.
            frame = wire.encode_frame(wire.HELLO, {"version": 99})
            body = frame[4:].replace(
                f'"v":{wire.SERVICE_WIRE_VERSION}'.encode(), b'"v":99')
            sock.sendall(len(body).to_bytes(4, "big") + body)
            kind, payload = wire.recv_frame(sock)
            assert kind == wire.DENIED
            assert "version" in payload["reason"]
        finally:
            sock.close()

    def test_skewed_server_challenge_degrades_the_client(self, tmp_path):
        # A fake "server" speaking a future envelope version: the
        # client must refuse the handshake and degrade to a miss.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def fake_server():
            conn, _ = listener.accept()
            with conn:
                frame = wire.encode_frame(wire.CHALLENGE, {"nonce": "n"})
                body = frame[4:].replace(
                    f'"v":{wire.SERVICE_WIRE_VERSION}'.encode(), b'"v":99')
                conn.sendall(len(body).to_bytes(4, "big") + body)

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        try:
            store = NetworkStore(host, port, retries=0, cooldown_s=0.0)
            assert store.load(store_key(PROVE)) is None
        finally:
            thread.join(timeout=5)
            listener.close()


class TestHostileInput:
    """Nesting past the JSON parser's recursion limit is a protocol
    error on both ends of the store wire, never a dead thread."""

    NESTED = b"[" * 100_000

    def test_nested_hello_is_denied(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        try:
            kind, _ = wire.recv_frame(sock)
            assert kind == wire.CHALLENGE
            sock.sendall(len(self.NESTED).to_bytes(4, "big") + self.NESTED)
            kind, payload = wire.recv_frame(sock)
            assert kind == wire.DENIED
            assert "unreadable" in payload["reason"]
        finally:
            sock.close()
        assert server.stats()["denied"] == 1
        client_for(server).ping()  # the server still answers

    def test_nested_entry_from_a_hostile_server_is_a_miss(self):
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def hostile_server():
            conn, _ = listener.accept()
            with conn:
                wire.send_frame(conn, wire.CHALLENGE, {"nonce": "n"})
                assert wire.recv_frame(conn)[0] == wire.HELLO
                wire.send_frame(conn, wire.WELCOME, {})
                _, request = wire.recv_frame(conn)
                wire.send_frame(conn, wire.ENTRY, {
                    "key": request["key"],
                    "entry": self.NESTED.decode(),
                })

        thread = threading.Thread(target=hostile_server, daemon=True)
        thread.start()
        try:
            store = NetworkStore(host, port, retries=0, cooldown_s=0.0)
            assert store.load(store_key(PROVE)) is None
        finally:
            thread.join(timeout=5)
            listener.close()


class TestDegradation:
    def dead_store(self, **kwargs):
        # Bind-then-close: a port that refuses connections.
        probe = socket.create_server(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        return NetworkStore(host, port, connect_timeout=0.2, **kwargs)

    def test_retry_is_bounded_with_exponential_backoff(self):
        store = self.dead_store(retries=3, backoff_s=0.05)
        sleeps = []
        store._sleep = sleeps.append
        assert store.load("ab" * 32) is None
        # 1 initial + 3 retries, backoff doubling between attempts.
        assert sleeps == [0.05, 0.1, 0.2]

    def test_cooldown_fails_fast_without_reconnecting(self):
        store = self.dead_store(retries=0, cooldown_s=60.0)
        store._sleep = lambda _s: None
        assert store.load("ab" * 32) is None
        attempts = []
        store._dial = lambda: attempts.append(1) or (_ for _ in ()).throw(
            OSError("nope"))
        assert store.load("ab" * 32) is None  # cooldown: no dial at all
        assert attempts == []

    def test_cooldown_expires_and_reconnects(self, server, tmp_path):
        host, port = server.address
        store = NetworkStore(host, port, retries=0, cooldown_s=30.0)
        clock = [0.0]
        store._clock = lambda: clock[0]
        Session(store=store).run(PROVE)
        store.close()
        # Simulate a blip: declare it down, then advance past cooldown.
        store._down_until = 10.0
        assert store.load(store_key(PROVE)) is None
        clock[0] = 11.0
        assert store.load(store_key(PROVE)) is not None

    def test_every_method_degrades_when_unreachable(self):
        store = self.dead_store(retries=0)
        store._sleep = lambda _s: None
        assert store.load("ab" * 32) is None
        assert store.keys() == ()
        assert store.remove("ab" * 32) is False
        with pytest.raises(StoreUnavailable):
            store.server_stats()

    def test_save_to_an_unreachable_server_is_dropped_silently(self):
        reference = MemoryStore()
        Session(store=reference).run(PROVE)
        key = store_key(PROVE)
        result = reference.load(key)
        store = self.dead_store(retries=0)
        store._sleep = lambda _s: None
        store.save(key, result)  # must not raise
        assert store.load(key) is None

    def test_server_death_mid_run_degrades_to_the_inner_engine(
            self, tmp_path):
        server = StoreServer(FileStore(tmp_path / "store"))
        server.start()
        host, port = server.address
        store = NetworkStore(host, port, connect_timeout=0.2,
                             retries=0, cooldown_s=60.0)
        store._sleep = lambda _s: None
        store.ping()      # connection up, store warm-capable
        server.close()    # ...and the server dies mid-session

        result = Session(store=store).run(PROVE)
        assert result.verdict.value == "proved"
        assert result.provenance is not None
        assert not result.provenance.hit

    def test_save_failures_never_fail_the_run(self, tmp_path):
        # The server dies *between* the lookup (miss) and the save:
        # the result must still come back.
        server = StoreServer(FileStore(tmp_path / "store"))
        server.start()
        host, port = server.address
        store = NetworkStore(host, port, connect_timeout=0.2,
                             retries=0, cooldown_s=60.0)
        store._sleep = lambda _s: None

        class DyingStore:
            def describe(self):
                return store.describe()

            def load(self, key):
                value = store.load(key)
                server.close()
                return value

            def save(self, key, result):
                store.save(key, result)

            def keys(self):
                return store.keys()

            def remove(self, key):
                return store.remove(key)

        result = Session(store=DyingStore()).run(PROVE)
        assert result.verdict.value == "proved"
