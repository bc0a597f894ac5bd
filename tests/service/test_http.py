"""The HTTP verification front end: routing, auth, streaming, warmth."""

import asyncio
import http.client
import json
import threading

import pytest

from repro.service.http import VerificationService, event_to_dict
from repro.api import Session, VerificationRequest
from repro.api.session import RequestFinished, RequestStarted
from repro.store import FileStore, MemoryStore, store_key

PROVE = (VerificationRequest.builder("prove")
         .policy("balance_count").scope(cores=3, max_load=2).build())

SPEC = {
    "spec_version": 1,
    "name": "service-smoke",
    "runs": [
        {"name": "prove-tiny", "kind": "prove", "policy": "balance_count",
         "scope": {"cores": 3, "max_load": 2}},
    ],
}


class ServiceThread:
    """Run a :class:`VerificationService` on a private event loop."""

    def __init__(self, **kwargs):
        self.service = VerificationService(**kwargs)
        self.address = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True)

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.address = await self.service.start("127.0.0.1", 0)
        self._ready.set()
        await self._stop.wait()
        await self.service.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10), "service did not start"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    def request(self, method, path, body=None, headers=None):
        """One HTTP exchange; returns ``(status, body_bytes)``."""
        host, port = self.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            payload = (json.dumps(body).encode()
                       if isinstance(body, dict) else body)
            conn.request(method, path, body=payload,
                         headers=dict(headers or {}))
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


@pytest.fixture
def service(tmp_path):
    with ServiceThread(store=FileStore(tmp_path / "store")) as svc:
        yield svc


def ndjson_events(body):
    return [json.loads(line) for line in body.decode().splitlines()]


class TestRouting:
    def test_healthz(self, service):
        status, body = service.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_metrics_names_the_store(self, service):
        status, body = service.request("GET", "/metrics")
        assert status == 200
        document = json.loads(body)
        assert document["requests"] == 0
        assert document["store"].startswith("file[")

    def test_metrics_serves_prometheus_text_on_accept(self, service):
        service.request("POST", "/run-spec", body=SPEC)
        status, body = service.request(
            "GET", "/metrics", headers={"Accept": "text/plain"})
        assert status == 200
        text = body.decode("utf-8")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 1" in text
        assert "# TYPE repro_service_inflight gauge" in text
        assert "repro_service_inflight 0" in text
        assert "# TYPE repro_service_run_seconds histogram" in text
        assert 'repro_service_run_seconds_count{outcome="miss"} 1' \
            in text
        assert "repro_service_stream_events_total" in text

    def test_metrics_json_unchanged_by_prometheus_scrapes(self, service):
        before = service.request("GET", "/metrics")[1]
        service.request("GET", "/metrics",
                        headers={"Accept": "text/plain"})
        assert service.request("GET", "/metrics")[1] == before

    def test_unknown_path_is_404(self, service):
        status, body = service.request("GET", "/nope")
        assert status == 404
        assert "no such endpoint" in json.loads(body)["error"]

    def test_wrong_method_is_405(self, service):
        status, _ = service.request("POST", "/healthz", body={})
        assert status == 405
        status, _ = service.request("GET", "/run-spec")
        assert status == 405


class TestRunSpec:
    def test_cold_run_streams_ndjson_events(self, service):
        status, body = service.request("POST", "/run-spec", body=SPEC)
        assert status == 200
        events = ndjson_events(body)
        names = [event["event"] for event in events]
        assert names[0] == "RunStarted"
        assert "RequestStarted" in names
        assert "RequestFinished" in names
        assert names[-1] == "spec_finished"
        final = events[-1]
        assert final["exit_code"] == 0
        (entry,) = final["report"]
        assert entry["run"] == "prove-tiny"
        assert entry["store_key"] == store_key(PROVE)
        assert entry["result"]["verdict"] == "proved"

    def test_warm_run_is_served_from_the_store(self, service):
        service.request("POST", "/run-spec", body=SPEC)
        status, body = service.request(
            "POST", "/run-spec", body=SPEC,
            headers={"Accept": "application/json"})
        assert status == 200
        (entry,) = json.loads(body)
        provenance = entry["result"]["provenance"]
        assert provenance["hit"] is True
        assert provenance["served_from"] == store_key(PROVE)
        counters = json.loads(service.request("GET", "/metrics")[1])
        assert counters["requests"] == 2
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["inflight"] == 0

    def test_warm_run_explores_nothing(self, service):
        service.request("POST", "/run-spec", body=SPEC)
        _, warm = service.request("POST", "/run-spec", body=SPEC)
        names = [event["event"] for event in ndjson_events(warm)]
        # The store answers before any engine is acquired: no
        # exploration progress events at all on a warm run.
        assert "ResultReused" in names
        assert not {"LevelCompleted", "StatesExplored",
                    "MachineChecked"} & set(names)
        assert "RequestFinished" in names

    def test_plain_json_matches_the_local_report_shape(
            self, service, tmp_path):
        from repro.api.report import (
            result_from_dict,
            result_to_dict,
            strip_result_timings,
        )

        _, body = service.request(
            "POST", "/run-spec", body=SPEC,
            headers={"Accept": "application/json"})
        (entry,) = json.loads(body)
        served = strip_result_timings(result_from_dict(entry["result"]))
        local = strip_result_timings(
            Session(store=MemoryStore()).run(PROVE))
        # Byte-identical documents in the timing-free normal form.
        assert result_to_dict(served) == result_to_dict(local)

    def test_sse_mode_frames_events_as_data_lines(self, service):
        status, body = service.request(
            "POST", "/run-spec", body=SPEC,
            headers={"Accept": "text/event-stream"})
        assert status == 200
        lines = [line for line in body.decode().splitlines() if line]
        assert lines and all(line.startswith("data: ") for line in lines)
        final = json.loads(lines[-1][len("data: "):])
        assert final["event"] == "spec_finished"

    def test_bad_spec_is_400(self, service):
        status, body = service.request(
            "POST", "/run-spec", body={"runs": []})
        assert status == 400
        assert "runs" in json.loads(body)["error"]

    def test_non_json_body_is_400(self, service):
        status, body = service.request(
            "POST", "/run-spec", body=b"not json at all")
        assert status == 400
        assert "not JSON" in json.loads(body)["error"]

    def test_deeply_nested_body_is_400(self, service):
        status, body = service.request(
            "POST", "/run-spec", body=b"[" * 100_000)
        assert status == 400
        assert "not JSON" in json.loads(body)["error"]
        assert service.request("GET", "/healthz")[0] == 200

    def test_oversized_declared_body_is_413(self, service):
        status, body = service.request(
            "POST", "/run-spec", body=b"",
            headers={"Content-Length": str((1 << 22) + 1)})
        assert status == 413
        assert "too large" in json.loads(body)["error"]


class TestAuth:
    @pytest.fixture
    def locked(self, tmp_path):
        with ServiceThread(store=FileStore(tmp_path / "store"),
                           secret="sesame") as svc:
            yield svc

    def test_reads_stay_open(self, locked):
        assert locked.request("GET", "/healthz")[0] == 200
        assert locked.request("GET", "/metrics")[0] == 200

    def test_missing_bearer_is_401(self, locked):
        status, body = locked.request("POST", "/run-spec", body=SPEC)
        assert status == 401
        assert "bearer" in json.loads(body)["error"]

    def test_wrong_bearer_is_401(self, locked):
        status, _ = locked.request(
            "POST", "/run-spec", body=SPEC,
            headers={"Authorization": "Bearer wrong"})
        assert status == 401

    def test_right_bearer_runs_the_spec(self, locked):
        status, body = locked.request(
            "POST", "/run-spec", body=SPEC,
            headers={"Authorization": "Bearer sesame",
                     "Accept": "application/json"})
        assert status == 200
        (entry,) = json.loads(body)
        assert entry["result"]["verdict"] == "proved"


class TestGc:
    def test_gc_reports_the_eviction_pass(self, service):
        service.request("POST", "/run-spec", body=SPEC)
        status, body = service.request(
            "POST", "/gc", body={"max_entries": 0})
        assert status == 200
        document = json.loads(body)
        assert document["checked"] == 1
        assert document["kept"] == 0
        assert len(document["evicted"]) == 1
        counters = json.loads(service.request("GET", "/metrics")[1])
        assert counters["evictions"] == 1

    def test_gc_without_a_store_is_400(self):
        with ServiceThread(store=None) as svc:
            status, body = svc.request("POST", "/gc", body={})
            assert status == 400
            assert "no" in json.loads(body)["error"]

    def test_gc_with_a_non_object_body_is_400(self, service):
        status, _ = service.request("POST", "/gc", body=b"[1, 2]")
        assert status == 400

    @pytest.mark.parametrize("body", [b"[" * 100_000, b"\xff\xfe{"],
                             ids=["nested", "bad-utf16"])
    def test_gc_with_an_undecodable_body_is_400(self, service, body):
        status, response = service.request("POST", "/gc", body=body)
        assert status == 400
        assert "not JSON" in json.loads(response)["error"]


class TestEventDocuments:
    def test_events_flatten_to_json_safe_documents(self):
        result = Session(store=MemoryStore()).run(PROVE)
        document = event_to_dict(RequestFinished(result=result))
        assert document == {"event": "RequestFinished",
                            "result": {"verdict": "proved",
                                       "exit_code": 0}}
        started = event_to_dict(RequestStarted(request=PROVE,
                                               engine="serial"))
        assert started["request"] == {"kind": "prove",
                                      "describe": PROVE.describe()}
        json.dumps(document), json.dumps(started)  # JSON-safe end to end
