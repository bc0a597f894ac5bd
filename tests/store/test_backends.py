"""Store backend semantics: round-trips, eviction, and File/Memory
equivalence."""

import json

import pytest

from repro.api import Session, VerificationRequest
from repro.store import (
    FileStore,
    MemoryStore,
    StoreError,
    decode_entry,
    encode_entry,
    store_key,
)


@pytest.fixture(scope="module")
def proved_result():
    request = (VerificationRequest.builder("prove")
               .policy("balance_count").scope(cores=3, max_load=2)
               .build())
    return Session().run(request)


@pytest.fixture(scope="module")
def hunt_result():
    request = (VerificationRequest.builder("hunt")
               .policy("naive").scope(cores=3, max_load=2).build())
    return Session().run(request)


def stores(tmp_path):
    return [FileStore(tmp_path / "file"), MemoryStore()]


class TestRoundTrips:
    def test_hit_miss_round_trip(self, tmp_path, proved_result):
        key = store_key(proved_result.request)
        for store in stores(tmp_path):
            assert store.load(key) is None
            store.save(key, proved_result)
            loaded = store.load(key)
            assert loaded is not None
            assert loaded.request == proved_result.request
            assert loaded.render() == proved_result.render()
            # Stored form is the timing-stripped normal form.
            assert loaded == proved_result.normalized()
            assert store.keys() == (key,)
            assert store.remove(key)
            assert store.load(key) is None
            assert not store.remove(key)

    def test_overwrite_replaces_the_entry(self, tmp_path, proved_result,
                                          hunt_result):
        key = store_key(proved_result.request)
        for store in stores(tmp_path):
            store.save(key, proved_result)
            store.save(key, proved_result)
            assert store.keys() == (key,)

    def test_memory_and_file_stores_are_equivalent(self, tmp_path,
                                                   proved_result,
                                                   hunt_result):
        memory = MemoryStore()
        file = FileStore(tmp_path / "equiv")
        for result in (proved_result, hunt_result):
            key = store_key(result.request)
            memory.save(key, result)
            file.save(key, result)
            assert memory.load(key) == file.load(key)
        assert memory.keys() == file.keys()

    def test_describe(self, tmp_path):
        assert "memory" in MemoryStore().describe()
        assert str(tmp_path) in FileStore(tmp_path).describe()


class TestEntryVerification:
    def test_corrupt_json_is_a_miss(self, tmp_path, proved_result):
        store = FileStore(tmp_path)
        key = store_key(proved_result.request)
        store.save(key, proved_result)
        store.path_for(key).write_text("{not json")
        assert store.load(key) is None

    def test_wire_version_skew_is_a_miss(self, tmp_path, proved_result):
        store = FileStore(tmp_path)
        key = store_key(proved_result.request)
        store.save(key, proved_result)
        path = store.path_for(key)
        document = json.loads(path.read_text())
        document["wire_version"] = 1  # an older checker wrote this
        path.write_text(json.dumps(document))
        assert store.load(key) is None

    def test_mis_addressed_entry_is_a_miss(self, tmp_path, proved_result,
                                           hunt_result):
        # An entry whose embedded request re-hashes elsewhere must not
        # be served, however it got there.
        store = FileStore(tmp_path)
        wrong_key = store_key(hunt_result.request)
        store.path_for(wrong_key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(wrong_key).write_text(
            encode_entry(store_key(proved_result.request), proved_result)
        )
        assert store.load(wrong_key) is None

    def test_decode_entry_reports_the_reason(self, proved_result):
        key = store_key(proved_result.request)
        with pytest.raises(StoreError, match="not valid JSON"):
            decode_entry(key, "{")
        with pytest.raises(StoreError, match="format"):
            decode_entry(key, "{}")
        good = json.loads(encode_entry(key, proved_result))
        good["wire_version"] = 999
        with pytest.raises(StoreError, match="wire version"):
            decode_entry(key, json.dumps(good))

    def test_deeply_nested_entry_is_a_store_error(self, proved_result):
        # A hostile store server can send any text as an entry; nesting
        # past the JSON parser's recursion limit must read as corrupt.
        key = store_key(proved_result.request)
        with pytest.raises(StoreError, match="not valid JSON"):
            decode_entry(key, "[" * 100_000)


class TestMaintenance:
    def test_verify_integrity_evicts_corrupt_and_skewed(
            self, tmp_path, proved_result, hunt_result):
        store = FileStore(tmp_path)
        good_key = store_key(proved_result.request)
        store.save(good_key, proved_result)
        skew_key = store_key(hunt_result.request)
        store.save(skew_key, hunt_result)
        path = store.path_for(skew_key)
        document = json.loads(path.read_text())
        document["wire_version"] = 1
        path.write_text(json.dumps(document))
        bogus = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        bogus.parent.mkdir(parents=True, exist_ok=True)
        bogus.write_text("garbage")

        report = store.verify_integrity()
        assert report.checked == 3
        assert report.kept == 1
        evicted_keys = {key for key, _ in report.evicted}
        assert evicted_keys == {skew_key, bogus.stem}
        assert store.keys() == (good_key,)

    def test_gc_by_age(self, tmp_path, proved_result, hunt_result):
        store = FileStore(tmp_path)
        old_key = store_key(proved_result.request)
        path = store.path_for(old_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(encode_entry(old_key, proved_result,
                                     created_at=1_000.0))
        fresh_key = store_key(hunt_result.request)
        store.save(fresh_key, hunt_result)

        report = store.gc(max_age_days=7)
        assert store.keys() == (fresh_key,)
        assert [key for key, reason in report.evicted
                if "expired" in reason] == [old_key]

    def test_gc_without_age_keeps_valid_entries(self, tmp_path,
                                                proved_result):
        store = FileStore(tmp_path)
        key = store_key(proved_result.request)
        store.save(key, proved_result)
        report = store.gc()
        assert report.kept == 1
        assert report.evicted == ()

    def test_index_tracks_saves_and_removes(self, tmp_path, proved_result):
        store = FileStore(tmp_path)
        key = store_key(proved_result.request)
        store.save(key, proved_result)
        records = store.records()
        assert [r.key for r in records] == [key]
        assert records[0].kind == "prove"
        assert records[0].verdict == "proved"
        assert "balance_count" in records[0].request
        store.remove(key)
        assert store.records() == ()

    def test_records_rebuild_a_lost_or_stale_index(self, tmp_path,
                                                   proved_result,
                                                   hunt_result):
        # index.json is a cache: saves never write it, and records()
        # rebuilds it whenever it drifts from the entry files.
        store = FileStore(tmp_path)
        key = store_key(proved_result.request)
        store.save(key, proved_result)
        assert not (tmp_path / "index.json").exists()
        assert [r.key for r in store.records()] == [key]
        assert (tmp_path / "index.json").exists()

        other = store_key(hunt_result.request)
        store.save(other, hunt_result)  # cache is now stale
        assert {r.key for r in store.records()} == {key, other}

        (tmp_path / "index.json").unlink()
        assert {r.key for r in store.records()} == {key, other}

    def test_concurrent_style_saves_lose_no_records(self, tmp_path,
                                                    proved_result,
                                                    hunt_result):
        # Two stores sharing one root (two concurrent runs): each saves
        # its own entry; both rows surface.
        a, b = FileStore(tmp_path), FileStore(tmp_path)
        a.save(store_key(proved_result.request), proved_result)
        b.save(store_key(hunt_result.request), hunt_result)
        assert len(a.records()) == 2
        assert len(b.records()) == 2

    def test_missing_store_dir_is_empty(self, tmp_path):
        store = FileStore(tmp_path / "never-created")
        assert store.keys() == ()
        assert store.load("0" * 64) is None
        assert store.records() == ()

    def test_maintenance_never_creates_a_missing_root(self, tmp_path):
        # verify-integrity against a typo'd path must report nothing,
        # not conjure an empty store there.
        store = FileStore(tmp_path / "typo")
        report = store.verify_integrity()
        assert report.checked == 0
        assert not (tmp_path / "typo").exists()

    def test_records_refresh_after_an_entry_is_overwritten(
            self, tmp_path, proved_result):
        # --store-refresh overwrites entries in place (same key set);
        # the cached rows must notice and re-derive, not go stale.
        store = FileStore(tmp_path)
        key = store_key(proved_result.request)
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        import os

        path.write_text(encode_entry(key, proved_result,
                                     created_at=1_000.0))
        os.utime(path, (1_000.0, 1_000.0))
        assert store.records()[0].created_at == 1_000.0
        path.write_text(encode_entry(key, proved_result,
                                     created_at=2_000.0))
        os.utime(path, (2_000.0, 2_000.0))
        assert store.records()[0].created_at == 2_000.0


@pytest.fixture(scope="module")
def wide_proved_result():
    request = (VerificationRequest.builder("prove")
               .policy("balance_count").scope(cores=3, max_load=4)
               .build())
    return Session().run(request)


@pytest.fixture(scope="module")
def refuted_result():
    request = (VerificationRequest.builder("prove")
               .policy("naive").scope(cores=3, max_load=2).build())
    return Session().run(request)


@pytest.fixture(scope="module")
def refuted_wide_result():
    request = (VerificationRequest.builder("prove")
               .policy("naive").scope(cores=3, max_load=4).build())
    return Session().run(request)


class TestAccessStamps:
    def test_touch_stamps_and_accesses_reads_back(self, tmp_path,
                                                  proved_result):
        for store in stores(tmp_path):
            key = store_key(proved_result.request)
            store.save(key, proved_result)
            assert store.accesses() == {}
            store.touch(key, now=123.0)
            assert store.accesses() == {key: 123.0}
            store.touch(key, now=456.0)
            assert store.accesses() == {key: 456.0}

    def test_touching_a_missing_key_stamps_nothing(self, tmp_path):
        for store in stores(tmp_path):
            store.touch("ab" * 32, now=1.0)
            assert store.accesses() == {}

    def test_remove_drops_the_stamp(self, tmp_path, proved_result):
        for store in stores(tmp_path):
            key = store_key(proved_result.request)
            store.save(key, proved_result)
            store.touch(key, now=1.0)
            store.remove(key)
            assert store.accesses() == {}

    def test_stamps_live_beside_the_entries_not_in_the_index(
            self, tmp_path, proved_result):
        # Reads must not invalidate the mtime-validated index cache.
        store = FileStore(tmp_path)
        key = store_key(proved_result.request)
        store.save(key, proved_result)
        store.records()  # materialise the index cache
        index_before = (tmp_path / "index.json").read_text()
        store.touch(key, now=9.0)
        assert (tmp_path / "index.json").read_text() == index_before
        document = json.loads((tmp_path / "access.json").read_text())
        assert document["accesses"] == {key: 9.0}

    def test_a_warm_session_hit_touches_the_entry(self, tmp_path):
        request = (VerificationRequest.builder("prove")
                   .policy("balance_count").scope(cores=3, max_load=2)
                   .build())
        store = FileStore(tmp_path)
        Session(store=store).run(request)
        assert store.accesses() == {}
        Session(store=store).run(request)
        assert store_key(request) in store.accesses()

    def test_garbage_access_sidecar_is_ignored(self, tmp_path,
                                               proved_result):
        store = FileStore(tmp_path)
        store.save(store_key(proved_result.request), proved_result)
        (tmp_path / "access.json").write_text("not json")
        assert store.accesses() == {}
        (tmp_path / "access.json").write_text('{"k": "soon"}')
        assert store.accesses() == {}

    def test_deeply_nested_sidecars_read_as_empty(self, tmp_path,
                                                 proved_result,
                                                 hunt_result):
        # Nesting past the parser's recursion limit raises
        # RecursionError, not JSONDecodeError; both sidecars must still
        # read as empty and gc must still run.
        store = FileStore(tmp_path)
        keys = sorted(store_key(result.request)
                      for result in (proved_result, hunt_result))
        for result in (proved_result, hunt_result):
            store.save(store_key(result.request), result)
        for name in ("access.json", "index.json"):
            (tmp_path / name).write_text("[" * 100_000)
        assert store.accesses() == {}
        assert sorted(record.key for record in store.records()) == keys
        (tmp_path / "index.json").write_text("[" * 100_000)
        report = store.gc(max_entries=1)
        assert report.checked == 2
        assert len(store.keys()) == 1


class TestRequestAwareEviction:
    def test_gc_caps_entries_by_least_recent_use(self, tmp_path,
                                                 proved_result,
                                                 hunt_result):
        store = FileStore(tmp_path)
        prove_key = store_key(proved_result.request)
        hunt_key = store_key(hunt_result.request)
        store.save(prove_key, proved_result)
        store.save(hunt_key, hunt_result)
        store.touch(prove_key, now=1.0)
        store.touch(hunt_key, now=2.0)

        report = store.gc(max_entries=1)
        assert store.keys() == (hunt_key,)
        (eviction,) = report.evicted
        assert eviction[0] == prove_key
        assert "least recently used" in eviction[1]

    def test_touch_reorders_the_eviction_queue(self, tmp_path,
                                               proved_result,
                                               hunt_result):
        store = FileStore(tmp_path)
        prove_key = store_key(proved_result.request)
        hunt_key = store_key(hunt_result.request)
        store.save(prove_key, proved_result)
        store.save(hunt_key, hunt_result)
        store.touch(prove_key, now=2.0)
        store.touch(hunt_key, now=1.0)
        store.gc(max_entries=1)
        assert store.keys() == (prove_key,)

    def test_never_touched_entries_rank_by_creation_time(
            self, tmp_path, proved_result, hunt_result):
        store = FileStore(tmp_path)
        old_key = store_key(proved_result.request)
        path = store.path_for(old_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(encode_entry(old_key, proved_result,
                                     created_at=1_000.0))
        fresh_key = store_key(hunt_result.request)
        store.save(fresh_key, hunt_result)
        store.gc(max_entries=1)
        assert store.keys() == (fresh_key,)

    def test_gc_prunes_stamps_to_the_survivors(self, tmp_path,
                                               proved_result,
                                               hunt_result):
        store = FileStore(tmp_path)
        prove_key = store_key(proved_result.request)
        hunt_key = store_key(hunt_result.request)
        store.save(prove_key, proved_result)
        store.save(hunt_key, hunt_result)
        store.touch(prove_key, now=1.0)
        store.touch(hunt_key, now=2.0)
        store.gc(max_entries=1)
        assert store.accesses() == {hunt_key: 2.0}

    def test_subsume_gc_folds_narrower_proofs_into_wider(
            self, tmp_path, proved_result, wide_proved_result):
        store = FileStore(tmp_path)
        narrow_key = store_key(proved_result.request)
        wide_key = store_key(wide_proved_result.request)
        store.save(narrow_key, proved_result)
        store.save(wide_key, wide_proved_result)

        report = store.gc(subsume=True)
        assert store.keys() == (wide_key,)
        (eviction,) = report.evicted
        assert eviction[0] == narrow_key
        assert "subsumed by" in eviction[1]

    def test_subsume_gc_never_evicts_refutations(
            self, tmp_path, refuted_result, refuted_wide_result,
            wide_proved_result):
        # A wide refutation says nothing about the narrow scope, and
        # a wide proof never answers for a narrow refutation: only
        # proved-for-proved redundancy is folded.
        store = FileStore(tmp_path)
        for result in (refuted_result, refuted_wide_result,
                       wide_proved_result):
            store.save(store_key(result.request), result)
        report = store.gc(subsume=True)
        assert report.evicted == ()
        assert len(store.keys()) == 3

    def test_subsume_gc_is_off_by_default(self, tmp_path, proved_result,
                                          wide_proved_result):
        store = FileStore(tmp_path)
        store.save(store_key(proved_result.request), proved_result)
        store.save(store_key(wide_proved_result.request),
                   wide_proved_result)
        report = store.gc()
        assert report.kept == 2
