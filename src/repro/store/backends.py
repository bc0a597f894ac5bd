"""Result store backends: one protocol, three deployments.

A :class:`ResultStore` persists verification results under their
content address (:func:`~repro.store.keys.store_key`) so the stack
never pays for the same proof twice. Three backends cover the
deployment spectrum:

* :class:`FileStore` — the durable on-disk store
  (``~/.cache/repro/store`` by default): entries live at
  ``<root>/<first 2 hex>/<key>.json`` with an ``index.json`` summary at
  the root, written atomically so concurrent runs can share one store.
* :class:`MemoryStore` — the same entry encoding held in a dict; the
  zero-setup store for tests and one-process pipelines. Because both
  stores round-trip the identical entry document, File/Memory
  equivalence is a tested property, not an aspiration.
* :class:`NullStore` — never hits, never keeps; the explicit "store
  disabled" object for code paths that want the store plumbing without
  the storage.

Entries are stored in the **normal form** of
:func:`~repro.api.report.strip_result_timings`: wall-clock is the only
engine- and machine-dependent content of a result, so zeroing it makes
a stored entry a pure function of its key. Every load re-verifies the
entry — format marker, wire version, and a re-hash of the embedded
request against the key — so a corrupt or version-skewed entry is a
*miss*, never a wrong answer; ``gc``/``verify-integrity`` evict such
entries for good.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Protocol, runtime_checkable

from repro.api.report import (
    CodecError,
    result_from_dict,
    result_to_dict,
    strip_result_timings,
)
from repro.api.result import VerificationResult
from repro.core.errors import VerificationError
from repro.obs.trace import TRACER
from repro.verify.wire import WIRE_VERSION

from repro.store.keys import (
    STORE_FORMAT,
    default_store_dir,
    storage_request,
    store_key,
    subsumes,
)

#: Name of the human-readable summary file at the store root.
INDEX_NAME = "index.json"

#: Name of the last-access stamp sidecar at the store root. Kept out
#: of ``index.json`` deliberately: the index is an mtime-validated
#: cache of entry *content*, and folding access times into it would
#: invalidate it on every read. Stamps are best-effort — a lost stamp
#: only makes ``gc --max-entries`` fall back to the entry's creation
#: time.
ACCESS_NAME = "access.json"


class StoreError(VerificationError):
    """An entry or store that cannot be used (corrupt, skewed, or
    unwritable)."""


# ---------------------------------------------------------------------------
# the entry document (shared by every backend)
# ---------------------------------------------------------------------------


def encode_entry(key: str, result: VerificationResult, *,
                 created_at: float | None = None) -> str:
    """Serialise ``result`` as the store's entry document.

    The result is stored timing-stripped (the engine-independent normal
    form) with its request in the machine-independent storage spelling
    (:func:`~repro.store.keys.storage_request`, so re-hash verification
    gives the same answer on every host); ``created_at`` stamps the
    entry for ``gc --max-age-days``.
    """
    from dataclasses import replace

    result = replace(result, request=storage_request(result.request))
    document = {
        "format": STORE_FORMAT,
        "wire_version": WIRE_VERSION,
        "key": key,
        "created_at": time.time() if created_at is None else created_at,
        "result": result_to_dict(strip_result_timings(result)),
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _parse_entry(key: str, text: str) -> tuple[VerificationResult, float]:
    """Parse and *re-verify* an entry document in one pass.

    Returns:
        The decoded result and the entry's ``created_at`` stamp.

    Raises:
        StoreError: malformed JSON, a format or wire-version skew, or a
            key that no longer matches the re-hashed embedded request —
            every reason an entry must be treated as absent (and is
            evicted by ``gc``/``verify-integrity``).
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreError(f"entry {key[:12]} is not valid JSON: {exc}") \
            from exc
    if not isinstance(document, Mapping):
        raise StoreError(f"entry {key[:12]} is not a JSON object")
    if document.get("format") != STORE_FORMAT:
        raise StoreError(
            f"entry {key[:12]} has format {document.get('format')!r};"
            f" this store reads {STORE_FORMAT!r}"
        )
    if document.get("wire_version") != WIRE_VERSION:
        raise StoreError(
            f"entry {key[:12]} was written under wire version"
            f" {document.get('wire_version')!r}; current checkers speak"
            f" {WIRE_VERSION} and may disagree with it"
        )
    if document.get("key") != key:
        raise StoreError(
            f"entry {key[:12]} claims key"
            f" {str(document.get('key'))[:12]!r}"
        )
    try:
        result = result_from_dict(document["result"])
    except (CodecError, KeyError, TypeError, ValueError) as exc:
        raise StoreError(
            f"entry {key[:12]} does not decode to a result: {exc}"
        ) from exc
    actual = store_key(result.request)
    if actual != key:
        raise StoreError(
            f"entry {key[:12]} re-hashes to {actual[:12]}: the stored"
            " request does not address this entry"
        )
    stamp = document.get("created_at", 0.0)
    created_at = float(stamp) if isinstance(stamp, (int, float)) \
        and not isinstance(stamp, bool) else 0.0
    return result, created_at


def decode_entry(key: str, text: str) -> VerificationResult:
    """Parse and *re-verify* an entry document (see :func:`_parse_entry`)."""
    result, _ = _parse_entry(key, text)
    return result


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class ResultStore(Protocol):
    """What the caching layer needs from a store backend."""

    def describe(self) -> str:
        """One-line store description for events and reports."""
        ...

    def load(self, key: str) -> VerificationResult | None:
        """The stored result for ``key``, or ``None`` on a miss.

        A corrupt or version-skewed entry is a miss, never an error:
        the store may be stale, but it must not be wrong.
        """
        ...

    def save(self, key: str, result: VerificationResult) -> None:
        """Store ``result`` under ``key`` (timing-stripped),
        overwriting any previous entry."""
        ...

    def keys(self) -> tuple[str, ...]:
        """Every stored key, sorted."""
        ...

    def remove(self, key: str) -> bool:
        """Delete one entry; True when something was removed."""
        ...


# ---------------------------------------------------------------------------
# raw-entry access (the store service's transport format)
# ---------------------------------------------------------------------------
#
# The store server and NetworkStore move *entry documents*, not decoded
# results: the client re-validates every document it receives exactly
# as it would a local file (decode_entry re-hashes the embedded request
# against the key), so a hostile or skewed server can cause misses but
# never wrong answers. Backends that can serve raw text expose
# load_text/save_text; save_text validates before writing so a store
# never persists a document it would refuse to read back.


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


class NullStore:
    """The store that is not there: every load misses, saves vanish."""

    def describe(self) -> str:
        return "null"

    def load(self, key: str) -> VerificationResult | None:
        return None

    def save(self, key: str, result: VerificationResult) -> None:
        return None

    def keys(self) -> tuple[str, ...]:
        return ()

    def remove(self, key: str) -> bool:
        return False


class MemoryStore:
    """An in-process store holding the same entry documents
    :class:`FileStore` writes — the equivalence the test suite pins."""

    def __init__(self) -> None:
        self._entries: dict[str, str] = {}
        self._accesses: dict[str, float] = {}

    def describe(self) -> str:
        return f"memory[{len(self._entries)} entries]"

    def load(self, key: str) -> VerificationResult | None:
        text = self._entries.get(key)
        if text is None:
            return None
        try:
            return decode_entry(key, text)
        except StoreError:
            return None

    def save(self, key: str, result: VerificationResult) -> None:
        self._entries[key] = encode_entry(key, result)

    def keys(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def remove(self, key: str) -> bool:
        self._accesses.pop(key, None)
        return self._entries.pop(key, None) is not None

    def load_text(self, key: str) -> str | None:
        return self._entries.get(key)

    def save_text(self, key: str, text: str) -> None:
        decode_entry(key, text)  # refuse documents we could not read back
        self._entries[key] = text

    def touch(self, key: str, *, now: float | None = None) -> None:
        """Stamp ``key``'s last access (``gc --max-entries`` ranking)."""
        if key in self._entries:
            self._accesses[key] = time.time() if now is None else now

    def accesses(self) -> dict[str, float]:
        """Last-access stamps by key (unstamped entries absent)."""
        return dict(self._accesses)


@dataclass(frozen=True)
class StoreRecord:
    """One index row of an on-disk store (what ``store ls`` prints)."""

    key: str
    kind: str
    request: str
    verdict: str
    created_at: float


@dataclass(frozen=True)
class IntegrityReport:
    """What an integrity pass (or ``gc``) did.

    Attributes:
        checked: entries examined.
        kept: entries that re-verified.
        evicted: ``(key, reason)`` pairs removed from the store.
    """

    checked: int
    kept: int
    evicted: tuple[tuple[str, str], ...]


class FileStore:
    """The durable content-addressed store.

    Layout::

        <root>/
          index.json          # summary rows for `store ls`
          <2 hex>/<key>.json  # one entry per verified request

    Entry and index writes go through a temp file + :func:`os.replace`,
    so a crashed or concurrent run can leave the index *stale* but
    never an entry *torn*; :meth:`verify_integrity` rebuilds the index
    from the entries, which remain the source of truth.
    """

    def __init__(self, root: str | os.PathLike[str] | None = None) -> None:
        self.root = (Path(root).expanduser() if root is not None
                     else default_store_dir())

    def describe(self) -> str:
        return f"file[{self.root}]"

    # -- entry placement ------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (``<root>/<2 hex>/<key>.json``)."""
        return self.root / key[:2] / f"{key}.json"

    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            path
            for shard in self.root.iterdir()
            if shard.is_dir() and len(shard.name) == 2
            for path in shard.glob("*.json")
        )

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{path.name}.", suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(text)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    # -- the protocol ---------------------------------------------------

    def load(self, key: str) -> VerificationResult | None:
        with TRACER.span("store.read", "store", backend="file") as span:
            path = self.path_for(key)
            try:
                text = path.read_text()
            except OSError:
                span.set(hit=False)
                return None
            try:
                entry = decode_entry(key, text)
            except StoreError:
                span.set(hit=False)
                return None
            span.set(hit=True, bytes=len(text))
            return entry

    def save(self, key: str, result: VerificationResult) -> None:
        with TRACER.span("store.write", "store", backend="file") as span:
            text = encode_entry(key, result)
            span.set(bytes=len(text))
            try:
                self._write_atomic(self.path_for(key), text)
            except OSError as exc:
                raise StoreError(
                    f"cannot write store entry under {self.root}: {exc}"
                ) from exc

    def keys(self) -> tuple[str, ...]:
        return tuple(path.stem for path in self._entry_paths())

    def remove(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        stamps = self._read_accesses()
        if stamps.pop(key, None) is not None:
            self._write_accesses(stamps)
        return True

    def load_text(self, key: str) -> str | None:
        """The raw entry document for ``key`` (what the store server
        sends over the wire), or ``None``."""
        try:
            return self.path_for(key).read_text()
        except OSError:
            return None

    def save_text(self, key: str, text: str) -> None:
        """Validate and store one raw entry document (a network
        ``put``); refuses anything :func:`decode_entry` would."""
        decode_entry(key, text)
        try:
            self._write_atomic(self.path_for(key), text)
        except OSError as exc:
            raise StoreError(
                f"cannot write store entry under {self.root}: {exc}"
            ) from exc

    # -- last-access stamps ---------------------------------------------

    def touch(self, key: str, *, now: float | None = None) -> None:
        """Stamp ``key``'s last access in the ``access.json`` sidecar.

        Best-effort: an unwritable store root silently drops the stamp
        (reads must never fail because bookkeeping could not be
        written), and concurrent touchers may lose each other's stamps
        — ``gc --max-entries`` falls back to ``created_at`` for any
        entry without one.
        """
        if not self.root.is_dir() or not self.path_for(key).is_file():
            return
        stamps = self._read_accesses()
        stamps[key] = time.time() if now is None else now
        self._write_accesses(stamps)

    def accesses(self) -> dict[str, float]:
        """Last-access stamps by key (unstamped entries absent)."""
        return self._read_accesses()

    def _read_accesses(self) -> dict[str, float]:
        try:
            document = json.loads((self.root / ACCESS_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        stamps = document.get("accesses") if isinstance(document, dict) \
            else None
        if not isinstance(stamps, dict):
            return {}
        return {
            key: float(value)
            for key, value in stamps.items()
            if isinstance(key, str)
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        }

    def _write_accesses(self, stamps: dict[str, float]) -> None:
        document = {"format": STORE_FORMAT, "accesses": stamps}
        try:
            self._write_atomic(
                self.root / ACCESS_NAME,
                json.dumps(document, sort_keys=True, indent=2) + "\n",
            )
        except (OSError, StoreError):
            pass

    # -- the index ------------------------------------------------------
    #
    # index.json is a cache of summary rows, never a source of truth:
    # saves and removes touch only their entry file (so two runs
    # sharing one store cannot clobber each other's rows, and the save
    # path stays O(1)); records() validates the cached rows against the
    # entry files and rebuilds them from the entries when they drifted.

    def _read_index(self) -> dict[str, Any]:
        try:
            document = json.loads((self.root / INDEX_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        entries = document.get("entries") if isinstance(document, dict) \
            else None
        return entries if isinstance(entries, dict) else {}

    def _write_index(self, entries: dict[str, Any]) -> None:
        document = {"format": STORE_FORMAT, "entries": entries}
        try:
            self._write_atomic(
                self.root / INDEX_NAME,
                json.dumps(document, sort_keys=True, indent=2) + "\n",
            )
        except OSError as exc:
            raise StoreError(
                f"cannot write store index under {self.root}: {exc}"
            ) from exc

    @staticmethod
    def _index_row(result: VerificationResult,
                   created_at: float) -> dict[str, Any]:
        return {
            "kind": result.request.kind,
            "request": result.request.describe(),
            "verdict": result.verdict.value,
            "created_at": created_at,
        }

    @staticmethod
    def _stamp(row: dict[str, Any], path: Path) -> dict[str, Any]:
        """Tag an index row with its entry file's mtime — the token
        :meth:`records` validates the cache with."""
        try:
            row["mtime"] = path.stat().st_mtime
        except OSError:
            row["mtime"] = 0.0
        return row

    def _index_fresh(self, index: Mapping[str, Any]) -> bool:
        """Whether the cached rows still describe the entry files
        (same keys, same file mtimes — an overwritten entry, e.g. via
        ``--store-refresh``, invalidates its row)."""
        paths = {path.stem: path for path in self._entry_paths()}
        if set(index) != set(paths):
            return False
        for key, row in index.items():
            if not isinstance(row, dict):
                return False
            try:
                if row.get("mtime") != paths[key].stat().st_mtime:
                    return False
            except OSError:
                return False
        return True

    def _rebuild_index(self) -> dict[str, Any]:
        """Re-derive the summary rows from the entry files (skipping,
        not evicting, entries that no longer decode — eviction is
        :meth:`verify_integrity`'s job) and refresh the cache."""
        entries: dict[str, Any] = {}
        for path in self._entry_paths():
            key = path.stem
            try:
                result, created_at = _parse_entry(key, path.read_text())
            except (OSError, StoreError):
                continue
            entries[key] = self._stamp(
                self._index_row(result, created_at), path
            )
        if self.root.is_dir():
            self._write_index(entries)
        return entries

    def records(self) -> tuple[StoreRecord, ...]:
        """The summary rows, oldest first (``store ls``)."""
        index = self._read_index()
        if not self._index_fresh(index):
            index = self._rebuild_index()
        rows = []
        for key, row in index.items():
            if not isinstance(row, dict):
                continue
            created = row.get("created_at", 0.0)
            rows.append(StoreRecord(
                key=key,
                kind=str(row.get("kind", "?")),
                request=str(row.get("request", "?")),
                verdict=str(row.get("verdict", "?")),
                created_at=(float(created)
                            if isinstance(created, (int, float)) else 0.0),
            ))
        return tuple(sorted(rows, key=lambda r: (r.created_at, r.key)))

    # -- maintenance ----------------------------------------------------

    def verify_integrity(self, *,
                         max_age_s: float | None = None,
                         max_entries: int | None = None,
                         subsume: bool = False,
                         now: float | None = None) -> IntegrityReport:
        """Re-hash every entry; evict what no longer verifies.

        Each entry is re-decoded and its embedded request re-hashed
        against its address; corrupt, format- or wire-version-skewed,
        and mis-addressed entries are deleted. With ``max_age_s``,
        entries older than that are evicted too (``gc``'s age policy).

        Two request-aware policies stack on top, each opt-in:

        * ``subsume=True`` evicts every *proved* ``prove`` entry whose
          scope another surviving proved entry subsumes
          (:func:`~repro.store.keys.subsumes`) — the superset proof
          answers for it, so keeping both is pure redundancy. Only
          proved entries participate on either side: refutations are
          never evicted this way and never subsume anything.
        * ``max_entries=N`` then keeps the N most recently *used*
          entries, ranked by :meth:`touch` stamps with ``created_at``
          as the fallback for never-stamped entries.

        The index is rebuilt from (and access stamps pruned to) the
        surviving entries.

        Returns:
            An :class:`IntegrityReport` of what was kept and evicted.
        """
        clock = time.time() if now is None else now
        survivors: dict[str, tuple[VerificationResult, float]] = {}
        evicted: list[tuple[str, str]] = []
        checked = 0
        for path in self._entry_paths():
            checked += 1
            key = path.stem
            try:
                text = path.read_text()
            except OSError as exc:
                evicted.append((key, f"unreadable: {exc}"))
                self._discard(path)
                continue
            try:
                result, created = _parse_entry(key, text)
            except StoreError as exc:
                evicted.append((key, str(exc)))
                self._discard(path)
                continue
            if max_age_s is not None and clock - created > max_age_s:
                age_days = (clock - created) / 86_400
                evicted.append((key, f"expired ({age_days:.1f} days old)"))
                self._discard(path)
                continue
            survivors[key] = (result, created)
        if subsume:
            for key, reason in self._subsumed(survivors):
                evicted.append((key, reason))
                self._discard(self.path_for(key))
                del survivors[key]
        if max_entries is not None and len(survivors) > max_entries:
            stamps = self._read_accesses()
            by_staleness = sorted(
                survivors,
                key=lambda key: (stamps.get(key, survivors[key][1]), key),
            )
            for key in by_staleness[:len(survivors) - max_entries]:
                evicted.append((key, "least recently used"
                                     f" (keeping {max_entries} entries)"))
                self._discard(self.path_for(key))
                del survivors[key]
        if self.root.is_dir():
            # A nonexistent root stays nonexistent: pointing
            # verify-integrity at a typo'd path must not conjure an
            # empty store there.
            self._write_index({
                key: self._stamp(self._index_row(result, created),
                                 self.path_for(key))
                for key, (result, created) in survivors.items()
            })
            stamps = self._read_accesses()
            pruned = {key: stamp for key, stamp in stamps.items()
                      if key in survivors}
            if pruned != stamps:
                self._write_accesses(pruned)
        return IntegrityReport(checked=checked, kept=len(survivors),
                               evicted=tuple(evicted))

    @staticmethod
    def _subsumed(
        survivors: Mapping[str, tuple[VerificationResult, float]],
    ) -> list[tuple[str, str]]:
        """The proved entries another surviving proved entry answers
        for, as ``(key, reason)`` pairs (see :func:`subsumes`)."""
        from repro.api.result import Verdict

        proved = [
            (key, result) for key, (result, _) in sorted(survivors.items())
            if result.verdict is Verdict.PROVED
            and result.request.kind == "prove"
        ]
        doomed: list[tuple[str, str]] = []
        for key, result in proved:
            for other_key, other in proved:
                if other_key == key:
                    continue
                if not subsumes(other.request, result.request):
                    continue
                if subsumes(result.request, other.request) \
                        and key < other_key:
                    # Equivalent scopes under different keys (e.g. a
                    # legacy shard-spelled proof next to its serial
                    # twin): exactly one — the smaller key — survives.
                    continue
                doomed.append((
                    key,
                    f"subsumed by {other_key[:12]}"
                    f" ({other.request.describe()})",
                ))
                break
        return doomed

    def gc(self, *, max_age_days: float | None = None,
           max_entries: int | None = None,
           subsume: bool = False) -> IntegrityReport:
        """Evict corrupt and version-skewed entries (and, per the
        opt-in policies, stale / subsumed / least-recently-used ones);
        rebuild the index."""
        max_age_s = (max_age_days * 86_400
                     if max_age_days is not None else None)
        return self.verify_integrity(max_age_s=max_age_s,
                                     max_entries=max_entries,
                                     subsume=subsume)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
