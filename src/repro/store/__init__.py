"""repro.store — the content-addressed proof store.

Every verification result is a pure function of its request (timings
aside), and requests serialise canonically (:mod:`repro.api.report`) —
so a result can be *addressed by content*: the SHA-256 of the request's
canonical JSON normal form (:func:`store_key`). This package keeps
those results, giving the whole stack incremental re-verification:
a request proven once is never explored again, on any entry point.

* :mod:`repro.store.keys` — the keying discipline (semantic normal
  form, what is and isn't part of a key).
* :mod:`repro.store.backends` — the :class:`ResultStore` protocol and
  the :class:`FileStore` (``~/.cache/repro/store``, atomic writes, an
  ``index.json``) and :class:`MemoryStore` deployments, with
  ``gc``/``verify-integrity`` maintenance.
* :mod:`repro.store.caching` — :class:`CachingEngine`, the session's
  front to a store: the lookup chain and the save path. The session
  consults it before entering any engine.

Sessions use it through ``Session(store=...)``; the CLI through
``--store``/``--no-store``/``--store-refresh`` and the
``python -m repro store`` maintenance commands. A warm run emits
:class:`~repro.api.session.ResultReused` events instead of exploring
states, and renders byte-identically to the cold run it replays.

Quickstart::

    from repro.api import Session, VerificationRequest
    from repro.store import FileStore

    request = (VerificationRequest.builder("prove")
               .policy("balance_count").build())
    store = FileStore()                  # ~/.cache/repro/store
    cold = Session(store=store).run(request)
    warm = Session(store=store).run(request)   # no exploration
    assert warm.render() == cold.render()
"""

from repro.store.backends import (
    FileStore,
    IntegrityReport,
    MemoryStore,
    ResultStore,
    StoreError,
    StoreRecord,
    decode_entry,
    encode_entry,
)
from repro.store.caching import CachingEngine
from repro.store.keys import (
    STORE_FORMAT,
    canonical_key_json,
    default_store_dir,
    key_document,
    proof_key,
    proof_request,
    storage_request,
    store_key,
    subsumes,
)

__all__ = [
    "CachingEngine",
    "FileStore",
    "IntegrityReport",
    "MemoryStore",
    "ResultStore",
    "STORE_FORMAT",
    "StoreError",
    "StoreRecord",
    "canonical_key_json",
    "decode_entry",
    "default_store_dir",
    "encode_entry",
    "key_document",
    "proof_key",
    "proof_request",
    "storage_request",
    "store_key",
    "subsumes",
]
