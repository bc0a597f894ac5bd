"""repro.service — verification-as-a-service.

The client side of the service landed across earlier PRs: sessions
stream :class:`~repro.api.session.ProgressEvent` values as they happen,
results carry store-key provenance, and a content-addressed
:class:`~repro.store.backends.FileStore` answers warm requests with
zero exploration. This package is the service itself — the pieces that
let a *fleet* share one proof cache and let plain HTTP clients submit
work:

* :mod:`repro.service.wire` — the store service's framed JSON protocol
  (length-prefixed frames, shared-secret HMAC challenge/response, a
  version handshake that refuses skewed peers).
* :mod:`repro.service.server` — :class:`StoreServer`, a threaded TCP
  server fronting a :class:`~repro.store.backends.FileStore`; behind
  ``python -m repro serve-store``.
* :mod:`repro.service.netstore` — :class:`NetworkStore`, a
  :class:`~repro.store.backends.ResultStore` client with connect/read
  timeouts, bounded retry with backoff, and graceful degradation: an
  unreachable server turns every lookup into a miss, so the inner
  engine still completes the request. Accepted anywhere ``--store DIR``
  works, spelled ``--store tcp://host:port``.
* :mod:`repro.service.http` — the stdlib-asyncio HTTP front end behind
  ``python -m repro serve``: POST a spec file, stream the same events
  ``aiter_events`` yields as NDJSON or SSE, read ``/healthz`` and
  ``/metrics``.

Deployment quickstart, the auth model, and the eviction policy are in
``docs/service.md``.
"""

from typing import Any

__all__ = [
    "NetworkStore",
    "SERVICE_WIRE_VERSION",
    "StoreServer",
    "StoreUnavailable",
    "VerificationService",
    "auth_digest",
    "is_store_url",
    "parse_store_url",
]

# Exports resolve lazily (PEP 562) so that `python -m repro --help` —
# which registers the serve/serve-store parsers — does not pay for the
# session, store, and wire machinery behind them.
_EXPORTS = {
    "NetworkStore": "netstore",
    "StoreUnavailable": "netstore",
    "is_store_url": "netstore",
    "parse_store_url": "netstore",
    "StoreServer": "server",
    "VerificationService": "http",
    "SERVICE_WIRE_VERSION": "wire",
    "auth_digest": "wire",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module_name}"),
                   name)
