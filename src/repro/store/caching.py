"""The session's front to the proof store.

:class:`CachingEngine` is where a :class:`~repro.api.session.Session`
looks results up and stores them: the whole request first, and on a
zoo whose matrix misses, one derived per-policy prove request per row.
The session enters its engine only on a miss, so a fully warm
``--distributed 8`` run spawns zero workers — the whole point of never
paying for the same proof twice.

A hit returns the exact payload a fresh run would have produced (stored
results are timing-stripped, and wall-clock is the only
engine-dependent field), so reports render byte-identically whether
they were proved or replayed. The session wires ``on_reused`` to its
event stream, surfacing each hit as a
:class:`~repro.api.session.ResultReused` event.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.api.request import VerificationRequest
from repro.api.result import Verdict, VerificationResult
from repro.obs.trace import TRACER

from repro.store.backends import ResultStore
from repro.store.keys import proof_key, proof_request, store_key, subsumes

#: ``(request, key)`` observer for cache traffic.
CacheCallback = Callable[[VerificationRequest, str], None]


class CachingEngine:
    """Looks requests up in a store and keeps fresh results there.

    Lookups walk a three-step chain, each step strictly narrower than
    the last:

    1. the request's exact key — byte-identical replay, any verdict;
    2. the request's engine-normalised *proof key*
       (:func:`~repro.store.keys.proof_key`) — still byte-identical,
       but only for **proved** non-campaign entries, the one class of
       result the engine-equivalence suites pin engine-independent;
    3. with ``subsume=True``, a scan for a proved entry whose scope
       subsumes the request (:func:`~repro.store.keys.subsumes`) —
       verdict-preserving but *not* byte-preserving (the superset
       certificate reports its own counts), which is why it is opt-in.

    Args:
        store: where results are looked up and kept.
        refresh: when True, skip every lookup (but still store fresh
            results) — the ``--store-refresh`` semantics.
        subsume: when True, let a proved superset-scope entry answer
            (step 3 above).
        on_reused: called with ``(request, key)`` for every hit; the
            key is the one *served from*, which differs from
            ``store_key(request)`` on proof-key and subsumption hits.

    Attributes:
        last_hit_key: the key the most recent :meth:`load_result` hit
            was served from (``None`` after a miss) — the session's
            ``served_from`` provenance.
    """

    def __init__(self, store: ResultStore, *,
                 refresh: bool = False,
                 subsume: bool = False,
                 on_reused: CacheCallback | None = None) -> None:
        self.store = store
        self.refresh = refresh
        self.subsume = subsume
        self.last_hit_key: str | None = None
        self._on_reused = on_reused

    def load_result(self, request: VerificationRequest,
                    ) -> VerificationResult | None:
        """The stored result for ``request``, re-pointed at it.

        Returns ``None`` on a miss or under ``refresh``. Because a key
        identifies a *semantic* request, the stored document may spell
        the request differently (explicit defaults, topology casing,
        the proof key's serial engine); the returned result carries the
        caller's spelling so round-trips and ``--json`` documents stay
        faithful. A subsumption hit keeps the superset's stats (there
        is nothing else to report) but still answers for the caller's
        request.
        """
        self.last_hit_key = None
        if self.refresh:
            return None
        found = self._lookup(request)
        if found is None:
            return None
        stored, served_from = found
        self.last_hit_key = served_from
        if self._on_reused is not None:
            self._on_reused(request, served_from)
        return replace(stored, request=request)

    def save_result(self, request: VerificationRequest,
                    result: VerificationResult) -> None:
        """Store a fully assembled result under its request's key —
        which for a *proved* ``prove`` result is the engine-normalised
        proof key, with the embedded request re-spelled serial so the
        entry re-hashes to its address. Any engine shape that proves
        the same scope then shares (and can answer from) one entry."""
        key = store_key(request)
        if result.verdict is Verdict.PROVED and request.kind == "prove":
            normalised = proof_request(request)
            key = store_key(normalised)
            result = replace(result, request=normalised)
        self.store.save(key, result)

    def _lookup(self, request: VerificationRequest,
                ) -> tuple[VerificationResult, str] | None:
        """Walk the lookup chain; ``(stored result, key served from)``
        or ``None``. Hits stamp the entry's last access when the
        backend keeps such stamps."""
        with TRACER.span("store.lookup", "store",
                         kind=request.kind) as span:
            key = store_key(request)
            stored = self.store.load(key)
            served_from = key
            outcome = "exact"
            if stored is None:
                alternate = proof_key(request)
                if alternate != key and request.kind != "campaign":
                    candidate = self.store.load(alternate)
                    if candidate is not None \
                            and candidate.verdict is Verdict.PROVED:
                        stored, served_from = candidate, alternate
                        outcome = "proof-key"
            if stored is None and self.subsume:
                subsuming = self._find_subsuming(request)
                if subsuming is not None:
                    stored, served_from = subsuming
                    outcome = "subsumed"
            if stored is None:
                span.set(outcome="miss")
                return None
            span.set(outcome=outcome)
            toucher = getattr(self.store, "touch", None)
            if toucher is not None:
                toucher(served_from)
            return stored, served_from

    def _find_subsuming(self, request: VerificationRequest,
                        ) -> tuple[VerificationResult, str] | None:
        """The *tightest* stored proved entry whose scope subsumes
        ``request`` (smallest load bound, then order cap, then key), or
        ``None``. A full-store scan — acceptable for the scoped stores
        this is opt-in for."""
        if request.kind != "prove":
            return None
        best: tuple[tuple[int, int, str], VerificationResult, str] | None \
            = None
        for key in self.store.keys():
            stored = self.store.load(key)
            if stored is None or stored.verdict is not Verdict.PROVED:
                continue
            if not subsumes(stored.request, request):
                continue
            rank = (stored.request.effective_max_load,
                    stored.request.effective_max_orders, key)
            if best is None or rank < best[0]:
                best = (rank, stored, key)
        if best is None:
            return None
        return best[1], best[2]
