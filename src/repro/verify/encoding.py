"""Packed abstract-state encoding: the ``StateCodec`` layer.

The explicit-state engines historically keyed every frontier set,
visited map, and wire frame on Python tuples of per-core loads. Tuples
are convenient but expensive at scale: each state costs a heap object
per element plus one for the tuple, hashing walks every element, and a
BFS level of a few hundred thousand states spends most of its time in
tuple bookkeeping rather than transition semantics.

A :class:`StateCodec` packs a load vector into one fixed-width machine
word (a plain ``int``) for small scopes, or into ``bytes`` when the
vector does not fit 63 bits. Three properties make the packed form a
drop-in replacement everywhere the engines previously used tuples:

* **Bijective** — ``decode(encode(s)) == s`` for every state whose
  per-core loads are ``<= max_value`` (property-tested across scopes in
  ``tests/verify/test_encoding.py``).
* **Order-preserving** — core 0 occupies the most significant digit, so
  comparing two packed states (int < int, or bytes < bytes) agrees with
  lexicographic tuple comparison. Sorted packed frontiers therefore
  stripe into exactly the same round-robin shards the tuple engine
  built, which is one half of the byte-identity guarantee (the other
  half is that the graph algorithms order states by their packed
  values, which is the tuple order, and decode a lasso's rows to the
  very tuples the tuple engine reports).
* **Total-load safe** — ``max_value`` is chosen from the *total* load
  of the initial states, and steals conserve totals, so no reachable
  state can overflow a digit even under over-stealing policies that
  push a single core past the scope's per-core bound.

The codec is a frozen, picklable value object: the parallel engines ship
it to pool workers and remote workers alongside each packed frontier
chunk, and equality/hashing on ``(n_cores, max_value)`` lets caches key
on it directly. See ``docs/encoding.md`` for the layout reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, Union

import numpy as np

from repro.core.errors import VerificationError
from repro.verify.enumeration import LoadState, StateScope

#: A packed abstract state: one machine integer for small scopes,
#: ``bytes`` for scopes whose packed width exceeds 63 bits.
PackedState = Union[int, bytes]

#: Packed widths up to this many bits use the ``int`` form. 63 keeps the
#: packed value inside a signed 64-bit lane, so the numpy kernel can hold
#: whole frontiers in ``int64`` arrays without overflow.
INT_FORM_MAX_BITS = 63


@dataclass(frozen=True)
class StateCodec:
    """Packs per-core load vectors into fixed-width integers or bytes.

    Attributes:
        n_cores: number of per-core digits in a state.
        max_value: largest per-core load the codec can represent. The
            constructors derive it from the maximum *total* load, which
            steals conserve — so it bounds every reachable digit.
    """

    n_cores: int
    max_value: int
    #: Bits per digit: the smallest width holding ``0..max_value``.
    bits: int = field(init=False, compare=False)
    #: Whether states pack into one ``int`` (else ``bytes``).
    use_int: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise VerificationError(
                f"codec needs at least one core, got {self.n_cores}"
            )
        if self.max_value < 0:
            raise VerificationError(
                f"codec max_value must be >= 0, got {self.max_value}"
            )
        bits = max(1, self.max_value.bit_length())
        object.__setattr__(self, "bits", bits)
        object.__setattr__(
            self, "use_int", self.n_cores * bits <= INT_FORM_MAX_BITS
        )
        # Core 0 is the most significant digit: packed comparison then
        # agrees with lexicographic tuple comparison in both forms.
        object.__setattr__(self, "_shifts", tuple(
            bits * (self.n_cores - 1 - cid) for cid in range(self.n_cores)
        ))
        object.__setattr__(self, "_mask", (1 << bits) - 1)
        # Bytes form: the whole packed integer, fixed-length big-endian.
        # Equal lengths make bytes comparison equal integer comparison.
        object.__setattr__(self, "_n_bytes",
                           (self.n_cores * bits + 7) // 8)

    # -- constructors ---------------------------------------------------

    @classmethod
    def for_states(cls, n_cores: int,
                   states: Iterable[Sequence[int]]) -> "StateCodec":
        """The codec covering the closure of ``states``.

        Steals conserve the total thread count, so the largest total
        across the initial states bounds every per-core load any
        reachable state can exhibit — even for over-stealing policies
        that exceed the scope's per-core cap on a single core.
        """
        max_total = max((sum(state) for state in states), default=0)
        return cls(n_cores=n_cores, max_value=max_total)

    @classmethod
    def for_scope(cls, scope: StateScope) -> "StateCodec":
        """The codec covering the closure of every state in ``scope``."""
        ceiling = scope.n_cores * scope.max_load
        max_total = ceiling if scope.max_total is None \
            else min(scope.max_total, ceiling)
        return cls(n_cores=scope.n_cores, max_value=max_total)

    # -- scalar encode / decode -----------------------------------------

    def encode(self, state: Sequence[int]) -> PackedState:
        """Pack one load vector (no bounds re-check on the hot path)."""
        packed = 0
        for value, shift in zip(state, self._shifts):
            packed |= value << shift
        if self.use_int:
            return packed
        return packed.to_bytes(self._n_bytes, "big")

    def decode(self, packed: PackedState) -> LoadState:
        """Unpack back to the canonical tuple form."""
        if not self.use_int:
            packed = int.from_bytes(packed, "big")  # type: ignore[arg-type]
        mask = self._mask
        return tuple(
            (packed >> shift) & mask for shift in self._shifts
        )

    @property
    def packed_bytes(self) -> int:
        """Width of the fixed-length big-endian byte form, in bytes."""
        return (self.n_cores * self.bits + 7) // 8

    def canonical_bytes(self, packed: PackedState) -> bytes:
        """The packed state's canonical byte representation.

        Identical for the int and bytes forms of the same state: the
        int form is re-serialised as fixed-length big-endian, which is
        exactly how the bytes form packs in the first place. This is
        the form the distributed engines hash when partitioning states
        across workers — a codec that flips between forms (e.g. a wider
        replay of the same scope) must not move states between
        partitions.
        """
        if isinstance(packed, bytes):
            return packed
        return packed.to_bytes(self.packed_bytes, "big")

    def sort_desc(self, packed: PackedState) -> PackedState:
        """Repack with the digits sorted descending.

        The packed-form fast path behind the flat symmetry group's
        canonicalisation: equivalent to
        ``encode(sorted(decode(packed), reverse=True))``.
        """
        digits = sorted(self.decode(packed), reverse=True)
        return self.encode(digits)

    # -- batch forms -----------------------------------------------------

    def encode_batch(self,
                     states: Iterable[Sequence[int]]) -> list[PackedState]:
        """Pack many states (list in, list out, order preserved).

        Int-form codecs pack the whole batch in one vectorised numpy
        matmul with the digit place values; results are identical to the
        scalar loop.
        """
        values = states if isinstance(states, list) else list(states)
        if self.use_int and len(values) > 8:
            arr = np.asarray(values, dtype=np.int64)
            weights = np.int64(1) << np.asarray(self._shifts, dtype=np.int64)
            return (arr @ weights).tolist()
        return [self.encode(state) for state in values]

    def decode_batch(self,
                     packed: Iterable[PackedState]) -> list[LoadState]:
        """Unpack many states (list in, list out, order preserved).

        Int-form codecs unpack the whole batch in one vectorised numpy
        shift; results are identical to the scalar loop.
        """
        values = packed if isinstance(packed, list) else list(packed)
        if self.use_int and len(values) > 8:
            arr = np.asarray(values, dtype=np.int64)
            shifts = np.asarray(self._shifts, dtype=np.int64)
            digits = ((arr[:, None] >> shifts) & self._mask).tolist()
            return list(map(tuple, digits))
        return [self.decode(value) for value in values]

    def describe(self) -> str:
        """One-line human-readable summary for logs and docs."""
        form = "int" if self.use_int else "bytes"
        return (
            f"{self.n_cores} cores x {self.bits} bits"
            f" ({form} form, loads 0..{self.max_value})"
        )


def decode_graph(codec: StateCodec, graph: Any) -> Any:
    """The load matrix of a packed graph's states, in bulk.

    Row ``i`` is the per-core loads of ``graph.states[i]`` (a
    :class:`~repro.verify.model_checker.PackedGraph`), ``int64``; the
    successor rows stay packed. One vectorised numpy unpack for
    int-form codecs; bytes-form codecs run the scalar ``decode`` loop
    (bit-identical results either way).
    """
    if not codec.use_int:
        return np.array(
            [codec.decode(packed) for packed in graph.states.tolist()],
            dtype=np.int64,
        ).reshape(len(graph), codec.n_cores)
    shifts = np.asarray(codec._shifts, dtype=np.int64)
    return (graph.states[:, None] >> shifts) & codec._mask
