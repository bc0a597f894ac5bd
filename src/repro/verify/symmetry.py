"""Topology-aware state symmetry: pluggable automorphism groups.

The model checker's classic lever against the ``n_cores!`` blow-up is the
symmetry quotient: load vectors that differ only by a *machine
automorphism* — a renaming of cores that the policy cannot observe — are
equivalent, so exploration only needs one representative per orbit. The
old engine hardcoded the strongest possible group (arbitrary core
renaming, ``canonical() = sorted()``), which is sound only for
topology-free, load-only policies; NUMA-aware and hierarchical policies
got no reduction at all.

This module makes the group a first-class, pluggable object:

* :class:`TrivialGroup` — no reduction; every state is its own orbit.
* :class:`FlatSymmetryGroup` — full core renaming (``S_n``), what the
  ``--symmetric`` flag selects.
* :class:`BlockSymmetryGroup` — the general *blocks × block classes*
  group: cores are partitioned into blocks (NUMA nodes, leaf sched
  domains); cores may be swapped freely **within** a block, and whole
  blocks of the same interchangeability class may be swapped with each
  other. The group is ``(∏_b S_{|b|}) ⋊ (∏_class S_{k_class})``.
* :class:`NumaSymmetryGroup` — a :class:`BlockSymmetryGroup` derived
  from a :class:`~repro.topology.numa.NumaTopology`: blocks are NUMA
  nodes, and two nodes are interchangeable exactly when swapping them
  preserves the SLIT distance matrix (computed, not assumed — a mesh's
  corner and centre nodes land in different classes).
* :func:`symmetry_from_domains` — the same construction for a
  :class:`~repro.topology.domains.SchedDomain` tree: blocks are leaf
  groups, interchangeable when they are same-size siblings.

Soundness
---------

A group element ``π`` is sound when the round transition relation is
equivariant: ``successors(π·s) = π·successors(s)``. That holds whenever
everything the round consults is invariant under ``π``:

* filters and steal amounts that depend only on loads (every policy in
  this library) are invariant under *any* renaming — the flat group is
  sound for them in ``choice_mode='all'``;
* NUMA-aware **choices** consult node distances, so for
  ``choice_mode='all'`` (which never calls ``choose``) the
  distance-preserving group :class:`NumaSymmetryGroup` computes is the
  right quotient. In ``choice_mode='policy'`` even that group is *not*
  sound for distance-based choices: two candidates can tie at equal
  distance in different interchangeable nodes, and the cid tie-break
  then picks a successor no single group element can map onto the
  other (the fix-up would be a whole-node swap moving unequal cores).
  :class:`~repro.verify.model_checker.ModelChecker` therefore refuses
  non-trivial groups for non-``"renaming"`` choices in policy mode
  (see :attr:`~repro.core.policy.Policy.choice_invariance`).

The test suite checks the laws directly (canonicalize is idempotent and
orbit-invariant, representative enumeration is one-per-orbit against a
brute-force orbit oracle) and checks soundness empirically (quotient
verdicts equal full-space verdicts on small scopes).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.errors import VerificationError
from repro.topology.domains import SchedDomain
from repro.topology.numa import NumaTopology
from repro.verify.encoding import PackedState, StateCodec
from repro.verify.enumeration import (
    LoadState,
    StateScope,
    canonical,
    count_canonical_states,
    count_states,
    iter_canonical_states,
    iter_states,
)


class SymmetryGroup:
    """A machine automorphism group acting on abstract load states.

    Subclasses implement the quotient surface the verification engines
    consume: a canonical representative per orbit, enumeration and
    closed-form counting of representatives (plus round-robin shards of
    them), orbit sizes, and the deterministic order key that makes
    multi-shard counterexample merging byte-identical to a serial sweep.

    Attributes:
        name: identifier used in reports and cache keys.
    """

    name: str = "group"

    @property
    def is_trivial(self) -> bool:
        """Whether the group is the identity (no reduction)."""
        return False

    @property
    def core_nodes(self) -> tuple[int, ...] | None:
        """Per-core NUMA node ids for snapshot views, when known."""
        return None

    def describe(self) -> str:
        """One-line human-readable description for reports."""
        return self.name

    def canonicalize(self, state: Sequence[int]) -> LoadState:
        """The orbit's canonical representative containing ``state``."""
        raise NotImplementedError

    def canonicalize_packed(self, packed: "PackedState",
                            codec: "StateCodec") -> "PackedState":
        """:meth:`canonicalize` directly on a packed state.

        Base implementation round-trips through tuple form —
        behaviourally identical by construction, so non-trivial groups
        (block, numa, domain) stay correct without packed-aware
        rewrites. The trivial and flat groups override with real fast
        paths (identity; digit sort), which is where the packed engines
        spend their time.
        """
        return codec.encode(self.canonicalize(codec.decode(packed)))

    def canonicalize_batch(self, packed: Any, codec: "StateCodec") -> Any:
        """:meth:`canonicalize_packed` over a whole batch at once.

        Accepts either a sequence of packed states or a numpy array of
        them (``int64`` for int-form codecs, ``object`` for bytes-form
        ones), and returns the same container kind: array in, array out
        (same dtype); sequence in, list out. The batch form is the
        engines' canonicalisation surface — one call per expansion level
        instead of one per successor — and subclasses override it with
        fully vectorised digit-sort paths. The base implementation is
        the scalar loop, so exotic groups and bytes-form codecs stay
        correct without a numpy rewrite.
        """
        if isinstance(packed, np.ndarray):
            values = [
                self.canonicalize_packed(state, codec)
                for state in packed.tolist()
            ]
            return np.asarray(values, dtype=packed.dtype)
        return [self.canonicalize_packed(state, codec) for state in packed]

    def iter_representatives(self, scope: StateScope) -> Iterator[LoadState]:
        """Yield exactly one state per orbit intersecting ``scope``.

        Every yielded state is its own :meth:`canonicalize` image; the
        order is fixed, and it is the sweep order of the progress and
        closure obligations.
        """
        raise NotImplementedError

    def count_representatives(self, scope: StateScope) -> int:
        """Number of orbits in ``scope`` — no state enumeration."""
        raise NotImplementedError

    def group_order(self, n_cores: int) -> int:
        """Size of the group (``|G|``)."""
        raise NotImplementedError

    def orbit_size(self, state: Sequence[int]) -> int:
        """Number of distinct states in the orbit of ``state``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(
            other, "__dict__", None
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class TrivialGroup(SymmetryGroup):
    """The identity group: no symmetry is exploited.

    Representative enumeration degenerates to the plain lexicographic
    :func:`~repro.verify.enumeration.iter_states`, so "no reduction" and
    "reduction by a group" run through one code path.
    """

    name = "trivial"

    @property
    def is_trivial(self) -> bool:
        return True

    def canonicalize(self, state: Sequence[int]) -> LoadState:
        return tuple(state)

    def canonicalize_packed(self, packed: PackedState,
                            codec: StateCodec) -> PackedState:
        return packed

    def canonicalize_batch(self, packed: Any, codec: StateCodec) -> Any:
        # Identity passthrough: the caller's array (or sequence) is
        # already canonical, digit for digit.
        if isinstance(packed, (list, np.ndarray)):
            return packed
        return list(packed)

    def iter_representatives(self, scope: StateScope) -> Iterator[LoadState]:
        return iter_states(scope)

    def count_representatives(self, scope: StateScope) -> int:
        return count_states(scope)

    def group_order(self, n_cores: int) -> int:
        return 1

    def orbit_size(self, state: Sequence[int]) -> int:
        return 1


class FlatSymmetryGroup(SymmetryGroup):
    """Arbitrary core renaming (the full symmetric group ``S_n``).

    The strongest group — sound for topology-free, load-only policies —
    and what the ``--symmetric`` flag selects: the canonical form is
    the descending sort (:func:`~repro.verify.enumeration.canonical`)
    and representative enumeration is
    :func:`~repro.verify.enumeration.iter_canonical_states`.
    """

    name = "flat"

    def canonicalize(self, state: Sequence[int]) -> LoadState:
        return canonical(state)

    def canonicalize_packed(self, packed: PackedState,
                            codec: StateCodec) -> PackedState:
        # Digit sort without rebuilding intermediate tuples per orbit
        # member: descending digits == descending-sorted loads.
        return codec.sort_desc(packed)

    def canonicalize_batch(self, packed: Any, codec: StateCodec) -> Any:
        if not codec.use_int:
            return super().canonicalize_batch(packed, codec)
        is_array = isinstance(packed, np.ndarray)
        arr = packed if is_array \
            else np.asarray(list(packed), dtype=np.int64)
        if arr.size == 0:
            return arr if is_array else []
        shifts = np.asarray(codec._shifts, dtype=np.int64)
        digits = (arr[:, None] >> shifts) & codec._mask
        # One argsort-free descending sort per row, then repack against
        # the descending place values (column 0 is most significant).
        digits = np.sort(digits, axis=1)[:, ::-1]
        out = digits @ (np.int64(1) << shifts)
        return out if is_array else out.tolist()

    def iter_representatives(self, scope: StateScope) -> Iterator[LoadState]:
        return iter_canonical_states(scope)

    def count_representatives(self, scope: StateScope) -> int:
        return count_canonical_states(scope)

    def group_order(self, n_cores: int) -> int:
        return math.factorial(n_cores)

    def orbit_size(self, state: Sequence[int]) -> int:
        return _arrangements(tuple(state))


def _arrangements(values: Sequence) -> int:
    """Distinct orderings of a multiset: ``len! / ∏ multiplicity!``.

    Works over any hashable elements — per-core loads for within-block
    factors, whole block-state tuples for class factors.
    """
    count = math.factorial(len(values))
    for multiplicity in Counter(values).values():
        count //= math.factorial(multiplicity)
    return count


#: A block-state: the descending-sorted loads of one block's cores.
_BlockState = tuple[int, ...]


class BlockSymmetryGroup(SymmetryGroup):
    """Within-block core swaps × same-class block swaps.

    The machine's cores are partitioned into *blocks* (NUMA nodes, leaf
    scheduling domains). The group contains every permutation that maps
    each block onto a block of the same *class*, composed with arbitrary
    permutations inside each block. Canonical form: sort each block's
    loads descending, then sort each class's block tuples descending and
    reassign them to the class's blocks in ascending block order.

    Attributes:
        n_cores: total cores (blocks partition ``range(n_cores)``).
        blocks: tuple of core-id tuples, pairwise disjoint, exhaustive.
        classes: tuple of block-index tuples; blocks in one class are
            interchangeable and must have equal sizes. Every block
            belongs to exactly one class (singletons allowed).
    """

    def __init__(self, n_cores: int, blocks: Sequence[Sequence[int]],
                 classes: Sequence[Sequence[int]],
                 name: str = "block") -> None:
        self.n_cores = n_cores
        self.blocks: tuple[tuple[int, ...], ...] = tuple(
            tuple(block) for block in blocks
        )
        self.classes: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(cls)) for cls in classes
        )
        self.name = name
        covered = sorted(cid for block in self.blocks for cid in block)
        if covered != list(range(n_cores)):
            raise VerificationError(
                f"blocks of group {name!r} do not partition"
                f" {n_cores} cores"
            )
        classed = sorted(b for cls in self.classes for b in cls)
        if classed != list(range(len(self.blocks))):
            raise VerificationError(
                f"classes of group {name!r} do not partition the blocks"
            )
        for cls in self.classes:
            sizes = {len(self.blocks[b]) for b in cls}
            if len(sizes) != 1:
                raise VerificationError(
                    f"class {cls} of group {name!r} mixes block sizes"
                )
        # Enumeration visits classes in order of their first core id, so
        # the serial order is deterministic whatever order the caller
        # listed them in.
        self._ordered_classes = tuple(sorted(
            self.classes, key=lambda cls: min(
                min(self.blocks[b]) for b in cls
            )
        ))

    def _check_state(self, state: Sequence[int]) -> None:
        if len(state) != self.n_cores:
            raise VerificationError(
                f"state has {len(state)} cores, group {self.name!r}"
                f" covers {self.n_cores}"
            )

    def _check_scope(self, scope: StateScope) -> None:
        if scope.n_cores != self.n_cores:
            raise VerificationError(
                f"scope has {scope.n_cores} cores, group {self.name!r}"
                f" covers {self.n_cores}"
            )

    # ------------------------------------------------------------------
    # canonical forms
    # ------------------------------------------------------------------

    def _block_states(self, state: Sequence[int]) -> list[_BlockState]:
        """Canonical (descending) per-block load tuples of ``state``."""
        return [
            tuple(sorted((state[cid] for cid in block), reverse=True))
            for block in self.blocks
        ]

    def canonicalize(self, state: Sequence[int]) -> LoadState:
        self._check_state(state)
        block_states = self._block_states(state)
        for cls in self.classes:
            values = sorted((block_states[b] for b in cls), reverse=True)
            for b, value in zip(cls, values):
                block_states[b] = value
        out = list(state)
        for block, values in zip(self.blocks, block_states):
            for cid, value in zip(block, values):
                out[cid] = value
        return tuple(out)

    def canonicalize_batch(self, packed: Any, codec: StateCodec) -> Any:
        """Vectorised block canonicalisation over a whole batch.

        Mirrors :meth:`canonicalize` with array ops: each block's
        digit columns are sorted descending in one pass, then each
        class's blocks are ranked by packing their (already canonical)
        block tuples into per-block lexicographic scores — equal-length
        descending tuples compare exactly like their base-``2^bits``
        packings — and reassigned to the class's blocks in ascending
        block order via a single ``take_along_axis`` gather. Score ties
        mean identical block tuples, so any tie order is the same
        assignment.
        """
        if not codec.use_int:
            return super().canonicalize_batch(packed, codec)
        is_array = isinstance(packed, np.ndarray)
        arr = packed if is_array \
            else np.asarray(list(packed), dtype=np.int64)
        if arr.size == 0:
            return arr if is_array else []
        shifts = np.asarray(codec._shifts, dtype=np.int64)
        digits = (arr[:, None] >> shifts) & codec._mask
        for block in self.blocks:
            cols = list(block)
            if len(cols) > 1:
                digits[:, cols] = -np.sort(-digits[:, cols], axis=1)
        for cls in self.classes:
            if len(cls) < 2:
                continue
            size = len(self.blocks[cls[0]])
            score_weights = np.int64(1) << (
                codec.bits * np.arange(size - 1, -1, -1, dtype=np.int64)
            )
            stacked = np.stack(
                [digits[:, list(self.blocks[b])] for b in cls], axis=1
            )
            scores = stacked @ score_weights
            order = np.argsort(-scores, axis=1, kind="stable")
            stacked = np.take_along_axis(
                stacked, order[:, :, None], axis=1
            )
            for position, b in enumerate(cls):
                digits[:, list(self.blocks[b])] = stacked[:, position]
        out = digits @ (np.int64(1) << shifts)
        return out if is_array else out.tolist()

    # ------------------------------------------------------------------
    # representative enumeration and counting
    # ------------------------------------------------------------------

    def _block_alphabet(self, size: int, max_load: int) -> list[_BlockState]:
        """All canonical block-states, in descending lexicographic order."""
        return list(itertools.combinations_with_replacement(
            range(max_load, -1, -1), size
        ))

    def iter_representatives(self, scope: StateScope) -> Iterator[LoadState]:
        """One state per orbit: descending within blocks and classes.

        Enumerates, class by class, the non-increasing assignments of
        block-states to each class's blocks (a combination-with-
        replacement over the block-state alphabet), pruned to the
        scope's total-load window.
        """
        self._check_scope(scope)
        units = self._ordered_classes
        alphabets = {
            cls: self._block_alphabet(len(self.blocks[cls[0]]),
                                      scope.max_load)
            for cls in units
        }
        suffix_max = [0] * (len(units) + 1)
        for index in range(len(units) - 1, -1, -1):
            cls = units[index]
            suffix_max[index] = suffix_max[index + 1] + (
                len(cls) * len(self.blocks[cls[0]]) * scope.max_load
            )
        ceiling = self.n_cores * scope.max_load
        max_total = ceiling if scope.max_total is None \
            else min(scope.max_total, ceiling)
        chosen: list[tuple[_BlockState, ...]] = []

        def emit(index: int, partial: int) -> Iterator[LoadState]:
            if index == len(units):
                out = [0] * self.n_cores
                for cls, assignment in zip(units, chosen):
                    for b, values in zip(cls, assignment):
                        for cid, value in zip(self.blocks[b], values):
                            out[cid] = value
                yield tuple(out)
                return
            cls = units[index]
            for assignment in itertools.combinations_with_replacement(
                alphabets[cls], len(cls)
            ):
                total = partial + sum(map(sum, assignment))
                if total > max_total:
                    continue
                if total + suffix_max[index + 1] < scope.min_total:
                    continue
                chosen.append(assignment)
                yield from emit(index + 1, total)
                chosen.pop()

        yield from emit(0, 0)

    def count_representatives(self, scope: StateScope) -> int:
        """Orbit count by polynomial convolution — no enumeration.

        Each class contributes the generating polynomial of "multisets
        of ``k`` block-states by total load"; the scope count is the
        window sum of the product of the class polynomials.
        """
        self._check_scope(scope)
        ceiling = self.n_cores * scope.max_load
        upper = ceiling if scope.max_total is None \
            else min(scope.max_total, ceiling)
        if upper < scope.min_total:
            return 0
        poly = [0] * (upper + 1)
        poly[0] = 1
        for cls in self._ordered_classes:
            block_size = len(self.blocks[cls[0]])
            weights = [
                sum(block_state) for block_state in
                self._block_alphabet(block_size, scope.max_load)
            ]
            unit = _multiset_counts(weights, len(cls), upper)
            poly = _convolve(poly, unit, upper)
        return sum(poly[scope.min_total:upper + 1])

    # ------------------------------------------------------------------
    # orbit arithmetic and ordering
    # ------------------------------------------------------------------

    def group_order(self, n_cores: int) -> int:
        if n_cores != self.n_cores:
            raise VerificationError(
                f"group {self.name!r} covers {self.n_cores} cores,"
                f" not {n_cores}"
            )
        order = 1
        for block in self.blocks:
            order *= math.factorial(len(block))
        for cls in self.classes:
            order *= math.factorial(len(cls))
        return order

    def orbit_size(self, state: Sequence[int]) -> int:
        """``∏_class arrangements × ∏_block arrangements``.

        Distinct states in the orbit: the class's block-state multiset
        can be laid onto its blocks in ``arrangements`` distinct ways,
        and each block's load multiset in ``arrangements`` ways —
        independent choices, so the counts multiply.
        """
        self._check_state(state)
        block_states = self._block_states(state)
        count = 1
        for block_state in block_states:
            count *= _arrangements(block_state)
        for cls in self.classes:
            count *= _arrangements([block_states[b] for b in cls])
        return count


def _multiset_counts(weights: Sequence[int], k: int,
                     upper: int) -> list[int]:
    """``result[s]`` = multisets of exactly ``k`` weights summing to ``s``.

    Standard combinations-with-repetition DP: objects are processed one
    at a time, and updating count ascending within one object's pass
    lets that object be taken multiple times.
    """
    table = [[0] * (upper + 1) for _ in range(k + 1)]
    table[0][0] = 1
    for weight in weights:
        for taken in range(1, k + 1):
            row, prev = table[taken], table[taken - 1]
            for total in range(weight, upper + 1):
                row[total] += prev[total - weight]
    return table[k]


def _convolve(left: Sequence[int], right: Sequence[int],
              upper: int) -> list[int]:
    """Polynomial product truncated at degree ``upper``."""
    out = [0] * (upper + 1)
    for i, a in enumerate(left):
        if a == 0:
            continue
        for j in range(min(upper - i, len(right) - 1) + 1):
            out[i + j] += a * right[j]
    return out


class NumaSymmetryGroup(BlockSymmetryGroup):
    """The automorphism group of a :class:`NumaTopology`.

    Blocks are NUMA nodes; two nodes are interchangeable when they have
    the same size and swapping them leaves the SLIT distance matrix
    unchanged. Interchangeability classes are the connected components
    of the valid-swap graph: transpositions spanning a component
    generate its full symmetric group, and every generated permutation
    is a composition of automorphisms, hence itself an automorphism.

    On a fully symmetric box (``symmetric_numa``) every node lands in
    one class, giving the maximal sound reduction
    ``n! / ∏ cores_per_node!`` short of the (unsound for NUMA choices)
    flat group; on a mesh, only distance-equivalent nodes merge.

    Attributes:
        topology: the machine layout the group was derived from.
    """

    def __init__(self, topology: NumaTopology) -> None:
        blocks = [topology.cores_of(node) for node in range(topology.n_nodes)]
        classes = _node_swap_classes(topology)
        super().__init__(
            topology.n_cores, blocks, classes,
            name=f"numa-sym({topology.name})",
        )
        self.topology = topology

    @property
    def core_nodes(self) -> tuple[int, ...] | None:
        return self.topology.core_to_node


def _node_swap_classes(topology: NumaTopology) -> list[list[int]]:
    """Connected components of the valid node-transposition graph."""
    n_nodes = topology.n_nodes
    sizes = [len(topology.cores_of(node)) for node in range(n_nodes)]
    parent = list(range(n_nodes))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            if sizes[a] == sizes[b] and _swap_preserves_distances(
                topology, a, b
            ):
                parent[find(a)] = find(b)
    classes: dict[int, list[int]] = {}
    for node in range(n_nodes):
        classes.setdefault(find(node), []).append(node)
    return [sorted(members) for members in classes.values()]


def _swap_preserves_distances(topology: NumaTopology, a: int,
                              b: int) -> bool:
    """Whether transposing nodes ``a`` and ``b`` is a SLIT automorphism."""
    n_nodes = topology.n_nodes
    perm = list(range(n_nodes))
    perm[a], perm[b] = b, a
    distances = topology.distances
    return all(
        distances[perm[i]][perm[j]] == distances[i][j]
        for i in range(n_nodes)
        for j in range(n_nodes)
    )


def symmetry_from_domains(root: SchedDomain,
                          name: str | None = None) -> BlockSymmetryGroup:
    """The block group of a scheduling-domain tree's leaf groups.

    Blocks are the tree's leaf groups (the units the hierarchical
    balancer treats as "cores"); two leaf groups are interchangeable
    when they are same-size children of the same parent domain — a
    sound (conservative) subset of the tree's full automorphism group.
    """
    blocks: list[tuple[int, ...]] = []
    classes: list[list[int]] = []

    def visit(domain: SchedDomain) -> None:
        leaf_children = [c for c in domain.children if c.is_leaf_group]
        by_size: dict[int, list[int]] = {}
        for child in leaf_children:
            index = len(blocks)
            blocks.append(child.cores)
            by_size.setdefault(len(child.cores), []).append(index)
        classes.extend(by_size.values())
        for child in domain.children:
            if not child.is_leaf_group:
                visit(child)

    if root.is_leaf_group:
        blocks.append(root.cores)
        classes.append([0])
    else:
        visit(root)
    n_cores = sum(len(block) for block in blocks)
    return BlockSymmetryGroup(
        n_cores, blocks, classes,
        name=name or f"domain-sym({root.name})",
    )
