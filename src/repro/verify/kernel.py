"""Vectorised batch transition kernel over packed states.

The serial transition executor (:mod:`repro.verify.transition`) spends
its time building :class:`~repro.core.cpu.CoreSnapshot` objects and
calling the policy's filter per (thief, victim) pair, per permutation,
per state. For the policies this library proves — whose filters and
steal amounts depend only on the *loads* of the two cores involved —
all of that is table lookups in disguise: during a round a core is fully
described by its round-start running bit and its current ready count,
so ``can_steal``/``steal_amount`` over live views factor through a
``(running_t, running_v, ready_t, ready_v)`` table probed once per
codec from the *real* policy.

A :class:`TransitionKernel` expands a whole frontier at once: intent
masks for every state via one table probe, zero- and
single-thief states handled directly, and every state with ``k >= 2``
racing thieves expanded through lanes over its victim combinations (a
per-state mixed-radix decomposition) with each steal order of the ``k``
thieves executed as ``k`` sequential table-indexed array steals. No
state falls back to per-state Python; the array form
(:meth:`TransitionKernel.expand_batch_arrays`) feeds the engines' array
pipeline without materialising per-state lists.

It reaches exactly the successors of the victim-combination x
steal-order enumeration of
:func:`~repro.verify.transition.enumerate_round_branches`, including its
per-combination permutation cap and truncation flag, but runs the steal
orders *up to commutation* (partial-order reduction): the tables read
only the thief's and the victim's cores, so two steals whose ``{thief,
victim}`` core sets are disjoint commute. Two orders of a lane are
equivalent when every interfering pair of steals runs in the same
relative order; equivalent orders reach the same state and move the same
amounts, and the kernel runs only the lexicographically least order of
each class (:func:`_class_leaders`). The permutation cap keeps a
lexicographic prefix, so the least member of every class that meets it
lies inside it. The tuple executor stays the unreduced oracle.

The kernel serves closure exploration and, on the same gates, the
progress and good-state-closure obligations of
:class:`~repro.verify.model_checker.ModelChecker`: ``expand_batch_arrays``
optionally counts the tuple executor's branches per state (arithmetic:
victim combinations times capped orders) and flags states with a branch
that committed no steal, and
:meth:`TransitionKernel.bad_mask` tests successor badness on packed
values. A refuted obligation's witness is rebuilt by the tuple
executor, which also still runs both obligations wherever the kernel
does not (``REPRO_KERNEL=off``, bytes-form codecs, ineligible checkers,
and the hierarchical checker, whose inter-group phase is outside the
kernel's model).

The same checked tables serve the §4.2 lemma and §4.3 potential
sweeps: :meth:`TransitionKernel.admitted` gives the admitted pairs and
steal amounts of a whole load matrix, from which
:func:`~repro.verify.tasks.sweep_shard` checks every state-sweep
obligation in one array pass (see
:meth:`~repro.verify.model_checker.ModelChecker.sweep_kernel` for which
kernel it may use); the tuple loops of :mod:`~repro.verify.lemmas` and
:mod:`~repro.verify.potential` rebuild its counterexamples.

Whether a kernel may stand in for the tuple executor at all is an
eligibility question answered by
:attr:`~repro.core.policy.Policy.filter_invariance` (``"loads"``,
``"scoped-loads"`` with a static pair mask, or ``"none"`` to opt out)
plus the checker parameters: only ``choice_mode='all'``, the
stale-snapshot (non-sequential) regime, ``max_orders >= 1``, and an
int-form codec (whole frontiers must fit ``int64`` lanes; bytes-form
scopes run on the tuple executor). The declaration is then checked, not
trusted: the tables are probed at every admissible core pair with the
real cid and node, and a policy whose answers differ between pairs (a
subclass of a library policy that reads cid or node, say) gets no
kernel.

The ``REPRO_KERNEL`` environment variable selects the tier: ``off``
(the tuple executor everywhere, the oracle the tests and CI diffs
compare against) or the default ``numpy``.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from typing import Any, Sequence

import numpy as np

from repro.core.cpu import CoreSnapshot
from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.core.task import NICE_0_WEIGHT
from repro.verify.encoding import StateCodec
from repro.verify.transition import DEFAULT_MAX_ORDERS

#: Environment toggle for the kernel tier.
KERNEL_ENV = "REPRO_KERNEL"

#: Accepted values of :data:`KERNEL_ENV`.
KERNEL_MODES = ("off", "numpy")


def kernel_mode() -> str:
    """The configured kernel tier (validated ``REPRO_KERNEL``)."""
    mode = os.environ.get(KERNEL_ENV, "numpy").strip().lower() or "numpy"
    if mode not in KERNEL_MODES:
        raise VerificationError(
            f"{KERNEL_ENV} must be one of {'|'.join(KERNEL_MODES)},"
            f" got {mode!r}"
        )
    return mode


def _pairs(k: int) -> list[tuple[int, int]]:
    """The steal pairs ``(i, j)``, ``i < j``, of ``k`` thieves; pair
    ``b`` is bit ``b`` of a lane's interference pattern."""
    return list(itertools.combinations(range(k), 2))


@functools.lru_cache(maxsize=None)
def _pair_bits(k: int) -> tuple[Any, Any, Any]:
    """:func:`_pairs` as two column arrays, plus each pair's pattern
    bit — Python ints from 12 thieves on, whose 66 pairs outgrow
    ``int64``."""
    pairs = np.asarray(_pairs(k), dtype=np.int64).reshape(-1, 2)
    bits = (np.int64(1) << np.arange(len(pairs), dtype=np.int64)
            if len(pairs) < 63
            else np.asarray([1 << b for b in range(len(pairs))],
                            dtype=object))
    return pairs[:, 0], pairs[:, 1], bits


def _extends_least(order: list[int], a: int, neighbours: int) -> bool:
    """Whether appending steal ``a`` keeps a least order least: every
    steal after the last one interfering with ``a`` (bit set in
    ``neighbours``) has a smaller column than ``a``."""
    for b in reversed(order):
        if neighbours >> b & 1:
            return True
        if b > a:
            return False
    return True


def _class_leaders(k: int, n_orders: int,
                   pattern: int) -> list[tuple[int, ...]]:
    """The least order of every commutation class meeting the cap.

    ``pattern`` sets bit ``b`` when the two steals of :func:`_pairs`
    entry ``b`` interfere (their ``{thief, victim}`` core sets meet).
    Two orders are equivalent when every interfering pair runs in the
    same relative order; the least member of a class is its
    lexicographically least order. Orders are the thief-column
    permutations ``itertools.permutations(range(k))`` yields, capped at
    the first ``n_orders`` — a lexicographic prefix, so the least member
    of any class that meets the cap lies inside it.

    The walk is depth-first in lexicographic order and checks the least
    form incrementally: appending steal ``a`` keeps a least prefix least
    iff every steal placed after the last one interfering with ``a``
    has a smaller column than ``a``. Prefixes failing the check, or
    whose least completion ranks past the cap, are cut where they fail.
    """
    neighbours = [0] * k
    for bit, (i, j) in enumerate(_pairs(k)):
        if pattern >> bit & 1:
            neighbours[i] |= 1 << j
            neighbours[j] |= 1 << i
    place = [math.factorial(k - 1 - depth) for depth in range(k)]
    leaders: list[tuple[int, ...]] = []
    order: list[int] = []

    def walk(rank: int, unused: list[int]) -> None:
        depth = len(order)
        if depth == k:
            leaders.append(tuple(order))
            return
        for below, a in enumerate(unused):
            # Lexicographic rank of the least completion of order + a.
            child = rank + below * place[depth]
            if child >= n_orders:
                return
            if not _extends_least(order, a, neighbours[a]):
                continue
            order.append(a)
            walk(child, unused[:below] + unused[below + 1:])
            order.pop()

    walk(0, list(range(k)))
    return leaders


class _OrderTree:
    """Shared-prefix tree of one interference pattern's class leaders.

    Two steal orders that agree on their first ``d`` steals produce the
    same intermediate state, so the k-thief executor walks the orders
    as a tree instead of replaying each full order: depth ``d`` holds
    one node per distinct length-``d+1`` prefix of a leader. Per depth,
    ``cols[d][j]`` is the thief column node ``j`` steals with and
    ``parents[d][j]`` the index of its prefix's node at depth ``d - 1``
    (zeros at depth 0, where the parent is the shared root state). Every
    node lies on a leader, so no depth holds more nodes than the last,
    whose nodes are the leaders themselves.
    """

    __slots__ = ("parents", "cols")

    def __init__(self, leaders: list[tuple[int, ...]], k: int) -> None:
        index: dict[tuple[int, ...], int] = {(): 0}
        parents: list[list[int]] = [[] for _ in range(k)]
        cols: list[list[int]] = [[] for _ in range(k)]
        for order in leaders:
            for depth in range(k):
                prefix = order[:depth + 1]
                if prefix in index:
                    continue
                index[prefix] = len(cols[depth])
                parents[depth].append(index[prefix[:-1]])
                cols[depth].append(order[depth])
        self.parents = [np.asarray(p, dtype=np.int64) for p in parents]
        self.cols = [np.asarray(c, dtype=np.int64) for c in cols]


@functools.lru_cache(maxsize=1 << 12)
def _perm_tree(k: int, n_orders: int, pattern: int) -> _OrderTree:
    """The order tree of ``k`` thieves under one interference pattern.

    Its leaves are :func:`_class_leaders` ``(k, n_orders, pattern)``, in
    lexicographic order. A pattern where every pair interferes keeps
    every order: the leaves are then the first ``n_orders`` of
    ``itertools.permutations(range(k))``, the tuple executor's universe.
    The five ``hunt-serial`` benchmark requests (6x4, 7x3, two numa:3x2
    and 4x3) together build 241 trees, about 0.3 MB of node arrays; the
    bound keeps a long-lived process from holding every pattern it ever
    met.
    """
    return _OrderTree(_class_leaders(k, n_orders, pattern), k)


class _Forest:
    """The order trees of the patterns one lane slice meets, flattened.

    Node arrays run depth-major, then pattern, then node:
    ``parents[base[g, d] + j]`` and ``cols[base[g, d] + j]`` describe
    node ``j`` at depth ``d`` of pattern ``g``'s tree, which holds
    ``counts[g, d]`` nodes at that depth and ``sizes[g]`` in all.
    """

    __slots__ = ("counts", "sizes", "base", "parents", "cols")

    def __init__(self, trees: list[_OrderTree], k: int) -> None:
        self.counts = np.asarray(
            [[len(tree.cols[depth]) for depth in range(k)] for tree in trees],
            dtype=np.int64,
        ).reshape(len(trees), k)
        self.sizes = self.counts.sum(axis=1)
        flat = self.counts.T.reshape(-1)
        self.base = (np.cumsum(flat) - flat).reshape(k, len(trees)).T
        self.parents = np.concatenate(
            [tree.parents[depth] for depth in range(k) for tree in trees]
        )
        self.cols = np.concatenate(
            [tree.cols[depth] for depth in range(k) for tree in trees]
        )


def pair_mask_for(policy: Policy, n_cores: int) -> list[list[bool]] | None:
    """The static thief/victim admission mask of a scoped policy.

    ``None`` for plain ``"loads"`` policies (every off-diagonal pair is
    admissible). For ``"scoped-loads"`` policies the mask comes from the
    policy's ``core_to_group`` attribute: a pair is admissible exactly
    when both cores share a group.
    """
    invariance = getattr(policy, "filter_invariance", "none")
    if invariance != "scoped-loads":
        return None
    groups = getattr(policy, "core_to_group", None)
    if groups is None or len(groups) != n_cores:
        raise VerificationError(
            f"policy {policy.name!r} declares scoped-loads invariance"
            " but exposes no matching core_to_group"
        )
    return [
        [t != v and groups[t] == groups[v] for v in range(n_cores)]
        for t in range(n_cores)
    ]


def build_kernel(policy: Policy, codec: StateCodec,
                 choice_mode: str = "all",
                 max_orders: int = DEFAULT_MAX_ORDERS,
                 n_cores: int | None = None,
                 nodes: Sequence[int] | None = None,
                 ) -> "TransitionKernel | None":
    """A kernel for ``(policy, codec)``, or ``None`` when ineligible.

    Eligibility: ``REPRO_KERNEL`` not ``off``; an int-form codec;
    ``choice_mode='all'`` (policy mode consults ``choose``, which tables
    cannot capture); ``max_orders >= 1``; the policy declares a
    table-compatible
    :attr:`~repro.core.policy.Policy.filter_invariance`; and the
    declaration holds — probed at every admissible core pair, with the
    real cids and (given ``nodes``, the checker's per-core node ids)
    the real nodes, every pair answers alike. A subclass that inherits
    ``"loads"`` but reads cid or node gets no kernel.
    """
    if kernel_mode() == "off" or not codec.use_int:
        return None
    if choice_mode != "all" or max_orders < 1:
        return None
    invariance = getattr(policy, "filter_invariance", "none")
    if invariance not in ("loads", "scoped-loads"):
        return None
    n = codec.n_cores if n_cores is None else n_cores
    kernel = TransitionKernel(
        policy, codec,
        max_orders=max_orders,
        pair_mask=pair_mask_for(policy, n),
        nodes=nodes,
    )
    return kernel if kernel.uniform else None


class TransitionKernel:
    """Table-driven round expansion for loads-invariant policies.

    Built once per ``(policy, codec)`` and cached by the checker; the
    construction probes the real policy over the full
    ``(running, ready)`` grid (bounded by the codec's conserved total),
    after which no policy code runs during exploration. The codec must
    be int-form: frontiers travel as ``int64`` arrays.

    Attributes:
        policy: the policy the tables were probed from.
        codec: the packed-state codec frontiers are expressed in.
        max_orders: permutation cap, mirrored from the tuple executor.
        uniform: whether every admissible core pair answered the probe
            alike; only then do the tables stand in for the policy
            (:func:`build_kernel` refuses the kernel otherwise).
    """

    def __init__(self, policy: Policy, codec: StateCodec,
                 max_orders: int = DEFAULT_MAX_ORDERS,
                 pair_mask: Sequence[Sequence[bool]] | None = None,
                 nodes: Sequence[int] | None = None,
                 ) -> None:
        self.policy = policy
        self.codec = codec
        self.max_orders = max_orders
        self._pair_mask = (
            None if pair_mask is None
            else tuple(tuple(row) for row in pair_mask)
        )
        self.uniform = self._build_tables(nodes)

    # -- table construction ---------------------------------------------

    def _build_tables(self, nodes: Sequence[int] | None) -> bool:
        """Probe ``can_steal``/``steal_amount`` over the live-state grid.

        A core's live view during a round is determined by its
        round-start running bit (fixed for the whole round) and its
        current ready count; ready counts are bounded by the conserved
        total, i.e. by ``codec.max_value``. Tables are indexed
        ``[running_t][running_v][ready_t][ready_v]``.

        The grid is probed at every admissible (thief, victim) pair,
        with views built exactly like ``_LiveState.view`` (real cid,
        and the node ``nodes`` gives it). The tables keep the first
        pair's answers; returns whether every other pair agreed.
        """
        n = self.codec.n_cores
        top = self.codec.max_value
        pairs = [(t, v) for t in range(n) for v in range(n)
                 if t != v and (self._pair_mask is None
                                or self._pair_mask[t][v])]
        # Views are precreated per (cid, running, ready) — 2(top+1) per
        # core instead of one pair per grid cell.
        views = [[[CoreSnapshot(
            cid=cid,
            nr_ready=ready,
            has_current=running == 1,
            weighted_load=(running + ready) * NICE_0_WEIGHT,
            node=nodes[cid] if nodes is not None else 0,
            version=0,
        ) for ready in range(top + 1)] for running in (0, 1)]
            for cid in range(n)]
        can_steal = self.policy.can_steal
        steal_amount = self.policy.steal_amount
        # Ready counts on the two sides of a steal can never sum past
        # the conserved total, so the triangle qt + qv > top is
        # unreachable — left unprobed (False / 0).
        cells = [(rt, rv, qt, qv) for rt in (0, 1) for rv in (0, 1)
                 for qt in range(top + 1) for qv in range(top + 1 - qt)]

        def answers(t: int, v: int) -> list[int | None]:
            """The pair's amount per cell, ``None`` where filtered."""
            return [
                steal_amount(thief, victim)
                if can_steal(thief, victim) else None
                for thief, victim in (
                    (views[t][rt][qt], views[v][rv][qv])
                    for rt, rv, qt, qv in cells
                )
            ]

        first: list[int | None] = (answers(*pairs[0]) if pairs
                                   else [None] * len(cells))
        if any(answers(t, v) != first for t, v in pairs[1:]):
            return False
        can = np.zeros((2, 2, top + 1, top + 1), dtype=bool)
        amt = np.zeros((2, 2, top + 1, top + 1), dtype=np.int64)
        for cell, amount in zip(cells, first):
            if amount is not None:
                can[cell] = True
                amt[cell] = amount
        self._can = can
        self._amt = amt
        # Merged executor table: the live re-check (`can` else skip)
        # and the clamp source collapse into one lookup, because a
        # filtered pair and a non-positive amount both execute as
        # "nothing moves". Intent construction still reads `can` — an
        # admissible pair with amount <= 0 must create a (no-op) branch.
        self._step = np.where(can, amt, 0)
        self._mask = (
            None if self._pair_mask is None
            else np.asarray(self._pair_mask, dtype=bool)
        )
        self._eye = np.eye(n, dtype=bool)
        self._shifts = np.asarray(
            [self.codec.bits * (n - 1 - cid) for cid in range(n)],
            dtype=np.int64,
        )
        self._weights = np.int64(1) << self._shifts
        self._digit_mask = np.int64((1 << self.codec.bits) - 1)
        return True

    def admitted(self, loads: Any) -> tuple[Any, Any]:
        """The pair tables at every state of an ``(S, n)`` load matrix.

        A core with load ``k`` is looked up as running when ``k > 0``
        with ``k - 1`` ready tasks — the view
        :func:`~repro.verify.enumeration.views_of` builds, and the
        round-start view of a round's intents. Returns ``(can,
        amount)``, both ``(S, n, n)``: ``can[s, t, v]`` is whether thief
        ``t`` may steal from victim ``v`` in state ``s`` (never on the
        diagonal or off the pair mask), and ``amount[s, t, v]`` is the
        unclamped ``steal_amount`` wherever the tables admit the pair.
        """
        size = self._amt.shape[-1]
        running = (loads > 0).astype(np.int64)
        ready = loads - running
        # Flat cell index [running_t][running_v][ready_t][ready_v],
        # split into its thief and victim terms and broadcast once.
        thief_cell = running * (2 * size * size) + ready * size
        victim_cell = running * (size * size) + ready
        cell = thief_cell[:, :, None] + victim_cell[:, None, :]
        can = self._can.reshape(-1)[cell]
        can &= ~self._eye
        if self._mask is not None:
            can &= self._mask
        return can, self._step.reshape(-1)[cell]

    def bad_mask(self, packed: Any) -> Any:
        """:func:`~repro.verify.enumeration.is_bad_state` of an ``int64``
        batch: some core has load 0 and some core has load ``>= 2``."""
        loads = (packed[:, None] >> self._shifts) & self._digit_mask
        return (loads == 0).any(axis=1) & (loads >= 2).any(axis=1)

    # -- batch expansion ---------------------------------------------------

    #: Peak rows (state x victim-combination x permutation) materialised
    #: at once by the k-thief expansion; larger groups run in slices.
    _ROW_CAP = 1 << 17

    def expand_batch_arrays(self, packed: Any,
                            stalls: bool = False) -> tuple[Any, ...]:
        """Array-native raw expansion of an ``int64`` frontier chunk.

        The kernel's native surface: takes a packed ``int64`` array
        and returns ``(values, counts, truncated)`` arrays — state ``i``
        owns the run of ``counts[i]`` successors inside ``values``
        (input order, duplicates possible; callers canonicalise and
        dedup), and ``truncated[i]`` flags a capped permutation
        enumeration. Zero-thief states self-loop, single-thief states
        execute one clamped steal, and every ``k >= 2`` group runs the
        general mixed-radix lane expansion — no per-state Python — with
        one steal order per commutation class (:meth:`_expand_multi`),
        so ``counts[i]`` is at most the tuple executor's branch count.

        The progress obligation alone passes ``stalls=True`` and gets
        two more arrays: ``stalled[i]``, some branch of state ``i``
        committed no steal (it has no thief, or every steal of one of
        its orders moved nothing), and ``branches[i]``, the number of
        branches the tuple executor enumerates for state ``i`` — one
        per victim combination and capped steal order, or the one
        no-attempt branch of a zero-thief state.
        """
        n_states = len(packed)
        if n_states == 0:
            empty = (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
            if stalls:
                return empty + (np.empty(0, dtype=bool),
                                np.empty(0, dtype=np.int64))
            return empty
        # Decode the whole chunk: loads[s, cid].
        loads = (packed[:, None] >> self._shifts) & self._digit_mask
        running = (loads > 0).astype(np.int64)
        ready = loads - running
        # Intent mask: may thief t steal from victim v in state s?
        intents, amounts = self.admitted(loads)
        thief_counts = intents.any(axis=2).sum(axis=1)

        truncated = np.zeros(n_states, dtype=bool)
        stalled = np.zeros(n_states, dtype=bool) if stalls else None
        piece_idx: list[Any] = []
        piece_vals: list[Any] = []

        zero = np.nonzero(thief_counts == 0)[0]
        if zero.size:
            piece_idx.append(zero)
            piece_vals.append(packed[zero])
            if stalled is not None:
                stalled[zero] = True

        single = np.nonzero(thief_counts == 1)[0]
        if single.size:
            s_local, t_idx, v_idx = np.nonzero(intents[single])
            s_glob = single[s_local]
            qv = ready[s_glob, v_idx]
            # One thief: the re-check runs on unmutated state and passes
            # by construction; only the clamp matters.
            moved = np.minimum(amounts[s_glob, t_idx, v_idx], qv)
            np.clip(moved, 0, None, out=moved)
            if stalled is not None:
                stalled[s_glob[moved == 0]] = True
            new_loads = loads[s_glob].copy()
            rows = np.arange(len(s_glob))
            new_loads[rows, t_idx] += moved
            new_loads[rows, v_idx] -= moved
            piece_idx.append(s_glob)
            piece_vals.append(new_loads @ self._weights)

        for k in np.unique(thief_counts[thief_counts >= 2]).tolist():
            group = np.nonzero(thief_counts == k)[0]
            k_idx, k_vals, k_trunc, k_stalled = self._expand_multi(
                int(k), group, intents, running, ready, stalls
            )
            piece_idx.append(k_idx)
            piece_vals.append(k_vals)
            truncated[group] = k_trunc
            if stalled is not None:
                stalled[k_stalled] = True

        all_idx = np.concatenate(piece_idx)
        all_vals = np.concatenate(piece_vals)
        # Stable sort groups each state's successors into one contiguous
        # run, in input order — the flat layout the array pipeline eats.
        order = np.argsort(all_idx, kind="stable")
        counts = np.bincount(all_idx, minlength=n_states)
        if stalled is not None:
            return (all_vals[order], counts, truncated, stalled,
                    self._branch_counts(intents, thief_counts))
        return all_vals[order], counts, truncated

    def _branch_counts(self, intents: Any, thief_counts: Any) -> Any:
        """The tuple executor's branch count per state: the product of
        the thieves' victim counts times the capped order count (one
        for a zero-thief state, whose product is empty)."""
        victims = intents.sum(axis=2)
        lanes = np.where(victims > 0, victims, 1).prod(axis=1)
        orders = np.minimum(
            [math.factorial(k) for k in range(victims.shape[1] + 1)],
            self.max_orders,
        )
        return lanes * orders[thief_counts]

    def _expand_multi(self, k: int, group: Any, intents: Any,
                      running: Any, ready: Any,
                      stalls: bool = False,
                      ) -> tuple[Any, Any, bool, Any]:
        """Vectorised expansion of states with exactly ``k >= 2`` thieves.

        Lanes run over state x victim combination: each thief's victim
        set forms one digit of a per-state mixed-radix number (last
        thief varies fastest, matching ``itertools.product``), so a
        combination index decodes to one victim per thief with two
        integer ops per digit. The steal orders of a lane are the
        permutations of its ``k`` thieves — ascending per state, the
        tuple executor's permutation universe, capped at ``max_orders``
        with the same truncation flag — *up to commutation*: the step
        table reads only the thief's and the victim's cores, so two
        steals whose ``{thief, victim}`` core sets are disjoint give the
        same state, and move the same amounts, in either order. Each
        lane runs one order per commutation class (:func:`_perm_tree`
        of the lane's interference pattern), which reaches exactly the
        capped list's successors and stall flags.

        Every lane walks its own pattern's tree (:meth:`_walk_orders`).
        State slices cap the lanes, and lane slices the tree rows,
        materialised at once at :data:`_ROW_CAP`.

        Returns ``(state_indices, packed_values, truncated, stalled)``
        where the index array maps each produced value back to its
        source state, and ``stalled`` (``None`` unless ``stalls``)
        holds the global indices of states with a no-steal leaf.
        """
        m = len(group)
        sub = intents[group]
        # Exactly k thief rows per state, ascending within each row.
        _, tcol = np.nonzero(sub.any(axis=2))
        thieves = tcol.reshape(m, k)
        rows = np.arange(m)
        # Per-thief ragged victim lists (CSR-style) and radix counts.
        vic_vals: list[Any] = []
        offs: list[Any] = []
        counts = np.empty((m, k), dtype=np.int64)
        for j in range(k):
            rj, vj = np.nonzero(sub[rows, thieves[:, j]])
            cj = np.bincount(rj, minlength=m)
            counts[:, j] = cj
            offs.append(np.concatenate(([0], np.cumsum(cj)[:-1])))
            vic_vals.append(vj)
        strides = np.empty((m, k), dtype=np.int64)
        strides[:, k - 1] = 1
        for j in range(k - 2, -1, -1):
            strides[:, j] = strides[:, j + 1] * counts[:, j + 1]
        # Every state has >= 1 lane: each thief admits >= 1 victim.
        lanes_per = strides[:, 0] * counts[:, 0]
        n_orders = math.factorial(k)
        truncated = n_orders > self.max_orders
        n_orders = min(n_orders, self.max_orders)
        lane_cum = np.cumsum(lanes_per)
        left, right, bits = _pair_bits(k)

        piece_idx: list[Any] = []
        piece_vals: list[Any] = []
        piece_stalled: list[Any] = []
        start = 0
        while start < m:
            before = 0 if start == 0 else int(lane_cum[start - 1])
            stop = int(np.searchsorted(
                lane_cum, before + self._ROW_CAP, side="right"
            ))
            stop = min(max(stop, start + 1), m)
            lp = lanes_per[start:stop]
            n_lanes = int(lp.sum())
            lane_state = np.repeat(np.arange(start, stop), lp)
            local_starts = np.concatenate(([0], np.cumsum(lp)[:-1]))
            pos = np.arange(n_lanes) - np.repeat(local_starts, lp)
            victims = np.empty((n_lanes, k), dtype=np.int64)
            for j in range(k):
                digit = (pos // strides[lane_state, j]) \
                    % counts[lane_state, j]
                victims[:, j] = vic_vals[j][offs[j][lane_state] + digit]
            th = thieves[lane_state]
            # Two steals interfere when their core sets meet.
            cores = (np.int64(1) << th) | (np.int64(1) << victims)
            meet = (cores[:, left] & cores[:, right]) != 0
            codes, kinds = np.unique(meet @ bits, return_inverse=True)
            forest = _Forest(
                [_perm_tree(k, n_orders, code) for code in codes.tolist()], k
            )
            glob = group[lane_state]
            # The walk indexes the rows of every depth up front, so each
            # row counts twice against the cap.
            row_cum = np.cumsum(forest.sizes[kinds] * 2)
            lo = 0
            while lo < n_lanes:
                before = 0 if lo == 0 else int(row_cum[lo - 1])
                hi = int(np.searchsorted(
                    row_cum, before + self._ROW_CAP, side="right"
                ))
                hi = min(max(hi, lo + 1), n_lanes)
                idx, vals, stalled = self._walk_orders(
                    forest, kinds[lo:hi], glob[lo:hi], th[lo:hi],
                    victims[lo:hi], running, ready, stalls,
                )
                piece_idx.append(idx)
                piece_vals.append(vals)
                if stalled is not None:
                    piece_stalled.append(stalled)
                lo = hi
            start = stop
        return (
            np.concatenate(piece_idx),
            np.concatenate(piece_vals),
            truncated,
            np.concatenate(piece_stalled) if stalls else None,
        )

    def _walk_orders(self, forest: _Forest, kinds: Any, glob: Any,
                     th: Any, victims: Any, running: Any, ready: Any,
                     stalls: bool) -> tuple[Any, Any, Any]:
        """Run every lane's steal orders down its pattern's order tree.

        ``kinds[l]`` picks lane ``l``'s tree in ``forest``. Rows run
        depth-major, and lane by lane inside a depth: block ``(d, l)``
        holds one row per node of lane ``l``'s tree at depth ``d``, after
        a leading block of one root row per lane. Every row's node,
        parent row, thief, victim and running bits are indexed once up
        front, so each depth is one gather of its parents' rows and one
        table-indexed steal over all of its rows. Steals use flattened
        1-D table gathers, and loads are never materialised in the loop
        — steals move only ready tasks, so ``loads = ready + running``
        is reconstructed at the leaves.

        With ``stalls`` the walk also carries, per row, whether any
        steal on its prefix moved a task; a leaf where none did is a
        branch that committed no steal.

        Returns the leaves' state indices, their packed values, and
        (``None`` unless ``stalls``) the state indices of no-steal
        leaves.
        """
        n = self.codec.n_cores
        n_lanes, k = th.shape
        rows = np.concatenate((
            np.ones(n_lanes, dtype=np.int64),
            forest.counts[kinds].T.reshape(-1),
        ))
        first = np.cumsum(rows) - rows
        # Per-row block attributes, (d, l) -> d*L + l among non-root
        # blocks: that number is also the index of its parent block.
        per_block = rows[n_lanes:]
        ramp = np.arange(n_lanes, n_lanes + int(per_block.sum()))
        node = np.repeat(forest.base[kinds].T.reshape(-1)
                         - first[n_lanes:], per_block) + ramp
        parent = np.repeat(first[:-n_lanes], per_block) \
            + forest.parents[node]
        cell = np.repeat(np.arange(k * n_lanes) % n_lanes * k, per_block) \
            + forest.cols[node]
        # Running counts never change — steals move ready tasks — so the
        # table's running coordinates are fixed per (lane, thief).
        dim_b, dim_c, dim_d = self._step.shape[1:]
        run_l = running[glob]
        run_f = run_l.reshape(-1)
        lane_n = np.arange(0, n_lanes * n, n)[:, None]
        pre = (run_f[lane_n + th] * dim_b + run_f[lane_n + victims]) \
            * dim_c
        t_all = th.reshape(-1)[cell]
        v_all = victims.reshape(-1)[cell]
        pre_all = pre.reshape(-1)[cell]
        step_flat = self._step.reshape(-1)
        # Row range of each depth, in the numbering that counts roots.
        bounds = first[n_lanes::n_lanes].tolist() + [int(ramp[-1]) + 1]
        rdy = ready[glob]
        committed = np.zeros(n_lanes, dtype=bool) if stalls else None
        above = 0
        for depth in range(k):
            lo, hi = bounds[depth] - n_lanes, bounds[depth + 1] - n_lanes
            up = parent[lo:hi] - above
            above = bounds[depth]
            rdy = rdy.take(up, axis=0)
            rdy_f = rdy.reshape(-1)
            base = np.arange(0, (hi - lo) * n, n)
            tf = base + t_all[lo:hi]
            vf = base + v_all[lo:hi]
            qt = rdy_f[tf]
            qv = rdy_f[vf]
            # Merged re-check + clamp, exactly like the tuple executor:
            # filtered pairs and non-positive amounts both move nothing.
            moved = np.minimum(
                step_flat[(pre_all[lo:hi] + qt) * dim_d + qv], qv
            )
            np.maximum(moved, 0, out=moved)
            rdy_f[vf] = qv - moved
            rdy_f[tf] = qt + moved
            if committed is not None:
                committed = committed.take(up) | (moved > 0)
        leaf = cell[lo:hi] // k
        values = (rdy + run_l[leaf]) @ self._weights
        stalled = None if committed is None else glob[leaf[~committed]]
        return glob[leaf], values, stalled
