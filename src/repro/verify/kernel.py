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

:class:`TransitionKernel` exploits that factoring twice:

* a **pure-Python executor** that replays the exact victim-combination x
  steal-order enumeration of
  :func:`~repro.verify.transition.enumerate_round_branches` — including
  its per-combination permutation cap and truncation flag — on plain
  integer lists, with no snapshot objects and no policy calls in the
  hot loop;
* a **numpy batch tier** that expands a whole frontier at once: intent
  masks for every state via one advanced-indexing probe, zero- and
  single-thief states handled directly, and every state with ``k >= 2``
  racing thieves expanded through lanes over its victim combinations
  (a per-state mixed-radix decomposition) with each permutation of the
  ``k`` thieves executed as ``k`` sequential table-indexed array
  steals. No state falls back to per-state Python; the array form
  (:meth:`TransitionKernel.expand_batch_arrays`) feeds the engines'
  array pipeline without materialising per-state lists.

The numpy tier serves closure exploration and, on the same gates, the
progress and good-state-closure obligations of
:class:`~repro.verify.model_checker.ModelChecker`: ``expand_batch_arrays``
row counts are the tuple executor's branch counts, its optional stall
flags mark states with a branch that committed no steal, and
:meth:`TransitionKernel.bad_mask` tests successor badness on packed
values. A refuted obligation's witness is rebuilt by the tuple
executor, which also still runs both obligations wherever the numpy
tier does not (``off``/``python`` tiers, bytes-form codecs, ineligible
checkers, and the hierarchical checker, whose inter-group phase is
outside the kernel's model).

Whether a kernel may stand in for the tuple executor at all is an
eligibility question answered by
:attr:`~repro.core.policy.Policy.filter_invariance` (``"loads"``,
``"scoped-loads"`` with a static pair mask, or ``"none"`` to opt out)
plus the checker parameters: only ``choice_mode='all'``, the
stale-snapshot (non-sequential) regime, and ``max_orders >= 1``.

The ``REPRO_KERNEL`` environment variable selects the tier:
``off`` (tuple path everywhere), ``python``, ``numpy`` (error if numpy
is unavailable — the CI smoke job relies on that), or the default
``auto`` (numpy when importable, else python). Numpy is deliberately an
optional dependency: nothing in this module imports it at module scope.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Any, Sequence

from repro.core.cpu import CoreSnapshot
from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.core.task import NICE_0_WEIGHT
from repro.verify.encoding import PackedState, StateCodec
from repro.verify.enumeration import LoadState
from repro.verify.transition import DEFAULT_MAX_ORDERS

#: Environment toggle for the kernel tier.
KERNEL_ENV = "REPRO_KERNEL"

#: Accepted values of :data:`KERNEL_ENV`.
KERNEL_MODES = ("off", "python", "numpy", "auto")


def kernel_mode() -> str:
    """The configured kernel tier (validated ``REPRO_KERNEL``)."""
    mode = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    if mode not in KERNEL_MODES:
        raise VerificationError(
            f"{KERNEL_ENV} must be one of {'|'.join(KERNEL_MODES)},"
            f" got {mode!r}"
        )
    return mode


def _import_numpy() -> Any:
    try:
        import numpy
    except ImportError:
        return None
    return numpy


#: Prefix trees of capped thief permutations, keyed ``(k, n_orders)``.
_PERM_TREES: dict[tuple[int, int], tuple[list[list[int]], list[list[int]]]] \
    = {}


def _perm_tree(k: int,
               n_orders: int) -> tuple[list[list[int]], list[list[int]]]:
    """Shared-prefix tree of the first ``n_orders`` thief permutations.

    Two steal orders that agree on their first ``d`` steals produce the
    same intermediate state, so the k-thief executor walks the orders
    as a tree instead of replaying each full permutation: depth ``d``
    holds one node per distinct length-``d+1`` prefix. Returns
    ``(parents, cols)`` — per depth, ``cols[d][j]`` is the thief column
    node ``j`` steals with and ``parents[d][j]`` the index of its
    prefix's node at depth ``d - 1`` (zeros at depth 0, where the
    parent is the shared root state). Leaves at depth ``k - 1``
    enumerate ``itertools.permutations(range(k))`` order, truncated to
    ``n_orders`` — exactly the tuple executor's universe.
    """
    cached = _PERM_TREES.get((k, n_orders))
    if cached is not None:
        return cached
    perms = itertools.islice(itertools.permutations(range(k)), n_orders)
    index: dict[tuple[int, ...], int] = {(): 0}
    parents: list[list[int]] = [[] for _ in range(k)]
    cols: list[list[int]] = [[] for _ in range(k)]
    for perm in perms:
        for depth in range(k):
            prefix = perm[:depth + 1]
            if prefix in index:
                continue
            index[prefix] = len(cols[depth])
            parents[depth].append(index[prefix[:-1]])
            cols[depth].append(perm[depth])
    _PERM_TREES[(k, n_orders)] = (parents, cols)
    return parents, cols


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
                 n_cores: int | None = None) -> "TransitionKernel | None":
    """A kernel for ``(policy, codec)``, or ``None`` when ineligible.

    Eligibility: ``REPRO_KERNEL`` not ``off``; ``choice_mode='all'``
    (policy mode consults ``choose``, which tables cannot capture);
    ``max_orders >= 1``; and the policy declares a table-compatible
    :attr:`~repro.core.policy.Policy.filter_invariance`.

    Raises:
        VerificationError: ``REPRO_KERNEL=numpy`` with numpy missing.
    """
    mode = kernel_mode()
    if mode == "off":
        return None
    if choice_mode != "all" or max_orders < 1:
        return None
    invariance = getattr(policy, "filter_invariance", "none")
    if invariance not in ("loads", "scoped-loads"):
        return None
    n = codec.n_cores if n_cores is None else n_cores
    numpy = None
    if mode in ("numpy", "auto"):
        numpy = _import_numpy()
        if numpy is None and mode == "numpy":
            raise VerificationError(
                f"{KERNEL_ENV}=numpy but numpy is not importable"
            )
    return TransitionKernel(
        policy, codec,
        max_orders=max_orders,
        pair_mask=pair_mask_for(policy, n),
        numpy=numpy,
    )


class TransitionKernel:
    """Table-driven round expansion for loads-invariant policies.

    Built once per ``(policy, codec)`` and cached by the checker; the
    construction probes the real policy over the full
    ``(running, ready)`` grid (bounded by the codec's conserved total),
    after which no policy code runs during exploration.

    Attributes:
        policy: the policy the tables were probed from.
        codec: the packed-state codec frontiers are expressed in.
        max_orders: permutation cap, mirrored from the tuple executor.
    """

    def __init__(self, policy: Policy, codec: StateCodec,
                 max_orders: int = DEFAULT_MAX_ORDERS,
                 pair_mask: Sequence[Sequence[bool]] | None = None,
                 numpy: Any = None) -> None:
        self.policy = policy
        self.codec = codec
        self.max_orders = max_orders
        self._pair_mask = (
            None if pair_mask is None
            else tuple(tuple(row) for row in pair_mask)
        )
        self._build_tables()
        self._np = None
        # The vectorised tier needs whole frontiers in int64 lanes, so
        # it only engages for int-form codecs (the codec guarantees
        # int form fits 63 bits).
        if numpy is not None and codec.use_int:
            self._np = numpy
            self._build_numpy_tables()

    # -- table construction ---------------------------------------------

    def _probe_view(self, cid: int, running: int, ready: int) -> CoreSnapshot:
        """A live view, constructed exactly like ``_LiveState.view``.

        ``filter_invariance="loads"`` licenses ``node=0``: the filter
        and amount may not consult cid or node, so any placement probes
        the same table entry the real round would.
        """
        return CoreSnapshot(
            cid=cid,
            nr_ready=ready,
            has_current=running == 1,
            weighted_load=(running + ready) * NICE_0_WEIGHT,
            node=0,
            version=0,
        )

    def _probe_cids(self) -> tuple[int, int]:
        """A representative admissible (thief, victim) cid pair."""
        if self._pair_mask is not None:
            for t, row in enumerate(self._pair_mask):
                for v, admissible in enumerate(row):
                    if admissible:
                        return t, v
            return -1, -1  # no admissible pair: tables stay all-False
        return 0, 1

    def _build_tables(self) -> None:
        """Probe ``can_steal``/``steal_amount`` over the live-state grid.

        A core's live view during a round is determined by its
        round-start running bit (fixed for the whole round) and its
        current ready count; ready counts are bounded by the conserved
        total, i.e. by ``codec.max_value``. Tables are indexed
        ``[running_t][running_v][ready_t][ready_v]``.
        """
        top = self.codec.max_value
        t_cid, v_cid = self._probe_cids()
        can = [[[[False] * (top + 1) for _ in range(top + 1)]
                for _ in range(2)] for _ in range(2)]
        amt = [[[[0] * (top + 1) for _ in range(top + 1)]
                for _ in range(2)] for _ in range(2)]
        if t_cid >= 0:
            policy = self.policy
            can_steal = policy.can_steal
            steal_amount = policy.steal_amount
            # Views are precreated per (running, ready) — 2(top+1) each
            # side instead of one pair per grid cell.
            t_views = [[self._probe_view(t_cid, r, q)
                        for q in range(top + 1)] for r in (0, 1)]
            v_views = [[self._probe_view(v_cid, r, q)
                        for q in range(top + 1)] for r in (0, 1)]
            for rt in (0, 1):
                for rv in (0, 1):
                    v_row = v_views[rv]
                    for qt in range(top + 1):
                        thief = t_views[rt][qt]
                        can_row = can[rt][rv][qt]
                        amt_row = amt[rt][rv][qt]
                        # Ready counts on the two sides of a steal can
                        # never sum past the conserved total, so the
                        # triangle qt + qv > top is unreachable — leave
                        # it unprobed (False / 0).
                        for qv in range(top + 1 - qt):
                            victim = v_row[qv]
                            if can_steal(thief, victim):
                                can_row[qv] = True
                                amt_row[qv] = steal_amount(thief, victim)
        self._can = can
        self._amt = amt
        # Merged executor table: the live re-check (`can` else skip)
        # and the clamp source collapse into one lookup, because a
        # filtered pair and a non-positive amount both execute as
        # "nothing moves". Intent construction still reads `can` — an
        # admissible pair with amount <= 0 must create a (no-op) branch.
        self._step = [[[
            [a if c else 0 for c, a in zip(can_row, amt_row)]
            for can_row, amt_row in zip(can_q, amt_q)
        ] for can_q, amt_q in zip(can_v, amt_v)]
            for can_v, amt_v in zip(can, amt)]

    def _build_numpy_tables(self) -> None:
        np = self._np
        self._can_np = np.asarray(self._can, dtype=bool)
        self._amt_np = np.asarray(self._amt, dtype=np.int64)
        self._step_np = np.asarray(self._step, dtype=np.int64)
        self._mask_np = (
            None if self._pair_mask is None
            else np.asarray(self._pair_mask, dtype=bool)
        )
        n = self.codec.n_cores
        self._eye_np = np.eye(n, dtype=bool)
        self._shifts_np = np.asarray(
            [self.codec.bits * (n - 1 - cid) for cid in range(n)],
            dtype=np.int64,
        )
        self._weights_np = np.int64(1) << self._shifts_np
        self._digit_mask = np.int64((1 << self.codec.bits) - 1)

    def bad_mask(self, packed: Any) -> Any:
        """:func:`~repro.verify.enumeration.is_bad_state` of an ``int64``
        batch: some core has load 0 and some core has load ``>= 2``."""
        loads = (packed[:, None] >> self._shifts_np) & self._digit_mask
        return (loads == 0).any(axis=1) & (loads >= 2).any(axis=1)

    # -- single-state executor (pure python) -----------------------------

    def successors_loads(self,
                         loads: Sequence[int]) -> tuple[set[LoadState], bool]:
        """Raw (uncanonicalised) successor states of one load vector.

        Replays ``enumerate_round_branches`` semantics exactly:
        intents on round-start views in thief order, the product over
        per-thief victim sets, every permutation of the racing thieves
        up to ``max_orders`` per combination (setting the truncation
        flag when capped), re-check + clamp per executed steal.
        """
        n = len(loads)
        can = self._can
        step = self._step
        mask = self._pair_mask
        running = [1 if load > 0 else 0 for load in loads]
        ready0 = [load - r for load, r in zip(loads, running)]

        thieves: list[int] = []
        victim_sets: list[tuple[int, ...]] = []
        for t in range(n):
            row = can[running[t]]
            qt = ready0[t]
            mask_row = mask[t] if mask is not None else None
            victims = tuple([
                v for v in range(n)
                if v != t
                and (mask_row is None or mask_row[v])
                and row[running[v]][qt][ready0[v]]
            ])
            if victims:
                thieves.append(t)
                victim_sets.append(victims)

        if not thieves:
            return {tuple(loads)}, False

        perms = list(itertools.permutations(thieves))
        capped = perms[: self.max_orders]
        truncated = len(perms) > self.max_orders
        first_order = capped[:1]
        out: set[LoadState] = set()
        loads_list = list(loads)
        for combo in itertools.product(*victim_sets):
            victim_of = dict(zip(thieves, combo))
            # A steal reads and mutates only its own {thief, victim}
            # cells, so when those pairs are pairwise disjoint every
            # execution order produces the same state — run one order
            # instead of all of them (the truncation flag above is
            # order-count based and unaffected).
            touched: set[int] = set()
            disjoint = True
            for t, v in victim_of.items():
                if t in touched or v in touched:
                    disjoint = False
                    break
                touched.add(t)
                touched.add(v)
            for order in (first_order if disjoint else capped):
                ready = list(ready0)
                live = list(loads_list)
                for t in order:
                    v = victim_of[t]
                    qv = ready[v]
                    # Merged re-check + clamp: filtered pairs and
                    # non-positive amounts both move nothing.
                    moved = step[running[t]][running[v]][ready[t]][qv]
                    if moved <= 0:
                        continue
                    if moved > qv:
                        moved = qv
                        if moved <= 0:
                            continue
                    ready[v] = qv - moved
                    ready[t] += moved
                    live[v] -= moved
                    live[t] += moved
                out.add(tuple(live))
        return out, truncated

    def successors_packed(
        self, packed: PackedState,
    ) -> tuple[set[LoadState], bool]:
        """Raw successor states of one packed state (decodes, executes)."""
        return self.successors_loads(self.codec.decode(packed))

    # -- batch tier -------------------------------------------------------

    #: Peak rows (state x victim-combination x permutation) materialised
    #: at once by the k-thief expansion; larger groups run in slices.
    _ROW_CAP = 1 << 17

    def expand_batch(
        self, packed_states: Sequence[PackedState],
    ) -> list[tuple[list[PackedState], bool]]:
        """Raw packed successors of every state in a frontier chunk.

        Returns one ``(successors, truncated)`` pair per input state, in
        input order; successor lists may contain duplicates (callers
        canonicalise and dedup). The numpy tier rides
        :meth:`expand_batch_arrays` and slices its flat result; the
        Python tier loops the scalar executor.
        """
        if self._np is None:
            codec = self.codec
            return [
                (codec.encode_batch(succ), truncated)
                for succ, truncated in (
                    self.successors_packed(p) for p in packed_states
                )
            ]
        np = self._np
        values, counts, truncated = self.expand_batch_arrays(
            np.asarray(packed_states, dtype=np.int64)
        )
        flat = values.tolist()
        flags = truncated.tolist()
        out: list[tuple[list[PackedState], bool]] = []
        cursor = 0
        for index, count in enumerate(counts.tolist()):
            out.append((flat[cursor:cursor + count], flags[index]))
            cursor += count
        return out

    def expand_batch_arrays(self, packed: Any,
                            stalls: bool = False) -> tuple[Any, ...]:
        """Array-native raw expansion of an ``int64`` frontier chunk.

        The numpy tier's native surface: takes a packed ``int64`` array
        and returns ``(values, counts, truncated)`` arrays — state ``i``
        owns the run of ``counts[i]`` successors inside ``values``
        (input order, duplicates possible; callers canonicalise and
        dedup), and ``truncated[i]`` flags a capped permutation
        enumeration. Zero-thief states self-loop, single-thief states
        execute one clamped steal, and every ``k >= 2`` group runs the
        general mixed-radix lane expansion — no per-state Python.

        ``counts[i]`` is also the number of branches the tuple executor
        enumerates for state ``i``: one row per victim combination and
        capped steal order, or the one no-attempt branch of a
        zero-thief state. The progress obligation alone passes
        ``stalls=True`` and gets a fourth array, ``stalled[i]``: some
        branch of state ``i`` committed no steal (it has no thief, or
        every steal of one of its rows moved nothing).
        """
        np = self._np
        n_states = len(packed)
        if n_states == 0:
            empty = (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=bool),
            )
            return empty + (np.empty(0, dtype=bool),) if stalls else empty
        # Decode the whole chunk: loads[s, cid].
        loads = (packed[:, None] >> self._shifts_np) & self._digit_mask
        running = (loads > 0).astype(np.int64)
        ready = loads - running
        # Intent mask: may thief t steal from victim v in state s?
        intents = self._can_np[
            running[:, :, None], running[:, None, :],
            ready[:, :, None], ready[:, None, :],
        ]
        intents &= ~self._eye_np
        if self._mask_np is not None:
            intents &= self._mask_np
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
            rt = running[s_glob, t_idx]
            rv = running[s_glob, v_idx]
            qt = ready[s_glob, t_idx]
            qv = ready[s_glob, v_idx]
            # One thief: the re-check runs on unmutated state and passes
            # by construction; only the clamp matters.
            moved = np.minimum(self._amt_np[rt, rv, qt, qv], qv)
            np.clip(moved, 0, None, out=moved)
            if stalled is not None:
                stalled[s_glob[moved == 0]] = True
            new_loads = loads[s_glob].copy()
            rows = np.arange(len(s_glob))
            new_loads[rows, t_idx] += moved
            new_loads[rows, v_idx] -= moved
            piece_idx.append(s_glob)
            piece_vals.append(new_loads @ self._weights_np)

        for k in np.unique(thief_counts[thief_counts >= 2]).tolist():
            group = np.nonzero(thief_counts == k)[0]
            k_idx, k_vals, k_trunc, k_stalled = self._expand_multi_numpy(
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
            return all_vals[order], counts, truncated, stalled
        return all_vals[order], counts, truncated

    def _expand_multi_numpy(self, k: int, group: Any, intents: Any,
                            running: Any, ready: Any,
                            stalls: bool = False,
                            ) -> tuple[Any, Any, bool, Any]:
        """Vectorised expansion of states with exactly ``k >= 2`` thieves.

        Lanes run over state x victim combination: each thief's victim
        set forms one digit of a per-state mixed-radix number (last
        thief varies fastest, matching ``itertools.product``), so a
        combination index decodes to one victim per thief with two
        integer ops per digit. The permutations of the ``k`` thieves —
        ascending per state, exactly the tuple executor's permutation
        universe, capped at ``max_orders`` with the same truncation
        flag — execute as a shared-prefix tree (:func:`_perm_tree`):
        orders agreeing on their first ``d`` steals share one array row
        until depth ``d``, so the work is ``sum_d k!/(k-d)!`` steals
        per lane instead of ``k! * k``. Steals use flattened 1-D table
        gathers, and loads are never materialised in the loop — steals
        move only ready tasks, so ``loads = ready + running`` is
        reconstructed at the leaves. The scalar executor's
        disjoint-pair collapse is skipped: commuting orders produce
        duplicate packed values, which callers dedup anyway. State
        slices cap the leaf rows materialised at once at
        :data:`_ROW_CAP`.

        With ``stalls`` the walk also carries, per row, whether any
        steal on its prefix moved a task; a leaf where none did is a
        branch that committed no steal.

        Returns ``(state_indices, packed_values, truncated, stalled)``
        where the index array maps each produced value back to its
        source state, and ``stalled`` (``None`` unless ``stalls``)
        holds the global indices of states with a no-steal leaf.
        """
        np = self._np
        n = self.codec.n_cores
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
        tree_parents, tree_cols = _perm_tree(k, n_orders)
        rows_per = lanes_per * n_orders
        cum = np.cumsum(rows_per)
        # Flat strides of the 4-D step table for 1-D gathers below.
        dim_b, dim_c, dim_d = self._step_np.shape[1:]
        step_flat = self._step_np.reshape(-1)

        piece_idx: list[Any] = []
        piece_vals: list[Any] = []
        piece_stalled: list[Any] = []
        start = 0
        while start < m:
            before = 0 if start == 0 else int(cum[start - 1])
            stop = int(np.searchsorted(
                cum, before + self._ROW_CAP, side="right"
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
            glob_l = group[lane_state]
            run_l = running[glob_l]
            run_f = run_l.reshape(-1)
            lane_off = np.arange(n_lanes) * n
            # Walk the prefix tree: at depth d, ``rdy`` holds one row
            # per (node, lane) in node-major blocks; expanding to
            # depth d+1 gathers each node's parent block and applies
            # that node's single steal over all lanes at once.
            rdy = ready[glob_l][None]
            # committed[node, lane]: some steal on the prefix moved.
            committed = np.zeros((1, n_lanes), dtype=bool) if stalls else None
            for parents, node_cols in zip(tree_parents, tree_cols):
                rdy = rdy[parents]
                n_nodes = len(parents)
                total = n_nodes * n_lanes
                # Thief/victim core ids per row (node-major layout).
                t = th[:, node_cols].T.reshape(-1)
                v = victims[:, node_cols].T.reshape(-1)
                rdy_f = rdy.reshape(-1)
                base = np.arange(total) * n
                lane_n = np.tile(lane_off, n_nodes)
                tf = base + t
                vf = base + v
                qv = rdy_f[vf]
                # Merged re-check + clamp, exactly like the scalar
                # executor: filtered pairs and non-positive amounts
                # both move nothing. Running counts never change —
                # steals move ready tasks — so the run gathers index
                # the lane-level snapshot.
                idx = (run_f[lane_n + t] * dim_b
                       + run_f[lane_n + v]) * dim_c
                idx += rdy_f[tf]
                idx *= dim_d
                idx += qv
                moved = np.minimum(step_flat[idx], qv)
                np.clip(moved, 0, None, out=moved)
                rdy_f[vf] = qv - moved
                rdy_f[tf] += moved
                if committed is not None:
                    committed = committed[parents] \
                        | (moved > 0).reshape(n_nodes, n_lanes)
            # Leaves enumerate the capped orders; loads = ready+running.
            piece_idx.append(np.tile(glob_l, n_orders))
            piece_vals.append(
                ((rdy + run_l).reshape(-1, n)) @ self._weights_np
            )
            if committed is not None:
                piece_stalled.append(glob_l[~committed.all(axis=0)])
            start = stop
        return (
            np.concatenate(piece_idx),
            np.concatenate(piece_vals),
            truncated,
            np.concatenate(piece_stalled) if stalls else None,
        )
