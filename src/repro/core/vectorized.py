"""Vectorized compute kernels — fused whole-population rounds.

The matching-discovery automaton is lockstep: in any given superstep
every live node runs the *same* phase of the C/I/L/R/W/U/E/D machine.
The per-node programs pay Python dispatch, ``Invite``/``Reply``/
``Report`` object churn and per-node set bookkeeping for that
uniformity; the kernels here execute a whole round for the entire node
population at once over structure-of-arrays state, so on the hot path a
message is never a Python object and the interpreter never loops over
nodes:

* palette masks live in fixed-width **plane arrays** (``uint64[n, k]``,
  see :mod:`repro.core.palette`), so "lowest color free at both ends"
  is a handful of ufunc ops over all inviters at once;
* uncolored partner lists live in one flat CSR-shaped array (row ``u``
  occupies ``indptr[u] .. indptr[u] + unc_len[u]``), mutated by batched
  ragged compaction — a node loses at most one partner per round, so a
  round's removals compact in O(touched adjacency) with no Python loop;
* per-node RNG streams are replayed wholesale by
  :class:`repro.core.vecrng.VectorMT` — bit-equal to the
  ``random.Random`` streams the per-node engines hand out;
* the four phases of a round run **fused** in one
  :meth:`step_round` call, handing the engine per-phase records so
  metrics and telemetry stay byte-identical to the per-node loop.

Bit-identity with the per-node programs is the contract, not an
approximation; the property suite pins it.  The load-bearing facts:

* **RNG streams.**  The replayed streams make the *same* draws in the
  same order as the programs' ``random.Random`` methods: the role coin
  for every node the program would flip it for, ``choice`` over
  sequences of identical length at identical points
  (``random.Random.choice`` consumes entropy even on singleton
  sequences, so no short-circuiting).
* **Algorithm 1 needs no per-arc knowledge.**  Fault-free and strict,
  every color a node consumes in round *r* is broadcast in its round-*r*
  report and folded by all live neighbors at phase 3, so at every
  phase 0 a node's model of its neighbor's used set *is* the neighbor's
  used set.  The proposal "lowest color free at both ends per my
  knowledge" collapses to the lowest clear bit of
  ``used[u] | used[partner]`` (see
  :func:`repro.core.palette.planes_lowest_free`).
* **Stale-pairing guards are unreachable.**  The filters the per-node
  programs apply against already-resolved partners (lost-reply repair)
  cannot trigger under reliable delivery: both endpoints drop a pairing
  in the same round, so the uncolored relations stay symmetric at every
  round boundary.
* **DiMa2Ed's neighbor model is shared.**  Reports are reliable local
  broadcasts, so every live neighbor of ``v`` holds the *same* model of
  ``v``'s struck channels; one advertised-removals mask per node
  (``adv``), updated a round behind ``forbidden`` exactly like the
  per-node ``_neighbor_removed``, reproduces every inviter's view.
* **Halting only happens at phase 3**, so the live set is constant
  within a round and a fused round observes exactly the per-superstep
  live lists the per-node loop sees.
* **Phase 1's uncolored-list removal commutes with phase 2's.**  No
  RNG draw between them depends on the lists, so both removals batch
  into one compaction at phase 2.

A kernel binds CSR arrays directly (``bind_graph``);
:class:`repro.runtime.engine.BatchedEngine` drives it a round at a time,
and :func:`repro.core.batched.run_kernel` picks it for eligible runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.palette import (
    PLANE_WORD_BITS,
    grow_planes,
    planes_bit_length,
    planes_lowest_free,
    planes_popcount,
    planes_select_free,
)
from repro.core.vecrng import VectorMT

__all__ = ["Alg1VecKernel", "DiMa2EdVecKernel", "PhaseRecord"]

_U64 = np.uint64

#: Word sizes of the three phase payloads (``Message.size`` of a
#: broadcast carrying an Invite/Reply/Report dataclass: 2 header words
#: plus one per field).  Constants because dataclass payload sizes are
#: field-count based, independent of tuple contents.
_INVITE_WORDS = 5
_REPLY_WORDS = 5
_REPORT_WORDS = 7

#: One superstep's worth of engine bookkeeping, produced per phase of a
#: fused round: ``(live_count, senders, delivered, discarded,
#: words_each, hist_items, transition_items, done_total)``.
PhaseRecord = Tuple[
    int, int, int, int, int, Optional[list], Optional[list], int
]


def _two_states(
    first_in_a: bool, state_a: str, count_a: int, state_b: str, count_b: int
) -> List[Tuple[str, int]]:
    """Histogram items for a two-group state partition.

    Ordered by the per-node loop's first-occurrence rule: the group of
    the lowest live node leads.  Empty groups are dropped (the per-node
    histogram never holds a zero count).
    """
    if first_in_a:
        items = [(state_a, count_a), (state_b, count_b)]
    else:
        items = [(state_b, count_b), (state_a, count_a)]
    return [item for item in items if item[1]]


def _two_transitions(
    first_in_a: bool,
    trans_a: Tuple[str, str, int],
    trans_b: Tuple[str, str, int],
) -> List[Tuple[str, str, int]]:
    """Transition items for a two-group partition, first-occurrence ordered."""
    items = [trans_a, trans_b] if first_in_a else [trans_b, trans_a]
    return [item for item in items if item[2]]


def _ragged_positions(
    starts: np.ndarray, lens: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions of the concatenation of ``[starts[i], +lens[i])`` rows.

    Returns ``(rowid, pos)``: for every element of the concatenation,
    the index of its source row and its absolute flat position.
    """
    total = int(lens.sum())
    rowid = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    excl = np.cumsum(lens) - lens
    intra = np.arange(total, dtype=np.int64) - excl[rowid]
    return rowid, starts[rowid] + intra


class _VecKernelBase:
    """State and helpers shared by the fused kernels."""

    _PHASE_NAMES = (
        "_phase_choose",
        "_phase_respond",
        "_phase_update",
        "_phase_exchange",
    )

    def step_round(
        self, superstep: int, collect: bool, phases: int = 4
    ) -> List[PhaseRecord]:
        """Run up to ``phases`` supersteps starting at ``superstep``.

        Normally a whole round (``superstep`` round-aligned, four
        records back); a mid-round start replays the round's remaining
        phases — the round state (roles, accepts, reports) lives on
        ``self`` and survives checkpointing, so a budget-exhausted run
        resumes from any superstep.
        """
        start = superstep & 3
        stop = min(4, start + phases)
        return [getattr(self, name)(collect) for name in self._PHASE_NAMES[start:stop]]

    def _bind_arrays(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        n = indptr.size - 1
        self._n = n
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._deg = np.diff(self._indptr)
        self._audience = self._deg.copy()
        self._live_flag = self._deg > 0
        self._live = np.nonzero(self._live_flag)[0]
        self._is_inv = np.zeros(n, dtype=bool)
        self._inv_color = np.zeros(n, dtype=np.int64)
        self._done = 0
        self._assign_chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _record_assignments(
        self, s: np.ndarray, t: np.ndarray, c: np.ndarray
    ) -> None:
        """Record one round's (source, target, color) acceptances.

        Kept as per-round array chunks; the tuple views below
        materialize them on demand so the hot loop never builds Python
        objects per edge.
        """
        self._assign_chunks.append((s, t, c))

    def assignment_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All recorded assignments as ``(s, t, c)`` int64 arrays."""
        chunks = getattr(self, "_assign_chunks", [])
        if not chunks:
            z = np.zeros(0, dtype=np.int64)
            return z, z, z
        return (
            np.concatenate([x[0] for x in chunks]),
            np.concatenate([x[1] for x in chunks]),
            np.concatenate([x[2] for x in chunks]),
        )

    def _assignment_tuples(self) -> List[Tuple[int, int, int]]:
        # Materialized as Python ints (tolist): downstream digests
        # repr() these values, and numpy scalars repr differently.
        s, t, c = self.assignment_arrays()
        return list(zip(s.tolist(), t.tolist(), c.tolist()))

    @property
    def live_count(self) -> int:
        return int(self._live.size)

    def live_ids(self) -> List[int]:
        """Current live node ids, ascending (checkpoint payloads)."""
        return self._live.tolist()

    def _apply_halts(self, halted: np.ndarray) -> None:
        """Retire ``halted`` (sorted, unique): flags, live list, audience."""
        if not halted.size:
            return
        self._live_flag[halted] = False
        self._is_inv[halted] = False
        # Each halted node's neighbors lose one listener.
        rowid, pos = _ragged_positions(self._indptr[halted], self._deg[halted])
        if pos.size:
            self._audience -= np.bincount(
                self._indices[pos], minlength=self._n
            )
        live = self._live
        self._live = live[self._live_flag[live]]

    def _meter(self, senders: np.ndarray) -> Tuple[int, int, int]:
        """(count, delivered, discarded) for one phase's broadcasters."""
        count = int(senders.size)
        if not count:
            return 0, 0, 0
        delivered = int(self._audience[senders].sum())
        discarded = int(self._deg[senders].sum()) - delivered
        return count, delivered, discarded

    def _remove_partners(
        self,
        flat: np.ndarray,
        lens: np.ndarray,
        rows: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """Batched ``flat_row[rows[i]].remove(vals[i])`` over unique rows.

        Row ``r``'s live region is ``indptr[r] .. indptr[r] + lens[r]``;
        every targeted row contains its value exactly once, so each
        region compacts in place by one slot (relative order preserved,
        exactly like ``list.remove``).
        """
        if not rows.size:
            return
        row_lens = lens[rows]
        rowid, pos = _ragged_positions(self._indptr[rows], row_lens)
        entries = flat[pos]
        keep = entries != vals[rowid]
        csum = np.cumsum(keep, dtype=np.int64)
        row_first = np.cumsum(row_lens) - row_lens
        base = csum[row_first] - keep[row_first]
        rank = csum - 1 - base[rowid]
        flat[self._indptr[rows][rowid[keep]] + rank[keep]] = entries[keep]
        lens[rows] = row_lens - 1


class Alg1VecKernel(_VecKernelBase):
    """Fused Algorithm 1 (edge coloring) over plane/flat-array state,
    bit-identical to :class:`repro.core.edge_coloring.EdgeColoringProgram`
    under the gates of :func:`repro.core.batched.batched_eligible`.

    Per node: the uncolored partner list (a row of the flat array,
    compacted exactly like the program's ``_uncolored`` so ``choice``
    sees identical sequences), a used-colors plane row, the role flag
    and this round's proposal.  Accepted pairings are recorded once per
    edge as ``(inviter, listener, color)`` — all the wrapper needs.
    """

    COLOR_STRATEGIES = ("lowest", "random_window")
    RESPONDER_STRATEGIES = ("random", "lowest_color")

    def __init__(
        self,
        *,
        p_invite: float = 0.5,
        color_strategy: str = "lowest",
        responder_strategy: str = "random",
    ) -> None:
        if not 0.0 <= p_invite <= 1.0:
            raise ConfigurationError(f"p_invite must be in [0, 1], got {p_invite}")
        if color_strategy not in self.COLOR_STRATEGIES:
            raise ConfigurationError(
                f"unknown color_strategy {color_strategy!r}; "
                f"expected one of {self.COLOR_STRATEGIES}"
            )
        if responder_strategy not in self.RESPONDER_STRATEGIES:
            raise ConfigurationError(
                f"unknown responder_strategy {responder_strategy!r}; "
                f"expected one of {self.RESPONDER_STRATEGIES}"
            )
        self.p_invite = p_invite
        self.color_strategy = color_strategy
        self.responder_strategy = responder_strategy
        self.work_total = 0

    @property
    def assignments(self) -> List[Tuple[int, int, int]]:
        """(inviter, listener, color) per colored edge, acceptance order."""
        return self._assignment_tuples()

    def bind_graph(
        self, indptr: np.ndarray, indices: np.ndarray, run_seed: int
    ) -> List[int]:
        self._bind_arrays(indptr, indices)
        n = self._n
        self._unc = self._indices.copy()
        self._unc_len = self._deg.copy()
        self._used = np.zeros((n, 1), dtype=_U64)
        self._mt = VectorMT.for_run(run_seed, n)
        empty = np.zeros(0, dtype=np.int64)
        self._acc_s = self._acc_t = self._acc_c = empty
        self._r_inviters = self._r_partners = empty
        self._r_ni = 0
        self._r_first = False
        self.work_total = int(self._indices.size)
        return np.nonzero(self._deg == 0)[0].tolist()

    def _propose_colors(self, taken: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Per-inviter proposal colors from the joint taken planes.

        ``random_window`` draws its candidate rank *before* selection,
        so plane growth (a saturated row) can recompute deterministically
        without touching the RNG streams.
        """
        if self.color_strategy == "lowest":
            colors = planes_lowest_free(taken)
            rank = None
        else:
            high = planes_bit_length(taken)
            free_count = high + 1 - planes_popcount(taken)
            rank = self._mt.randbelow(ids, free_count)
            colors = planes_select_free(taken, rank)
        while colors.size and int(colors.max()) >= taken.shape[1] * PLANE_WORD_BITS:
            taken = grow_planes(taken, taken.shape[1] + 1)
            if self._used.shape[1] < taken.shape[1]:
                self._used = grow_planes(self._used, taken.shape[1])
            if rank is None:
                colors = planes_lowest_free(taken)
            else:
                colors = planes_select_free(taken, rank)
        return colors

    def _phase_choose(self, collect: bool) -> PhaseRecord:
        live = self._live
        nl = int(live.size)
        mt = self._mt
        inv_mask = mt.random_(live) < self.p_invite
        inviters = live[inv_mask]
        self._is_inv[live] = inv_mask
        ni = int(inviters.size)
        if ni:
            r = mt.randbelow(inviters, self._unc_len[inviters])
            partners = self._unc[self._indptr[inviters] + r]
            taken = self._used[inviters] | self._used[partners]
            colors = self._propose_colors(taken, inviters)
            self._inv_color[inviters] = colors
        else:
            partners = np.zeros(0, dtype=np.int64)
        self._r_inviters = inviters
        self._r_partners = partners
        self._r_ni = ni
        self._r_first = first = bool(inv_mask[0]) if nl else False
        hist = trans = None
        if collect:
            hist = _two_states(first, "W", ni, "L", nl - ni)
            trans = [("C", state, count) for state, count in hist]
        count, delivered, discarded = self._meter(inviters)
        return (nl, count, delivered, discarded, _INVITE_WORDS, hist, trans, self._done)

    def _phase_respond(self, collect: bool) -> PhaseRecord:
        nl = int(self._live.size)
        inviters = self._r_inviters
        partners = self._r_partners
        mt = self._mt
        # Listeners only: inviters sit in W while invitations travel.
        resp = ~self._is_inv[partners]
        s_c = inviters[resp]
        t_c = partners[resp]
        if s_c.size:
            # Group invites by target.  The stable sort preserves the
            # ascending-inviter order within each box — exactly the
            # per-node inbox order ``choice`` indexes into.
            order = np.argsort(t_c, kind="stable")
            s_s = s_c[order]
            t_s = t_c[order]
            c_s = self._inv_color[s_s]
            boundary = np.empty(t_s.size, dtype=bool)
            boundary[0] = True
            np.not_equal(t_s[1:], t_s[:-1], out=boundary[1:])
            starts = np.nonzero(boundary)[0]
            targets = t_s[starts]
            counts = np.diff(np.append(starts, t_s.size))
            if self.responder_strategy == "lowest_color":
                group = np.repeat(np.arange(targets.size), counts)
                best = np.minimum.reduceat(c_s, starts)
                keep = c_s == best[group]
                kept_counts = np.add.reduceat(keep.astype(np.int64), starts)
                r = mt.randbelow(targets, kept_counts)
                csum = np.cumsum(keep, dtype=np.int64)
                base = csum[starts] - keep[starts]
                rank = csum - 1 - base[group]
                chosen = np.nonzero(keep & (rank == r[group]))[0]
            else:
                r = mt.randbelow(targets, counts)
                chosen = starts + r
            acc_s = s_s[chosen]
            acc_t = targets
            acc_c = c_s[chosen]
        else:
            acc_s = acc_t = acc_c = np.zeros(0, dtype=np.int64)
        self._acc_s, self._acc_t, self._acc_c = acc_s, acc_t, acc_c
        if acc_t.size:
            word = acc_c >> 6
            bit = _U64(1) << (acc_c & 63).astype(_U64)
            self._used[acc_t, word] |= bit
            self._acc_word, self._acc_bit = word, bit
            self._record_assignments(acc_s, acc_t, acc_c)
        self._done += int(acc_t.size)
        hist = trans = None
        if collect:
            ni, first = self._r_ni, self._r_first
            hist = _two_states(first, "W", ni, "U", nl - ni)
            trans = _two_transitions(first, ("W", "W", ni), ("L", "U", nl - ni))
        count, delivered, discarded = self._meter(acc_t)
        return (nl, count, delivered, discarded, _REPLY_WORDS, hist, trans, self._done)

    def _phase_update(self, collect: bool) -> PhaseRecord:
        nl = int(self._live.size)
        acc_s, acc_t = self._acc_s, self._acc_t
        if acc_t.size:
            self._used[acc_s, self._acc_word] |= self._acc_bit
            # Both endpoints drop the resolved pairing (the listener's
            # removal was deferred from phase 1 — no draw in between
            # reads the lists, so the batched compaction is equivalent).
            rows = np.concatenate([acc_t, acc_s])
            vals = np.concatenate([acc_s, acc_t])
            self._remove_partners(self._unc, self._unc_len, rows, vals)
            reporters = np.sort(rows)
        else:
            reporters = acc_t
        self._done += int(acc_t.size)
        hist = trans = None
        if collect:
            ni, first = self._r_ni, self._r_first
            hist = [("E", nl)]
            trans = _two_transitions(first, ("W", "E", ni), ("U", "E", nl - ni))
        count, delivered, discarded = self._meter(reporters)
        return (nl, count, delivered, discarded, _REPORT_WORDS, hist, trans, self._done)

    def _phase_exchange(self, collect: bool) -> PhaseRecord:
        live = self._live
        nl = int(live.size)
        cand = np.concatenate([self._acc_s, self._acc_t])
        halted = np.sort(cand[self._unc_len[cand] == 0])
        nh = int(halted.size)
        first_halts = nh > 0 and int(halted[0]) == int(live[0])
        self._apply_halts(halted)
        hist = trans = None
        if collect:
            hist = _two_states(first_halts, "D", nh, "C", nl - nh)
            trans = [("E", state, count) for state, count in hist]
        return (nl, 0, 0, 0, 0, hist, trans, self._done)


class DiMa2EdVecKernel(_VecKernelBase):
    """Fused DiMa2Ed (strong arc coloring) over plane/flat-array state,
    bit-identical to :class:`repro.core.dima2ed.DiMa2EdProgram` under the
    gates of :func:`repro.core.batched.batched_eligible`.

    Beyond Algorithm 1's state this tracks, per node, plane rows for the
    struck-channel mask (``forbidden``), the *advertised* struck mask
    (``adv`` — what the node has reported so far, i.e. every neighbor's
    model of it; it lags ``forbidden`` by the report cycle exactly like
    the per-node ``_neighbor_removed``) and the fresh-colored/
    fresh-removed report deltas, plus the contention fail streak that
    widens the channel window.  The out/in uncolored arc
    lists are two flat CSR-shaped arrays compacted per round like the
    Algorithm 1 partner list.  Report folding (phase 3) aggregates the
    strikers' colored masks over live neighbors with one ``bitwise_or``
    scatter per plane word — the per-reporter loop order is immaterial
    because strikes accumulate by pure OR.
    """

    CHANNEL_STRATEGIES = ("first_fit", "random_window")
    BASE_WINDOW = 4
    BACKOFF_GRACE = 3
    MAX_BACKOFF = 64

    def __init__(
        self, *, p_invite: float = 0.5, channel_strategy: str = "random_window"
    ) -> None:
        if not 0.0 <= p_invite <= 1.0:
            raise ConfigurationError(f"p_invite must be in [0, 1], got {p_invite}")
        if channel_strategy not in self.CHANNEL_STRATEGIES:
            raise ConfigurationError(
                f"unknown channel_strategy {channel_strategy!r}; "
                f"expected one of {self.CHANNEL_STRATEGIES}"
            )
        self.p_invite = p_invite
        self.channel_strategy = channel_strategy
        self.work_total = 0

    @property
    def arc_assignments(self) -> List[Tuple[int, int, int]]:
        """(tail, head, channel) per colored arc, acceptance order."""
        return self._assignment_tuples()

    def bind_graph(
        self, indptr: np.ndarray, indices: np.ndarray, run_seed: int
    ) -> List[int]:
        self._bind_arrays(indptr, indices)
        n = self._n
        # Symmetric digraph: both arc directions share the undirected
        # adjacency row, as separate uncolored views.
        self._out = self._indices.copy()
        self._out_len = self._deg.copy()
        self._in = self._indices.copy()
        self._in_len = self._deg.copy()
        self._forbidden = np.zeros((n, 1), dtype=_U64)
        self._adv = np.zeros((n, 1), dtype=_U64)
        self._fresh_colored = np.zeros((n, 1), dtype=_U64)
        self._fresh_removed = np.zeros((n, 1), dtype=_U64)
        self._dirty = np.zeros(n, dtype=bool)
        self._fail_streak = np.zeros(n, dtype=np.int64)
        self._inv_target = np.zeros(n, dtype=np.int64)
        self._mt = VectorMT.for_run(run_seed, n)
        empty = np.zeros(0, dtype=np.int64)
        self._acc_s = self._acc_t = self._acc_c = empty
        self._r_inviters = self._r_partners = empty
        self._rep_ids = empty
        self._rep_colored = self._rep_removed = np.zeros((0, 1), dtype=_U64)
        self._r_ni = 0
        self._r_first = False
        self.work_total = 2 * int(self._indices.size)
        return np.nonzero(self._deg == 0)[0].tolist()

    def _grow_to(self, words: int) -> None:
        self._forbidden = grow_planes(self._forbidden, words)
        self._adv = grow_planes(self._adv, words)
        self._fresh_colored = grow_planes(self._fresh_colored, words)
        self._fresh_removed = grow_planes(self._fresh_removed, words)

    def _propose_channels(self, inv: np.ndarray, partners: np.ndarray) -> np.ndarray:
        mask = self._forbidden[inv] | self._adv[partners]
        if self.channel_strategy == "first_fit":
            rank = None
            channels = planes_lowest_free(mask)
        else:
            past = self._fail_streak[inv] - self.BACKOFF_GRACE
            # min(MAX_BACKOFF, 2**past) for past >= 0; the clip keeps the
            # shift defined (MAX_BACKOFF == 2**6 caps everything beyond).
            backoff = np.where(past < 0, 0, 1 << np.clip(past, 0, 6))
            window = self.BASE_WINDOW + backoff
            rank = self._mt.randbelow(inv, window)
            channels = planes_select_free(mask, rank)
        while channels.size and int(channels.max()) >= mask.shape[1] * PLANE_WORD_BITS:
            self._grow_to(mask.shape[1] + 1)
            mask = self._forbidden[inv] | self._adv[partners]
            if rank is None:
                channels = planes_lowest_free(mask)
            else:
                channels = planes_select_free(mask, rank)
        return channels

    def _phase_choose(self, collect: bool) -> PhaseRecord:
        live = self._live
        nl = int(live.size)
        mt = self._mt
        is_inv = self._is_inv
        is_inv[live] = False
        # Idle inviters: no uncolored outgoing arc -> no role coin.
        drawers = live[self._out_len[live] > 0]
        if drawers.size:
            inv = drawers[mt.random_(drawers) < self.p_invite]
        else:
            inv = drawers
        is_inv[inv] = True
        ni = int(inv.size)
        if ni:
            r = mt.randbelow(inv, self._out_len[inv])
            partners = self._out[self._indptr[inv] + r]
            channels = self._propose_channels(inv, partners)
            self._inv_target[inv] = partners
            self._inv_color[inv] = channels
        else:
            partners = np.zeros(0, dtype=np.int64)
        self._r_inviters = inv
        self._r_partners = partners
        self._r_ni = ni
        self._r_first = first = bool(is_inv[live[0]]) if nl else False
        hist = trans = None
        if collect:
            hist = _two_states(first, "W", ni, "L", nl - ni)
            trans = [("C", state, count) for state, count in hist]
        count, delivered, discarded = self._meter(inv)
        return (nl, count, delivered, discarded, _INVITE_WORDS, hist, trans, self._done)

    def _strike(self, nodes: np.ndarray, word: np.ndarray, bit: np.ndarray) -> None:
        """Fold one accepted channel bit into ``nodes``' masks (unique rows)."""
        self._fresh_colored[nodes, word] |= bit
        new = (self._forbidden[nodes, word] & bit) == 0
        if np.any(new):
            self._fresh_removed[nodes[new], word[new]] |= bit[new]
        self._forbidden[nodes, word] |= bit
        self._dirty[nodes] = True

    def _phase_respond(self, collect: bool) -> PhaseRecord:
        nl = int(self._live.size)
        mt = self._mt
        is_inv = self._is_inv
        inv = self._r_inviters
        partners = self._r_partners
        resp = ~is_inv[partners]
        s_c = inv[resp]
        t_c = partners[resp]
        acc_s = acc_t = acc_c = np.zeros(0, dtype=np.int64)
        if s_c.size:
            order = np.argsort(t_c, kind="stable")
            s_s = s_c[order]
            t_s = t_c[order]
            c_s = self._inv_color[s_s]
            boundary = np.empty(t_s.size, dtype=bool)
            boundary[0] = True
            np.not_equal(t_s[1:], t_s[:-1], out=boundary[1:])
            starts = np.nonzero(boundary)[0]
            targets = t_s[starts]
            counts = np.diff(np.append(starts, t_s.size))
            # Procedure 2-b's collision filter: channels of overheard
            # proposals (inviting neighbors targeting someone else) are
            # unusable this round.  One plane row per responder, built
            # by OR-reducing each responder's adjacency segment.
            k = self._forbidden.shape[1]
            group = np.repeat(np.arange(targets.size), counts)
            deg_t = self._deg[targets]
            nbr_gid, nbr_pos = _ragged_positions(self._indptr[targets], deg_t)
            nbrs = self._indices[nbr_pos]
            overhears = is_inv[nbrs] & (self._inv_target[nbrs] != targets[nbr_gid])
            nbr_chan = self._inv_color[nbrs]
            nbr_word = nbr_chan >> 6
            nbr_bit = np.where(
                overhears, _U64(1) << (nbr_chan & 63).astype(_U64), _U64(0)
            )
            seg_starts = np.cumsum(deg_t) - deg_t
            bad = self._forbidden[targets].copy()
            for j in range(k):
                bad[:, j] |= np.bitwise_or.reduceat(
                    np.where(nbr_word == j, nbr_bit, _U64(0)), seg_starts
                )
            c_word = c_s >> 6
            c_bit = _U64(1) << (c_s & 63).astype(_U64)
            usable = (bad[group, c_word] & c_bit) == 0
            u_counts = np.add.reduceat(usable.astype(np.int64), starts)
            active = u_counts > 0
            if np.any(active):
                r = mt.randbelow(targets[active], u_counts[active])
                r_full = np.full(targets.size, -1, dtype=np.int64)
                r_full[active] = r
                csum = np.cumsum(usable, dtype=np.int64)
                base = csum[starts] - usable[starts]
                rank = csum - 1 - base[group]
                chosen = np.nonzero(usable & (rank == r_full[group]))[0]
                acc_s = s_s[chosen]
                acc_t = targets[active]
                acc_c = c_s[chosen]
        self._acc_s, self._acc_t, self._acc_c = acc_s, acc_t, acc_c
        if acc_t.size:
            self._record_assignments(acc_s, acc_t, acc_c)
            word = acc_c >> 6
            bit = _U64(1) << (acc_c & 63).astype(_U64)
            self._acc_word, self._acc_bit = word, bit
            self._strike(acc_t, word, bit)
            # The in-arc removal is deferred to phase 2's batched
            # compaction (no draw in between reads the lists).
        self._done += int(acc_t.size)
        hist = trans = None
        if collect:
            ni, first = self._r_ni, self._r_first
            hist = _two_states(first, "W", ni, "U", nl - ni)
            trans = _two_transitions(first, ("W", "W", ni), ("L", "U", nl - ni))
        count, delivered, discarded = self._meter(acc_t)
        return (nl, count, delivered, discarded, _REPLY_WORDS, hist, trans, self._done)

    def _phase_update(self, collect: bool) -> PhaseRecord:
        nl = int(self._live.size)
        acc_s, acc_t = self._acc_s, self._acc_t
        if acc_t.size:
            self._remove_partners(self._out, self._out_len, acc_s, acc_t)
            self._remove_partners(self._in, self._in_len, acc_t, acc_s)
            self._strike(acc_s, self._acc_word, self._acc_bit)
        reporters = np.nonzero(self._dirty)[0]
        self._rep_ids = reporters
        self._rep_colored = self._fresh_colored[reporters].copy()
        self._rep_removed = self._fresh_removed[reporters].copy()
        self._fresh_colored[reporters] = 0
        self._fresh_removed[reporters] = 0
        self._dirty[:] = False
        self._done += int(acc_t.size)
        hist = trans = None
        if collect:
            ni, first = self._r_ni, self._r_first
            hist = [("E", nl)]
            trans = _two_transitions(first, ("W", "E", ni), ("U", "E", nl - ni))
        count, delivered, discarded = self._meter(reporters)
        return (nl, count, delivered, discarded, _REPORT_WORDS, hist, trans, self._done)

    def _phase_exchange(self, collect: bool) -> PhaseRecord:
        live = self._live
        nl = int(live.size)
        rep_ids = self._rep_ids
        if rep_ids.size:
            self._adv[rep_ids] |= self._rep_removed
            strikes = self._rep_colored.any(axis=1)
            strikers = rep_ids[strikes]
            if strikers.size:
                # One-hop constraint: channels on a reporter's fresh arcs
                # are struck at every live neighbor.  Pure OR, so the
                # per-reporter fold order is immaterial.
                colored = self._rep_colored[strikes]
                gid, pos = _ragged_positions(
                    self._indptr[strikers], self._deg[strikers]
                )
                nbrs = self._indices[pos]
                alive = self._live_flag[nbrs]
                nbrs = nbrs[alive]
                gid = gid[alive]
                if nbrs.size:
                    touched, compact = np.unique(nbrs, return_inverse=True)
                    k = colored.shape[1]
                    agg = np.zeros((touched.size, k), dtype=_U64)
                    for j in range(k):
                        np.bitwise_or.at(agg[:, j], compact, colored[gid, j])
                    new = agg & ~self._forbidden[touched]
                    self._forbidden[touched] |= new
                    self._fresh_removed[touched] |= new
                    self._dirty[touched[new.any(axis=1)]] = True
        inv = self._r_inviters
        if inv.size:
            self._fail_streak[inv] += 1
            self._fail_streak[self._acc_s] = 0
        cand = np.concatenate([self._acc_s, self._acc_t])
        done_mask = (self._out_len[cand] == 0) & (self._in_len[cand] == 0)
        halted = np.sort(cand[done_mask])
        nh = int(halted.size)
        first_halts = nh > 0 and int(halted[0]) == int(live[0])
        if nh:
            self._dirty[halted] = False  # a halted node never reports
        self._apply_halts(halted)
        hist = trans = None
        if collect:
            hist = _two_states(first_halts, "D", nh, "C", nl - nh)
            trans = [("E", state, count) for state, count in hist]
        return (nl, 0, 0, 0, 0, hist, trans, self._done)
