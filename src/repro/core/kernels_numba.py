"""Optional JIT backend for the fused kernels (numba, lazily probed).

The vectorized kernels (:mod:`repro.core.vectorized`) spend their
remaining time in numpy dispatch — dozens of ufunc launches per round
over arrays that shrink as the run converges.  This module compiles the
whole Algorithm 1 round into one ``@njit`` function over the *same*
state arrays (MT19937 rows, palette planes, flat uncolored lists), so a
round costs one native call regardless of how many phases or draws it
contains.  DiMa2Ed gets the same treatment: its fused round
(:class:`DiMa2EdKernelNumba`) folds the overheard-proposal collision
filter, the backoff-window channel draw and the strike propagation into
one scalar sweep — per-node MT streams make the node visit order
immaterial, so the scalar loop replays the vectorized kernel draw for
draw.

numba is **optional** — deliberately not a dependency:

* :func:`numba_available` probes the import lazily, compiles a trivial
  kernel once to catch broken installs, and caches the verdict.
* When numba is absent, the ``@njit`` decorator degrades to a no-op and
  every function here stays plain Python.  The fallback is not dead
  weight: the equivalence suite executes these exact code paths
  interpreted, so the compiled and uncompiled forms are one logic and
  CI's numba leg only changes how fast it runs.

Palette-plane growth cannot happen inside the compiled round (the round
mutates state in place, so there is no safe abort-and-replay).  Instead
the round is entered only with planes provably wide enough:
``_ensure_palette_width`` grows them up front from two cheap global
bounds — a ``lowest`` proposal index never exceeds ``popcount(taken)``
(at most twice the population's max popcount) and a ``random_window``
candidate never exceeds ``bit_length(taken)`` (at most the population's
max bit length).

The RNG-replay and bit-identity contract is inherited unchanged: the
scalar MT19937 helpers replay ``random.Random`` draw for draw (same
tempering, same ``_randbelow`` rejection loop) against the same state
rows :class:`repro.core.vecrng.VectorMT` derives.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.palette import (
    grow_planes,
    plane_words,
    planes_bit_length,
    planes_popcount,
)
from repro.core.vectorized import (
    _INVITE_WORDS,
    _REPLY_WORDS,
    _REPORT_WORDS,
    Alg1VecKernel,
    DiMa2EdVecKernel,
    PhaseRecord,
    _two_states,
    _two_transitions,
)

__all__ = ["numba_available", "Alg1KernelNumba", "DiMa2EdKernelNumba"]

_probe_result = None


def numba_available() -> bool:
    """True when numba imports *and* compiles a trivial kernel (cached)."""
    global _probe_result
    if _probe_result is None:
        try:
            from numba import njit as _njit

            _probe_result = bool(_njit(cache=False)(lambda x: x + 1)(1) == 2)
        except Exception:
            _probe_result = False
    return _probe_result


def _njit_or_identity(func):
    """``numba.njit`` when importable, the bare function otherwise."""
    try:
        from numba import njit as _njit
    except Exception:
        return func
    return _njit(cache=False)(func)


_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)


# -- scalar MT19937 (one stream, one draw) ---------------------------------
#
# Each helper operates on one row of the VectorMT state with its per-row
# cursor.  The interpreted forms work on numpy scalars; under numba the
# same source type-infers to native integers.


def _mt_next_word(state, mti, u):
    """One tempered 32-bit output from stream ``u``."""
    cur = mti[u]
    if cur >= 624:
        # Twist: regenerate the 624-word block in place.
        row = state[u]
        for i in range(624):
            y = (row[i] & np.uint32(0x80000000)) | (
                row[(i + 1) % 624] & np.uint32(0x7FFFFFFF)
            )
            nxt = row[(i + 397) % 624] ^ (y >> np.uint32(1))
            if y & np.uint32(1):
                nxt = nxt ^ np.uint32(0x9908B0DF)
            row[i] = nxt
        cur = 0
    y = int(state[u, cur])
    mti[u] = cur + 1
    y ^= y >> 11
    y = (y ^ ((y << 7) & 0x9D2C5680)) & 0xFFFFFFFF
    y = (y ^ ((y << 15) & 0xEFC60000)) & 0xFFFFFFFF
    return y ^ (y >> 18)


def _mt_random(state, mti, u):
    """``Random.random()`` for stream ``u`` (genrand_res53)."""
    a = _mt_next_word(state, mti, u) >> 5
    b = _mt_next_word(state, mti, u) >> 6
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def _mt_randbelow(state, mti, u, bound):
    """``Random._randbelow(bound)`` for stream ``u`` (bound >= 1)."""
    k = 0
    b = bound
    while b:
        k += 1
        b >>= 1
    shift = 32 - k
    r = _mt_next_word(state, mti, u) >> shift
    while r >= bound:
        r = _mt_next_word(state, mti, u) >> shift
    return r


def _alg1_round(
    state,  # uint32[n, 624] MT rows
    mti,  # int64[n] MT cursors
    indptr,  # int64[n + 1]
    indices,  # int64[m2]
    unc,  # int64[m2] flat uncolored partners
    unc_len,  # int64[n]
    used,  # uint64[n, k] palette planes (pre-grown, see module doc)
    is_inv,  # bool[n]
    inv_color,  # int64[n]
    audience,  # int64[n]
    deg,  # int64[n]
    live,  # int64[nl] ascending
    live_flag,  # bool[n]
    p_invite,
    lowest_color,  # else random_window
    lowest_responder,  # else random
    inv_s,  # int64[n] scratch: inviters
    inv_t,  # int64[n] scratch: their targets
    acc_s,  # int64[n] out: accepted inviters (ascending listener)
    acc_t,  # int64[n] out: accepting listeners
    acc_c,  # int64[n] out: accepted colors
    halted,  # int64[n] out: halted ids, sorted
    stats,  # int64[12] out: per-phase senders/delivered/discarded, ni, first, nh
):
    """One fused Algorithm 1 round over the whole live population.

    Returns ``(accept_count, halted_count, overflow)``; ``overflow`` is
    a defensive flag — nonzero would mean the pre-growth bound was
    violated (a bug, surfaced by the caller as a hard error).
    """
    n_live = live.shape[0]
    k = used.shape[1]
    # --- phase 0: choose -------------------------------------------------
    ni = 0
    sent_d = 0
    sent_x = 0
    for idx in range(n_live):
        u = live[idx]
        if _mt_random(state, mti, u) < p_invite:
            partner = unc[indptr[u] + _mt_randbelow(state, mti, u, unc_len[u])]
            color = -1
            if lowest_color:
                for w in range(k):
                    taken = used[u, w] | used[partner, w]
                    if taken != _FULL:
                        free = ~taken
                        b = 0
                        while not (free >> np.uint64(b)) & _ONE:
                            b += 1
                        color = (w << 6) + b
                        break
            else:
                # candidates = free bits of taken up to bit_length, so
                # count = bit_length + 1 - popcount; pick by rank.
                high = 0
                pop = 0
                for w in range(k):
                    taken = used[u, w] | used[partner, w]
                    t = taken
                    while t:
                        pop += 1
                        t = t & (t - _ONE)
                    if taken:
                        b = 63
                        while not (taken >> np.uint64(b)) & _ONE:
                            b -= 1
                        high = (w << 6) + b + 1
                rank = _mt_randbelow(state, mti, u, high + 1 - pop)
                seen = 0
                for w in range(k):
                    free = ~(used[u, w] | used[partner, w])
                    cnt = 0
                    f = free
                    while f:
                        cnt += 1
                        f = f & (f - _ONE)
                    if seen + cnt > rank:
                        want = rank - seen
                        b = 0
                        while True:
                            if (free >> np.uint64(b)) & _ONE:
                                if want == 0:
                                    break
                                want -= 1
                            b += 1
                        color = (w << 6) + b
                        break
                    seen += cnt
            if color < 0:
                return ni, 0, 1  # palette pre-growth bound violated
            is_inv[u] = True
            inv_color[u] = color
            inv_s[ni] = u
            inv_t[ni] = partner
            ni += 1
            sent_d += audience[u]
            sent_x += deg[u] - audience[u]
        else:
            is_inv[u] = False
    stats[0] = ni
    stats[1] = sent_d
    stats[2] = sent_x
    stats[3] = ni
    stats[4] = 1 if (n_live > 0 and is_inv[live[0]]) else 0

    # --- phase 1: respond ------------------------------------------------
    # Boxes grouped by target; the stable sort keeps each box in
    # ascending-inviter (inbox) order, targets visited ascending.
    na = 0
    sent_d = 0
    sent_x = 0
    if ni:
        order = np.argsort(inv_t[:ni], kind="mergesort")
        pos = 0
        while pos < ni:
            t = inv_t[order[pos]]
            stop = pos
            while stop < ni and inv_t[order[stop]] == t:
                stop += 1
            if not is_inv[t]:
                if lowest_responder:
                    best = inv_color[inv_s[order[pos]]]
                    for j in range(pos + 1, stop):
                        c = inv_color[inv_s[order[j]]]
                        if c < best:
                            best = c
                    kept = 0
                    for j in range(pos, stop):
                        if inv_color[inv_s[order[j]]] == best:
                            kept += 1
                    pick = _mt_randbelow(state, mti, t, kept)
                    s = -1
                    for j in range(pos, stop):
                        if inv_color[inv_s[order[j]]] == best:
                            if pick == 0:
                                s = inv_s[order[j]]
                                break
                            pick -= 1
                else:
                    s = inv_s[order[pos + _mt_randbelow(state, mti, t, stop - pos)]]
                c = inv_color[s]
                acc_s[na] = s
                acc_t[na] = t
                acc_c[na] = c
                used[t, c >> 6] |= _ONE << np.uint64(c & 63)
                na += 1
                sent_d += audience[t]
                sent_x += deg[t] - audience[t]
            pos = stop
    stats[5] = na
    stats[6] = sent_d
    stats[7] = sent_x

    # --- phase 2: update -------------------------------------------------
    sent_d = 0
    sent_x = 0
    for j in range(na):
        s = acc_s[j]
        t = acc_t[j]
        c = acc_c[j]
        used[s, c >> 6] |= _ONE << np.uint64(c & 63)
        # uncolored[t].remove(s) / uncolored[s].remove(t), in place.
        base = indptr[t]
        lt = unc_len[t]
        for q in range(lt):
            if unc[base + q] == s:
                for r in range(q, lt - 1):
                    unc[base + r] = unc[base + r + 1]
                break
        unc_len[t] = lt - 1
        base = indptr[s]
        ls = unc_len[s]
        for q in range(ls):
            if unc[base + q] == t:
                for r in range(q, ls - 1):
                    unc[base + r] = unc[base + r + 1]
                break
        unc_len[s] = ls - 1
        sent_d += audience[s] + audience[t]
        sent_x += deg[s] - audience[s] + deg[t] - audience[t]
    stats[8] = 2 * na
    stats[9] = sent_d
    stats[10] = sent_x

    # --- phase 3: exchange (halting) ------------------------------------
    nh = 0
    for j in range(na):
        if unc_len[acc_s[j]] == 0:
            halted[nh] = acc_s[j]
            nh += 1
        if unc_len[acc_t[j]] == 0:
            halted[nh] = acc_t[j]
            nh += 1
    if nh:
        halted_view = halted[:nh]
        halted_view.sort()
        for j in range(nh):
            u = halted_view[j]
            live_flag[u] = False
            is_inv[u] = False
            for q in range(indptr[u], indptr[u + 1]):
                audience[indices[q]] -= 1
    stats[11] = nh
    return na, nh, 0


def _dima2ed_round(
    state,  # uint32[n, 624] MT rows
    mti,  # int64[n] MT cursors
    indptr,  # int64[n + 1]
    indices,  # int64[m2]
    out,  # int64[m2] flat uncolored out-arc heads
    out_len,  # int64[n]
    inn,  # int64[m2] flat uncolored in-arc tails
    in_len,  # int64[n]
    forbidden,  # uint64[n, k] channel planes (pre-grown, see doc)
    adv,  # uint64[n, k]
    fresh_c,  # uint64[n, k] fresh-colored deltas
    fresh_r,  # uint64[n, k] fresh-removed deltas
    dirty,  # bool[n]
    fail_streak,  # int64[n]
    is_inv,  # bool[n]
    inv_color,  # int64[n]
    inv_target,  # int64[n]
    audience,  # int64[n]
    deg,  # int64[n]
    live,  # int64[nl] ascending
    live_flag,  # bool[n]
    p_invite,
    first_fit,  # else random_window
    inv_s,  # int64[n] scratch: this round's inviters, ascending
    box_s,  # int64[n] scratch: responder-directed invites
    rep_s,  # int64[n] scratch: this round's reporters, ascending
    acc_s,  # int64[n] out: accepted inviters
    acc_t,  # int64[n] out: accepting responders (ascending)
    acc_c,  # int64[n] out: accepted channels
    halted,  # int64[n] out: halted ids, sorted
    stats,  # int64[12] out: per-phase senders/delivered/discarded, ni, first, nh
):
    """One fused DiMa2Ed round over the whole live population.

    Returns ``(accept_count, halted_count, overflow)``; nonzero
    ``overflow`` means the palette pre-growth bound was violated (a
    bug, surfaced by the caller as a hard error).
    """
    n = dirty.shape[0]
    n_live = live.shape[0]
    k = forbidden.shape[1]
    # --- phase 0: choose -------------------------------------------------
    ni = 0
    sent_d = 0
    sent_x = 0
    for idx in range(n_live):
        u = live[idx]
        # Idle inviters: no uncolored outgoing arc -> no role coin.
        if out_len[u] > 0 and _mt_random(state, mti, u) < p_invite:
            partner = out[indptr[u] + _mt_randbelow(state, mti, u, out_len[u])]
            if first_fit:
                rank = 0
            else:
                past = fail_streak[u] - 3  # BACKOFF_GRACE
                if past < 0:
                    backoff = 0
                else:
                    if past > 6:
                        past = 6
                    backoff = 1 << past  # min(MAX_BACKOFF, 2**past)
                rank = _mt_randbelow(state, mti, u, 4 + backoff)  # BASE_WINDOW
            # rank-th free bit of forbidden[u] | adv[partner]; the
            # pre-growth bound guarantees it lands inside the planes.
            channel = -1
            seen = 0
            for w in range(k):
                free = ~(forbidden[u, w] | adv[partner, w])
                cnt = 0
                f = free
                while f:
                    cnt += 1
                    f = f & (f - _ONE)
                if seen + cnt > rank:
                    want = rank - seen
                    b = 0
                    while True:
                        if (free >> np.uint64(b)) & _ONE:
                            if want == 0:
                                break
                            want -= 1
                        b += 1
                    channel = (w << 6) + b
                    break
                seen += cnt
            if channel < 0:
                return ni, 0, 1  # palette pre-growth bound violated
            is_inv[u] = True
            inv_target[u] = partner
            inv_color[u] = channel
            inv_s[ni] = u
            ni += 1
            sent_d += audience[u]
            sent_x += deg[u] - audience[u]
        else:
            is_inv[u] = False
    stats[0] = ni
    stats[1] = sent_d
    stats[2] = sent_x
    stats[3] = ni
    stats[4] = 1 if (n_live > 0 and is_inv[live[0]]) else 0

    # --- phase 1: respond ------------------------------------------------
    # Boxes grouped by target; the stable sort keeps each box in
    # ascending-inviter (inbox) order.  Procedure 2-b's collision
    # filter: channels of overheard proposals (inviting neighbors
    # targeting someone else) are unusable this round.
    na = 0
    sent_d = 0
    sent_x = 0
    if ni:
        nr = 0
        for i in range(ni):
            s = inv_s[i]
            if not is_inv[inv_target[s]]:
                box_s[nr] = s
                nr += 1
        if nr:
            tbuf = np.empty(nr, np.int64)
            for i in range(nr):
                tbuf[i] = inv_target[box_s[i]]
            order = np.argsort(tbuf, kind="mergesort")
            bad = np.empty(k, np.uint64)
            pos = 0
            while pos < nr:
                t = tbuf[order[pos]]
                stop = pos
                while stop < nr and tbuf[order[stop]] == t:
                    stop += 1
                for w in range(k):
                    bad[w] = forbidden[t, w]
                for q in range(indptr[t], indptr[t + 1]):
                    v = indices[q]
                    if is_inv[v] and inv_target[v] != t:
                        c = inv_color[v]
                        bad[c >> 6] |= _ONE << np.uint64(c & 63)
                usable = 0
                for j in range(pos, stop):
                    c = inv_color[box_s[order[j]]]
                    if (bad[c >> 6] & (_ONE << np.uint64(c & 63))) == 0:
                        usable += 1
                if usable:
                    pick = _mt_randbelow(state, mti, t, usable)
                    for j in range(pos, stop):
                        s = box_s[order[j]]
                        c = inv_color[s]
                        w = c >> 6
                        bit = _ONE << np.uint64(c & 63)
                        if (bad[w] & bit) == 0:
                            if pick == 0:
                                acc_s[na] = s
                                acc_t[na] = t
                                acc_c[na] = c
                                # strike(t, c)
                                fresh_c[t, w] |= bit
                                if (forbidden[t, w] & bit) == 0:
                                    fresh_r[t, w] |= bit
                                forbidden[t, w] |= bit
                                dirty[t] = True
                                na += 1
                                sent_d += audience[t]
                                sent_x += deg[t] - audience[t]
                                break
                            pick -= 1
                pos = stop
    stats[5] = na
    stats[6] = sent_d
    stats[7] = sent_x

    # --- phase 2: update -------------------------------------------------
    for j in range(na):
        s = acc_s[j]
        t = acc_t[j]
        c = acc_c[j]
        # out[s].remove(t) / in[t].remove(s), in place.
        base = indptr[s]
        ls = out_len[s]
        for q in range(ls):
            if out[base + q] == t:
                for r in range(q, ls - 1):
                    out[base + r] = out[base + r + 1]
                break
        out_len[s] = ls - 1
        base = indptr[t]
        lt = in_len[t]
        for q in range(lt):
            if inn[base + q] == s:
                for r in range(q, lt - 1):
                    inn[base + r] = inn[base + r + 1]
                break
        in_len[t] = lt - 1
        # strike(s, c)
        w = c >> 6
        bit = _ONE << np.uint64(c & 63)
        fresh_c[s, w] |= bit
        if (forbidden[s, w] & bit) == 0:
            fresh_r[s, w] |= bit
        forbidden[s, w] |= bit
        dirty[s] = True
    nrep = 0
    sent_d = 0
    sent_x = 0
    for u in range(n):
        if dirty[u]:
            rep_s[nrep] = u
            nrep += 1
            dirty[u] = False
            sent_d += audience[u]
            sent_x += deg[u] - audience[u]
    stats[8] = nrep
    stats[9] = sent_d
    stats[10] = sent_x

    # --- phase 3: exchange ----------------------------------------------
    # The interpreted kernel snapshots the fresh planes at phase 2 and
    # consumes the snapshot here; fused, the same effect falls out of
    # ordering — advertise + zero every reporter's removed plane first,
    # strike neighbors from the (unzeroed) colored planes, then zero
    # those.  Strikes accumulate by pure OR, so the reporter visit
    # order is immaterial.
    for j in range(nrep):
        u = rep_s[j]
        for w in range(k):
            adv[u, w] |= fresh_r[u, w]
            fresh_r[u, w] = 0
    for j in range(nrep):
        u = rep_s[j]
        strikes = False
        for w in range(k):
            if fresh_c[u, w]:
                strikes = True
                break
        if strikes:
            for q in range(indptr[u], indptr[u + 1]):
                v = indices[q]
                if live_flag[v]:
                    touched = False
                    for w in range(k):
                        new = fresh_c[u, w] & ~forbidden[v, w]
                        if new:
                            forbidden[v, w] |= new
                            fresh_r[v, w] |= new
                            touched = True
                    if touched:
                        dirty[v] = True
    for j in range(nrep):
        u = rep_s[j]
        for w in range(k):
            fresh_c[u, w] = 0
    for i in range(ni):
        fail_streak[inv_s[i]] += 1
    for j in range(na):
        fail_streak[acc_s[j]] = 0
    nh = 0
    for j in range(na):
        s = acc_s[j]
        if out_len[s] == 0 and in_len[s] == 0:
            halted[nh] = s
            nh += 1
    for j in range(na):
        t = acc_t[j]
        if out_len[t] == 0 and in_len[t] == 0:
            halted[nh] = t
            nh += 1
    if nh:
        halted_view = halted[:nh]
        halted_view.sort()
        for j in range(nh):
            u = halted_view[j]
            live_flag[u] = False
            is_inv[u] = False
            dirty[u] = False  # a halted node never reports
            for q in range(indptr[u], indptr[u + 1]):
                audience[indices[q]] -= 1
    stats[11] = nh
    return na, nh, 0


_mt_next_word = _njit_or_identity(_mt_next_word)
_mt_random = _njit_or_identity(_mt_random)
_mt_randbelow = _njit_or_identity(_mt_randbelow)
_alg1_round = _njit_or_identity(_alg1_round)
_dima2ed_round = _njit_or_identity(_dima2ed_round)


class Alg1KernelNumba(Alg1VecKernel):
    """Algorithm 1 with the fused round compiled by numba.

    State layout, binding and the engine protocol are inherited from
    :class:`Alg1VecKernel`; only whole-round execution is replaced.
    Partial rounds (budget tails, mid-round resume) fall back to the
    inherited per-phase path — same arrays, same draws, so the two
    execution styles interleave freely within one run.

    The class also runs without numba installed (the round executes
    interpreted — same logic, none of the speed), which is how the
    equivalence suite pins these code paths on numba-free environments;
    :func:`repro.core.batched.select_backend` only routes here when
    :func:`numba_available`.
    """

    def bind_graph(self, indptr, indices, run_seed: int) -> List[int]:
        halted = super().bind_graph(indptr, indices, run_seed)
        n = self._n
        self._inv_s = np.zeros(n, dtype=np.int64)
        self._inv_t = np.zeros(n, dtype=np.int64)
        self._out_s = np.zeros(n, dtype=np.int64)
        self._out_t = np.zeros(n, dtype=np.int64)
        self._out_c = np.zeros(n, dtype=np.int64)
        self._out_h = np.zeros(n + 1, dtype=np.int64)
        self._stats = np.zeros(12, dtype=np.int64)
        return halted

    def _ensure_palette_width(self) -> None:
        """Grow ``used`` so this round's proposals provably fit.

        A ``lowest`` proposal index is at most ``popcount(taken)``
        (< 2x the max per-node popcount + 1); a ``random_window``
        candidate is at most ``bit_length(taken)`` (<= the max per-node
        bit length, + 1 for the index->width conversion).
        """
        used = self._used
        max_pop = int(planes_popcount(used).max())
        max_bl = int(planes_bit_length(used).max())
        need = plane_words(max(2 * max_pop + 1, max_bl + 2))
        if need > used.shape[1]:
            self._used = grow_planes(used, need)

    def step_round(
        self, superstep: int, collect: bool, phases: int = 4
    ) -> List[PhaseRecord]:
        if phases < 4 or (superstep & 3):
            return super().step_round(superstep, collect, phases)
        self._ensure_palette_width()
        live = self._live
        nl = int(live.size)
        mt = self._mt
        stats = self._stats
        na, nh, overflow = _alg1_round(
            mt.state,
            mt.mti,
            self._indptr,
            self._indices,
            self._unc,
            self._unc_len,
            self._used,
            self._is_inv,
            self._inv_color,
            self._audience,
            self._deg,
            live,
            self._live_flag,
            self.p_invite,
            self.color_strategy == "lowest",
            self.responder_strategy == "lowest_color",
            self._inv_s,
            self._inv_t,
            self._out_s,
            self._out_t,
            self._out_c,
            self._out_h,
            stats,
        )
        if overflow:
            raise RuntimeError(
                "palette plane pre-growth bound violated (kernel bug)"
            )
        acc_s = self._out_s[:na]
        acc_t = self._out_t[:na]
        acc_c = self._out_c[:na]
        if na:
            # Copies: the out_* scratch buffers are reused next round.
            self._record_assignments(acc_s.copy(), acc_t.copy(), acc_c.copy())
        done0 = self._done
        self._done = done2 = done0 + 2 * na
        first_halts = bool(nh) and int(self._out_h[0]) == int(live[0])
        # The compiled round retired halted nodes in the flag/audience
        # arrays; refresh the live list from the flags.
        self._live = live[self._live_flag[live]]

        ni = int(stats[3])
        first = bool(stats[4])
        h0 = t0 = h1 = t1 = h2 = t2 = h3 = t3 = None
        if collect:
            h0 = _two_states(first, "W", ni, "L", nl - ni)
            t0 = [("C", state, count) for state, count in h0]
            h1 = _two_states(first, "W", ni, "U", nl - ni)
            t1 = _two_transitions(first, ("W", "W", ni), ("L", "U", nl - ni))
            h2 = [("E", nl)]
            t2 = _two_transitions(first, ("W", "E", ni), ("U", "E", nl - ni))
            h3 = _two_states(first_halts, "D", nh, "C", nl - nh)
            t3 = [("E", state, count) for state, count in h3]
        s = stats
        return [
            (nl, int(s[0]), int(s[1]), int(s[2]), _INVITE_WORDS, h0, t0, done0),
            (nl, int(s[5]), int(s[6]), int(s[7]), _REPLY_WORDS, h1, t1, done0 + na),
            (nl, int(s[8]), int(s[9]), int(s[10]), _REPORT_WORDS, h2, t2, done2),
            (nl, 0, 0, 0, 0, h3, t3, done2),
        ]


class DiMa2EdKernelNumba(DiMa2EdVecKernel):
    """DiMa2Ed with the fused round compiled by numba.

    State layout, binding and the engine protocol are inherited from
    :class:`DiMa2EdVecKernel`; only whole-round execution is replaced.
    Partial rounds (budget tails, mid-round resume) fall back to the
    inherited per-phase path — same arrays, same draws, so the two
    execution styles interleave freely within one run.

    Like :class:`Alg1KernelNumba`, the class runs without numba
    installed (the round executes interpreted), which is how the
    equivalence suite pins these code paths on numba-free environments.
    """

    def bind_graph(self, indptr, indices, run_seed: int) -> List[int]:
        halted = super().bind_graph(indptr, indices, run_seed)
        n = self._n
        self._inv_s = np.zeros(n, dtype=np.int64)
        self._box_s = np.zeros(n, dtype=np.int64)
        self._rep_s = np.zeros(n, dtype=np.int64)
        self._out_s = np.zeros(n, dtype=np.int64)
        self._out_t = np.zeros(n, dtype=np.int64)
        self._out_c = np.zeros(n, dtype=np.int64)
        self._out_h = np.zeros(n + 1, dtype=np.int64)
        self._stats = np.zeros(12, dtype=np.int64)
        return halted

    def _ensure_palette_width(self) -> None:
        """Grow the channel planes so this round's proposals provably fit.

        A proposal is the ``rank``-th free bit of
        ``forbidden[u] | adv[partner]``, so its index is at most the
        mask's popcount plus the rank bound
        (``BASE_WINDOW + MAX_BACKOFF - 1``; first-fit is rank 0).
        """
        max_pop = int(planes_popcount(self._forbidden).max()) + int(
            planes_popcount(self._adv).max()
        )
        need = plane_words(max_pop + self.BASE_WINDOW + self.MAX_BACKOFF + 1)
        if need > self._forbidden.shape[1]:
            self._grow_to(need)

    def step_round(
        self, superstep: int, collect: bool, phases: int = 4
    ) -> List[PhaseRecord]:
        if phases < 4 or (superstep & 3):
            return super().step_round(superstep, collect, phases)
        self._ensure_palette_width()
        live = self._live
        nl = int(live.size)
        mt = self._mt
        stats = self._stats
        na, nh, overflow = _dima2ed_round(
            mt.state,
            mt.mti,
            self._indptr,
            self._indices,
            self._out,
            self._out_len,
            self._in,
            self._in_len,
            self._forbidden,
            self._adv,
            self._fresh_colored,
            self._fresh_removed,
            self._dirty,
            self._fail_streak,
            self._is_inv,
            self._inv_color,
            self._inv_target,
            self._audience,
            self._deg,
            live,
            self._live_flag,
            self.p_invite,
            self.channel_strategy == "first_fit",
            self._inv_s,
            self._box_s,
            self._rep_s,
            self._out_s,
            self._out_t,
            self._out_c,
            self._out_h,
            stats,
        )
        if overflow:
            raise RuntimeError(
                "channel plane pre-growth bound violated (kernel bug)"
            )
        acc_s = self._out_s[:na]
        acc_t = self._out_t[:na]
        acc_c = self._out_c[:na]
        if na:
            # Copies: the out_* scratch buffers are reused next round.
            self._record_assignments(acc_s.copy(), acc_t.copy(), acc_c.copy())
        done0 = self._done
        self._done = done2 = done0 + 2 * na
        first_halts = bool(nh) and int(self._out_h[0]) == int(live[0])
        # The compiled round retired halted nodes in the flag/audience
        # arrays; refresh the live list from the flags.
        self._live = live[self._live_flag[live]]

        ni = int(stats[3])
        first = bool(stats[4])
        h0 = t0 = h1 = t1 = h2 = t2 = h3 = t3 = None
        if collect:
            h0 = _two_states(first, "W", ni, "L", nl - ni)
            t0 = [("C", state, count) for state, count in h0]
            h1 = _two_states(first, "W", ni, "U", nl - ni)
            t1 = _two_transitions(first, ("W", "W", ni), ("L", "U", nl - ni))
            h2 = [("E", nl)]
            t2 = _two_transitions(first, ("W", "E", ni), ("U", "E", nl - ni))
            h3 = _two_states(first_halts, "D", nh, "C", nl - nh)
            t3 = [("E", state, count) for state, count in h3]
        s = stats
        return [
            (nl, int(s[0]), int(s[1]), int(s[2]), _INVITE_WORDS, h0, t0, done0),
            (nl, int(s[5]), int(s[6]), int(s[7]), _REPLY_WORDS, h1, t1, done0 + na),
            (nl, int(s[8]), int(s[9]), int(s[10]), _REPORT_WORDS, h2, t2, done2),
            (nl, 0, 0, 0, 0, h3, t3, done2),
        ]
