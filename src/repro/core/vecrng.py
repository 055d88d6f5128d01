"""Vectorized replay of the per-node RNG streams.

The per-node engines give every node a private ``random.Random`` seeded
from ``numpy.random.SeedSequence(run_seed).spawn(n)`` (see
:mod:`repro.runtime.rng`).  The vectorized kernels
(:mod:`repro.core.vectorized`) cannot afford one Python object per node
— constructing 10k ``Random`` instances alone costs ~0.3 s, and
``getstate()`` extraction is worse — so this module re-derives the
*identical* streams as whole-population numpy state:

* :func:`child_seeds` replays ``SeedSequence.spawn`` + one-word
  ``generate_state`` across all children at once.  The spawn-key mixing
  round is the only per-child part of the hash, so everything before it
  is computed once and the final round is a handful of uint32 ufunc ops.
* :func:`mt_states_from_seeds` replays CPython's ``random_seed`` (the
  MT19937 ``init_by_array`` path) across all nodes: the common
  ``init_genrand(19650218)`` base row is cached, and the two key-mixing
  sweeps run column-by-column over ``[n]``-wide arrays.
* :class:`VectorMT` then draws from all (or any subset of) streams per
  call — ``random_`` replays ``Random.random`` (genrand_res53) and
  ``randbelow`` replays ``Random._randbelow_with_getrandbits`` (the
  entropy source behind ``Random.choice``), including its rejection
  loop, word for word.

Bit-exactness against the stdlib is the contract, not an approximation:
``tests/property/test_vecrng_equivalence.py`` pins every layer against
``random.Random`` / ``SeedSequence`` directly.  Anything here that
cannot faithfully replicate an input (e.g. a negative run seed, which
``SeedSequence`` itself rejects) raises instead of approximating.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "child_seeds",
    "mt_states_from_seeds",
    "VectorMT",
]

_U32 = np.uint32

# SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

_M32 = 0xFFFFFFFF


def _int_to_uint32_words(value: int) -> List[int]:
    """``value`` as little-endian 32-bit words (SeedSequence coercion)."""
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    if value == 0:
        return [0]
    words = []
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _hash_scalar(value: int, hash_const: int) -> tuple:
    """One SeedSequence ``hashmix`` step; returns (hashed, new const)."""
    value = (value ^ hash_const) & _M32
    hash_const = (hash_const * _MULT_A) & _M32
    value = (value * hash_const) & _M32
    value ^= value >> _XSHIFT
    return value & _M32, hash_const


def _mix_scalar(x: int, y: int) -> int:
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
    result ^= result >> _XSHIFT
    return result & _M32


def child_seeds(run_seed: int, n: int) -> np.ndarray:
    """The ``n`` child seeds ``spawn_node_rngs(run_seed, n)`` would draw.

    Bit-equal to ``[c.generate_state(1)[0] for c in
    SeedSequence(run_seed).spawn(n)]`` as a ``uint32[n]`` array.  The
    common prefix of the entropy-pool mix (run-seed words, zero padding,
    full pairwise pool mixing) is scalar Python; only the final round —
    mixing each child's single spawn-key word into the four pool words —
    and the one-word ``generate_state`` are vectorized.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    # Assembled entropy = run-seed words, zero-padded to the pool size
    # when a spawn key follows (SeedSequence.get_assembled_entropy),
    # then the child's spawn-key word (always a single word: child
    # indices are < 2**32).
    entropy = _int_to_uint32_words(run_seed)
    if len(entropy) < _POOL_SIZE:
        entropy = entropy + [0] * (_POOL_SIZE - len(entropy))

    # mix_entropy over the common prefix, scalar.
    pool = [0] * _POOL_SIZE
    hash_const = _INIT_A
    for i in range(_POOL_SIZE):
        pool[i], hash_const = _hash_scalar(entropy[i], hash_const)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, hash_const = _hash_scalar(pool[i_src], hash_const)
                pool[i_dst] = _mix_scalar(pool[i_dst], hashed)
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            hashed, hash_const = _hash_scalar(entropy[i_src], hash_const)
            pool[i_dst] = _mix_scalar(pool[i_dst], hashed)

    # Final round, vectorized: every child mixes its spawn-key word into
    # each pool word, but generate_state(1) reads pool word 0 alone, and
    # that word is the first destination mixed.
    hashed = np.arange(n, dtype=_U32) ^ _U32(hash_const)  # pre-advance const
    hash_const = (hash_const * _MULT_A) & _M32
    hashed *= _U32(hash_const)
    hashed ^= hashed >> _U32(_XSHIFT)
    word = _U32((pool[0] * _MIX_MULT_L) & _M32) - hashed * _U32(_MIX_MULT_R)
    word ^= word >> _U32(_XSHIFT)

    # generate_state(1): one word off pool[0] with the INIT_B chain.
    hash_const = (_INIT_B * _MULT_B) & _M32
    state = (word ^ _U32(_INIT_B)) * _U32(hash_const)
    state ^= state >> _U32(_XSHIFT)
    return state.astype(np.uint64)


# -- MT19937 seeding -------------------------------------------------------

_MT_N = 624
_MT_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER_MASK = 0x80000000
_LOWER_MASK = 0x7FFFFFFF

_init_genrand_cache: dict = {}


def _init_genrand(s: int) -> np.ndarray:
    """MT19937 ``init_genrand`` — the common base row, cached (uint32)."""
    cached = _init_genrand_cache.get(s)
    if cached is not None:
        return cached
    mt = np.empty(_MT_N, dtype=_U32)
    mt[0] = s
    prev = s
    for i in range(1, _MT_N):
        prev = (1812433253 * (prev ^ (prev >> 30)) + i) & _M32
        mt[i] = prev
    _init_genrand_cache[s] = mt
    return mt


def mt_states_from_seeds(
    seeds: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """MT19937 state words for single-word integer seeds, vectorized.

    Column ``j`` is bit-equal to
    ``random.Random(int(seeds[j])).getstate()[1][:624]`` — CPython's
    ``random_seed`` feeds the seed's 32-bit words to ``init_by_array``,
    and every seed here is a single word (child seeds are uint32).
    Returns ``uint32[624, n]``, word-major like :class:`VectorMT`'s
    pool; pair with ``mti`` initialized to 624 so the first draw
    twists, exactly like a freshly seeded ``Random``.  With ``out`` (a
    ``uint32[624, n]`` block, such as a column slice of a memmapped
    pool) the words are written there and ``out`` is returned.

    The sweeps run in uint32 throughout — unsigned ufuncs wrap mod 2**32,
    which *is* the reference masking — so each step touches one
    contiguous row, with ``out=`` buffers so the ~1250 sequential steps
    allocate nothing.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n = len(seeds)
    mt = np.empty((_MT_N, n), dtype=_U32) if out is None else out
    mt[:] = _init_genrand(19650218)[:, None]
    key = seeds.astype(_U32)  # key[j] with keylen == 1 -> always key[0]
    tmp = np.empty(n, dtype=_U32)
    thirty = _U32(30)
    mult1 = _U32(1664525)
    mult2 = _U32(1566083941)

    def _step(i: int, mult: np.uint32, addend, prev: np.ndarray) -> np.ndarray:
        # mt[i] = (mt[i] ^ ((prev ^ (prev >> 30)) * mult)) + addend
        np.right_shift(prev, thirty, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, mult, out=tmp)
        np.bitwise_xor(mt[i], tmp, out=tmp)
        np.add(tmp, addend, out=mt[i])
        return mt[i]

    # Sweep 1: + key[0], for k = max(N, keylen) = 624 steps.
    prev = mt[0]
    i = 1
    for _ in range(_MT_N):
        prev = _step(i, mult1, key, prev)
        i += 1
        if i >= _MT_N:
            mt[0] = mt[_MT_N - 1]
            prev = mt[0]
            i = 1

    # Sweep 2: - i, for N - 1 steps.
    for _ in range(_MT_N - 1):
        prev = _step(i, mult2, _U32(-i & _M32), prev)
        i += 1
        if i >= _MT_N:
            mt[0] = mt[_MT_N - 1]
            prev = mt[0]
            i = 1

    mt[0] = _UPPER_MASK
    return mt


#: A pool cycle regenerates in three in-order chunks ``(start, stop,
#: lag)``.  The twist runs upward in place: new word i reads old words i
#: and i + 1 (not yet overwritten) and word i + lag, which is an old word
#: in the first chunk and an already regenerated one in the other two
#: (word 623 reads word 0, also regenerated, as its word i + 1).
_CHUNKS = ((0, 227, 397), (227, 454, -227), (454, 624, -227))

#: Words per temporary of one twist block (256 KiB), or one word row if
#: that is wider.  A block spans every processed column and as many word
#: rows as fit, up to a whole chunk: 288 columns or fewer twist a chunk
#: in one block.  Cache-sized blocks twisted faster than whole chunks at
#: every n measured, 200 to 10⁵.
_TWIST_WORDS = 1 << 16


def _blocks(start: int, stop: int, rows: int):
    """``(lo, hi, nxt)`` word-row blocks covering ``start .. stop - 1``;
    rows ``nxt ..`` hold each row's word i + 1.  Word 623's is word 0,
    so it gets a block of its own."""
    end = min(stop, _MT_N - 1)
    for lo in range(start, end, rows):
        yield lo, min(lo + rows, end), lo + 1
    if stop == _MT_N:
        yield _MT_N - 1, _MT_N, 0


class VectorMT:
    """All nodes' MT19937 streams as one word-major ``uint32[624, n]`` pool.

    Column ``j`` is stream ``j``'s pool.  Draws operate on an arbitrary
    subset of streams per call (``ids``): the lockstep automaton draws
    for every live node at the same point of its private stream, so one
    gather per draw replaces ``len(ids)`` Python-level ``Random`` method
    calls, and the gather reads a few word rows of the pool.

    Pool regeneration is lazy at *chunk* granularity: a run that draws
    ~150 words per stream (typical for the automaton — a handful per
    round) only ever materializes the first 227-word chunk of the next
    pool instead of all 624, and streams that halt early stop paying
    entirely.  ``filled`` tracks how much of the current pool cycle each
    stream has generated; words at ``mti < filled`` are valid, and a
    chunk's inputs are exactly the previous cycle's words still sitting
    above ``filled`` plus the already-final words below it.  So a later
    chunk may be generated early for any stream whose ``filled`` sits at
    its start, which ``_ensure`` does when such streams are a quarter of
    the population.
    """

    __slots__ = ("words", "mti", "filled")

    def __init__(
        self,
        words: np.ndarray,
        mti: np.ndarray,
        filled: np.ndarray | None = None,
    ) -> None:
        self.words = words
        self.mti = mti
        # A fully generated pool unless told otherwise (from_randoms,
        # for_run — the seeded state is itself a complete cycle).
        self.filled = (
            np.full(len(mti), _MT_N, dtype=np.int64) if filled is None else filled
        )

    def __setstate__(self, state) -> None:
        slots = dict(state[1])
        if "state" in slots:
            # Pickled before the word-major layout: a node-major pool.
            slots["words"] = np.ascontiguousarray(slots.pop("state").T)
        for name, value in slots.items():
            setattr(self, name, value)

    @classmethod
    def for_run(cls, run_seed: int, n: int) -> "VectorMT":
        """The streams ``spawn_node_rngs(run_seed, n)`` would hand out."""
        seeds = child_seeds(run_seed, n)
        words = mt_states_from_seeds(seeds)
        return cls(words, np.full(n, _MT_N, dtype=np.int64))

    @classmethod
    def from_randoms(cls, rngs: Sequence) -> "VectorMT":
        """Adopt existing ``random.Random`` streams (tests, adapters)."""
        n = len(rngs)
        words = np.empty((_MT_N, n), dtype=_U32)
        mti = np.empty(n, dtype=np.int64)
        for i, rng in enumerate(rngs):
            version, internal, _gauss = rng.getstate()
            words[:, i] = np.asarray(internal[:_MT_N], dtype=np.uint64).astype(_U32)
            mti[i] = internal[_MT_N]
        return cls(words, mti)

    def to_randoms(self) -> List:
        """Materialize equivalent ``random.Random`` objects (tests)."""
        import random as _random

        self._complete_pools()
        out = []
        for i in range(len(self.mti)):
            rng = _random.Random()
            words = tuple(int(w) for w in self.words[:, i]) + (int(self.mti[i]),)
            rng.setstate((3, words, None))
            out.append(rng)
        return out

    def _complete_pools(self) -> None:
        """Finish every partially generated pool (stdlib interop needs
        the full 624 words — ``Random`` reads its pool directly)."""
        ids = np.nonzero(self.filled < _MT_N)[0]
        while ids.size:
            f = self.filled[ids]
            for level, (start, _, _) in enumerate(_CHUNKS):
                sub = ids[f == start]
                if sub.size:
                    self._fill_chunk(sub, level)
            ids = ids[self.filled[ids] < _MT_N]

    def _fill_chunk(self, ids: np.ndarray, level: int) -> None:
        """Generate chunk ``level`` of the current pool cycle for the
        distinct streams ``ids`` (each with ``filled`` at the chunk's
        start), in place, one block of word rows at a time.

        A quarter of the population or more twists every column and
        keeps the old words of the columns not in ``ids`` through a
        mask; a smaller subset gathers its columns per block and
        scatters them back (the two cost the same near a quarter, at
        n from 2·10³ to 10⁵).  Either way a temporary holds one word
        row or :data:`_TWIST_WORDS` words, whichever is more.
        """
        words = self.words
        n = words.shape[1]
        start, stop, lag = _CHUNKS[level]
        upper, lower = _U32(_UPPER_MASK), _U32(_LOWER_MASK)
        one, mat = _U32(1), _U32(_MATRIX_A)
        gather = 4 * ids.size < n
        mask = None  # when some columns are left out: all ones under ids
        if gather:
            width = ids.size

            def rows_of(lo: int, hi: int) -> np.ndarray:
                return np.take(words[lo:hi], ids, axis=1)

        else:
            width = n
            if ids.size < n:
                mask = np.zeros(n, dtype=_U32)
                mask[ids] = _M32

            def rows_of(lo: int, hi: int) -> np.ndarray:
                return words[lo:hi]

        size = max(1, min(stop - start, _TWIST_WORDS // width))
        for lo, hi, nxt in _blocks(start, stop, size):
            y = rows_of(lo, hi) & upper
            y |= rows_of(nxt, nxt + hi - lo) & lower
            new = rows_of(lo + lag, hi + lag) ^ (y >> one)
            new ^= (y & one) * mat
            if gather:
                words[lo:hi, ids] = new
            elif mask is None:
                words[lo:hi] = new
            else:  # old ^ ((old ^ new) & mask): new words under the mask
                new ^= words[lo:hi]
                new &= mask
                words[lo:hi] ^= new
        self.filled[ids] = stop

    def _ensure(self, ids: np.ndarray, extra: int) -> None:
        """Make words ``mti .. mti+extra`` valid for every stream in
        ``ids`` (starting a new pool cycle for exhausted streams)."""
        mti, filled = self.mti, self.filled
        fresh = ids[mti[ids] >= _MT_N]
        if fresh.size:
            # mti can only reach 624 by reading word 623, so the old
            # pool is complete — safe to start the next cycle.
            filled[fresh] = 0
            mti[fresh] = 0
        need = ids[mti[ids] + extra >= filled[ids]]
        n = filled.size
        while need.size:
            f = filled[need]
            for level, (start, _, _) in enumerate(_CHUNKS):
                sub = need[f == start]
                if level and sub.size and 4 * sub.size < n:
                    # A stream whose ``filled`` sits at a later chunk's
                    # start has read none of its words, and the chunk's
                    # inputs no longer change, so twisting it early is
                    # bit-identical.  A quarter of the population or more
                    # takes one masked twist and spares their small fills.
                    ready = np.flatnonzero(filled == start)
                    if 4 * ready.size >= n:
                        sub = ready
                if sub.size:
                    self._fill_chunk(sub, level)
            need = need[mti[need] + extra >= filled[need]]

    @staticmethod
    def _temper(y: np.ndarray) -> np.ndarray:
        y = y ^ (y >> _U32(11))
        y = y ^ ((y << _U32(7)) & _U32(0x9D2C5680))
        y = y ^ ((y << _U32(15)) & _U32(0xEFC60000))
        return y ^ (y >> _U32(18))

    def next_words(self, ids: np.ndarray) -> np.ndarray:
        """One tempered 32-bit output from each stream in ``ids``."""
        self._ensure(ids, 0)
        cursors = self.mti[ids]
        y = self.words[cursors, ids]
        self.mti[ids] = cursors + 1
        return self._temper(y)

    def random_(self, ids: np.ndarray) -> np.ndarray:
        """``Random.random()`` for each stream in ``ids`` (genrand_res53)."""
        if np.any(self.mti[ids] == _MT_N - 1):
            # A row's second word crosses a pool boundary (rare — once
            # per 624 words): take the simple two-call path.
            a = self.next_words(ids) >> _U32(5)
            b = self.next_words(ids) >> _U32(6)
        else:
            self._ensure(ids, 1)
            cursors = self.mti[ids]
            a = self._temper(self.words[cursors, ids]) >> _U32(5)
            b = self._temper(self.words[cursors + 1, ids]) >> _U32(6)
            self.mti[ids] = cursors + 2
        return (
            a.astype(np.float64) * 67108864.0 + b.astype(np.float64)
        ) * (1.0 / 9007199254740992.0)

    def randbelow(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """``Random._randbelow(bound)`` for each stream in ``ids``.

        ``bounds`` must be >= 1 (as for a non-empty ``choice``).  Replays
        ``_randbelow_with_getrandbits``: draw ``bit_length(bound)`` bits
        (one 32-bit word right-shifted), rejecting until below bound.
        """
        bounds = np.asarray(bounds, dtype=np.uint32)
        # bit_length via float exponent: frexp returns the exponent e
        # with 2**(e-1) <= b < 2**e for b > 0, i.e. exactly bit_length.
        k = np.frexp(bounds.astype(np.float64))[1].astype(np.uint32)
        shift = _U32(32) - k
        r = self.next_words(ids) >> shift
        reject = r >= bounds
        while np.any(reject):
            where = np.nonzero(reject)[0]
            r[where] = self.next_words(ids[where]) >> shift[where]
            reject[where] = r[where] >= bounds[where]
        return r.astype(np.int64)
