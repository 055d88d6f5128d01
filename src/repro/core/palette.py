"""Color bookkeeping for the coloring node programs.

The paper's palette is conceptually unbounded ("live" = every color not
yet consumed), so nodes never store the live set explicitly.  Instead a
:class:`ColorLedger` tracks the *consumed* colors — the node's own
``used`` list plus the per-neighbor ``dead`` knowledge learned in the
exchange phase — and answers the one query the algorithms make:

    the lowest-indexed color available for an edge to neighbor v
    (Algorithm 1 line 11: ``c ← (live_u \\ used_v)[1]``).

``first_free`` is a linear scan from 0; with at most 2Δ−1 colors ever in
play, the scan is O(Δ) worst case and usually a couple of probes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

import numpy as np

__all__ = [
    "first_free",
    "ColorLedger",
    "mask_of",
    "colors_of",
    "lowest_free_bit",
    "PLANE_WORD_BITS",
    "plane_words",
    "planes_of_masks",
    "masks_of_planes",
    "planes_lowest_free",
    "planes_select_free",
    "planes_popcount",
    "planes_bit_length",
    "grow_planes",
]


def first_free(*consumed: Iterable[int]) -> int:
    """The smallest color index absent from every set in ``consumed``."""
    taken = set()
    for s in consumed:
        taken.update(s)
    c = 0
    while c in taken:
        c += 1
    return c


# -- bitmask palettes ------------------------------------------------------
#
# A consumed-color set as an arbitrary-precision Python int: bit c set
# means color c is taken.  Union is ``|``, membership is ``mask >> c & 1``,
# and the paper's "lowest live color" query is a single arithmetic
# identity instead of a scan.  These scalar forms are the reference the
# plane operations below are tested against.


def mask_of(colors: Iterable[int]) -> int:
    """The bitmask with exactly the bits in ``colors`` set."""
    mask = 0
    for c in colors:
        mask |= 1 << c
    return mask


def colors_of(mask: int) -> List[int]:
    """The ascending color list encoded by ``mask``."""
    out = []
    c = 0
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return out


def lowest_free_bit(mask: int) -> int:
    """The smallest color index whose bit is clear in ``mask``.

    ``~mask & (mask + 1)`` isolates the lowest zero bit (all trailing
    ones carry out); its ``bit_length() - 1`` is that bit's index.
    Equivalent to ``first_free(colors_of(mask))`` in O(1)-ish bigint ops.
    """
    return (~mask & (mask + 1)).bit_length() - 1


# -- fixed-width palette planes --------------------------------------------
#
# The vectorized kernels (repro.core.vectorized) hold the same consumed-
# color masks for the whole population at once as a ``uint64[n, k]``
# plane array (k words of 64 colors each, little-endian: plane word j
# covers colors 64j .. 64j+63).  The operations below are the vectorized
# counterparts of the bigint helpers above — no Python loop over nodes —
# and the property suite pins them against the bigint forms word for
# word (``tests/property/test_palette_planes.py``).

PLANE_WORD_BITS = 64

_U64 = np.uint64
_FULL_WORD = _U64(0xFFFFFFFFFFFFFFFF)

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # numpy < 2.0: SWAR popcount on uint64

    def _popcount(x: np.ndarray) -> np.ndarray:
        x = x - ((x >> _U64(1)) & _U64(0x5555555555555555))
        x = (x & _U64(0x3333333333333333)) + ((x >> _U64(2)) & _U64(0x3333333333333333))
        x = (x + (x >> _U64(4))) & _U64(0x0F0F0F0F0F0F0F0F)
        return (x * _U64(0x0101010101010101)) >> _U64(56)


def plane_words(num_colors: int) -> int:
    """Plane words needed to hold colors ``0 .. num_colors - 1`` (min 1)."""
    return max(1, -(-num_colors // PLANE_WORD_BITS))


def planes_of_masks(masks: Sequence[int], words: int = 0) -> np.ndarray:
    """Bigint masks as a ``uint64[n, k]`` plane array (adapters/tests)."""
    need = max(
        (plane_words(m.bit_length()) for m in masks if m), default=1
    )
    k = max(words, need, 1)
    out = np.zeros((len(masks), k), dtype=_U64)
    for i, mask in enumerate(masks):
        j = 0
        while mask:
            out[i, j] = mask & 0xFFFFFFFFFFFFFFFF
            mask >>= PLANE_WORD_BITS
            j += 1
    return out


def masks_of_planes(planes: np.ndarray) -> List[int]:
    """The bigint mask encoded by each plane row (adapters/tests)."""
    out = []
    for row in planes.tolist():
        mask = 0
        for j, word in enumerate(row):
            mask |= word << (PLANE_WORD_BITS * j)
        out.append(mask)
    return out


def grow_planes(planes: np.ndarray, words: int) -> np.ndarray:
    """``planes`` widened with zero words to at least ``words`` columns."""
    n, k = planes.shape
    if words <= k:
        return planes
    wide = np.zeros((n, words), dtype=_U64)
    wide[:, :k] = planes
    return wide


def planes_lowest_free(planes: np.ndarray) -> np.ndarray:
    """Vectorized :func:`lowest_free_bit` per plane row.

    Returns ``int64[n]``; a saturated row (no clear bit within the
    planes' width) yields ``64 * k`` — the caller grows the planes and
    retries, mirroring the bigint form's unboundedness.
    """
    n, k = planes.shape
    free = planes ^ _FULL_WORD
    nonzero = free != 0
    word_idx = np.argmax(nonzero, axis=1)
    word = free[np.arange(n), word_idx]
    # Isolate the lowest set bit; popcount(low - 1) is its index.
    low = word & (~word + _U64(1))
    bit = _popcount(low - _U64(1)).astype(np.int64)
    out = word_idx.astype(np.int64) * PLANE_WORD_BITS + bit
    out[~nonzero.any(axis=1)] = k * PLANE_WORD_BITS
    return out


def planes_popcount(planes: np.ndarray) -> np.ndarray:
    """Set-bit count per plane row, as ``int64[n]``."""
    return _popcount(planes).sum(axis=1, dtype=np.int64)


def planes_bit_length(planes: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` of each plane row, as ``int64[n]``."""
    n, k = planes.shape
    nonzero = planes != 0
    # Highest nonzero word: argmax over the reversed column order.
    word_idx = (k - 1) - np.argmax(nonzero[:, ::-1], axis=1)
    word = planes[np.arange(n), word_idx]
    # bit_length of a word: smear the top bit down, then popcount.
    for shift in (1, 2, 4, 8, 16, 32):
        word = word | (word >> _U64(shift))
    bits = _popcount(word).astype(np.int64)
    out = word_idx.astype(np.int64) * PLANE_WORD_BITS + bits
    out[~nonzero.any(axis=1)] = 0
    return out


def planes_select_free(planes: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The ``ranks[i]``-th (0-based) *clear* bit of each plane row.

    The rank-select behind the random-window strategies: the candidate
    list ``[c for c in ... if not taken >> c & 1][r]`` without building
    it.  A rank beyond the row's in-plane free bits yields ``64 * k``
    (every bit past the planes is conceptually free; the caller grows
    the planes and reselects — the result is deterministic in the rank,
    so no RNG draw is repeated).
    """
    n, k = planes.shape
    free = planes ^ _FULL_WORD
    remaining = np.asarray(ranks, dtype=np.int64).copy()
    word_idx = np.zeros(n, dtype=np.int64)
    sel_word = np.zeros(n, dtype=_U64)
    done = np.zeros(n, dtype=bool)
    for j in range(k):
        count = _popcount(free[:, j]).astype(np.int64)
        here = ~done & (remaining < count)
        word_idx[here] = j
        sel_word[here] = free[here, j]
        done |= here
        remaining[~done] -= count[~done]
    # Rank-select within the chosen word: binary descent over halves.
    # ``remaining`` holds the within-word rank for every done row.
    rank = np.where(done, remaining, 0)
    word = sel_word
    pos = np.zeros(n, dtype=np.int64)
    for half in (32, 16, 8, 4, 2, 1):
        low = word & ((_U64(1) << _U64(half)) - _U64(1))
        count = _popcount(low).astype(np.int64)
        go_high = count <= rank
        rank = np.where(go_high, rank - count, rank)
        pos = pos + np.where(go_high, half, 0)
        word = np.where(go_high, word >> _U64(half), low)
    out = word_idx * PLANE_WORD_BITS + pos
    out[~done] = k * PLANE_WORD_BITS
    return out


class ColorLedger:
    """One node's view of color consumption.

    Attributes
    ----------
    used:
        Colors this node has assigned to its own edges (paper: ``used_u``).
    neighbor_used:
        Per-neighbor sets of colors the neighbor reported consuming
        (paper: ``dead_u``, keyed by neighbor).
    fresh:
        Colors consumed since the last exchange broadcast — the delta the
        node reports in the U phase and clears in E.
    """

    __slots__ = ("used", "neighbor_used", "fresh")

    def __init__(self, neighbors: Iterable[int]) -> None:
        self.used: Set[int] = set()
        self.neighbor_used: Dict[int, Set[int]] = {v: set() for v in neighbors}
        self.fresh: Set[int] = set()

    def propose_for(self, neighbor: int) -> int:
        """Lowest color unused by me and (to my knowledge) by ``neighbor``."""
        return first_free(self.used, self.neighbor_used[neighbor])

    def consume(self, color: int) -> None:
        """Record that one of my edges now carries ``color``."""
        self.used.add(color)
        self.fresh.add(color)

    def is_mine(self, color: int) -> bool:
        """True if I already assigned ``color`` to one of my edges."""
        return color in self.used

    def learn(self, neighbor: int, colors: Iterable[int]) -> None:
        """Integrate a neighbor's exchange report."""
        self.neighbor_used[neighbor].update(colors)

    def take_fresh(self) -> List[int]:
        """Return and clear the unreported delta (sorted for determinism)."""
        fresh = sorted(self.fresh)
        self.fresh.clear()
        return fresh

    def snapshot(self) -> FrozenSet[int]:
        """Immutable copy of my used set (for results/tests)."""
        return frozenset(self.used)
