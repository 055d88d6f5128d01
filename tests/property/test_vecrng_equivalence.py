"""Property tests: the vectorized RNG replay vs the stdlib, layer by layer.

:mod:`repro.core.vecrng` re-derives the per-node ``random.Random``
streams as whole-population numpy state.  Bit-exactness against the
stdlib is the module's contract (the vectorized kernels replay the same
draw sequence as the per-node engines), so every layer is pinned here
directly against its reference:

* ``child_seeds``          vs ``SeedSequence(seed).spawn(n)``
* ``mt_states_from_seeds`` vs ``random.Random(seed).getstate()``
* ``random_``/``randbelow``/``next_words`` vs the stdlib methods,
  including interleaved subset draws and pool-cycle crossings
* ``to_randoms``           round-trips a partially generated pool
* the word-major pool's in-place twist, through each of its paths
  (whole population, masked write, gathered subset) and over a
  memmapped pool, and its memory bounds at n=10⁵
* early chunk fills: streams reaching a chunk one at a time share one
  masked twist once a quarter of the population is ready for it
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

import repro.core.vecrng as vecrng
from repro.core.vecrng import VectorMT, child_seeds, mt_states_from_seeds
from repro.runtime.rng import spawn_node_rngs

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

run_seeds = st.integers(min_value=0, max_value=2**63 - 1)
small_n = st.integers(min_value=1, max_value=12)


class TestChildSeeds:
    @RELAXED
    @given(seed=run_seeds, n=small_n)
    def test_matches_seedsequence_spawn(self, seed, n):
        # spawn_node_rngs seeds each Random with generate_state(1)[0]
        # (default uint32 dtype) — pin against exactly that expression.
        want = [
            int(child.generate_state(1)[0])
            for child in SeedSequence(seed).spawn(n)
        ]
        assert child_seeds(seed, n).tolist() == want

    def test_negative_seed_rejected(self):
        try:
            child_seeds(-1, 2)
        except Exception:
            return
        raise AssertionError("negative run seed must raise, not approximate")


class TestMtStates:
    @RELAXED
    @given(seed=run_seeds, n=small_n)
    def test_matches_random_seed(self, seed, n):
        seeds = child_seeds(seed, n)
        states = mt_states_from_seeds(seeds)
        assert states.shape == (624, n)
        for i, s in enumerate(seeds.tolist()):
            _version, internal, _gauss = random.Random(s).getstate()
            assert states[:, i].tolist() == list(internal[:624])


class TestDraws:
    @RELAXED
    @given(seed=run_seeds, n=st.integers(min_value=2, max_value=8))
    def test_random_matches_stdlib(self, seed, n):
        vec = VectorMT.for_run(seed, n)
        refs = spawn_node_rngs(seed, n)
        ids = np.arange(n, dtype=np.int64)
        for _ in range(40):
            got = vec.random_(ids)
            want = [r.random() for r in refs]
            assert got.tolist() == want

    @RELAXED
    @given(
        seed=run_seeds,
        n=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    def test_interleaved_subset_draws(self, seed, n, data):
        """Different subsets drawing different primitives per step —
        the automaton's live-set pattern — must stay in lockstep with
        per-stream ``Random`` objects advanced the same way."""
        vec = VectorMT.for_run(seed, n)
        refs = spawn_node_rngs(seed, n)
        for step in range(25):
            subset = data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=n,
                ),
                label=f"subset{step}",
            )
            ids = np.array(sorted(subset), dtype=np.int64)
            kind = data.draw(
                st.sampled_from(["random", "randbelow", "words"]),
                label=f"kind{step}",
            )
            if kind == "random":
                got = vec.random_(ids).tolist()
                want = [refs[i].random() for i in ids.tolist()]
            elif kind == "randbelow":
                bounds = np.array(
                    [
                        data.draw(
                            st.integers(min_value=1, max_value=50),
                            label=f"bound{step}_{i}",
                        )
                        for i in range(len(ids))
                    ],
                    dtype=np.int64,
                )
                got = vec.randbelow(ids, bounds).tolist()
                want = [
                    refs[i]._randbelow(int(b))
                    for i, b in zip(ids.tolist(), bounds.tolist())
                ]
            else:
                got = vec.next_words(ids).tolist()
                want = [refs[i].getrandbits(32) for i in ids.tolist()]
            assert got == want, f"step {step} diverged ({kind})"

    def test_pool_cycle_crossing(self):
        """624 words per pool; 400 random() calls consume 800 words and
        cross the regeneration boundary, including the fused two-word
        read landing exactly on mti == 623."""
        vec = VectorMT.for_run(99, 3)
        refs = spawn_node_rngs(99, 3)
        ids = np.arange(3, dtype=np.int64)
        for _ in range(400):
            assert vec.random_(ids).tolist() == [r.random() for r in refs]

    @RELAXED
    @given(seed=run_seeds)
    def test_choice_entropy_source(self, seed):
        """randbelow is the entropy behind ``Random.choice`` — the call
        the matching automaton actually makes."""
        vec = VectorMT.for_run(seed, 4)
        refs = spawn_node_rngs(seed, 4)
        ids = np.arange(4, dtype=np.int64)
        items = list(range(7))
        for _ in range(30):
            got = vec.randbelow(ids, np.full(4, len(items), dtype=np.int64))
            want = [r.choice(items) for r in refs]
            assert [items[g] for g in got.tolist()] == want


class TestStateRoundTrip:
    @RELAXED
    @given(seed=run_seeds, draws=st.integers(min_value=0, max_value=100))
    def test_to_randoms_mid_stream(self, seed, draws):
        """Handing back ``Random`` objects mid-stream (with a partially
        generated lazy pool) must continue the exact sequence."""
        n = 3
        vec = VectorMT.for_run(seed, n)
        refs = spawn_node_rngs(seed, n)
        ids = np.arange(n, dtype=np.int64)
        for _ in range(draws):
            vec.random_(ids)
            for r in refs:
                r.random()
        handed = vec.to_randoms()
        for got, want in zip(handed, refs):
            assert [got.random() for _ in range(10)] == [
                want.random() for _ in range(10)
            ]

    @RELAXED
    @given(seed=run_seeds, draws=st.integers(min_value=0, max_value=60))
    def test_from_randoms_adopts_streams(self, seed, draws):
        refs = spawn_node_rngs(seed, 3)
        for r in refs:
            for _ in range(draws):
                r.random()
        shadow = spawn_node_rngs(seed, 3)
        for r in shadow:
            for _ in range(draws):
                r.random()
        vec = VectorMT.from_randoms(refs)
        ids = np.arange(3, dtype=np.int64)
        for _ in range(20):
            assert vec.random_(ids).tolist() == [r.random() for r in shadow]


#: Pool cycles are 624 words; 1300 words cross every chunk twice.
_TWO_CYCLES = 1300


def _spying(calls):
    """A ``_fill_chunk`` that logs each call as ``(level, number of
    streams)`` into ``calls``."""
    fill = VectorMT._fill_chunk

    def spy(self, sub, level):
        calls.append((level, sub.size))
        fill(self, sub, level)

    return spy


def _fills(vec, ids, draws):
    """Draw ``draws`` words for ``ids``; return each ``_fill_chunk``
    call as ``(level, number of streams)``."""
    calls = []
    with mock.patch.object(VectorMT, "_fill_chunk", _spying(calls)):
        words = [vec.next_words(ids).tolist() for _ in range(draws)]
    return words, calls


class TestWordMajorTwist:
    """The in-place twist against ``random.Random``, path by path: the
    whole population (plain write), a subset of a quarter or more
    (masked write) and a smaller one (gather), over every chunk of two
    pool cycles, with blocks from one word row up to a whole chunk."""

    N = 1000

    @pytest.mark.parametrize("twist_words", [vecrng._TWIST_WORDS, 64])
    @pytest.mark.parametrize(
        "size", [1000, 999, 10], ids=["whole", "masked", "gather"]
    )
    def test_paths_match_stdlib_across_two_cycles(self, size, twist_words):
        seed = 20260
        vec = VectorMT.for_run(seed, self.N)
        refs = spawn_node_rngs(seed, self.N)
        ids = np.sort(
            np.random.default_rng(size).choice(self.N, size, replace=False)
        )
        with mock.patch.object(vecrng, "_TWIST_WORDS", twist_words):
            got, calls = _fills(vec, ids, _TWO_CYCLES)
        want = [[refs[i].getrandbits(32) for i in ids.tolist()]
                for _ in range(_TWO_CYCLES)]
        assert got == want
        # Every chunk of both cycles regenerated once, for all of ids.
        assert calls == [(level, size) for level in (0, 1, 2)] * 2 + [(0, size)]
        # The streams left out kept their seeded pools untouched.
        rest = np.setdiff1d(np.arange(self.N), ids)
        assert np.array_equal(
            vec.words[:, rest], VectorMT.for_run(seed, self.N).words[:, rest]
        )

    def test_memmapped_pool(self, tmp_path):
        """A ``.npy`` memmap holds the pool as the sharded tier's shard
        files do; the twist writes through it in place."""
        seed, n = 77, 40
        path = tmp_path / "mt.npy"
        seeded = VectorMT.for_run(seed, n)
        np.save(path, seeded.words)
        words = np.load(path, mmap_mode="r+")
        vec = VectorMT(words, seeded.mti, seeded.filled)
        refs = spawn_node_rngs(seed, n)
        for ids in (np.arange(n), np.arange(1, n), np.array([3, 17])):
            got, _ = _fills(vec, ids, 700)
            assert got == [[refs[i].getrandbits(32) for i in ids.tolist()]
                           for _ in range(700)]
        assert vec.words is words
        assert np.array_equal(np.load(path), np.asarray(words))


class TestEarlyFills:
    """Streams advanced unevenly reach a chunk's start one at a time.
    Once a quarter of the population sits at a later chunk's start,
    the first of them to need it twists them all in one masked call;
    chunk 0, whose inputs are words still being read, is never widened."""

    N = 200
    DRAWS = 700

    def _run(self, vec, seed):
        refs = spawn_node_rngs(seed, self.N)
        ids = np.arange(self.N)
        calls, got, want = [], [], []
        with mock.patch.object(VectorMT, "_fill_chunk", _spying(calls)):
            # Draw k covers streams k.., so stream j leads stream j - 1
            # by one word from here on.
            for k in range(self.N):
                got.append(vec.next_words(ids[k:]).tolist())
                want.append([refs[i].getrandbits(32) for i in range(k, self.N)])
            for _ in range(self.DRAWS):
                got.append(vec.next_words(ids).tolist())
                want.append([r.getrandbits(32) for r in refs])
        assert got == want
        return calls

    def _check(self, calls):
        later = [(level, size) for level, size in calls if level]
        # Without early fills, each stream takes a call of its own.
        assert later[:2] == [(1, self.N), (2, self.N)]
        assert len(later) <= 3
        first = [size for level, size in calls if level == 0]
        assert first[0] == self.N and first[1:] == [1] * self.N

    def test_in_memory(self):
        seed = 31
        self._check(self._run(VectorMT.for_run(seed, self.N), seed))

    def test_memmapped_pool(self, tmp_path):
        seed = 32
        seeded = VectorMT.for_run(seed, self.N)
        np.save(tmp_path / "mt.npy", seeded.words)
        words = np.load(tmp_path / "mt.npy", mmap_mode="r+")
        vec = VectorMT(words, seeded.mti, seeded.filled)
        self._check(self._run(vec, seed))
        assert vec.words is words


class TestPoolMemory:
    """Peak traced allocations at n=10⁵, as multiples of the pool."""

    N = 100_000
    POOL = 624 * 4 * N

    def _peak(self, call) -> float:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - before) / self.POOL

    def test_seeding_allocates_one_pool(self):
        assert self._peak(lambda: VectorMT.for_run(5, self.N)) <= 1.05

    def test_first_whole_population_draw(self):
        vec = VectorMT.for_run(5, self.N)
        ids = np.arange(self.N)
        assert self._peak(lambda: vec.random_(ids)) <= 0.1

    def test_third_subset_across_chunks_one_and_two(self):
        vec = VectorMT.for_run(5, self.N)
        vec.random_(np.arange(self.N))
        third = np.arange(0, self.N, 3)

        def cross():
            for _ in range(230):  # words 2 .. 461
                vec.random_(third)

        assert self._peak(cross) <= 0.60
        assert set(vec.filled[third].tolist()) == {624}  # chunk 2 regenerated
