"""The array replicas of numpy's stream seeding and batch sampling.

``rng.substream_words`` must give the raw words of ``rng.substream`` and
``meta.stream_batches`` the indices of ``meta.draw_batches`` on that
substream, for every key.  Both replay numpy's algorithms on arrays, so a
numpy whose seeding or sampling differs fails here first.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import meta, rng

# master seeds at the edges of substream's 64-bit mask and of one entropy word
SEEDS = st.one_of(st.sampled_from([0, -1, -2**63, 2**32 - 1, 2**32, 2**63 - 1]),
                  st.integers(-2**63, 2**63 - 1))
KEY_VALUES = st.one_of(st.integers(0, 40), st.integers(-2**63, 2**63 - 1))


def contiguous_pools(sizes):
    """Pools of ``sizes`` laid end to end, as batch_pools lays them."""
    edges = np.cumsum([0] + list(sizes))
    return tuple(np.arange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def literal(master_seed, keys, pools, batch_size, steps):
    return np.stack([meta.draw_batches(rng.substream(master_seed, *key), pools, batch_size,
                                       steps)
                     for key in keys.tolist()]).reshape(
        (keys.shape[0], steps, len(pools), batch_size))


class TestSubstreamWords:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(SEEDS, st.integers(0, 4).flatmap(
        lambda width: st.lists(st.lists(KEY_VALUES, min_size=width, max_size=width),
                               min_size=1, max_size=6)),
           st.integers(0, 9))
    @example(0, [[rng.LOCAL_BATCH, 0, 0]], 0)
    def test_matches_substream_raw_words(self, master_seed, keys, n_words):
        keys = np.array(keys, dtype=np.int64)
        want = np.array([rng.substream(master_seed, *key).bit_generator.random_raw(n_words)
                         for key in keys.tolist()], dtype=np.uint64).reshape(len(keys), n_words)
        got = rng.substream_words(master_seed, keys, n_words)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()


class TestStreamBatches:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(SEEDS, st.integers(1, 6).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(m, m + 40), min_size=1, max_size=3))),
           st.integers(1, 5), st.integers(1, 12))
    @example(0, (16, [16, 16, 16]), 2, 3)      # n == m_B: Floyd's first bound is 0
    @example(-5, (1, [1, 1, 1]), 3, 2)         # n == 1: nothing is drawn
    @example(2**40, (1, [7, 1, 30]), 5, 4)     # m_B == 1: no shuffle
    def test_matches_literal_draws(self, master_seed, sizes, steps, n_keys):
        m, pool_sizes = sizes
        pools = contiguous_pools(pool_sizes)
        keys = np.array([[rng.LOCAL_BATCH, t, t % 3] for t in range(n_keys)])
        want = literal(master_seed, keys, pools, m, steps)
        assert meta.stream_batches(master_seed, keys, pools, m, steps).tobytes() == want.tobytes()
        # the replay itself, not only its redraws, gives numpy's indices
        replayed, rejected = meta._replay_choice(master_seed, keys, pools, m, steps)
        assert replayed[~rejected].tobytes() == want[~rejected].tobytes()

    @pytest.mark.parametrize("key", [(rng.LOCAL_BATCH, 65021, 6), (rng.LOCAL_BATCH, 101250, 6),
                                     (rng.LOCAL_BATCH, 117334, 5)])
    def test_rejected_keys_are_flagged_and_redrawn(self, key):
        """These substreams of the convergence config hit a Lemire rejection:
        the replay marks them void, and stream_batches still gives numpy's
        indices."""
        pools, keys = contiguous_pools([75, 37, 38]), np.array([key])
        want = literal(0, keys, pools, 16, 5)
        replayed, rejected = meta._replay_choice(0, keys, pools, 16, 5)
        assert rejected.tolist() == [True]
        assert replayed.tobytes() != want.tobytes()
        assert meta.stream_batches(0, keys, pools, 16, 5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [200, 201])
    def test_large_pool_at_the_tail_shuffle_switch(self, m):
        """numpy samples a pool over 10,000 points by tail shuffle once
        m_B > n // 50 (201 here); below that it keeps Floyd's sample."""
        pools, keys = contiguous_pools([10_001]), np.array([[rng.LOCAL_BATCH, 0, 1]])
        got = meta.stream_batches(3, keys, pools, m, 1)
        assert got.tobytes() == literal(3, keys, pools, m, 1).tobytes()
