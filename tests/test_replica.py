"""The array replicas of numpy's stream seeding and sampling.

``rng.seeded_states`` must give the seeded PCG64 state of ``rng.substream``,
and ``rng.state_words`` on it that substream's raw words; ``meta.stream_batches`` the
indices of ``meta.draw_batches`` on that substream; sorted, its draw on the
one pool ``np.arange(n)`` is the sorted ``choice`` that draws a round's
active set and compression rows.  A run's channel is ``sample_channel`` on
a generator set to the seeded state.  All of them replay numpy's algorithms on arrays,
so a numpy whose seeding or sampling differs fails here first; at run time
``meta.replicas_hold`` then sends every draw through numpy.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import channel, meta, rng

from oracles import sample_active_set

# master seeds at the edges of substream's 64-bit mask and of one entropy word
SEEDS = st.one_of(st.sampled_from([0, -1, -2**63, 2**32 - 1, 2**32, 2**63 - 1]),
                  st.integers(-2**63, 2**63 - 1))
KEY_VALUES = st.one_of(st.integers(0, 40), st.integers(-2**63, 2**63 - 1))


def contiguous_pools(sizes):
    """Pools of ``sizes`` laid end to end, as batch_pools lays them."""
    edges = np.cumsum([0] + list(sizes))
    return tuple(np.arange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def replay(master_seed, keys, pools, batch_size, steps):
    """The replay alone, before any key is redrawn: (indices, void rows)."""
    return meta._replay(rng.seeded_states(master_seed, keys), pools, batch_size, steps)


def stream_batches(master_seed, keys, pools, batch_size, steps):
    """``meta.stream_batches`` on the seeded states of ``keys``."""
    return meta.stream_batches(master_seed, keys, rng.seeded_states(master_seed, keys), pools,
                               batch_size, steps)


def sorted_choices(master_seed, keys, states, n, m):
    """``np.sort(gen.choice(n, m, replace=False))`` on each key's substream,
    as a run draws it."""
    return np.sort(meta.stream_batches(master_seed, keys, states, (np.arange(n),), m,
                                       1)[:, 0, 0], axis=1)


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
        got = rng.state_words(rng.seeded_states(master_seed, keys), n_words)
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
        assert stream_batches(master_seed, keys, pools, m, steps).tobytes() == want.tobytes()
        # the replay itself, not only its redraws, gives numpy's indices
        replayed, rejected = replay(master_seed, keys, pools, m, steps)
        assert replayed[~rejected].tobytes() == want[~rejected].tobytes()

    @pytest.mark.parametrize("key", [(rng.LOCAL_BATCH, 65021, 6), (rng.LOCAL_BATCH, 101250, 6),
                                     (rng.LOCAL_BATCH, 117334, 5)])
    def test_rejected_keys_are_flagged_and_redrawn(self, key):
        """These substreams of the convergence config hit a Lemire rejection:
        the replay marks them void, and stream_batches still gives numpy's
        indices."""
        pools, keys = contiguous_pools([75, 37, 38]), np.array([key])
        want = literal(0, keys, pools, 16, 5)
        replayed, rejected = replay(0, keys, pools, 16, 5)
        assert rejected.tolist() == [True]
        assert replayed.tobytes() != want.tobytes()
        assert stream_batches(0, keys, pools, 16, 5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [200, 201])
    def test_large_pool_at_the_tail_shuffle_switch(self, m):
        """numpy samples a pool over 10,000 points by tail shuffle once
        m_B > n // 50 (201 here); below that it keeps Floyd's sample."""
        pools, keys = contiguous_pools([10_001]), np.array([[rng.LOCAL_BATCH, 0, 1]])
        got = stream_batches(3, keys, pools, m, 1)
        assert got.tobytes() == literal(3, keys, pools, m, 1).tobytes()


class TestRoundStreams:
    """The per-round streams of a run: ACTIVE_SET and COMPRESSION by the
    sorted-choice replay, CHANNEL by numpy's own draws from the seeded state."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(SEEDS, st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.integers(1, 10))
    @example(0, (9, 9), 4)       # full participation: the sort undoes the shuffle
    @example(-7, (9, 1), 3)      # rn == 1: one draw, no shuffle
    @example(2**40, (20, 20), 3)  # M == d
    @example(2**63 - 1, (20, 1), 3)  # M == 1
    @example(2**32, (1, 1), 2)   # n == 1: nothing is drawn
    def test_active_sets_and_compression_rows(self, master_seed, sizes, n_rounds):
        n, m = sizes
        for tag in (rng.ACTIVE_SET, rng.COMPRESSION):
            keys = np.array([[tag, t] for t in range(n_rounds)])
            gens = [rng.substream(master_seed, *key) for key in keys.tolist()]
            if tag == rng.ACTIVE_SET:
                want = [sample_active_set(n, m / n, gen) for gen in gens]
            else:
                want = [np.sort(gen.choice(n, size=m, replace=False)) for gen in gens]
            states = rng.seeded_states(master_seed, keys)
            got = sorted_choices(master_seed, keys, states, n, m)
            assert got.tobytes() == np.array(want).tobytes()
            # the replay itself, not only its redraws
            replayed, void = meta._replay(states, (np.arange(n),), m, 1)
            sorted_rows = np.sort(replayed.reshape(n_rounds, m), axis=1)
            assert sorted_rows[~void].tobytes() == got[~void].tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(SEEDS, st.integers(1, 9), st.integers(1, 8), st.sampled_from(channel.FADING_MODELS))
    @example(0, 9, 8, "rayleigh")
    @example(-1, 1, 1, "unit")
    def test_channel_from_seeded_state(self, master_seed, n_active, m_uses, fading):
        keys = np.array([[rng.CHANNEL, t] for t in range(5)])
        gen = np.random.Generator(np.random.PCG64(0))
        active = np.arange(n_active)
        for key, state in zip(keys.tolist(), rng.seeded_states(master_seed, keys)):
            gen.bit_generator.state = state
            got = channel.sample_channel(active, fading, 0.3, m_uses, gen)
            want = channel.sample_channel(active, fading, 0.3, m_uses,
                                          rng.substream(master_seed, *key))
            assert got.gains.tobytes() == want.gains.tobytes()
            assert got.noise.tobytes() == want.noise.tobytes()

    def test_tail_shuffle_choice_is_drawn_by_numpy(self):
        keys = np.array([[rng.ACTIVE_SET, 0], [rng.ACTIVE_SET, 1]])
        got = sorted_choices(4, keys, rng.seeded_states(4, keys), 10_001, 201)
        want = [np.sort(rng.substream(4, *key).choice(10_001, 201, replace=False))
                for key in keys.tolist()]
        assert got.tobytes() == np.array(want).tobytes()

