"""The array replicas of numpy's stream seeding and sampling.

``rng.seeded_states`` must give the seeded PCG64 state of ``rng.substream``,
and ``rng.state_words`` on it that substream's raw words; ``rng.stream_batches`` the
indices of ``rng.draw_batches`` on that substream; sorted, its draw on the
one pool ``np.arange(n)`` is the sorted ``choice`` that draws a round's
active set and compression rows.  ``state_words`` computes streams of up
to ``rng._ARRAY_WORDS`` words on arrays and longer ones through numpy; both
must be ``random_raw`` at every length up to one past that threshold, also
on states whose outputs rotate by 0 and by 63 bits.  Replayed in row
chunks of any size, the batch replay is the same.  A run's channel is
the draw of ``oracles.sample_channel`` on a generator set to the seeded
state, drawn as a block's normals that ``channel_draws`` makes into gains
and noise.  All of
them replay numpy's algorithms on arrays, so a numpy whose seeding or
sampling differs fails here first; at run time ``rng.replicas_hold`` then
sends every draw through numpy.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import channel, rng

from oracles import sample_active_set, sample_channel

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
    return rng._replay(rng.seeded_states(master_seed, keys), pools, batch_size, steps)


def stream_batches(master_seed, keys, pools, batch_size, steps):
    """``rng.stream_batches`` on the seeded states of ``keys``."""
    return rng.stream_batches(master_seed, keys, rng.seeded_states(master_seed, keys), pools,
                              batch_size, steps)


def sorted_choices(master_seed, keys, states, n, m):
    """``np.sort(gen.choice(n, m, replace=False))`` on each key's substream,
    as a run draws it."""
    return np.sort(rng.stream_batches(master_seed, keys, states, (np.arange(n),), m,
                                      1)[:, 0, 0], axis=1)


def literal(master_seed, keys, pools, batch_size, steps):
    return np.stack([rng.draw_batches(rng.substream(master_seed, *key), pools, batch_size,
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
    # mixed entropy layouts in one call, with a seed per row: seeds below 2**32
    # beside seeds at or above it, a negative key column, and a key column at
    # or above 2**32 in some rows only
    @example([2**32 - 1, 2**32, 7, -1, 0],
             [[rng.LOCAL_BATCH, 0, -3], [rng.LOCAL_BATCH, 2**32, 5], [rng.CHANNEL, 1, 2**40],
              [rng.LOCAL_BATCH, 3, 0], [rng.LOCAL_BATCH, 2**32 - 1, -2**63]], 3)
    # one layout in rows 0, 2 and 4, which other layouts separate
    @example([5, 2**40, 5, -2**63, 5], [[1, 2], [1, 2], [1, 2], [2**33, 2], [1, 2]], 2)
    @example([2**32, 0], [[-1], [2**32]], 1)
    def test_matches_substream_raw_words(self, master_seed, keys, n_words):
        """``master_seed`` is one seed or a list of one per key row."""
        keys = np.array(keys, dtype=np.int64)
        seeds = master_seed if isinstance(master_seed, list) else [master_seed] * len(keys)
        want = np.array([rng.substream(seed, *key).bit_generator.random_raw(n_words)
                         for seed, key in zip(seeds, keys.tolist())],
                        dtype=np.uint64).reshape(len(keys), n_words)
        got = rng.state_words(rng.seeded_states(master_seed, keys), n_words)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()


def raw_words(states, n_words):
    """numpy's ``random_raw`` from each row of the PCG64 ``states``."""
    bits = np.random.PCG64(0)
    out = []
    for state in rng._state_dicts(states):
        bits.state = state
        out.append(bits.random_raw(n_words))
    return np.array(out, dtype=np.uint64).reshape(len(states), n_words)


def states_of(pairs):
    """PCG64 state rows of (state, inc) int pairs, as ``seeded_states``
    lays them out."""
    mask = (1 << 64) - 1
    return np.array([[s >> 64, s & mask, inc >> 64, inc & mask] for s, inc in pairs],
                    dtype=np.uint64).reshape(len(pairs), 4)


def rotated_states(rotation, n):
    """n states whose first output rotates by ``rotation``: the LCG step
    taken back from a next state whose top six bits are ``rotation``."""
    mod, inverse = 1 << 128, pow(rng._PCG64_MULT, -1, 1 << 128)
    pairs = []
    for k in range(n):
        inc = (0x9E3779B97F4A7C15F39CC0605CEDC835 * (k + 1)) % mod | 1
        after = rotation << 122 | (0xD1B54A32D192ED03 * (k + 7) << 40) % (1 << 122)
        pairs.append(((after - inc) * inverse % mod, inc))
    return states_of(pairs)


class TestStateWords:
    """``rng.state_words`` on arrays, up to ``rng._ARRAY_WORDS`` words, and
    by numpy above."""

    @pytest.fixture(scope="class")
    def states(self):
        keys = np.array([[tag, t, i] for tag in (rng.ACTIVE_SET, rng.LOCAL_BATCH, rng.CHANNEL)
                         for t in (0, 1, 63, 2**32 + 5) for i in (0, 3, 2**40)])
        seeds = [0, -1, 2**63 - 1, 2**32] * (len(keys) // 4)
        return np.concatenate([rng.seeded_states(seeds, keys), rotated_states(0, 6),
                               rotated_states(63, 6),
                               states_of([(0, 1), ((1 << 128) - 1, (1 << 128) - 1)])])

    def test_rotations_reach_both_ends(self, states):
        """The first output of the crafted rows rotates by 0 and by 63."""
        steps = rng._lcg_steps(rng._PCG64_MULT, 1)
        hi, _ = rng._add128(*rng._mul128(states[:, 0], states[:, 1], *steps[0]),
                            *rng._mul128(states[:, 2], states[:, 3], *steps[1]))
        assert {0, 63} <= set((hi >> np.uint64(58)).tolist())

    @pytest.mark.parametrize("n_words", range(1, rng._ARRAY_WORDS + 2))
    def test_matches_random_raw(self, states, n_words):
        got = rng.state_words(states, n_words)
        assert got.dtype == np.uint64 and got.tobytes() == raw_words(states, n_words).tobytes()

    def test_replicas_hold_probes_the_array_words(self, monkeypatch):
        """Array words from a wrong LCG step fail the self-check, while the
        seeding stays right."""
        steps = rng._lcg_steps
        monkeypatch.setattr(rng, "_lcg_steps", lambda mult, n: steps(mult + 2, n))
        rng.replicas_hold.cache_clear()
        try:
            assert not rng.replicas_hold()
        finally:
            rng.replicas_hold.cache_clear()


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

    def test_rejections_in_a_block_of_the_sweep_shape(self):
        """The sweep's batch shape (5 steps, pools 75/37/38, m_B = 16) over a
        block of 60 keys that holds the rejection key (LOCAL_BATCH, 65021, 6):
        the replay voids exactly the rows whose numpy draw took more uint32s
        than the replay has slots, and gives numpy's indices on every other."""
        pools, m, steps = contiguous_pools([75, 37, 38]), 16, 5
        keys = np.array([[rng.LOCAL_BATCH, t, i] for t in range(65016, 65026)
                         for i in range(3, 9)])
        n_draws = int(np.sum(rng._draw_bounds(pools, m, steps) > 0))
        want, took_more = [], []
        for key in keys.tolist():
            gen = rng.substream(0, *key)
            want.append(rng.draw_batches(gen, pools, m, steps))
            # a draw without rejection takes n_draws uint32s: the low, then the
            # high half of each raw word
            ref = rng.substream(0, *key).bit_generator
            ref.random_raw((n_draws + 1) // 2)
            state = gen.bit_generator.state
            took_more.append((state["state"], state["has_uint32"])
                             != (ref.state["state"], n_draws % 2))
        want = np.stack(want)
        replayed, rejected = replay(0, keys, pools, m, steps)
        assert rejected.tolist() == took_more
        assert rejected[keys.tolist().index([rng.LOCAL_BATCH, 65021, 6])]
        assert 0 < rejected.sum() < len(keys) // 2
        assert replayed[~rejected].tobytes() == want[~rejected].tobytes()
        assert stream_batches(0, keys, pools, m, steps).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [
        (contiguous_pools([20, 9, 11]), 4, 2),     # 42 draws a row: 21-word array streams
        (contiguous_pools([75, 37, 38]), 16, 5),  # the convergence config: 233-word numpy streams
        (contiguous_pools([1, 1]), 1, 3),         # choice(1, 1): no bounded draw at all
    ], ids=["short", "long", "no_draw"])
    def test_row_chunks_move_no_draw(self, shape, monkeypatch):
        """The replay of 7 keys, one of them the rejection key (LOCAL_BATCH,
        65021, 6), in chunks of one row (a budget below one row's draws
        included), of 3 rows and of more rows than there are keys, is the
        replay of all rows in one chunk, void rows included, and numpy's
        indices on every row that is not void."""
        pools, m, steps = shape
        keys = np.array([[rng.LOCAL_BATCH, 65021, i] for i in range(7)])
        n_draws = int(np.sum(rng._draw_bounds(pools, m, steps) > 0))
        monkeypatch.setattr(rng, "_REPLAY_DRAWS", 10**9)
        want = replay(0, keys, pools, m, steps)
        literal_rows = literal(0, keys, pools, m, steps)
        assert want[0][~want[1]].tobytes() == literal_rows[~want[1]].tobytes()
        for budget in (1, n_draws, 3 * n_draws, (len(keys) + 5) * n_draws):
            monkeypatch.setattr(rng, "_REPLAY_DRAWS", budget)
            got = replay(0, keys, pools, m, steps)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], budget

    @pytest.mark.parametrize("m", [200, 201])
    def test_large_pool_at_the_tail_shuffle_switch(self, m):
        """numpy samples a pool over 10,000 points by tail shuffle once
        m_B > n // 50 (201 here); below that it keeps Floyd's sample."""
        pools, keys = contiguous_pools([10_001]), np.array([[rng.LOCAL_BATCH, 0, 1]])
        got = stream_batches(3, keys, pools, m, 1)
        assert got.tobytes() == literal(3, keys, pools, m, 1).tobytes()


class TestRoundStreams:
    """The per-round streams of a run: ACTIVE_SET and COMPRESSION by the
    sorted-choice replay, CHANNEL by numpy's own draws from the seeded state
    (``rng.stream_normals``)."""

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
            replayed, void = rng._replay(states, (np.arange(n),), m, 1)
            sorted_rows = np.sort(replayed.reshape(n_rounds, m), axis=1)
            assert sorted_rows[~void].tobytes() == got[~void].tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(SEEDS, st.integers(1, 9), st.integers(1, 8), st.sampled_from(channel.FADING_MODELS))
    @example(0, 9, 8, "rayleigh")
    @example(-1, 1, 1, "unit")
    def test_channel_from_seeded_state(self, master_seed, n_active, m_uses, fading):
        keys = np.array([[rng.CHANNEL, t] for t in range(5)])
        gen = np.random.Generator(np.random.PCG64(0))
        for key, state in zip(keys.tolist(),
                              rng._state_dicts(rng.seeded_states(master_seed, keys))):
            gen.bit_generator.state = state
            got = sample_channel(n_active, fading, 0.3, m_uses, gen)
            want = sample_channel(n_active, fading, 0.3, m_uses, rng.substream(master_seed, *key))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("fading", channel.FADING_MODELS)
    def test_channel_of_a_block_is_each_rounds_sample(self, fading):
        """A block's channel, as a run draws it: each round's normals from
        its seeded state, then the gains and noise of every round at once
        (``channel_draws``), bit for bit the draw of a ``standard_normal``
        call per part on the round's substream (``oracles.sample_channel``)."""
        n_active, m_uses, noise_var = 9, 8, 0.3
        keys = np.array([[rng.CHANNEL, t] for t in range(6)])
        gen = np.random.Generator(np.random.PCG64(0))
        z = np.empty((len(keys), channel.channel_normals(n_active, fading, m_uses)))
        for row, state in zip(z, rng._state_dicts(rng.seeded_states(7, keys))):
            gen.bit_generator.state = state
            gen.standard_normal(out=row)
        gains, noise = channel.channel_draws(z.reshape(2, 3, -1), n_active, fading, noise_var)
        want = [sample_channel(n_active, fading, noise_var, m_uses, rng.substream(7, *key))
                for key in keys.tolist()]
        assert gains.reshape(len(keys), -1).tobytes() == \
            np.array([g for g, _ in want]).tobytes()
        assert noise.reshape(len(keys), -1).tobytes() == \
            np.array([n for _, n in want]).tobytes()

    @pytest.mark.parametrize("replicas", [True, False], ids=["replicas", "numpy"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(SEEDS, st.lists(SEEDS, min_size=4, max_size=4)), st.integers(1, 60))
    @example([2**32 - 1, 2**32, -1, 0], 1)
    def test_stream_normals_are_each_substreams_draw(self, replicas, master_seed, n):
        """Row k of ``stream_normals`` is ``standard_normal(n)`` on the
        substream of key k, drawn from its seeded state while the replicas
        hold and through ``substream`` once ``replicas_hold`` fails."""
        keys = np.array([[rng.CHANNEL, 0], [rng.CHANNEL, 2**40], [rng.LOCAL_BATCH, 3],
                         [rng.CHANNEL, -5]])
        seeds = master_seed if isinstance(master_seed, list) else [master_seed] * len(keys)
        want = np.array([rng.substream(seed, *key).standard_normal(n)
                         for seed, key in zip(seeds, keys.tolist())])
        calls = []
        substream = rng.substream
        with mock.patch.object(rng, "substream",
                               lambda *key: calls.append(key) or substream(*key)):
            with mock.patch.object(rng, "replicas_hold", lambda: replicas):
                got = rng.stream_normals(master_seed, keys, rng.seeded_states(master_seed, keys),
                                         n)
        assert got.shape == (len(keys), n) and got.tobytes() == want.tobytes()
        assert len(calls) == (0 if replicas else len(keys))

    def test_tail_shuffle_choice_is_drawn_by_numpy(self):
        keys = np.array([[rng.ACTIVE_SET, 0], [rng.ACTIVE_SET, 1]])
        got = sorted_choices(4, keys, rng.seeded_states(4, keys), 10_001, 201)
        want = [np.sort(rng.substream(4, *key).choice(10_001, 201, replace=False))
                for key in keys.tolist()]
        assert got.tobytes() == np.array(want).tobytes()

