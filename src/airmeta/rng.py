"""Deterministic RNG stream derivation, and its replay on arrays.

Every stochastic component of a run draws from its own child stream keyed
by (master_seed, purpose tag, round, device, ...).  Streams are independent
of scheduling order, so serial and parallel executions of the same round
produce identical results.

``seeded_states`` replays numpy's SeedSequence mixing and PCG64 seeding of
many substreams at once, on arrays of uint64 halves, and ``state_words``
PCG64's LCG step and XSL-RR output on them.  ``stream_batches`` replays
``draw_batches``, numpy's ``choice`` (Floyd's sample, then a shuffle, on
Lemire's bounded draws), on those words; ``stream_normals`` sets one
generator to each seeded state.  The replicas follow numpy 2.4.6, the
version the outputs and tests are pinned to.  ``replicas_hold`` checks them
once per process and, when it fails, sends every draw through
``substream``; ``tests/test_replica.py`` compares them with numpy over
many keys.
"""
from __future__ import annotations

import functools

import numpy as np

# Purpose tags.  Keys must stay stable across versions or replay breaks.
DEVICE_TASK = 1
DEVICE_DATA = 2
LOCAL_BATCH = 3
ACTIVE_SET = 4
CHANNEL = 5
COMPRESSION = 6
EVALUATION = 8
TRIAL = 9

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence hash constants and its pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# streams of at most this many words are computed on arrays, longer ones by
# numpy one row at a time.  Measured, the array path takes 0.1-0.4 of
# numpy's time at 11 words, 0.6-0.8 at 48 and 0.6-1.3 at 64 over 60-768
# rows, and 1.3-5.7 times it at 233
_ARRAY_WORDS = 48
# numpy's choice(n, m, replace=False) takes a tail shuffle instead of Floyd's
# sample when n exceeds this and m > n // 50; the replay does not replay it
_FLOYD_MAX_POP = 10_000
# the (row, bounded draw) pairs that one chunk of rows replays at once;
# _replay_choice's temporaries take about 40 bytes a pair, so a chunk takes
# about 2.6 MB, where the 446 K pairs of one block of a 5-trial stack of the
# sweep base, replayed whole, take 18 MB
_REPLAY_DRAWS = 1 << 16


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator for (master_seed, *key).  Same key, same stream."""
    entropy = [int(master_seed) & _MASK64] + [int(k) & _MASK64 for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def seeded_states(master_seed, keys) -> np.ndarray:
    """(K, 4) uint64: the PCG64 state of ``substream(master_seed, *keys[k])``
    right after seeding, for each row k of a (K, L) integer array ``keys``,
    as the (high, low) halves of its 128-bit state and then of its
    increment.  ``master_seed`` is one seed for every row or a sequence of
    K seeds, one per row.  ``state_words``, ``stream_batches`` and
    ``stream_normals`` draw from these rows."""
    keys = np.asarray(keys)
    n_rows = keys.shape[0]
    values = np.empty((n_rows, 1 + keys.shape[1]), dtype=np.uint64)
    values[:, 0] = _row_seeds(master_seed, n_rows) & _MASK64
    # int64 -> uint64 keeps the bits, which is the 64-bit mask of substream
    values[:, 1:] = keys.astype(np.int64).view(np.uint64) if keys.dtype.kind == "i" else keys
    # a value is one entropy word below 2**32 and two (low, high) from there
    # on; rows with the same layout of words, coded as the bits of an
    # integer, are mixed together
    wide = values > np.uint64(_MASK32)
    codes = wide @ (1 << np.arange(values.shape[1], dtype=object))
    # SeedSequence.generate_state(4, np.uint64) of each row, as 8 uint32
    # words, low word first
    seeded = np.empty((2 * _POOL_SIZE, n_rows), dtype=np.uint64)
    for code in set(codes.tolist()):
        rows = np.flatnonzero(codes == code)
        words = []
        for col, two in zip(values[rows].T, wide[rows[0]].tolist()):
            words.append((col & np.uint64(_MASK32)).astype(np.uint32))
            if two:
                words.append((col >> np.uint64(32)).astype(np.uint32))
        pool = _mix_entropy(words, rows.size)
        consts = _hash_consts(_INIT_B, _MULT_B)
        for i in range(2 * _POOL_SIZE):
            seeded[i, rows] = _hashmix(pool[i % _POOL_SIZE], consts)
    # PCG64 seeding on (high, low) 64-bit halves: state 0, one LCG step, add
    # the seed, one more step, which is ((inc + init) MULT + inc) mod 2**128;
    # inc is the second half of the seed shifted up one bit, low bit set
    init_hi, init_lo, seq_hi, seq_lo = seeded[1::2] << np.uint64(32) | seeded[::2]
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    mult, _ = _lcg_steps(_PCG64_MULT, 1)  # the halves of MULT**1
    hi, lo = _add128(*_mul128(hi, lo, *mult), inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo], axis=1)


def _state_dicts(states: np.ndarray) -> list[dict]:
    """The dict that ``bit_generator.state`` takes, for each row of the
    PCG64 ``states`` (``seeded_states``)."""
    return [{"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
             "state": {"state": state, "inc": inc}}
            for state, inc in zip(_join128(states[:, 0], states[:, 1]),
                                  _join128(states[:, 2], states[:, 3]))]


def _seeded_generators(states: np.ndarray):
    """One generator, set in turn to each row of the PCG64 ``states``."""
    gen = np.random.Generator(np.random.PCG64(0))
    for state in _state_dicts(states):
        gen.bit_generator.state = state
        yield gen


def _join128(hi, lo) -> list:
    """The Python ints of the arrays of (high, low) uint64 halves."""
    return (hi.astype(object) << 64 | lo.astype(object)).tolist()


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2**128 on arrays of (high, low) uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(hi, lo, c_hi, c_lo):
    """(x c) mod 2**128 on arrays of the (high, low) uint64 halves of x and
    c.  The high half of the product of the low halves is taken from 32-bit
    halves."""
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    l0, l1, c0, c1 = lo & mask, lo >> shift, c_lo & mask, c_lo >> shift
    cross0, cross1 = l0 * c1, l1 * c0
    mid = (l0 * c0 >> shift) + (cross0 & mask) + (cross1 & mask)
    mulhi = l1 * c1 + (cross0 >> shift) + (cross1 >> shift) + (mid >> shift)
    return mulhi + lo * c_hi + hi * c_lo, lo * c_lo


def _row_seeds(master_seed, n: int) -> np.ndarray:
    """The master seed of each of n key rows, as Python ints: ``master_seed``
    repeated, or the sequence of n seeds it is."""
    return np.broadcast_to(np.array(master_seed, dtype=object), (n,))


def state_words(states: np.ndarray, n_words: int) -> np.ndarray:
    """(K, n_words) uint64: row k is the first ``n_words`` raw outputs of a
    PCG64 in the state ``states[k]`` (``seeded_states``).

    Each output steps the LCG ``s <- s MULT + inc (mod 2**128)`` and returns
    the XSL-RR of the new state, ``rotr64(high ^ low, high >> 58)``.  Up to
    ``_ARRAY_WORDS`` words every row's stream is computed at once from the
    closed form of i steps, ``s_i = MULT**i s + (MULT**(i-1) + ... + 1) inc``;
    a longer stream is numpy's ``random_raw``, one row at a time."""
    if n_words > _ARRAY_WORDS:
        out = np.empty((len(states), n_words), dtype=np.uint64)
        for k, gen in enumerate(_seeded_generators(states)):
            out[k] = gen.bit_generator.random_raw(n_words)
        return out
    mult, offset = _lcg_steps(_PCG64_MULT, n_words)
    s_hi, s_lo, inc_hi, inc_lo = (col[:, None] for col in states.T)
    hi, lo = _add128(*_mul128(s_hi, s_lo, *mult), *_mul128(inc_hi, inc_lo, *offset))
    xored, rot = hi ^ lo, hi >> np.uint64(58)
    return xored >> rot | xored << (np.uint64(64) - rot & np.uint64(63))


@functools.cache
def _lcg_steps(mult: int, n: int):
    """(2, n) uint64 arrays of the (high, low) halves of MULT**i and of
    MULT**(i-1) + ... + 1 mod 2**128, for i = 1 .. n: i LCG steps take s to
    the first times s plus the second times inc."""
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(n):
        power, total = power * mult & _MASK128, (total * mult + 1) & _MASK128
        powers.append(power)
        sums.append(total)
    steps = tuple(np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]],
                           dtype=np.uint64).reshape(2, n) for values in (powers, sums))
    for halves in steps:
        halves.flags.writeable = False  # shared by every caller
    return steps


def _hash_consts(const: int, mult: int):
    """SeedSequence's running hash constant: (before, after) each multiply."""
    while True:
        after = const * mult & _MASK32
        yield np.uint32(const), np.uint32(after)
        const = after


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    before, after = next(consts)
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return result ^ (result >> np.uint32(16))


def _mix_entropy(words: list, n: int) -> list:
    """SeedSequence's entropy pool from the uint32 entropy ``words``, each
    an (n,) array, for all n rows at once."""
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(words[i] if i < len(words) else np.zeros(n, dtype=np.uint32), consts)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    return pool


def trial_seed(master_seed: int, trial: int) -> int:
    """Integer master seed for one trial of a multi-trial experiment."""
    return int(substream(master_seed, TRIAL, trial).integers(0, 2**63 - 1))


def draw_batches(gen: np.random.Generator, pools, batch_size: int, steps: int) -> np.ndarray:
    """(steps, len(pools), batch_size) batch indices drawn from ``gen``: per
    step, one batch of each pool without replacement, in pool order."""
    # offset + choice(pool.size) draws what choice(pool) draws, and leaves the
    # generator in the same state, without indexing the pool
    return np.array([[pool[0] + gen.choice(pool.size, size=batch_size, replace=False)
                      for pool in pools] for _ in range(steps)],
                    dtype=np.int64).reshape(steps, len(pools), batch_size)


def stream_batches(master_seed, keys, states, pools, batch_size: int,
                   steps: int) -> np.ndarray:
    """(K, steps, len(pools), batch_size): row k is ``draw_batches`` on
    ``substream(master_seed, *keys[k])``, whose seeded PCG64 state is
    ``states[k]`` (``seeded_states``), for a (K, L) integer array
    ``keys`` and one master seed or a sequence of K, one per row.

    All rows come from one replay of numpy's draws.  A key the replay
    cannot give (see ``_replay``) is redrawn by ``draw_batches`` on its
    substream.  On the one pool ``np.arange(n)`` with one step, row k,
    sorted, is ``np.sort(gen.choice(n, m, replace=False))``: how a round's
    active set and compression rows are drawn.
    """
    keys = np.asarray(keys)
    idx, redraw = _replay(states, pools, batch_size, steps)
    seeds = _row_seeds(master_seed, keys.shape[0])
    for k in np.flatnonzero(redraw):
        idx[k] = draw_batches(substream(seeds[k], *keys[k].tolist()), pools, batch_size, steps)
    return idx


def stream_normals(master_seed, keys, states, n: int) -> np.ndarray:
    """(K, n): row k is ``substream(master_seed, *keys[k]).standard_normal(n)``
    for the ``keys``, seeds and ``states`` of ``stream_batches``, drawn from
    its seeded state while the replicas hold."""
    seeds = _row_seeds(master_seed, len(keys))
    gens = _seeded_generators(states) if replicas_hold() else (
        substream(seed, *key) for seed, key in zip(seeds, keys.tolist()))
    out = np.empty((len(keys), n))
    for row, gen in zip(out, gens):
        gen.standard_normal(out=row)
    return out


@functools.cache
def replicas_hold() -> bool:
    """Whether this numpy seeds and samples as the replicas replay it: the
    raw words of one probe substream, short enough for ``state_words``
    to compute them on arrays, and one ``choice`` on a second.
    Checked once per process; when it fails, every draw is made through
    numpy, slower but the same."""
    seed, n, m = 2**63 - 1, 20, 8
    keys = np.array([[LOCAL_BATCH, 7, 2**40], [COMPRESSION, 8, 1]])
    words = state_words(seeded_states(seed, keys), m)
    idx, void = _replay_choice(words[1:], (np.arange(n),), m, 1)
    gens = [substream(seed, *key) for key in keys.tolist()]
    return (words[0].tolist() == gens[0].bit_generator.random_raw(m).tolist()
            and not void[0]
            and idx.reshape(-1).tolist() == gens[1].choice(n, size=m, replace=False).tolist())


def _replay(states, pools, m: int, steps: int):
    """``_replay_choice`` on the raw words of the PCG64 ``states``, computed
    chunk of rows by chunk of rows, with every row void where the replay
    does not hold: numpy samples a pool over 10,000 points by tail shuffle
    once m > n // 50, and a numpy whose seeding or sampling differs fails
    ``replicas_hold``."""
    idx = np.empty((len(states), steps, len(pools), m), dtype=np.int64)
    void = np.ones(len(states), dtype=bool)
    if replicas_hold() and all(pool.size <= _FLOYD_MAX_POP or m <= pool.size // 50
                               for pool in pools):
        n_draws = int(np.sum(_draw_bounds(pools, m, steps) > 0))
        # rows are replayed in chunks of at most _REPLAY_DRAWS draws, and at
        # least one row; a stream may take no bounded draw at all
        rows = max(1, _REPLAY_DRAWS // max(n_draws, 1))
        for lo in range(0, len(states), rows):
            chunk = slice(lo, lo + rows)
            idx[chunk], void[chunk] = _replay_choice(
                state_words(states[chunk], (n_draws + 1) // 2), pools, m, steps)
    return idx, void


def _draw_bounds(pools, m: int, steps: int) -> np.ndarray:
    """The bound of every draw slot of ``choice(pool.size, m, replace=False)``
    per step and pool, in stream order: (steps, pools, 2m - 1), Floyd's
    sample and then the shuffle."""
    floyd = np.array([pool.size for pool in pools])[:, None] - m + np.arange(m)
    shuffle = np.broadcast_to(np.arange(m - 1, 0, -1), (len(pools), m - 1))
    return np.tile(np.concatenate([floyd, shuffle], axis=1), (steps, 1, 1))


def _replay_choice(words: np.ndarray, pools, m: int, steps: int):
    """``pool[0] + choice(pool.size, m, replace=False)`` per step and pool,
    in that order, replayed on each row of the raw words ``words`` (K, W),
    and the (K,) mask of rows whose replay is void by a Lemire rejection.

    ``choice(n, m, replace=False)`` runs Floyd's sample, a bounded draw in
    [0, j] for j = n-m .. n-1 that keeps a repeated value's j instead, then
    shuffles with a draw in [0, i] for i = m-1 .. 1.  A bound of 0 takes no
    draw.  Each bounded draw takes one uint32 u, and each raw word gives two,
    low half first: the value is (u (b+1)) >> 32, unless the low 32 bits of
    u (b+1) fall below 2**32 mod (b+1), where numpy rejects u and draws again.
    """
    n_keys = words.shape[0]
    offsets = np.array([pool[0] for pool in pools], dtype=np.int64)
    bounds = _draw_bounds(pools, m, steps)
    floyd = bounds[0, :, :m, None]
    drawn = bounds > 0
    span = bounds[drawn].astype(np.uint64)[:, None] + np.uint64(1)
    # the uint32 draws lead and the keys trail: (draws, K); a little-endian
    # word is its low half first
    u = np.ascontiguousarray(words.astype("<u8", copy=False).view("<u4")[:, :span.size].T)
    scaled = u * span
    rejected = np.any((scaled & np.uint64(_MASK32)) < (np.uint64(1 << 32) % span), axis=0)
    # the values by draw slot, then step, pool and key: (2m - 1, steps, pools, K)
    shape = (2 * m - 1, steps, len(pools))
    slots = np.arange(drawn.size).reshape(shape).transpose(1, 2, 0)[drawn]
    vals = np.zeros((drawn.size, n_keys), dtype=np.int64)
    vals[slots] = scaled >> np.uint64(32)
    vals = vals.reshape(shape + (n_keys,))
    idx = np.empty((m,) + vals.shape[1:], dtype=np.int64)
    for s in range(m):
        seen = np.any(idx[:s] == vals[s], axis=0)
        idx[s] = np.where(seen, floyd[:, s], vals[s])
    # the shuffle, on one column per (step, pool, key) of the (m, R) batches
    batches = idx.reshape(m, -1)
    flat, cols = batches.reshape(-1), np.arange(batches.shape[1])
    for s, i in enumerate(range(m - 1, 0, -1)):
        at = vals[m + s].reshape(-1) * batches.shape[1] + cols
        swap = flat[at]
        flat[at] = batches[i]
        batches[i] = swap
    out = np.empty((n_keys, steps, len(pools), m), dtype=np.int64)
    np.add(idx.swapaxes(0, 3), offsets[:, None], out=out)
    return out, rejected
