"""Deterministic RNG stream derivation.

Every stochastic component of a run draws from its own child stream keyed
by (master_seed, purpose tag, round, device, ...).  Streams are independent
of scheduling order, so serial and parallel executions of the same round
produce identical results.

``seeded_states`` gives the seeded PCG64 states of many substreams at once,
as arrays of uint64 halves, and ``state_words`` their raw output.  The
seeding replays numpy's SeedSequence mixing and PCG64 seeding on arrays,
and the words of a short stream PCG64's LCG step and XSL-RR output, as
all three stand in numpy 2.4.6, the version the outputs and tests are
pinned to.
``meta.replicas_hold`` checks the replay against numpy once per process,
and ``tests/test_replica.py`` compares it with ``substream`` over many
keys.
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


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator for (master_seed, *key).  Same key, same stream."""
    entropy = [int(master_seed) & _MASK64] + [int(k) & _MASK64 for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def seeded_states(master_seed, keys) -> np.ndarray:
    """(K, 4) uint64: the PCG64 state of ``substream(master_seed, *keys[k])``
    right after seeding, for each row k of a (K, L) integer array ``keys``,
    as the (high, low) halves of its 128-bit state and then of its
    increment.  ``master_seed`` is one seed for every row or a sequence of
    K seeds, one per row.  ``state_words`` draws from these rows, and
    ``state_dicts`` gives the dicts that ``bit_generator.state`` takes."""
    keys = np.asarray(keys)
    n_rows = keys.shape[0]
    values = np.empty((n_rows, 1 + keys.shape[1]), dtype=np.uint64)
    values[:, 0] = row_seeds(master_seed, n_rows) & _MASK64
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


def state_dicts(states: np.ndarray) -> list[dict]:
    """The dict that ``bit_generator.state`` takes, for each row of the
    PCG64 ``states`` (``seeded_states``)."""
    return [{"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
             "state": {"state": state, "inc": inc}}
            for state, inc in zip(_join128(states[:, 0], states[:, 1]),
                                  _join128(states[:, 2], states[:, 3]))]


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


def row_seeds(master_seed, n: int) -> np.ndarray:
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
        bits = np.random.PCG64(0)
        for k, state in enumerate(state_dicts(states)):
            bits.state = state
            out[k] = bits.random_raw(n_words)
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
