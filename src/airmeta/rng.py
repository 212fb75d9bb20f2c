"""Deterministic RNG stream derivation.

Every stochastic component of a run draws from its own child stream keyed
by (master_seed, purpose tag, round, device, ...).  Streams are independent
of scheduling order, so serial and parallel executions of the same round
produce identical results.

``seeded_states`` gives the seeded PCG64 states of many substreams at once,
and ``state_words`` their raw output.  The seeding replays numpy's
SeedSequence mixing and PCG64 seeding on arrays, as both stand in numpy
2.4.6, the version the outputs and tests are pinned to.
``meta.replicas_hold`` checks the replay against numpy once per process,
and ``tests/test_replica.py`` compares it with ``substream`` over many
keys.
"""
from __future__ import annotations

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


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator for (master_seed, *key).  Same key, same stream."""
    entropy = [int(master_seed) & _MASK64] + [int(k) & _MASK64 for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def seeded_states(master_seed, keys) -> list[dict]:
    """PCG64 state of ``substream(master_seed, *keys[k])`` right after
    seeding, for each row k of a (K, L) integer array ``keys``: the dict
    that ``bit_generator.state`` takes.  ``master_seed`` is one seed for
    every row or a sequence of K seeds, one per row."""
    keys = np.asarray(keys)
    values = np.empty((keys.shape[0], 1 + keys.shape[1]), dtype=np.uint64)
    values[:, 0] = [int(s) & _MASK64 for s in row_seeds(master_seed, keys.shape[0])]
    # int64 -> uint64 keeps the bits, which is the 64-bit mask of substream
    values[:, 1:] = keys.astype(np.int64).view(np.uint64) if keys.dtype.kind == "i" else keys
    states = [None] * keys.shape[0]
    # a value is one entropy word below 2**32 and two (low, high) from there
    # on; rows with the same layout of words are mixed together
    wide = values > np.uint64(_MASK32)
    layouts, group = np.unique(wide, axis=0, return_inverse=True)
    for g, layout in enumerate(layouts):
        rows = np.flatnonzero(group.reshape(-1) == g)
        words = []
        for col, two in zip(values[rows].T, layout):
            words.append((col & np.uint64(_MASK32)).astype(np.uint32))
            if two:
                words.append((col >> np.uint64(32)).astype(np.uint32))
        pool = _mix_entropy(words, rows.size)
        # SeedSequence.generate_state(4, np.uint64), as 8 uint32 words, low word first
        consts = _hash_consts(_INIT_B, _MULT_B)
        state = [_hashmix(pool[i % _POOL_SIZE], consts) for i in range(2 * _POOL_SIZE)]
        for row, s in zip(rows.tolist(), zip(*(w.tolist() for w in state))):
            # PCG64 seeding: state 0, one LCG step, add the seed, one more step
            init = (s[0] | s[1] << 32) << 64 | s[2] | s[3] << 32
            inc = (((s[4] | s[5] << 32) << 64 | s[6] | s[7] << 32) << 1 | 1) & _MASK128
            states[row] = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                           "state": {"state": ((inc + init) * _PCG64_MULT + inc) & _MASK128,
                                     "inc": inc}}
    return states


def row_seeds(master_seed, n: int) -> np.ndarray:
    """The master seed of each of n key rows, as Python ints: ``master_seed``
    repeated, or the sequence of n seeds it is."""
    return np.broadcast_to(np.array(master_seed, dtype=object), (n,))


def state_words(states, n_words: int) -> np.ndarray:
    """(K, n_words) uint64: row k is the first ``n_words`` raw outputs of a
    PCG64 in ``states[k]``."""
    out = np.empty((len(states), n_words), dtype=np.uint64)
    bits = np.random.PCG64(0)
    for k, state in enumerate(states):
        bits.state = state
        out[k] = bits.random_raw(n_words)
    return out


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
