"""Deterministic RNG stream derivation.

Every stochastic component of a run draws from its own child stream keyed
by (master_seed, purpose tag, round, device, ...).  Streams are independent
of scheduling order, so serial and parallel executions of the same round
produce identical results.
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
SPARSIFIER = 7
EVALUATION = 8
TRIAL = 9


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator for (master_seed, *key).  Same key, same stream."""
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def trial_seed(master_seed: int, trial: int) -> int:
    """Integer master seed for one trial of a multi-trial experiment."""
    return int(substream(master_seed, TRIAL, trial).integers(0, 2**63 - 1))
