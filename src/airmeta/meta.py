"""Per-device MAML computations: stochastic meta-gradients and local SGD rounds.

Every function works on a stack of devices with a leading device axis; one
device is a stack with one row.

The stochastic meta-gradient uses three mini-batches per step: one from the
training split for the adaptation gradient, and two from disjoint halves of
the validation split for the post-adaptation gradient and the Hessian
correction.  Disjoint pools are the strongest implementable form of the
independence the analysis assumes.

The batches are index arrays drawn before the steps run.  ``draw_batches``
draws them from a generator with numpy's ``choice``; ``stream_batches``
gives the same indices for many substreams at once, by replaying numpy's
sampling (Floyd's sample, then a shuffle, on Lemire's bounded draws) on
arrays; sorted, its draws on one pool are a round's active set and
compression rows.  The replica follows numpy 2.4.6, the version the
outputs and tests are pinned to.  ``replicas_hold`` checks it against
numpy once per process and, when it fails, sends every draw through numpy;
``tests/test_replica.py`` compares it with numpy over many keys.
"""
from __future__ import annotations

import functools

import numpy as np

from . import rng, tasks
from .tasks import Dataset


# numpy's choice(n, m, replace=False) takes a tail shuffle instead of Floyd's
# sample when n exceeds this and m > n // 50; the replay does not replay it
_FLOYD_MAX_POP = 10_000
_MASK32 = 0xFFFFFFFF
# the (row, bounded draw) pairs that one chunk of rows replays at once;
# _replay_choice's temporaries take about 40 bytes a pair, so a chunk takes
# about 2.6 MB, where the 446 K pairs of one block of a 5-trial stack of the
# sweep base, replayed whole, take 18 MB
_REPLAY_DRAWS = 1 << 16


def batch_pools(dataset: Dataset, batch_size: int):
    """Index pools for the three per-step mini-batches.

    The adaptation batch comes from the training split; the validation split
    is halved deterministically into pools for the post-adaptation gradient
    and the Hessian estimate, so the three draws never share a point.  Each
    pool is a contiguous index range, shared by every device of a stack.
    """
    m_tr, m_va = dataset.m_tr, dataset.m_va
    half = m_va // 2
    pools = (
        np.arange(m_tr),
        m_tr + np.arange(half),
        m_tr + half + np.arange(m_va - half),
    )
    for pool in pools:
        if pool.size < batch_size:
            raise ValueError(
                f"dataset too small for three disjoint batches of size {batch_size} "
                f"(m_tr={m_tr}, m_va={m_va})"
            )
    return pools


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
    ``rng.substream(master_seed, *keys[k])``, whose seeded PCG64 state is
    ``states[k]`` (``rng.seeded_states``), for a (K, L) integer array
    ``keys`` and one master seed or a sequence of K, one per row.

    All rows come from one replay of numpy's draws.  A key the replay
    cannot give (see ``_replay``) is redrawn by ``draw_batches`` on its
    substream.  On the one pool ``np.arange(n)`` with one step, row k,
    sorted, is ``np.sort(gen.choice(n, m, replace=False))``: how a round's
    active set and compression rows are drawn.
    """
    keys = np.asarray(keys)
    idx, redraw = _replay(states, pools, batch_size, steps)
    seeds = rng.row_seeds(master_seed, keys.shape[0])
    for k in np.flatnonzero(redraw):
        idx[k] = draw_batches(rng.substream(seeds[k], *keys[k].tolist()), pools,
                              batch_size, steps)
    return idx


@functools.cache
def replicas_hold() -> bool:
    """Whether this numpy seeds and samples as the replicas replay it: the
    raw words of one probe substream, short enough for ``rng.state_words``
    to compute them on arrays, and one ``choice`` on a second.
    Checked once per process; when it fails, every draw is made through
    numpy, slower but the same."""
    seed, n, m = 2**63 - 1, 20, 8
    keys = np.array([[rng.LOCAL_BATCH, 7, 2**40], [rng.COMPRESSION, 8, 1]])
    words = rng.state_words(rng.seeded_states(seed, keys), m)
    idx, void = _replay_choice(words[1:], (np.arange(n),), m, 1)
    gens = [rng.substream(seed, *key) for key in keys.tolist()]
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
                rng.state_words(states[chunk], (n_draws + 1) // 2), pools, m, steps)
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


def local_rounds(theta_start: np.ndarray, data: Dataset, idx: np.ndarray, alpha: float,
                 eta: float, devices: np.ndarray):
    """Run the local SGD steps of a stack of devices in lockstep.

    Row i runs device ``devices[i]`` of the stacked ``data`` from row i of
    the finite float ``theta_start`` (n, d), or every row from one (d,)
    start, at inner rate ``alpha`` >= 0; step q of row i uses the batches
    ``idx[q, i]`` of an index array (Q >= 1, n, 3, m_B >= 1).  Returns
    (deltas, iterates): deltas (n, d) holds theta_start - theta_end, the
    model differences the devices would report, and iterates (Q, n, d) the
    points the steps started from (used for empirical constant estimation).
    A device whose iterate leaves the finite range stops there, so it
    reports a non-finite delta; its iterates from that step on are NaN.

    Every step's batches are gathered at once; each step is
    ``meta_grad_estimate`` on its rows of them.
    """
    n, steps = len(devices), idx.shape[0]
    x, y = _gather(data, idx, devices)
    theta = np.empty((n, theta_start.shape[-1]))
    theta[:] = theta_start
    iterates = np.full((steps, n, theta_start.shape[-1]), np.nan)
    rows = np.arange(n)  # rows still running
    for step in range(steps):
        if step:
            ok = np.isfinite(theta[rows]).all(axis=1)
            if not ok.all():
                rows = rows[ok]
        if not rows.size:
            break
        # all rows run until one stops, and a slice of them is a view
        live = slice(None) if rows.size == n else rows
        iterates[step, live] = theta[live]
        theta[live] = theta[live] - eta * meta_grad_estimate(
            theta[live], x[step, live], y[step, live], alpha)
    return theta_start - theta, iterates


def _gather(data: Dataset, idx: np.ndarray, devices: np.ndarray):
    """The float points (..., n, 3, m_B, d) and the labels (..., n, 3, m_B)
    of the batch indices ``idx`` (..., n, 3, m_B), row i on device
    ``devices[i]``."""
    rows = devices[:, None, None]
    return np.asarray(data.x[rows, idx], dtype=float), data.y[rows, idx]


def meta_grad_estimate(thetas: np.ndarray, x: np.ndarray, y: np.ndarray,
                       alpha: float) -> np.ndarray:
    """Stochastic meta-gradients (I - alpha*H_hat) g_hat' of a stack of devices.

    Row i is taken at row i of the float ``thetas`` (n, d), on its
    adaptation, outer-gradient and Hessian batches ``x[i, k]``, ``y[i, k]``
    for k = 0, 1, 2, gathered (``_gather``) from the three pools of
    ``batch_pools``: g_hat' is its mini-batch gradient at the adapted point
    theta - alpha * g_hat(B), and H_hat its mini-batch Hessian at theta,
    X'X / m_B on the Hessian batch X, applied to g_hat' as X'(X g_hat') / m_B
    without forming it.  Assumes alpha >= 0 and nonempty batches.  The
    estimate is biased for curved losses; that is accepted, not corrected.
    """
    phi = thetas - alpha * tasks.batch_grad(thetas, x[:, 0], y[:, 0])
    g_outer = tasks.batch_grad(phi, x[:, 1], y[:, 1])
    x_h = x[:, 2]
    h_g = (x_h.swapaxes(-1, -2) @ (x_h @ g_outer[..., None]))[..., 0] / x_h.shape[-2]
    return g_outer - alpha * h_g
