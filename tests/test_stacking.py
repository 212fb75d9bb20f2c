"""Batching invariance of the stacked per-device stages.

A round runs every stage on a stack of devices with a leading device axis.
Row i of a stacked call must equal a one-row call on device i bit for bit,
whatever the dimension, device count, batch size, step count or sparsity,
and both must equal the one-device arithmetic written with vectors, so that
stacking never moves a trajectory.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import channel, meta, sparsify, tasks
from airmeta.rng import draw_batches

import oracles


def gens(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def batches(seed, n, pools, batch, steps):
    """(Q, n, 3, m_B) batch indices, device i's drawn from ``gens(seed, n)[i]``."""
    return np.stack([draw_batches(gen, pools, batch, steps)
                     for gen in gens(seed, n)], axis=1)


def same_rows(stacked, rows):
    """Row i of ``stacked`` has the bytes of ``rows[i]``."""
    return all(stacked[i].tobytes() == np.asarray(row).tobytes() for i, row in enumerate(rows))


# Per-device references: the one-device arithmetic each stacked stage must
# reproduce bit for bit, written with 1-D vectors (oracles.local_rounds is the
# one for the local steps).

def reference_top_k(x, k):
    keep = np.argsort(-np.abs(x), kind="stable")[:k]
    out = np.zeros_like(x)
    out[keep] = x[keep]
    return out


def device_stack(dim, n, batch, m_tr, m_va, data_seed, alpha, steps, eta, theta_scale, seed):
    """(datasets, inner rate, steps, batch size, outer rate, shared start,
    stream seed) of n devices."""
    gen = np.random.default_rng(data_seed)
    env = tasks.TaskEnvironment(dim=dim, center=np.ones(dim), task_spread=0.5,
                                label_noise_var=0.5)
    datasets = [tasks.sample_dataset(tasks.sample_device(env, gen), env, m_tr + m_va, m_tr,
                                     m_va, gen)
                for _ in range(n)]
    return datasets, alpha, steps, batch, eta, gen.standard_normal(dim) * theta_scale, seed


@st.composite
def device_stacks(draw):
    batch = draw(st.integers(1, 4))
    alpha, steps = draw(st.floats(0, 1.5)), draw(st.integers(1, 3))
    # far starts and large rates let some devices, not all, leave the finite range
    eta = draw(st.one_of(st.floats(0, 0.2), st.integers(0, 9).map(lambda e: 10.0**e)))
    return device_stack(
        dim=draw(st.integers(1, 8)), n=draw(st.integers(1, 5)), batch=batch,
        m_tr=batch + draw(st.integers(0, 3)),
        m_va=2 * batch + draw(st.integers(0, 3)),  # two disjoint validation pools
        data_seed=draw(st.integers(0, 2**32 - 1)), alpha=alpha, steps=steps, eta=eta,
        theta_scale=draw(st.sampled_from([1.0, 1e300])), seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def update_stacks(draw):
    dim, n = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rounded entries make top-k ties common; some rows are all zero
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    memory = np.round(gen.standard_normal((n, dim)), 1) * scale
    delta = np.round(gen.standard_normal((n, dim)), 1) * scale
    zero = gen.random(n) < 0.3
    delta[zero] = -memory[zero]
    return memory, delta, draw(st.integers(1, dim)), draw(st.integers(0, 2**32 - 1))


@st.composite
def estimate_stacks(draw):
    """(d, rows, prior powers, seed of the received blocks) of a stack of 1
    to 6 rounds that share a block length M: each round's M increasing DFT
    rows, which may hold row 0, row d/2 and conjugate pairs j, d - j, all of
    which leave a noiseless round rank-deficient."""
    dim = draw(st.integers(1, 10))
    m, n_rounds = draw(st.integers(1, dim)), draw(st.integers(1, 6))
    rows = [sorted(draw(st.lists(st.integers(0, dim - 1), min_size=m, max_size=m, unique=True)))
            for _ in range(n_rounds)]
    powers = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                           min_size=n_rounds, max_size=n_rounds))
    return dim, rows, powers, draw(st.integers(0, 2**32 - 1))


class TestStackedRowsEqualOneRowCalls:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(device_stacks())
    # devices 0 and 1 of 4 stop before their last step, devices 2 and 3 run on
    @example(device_stack(3, 4, 2, 2, 5, 0, 0.3, 3, 1e4, 1e300, 0))
    def test_local_rounds(self, case):
        datasets, alpha, steps, batch, eta, theta, seed = case
        data = tasks.stack_datasets(datasets)
        pools = meta.batch_pools(data, batch)
        idx = batches(seed, len(datasets), pools, batch, steps)
        with np.errstate(all="ignore"):
            deltas, iterates = meta.local_rounds(theta, data, idx, alpha, eta,
                                                 np.arange(len(datasets)))
            ones = [meta.local_rounds(theta, data.devices([i]), idx[:, [i]], alpha, eta,
                                      np.arange(1))
                    for i in range(len(datasets))]
        assert same_rows(deltas, [d[0] for d, _ in ones])
        assert same_rows(np.swapaxes(iterates, 0, 1), [it[:, 0] for _, it in ones])
        with np.errstate(all="ignore"):
            refs = [oracles.local_rounds(theta, ds, alpha, eta, steps, batch, gen)
                    for ds, gen in zip(datasets, gens(seed, len(datasets)))]
        assert same_rows(deltas, [delta for delta, _ in refs])
        for i, (_, ref_iterates) in enumerate(refs):
            assert iterates[:len(ref_iterates), i].tobytes() == np.array(ref_iterates).tobytes()
        # a stopped device reports a non-finite delta and starts no later step
        for i in range(len(datasets)):
            started = ~np.isnan(iterates[:, i, 0])
            assert started[0] and np.all(started[:-1] >= started[1:])
            if not started.all():
                assert not np.all(np.isfinite(deltas[i]))

    def test_local_rounds_when_every_row_stops(self):
        """Both rows of a stack leave the finite range in step 0 of 3: the
        steps end there, and the iterates of steps 1 and 2 are NaN."""
        datasets, alpha, steps, batch, eta, theta, seed = device_stack(
            4, 2, 3, 4, 8, 5, 0.1, 3, 1e9, 1e300, 11)
        data = tasks.stack_datasets(datasets)
        idx = batches(seed, len(datasets), meta.batch_pools(data, batch), batch, steps)
        with np.errstate(all="ignore"):
            deltas, iterates = meta.local_rounds(theta, data, idx, alpha, eta, np.arange(2))
        assert np.isnan(iterates).any(axis=-1).T.tolist() == [[False, True, True]] * 2
        assert np.isnan(iterates[1:]).all()
        assert not np.isfinite(deltas).all(axis=1).any()

    def test_local_rounds_after_a_row_stops(self):
        """Row 1 of 4 starts far enough out to leave the finite range at step
        2 of 5: the rows that run on read their own batches of the ones
        gathered up front, and equal a chain of one-row meta_grad_estimate
        steps bit for bit."""
        datasets, alpha, steps, batch, eta, theta, seed = device_stack(
            4, 4, 3, 4, 8, 5, 0.1, 5, 100.0, 1.0, 11)
        data = tasks.stack_datasets(datasets)
        idx = batches(seed, len(datasets), meta.batch_pools(data, batch), batch, steps)
        starts = np.tile(theta, (len(datasets), 1))
        starts[1] *= 1e305
        with np.errstate(all="ignore"):
            deltas, iterates = meta.local_rounds(starts, data, idx, alpha, eta,
                                                 np.arange(len(datasets)))
        assert np.isnan(iterates[:, :, 0]).T.tolist() == [[False] * 5,
                                                          [False, False] + [True] * 3,
                                                          [False] * 5, [False] * 5]
        for i, start in enumerate(starts):
            point, chain = start, np.full((steps, len(theta)), np.nan)
            for q in range(steps):
                if not np.isfinite(point).all():
                    break
                chain[q] = point
                x, y = data.x[i][idx[q, i]], data.y[i][idx[q, i]]
                with np.errstate(all="ignore"):
                    point = point - eta * meta.meta_grad_estimate(point[None], x[None], y[None],
                                                                  alpha)[0]
            assert deltas[i].tobytes() == (start - point).tobytes()
            assert iterates[:, i].tobytes() == chain.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(update_stacks())
    def test_memory_fold_and_top_k(self, case):
        memory, delta, k, _ = case
        g, m_next = sparsify.memory_fold(memory, delta, k)
        ones = [sparsify.memory_fold(memory[i:i + 1], delta[i:i + 1], k)
                for i in range(memory.shape[0])]
        assert same_rows(g, [one[0][0] for one in ones])
        assert same_rows(m_next, [one[1][0] for one in ones])
        assert same_rows(sparsify.energies(g),
                         [sparsify.energies(one[0])[0] for one in ones])
        assert same_rows(sparsify.energies(g), [row @ row for row in g])
        assert same_rows(g, [reference_top_k(row, k) for row in memory + delta])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(update_stacks(), st.integers(1, 8))
    def test_precompensation_compression_and_mac(self, case, m_uses):
        _, g, _, seed = case
        n, dim = g.shape
        gen = np.random.default_rng(seed)
        gains = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        rho, eta = 0.5 + gen.random(), 0.01 + gen.random()
        m_uses = min(m_uses, dim)
        matrix = channel.compression_block(dim, np.sort(gen.choice(dim, size=m_uses,
                                                                  replace=False)))[0]
        phases = sparsify.phase(gains, np.hypot(gains.real, gains.imag))
        rho = np.asarray(rho)
        live = g.any(axis=-1)
        x = sparsify.phase_precompensate(g, live, rho, eta, phases)
        assert same_rows(x, [sparsify.phase_precompensate(g[i:i + 1], live[i:i + 1], rho, eta,
                                                          phases[i:i + 1])[0]
                             for i in range(n)])
        # the phase is formed per scalar
        assert same_rows(x, [(np.sqrt(rho) / eta) * (np.conj(h) / abs(h)) * row if np.any(row)
                             else np.zeros(dim, dtype=complex) for h, row in zip(gains, g)])
        signals = channel.compress(matrix, x)
        assert same_rows(signals, [channel.compress(matrix, x[i:i + 1])[0] for i in range(n)])
        assert same_rows(signals, [matrix @ row for row in x])
        noise_re, noise_im = gen.standard_normal(m_uses), gen.standard_normal(m_uses)
        acc = np.zeros(m_uses, dtype=complex)
        for h, s in zip(gains, signals):  # superposition in device order
            acc = acc + h * s
        want = acc + noise_re + 1j * noise_im
        got = channel.transmit_mac(signals, gains, noise_re + 1j * noise_im)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(estimate_stacks(), st.sampled_from([0.0, 1e-300, 0.1]),
           st.sampled_from(channel.ESTIMATOR_KINDS))
    # noiseless: rounds 0 (row 0), 2 (row d/2, pair 1, 7) and 3 (no prior
    # power) are flagged as the pseudo-inverse, round 1 has full rank
    @example((8, [[0, 1, 2], [1, 2, 3], [1, 4, 7], [2, 3, 5]], [1.0, 2.0, 1.5, 0.0], 0),
             0.0, "lmmse")
    @example((4, [[0, 1, 2, 3], [0, 1, 2, 3]], [0.0, 1.0], 1), 0.1, "matched")
    def test_estimate_stack(self, case, noise_var, kind):
        dim, rows, powers, seed = case
        gen = np.random.default_rng(seed)
        shape = (len(rows), len(rows[0]))
        if kind == "matched":  # it reads the full DFT: validate() requires M == d
            rows = [list(range(dim))] * len(rows)
            shape = (len(rows), dim)
        y = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        comp = channel.compression_block(dim, np.array(rows))
        powers = np.array(powers, dtype=float)
        def estimate(k):
            """(x_hat, err_var, pinv_fallback) of the rounds k of the stack."""
            _, adjoint, modes, counts = (c[k] for c in comp)
            return (channel.estimate_stack(y[k], adjoint, modes, powers[k], noise_var, kind),
                    *channel.estimate_error(counts, powers[k], noise_var, kind, dim))

        with np.errstate(all="ignore"):
            est = estimate(slice(None))
            ones = [estimate(slice(k, k + 1)) for k in range(len(rows))]
        for i in range(3):
            assert same_rows(est[i], [one[i][0] for one in ones])
