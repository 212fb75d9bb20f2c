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


def gens(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def same_rows(stacked, rows):
    """Row i of ``stacked`` has the bytes of ``rows[i]``."""
    return all(stacked[i].tobytes() == np.asarray(row).tobytes() for i, row in enumerate(rows))


# Per-device references: the one-device arithmetic each stacked stage must
# reproduce bit for bit, written with 1-D vectors and 2-D batches.

def reference_local_rounds(theta_start, ds, cfg, eta, gen):
    """(delta, iterates) of one device's local steps."""
    def grad(phi, idx):
        x, y = ds.x[idx], ds.y[idx]
        return -(x.T @ (y - x @ phi)) / x.shape[0]

    theta, iterates = theta_start.copy(), []
    for step in range(cfg.local_steps):
        if step and not np.all(np.isfinite(theta)):
            break
        iterates.append(theta.copy())
        idx = [gen.choice(pool, size=cfg.batch_size, replace=False)
               for pool in meta.batch_pools(ds, cfg.batch_size)]
        g_outer = grad(theta - cfg.alpha * grad(theta, idx[0]), idx[1])
        x_h = ds.x[idx[2]]
        g_outer = g_outer - cfg.alpha * (((x_h.T @ x_h) / x_h.shape[0]) @ g_outer)
        theta = theta - eta * g_outer
    return theta_start - theta, iterates


def reference_top_k(x, k):
    keep = np.argsort(-np.abs(x), kind="stable")[:k]
    out = np.zeros_like(x)
    out[keep] = x[keep]
    return out


def device_stack(dim, n, batch, m_tr, m_va, data_seed, local_cfg, eta, theta_scale, seed):
    """(datasets, local config, rate, shared start, stream seed) of n devices."""
    gen = np.random.default_rng(data_seed)
    env = tasks.TaskEnvironment(dim=dim, center=np.ones(dim), task_spread=0.5,
                                label_noise_var=0.5)
    datasets = [tasks.sample_dataset(tasks.sample_device(env, gen), env, m_tr + m_va, m_tr,
                                     m_va, gen)
                for _ in range(n)]
    return datasets, local_cfg, eta, gen.standard_normal(dim) * theta_scale, seed


@st.composite
def device_stacks(draw):
    batch = draw(st.integers(1, 4))
    local_cfg = meta.LocalConfig(alpha=draw(st.floats(0, 1.5)),
                                 local_steps=draw(st.integers(1, 3)), batch_size=batch)
    # far starts and large rates let some devices, not all, leave the finite range
    eta = draw(st.one_of(st.floats(0, 0.2), st.integers(0, 9).map(lambda e: 10.0**e)))
    return device_stack(
        dim=draw(st.integers(1, 8)), n=draw(st.integers(1, 5)), batch=batch,
        m_tr=batch + draw(st.integers(0, 3)),
        m_va=2 * batch + draw(st.integers(0, 3)),  # two disjoint validation pools
        data_seed=draw(st.integers(0, 2**32 - 1)), local_cfg=local_cfg, eta=eta,
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


class TestStackedRowsEqualOneRowCalls:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(device_stacks())
    # devices 0 and 1 of 4 stop before their last step, devices 2 and 3 run on
    @example(device_stack(3, 4, 2, 2, 5, 0, meta.LocalConfig(0.3, 3, 2), 1e4, 1e300, 0))
    def test_local_rounds(self, case):
        datasets, cfg, eta, theta, seed = case
        data = tasks.stack_datasets(datasets)
        pools = meta.batch_pools(data, cfg.batch_size)
        with np.errstate(all="ignore"):
            deltas, iterates = meta.local_rounds(theta, data, pools, cfg, eta,
                                                 gens(seed, len(datasets)))
            ones = [meta.local_rounds(theta, data.devices([i]), pools, cfg, eta, [gen])
                    for i, gen in enumerate(gens(seed, len(datasets)))]
        assert same_rows(deltas, [d[0] for d, _ in ones])
        assert same_rows(np.swapaxes(iterates, 0, 1), [it[:, 0] for _, it in ones])
        with np.errstate(all="ignore"):
            refs = [reference_local_rounds(theta, ds, cfg, eta, gen)
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
        comp = channel.make_compression(m_uses, dim, gen)
        x = sparsify.phase_precompensate(g, rho, eta, gains)
        assert same_rows(x, [sparsify.phase_precompensate(g[i:i + 1], rho, eta, gains[i:i + 1])[0]
                             for i in range(n)])
        # the phase is formed per scalar
        assert same_rows(x, [(np.sqrt(rho) / eta) * (np.conj(h) / abs(h)) * row if np.any(row)
                             else np.zeros(dim, dtype=complex) for h, row in zip(gains, g)])
        signals = comp.compress(x)
        assert same_rows(signals, [comp.compress(x[i:i + 1])[0] for i in range(n)])
        assert same_rows(signals, [comp.matrix @ row for row in x])
        round_ch = channel.ChannelRound(gains=gains, noise_var=1.0,
                                        noise_re=gen.standard_normal(m_uses),
                                        noise_im=gen.standard_normal(m_uses))
        acc = np.zeros(m_uses, dtype=complex)
        for h, s in zip(gains, signals):  # superposition in device order
            acc = acc + h * s
        want = acc + round_ch.noise_re + 1j * round_ch.noise_im
        assert channel.transmit_mac(signals, round_ch).tobytes() == want.tobytes()
