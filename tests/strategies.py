"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from airmeta.protocol import ExperimentConfig


@st.composite
def small_configs(draw):
    """Valid configs up to dim 8 and 20 rounds, from tame to divergent rates
    and initial iterates up to 1e200."""
    dim = draw(st.integers(1, 8))
    n_devices = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 3))
    m_tr = batch + draw(st.integers(0, 3))
    m_va = 2 * batch + draw(st.integers(0, 3))  # two disjoint validation pools
    square = draw(st.booleans())
    snr_db = draw(st.one_of(st.none(), st.floats(-10, 30)))
    return ExperimentConfig(
        dim=dim,
        n_devices=n_devices, active_fraction=draw(st.integers(1, n_devices)) / n_devices,
        samples_per_device=m_tr + m_va, train_samples=m_tr,
        rounds=draw(st.integers(0, 20)), local_steps=draw(st.integers(1, 3)),
        batch_size=batch,
        lr_schedule=draw(st.sampled_from(["constant", "adaptive"])),
        eta=draw(st.one_of(st.floats(0, 1), st.floats(0, 1e300))), alpha=draw(st.floats(0, 2)),
        sparsify_k=draw(st.integers(1, dim)),
        channel_uses=dim if square else draw(st.integers(1, dim)),
        estimator=draw(st.sampled_from(["lmmse", "matched"])) if square else "lmmse",
        fading=draw(st.sampled_from(["rayleigh", "unit"])),
        snr_db=snr_db, noise_var=None if snr_db is not None else draw(st.floats(0, 10)),
        theta_init=draw(st.floats(-1e200, 1e200)), master_seed=draw(st.integers(0, 2**32 - 1)),
    )
