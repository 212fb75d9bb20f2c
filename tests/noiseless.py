"""Noiseless-uplink reference for the degenerate air pipeline.

With every entry kept (k = d), every channel use spent with the matched
estimator (M = d), unit fading and zero noise, the air pipeline must reduce
to plain federated averaging of the model differences.  This loop computes
that average without any of the uplink code, so comparing a run against it
checks the pipeline rather than the pipeline against itself.
"""
import numpy as np

from airmeta import meta, rng
from airmeta.protocol import lr_schedule

from oracles import sample_active_set


def noiseless_thetas(traj) -> np.ndarray:
    """Iterates (rounds + 1, d) from the initial iterate, datasets and
    substreams of the run ``traj`` when the server subtracts the mean model
    difference of the active devices each round."""
    cfg = traj.config
    pools = meta.batch_pools(traj.datasets, cfg.batch_size)
    thetas = [traj.thetas[0]]
    for t in range(cfg.rounds):
        eta_t, alpha_t = lr_schedule(cfg, t)
        active = sample_active_set(cfg.n_devices, cfg.active_fraction,
                                   rng.substream(cfg.master_seed, rng.ACTIVE_SET, t))
        idx = np.stack([rng.draw_batches(rng.substream(cfg.master_seed, rng.LOCAL_BATCH, t, i),
                                         pools, cfg.batch_size, cfg.local_steps)
                        for i in active], axis=1)
        deltas, _ = meta.local_rounds(thetas[-1], traj.datasets.devices(active), idx,
                                      alpha_t, eta_t, np.arange(len(active)))
        thetas.append(thetas[-1] - np.mean(deltas, axis=0))
    return np.stack(thetas)
