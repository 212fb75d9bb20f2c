import numpy as np
import pytest

from airmeta.tasks import TaskEnvironment, sample_device


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def quad_env():
    return TaskEnvironment(dim=6, center=np.arange(6.0) / 3.0,
                           task_spread=0.4, input_cov=1.0, label_noise_var=0.5)


@pytest.fixture
def quad_w(quad_env, rng):
    """Task vector of one device of ``quad_env``."""
    return sample_device(quad_env, rng)
