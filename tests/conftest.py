import numpy as np
import pytest
from hypothesis import settings

from dirquant import TParams

# Tier-1 replays the same examples on every run and keeps no example
# database, so its result depends only on the code; ``explore`` draws fresh
# examples (``--hypothesis-profile=explore``).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None)


def pytest_configure(config):
    # loaded here rather than at import, so that --hypothesis-profile wins
    if config.getoption("hypothesis_profile") is None:
        settings.load_profile("tier1")

# Reference models used across the suite: a weakly coupled 2D t with
# nu=3 and a 3D t with nu=4 and mixed-sign couplings.
SIGMA_2D = np.array([[5.0, 0.1], [0.1, 1.0]])
SIGMA_3D = np.array(
    [[5.0, 2.44, -1.88], [2.44, 2.12, 0.04], [-1.88, 0.04, 2.36]]
)


@pytest.fixture(scope="session")
def params_2d() -> TParams:
    return TParams(np.zeros(2), SIGMA_2D, 3.0)


@pytest.fixture(scope="session")
def params_3d() -> TParams:
    return TParams(np.zeros(3), SIGMA_3D, 4.0)
