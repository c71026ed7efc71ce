import numpy as np
import pytest

from colorbench import (
    Cam16ViewingConditions,
    SpectralDistribution,
    load_illuminant,
    load_observer,
)
from colorbench.spectral import GRID_COUNT


@pytest.fixture(scope="session")
def d65():
    return load_illuminant("D65")


@pytest.fixture(scope="session")
def obs2():
    return load_observer("degree2")


@pytest.fixture(scope="session")
def obs10():
    return load_observer("degree10")


@pytest.fixture(scope="session")
def worked_example_vc():
    """Viewing conditions of the published CAM16 worked example."""
    return Cam16ViewingConditions(
        white=(95.05, 100.0, 108.88),
        Y_b=20.0,
        L_A=318.31,
        surround="average",
    )


@pytest.fixture
def flat_spd():
    return SpectralDistribution(np.ones(GRID_COUNT))
