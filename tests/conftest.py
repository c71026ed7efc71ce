import signal

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
def no_hang():
    """Fail the test, instead of hanging, if it still runs after 10 s: an
    open() of a FIFO that no process writes blocks for ever."""

    def expire(signum, frame):
        pytest.fail("still blocked after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def oetf_bt709_inverse():
    """The inverse of the BT.709 OETF, an oracle for decoded chart codes."""

    def inverse(encoded):
        v = np.asarray(encoded, dtype=float)
        return np.where(v < 0.081, v / 4.5, np.power((v + 0.099) / 1.099, 1.0 / 0.45))

    return inverse


@pytest.fixture
def flat_spd():
    return SpectralDistribution(np.ones(GRID_COUNT))
