"""Shared fixtures.

Expensive artefacts (simulated traces, trained classifiers) are
session-scoped: the simulator is deterministic given a seed, so caching
them keeps the suite fast without coupling tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.baselines.scar import ScarStepCounter
from repro.core.config import PTrackConfig
from repro.core.step_counter import PTrackStepCounter
from repro.experiments.common import train_scar
from repro.sensing.device import WearableDevice
from repro.simulation.activities import simulate_interference
from repro.simulation.profiles import SimulatedUser
from repro.simulation.spoofer import simulate_spoofer
from repro.simulation.walker import simulate_walk
from repro.types import ActivityKind

#: Deeper search for the bit-identity properties of the screened
#: stepping kernel; CI runs ``tests/test_stepping_kernel.py`` with
#: ``--hypothesis-profile=stepping-kernel-deep``.
settings.register_profile("stepping-kernel-deep", max_examples=1000, deadline=None)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def user() -> SimulatedUser:
    """The default simulated user."""
    return SimulatedUser()


@pytest.fixture(scope="session")
def config() -> PTrackConfig:
    """Paper-default PTrack configuration."""
    return PTrackConfig()


@pytest.fixture(scope="session")
def walk_trace(user):
    """A 40 s noisy walking trace with ground truth."""
    return simulate_walk(user, 40.0, rng=np.random.default_rng(100))


@pytest.fixture(scope="session")
def stepping_trace(user):
    """A 40 s noisy stepping trace (arm rigid) with ground truth."""
    return simulate_walk(
        user, 40.0, rng=np.random.default_rng(101), arm_mode="rigid"
    )


@pytest.fixture(scope="session")
def swinging_trace(user):
    """A 40 s arm-swinging-while-standing trace."""
    trace, _ = simulate_walk(
        user, 40.0, rng=np.random.default_rng(102), body=False
    )
    return trace


@pytest.fixture(scope="session")
def clean_walk_trace(user):
    """A noiseless, jitter-free walking trace with ground truth."""
    return simulate_walk(user, 30.0, rng=None)


@pytest.fixture(scope="session")
def eating_trace():
    """A 90 s eating trace."""
    return simulate_interference(
        ActivityKind.EATING, 90.0, rng=np.random.default_rng(103)
    )


@pytest.fixture(scope="session")
def spoof_trace():
    """A 60 s spoofing-shaker trace."""
    return simulate_spoofer(60.0, rng=np.random.default_rng(104))


@pytest.fixture(scope="session")
def ptrack_counter(config) -> PTrackStepCounter:
    """A default PTrack step counter."""
    return PTrackStepCounter(config)


@pytest.fixture(scope="session")
def fitted_scar(user) -> ScarStepCounter:
    """A SCAR counter trained on the standard (photo-free) set."""
    return train_scar(user, np.random.default_rng(105), duration_s=40.0)


@pytest.fixture(scope="session")
def ideal_device() -> WearableDevice:
    """A noiseless sensing front end."""
    return WearableDevice.ideal()
