"""Shared fixtures: the reference single-orbit setup used across modules."""

import math

import pytest

from orbitcov import ChannelParams, OrbitGeometry, VisibilityWindow, montecarlo


@pytest.fixture
def ref_orbit() -> OrbitGeometry:
    """Overhead orbit at 500 km."""
    return OrbitGeometry(altitude_km=500.0, theta_rad=math.pi / 2)


@pytest.fixture
def ref_window(ref_orbit) -> VisibilityWindow:
    """10 degree minimum elevation window for the reference orbit."""
    return VisibilityWindow.from_min_elevation(math.radians(10.0), ref_orbit)


@pytest.fixture
def rayleigh() -> ChannelParams:
    return ChannelParams(alpha=2.0, m=1.0)


@pytest.fixture
def set_workers(monkeypatch):
    """Call with n: the Monte-Carlo pool then sees n usable CPUs and is
    made afresh, with n - 1 workers beside each calling thread, on its
    next use. Pools made this way are shut down at the end of the test."""
    original = montecarlo._pool

    def shut_down_ours():
        if montecarlo._pool is not None and montecarlo._pool is not original:
            montecarlo._pool.shutdown()

    def set_workers(cpus: int) -> None:
        shut_down_ours()
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(montecarlo, "_pool", None)

    yield set_workers
    shut_down_ours()
