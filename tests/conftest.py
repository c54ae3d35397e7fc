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
    """Call with n: each Monte-Carlo pass then sees n usable CPUs and
    starts at most n - 1 helper threads beside its calling thread."""
    return lambda cpus: monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
