"""Validation internals: the brute-force arc count and the direct
transform average, against the forms they replace."""

import math

import numpy as np
import pytest

from orbitcov import ChannelParams, OrbitGeometry, RandomSource, VisibilityWindow, d_min
from orbitcov.validation import _ARC_CHUNK, _arc_length_bruteforce, _laplace_direct_average
from reference_forms import arc_length_bruteforce_one_shot


def _shell(omega_deg, theta):
    window = VisibilityWindow.from_min_elevation(math.radians(omega_deg), OrbitGeometry(500.0, math.pi / 2))
    return OrbitGeometry(500.0, theta), window


class TestArcBruteforce:
    @pytest.mark.parametrize("points", [1_000, _ARC_CHUNK, 3 * _ARC_CHUNK + 17])
    @pytest.mark.parametrize(
        "omega_deg, theta",
        # three pairs inside the visibility band and one outside it
        [(10.0, math.pi / 2), (0.0, math.pi / 2 + 0.3), (30.0, math.pi / 2 - 0.1), (45.0, 1.2)],
    )
    def test_chunked_count_is_the_one_shot_count(self, points, omega_deg, theta):
        # same count, and the generator left in the same state, so the
        # pairs drawn after this one see the same stream
        orbit, window = _shell(omega_deg, theta)
        chunked, one_shot = RandomSource(31).generator, RandomSource(31).generator
        assert _arc_length_bruteforce(orbit, window, points, chunked) == arc_length_bruteforce_one_shot(
            orbit, window, points, one_shot
        )
        assert chunked.bit_generator.state == one_shot.bit_generator.state


class TestLaplaceDirectAverage:
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_shared_draws_match_one_s_at_a_time(self, m):
        # every s sees the sums a one-s run on the same stream would draw:
        # sharing the draws only correlates the checks
        orbit, window = _shell(10.0, math.pi / 2)
        channel = ChannelParams(alpha=2.0, m=m)
        serving = d_min(orbit)
        scales = [0.1, 10.0] + [g * serving**2 for g in (0.1, 1.0, 10.0)]
        trials = 210_000  # more than one batch
        shared = _laplace_direct_average(
            orbit, window, 0.001, channel, serving, scales, trials, RandomSource(33).generator
        )
        assert shared.shape == (len(scales),)
        for s, value in zip(scales, shared):
            alone = _laplace_direct_average(
                orbit, window, 0.001, channel, serving, [s], trials, RandomSource(33).generator
            )
            assert value == pytest.approx(alone[0], rel=1e-15, abs=0.0)
