"""Distribution of the nearest visible satellite distance."""

import math

import numpy as np
import pytest

from orbitcov import (
    NearestDistanceLaw,
    OrbitGeometry,
    VisibilityWindow,
    nearest_ccdf,
    nearest_pdf,
    visible_arc_length,
)
from reference_forms import adaptive, nearest_ccdf_distance_form, nearest_pdf_distance_form


@pytest.fixture
def law(ref_orbit, ref_window):
    return NearestDistanceLaw(ref_orbit, ref_window, density_per_km=0.005)


def interior_grid(law, n):
    # uniform in the arc coordinate so every region gets probability mass
    from orbitcov import arc_to_distance

    ell = law.arc_length_km * (np.arange(n) + 0.5) / n
    return np.asarray(arc_to_distance(law.orbit, ell), dtype=float)


class TestCcdf:
    def test_clamps_at_endpoints(self, law):
        assert nearest_ccdf(law, law.d_min_km) == 1.0
        assert nearest_ccdf(law, law.d_min_km - 10.0) == 1.0
        assert nearest_ccdf(law, law.d_max_km) == 0.0
        assert nearest_ccdf(law, law.d_max_km + 10.0) == 0.0

    def test_monotone_nonincreasing(self, law):
        grid = np.linspace(law.d_min_km, law.d_max_km, 400)
        vals = nearest_ccdf(law, grid)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_truncated_exponential_shape(self, law, ref_orbit):
        from orbitcov import distance_to_arc

        lam = law.density_per_km
        L = law.arc_length_km
        r = 700.0
        ell = float(distance_to_arc(ref_orbit, r))
        expect = (math.exp(-lam * ell) - math.exp(-lam * L)) / (1.0 - math.exp(-lam * L))
        assert nearest_ccdf(law, r) == pytest.approx(expect, rel=1e-12)

    def test_vector_input(self, law):
        grid = np.array([law.d_min_km, 600.0, 1000.0, law.d_max_km])
        out = nearest_ccdf(law, grid)
        assert out.shape == grid.shape


class TestPdf:
    def test_normalizes_to_one(self, law):
        # substitute u = sqrt(r - d_min) to tame the inverse square root
        # blow-up of the density at the near edge
        lo = law.d_min_km

        def regular(u):
            return nearest_pdf(law, lo + u * u) * 2.0 * u

        total = adaptive(regular, 0.0, math.sqrt(law.d_max_km - lo), rel_tol=1e-11, abs_tol=1e-13)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_ccdf_derivative(self, law):
        # central difference of the CCDF against the closed form density;
        # the exponential decay bounds the step in the bulk and the edge
        # curvature bounds it near the endpoints
        for r in interior_grid(law, 50):
            h = min(0.1, 0.005 * min(r - law.d_min_km, law.d_max_km - r))
            slope = (nearest_ccdf(law, r - h) - nearest_ccdf(law, r + h)) / (2.0 * h)
            assert nearest_pdf(law, float(r)) == pytest.approx(slope, rel=1e-5)

    def test_positive_inside(self, law):
        assert np.all(nearest_pdf(law, interior_grid(law, 64)) > 0.0)

    def test_open_interval_only(self, law):
        for bad in (law.d_min_km, law.d_max_km, law.d_min_km - 1.0, law.d_max_km + 1.0):
            with pytest.raises(ValueError):
                nearest_pdf(law, bad)


class TestDistanceForms:
    """Literal distance-domain restatements must agree with the arc forms."""

    def test_ccdf_agreement(self, law):
        for r in interior_grid(law, 100):
            a = float(nearest_ccdf(law, float(r)))
            b = nearest_ccdf_distance_form(law, float(r))
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_pdf_agreement(self, law):
        for r in interior_grid(law, 100):
            a = float(nearest_pdf(law, float(r)))
            b = nearest_pdf_distance_form(law, float(r))
            assert a == pytest.approx(b, rel=1e-9)


class TestLawConstruction:
    def test_arc_length_derived(self, law, ref_orbit, ref_window):
        assert law.arc_length_km == visible_arc_length(ref_orbit, ref_window)

    def test_visibility_probability(self, law):
        expect = -math.expm1(-law.density_per_km * law.arc_length_km)
        assert law.visibility_probability == pytest.approx(expect, rel=1e-15)

    def test_rejects_nonpositive_density(self, ref_orbit, ref_window):
        with pytest.raises(ValueError):
            NearestDistanceLaw(ref_orbit, ref_window, density_per_km=0.0)

    def test_rejects_invisible_orbit(self, ref_window):
        # inclination outside the band never crosses the window
        with pytest.raises(ValueError):
            NearestDistanceLaw(OrbitGeometry(500.0, 0.3), ref_window, density_per_km=0.005)
