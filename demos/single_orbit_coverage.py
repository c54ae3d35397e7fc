"""Downlink SIR coverage for one orbit, analytic against simulation.

The analytic curve integrates the interference Laplace transform over
the serving-distance law; the simulated curve replays the same network
with explicit satellite draws and Nakagami fading. The two should agree
to Monte-Carlo accuracy across the whole threshold range.
"""

import math

from orbitcov import (
    ChannelParams,
    ConstellationSpec,
    McConfig,
    OrbitGeometry,
    VisibilityWindow,
    coverage_conditional,
    db_to_linear,
    empirical_sir_coverage,
    threshold_grid_db,
)


def main() -> None:
    orbit = OrbitGeometry(altitude_km=500.0, theta_rad=math.pi / 2)
    window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbit)
    channel = ChannelParams(alpha=2.0, m=1.0)
    density = 0.005
    thresholds = threshold_grid_db(-10.0, 30.0, 5.0)

    # a single orbit is the one-orbit constellation
    spec = ConstellationSpec(
        orbits=(orbit,), densities_per_km=(density,), window=window, channel=channel
    )
    analytic = coverage_conditional(spec, [db_to_linear(g) for g in thresholds])
    cfg = McConfig(trials=200_000, seed=7, batch=50_000)
    simulated, _ = empirical_sir_coverage(spec, thresholds, cfg)

    print("single orbit, Rayleigh fading, conditional on visibility")
    print(f"{'gamma [dB]':>10} {'analytic':>9} {'simulated':>10} {'95% CI':>19}")
    for i, g in enumerate(thresholds):
        ci = f"[{simulated.ci_low[i]:.4f}, {simulated.ci_high[i]:.4f}]"
        print(f"{g:>10.0f} {analytic[i]:>9.4f} {simulated.values[i]:>10.4f} {ci:>19}")


if __name__ == "__main__":
    main()
