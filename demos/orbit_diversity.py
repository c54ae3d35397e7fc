"""Coverage gain from connecting to the best of several orbits.

Per-orbit interference is independent, so conditioned on every orbit
having a visible satellite the best-satellite coverage combines the
per-orbit curves as 1 - prod(1 - p_n). Requiring joint visibility also
discounts the combined curve, which is why the unconditional numbers
grow more slowly than the conditional ones.
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
    empirical_max_sir_coverage,
    max_sir_coverage_curve,
)


def constellation(n: int) -> ConstellationSpec:
    # spread the planes a quarter band apart around overhead
    offsets = [0.0, 0.05, -0.05, 0.1][:n]
    orbits = tuple(OrbitGeometry(500.0, math.pi / 2 + d, phi_rad=i * 0.8)
                   for i, d in enumerate(offsets))
    window = VisibilityWindow.from_min_elevation(math.radians(10.0), orbits[0])
    return ConstellationSpec(
        orbits=orbits,
        densities_per_km=tuple(0.005 for _ in orbits),
        window=window,
        channel=ChannelParams(alpha=2.0, m=1.0),
    )


def main() -> None:
    gamma_db = 10.0
    gamma = db_to_linear(gamma_db)
    cfg = McConfig(trials=100_000, seed=41, batch=25_000)
    print(f"best-satellite SIR coverage at {gamma_db:.0f} dB\n")
    print(f"{'orbits':>6} {'conditional':>12} {'simulated':>10} {'unconditional':>14}")
    for n in (1, 2, 3, 4):
        spec = constellation(n)
        cond = coverage_conditional(spec, gamma)
        unc = max_sir_coverage_curve(spec, (gamma_db,)).values[0]
        sim, _, _ = empirical_max_sir_coverage(spec, (gamma_db,), cfg)
        print(f"{n:>6} {cond:>12.4f} {sim.values[0]:>10.4f} {unc:>14.4f}")


if __name__ == "__main__":
    main()
