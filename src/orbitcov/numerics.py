"""Quadrature and seeded randomness shared by the analytic and
Monte-Carlo halves of the package.

The quadrature contract is deliberately small: one adaptive
Gauss-Kronrod entry point with explicit tolerances that either meets
them or raises, never silently degrades. Randomness flows through
`RandomSource`, which wraps a seeded PCG64 generator and hands out
independent child streams by seed-splitting, so parallel shards stay
reproducible and merge-order independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sci_integrate

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate",
    "RandomSource",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive quadrature.

    Defaults are tight enough that quadrature error is negligible next to
    the Monte-Carlo tolerances used to validate the analytic results.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance.

    Carries the best estimate and its error bound so callers can decide
    whether a degraded result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


_DEFAULT_SPEC = QuadratureSpec()


def integrate(func, lower: float, upper: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate ``func`` over [lower, upper] with adaptive Gauss-Kronrod.

    Returns the estimate once the requested tolerance is met and raises
    `QuadratureError` otherwise. Identical endpoints integrate to exactly
    0.0 without evaluating the integrand.
    """
    spec = spec or _DEFAULT_SPEC
    if not lower <= upper:
        raise ValueError("integration bounds must satisfy lower <= upper")
    if lower == upper:
        return 0.0
    out = _sci_integrate.quad(
        func,
        lower,
        upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        value, err = out[0], out[1]
        raise QuadratureError(
            f"quadrature on [{lower!r}, {upper!r}] did not converge: {out[3]}",
            estimate=value,
            error_bound=err,
        )
    return out[0]


class RandomSource:
    """Seeded random stream with reproducible splitting.

    Wraps numpy's PCG64 behind a `SeedSequence` so that `child(i)` yields
    the i-th statistically independent substream of this source. Two
    sources built from the same seed produce identical draws; children
    with distinct indices never collide regardless of the order they are
    consumed in, which is what makes sharded Monte-Carlo runs independent
    of shard scheduling.
    """

    def __init__(self, seed, _sequence: np.random.SeedSequence | None = None):
        self._sequence = _sequence if _sequence is not None else np.random.SeedSequence(seed)
        self.seed = seed
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator (created lazily, then reused)."""
        if self._generator is None:
            self._generator = np.random.Generator(np.random.PCG64(self._sequence))
        return self._generator

    def child(self, index: int) -> "RandomSource":
        """Independent substream number ``index`` of this source."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        seq = np.random.SeedSequence(
            entropy=self._sequence.entropy,
            spawn_key=(*self._sequence.spawn_key, index),
        )
        return RandomSource(self.seed, _sequence=seq)

