"""Solver configuration shared by the scalar and matrix fixed-point solvers."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and caps for fixed-point solves.

    dt_tol        stop tolerance on the Thompson error bound of a matrix mean.
    max_iters     cap for matrix fixed-point iterations.
    karcher_alpha exponent of the power-mean pair used to certify a Karcher
                  solve by enclosure.
    tol           residual threshold for the scalar deformed-mean solve.
    scalar_max_iters  cap for the scalar solve before bisection fallback.
    certify       when False, karcher_mean skips the power-mean enclosure
                  (used by bulk campaigns after the solver has been
                  validated; single calls default to certified).
    """

    dt_tol: float = 1e-11
    max_iters: int = 20_000
    karcher_alpha: float = 1.0 / 64.0
    tol: float = 1e-12
    scalar_max_iters: int = 10_000
    certify: bool = True

    def __post_init__(self):
        if not 0 < self.dt_tol < math.inf or self.max_iters < 1:
            raise ValueError("dt_tol must be finite and > 0, and max_iters >= 1")
        if not 0 < self.karcher_alpha <= 1:
            raise ValueError("karcher_alpha must lie in (0, 1]")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")


DEFAULT_CONFIG = SolverConfig()
