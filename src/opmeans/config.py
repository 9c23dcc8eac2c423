"""Solver configuration shared by the matrix fixed-point solvers."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance, cap and certification switch for matrix mean solves.

    dt_tol        stop tolerance on the Thompson error bound of a matrix mean.
    max_iters     cap for matrix fixed-point iterations.
    certify       when False, karcher_mean skips the power-mean enclosure
                  (used by bulk campaigns after the solver has been
                  validated; single calls default to certified).
    """

    dt_tol: float = 1e-11
    max_iters: int = 20_000
    certify: bool = True

    def __post_init__(self):
        if not 0 < self.dt_tol < math.inf or self.max_iters < 1:
            raise ValueError("dt_tol must be finite and > 0, and max_iters >= 1")


DEFAULT_CONFIG = SolverConfig()
