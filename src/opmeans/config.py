"""Solver configuration shared by the matrix fixed-point solvers."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and certification switch for matrix mean solves.

    dt_tol        stop tolerance on the Thompson error bound of a matrix mean.
    certify       when False, karcher_mean skips the power-mean enclosure
                  (campaign cells and ``recheck`` solve uncertified at the
                  default ``dt_tol``; single calls default to certified).

    The iteration cap is the fixed ``multimeans.MAX_ITERS``.
    """

    dt_tol: float = 1e-11
    certify: bool = True

    def __post_init__(self):
        if not 0 < self.dt_tol < math.inf:
            raise ValueError("dt_tol must be finite and > 0")


DEFAULT_CONFIG = SolverConfig()
