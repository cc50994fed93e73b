"""Contractive Picard iteration, shared by both laws' solvers.

Each closed loop reduces to one scalar fixed point on a time grid: the
bottleneck value P(t) of the free-inlet law and the sup-norm path S(t) of
the fixed-inlet law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError


@dataclass(frozen=True)
class PicardSettings:
    """Knobs of the fixed-point solvers.

    window:       time-window length for the windowed solver; None sizes it
                  from the contraction bound so the factor equals `safety`.
    time_samples: subintervals of the uniform time grid carrying the
                  fixed-point function (per window for the windowed solver,
                  per unit time for the whole-horizon solver).
    tol:          sup-norm stopping tolerance of the iteration.
    max_iter:     iteration budget before declaring non-convergence.
    safety:       required contraction factor bound, in (0, 1).
    retry_cap:    times a non-converging window may be halved and retried.
    """

    window: float | None = None
    time_samples: int = 64
    tol: float = 1e-10
    max_iter: int = 200
    safety: float = 0.5
    retry_cap: int = 5

    def __post_init__(self):
        if self.window is not None and not (0.0 < self.window < math.inf):
            raise DomainError("window must be positive and finite")
        if self.time_samples < 2:
            raise DomainError("need at least 2 time samples")
        if not (0.0 < self.safety < 1.0):
            raise DomainError("safety must lie in (0, 1)")
        if not (0.0 < self.tol < math.inf) or self.max_iter < 1 or self.retry_cap < 0:
            raise DomainError("tol, max_iter and retry_cap must be positive, tol finite")


def iterate(update: Callable[[np.ndarray], np.ndarray], g0: np.ndarray,
            settings: PicardSettings, what: str) -> tuple[np.ndarray, int, float]:
    """Fixed point of g = update(g) from g0: (g, iterations, worst ratio).

    Returns the first update that moves g by at most settings.tol in the
    sup norm.  The worst ratio is the largest quotient of successive update
    sizes while the earlier one exceeds 1e3 * tol (an observed contraction
    factor, blind to round-off near the fixed point).  Raises
    ConvergenceError naming `what` after settings.max_iter updates.
    """
    g = g0
    prev_diff = worst_ratio = 0.0
    ratio_floor = 1e3 * settings.tol
    for it in range(settings.max_iter):
        g_new = update(g)
        diff = float(np.max(np.abs(g_new - g)))
        if prev_diff > ratio_floor:
            worst_ratio = max(worst_ratio, diff / prev_diff)
        if diff <= settings.tol:
            return g_new, it + 1, worst_ratio
        g, prev_diff = g_new, diff
    raise ConvergenceError(f"{what} did not converge in {settings.max_iter} iterations")
