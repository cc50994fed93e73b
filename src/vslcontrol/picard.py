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

    time_samples: subintervals of the uniform time grid carrying the
                  fixed-point function (per window for the windowed solver,
                  per unit time for the whole-horizon solver).
    tol:          sup-norm stopping tolerance of the iteration.
    max_iter:     iteration budget before declaring non-convergence.
    """

    time_samples: int = 64
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.time_samples < 2:
            raise DomainError("need at least 2 time samples")
        if not (0.0 < self.tol < math.inf) or self.max_iter < 1:
            raise DomainError("tol and max_iter must be positive, tol finite")


def iterate(update: Callable[[np.ndarray], np.ndarray], g0: np.ndarray,
            settings: PicardSettings, what: str) -> tuple[np.ndarray, int, float]:
    """Fixed point of g = update(g) from g0: (g, iterations, worst ratio).

    Returns the first update that moves g by at most settings.tol in the
    sup norm.  The worst ratio is the largest quotient of successive update
    sizes while the earlier one exceeds 1e3 * tol (an observed contraction
    factor, blind to round-off near the fixed point).  Raises
    ConvergenceError naming `what` after settings.max_iter updates, and
    ValueError if an update returns memory it was passed (a zero step).
    """
    g = g0
    prev_diff = worst_ratio = 0.0
    ratio_floor = 1e3 * settings.tol
    for it in range(settings.max_iter):
        g_new = update(g)
        if np.may_share_memory(g_new, g):
            raise ValueError(f"{what}: the update returned memory it was passed")
        diff = float(np.abs(g_new - g).max())
        if prev_diff > ratio_floor:
            worst_ratio = max(worst_ratio, diff / prev_diff)
        if diff <= settings.tol:
            return g_new, it + 1, worst_ratio
        g, prev_diff = g_new, diff
    raise ConvergenceError(f"{what} did not converge in {settings.max_iter} iterations")
