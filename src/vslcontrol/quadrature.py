"""Trapezoid quadrature on node grids, with partial-cell evaluation."""

from __future__ import annotations

from typing import Callable

import numpy as np


def cumulative_trapezoid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0.

    Returns an array the same length as x; entry i is the integral from
    x[0] to x[i] of the piecewise-linear interpolant of y.
    """
    return running_trapezoid(np.diff(x), y)


def running_trapezoid(dx: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """cumulative_trapezoid on the grid whose steps are dx = np.diff(x).

    For callers that integrate on one grid many times and take dx once;
    out, when given, is a float array like y, not y itself, that receives
    the result.
    """
    if out is None:
        out = np.empty_like(np.asarray(y, dtype=float))
    return bound_trapezoid(dx, y, out)()


def bound_trapezoid(dx: np.ndarray, y: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
    """running_trapezoid(dx, y, out) as a call that takes no arguments.

    For a caller that integrates whatever y holds now into the same out,
    over and over: the slice views of y and out are made here, once, and
    each call runs the trapezoid's one formula on them, four ufuncs, and
    returns out.  y and out are buffers the caller owns and rewrites
    between calls; out is a float array like y, not y itself.
    """
    y_hi, y_lo, cells = y[1:], y[:-1], out[1:]

    def integrate() -> np.ndarray:
        out[0] = 0.0
        np.add(y_hi, y_lo, out=cells)
        np.multiply(0.5, cells, out=cells)
        np.multiply(cells, dx, out=cells)
        np.add.accumulate(cells, out=cells)  # cumsum's loop, with less call overhead
        return out

    return integrate


def integral_to(x: np.ndarray, y: np.ndarray, cum: np.ndarray, xq: float) -> float:
    """Integral of the piecewise-linear interpolant of y from x[0] to xq.

    cum must be cumulative_trapezoid(x, y).  xq must lie in [x[0], x[-1]];
    the last partial cell is integrated exactly (still a trapezoid, since
    the interpolant is linear inside the cell).
    """
    if xq <= x[0]:
        return 0.0
    i = int(np.searchsorted(x, xq) - 1)
    w = (xq - x[i]) / (x[i + 1] - x[i])
    yq = y[i] + w * (y[i + 1] - y[i])
    return float(cum[i] + 0.5 * (y[i] + yq) * (xq - x[i]))
