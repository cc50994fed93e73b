"""Density profiles on a uniform road grid, and simulation scenarios.

A profile stores rho at the N+1 nodes of a uniform grid over [0, length]
together with the target density rho_star.  The two quantities the
controllers consume are the running deviation integral

    D(x) = integral_0^x (rho(s) - rho_star) ds        (trapezoid rule)

and the sup-norm deviation max |rho - rho_star| over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .fundamental_diagram import ExponentialDiagram
from .quadrature import cumulative_trapezoid


@dataclass(frozen=True, eq=False)
class DensityProfile:
    """Densities on the uniform node grid of [0, length]."""

    length: float
    values: np.ndarray
    rho_star: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("values must be a 1-d array with at least 2 nodes")
        if not (0.0 < self.length < math.inf):
            raise DomainError("length must be positive and finite")
        if not (0.0 < self.rho_star < math.inf):
            raise DomainError("rho_star must be positive and finite")
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise DomainError("densities must be finite and strictly positive")
        object.__setattr__(self, "values", vals)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.values.size)

    def node_deviation_integrals(self) -> np.ndarray:
        """D at every grid node."""
        return cumulative_trapezoid(self.x, self.values - self.rho_star)

    def sup_deviation(self) -> float:
        """max |rho - rho_star| over the grid."""
        return float(np.max(np.abs(self.values - self.rho_star)))


def uniform_profile(length: float, n_cells: int, rho_star: float,
                    value: float | None = None) -> DensityProfile:
    """Constant profile; defaults to the target density itself."""
    v = rho_star if value is None else value
    return DensityProfile(length, np.full(n_cells + 1, float(v)), rho_star)


def polynomial_profile(length: float, n_cells: int, rho_star: float,
                       coeffs) -> DensityProfile:
    """rho0(x) = sum_i coeffs[i] * x**i on the node grid."""
    x = np.linspace(0.0, length, n_cells + 1)
    vals = np.polynomial.polynomial.polyval(x, np.asarray(coeffs, dtype=float))
    return DensityProfile(length, vals, rho_star)


def bump_profile(length: float, n_cells: int, rho_star: float,
                 amplitude: float = 4.0, width: float = 1.2) -> DensityProfile:
    """rho0(x) = rho_star + amplitude * x^2 (width - x)^2, a smooth congestion bump.

    The default parameters put the peak deviation amplitude*(width/2)^4 at
    x = width/2 and pin rho0(0) = rho_star exactly.
    """
    x = np.linspace(0.0, length, n_cells + 1)
    vals = rho_star + amplitude * x ** 2 * (width - x) ** 2
    return DensityProfile(length, vals, rho_star)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A control problem: diagram, road, target density, initial data, horizon.

    output_interval sets the spacing of recorded snapshots; the recorders
    always include t = 0 and t = horizon.
    """

    diagram: ExponentialDiagram
    length: float
    rho_star: float
    rho0: DensityProfile
    horizon: float
    output_interval: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.length, self.rho_star,
                                              self.horizon, self.output_interval)):
            raise DomainError("length, rho_star, horizon and output_interval must be finite")
        if self.horizon <= 0.0:
            raise DomainError("horizon must be positive")
        if not (0.0 < self.output_interval <= self.horizon):
            raise DomainError("output_interval must lie in (0, horizon]")
        if self.rho0.length != self.length:
            raise DomainError("initial profile length differs from scenario length")
        if self.rho0.rho_star != self.rho_star:
            raise DomainError("initial profile rho_star differs from scenario rho_star")
        if not (0.0 < self.rho_star < self.diagram.rho_max):
            raise DomainError("rho_star must lie in (0, rho_max)")
        if np.any(self.rho0.values > self.diagram.rho_max * (1.0 + 1e-12)):
            raise DomainError("initial densities exceed rho_max")

    @cached_property
    def output_times(self) -> np.ndarray:
        n = int(round(self.horizon / self.output_interval))
        if abs(n * self.output_interval - self.horizon) > 1e-9 * self.horizon:
            n = int(np.ceil(self.horizon / self.output_interval))
        return np.linspace(0.0, self.horizon, n + 1)


def check_pairing(gains, road: DensityProfile | Scenario) -> None:
    """Raise DomainError unless gains and road share length and rho_star.

    road is a DensityProfile or a Scenario; gains is either law's record.
    """
    if road.rho_star != gains.rho_star or road.length != gains.length:
        raise DomainError(f"gains and {type(road).__name__.lower()} disagree "
                          "on rho_star or length")
