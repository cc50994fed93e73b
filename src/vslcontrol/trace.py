"""Simulation traces: snapshots of the closed-loop state over time."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(eq=False)
class SimulationTrace:
    """Recorded snapshots of density, control and their derived scalars.

    rho and u have shape (len(times), len(x)).  sup_deviation is always the
    max-abs deviation of the stored rho row from rho_star.  inlet_flow and
    outlet_flow are u*f(rho) at the two road ends.  bottleneck_x (smallest
    minimizer of the weighted flow, free-inlet law only) is None otherwise.
    metadata carries gains, derived constants and solver statistics.
    """

    times: np.ndarray
    x: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    rho_star: float
    sup_deviation: np.ndarray
    inlet_flow: np.ndarray
    outlet_flow: np.ndarray
    bottleneck_x: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("snapshot times must increase strictly")
        nt, nx = self.times.size, self.x.size
        for name in ("rho", "u"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (nt, nx):
                raise DomainError(f"{name} must have shape (n_times, n_nodes)")
            setattr(self, name, arr)
        for name in ("sup_deviation", "inlet_flow", "outlet_flow"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (nt,):
                raise DomainError(f"{name} must have one entry per snapshot")
            setattr(self, name, arr)
        if self.bottleneck_x is not None:
            self.bottleneck_x = np.asarray(self.bottleneck_x, dtype=float)
            if self.bottleneck_x.shape != (nt,):
                raise DomainError("bottleneck_x must have one entry per snapshot")
        recomputed = np.max(np.abs(self.rho - self.rho_star), axis=1)
        if not np.allclose(recomputed, self.sup_deviation, rtol=0.0, atol=1e-13):
            raise DomainError("sup_deviation column disagrees with the stored profiles")


def law_trace(gains, diagram, times: np.ndarray, x: np.ndarray, rho: np.ndarray,
              u_tol: float, metadata: dict) -> SimulationTrace:
    """Trace of the densities rho (one row per time) under the law `gains`.

    u and the boundary flows come from the law bound once to the grid,
    gains.controller(diagram, x, u_tol), evaluated on each row, which also
    runs the law's domain and escape checks.
    """
    evaluate = gains.controller(diagram, x, u_tol)
    u = np.empty_like(rho)
    inlet = np.empty(len(times))
    outlet = np.empty(len(times))
    extras = []
    for j, row in enumerate(rho):
        u[j], fv, extra = evaluate(row)
        inlet[j] = u[j, 0] * fv[0]
        outlet[j] = u[j, -1] * fv[-1]
        extras.append(extra)
    return SimulationTrace(
        times=times, x=x, rho=rho, u=u, rho_star=gains.rho_star,
        sup_deviation=np.max(np.abs(rho - gains.rho_star), axis=1),
        inlet_flow=inlet, outlet_flow=outlet,
        bottleneck_x=None if extras[0] is None else x[extras], metadata=metadata)


def fitted_decay_rate(trace: SimulationTrace) -> float:
    """Least-squares exponential decay rate of sup_deviation over time.

    Fits ln(sup_deviation) = ln(A) - rate * t and returns rate.  Snapshots
    with vanishing deviation are excluded.
    """
    mask = trace.sup_deviation > 0.0
    if np.count_nonzero(mask) < 2:
        raise DomainError("need at least two positive deviations to fit a rate")
    t = trace.times[mask]
    y = np.log(trace.sup_deviation[mask])
    slope = np.polyfit(t, y, 1)[0]
    return float(-slope)
