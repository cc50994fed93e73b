"""Simulation traces: snapshots of the closed-loop state over time."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, StateEscapeError


@dataclass(eq=False)
class SimulationTrace:
    """Recorded snapshots of density, control and their derived scalars.

    rho and u have shape (len(times), len(x)).  sup_deviation, computed on
    first use, is the max-abs deviation of each rho row from rho_star.
    inlet_flow and outlet_flow are u*f(rho) at the two road ends.
    bottleneck_x (smallest minimizer of the weighted flow, free-inlet law
    only) is None otherwise.  metadata carries gains, derived constants and
    solver statistics.
    """

    times: np.ndarray
    x: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    rho_star: float
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
        optional = () if self.bottleneck_x is None else ("bottleneck_x",)
        for name in ("inlet_flow", "outlet_flow") + optional:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (nt,):
                raise DomainError(f"{name} must have one entry per snapshot")
            setattr(self, name, arr)

    @cached_property
    def sup_deviation(self) -> np.ndarray:
        return np.max(np.abs(self.rho - self.rho_star), axis=1)


def law_trace(gains, diagram, times: np.ndarray, x: np.ndarray, rho: np.ndarray,
              u_tol: float, metadata: dict) -> SimulationTrace:
    """Trace of the densities rho (one row per time) under the law `gains`.

    u and the boundary flows come from the law bound once to the grid,
    gains.controller(diagram, x, u_tol), evaluated on each row, which also
    runs the law's domain and escape checks; an escape names the time of
    its row.  The trace's metadata is `metadata` stamped with the record's
    law and rho_star.
    """
    evaluate = gains.controller(diagram, x, u_tol)
    u = np.empty_like(rho)
    inlet = np.empty(len(times))
    outlet = np.empty(len(times))
    extras = []
    for j, row in enumerate(rho):
        try:
            u[j], fv, extra = evaluate(row)
        except StateEscapeError as exc:
            raise StateEscapeError(f"at t = {times[j]:.6g}: {exc}") from exc
        inlet[j] = u[j, 0] * fv[0]
        outlet[j] = u[j, -1] * fv[-1]
        extras.append(extra)
    return SimulationTrace(
        times=times, x=x, rho=rho, u=u, rho_star=gains.rho_star,
        inlet_flow=inlet, outlet_flow=outlet,
        bottleneck_x=None if extras[0] is None else x[extras],
        metadata={**metadata, "law": gains.law, "rho_star": gains.rho_star})

