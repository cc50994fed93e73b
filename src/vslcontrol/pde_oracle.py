"""Direct method-of-lines integration of the controlled conservation law.

Cross-checks the semi-analytic simulators by integrating

    rho_t + d/dx [ u(rho) f(rho) ] = 0

with the feedback u recomputed from the current grid state at every stage.
Two schemes: a second-order central flux difference driven by classic RK4
(the default), and first-order upwinding with forward Euler as a blunt
fallback.  A law that pins its inlet (the fixed-inlet law holds
rho(t, 0) = rho_star) has its inlet node frozen; the free-inlet law sets the
inlet flow through u itself and needs no boundary pin.

The law is bound to the oracle grid once per run (gains.controller), so a
right-hand side pays only for what changes with the state: one evaluation
of the law, with its domain and escape checks, and a slice stencil equal,
operation for operation, to -np.gradient(q, h, edge_order=2).

This module trades accuracy for independence: nothing here reuses the
closed-form structure of the laws beyond the feedback formulas themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverDivergenceError, StepSizeError
from .profile import Scenario, check_pairing
from .trace import SimulationTrace, law_trace

SCHEMES = ("central_flux_rk4", "upwind_euler")
ORACLE_U_TOL = 1e-3  # discretization wiggle allowance on u <= 1


@dataclass(frozen=True)
class OracleSettings:
    """Grid resolution, scheme and step-size policy of the oracle.

    dt=None derives the step from cfl_cap * h / max|f'| and shrinks it to
    divide the output interval exactly; an explicit dt must respect the
    same stability cap.  escape_factor bounds how far the sup-norm
    deviation may grow before the run is declared divergent.
    """

    n_cells: int = 400
    scheme: str = "central_flux_rk4"
    cfl_cap: float = 0.4
    dt: float | None = None
    escape_factor: float = 4.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DomainError(f"scheme must be one of {SCHEMES}")
        if self.n_cells < 4:
            raise DomainError("need at least 4 cells")
        if not (0.0 < self.cfl_cap <= 1.0):
            raise DomainError("cfl_cap must lie in (0, 1]")
        if self.dt is not None and not (0.0 < self.dt < math.inf):
            raise DomainError("dt must be positive and finite")
        if not (1.0 < self.escape_factor < math.inf):
            raise DomainError("escape_factor must be finite and exceed 1")


def integrate(scenario: Scenario, gains, settings: OracleSettings = OracleSettings()
              ) -> SimulationTrace:
    """Integrate the closed loop driven by the law `gains` over the scenario horizon.

    gains is a law record (FreeInletGain or FixedInletGains) for the
    scenario's road.  It is bound to the oracle grid once, by
    gains.controller; every stage then takes u and f(rho) from that bound
    law, which checks the density domain, the flow's positivity and the
    range of u on each call.  The inlet node is frozen when
    gains.pins_inlet.  The initial profile is linearly resampled onto the
    oracle grid.  After each output interval the state must be finite and
    inside the escape band.  metadata records the step count, the CFL number
    and the mass-balance residual
    |integral (rho_T - rho_0) dx - integral (inlet - outlet) dt|, both by
    trapezoids over the snapshots.
    """
    if not callable(getattr(gains, "controller", None)):
        raise DomainError(f"unsupported gains record {type(gains).__name__}")
    check_pairing(gains, scenario)
    d = scenario.diagram
    n = settings.n_cells
    x = np.linspace(0.0, scenario.length, n + 1)
    h = scenario.length / n
    rho = np.interp(x, scenario.rho0.x, scenario.rho0.values)

    smax = d.max_abs_slope
    cap = settings.cfl_cap * h / smax
    if settings.dt is not None:
        if settings.dt > cap * (1.0 + 1e-9):
            raise StepSizeError(
                f"dt {settings.dt:.3e} exceeds the stability cap {cap:.3e} "
                f"(cfl_cap {settings.cfl_cap} at {n} cells)")
        base = settings.dt
    else:
        base = cap
    interval = float(scenario.output_times[1] - scenario.output_times[0])
    n_steps = max(1, int(np.ceil(interval / base * (1.0 - 1e-12))))
    dt = interval / n_steps

    sup0 = scenario.rho0.sup_deviation()
    escape = settings.escape_factor * max(sup0, 0.05 * d.rho_max)

    law = gains.controller(d, x, ORACLE_U_TOL)
    pins = gains.pins_inlet
    # -np.gradient(q, h, edge_order=2) with each term negated, which is
    # exact: numpy's interior quotient and end closures, signs flipped
    two_h = 2.0 * h
    inlet_c = (1.5 / h, -2.0 / h, 0.5 / h)
    outlet_c = (-0.5 / h, 2.0 / h, -1.5 / h)

    def rhs(state: np.ndarray) -> np.ndarray:
        u, fv, _ = law(state)
        q = u * fv
        out = np.empty_like(q)
        out[1:-1] = (q[:-2] - q[2:]) / two_h
        out[0] = 0.0 if pins else inlet_c[0] * q[0] + inlet_c[1] * q[1] + inlet_c[2] * q[2]
        out[-1] = outlet_c[0] * q[-3] + outlet_c[1] * q[-2] + outlet_c[2] * q[-1]
        return out

    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0

    def rk4_step(state: np.ndarray) -> np.ndarray:
        k1 = rhs(state)
        k2 = rhs(state + half_dt * k1)
        k3 = rhs(state + half_dt * k2)
        k4 = rhs(state + dt * k3)
        return state + sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def euler_upwind_step(state: np.ndarray) -> np.ndarray:
        u, fv, _ = law(state)
        q = u * fv
        speed = u * np.asarray(d.flow_slope(state), dtype=float)
        slope = np.diff(q) / h
        back = np.concatenate((slope[:1], slope))  # no left neighbour; one-sided closure
        fwd = np.concatenate((slope, slope[-1:]))
        dq = np.where(speed >= 0.0, back, fwd)
        if pins:
            dq[0] = 0.0
        return state - dt * dq

    step = rk4_step if settings.scheme == "central_flux_rk4" else euler_upwind_step
    targets = scenario.output_times
    rho_out = np.empty((targets.size, x.size))
    rho_out[0] = rho
    for j in range(1, targets.size):
        for _ in range(n_steps):
            rho = step(rho)
        if not np.all(np.isfinite(rho)):
            raise SolverDivergenceError(
                f"state became non-finite near t = {targets[j]:.6g}")
        worst = float(np.max(np.abs(rho - scenario.rho_star)))
        if worst > escape or float(np.min(rho)) < -1e-9 * d.rho_max:
            raise SolverDivergenceError(
                f"deviation {worst:.3g} escaped the band {escape:.3g} "
                f"near t = {targets[j]:.6g}")
        rho_out[j] = rho

    trace = law_trace(
        gains, d, targets, x, rho_out, ORACLE_U_TOL, metadata={
            "law": gains.law,
            "oracle": True,
            "rho_star": scenario.rho_star,
            "scheme": settings.scheme,
            "n_cells": n,
            "dt": dt,
            "steps": n_steps * (targets.size - 1),
            "cfl": dt * smax / h,
        })
    trace.metadata["mass_balance_residual"] = float(abs(
        np.trapezoid(trace.rho[-1] - trace.rho[0], trace.x)
        - np.trapezoid(trace.inlet_flow - trace.outlet_flow, trace.times)))
    return trace


@dataclass(frozen=True)
class TraceComparison:
    """Per-snapshot sup gaps between two traces, on the first trace's grid."""

    times: np.ndarray
    density_gaps: np.ndarray
    control_gaps: np.ndarray

    @property
    def max_density_gap(self) -> float:
        return float(np.max(self.density_gaps))

    @property
    def max_control_gap(self) -> float:
        return float(np.max(self.control_gaps))


def compare(a: SimulationTrace, b: SimulationTrace) -> TraceComparison:
    """Sup-norm gaps in rho and u at matching output times.

    The second trace is linearly resampled onto the first trace's grid, so
    pass the reference (finer or semi-analytic) trace first when grids
    differ.
    """
    if a.times.size != b.times.size or np.max(np.abs(a.times - b.times)) > 1e-9 * max(
            1.0, float(a.times[-1])):
        raise DomainError("traces were recorded at different output times")
    same_grid = a.x.size == b.x.size and np.array_equal(a.x, b.x)
    dg = np.empty(a.times.size)
    cg = np.empty(a.times.size)
    for j in range(a.times.size):
        if same_grid:
            rb, ub = b.rho[j], b.u[j]
        else:
            rb = np.interp(a.x, b.x, b.rho[j])
            ub = np.interp(a.x, b.x, b.u[j])
        dg[j] = float(np.max(np.abs(a.rho[j] - rb)))
        cg[j] = float(np.max(np.abs(a.u[j] - ub)))
    return TraceComparison(times=a.times.copy(), density_gaps=dg, control_gaps=cg)
