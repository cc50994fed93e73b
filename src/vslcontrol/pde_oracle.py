"""Direct method-of-lines integration of the controlled conservation law.

Cross-checks the semi-analytic simulators by integrating

    rho_t + d/dx [ u(rho) f(rho) ] = 0

with the feedback u recomputed from the current grid state at every stage,
by one scheme: a second-order central flux difference driven by classic
RK4.  Both closed loops have classical solutions, with no shocks, so no
shock-robust first-order fallback is kept.  A law that pins its inlet (the
fixed-inlet law holds rho(t, 0) = rho_star) has its inlet node frozen; the
free-inlet law sets the inlet flow through u itself and needs no boundary
pin.

The law is bound to the oracle grid once per run (gains.controller), so a
right-hand side pays only for what changes with the state: one evaluation
of the law, with its domain and escape checks, and a slice stencil equal,
operation for operation, to -np.gradient(q, h, edge_order=2).

The time step is sized per output interval from the grid state alone:
the state's density range at the start of the interval, widened by a fixed
margin into a speed band, bounds the wave speed max|f'| that sets the CFL
step.  A state that leaves its speed band during the interval sends the
interval back to its start with a band wide enough to cover what was seen,
so no step runs above the CFL cap.

This module trades accuracy for independence: nothing here reuses the
closed-form structure of the laws beyond the feedback formulas themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverDivergenceError
from .profile import Scenario, check_pairing
from .trace import SimulationTrace, law_trace

ORACLE_U_TOL = 1e-3  # discretization wiggle allowance on u <= 1
# the speed band of an output interval is the state's range [lo, hi] widened
# on each side by BAND_REL * (hi - lo) + BAND_ABS * rho_max; its max|f'| is
# sampled at BAND_SAMPLES points
BAND_REL = 0.1
BAND_ABS = 1e-3
BAND_SAMPLES = 257
# a run diverges once its sup-norm deviation from rho_star exceeds
# ESCAPE_FACTOR * max(initial sup deviation, 0.05 * rho_max)
ESCAPE_FACTOR = 4.0


@dataclass(frozen=True)
class OracleSettings:
    """Grid resolution and CFL cap of the oracle.

    Each output interval's step is cfl_cap * h / s, shrunk to divide the
    interval exactly, where s is max|f'| over the state's own density band
    (see integrate).
    """

    n_cells: int = 400
    cfl_cap: float = 0.4

    def __post_init__(self):
        if self.n_cells < 4:
            raise DomainError("need at least 4 cells")
        if not (0.0 < self.cfl_cap <= 1.0):
            raise DomainError("cfl_cap must lie in (0, 1]")


def integrate(scenario: Scenario, gains, settings: OracleSettings = OracleSettings()
              ) -> SimulationTrace:
    """Integrate the closed loop driven by the law `gains` over the scenario horizon.

    gains is a law record (FreeInletGain or FixedInletGains) for the
    scenario's road.  It is bound to the oracle grid once, by
    gains.controller; every stage then takes u and f(rho) from that bound
    law, which checks the density domain, the flow's positivity and the
    range of u on each call.  The inlet node is frozen when
    gains.pins_inlet.  The initial profile is linearly resampled onto the
    oracle grid.

    Each output interval gets its own uniform step.  The state's range
    [lo, hi] at the start of the interval, widened by
    BAND_REL * (hi - lo) + BAND_ABS * rho_max on each side, is its speed
    band; s is max|f'| over the band clipped to [0, rho_max], sampled at
    BAND_SAMPLES points, and the interval takes the fewest equal steps
    with dt * s / h <= cfl_cap.  After every step the state's min and max
    must stay inside the speed band; if they leave it, the interval is run
    again from its start with the band rebuilt around everything seen.

    After each output interval the state must be finite and its sup-norm
    deviation from rho_star within the escape band (see ESCAPE_FACTOR),
    or SolverDivergenceError is raised.  metadata records "steps", every
    step taken, those of discarded attempts included;
    "steps_per_interval", the steps of each interval's kept attempt;
    "redone_intervals", the number of discarded attempts; "cfl", the
    largest realised CFL number dt * s / h; and the mass-balance residual
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
    targets = scenario.output_times
    interval = float(targets[1] - targets[0])

    def plan(lo: float, hi: float) -> tuple[float, float, int, float]:
        """Speed band limits, step count and speed bound s for an interval
        whose states span [lo, hi]."""
        margin = BAND_REL * (hi - lo) + BAND_ABS * d.rho_max
        below, above = lo - margin, hi + margin
        grid = np.linspace(max(below, 0.0), min(above, d.rho_max), BAND_SAMPLES)
        s = float(np.max(np.abs(d.flow_slope(grid))))
        n_steps = max(1, math.ceil(interval * s / (settings.cfl_cap * h)))
        if interval / n_steps * s / h > settings.cfl_cap:
            n_steps += 1  # the quotient above rounded down onto an integer
        return below, above, n_steps, s

    sup0 = scenario.rho0.sup_deviation()
    escape = ESCAPE_FACTOR * max(sup0, 0.05 * d.rho_max)

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

    def rk4_step(state: np.ndarray, dt: float) -> np.ndarray:
        half_dt = 0.5 * dt
        k1 = rhs(state)
        k2 = rhs(state + half_dt * k1)
        k3 = rhs(state + half_dt * k2)
        k4 = rhs(state + dt * k3)
        return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    rho_out = np.empty((targets.size, x.size))
    rho_out[0] = rho
    steps_per_interval = []
    taken = 0
    redone = 0
    cfl = 0.0
    for j in range(1, targets.size):
        start = rho
        lo, hi = float(start.min()), float(start.max())
        while True:
            below, above, n_steps, s = plan(lo, hi)
            dt = interval / n_steps
            rho = start
            for _ in range(n_steps):
                rho = rk4_step(rho, dt)
                taken += 1
                seen_lo, seen_hi = float(rho.min()), float(rho.max())
                if seen_lo < below or seen_hi > above:
                    break
            else:
                break
            lo, hi = min(lo, seen_lo), max(hi, seen_hi)
            redone += 1
        steps_per_interval.append(n_steps)
        cfl = max(cfl, dt * s / h)
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
            "n_cells": n,
            "steps": taken,
            "steps_per_interval": steps_per_interval,
            "redone_intervals": redone,
            "cfl": cfl,
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
    # np.interp returns fp[j] itself at x = xp[j], so equal grids compare bitwise
    rb = np.array([np.interp(a.x, b.x, row) for row in b.rho])
    ub = np.array([np.interp(a.x, b.x, row) for row in b.u])
    return TraceComparison(times=a.times.copy(),
                           density_gaps=np.max(np.abs(a.rho - rb), axis=1),
                           control_gaps=np.max(np.abs(a.u - ub), axis=1))
