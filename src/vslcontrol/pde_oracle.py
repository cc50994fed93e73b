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

The law is bound to the oracle grid once per run (gains.controller), and
the run binds its buffers once: the state, a stage state, the flux and
k1..k4.  A right-hand side pays only for what changes with the state: one
evaluation of the law, whose one min/max pass over the stage state serves
its domain check (and the fixed law's sup norm), and a slice stencil equal,
operation for operation, to -np.gradient(q, h, edge_order=2).  RK4 combines
the stages in place with the operations of the textbook formula, so every
bit is that of the plain loop.

The time step is sized per output interval from the grid state alone:
the state's density range at the start of the interval, widened by a fixed
margin into a speed band, bounds the wave speed max|f'| that sets the CFL
step.  A state that leaves its speed band during the interval sends the
interval back to its start with a band rebuilt around the drift seen,
extrapolated over the whole interval, so no step runs above the CFL cap.

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
# on each side by BAND_REL * (hi - lo) + BAND_ABS * rho_max
BAND_REL = 0.1
BAND_ABS = 1e-3
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
    range of u on each call, from one min/max pass over the stage state.
    The inlet node is frozen when gains.pins_inlet.  The initial profile
    is linearly resampled onto the oracle grid.  The state, stage and
    k1..k4 buffers are bound once per run.

    Each output interval gets its own uniform step.  The state's range
    [lo, hi] at the start of the interval, widened by
    BAND_REL * (hi - lo) + BAND_ABS * rho_max on each side, is its speed
    band; s is max|f'| over the band clipped to [0, rho_max], in closed
    form (ExponentialDiagram.slope_bound), and the interval takes the
    fewest equal steps with dt * s / h <= cfl_cap.  After every step one
    min/max pass gives the state's range, which must stay inside the speed
    band.  If it leaves the band after m of n steps, the interval is run
    again from its start with [lo, hi] widened to the range seen, its
    drift from the start extrapolated by n / m.

    After each output interval the state must be finite and its sup-norm
    deviation from rho_star within the escape band (see ESCAPE_FACTOR),
    or SolverDivergenceError is raised; both checks read the range of the
    step's min/max pass.  metadata records "steps", every
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
        s = d.slope_bound(max(below, 0.0), min(above, d.rho_max))
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
    # the run's buffers, and the views the stencil reads and writes: the
    # state, a stage state, the flux q and k1..k4
    state, stage, q = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    k1, k2, k3, k4 = np.empty((4, x.size))
    q_left, q_right, q_head, q_tail = q[:-2], q[2:], q[:3], q[-3:]
    inner = [k[1:-1] for k in (k1, k2, k3, k4)]

    def rhs(at: np.ndarray, out: np.ndarray, interior: np.ndarray) -> None:
        u, fv, _ = law(at)
        np.multiply(u, fv, out=q)
        np.divide(np.subtract(q_left, q_right, out=interior), two_h, out=interior)
        if pins:
            out[0] = 0.0
        else:
            q0, q1, q2 = q_head.tolist()
            out[0] = inlet_c[0] * q0 + inlet_c[1] * q1 + inlet_c[2] * q2
        q0, q1, q2 = q_tail.tolist()
        out[-1] = outlet_c[0] * q0 + outlet_c[1] * q1 + outlet_c[2] * q2

    def rk4_step(dt: float) -> None:
        """One RK4 step of the state, in place, with the operations of
        state + (dt/6) (k1 + 2 k2 + 2 k3 + k4) and its stage states."""
        half_dt = 0.5 * dt
        rhs(state, k1, inner[0])
        rhs(np.add(state, np.multiply(half_dt, k1, out=stage), out=stage), k2, inner[1])
        rhs(np.add(state, np.multiply(half_dt, k2, out=stage), out=stage), k3, inner[2])
        rhs(np.add(state, np.multiply(dt, k3, out=stage), out=stage), k4, inner[3])
        np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
        np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        np.add(state, np.multiply(dt / 6.0, k1, out=k1), out=state)

    rho_out = np.empty((targets.size, x.size))
    rho_out[0] = rho
    steps_per_interval = []
    taken = 0
    redone = 0
    cfl = 0.0
    # the range of the latest state: one min/max pass after every step
    # serves the band check and, at an interval's end, the finite and
    # escape checks
    seen_lo, seen_hi = rho.item(rho.argmin()), rho.item(rho.argmax())
    for j in range(1, targets.size):
        lo0, hi0 = lo, hi = seen_lo, seen_hi
        while True:
            below, above, n_steps, s = plan(lo, hi)
            dt = interval / n_steps
            state[:] = rho_out[j - 1]
            for m in range(1, n_steps + 1):
                rk4_step(dt)
                taken += 1
                seen_lo, seen_hi = state.item(state.argmin()), state.item(state.argmax())
                if seen_lo < below or seen_hi > above:
                    break
            else:
                break
            # the attempt left its band after m of n_steps steps: extrapolate
            # the drift seen over the whole interval
            lo = min(lo, lo0 + (seen_lo - lo0) * n_steps / m)
            hi = max(hi, hi0 + (seen_hi - hi0) * n_steps / m)
            redone += 1
        steps_per_interval.append(n_steps)
        cfl = max(cfl, dt * s / h)
        # argmin and argmax point at a NaN if there is one, and at any infinity
        if not (math.isfinite(seen_lo) and math.isfinite(seen_hi)):
            raise SolverDivergenceError(
                f"state became non-finite near t = {targets[j]:.6g}")
        # fl(rho_i - rho_star) is monotone in rho_i: the sup sits at an end
        worst = max(abs(seen_lo - scenario.rho_star), abs(seen_hi - scenario.rho_star))
        if worst > escape or seen_lo < -1e-9 * d.rho_max:
            raise SolverDivergenceError(
                f"deviation {worst:.3g} escaped the band {escape:.3g} "
                f"near t = {targets[j]:.6g}")
        rho_out[j] = state

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
    differ.  Both grids must share their first and last node: traces of
    different roads raise DomainError.
    """
    if a.times.size != b.times.size or np.max(np.abs(a.times - b.times)) > 1e-9 * max(
            1.0, float(a.times[-1])):
        raise DomainError("traces were recorded at different output times")
    # np.interp clamps outside b's nodes.  linspace ends and %.17g round-trip
    # exactly, so one road's grids share both end nodes bit for bit
    if a.x[0] != b.x[0] or a.x[-1] != b.x[-1]:
        raise DomainError(f"traces cover different roads: [{a.x[0]:.6g}, {a.x[-1]:.6g}]"
                          f" and [{b.x[0]:.6g}, {b.x[-1]:.6g}]")
    # np.interp returns fp[j] itself at x = xp[j], so equal grids compare bitwise
    rb = np.array([np.interp(a.x, b.x, row) for row in b.rho])
    ub = np.array([np.interp(a.x, b.x, row) for row in b.u])
    return TraceComparison(times=a.times.copy(),
                           density_gaps=np.max(np.abs(a.rho - rb), axis=1),
                           control_gaps=np.max(np.abs(a.u - ub), axis=1))
