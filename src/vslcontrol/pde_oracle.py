"""Direct method-of-lines integration of the controlled conservation law.

Cross-checks the semi-analytic simulators by integrating

    rho_t + d/dx [ u(rho) f(rho) ] = 0

with the feedback u recomputed from the current grid state at every stage,
by one scheme: a second-order central flux difference driven by the
three-stage strong-stability-preserving RK3 of Shu and Osher.  Both closed
loops have classical solutions, with no shocks, so no shock-robust
first-order fallback is kept.  The law's trapezoid D and the stencil make
the scheme O(h^2) whatever the integrator, and at the CFL steps used the
time error of RK3 sits far below that space error, so a fourth RK4 stage
would buy accuracy no check can see.  A law that pins its inlet (the
fixed-inlet law holds rho(t, 0) = rho_star) has its inlet node frozen; the
free-inlet law sets the inlet flow through u itself and needs no boundary
pin.

The law is bound to the oracle grid once per run (gains.controller), and
the run binds its buffers once: the state, a stage state, the flux and
k1..k3.  A right-hand side pays only for what changes with the state: one
evaluation of the law and a slice stencil equal, operation for operation,
to -np.gradient(q, h, edge_order=2).  Every state gets one min/max pass,
which serves the law's domain check (and the fixed law's sup norm).  The
stage states of stages 2 and 3 get theirs inside the law.  The state a
step starts from got its pass at the end of the step before, and that one
pass serves the CFL range test, the interval-end checks and the next
stage-1 evaluation, which takes it as evaluate(rho, span).  A step
combines its three stages in place with the operations of one written
formula, so every bit is that of the plain loop.

The time step is sized from the grid state alone: the density range of
the state a step starts from bounds the wave speed max|f'| that sets its
CFL step, and a size is reused only while the state stays inside the
range it was sized for, so no step runs above the CFL cap and none is
discarded.  A run whose step count at the diagram's largest wave speed
exceeds MAX_STEPS is refused before its first step.

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
# a run diverges once its sup-norm deviation from rho_star exceeds
# ESCAPE_FACTOR * max(initial sup deviation, 0.05 * rho_max)
ESCAPE_FACTOR = 4.0
# the most steps a run may take at the diagram's largest wave speed
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class OracleSettings:
    """Grid resolution and CFL cap of the oracle.

    A step is at most cfl_cap * h / s, where s is max|f'| over the density
    range of the state it starts from (see integrate).  The default cap is
    the one the acceptance tests verify: halving it moves the densities by
    under 5 % of the 400-cell gap to the closed form on every preset, and
    of the 60-cell gap on short bump scenarios.
    """

    n_cells: int = 400
    cfl_cap: float = 0.8

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
    range of u on each call, from one min/max pass over the stage state
    (stage 1 hands it the pass the state already had).
    The inlet node is frozen when gains.pins_inlet.  The initial profile
    is linearly resampled onto the oracle grid.  The state, stage and
    k1..k3 buffers are bound once per run, and each step is one SSP-RK3
    step: three evaluations of the law.

    The time left in an output interval is split into the fewest equal
    steps with dt * s / h <= cfl_cap, s being max|f'| over the range
    [lo, hi] of the current state clipped to [0, rho_max]
    (ExponentialDiagram.slope_bound, in closed form), and those steps run
    while the state stays inside [lo, hi].  A step whose result leaves
    [lo, hi] stands and the time left is sized again from its state, so
    every step starts inside the range its dt was sized for and none is
    discarded.  Before the first step, the steps the run would take at
    the diagram's largest wave speed, max_abs_slope, which bounds every
    range's slope_bound, must not exceed MAX_STEPS, or DomainError is
    raised.

    After each output interval the state must be finite and its sup-norm
    deviation from rho_star within the escape band (see ESCAPE_FACTOR),
    or SolverDivergenceError is raised; both checks read the range of the
    step's min/max pass.  metadata records "steps", the steps taken;
    "cfl", the largest realised CFL number dt * s / h; and
    "mass_balance_residual", |trapezoid integral of (rho_T - rho_0) - net|.
    The right-hand side summed with trapezoid weights telescopes to B, the
    inlet less the outlet flow, so net sums (dt/6) (B1 + B2 + 4 B3) over
    each step's stages and the residual is rounding on a correct stencil.
    """
    if not callable(getattr(gains, "controller", None)):
        raise DomainError(f"unsupported gains record {type(gains).__name__}")
    check_pairing(gains, scenario)
    d = scenario.diagram
    n = settings.n_cells
    h = scenario.length / n
    targets = scenario.output_times
    interval = float(targets[1] - targets[0])
    # kept a float: a count that overflows to inf is refused, not rounded
    worst = (targets.size - 1) * interval * d.max_abs_slope / (settings.cfl_cap * h)
    if not worst <= MAX_STEPS:
        raise DomainError(
            f"the oracle would take about {worst:.3g} steps at the diagram's largest "
            f"wave speed, over the budget of {MAX_STEPS} (MAX_STEPS); "
            "raise [oracle] cfl_cap or lower n_cells")
    x = np.linspace(0.0, scenario.length, n + 1)
    rho = np.interp(x, scenario.rho0.x, scenario.rho0.values)

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
    # state, a stage state, the flux q and k1..k3
    state, stage, q = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    k1, k2, k3 = np.empty((3, x.size))
    q_left, q_right, q_head, q_tail = q[:-2], q[2:], q[:3], q[-3:]
    inner = [k[1:-1] for k in (k1, k2, k3)]

    def rhs(at: np.ndarray, out: np.ndarray, interior: np.ndarray,
            span: tuple[float, float] | None = None) -> float:
        """The right-hand side at `at`, into out; returns its sum under
        trapezoid weights, which telescopes to inlet minus outlet flow.
        span is at's (min, max) when the caller holds it, for the law."""
        u, fv, _ = law(at, span)
        np.multiply(u, fv, out=q)
        np.divide(np.subtract(q_left, q_right, out=interior), two_h, out=interior)
        q0, q1, q2 = q_head.tolist()
        if pins:
            out[0] = 0.0
            inflow = 0.5 * (q0 + q1)
        else:
            out[0] = inlet_c[0] * q0 + inlet_c[1] * q1 + inlet_c[2] * q2
            inflow = 0.25 * (5.0 * q0 - 2.0 * q1 + q2)
        q0, q1, q2 = q_tail.tolist()
        out[-1] = outlet_c[0] * q0 + outlet_c[1] * q1 + outlet_c[2] * q2
        return inflow - 0.25 * (5.0 * q2 - 2.0 * q1 + q0)

    def ssp_rk3_step(dt: float, span: tuple[float, float]) -> float:
        """One SSP-RK3 step of the state, in place, with the operations of
        state + (dt/6) (k1 + k2 + 4 k3) and its stage states state + dt k1
        and state + (dt/4) (k1 + k2); k1 + k2 is formed once.  Returns the
        step's net inflow, (dt/6) (B1 + B2 + 4 B3) from the stages' balances.
        span is the state's (min, max), which stage 1 hands to the law."""
        b1 = rhs(state, k1, inner[0], span)
        b2 = rhs(np.add(state, np.multiply(dt, k1, out=stage), out=stage), k2, inner[1])
        np.add(k1, k2, out=k1)
        b3 = rhs(np.add(state, np.multiply(dt / 4.0, k1, out=stage), out=stage), k3, inner[2])
        np.add(k1, np.multiply(4.0, k3, out=k3), out=k1)
        np.add(state, np.multiply(dt / 6.0, k1, out=k1), out=state)
        return dt / 6.0 * (b1 + b2 + 4.0 * b3)

    rho_out = np.empty((targets.size, x.size))
    rho_out[0] = state[:] = rho
    taken = 0
    cfl = net = 0.0
    # the range of the latest state: one min/max pass after every step
    # serves the range check, the next step's stage-1 evaluation and, at an
    # interval's end, the finite and escape checks
    seen_lo, seen_hi = state.item(state.argmin()), state.item(state.argmax())
    for j in range(1, targets.size):
        n_left, dt = 1, interval  # the time left: n_left steps of dt
        while n_left:
            lo, hi = seen_lo, seen_hi
            s = d.slope_bound(max(lo, 0.0), min(hi, d.rho_max))
            time_left = n_left * dt
            n_left = max(1, math.ceil(time_left * s / (settings.cfl_cap * h)))
            if time_left / n_left * s / h > settings.cfl_cap:
                n_left += 1  # the quotient above rounded down onto an integer
            dt = time_left / n_left
            cfl = max(cfl, dt * s / h)
            while n_left:
                net += ssp_rk3_step(dt, (seen_lo, seen_hi))
                taken += 1
                n_left -= 1
                seen_lo, seen_hi = state.item(state.argmin()), state.item(state.argmax())
                if seen_lo < lo or seen_hi > hi:
                    break
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
            "oracle": True,
            "n_cells": n,
            "steps": taken,
            "cfl": cfl,
        })
    trace.metadata["mass_balance_residual"] = abs(
        float(np.trapezoid(rho_out[-1] - rho_out[0], x)) - net)
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
