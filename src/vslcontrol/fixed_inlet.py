"""Speed-limit feedback for a road whose inlet releases the target flow.

The law holds the inlet at the target flow f(rho_star) and relaxes the
interior through

    u(t, x) = [ f(rho_star) + sigma * D(x) - (gamma x^2 / 2) * S(t) ] / f(rho(t, x))

with D(x) the running deviation integral and S(t) the sup-norm deviation.
It applies on the invariant family of admissible profiles: rho(0) = rho_star
and f(rho_star) + sigma D(x) - (gamma x^2 / 2) S <= f(rho(x)) everywhere,
which keeps u in (0, 1] with u(t, 0) = 1.

Calibration checks the sufficient margin conditions

    f(rho_star)  > sigma L (rho_max + rho_star) / 2          (flow margin)
    f'(rho_star) > sigma L                                   (slope margin)
    sigma Q a^2 / (2 (q + sigma L)(rho_max - rho_star)) > gamma L
                                                             (curvature margin)
    sigma > gamma L                                          (rate margin)

where a is the width of the band above rho_star on which f' stays above
sigma L, Q = min(-f'') and q = max(0, max(-f')) past that band.  When they
hold the deviation decays like exp(-(sigma - gamma L) t).  The closed loop
reduces to rho_t = -sigma (rho - rho_star) + gamma x S(t), so simulation is
a single whole-horizon fixed-point problem for S, solved by
`picard.iterate` with contraction factor gamma L / sigma < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CertificationError, DomainError, StateEscapeError
from .fundamental_diagram import FundamentalDiagram, _bisect
from .picard import PicardSettings, iterate
from .profile import DensityProfile, Scenario, check_pairing
from .quadrature import cumulative_trapezoid, integral_to, running_trapezoid
from .trace import SimulationTrace, law_trace

U_TOL = 1e-9  # tolerance band on u <= 1 for semi-analytic states
_BLOCK_ELEMENTS = 65536  # entries in simulate's Picard work block (512 KiB)


@dataclass(frozen=True)
class ConditionResult:
    """One sufficient condition, evaluated: lhs must exceed rhs."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    note: str = ""

    def __str__(self) -> str:
        extra = f" ({self.note})" if self.note else ""
        return f"{self.name}: {self.lhs:.9g} > {self.rhs:.9g}: " \
               f"{'pass' if self.passed else 'FAIL'}{extra}"


@dataclass(frozen=True)
class FixedInletGains:
    """Gains (sigma, gamma) plus the constants derived during calibration.

    decay_rate = sigma - gamma * length; slope_reserve is the band width a
    above; min_concavity and max_back_slope are the Q and q grid estimates.
    certified is True when every sufficient condition passed.

    The record is the law: `controller` binds it to a node grid and
    `controls` evaluates u there once, the inlet node is held at rho_star
    (pins_inlet is True), and `law` names it in metadata.
    """

    law = "fixed_inlet"
    pins_inlet = True

    sigma: float
    gamma: float
    length: float
    rho_star: float
    decay_rate: float
    slope_reserve: float
    min_concavity: float
    max_back_slope: float
    certified: bool
    conditions: tuple[ConditionResult, ...] = field(default=())

    def failed_conditions(self) -> tuple[ConditionResult, ...]:
        return tuple(c for c in self.conditions if not c.passed)

    def controller(self, diagram: FundamentalDiagram, x: np.ndarray, u_tol: float = U_TOL
                   ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, None]]:
        """The law on the nodes x: evaluate(rho) -> (u, f(rho), None).

        u is exactly 1 at x = 0 on admissible data.  Every evaluation runs
        the diagram's domain check and raises StateEscapeError when the flow
        vanishes or u leaves (0, 1 + u_tol]; u is clipped to 1.
        """
        budget = _flow_budget(self, diagram, x)
        rho_star, flow, dx, ceiling = self.rho_star, diagram.flow, np.diff(x), 1.0 + u_tol

        def evaluate(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
            dev = rho - rho_star
            top = budget(running_trapezoid(dx, dev), float(np.abs(dev).max()))
            fv = np.asarray(flow(rho), dtype=float)
            # fmin/fmax skip NaN exactly as the elementwise comparisons do
            if np.fmin.reduce(fv) <= 0.0:
                raise StateEscapeError("flow vanished; control undefined")
            u = top / fv
            if np.fmin.reduce(u) <= 0.0 or np.fmax.reduce(u) > ceiling:
                bad = (u <= 0.0) | (u > ceiling)
                i = int(np.argmax(np.where(bad, np.abs(u - 0.5), -1.0)))
                raise StateEscapeError(
                    f"control {u[i]:.6g} left (0, 1] at x = {x[i]:.6g}; profile not admissible")
            return np.minimum(u, 1.0), fv, None

        return evaluate

    def controls(self, diagram: FundamentalDiagram, x: np.ndarray, rho: np.ndarray,
                 u_tol: float = U_TOL) -> tuple[np.ndarray, np.ndarray, None]:
        """(u, f(rho), None) at the nodes x for densities rho."""
        return self.controller(diagram, x, u_tol)(rho)


def calibrate(diagram: FundamentalDiagram, rho_star: float, length: float,
              sigma: float, gamma: float, mode: str = "strict") -> FixedInletGains:
    """Evaluate the sufficient conditions and package the gains.

    mode="strict" raises CertificationError naming the first failed
    condition; mode="override" returns the gains with certified=False and
    the full condition list, so a run can proceed at the caller's risk.
    """
    if mode not in ("strict", "override"):
        raise DomainError(f"unknown calibration mode {mode!r}")
    if not all(math.isfinite(v) and v > 0.0 for v in (sigma, gamma, length)):
        raise DomainError("sigma, gamma and length must be finite and positive")
    ceiling = min(diagram.delta, diagram.critical_density, diagram.rho_max / 2.0)
    if not (0.0 < rho_star < ceiling):
        raise DomainError(
            f"rho_star must lie in (0, {ceiling:.6g}) "
            "= (0, min(delta, critical density, rho_max/2))")

    f_star = float(diagram.flow(rho_star))
    slope_star = float(diagram.flow_slope(rho_star))
    sl = sigma * length
    conditions: list[ConditionResult] = []

    flow_rhs = sl * (diagram.rho_max + rho_star) / 2.0
    conditions.append(ConditionResult(
        "flow_margin", f_star, flow_rhs, f_star > flow_rhs,
        "target flow versus sigma*L*(rho_max+rho_star)/2"))
    conditions.append(ConditionResult(
        "slope_margin", slope_star, sl, slope_star > sl,
        "flow slope at the target versus sigma*L"))

    rho_cr = diagram.critical_density
    if slope_star > sl:
        top = rho_cr - rho_star
        reserve = _bisect(lambda aa: float(diagram.flow_slope(rho_star + aa)) - sl,
                          0.0, top, slope_star - sl)
    else:
        reserve = float("nan")

    grid_all = np.linspace(0.0, diagram.rho_max, 2001)
    min_concavity = float(np.min(-np.asarray(diagram.flow_curvature(grid_all))))
    if np.isfinite(reserve):
        band = np.linspace(rho_star + reserve, diagram.rho_max, 2001)
        back = float(np.max(-np.asarray(diagram.flow_slope(band))))
        max_back_slope = max(0.0, back)
        curve_lhs = sigma * min_concavity * reserve ** 2 / (
            2.0 * (max_back_slope + sl) * (diagram.rho_max - rho_star))
    else:
        max_back_slope = float("nan")
        curve_lhs = float("nan")
    conditions.append(ConditionResult(
        "curvature_margin", curve_lhs, gamma * length,
        bool(np.isfinite(curve_lhs) and curve_lhs > gamma * length),
        "relaxation margin versus gamma*L" if np.isfinite(curve_lhs)
        else "slope margin failed; no reserve band exists"))
    conditions.append(ConditionResult(
        "rate_margin", sigma, gamma * length, sigma > gamma * length,
        "sigma versus gamma*L"))

    certified = all(c.passed for c in conditions)
    if mode == "strict" and not certified:
        first = next(c for c in conditions if not c.passed)
        raise CertificationError(f"sufficient condition failed: {first}")
    return FixedInletGains(
        sigma=sigma, gamma=gamma, length=length, rho_star=rho_star,
        decay_rate=sigma - gamma * length, slope_reserve=reserve,
        min_concavity=min_concavity, max_back_slope=max_back_slope,
        certified=certified, conditions=tuple(conditions))


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    min_slack: float
    argmin_x: float
    boundary_gap: float


def admissible(gains: FixedInletGains, diagram: FundamentalDiagram,
               profile: DensityProfile) -> AdmissibilityResult:
    """Whether the profile lies in the invariant family of the law.

    Checks rho(0) = rho_star (within 1e-9 * rho_max) and the flow-slack
    inequality at every grid node; reports the worst slack and where.
    """
    check_pairing(gains, profile)
    boundary_gap = abs(float(profile.values[0]) - gains.rho_star)
    boundary_ok = boundary_gap <= 1e-9 * diagram.rho_max
    lhs = _flow_budget(gains, diagram, profile.x)(profile.node_deviation_integrals(),
                                                  profile.sup_deviation())
    slack = np.asarray(diagram.flow(profile.values), dtype=float) - lhs
    idx = int(np.argmin(slack))
    min_slack = float(slack[idx])
    return AdmissibilityResult(boundary_ok and min_slack >= 0.0,
                               min_slack, float(profile.x[idx]), boundary_gap)


def control_profile(gains: FixedInletGains, diagram: FundamentalDiagram,
                    profile: DensityProfile, u_tol: float = U_TOL) -> np.ndarray:
    """u at every grid node."""
    check_pairing(gains, profile)
    return gains.controls(diagram, profile.x, profile.values, u_tol)[0]


def simulate(scenario: Scenario, gains: FixedInletGains,
             settings: PicardSettings = PicardSettings()) -> SimulationTrace:
    """Closed-loop run over the scenario horizon.

    Solves the whole-horizon fixed point for the sup-norm deviation path
    (valid because gamma L / sigma < 1 uniformly in the horizon), then
    evaluates the closed-form state at the output times.  The fixed-point
    grid carries settings.time_samples nodes per unit time.
    """
    d = scenario.diagram
    check_pairing(gains, scenario)
    adm = admissible(gains, d, scenario.rho0)
    if not adm.ok:
        raise DomainError(
            f"initial profile is not admissible (slack {adm.min_slack:.3e} "
            f"at x = {adm.argmin_x:.6g}, boundary gap {adm.boundary_gap:.3e})")
    factor = gains.gamma * gains.length / gains.sigma
    if factor >= 1.0:
        raise DomainError("sigma must exceed gamma * length for the "
                          "fixed-point iteration to contract")

    x = scenario.rho0.x
    dev0 = scenario.rho0.values - gains.rho_star
    sup0 = scenario.rho0.sup_deviation()
    n_sub = max(settings.time_samples, int(np.ceil(scenario.horizon * settings.time_samples)))
    tn = np.linspace(0.0, scenario.horizon, n_sub + 1)
    g, iters, worst_ratio = _sup_path(gains, x, dev0, sup0, tn, settings)

    wJ = np.exp(gains.sigma * tn) * g
    cumJ = cumulative_trapezoid(tn, wJ)
    targets = scenario.output_times
    rho_out = np.empty((targets.size, x.size))
    for j, t in enumerate(targets):
        Jt = integral_to(tn, wJ, cumJ, float(t))
        damp = float(np.exp(-gains.sigma * t))
        rho_out[j] = gains.rho_star + damp * dev0 + gains.gamma * x * (damp * Jt)
    dev = rho_out - gains.rho_star
    gap = float(np.max(np.max(np.abs(dev), axis=1) - np.max(dev, axis=1)))
    gap_tol = 1e-8 * max(1.0, sup0)
    return law_trace(
        gains, d, targets, x, rho_out, U_TOL, metadata={
            "law": gains.law,
            "sigma": gains.sigma,
            "gamma": gains.gamma,
            "length": gains.length,
            "rho_star": gains.rho_star,
            "decay_rate_bound": gains.decay_rate,
            "certified": gains.certified,
            "conditions": [str(c) for c in gains.conditions],
            "slope_reserve": gains.slope_reserve,
            "min_concavity": gains.min_concavity,
            "max_back_slope": gains.max_back_slope,
            "signed_sup_gap": gap,
            "signed_sup_gap_flagged": bool(gap > gap_tol),
            "picard": {
                "windows": 1,
                "max_iterations": iters,
                "max_contraction_ratio": worst_ratio,
                "factor_bound": factor,
                "tol": settings.tol,
            },
        })


def _sup_path(gains: FixedInletGains, x: np.ndarray, dev0: np.ndarray, sup0: float,
              tn: np.ndarray, settings: PicardSettings) -> tuple[np.ndarray, int, float]:
    """Whole-horizon Picard iteration for the signed sup path g on tn.

    g(t) = exp(-sigma t) max_i (dev0_i + gamma x_i J(t)), with J the running
    integral of exp(sigma s) g(s).  Returns g, the iteration count and the
    worst ratio of successive sup-norm updates.
    """
    grow = np.exp(gains.sigma * tn)
    shrink = np.exp(-gains.sigma * tn)
    # max_i (dev0_i + gamma J(t) x_i) is taken over blocks of time rows in
    # one reused buffer of about _BLOCK_ELEMENTS entries, so memory stays
    # O(n_t + n) whatever the horizon; the max is exact in any order
    rows = max(1, _BLOCK_ELEMENTS // x.size)
    block = np.empty((min(rows, tn.size), x.size))
    peak = np.empty(tn.size)

    def update(g: np.ndarray) -> np.ndarray:
        gJ = gains.gamma * cumulative_trapezoid(tn, grow * g)
        for s in range(0, tn.size, rows):
            e = min(s + rows, tn.size)
            b = block[:e - s]
            np.multiply(gJ[s:e, None], x, out=b)
            b += dev0
            b.max(axis=1, out=peak[s:e])
        return shrink * peak

    return iterate(update, np.full(tn.size, sup0), settings, "whole-horizon iteration")


def _flow_budget(gains: FixedInletGains, diagram: FundamentalDiagram, x: np.ndarray
                 ) -> Callable[[np.ndarray, float], np.ndarray]:
    """(D, S) -> f(rho_star) + sigma D - (gamma x^2 / 2) S on the nodes x.

    f(rho_star) and gamma x^2 / 2 are computed here, once per grid.
    """
    f_star = float(diagram.flow(gains.rho_star))
    sigma = gains.sigma
    quad = 0.5 * gains.gamma * x ** 2
    return lambda node_integrals, sup: f_star + sigma * node_integrals - quad * sup
