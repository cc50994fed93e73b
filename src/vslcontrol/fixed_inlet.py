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

Each update needs, at every time sample, max_i (dev0_i + gamma x_i J(t)):
the upper envelope of n lines in J.  The upper hull of the points
(x_i, dev0_i), built once per simulation, leaves each time sample a
contiguous run of one or two candidate lines on smooth data, and the max
over that run is the max over all n lines bit for bit.  An update thus
costs O(n + n_t (log n + w)), w the widest run, instead of O(n_t n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CertificationError, DomainError, StateEscapeError
from .fundamental_diagram import ExponentialDiagram, _bisect_all
from .picard import PicardSettings, iterate
from .profile import DensityProfile, Scenario, check_pairing
from .quadrature import cumulative_trapezoid, integral_to, running_trapezoid
from .trace import SimulationTrace, law_trace

U_TOL = 1e-9  # tolerance band on u <= 1 for semi-analytic states
EXP_LIMIT = math.log(np.finfo(float).max)  # exp overflows past this, about 709.78
_BLOCK_ELEMENTS = 65536  # entries in one work block of simulate's Picard max (512 KiB)


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
    above; min_concavity and max_back_slope are Q and q, in closed form.
    certified is True when every sufficient condition passed.

    The record is the law: `controller` binds it to a node grid, the
    inlet node is held at rho_star (pins_inlet is True), and `law` names
    it in metadata.
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

    def controller(self, diagram: ExponentialDiagram, x: np.ndarray, u_tol: float = U_TOL
                   ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, None]]:
        """The law on the nodes x: evaluate(rho) -> (u, f(rho), None).

        u is exactly 1 at x = 0 on admissible data.  Every evaluation runs
        the diagram's domain check and raises StateEscapeError when the flow
        vanishes or u leaves (0, 1 + u_tol]; u is clipped to 1.  u and
        f(rho) live in buffers bound here: they are valid until the next
        call of evaluate.
        """
        budget = _flow_budget(self, diagram, x)
        rho_star, dx, ceiling = self.rho_star, np.diff(x), 1.0 + u_tol
        u, fv, work = np.empty(x.size), np.empty(x.size), np.empty(x.size)

        def evaluate(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
            lo, hi = diagram.density_range(rho)
            # fl(rho_i - rho_star) is monotone in rho_i, so the sup of
            # |rho - rho_star| sits at the state's min or max, exactly
            sup = max(abs(lo - rho_star), abs(hi - rho_star))
            np.subtract(rho, rho_star, out=work)
            budget(running_trapezoid(dx, work, out=u), sup, out=u, scratch=work)
            diagram.flow_into(rho, fv, work)
            # fmin/fmax skip NaN exactly as the elementwise comparisons do.
            # f is NaN only at a negative density under a fractional shape,
            # so on a nonnegative state argmin/argmax, a third of the cost,
            # find the same extremes
            least, most = (np.fmin.reduce, np.fmax.reduce) if lo < 0.0 else (_least, _most)
            if least(fv) <= 0.0:
                raise StateEscapeError("flow vanished; control undefined")
            np.divide(u, fv, out=u)
            if least(u) <= 0.0 or most(u) > ceiling:
                bad = (u <= 0.0) | (u > ceiling)
                i = int(np.argmax(np.where(bad, np.abs(u - 0.5), -1.0)))
                raise StateEscapeError(
                    f"control {u[i]:.6g} left (0, 1] at x = {x[i]:.6g}; profile not admissible")
            return np.minimum(u, 1.0, out=u), fv, None

        return evaluate


def calibrate(diagram: ExponentialDiagram, rho_star: float, length: float,
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

    min_concavity = diagram.min_concavity
    if slope_star > sl:
        # f' falls on [rho_star, rho_cr], where it ends at 0 < sl: the first
        # a with f'(rho_star + a) <= sl, to the bisection's fixed point
        reserve = float(_bisect_all(lambda mid: diagram.flow_slope(rho_star + mid) <= sl,
                                    np.zeros(1), np.array([diagram.critical_density - rho_star]),
                                    100)[0])
        # -f' rises up to the inflection density and falls after it
        back = min(max(diagram.inflection_density, rho_star + reserve), diagram.rho_max)
        max_back_slope = max(0.0, -diagram.flow_slope(back))
        curve_lhs = sigma * min_concavity * reserve ** 2 / (
            2.0 * (max_back_slope + sl) * (diagram.rho_max - rho_star))
    else:
        reserve = max_back_slope = curve_lhs = float("nan")
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
    interior_slack: float  # min over x > 0: a pinned inlet's slack is 0 exactly
    interior_x: float


def admissible(gains: FixedInletGains, diagram: ExponentialDiagram,
               profile: DensityProfile) -> AdmissibilityResult:
    """Whether the profile lies in the invariant family of the law.

    Checks rho(0) = rho_star (within 1e-9 * rho_max) and the flow-slack
    inequality at every grid node; reports the worst slack and where, over
    all nodes and over x > 0.
    """
    check_pairing(gains, profile)
    boundary_gap = abs(float(profile.values[0]) - gains.rho_star)
    boundary_ok = boundary_gap <= 1e-9 * diagram.rho_max
    lhs = _flow_budget(gains, diagram, profile.x)(profile.node_deviation_integrals(),
                                                  profile.sup_deviation())
    slack = np.asarray(diagram.flow(profile.values), dtype=float) - lhs
    idx = int(np.argmin(slack))
    inner = 1 + int(np.argmin(slack[1:]))
    min_slack = float(slack[idx])
    return AdmissibilityResult(boundary_ok and min_slack >= 0.0,
                               min_slack, float(profile.x[idx]), boundary_gap,
                               float(slack[inner]), float(profile.x[inner]))


def simulate(scenario: Scenario, gains: FixedInletGains,
             settings: PicardSettings = PicardSettings()) -> SimulationTrace:
    """Closed-loop run over the scenario horizon.

    Solves the whole-horizon fixed point for the sup-norm deviation path
    (valid because gamma L / sigma < 1 uniformly in the horizon), then
    evaluates the closed-form state at the output times.  The fixed-point
    grid carries settings.time_samples nodes per unit time.  The solution
    carries exp(sigma t), so sigma * horizon above EXP_LIMIT raises
    DomainError before any work.
    """
    d = scenario.diagram
    check_pairing(gains, scenario)
    if gains.sigma * scenario.horizon > EXP_LIMIT:
        raise DomainError(
            f"sigma * horizon = {gains.sigma * scenario.horizon:.6g} exceeds "
            f"log(float max) = {EXP_LIMIT:.6g}, where exp(sigma t) overflows; "
            "shorten the horizon")
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
    g, iters, worst_ratio, envelope = _sup_path(gains, x, dev0, sup0, tn, settings)

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
                **envelope,
            },
        })


def _sup_path(gains: FixedInletGains, x: np.ndarray, dev0: np.ndarray, sup0: float,
              tn: np.ndarray, settings: PicardSettings
              ) -> tuple[np.ndarray, int, float, dict[str, int]]:
    """Whole-horizon Picard iteration for the signed sup path g on tn.

    g(t) = exp(-sigma t) max_i (dev0_i + gamma x_i J(t)), with J the running
    integral of exp(sigma s) g(s).  Returns g, the iteration count, the
    worst ratio of successive sup-norm updates, and the envelope counts:
    envelope_lines, the most lines an update kept, and envelope_width, the
    most candidates one time row scanned.

    Each row's max is the upper envelope of the n lines dev0_i + x_i gJ at
    that row's gJ = gamma J(t).  It is evaluated as fl(fl(gJ x_i) + dev0_i)
    on the lines that can come within rounding of the envelope there (see
    _Envelope), so it equals the max over all n lines bit for bit.  That
    costs O(n) once and O(n + n_t (log n + w)) per iteration, w the widest
    row's candidate count, against O(n_t n) for the whole matrix.  The time
    steps and every buffer are made once per solve, not once per update.
    """
    dt, grow, shrink = np.diff(tn), np.exp(gains.sigma * tn), np.exp(-gains.sigma * tn)
    grow_g, gJ, peak = np.empty(tn.size), np.empty(tn.size), np.empty(tn.size)
    envelope = _Envelope(x, dev0)
    counts = {"envelope_lines": 0, "envelope_width": 0}

    def update(g: np.ndarray) -> np.ndarray:
        running_trapezoid(dt, np.multiply(grow, g, out=grow_g), out=gJ)
        np.multiply(gains.gamma, gJ, out=gJ)
        lines, start, width = envelope.candidates(gJ)
        counts["envelope_lines"] = max(counts["envelope_lines"], lines.size)
        counts["envelope_width"] = max(counts["envelope_width"], int(width.max()))
        _gathered_max(gJ, x[lines], dev0[lines], start, width, peak)
        return shrink * peak

    return (*iterate(update, np.full(tn.size, sup0), settings, "whole-horizon iteration"),
            counts)


class _Envelope:
    """Which of the lines dev0_i + x_i J can reach max_i (dev0_i + x_i J).

    x is strictly increasing.  The upper hull of the points (x_i, dev0_i)
    gives the lines on the envelope: hull vertex k is on top for J between
    the breakpoints beta_{k-1} and beta_k where it meets its hull
    neighbours.  A line off the hull, between hull vertices a and b, falls
    below the envelope by at least gap_i + min(dx) |J - beta_ab|, where
    gap_i is its point's depth below the hull chord a-b; a hull vertex
    falls below by at least min(dx) times J's distance outside
    [beta_{k-1}, beta_k].  Both bounds need no exact hull: they hold for
    any vertex subsequence, so rounding in the hull test costs nothing.

    Per iteration, row t gets the margin m_t = 1e-12 (|gJ_t| max|x| +
    max|dev0|), thousands of times the rounding error of one
    fl(fl(gJ_t x_i) + dev0_i).  The kept lines are the hull lines and the
    lines with gap_i <= max_t m_t; row t scans the kept lines whose
    interval, widened by m_t / min(dx), holds gJ_t.  Every line whose value
    can come within rounding of the envelope is scanned, so the max over
    the scanned lines is the max over all lines, bit for bit.  The interval
    ends are made monotone in i (a running min of the lower ends from the
    right, a running max of the upper ends), which only widens them, so
    each row's candidates are one contiguous run of the kept lines, found
    by two searchsorted calls with the row's widening on the query side.
    """

    def __init__(self, x: np.ndarray, dev0: np.ndarray):
        hull = _upper_hull(x, dev0)
        self.on_hull = np.zeros(x.size, dtype=bool)
        self.on_hull[hull] = True
        self.gap = np.interp(x, x[hull], dev0[hull]) - dev0
        beta = np.concatenate(([-np.inf], (dev0[hull[:-1]] - dev0[hull[1:]]) / np.diff(x[hull]),
                               [np.inf]))
        seg = self.on_hull.cumsum() - 1  # position in hull of the last vertex at or left of i
        lo = np.where(self.on_hull, beta[seg], beta[seg + 1])
        self.lo = np.minimum.accumulate(lo[::-1])[::-1]
        self.hi = np.maximum.accumulate(beta[seg + 1])
        self.scale = (float(np.abs(x).max()), float(np.abs(dev0).max()))
        self.dx = float(np.diff(x).min())

    def candidates(self, gJ: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lines, start, width): row t scans lines[start[t]:start[t] + width[t]]."""
        margin = 1e-12 * (np.abs(gJ) * self.scale[0] + self.scale[1])
        m = float(margin.max())
        if not m < math.inf:  # a diverged iterate: every line, so NaN and inf propagate as before
            n = self.gap.size
            return np.arange(n), np.zeros(gJ.size, dtype=np.intp), np.full(gJ.size, n)
        lines = np.flatnonzero(self.on_hull | (self.gap <= m))
        pad = margin / self.dx
        start = self.hi[lines].searchsorted(gJ - pad, side="left")
        stop = self.lo[lines].searchsorted(gJ + pad, side="right")
        return lines, start, stop - start


def _upper_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the upper convex hull of (x_i, y_i), x strictly increasing.

    Andrew's monotone chain; points on a hull edge are left out.
    """
    px, py = x.tolist(), y.tolist()
    hull: list[int] = []
    for i, (xi, yi) in enumerate(zip(px, py)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (px[b] - px[a]) * (yi - py[a]) < (py[b] - py[a]) * (xi - px[a]):
                break
            hull.pop()
        hull.append(i)
    return np.array(hull)


def _gathered_max(gJ: np.ndarray, xs: np.ndarray, ds: np.ndarray, start: np.ndarray,
                  width: np.ndarray, out: np.ndarray) -> None:
    """out[t] = max of fl(fl(gJ[t] xs[j]) + ds[j]) over start[t] <= j < start[t] + width[t].

    Rows go in runs whose candidates number at most _BLOCK_ELEMENTS (or
    one row), so memory stays O(n_t + n) however wide the rows are.
    """
    ends = np.add.accumulate(width)
    s = 0
    while s < gJ.size:
        base = int(ends[s - 1]) if s else 0
        e = max(s + 1, int(ends.searchsorted(base + _BLOCK_ELEMENTS, side="right")))
        w = width[s:e]
        offsets = ends[s:e] - w - base
        idx = (start[s:e] - offsets).repeat(w)
        idx += np.arange(idx.size)
        vals = gJ[s:e].repeat(w) * xs[idx]
        vals += ds[idx]
        np.maximum.reduceat(vals, offsets, out=out[s:e])
        s = e


def _least(a: np.ndarray) -> float:
    return a.item(a.argmin())


def _most(a: np.ndarray) -> float:
    return a.item(a.argmax())


def _flow_budget(gains: FixedInletGains, diagram: ExponentialDiagram, x: np.ndarray
                 ) -> Callable[..., np.ndarray]:
    """(D, S) -> f(rho_star) + sigma D - (gamma x^2 / 2) S on the nodes x.

    f(rho_star) and gamma x^2 / 2 are computed here, once per grid.  The
    budget is written into out and (gamma x^2 / 2) S into scratch when
    they are given; out may be D itself.
    """
    f_star = float(diagram.flow(gains.rho_star))
    sigma = gains.sigma
    quad = 0.5 * gains.gamma * x ** 2

    def budget(node_integrals, sup, out=None, scratch=None):
        out = np.multiply(sigma, node_integrals, out=out)
        np.add(f_star, out, out=out)
        return np.subtract(out, np.multiply(quad, sup, out=scratch), out=out)

    return budget
