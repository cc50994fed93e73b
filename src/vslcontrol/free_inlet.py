"""Speed-limit feedback for a road whose inlet flow the controller shapes.

The law weights the flow at each position by

    M(rho, x) = 1 / (1 + k * D(x)),      D(x) = integral_0^x (rho - rho_star)

and equalizes the weighted flow to its worst (bottleneck) value:

    u(x) = min_z [ f(rho(z)) M(rho, z) ] / ( f(rho(x)) M(rho, x) ).

Under the gain bound 0 < k < 1/(length * rho_star) the closed loop contracts
the deviation exponentially from any initial profile, with rate at least

    c(s) = k * min{ f(r) : min(s, rho_star) <= r <= rho_max }
             / (1 + k * length * (rho_max - rho_star)),

s being the smallest initial density.  The closed-loop solution factorizes as
rho(t, x) = rho_star + (rho0(x) - rho_star) * exp(-k * integral_0^t P(s) ds)
where P(t) is the bottleneck value, so simulation reduces to a scalar
fixed-point problem for P on short time windows, solved by
`picard.iterate` with a contraction factor kept below `safety` by the
window length.

Each update takes, at every time sample of a window, the minimum over the
nodes of f(rho_star + s dev_i) / (1 + k s D0_i), with s = exp(-k int g) the
shrink factor and dev, D0 the window-start deviation and its integrals.
Every iterate lies in [0, f_peak], f_peak the diagram's capacity (flows are
nonnegative and the inlet node's weight is 1), so s stays in [s_lo, 1],
s_lo = exp(-k span f_peak).  f rises to a single peak at the critical
density and falls after it, the diagram's unimodality assumption.  So over
that range each node's weighted flow lies between bounds taken from its
two ends: the flow's minimum is at an end, its maximum is f_peak when the
node's density interval holds the peak and at an end otherwise, and the
denominator is linear in s.  A node
whose lower bound exceeds the least upper bound is never a row minimizer,
so a window's updates scan the other nodes only, its candidates:
O(n + n_t w) per window, w the candidate count, instead of O(n_t n) per
update.  Every operation but the flow rounds monotonically in s, the
bounds carry a relative margin far above the flow's rounding error, and
min is exact, so the row minima, the iterates and every output are the
same bits as a scan of all nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, StateEscapeError
from .fundamental_diagram import ExponentialDiagram
from .picard import PicardSettings, iterate
from .profile import DensityProfile, Scenario, check_pairing
from .quadrature import cumulative_trapezoid, integral_to, running_trapezoid
from .trace import SimulationTrace, law_trace

# relative slack on a window's bounds.  ExponentialDiagram.flow rounds to
# within a few (shape + 2) * 745 ulps of its value wherever the value does
# not underflow, far below _MARGIN for any shape up to 1000; _FLOOR, the
# least normal float, covers the subnormal range
_MARGIN = 1e-9
_FLOOR = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class FreeInletGain:
    """Feedback gain k for a road of the given length and target density.

    The record is the law: `controller` binds it to a node grid and
    `controls` evaluates u there once, the inlet is left free (pins_inlet
    is False), and `law` names it in metadata.
    """

    law = "free_inlet"
    pins_inlet = False

    gain: float
    length: float
    rho_star: float

    def __post_init__(self):
        if self.length <= 0.0 or self.rho_star <= 0.0:
            raise DomainError("length and rho_star must be positive")
        if not (0.0 < self.gain < 1.0 / (self.length * self.rho_star)):
            raise DomainError(
                f"gain must lie in (0, {1.0 / (self.length * self.rho_star):.6g}) "
                f"= (0, 1/(length*rho_star))")

    def controller(self, diagram: ExponentialDiagram, x: np.ndarray, u_tol: float = 0.0
                   ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, int]]:
        """The law on the nodes x: evaluate(rho) -> (u, f(rho), bottleneck index).

        The bottleneck index is the smallest minimizer of f(rho) M, where
        u equals 1 exactly.  u never exceeds 1 by construction, so u_tol is
        accepted only to share the fixed law's signature.  Every evaluation
        runs the diagram's domain check and the positivity check.  u and
        f(rho) live in buffers bound here: they are valid until the next
        call of evaluate.
        """
        k, rho_star, dx = self.gain, self.rho_star, np.diff(x)
        u, fv, work = np.empty(x.size), np.empty(x.size), np.empty(x.size)

        def evaluate(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
            diagram.density_range(rho)
            diagram.flow_into(rho, fv, work)
            np.subtract(rho, rho_star, out=work)
            # u holds k D, then 1 + k D, then the weighted flow f M, then u
            np.multiply(k, running_trapezoid(dx, work, out=u), out=u)
            np.add(1.0, u, out=u)
            weighted = np.divide(fv, u, out=u)
            idx = int(weighted.argmin())
            value = float(weighted[idx])
            if value <= 0.0:
                raise StateEscapeError("weighted flow lost positivity")
            return np.divide(value, weighted, out=u), fv, idx

        return evaluate

    def controls(self, diagram: ExponentialDiagram, x: np.ndarray, rho: np.ndarray,
                 u_tol: float = 0.0) -> tuple[np.ndarray, np.ndarray, int]:
        """(u, f(rho), bottleneck index) at the nodes x for densities rho."""
        return self.controller(diagram, x, u_tol)(rho)


def bottleneck(gain: FreeInletGain, diagram: ExponentialDiagram,
               profile: DensityProfile) -> tuple[float, float]:
    """Minimum of f(rho) M over the grid and its smallest minimizer."""
    check_pairing(gain, profile)
    _, fv, idx = gain.controls(diagram, profile.x, profile.values)
    value = fv[idx] / (1.0 + gain.gain * profile.node_deviation_integrals()[idx])
    return float(value), float(profile.x[idx])


def control_profile(gain: FreeInletGain, diagram: ExponentialDiagram,
                    profile: DensityProfile) -> np.ndarray:
    """u at every grid node."""
    check_pairing(gain, profile)
    return gain.controls(diagram, profile.x, profile.values)[0]


def decay_rate_bound(gain: FreeInletGain, diagram: ExponentialDiagram,
                     s: float) -> float:
    """Certified exponential rate c(s) for initial data bounded below by s."""
    if not (0.0 < s <= diagram.rho_max):
        raise DomainError("s must lie in (0, rho_max]")
    # f has a single peak, so its minimum over [lo, rho_max] is at an end
    lo = min(s, gain.rho_star)
    fmin = float(np.min(diagram.flow(np.array([lo, diagram.rho_max]))))
    return gain.gain * fmin / (
        1.0 + gain.gain * gain.length * (diagram.rho_max - gain.rho_star))


def _contraction_coefficient(gain: FreeInletGain, diagram: ExponentialDiagram) -> float:
    """kappa / T: the contraction factor of a window of length T is coeff * T."""
    k, L = gain.gain, gain.length
    spread = max(gain.rho_star, diagram.rho_max - gain.rho_star)
    lip = (diagram.capacity * k * L + diagram.max_abs_slope) / (1.0 - k * L * gain.rho_star) ** 2
    return lip * k * spread


def simulate(scenario: Scenario, gain: FreeInletGain,
             settings: PicardSettings = PicardSettings()) -> SimulationTrace:
    """Closed-loop run over the scenario horizon.

    Solves the bottleneck fixed point window by window, then evaluates the
    factorized solution at the scenario's output times.  Each window's
    updates take their row minima over its candidate nodes alone: the nodes
    whose weighted flow, bounded over the shrink range [s_lo, 1] through f's
    single peak (critical density, capacity), can reach the least upper bound.
    Those minima are the minima over all nodes bit for bit (see the module
    docstring); metadata["picard"]["candidates_max"] is the largest
    candidate count.  A window that fails to converge is halved and retried
    (up to settings.retry_cap); metadata["picard"]["halvings"] counts those
    retries.
    """
    d = scenario.diagram
    check_pairing(gain, scenario)
    if not (gain.rho_star < d.delta):
        raise DomainError("rho_star must lie strictly below the diagram's "
                          "limit-reduction threshold")
    coeff = _contraction_coefficient(gain, d)
    if settings.window is None:
        window0 = settings.safety / coeff
    elif coeff * settings.window > settings.safety:
        raise DomainError(f"window gives contraction factor {coeff * settings.window:.3g}"
                          f" > safety {settings.safety}")
    else:
        window0 = settings.window

    targets = scenario.output_times
    x = scenario.rho0.x
    dev = scenario.rho0.values - scenario.rho_star
    rho_out = np.empty((targets.size, x.size))
    rho_out[0] = scenario.rho0.values
    j = 1
    t0 = 0.0
    window = window0
    n_windows = 0
    halvings = 0
    max_iters = 0
    max_ratio = 0.0
    max_width = 0
    eps = 1e-12 * max(1.0, scenario.horizon)
    while t0 < scenario.horizon - eps:
        span = min(window, scenario.horizon - t0)
        for attempt in range(settings.retry_cap + 1):
            try:
                tn, g, cumg, iters, ratio, width = _solve_window(
                    d, gain, scenario.rho_star, x, dev, span, settings)
                break
            except ConvergenceError:
                if attempt == settings.retry_cap:
                    raise
                span *= 0.5
                halvings += 1
                window = min(window, span)  # keep the shrunken window from here on
        n_windows += 1
        max_iters = max(max_iters, iters)
        max_ratio = max(max_ratio, ratio)
        max_width = max(max_width, width)
        while j < targets.size and targets[j] <= t0 + span + eps:
            s_local = min(targets[j] - t0, span)
            shrink = np.exp(-gain.gain * integral_to(tn, g, cumg, s_local))
            rho_out[j] = scenario.rho_star + dev * shrink
            j += 1
        dev = dev * np.exp(-gain.gain * cumg[-1])
        t0 += span

    if j < targets.size:
        raise ConvergenceError("window march ended before the last output time")

    rate = decay_rate_bound(gain, d, float(np.min(scenario.rho0.values)))
    return law_trace(
        gain, d, targets, x, rho_out, 0.0, metadata={
            "law": gain.law,
            "gain": gain.gain,
            "length": gain.length,
            "rho_star": scenario.rho_star,
            "decay_rate_bound": rate,
            "bottleneck_floor": rate / gain.gain,
            "lipschitz_slope": d.max_abs_slope,
            "capacity": d.capacity,
            "critical_density": d.critical_density,
            "window": window0,
            "picard": {
                "windows": n_windows,
                "halvings": halvings,
                "max_iterations": max_iters,
                "max_contraction_ratio": max_ratio,
                "factor_bound": min(coeff * window0, settings.safety),
                "tol": settings.tol,
                "candidates_max": max_width,
            },
        })


def _solve_window(diagram: ExponentialDiagram, gain: FreeInletGain, rho_star: float,
                  x: np.ndarray, dev: np.ndarray, span: float,
                  settings: PicardSettings):
    """Fixed point of g(t) = P(rho[t]) on one window, by Picard iteration.

    rho[t] = rho_star + dev * exp(-k * integral_0^t g), so every iterate
    only needs the window-start deviation integrals.  Returns the time
    grid, g, its running integral, the iteration count, the worst ratio of
    successive updates and the candidate count.

    The candidates come from the ends s = 1 and s = s_lo of the shrink
    range (s_lo less a relative _MARGIN), both evaluated through
    diagram.flow, so every density the window can produce is domain-checked.
    Each update checks that its shrink factors stay in [s_lo, 1] and raises
    StateEscapeError otherwise: the bounds hold only there.
    """
    k = gain.gain
    tn = np.linspace(0.0, span, settings.time_samples + 1)
    dt = np.diff(tn)
    D0 = cumulative_trapezoid(x, dev)
    rho_peak, f_peak = diagram.critical_density, diagram.capacity
    s_lo = math.exp(-k * span * f_peak) * (1.0 - _MARGIN)
    # row 0 (s = 1) is the window start, the same bits as the update's first row
    ends = np.array([[1.0], [s_lo]])
    rho_ends = rho_star + ends * dev
    fv = np.asarray(diagram.flow(rho_ends), dtype=float)
    denom = 1.0 + k * ends * D0
    past = rho_ends - rho_peak
    top = np.where(past[0] * past[1] <= 0.0, f_peak, fv.max(axis=0))
    bound = (top / denom.min(axis=0)).min() * (1.0 + _MARGIN) + _FLOOR
    cols = np.flatnonzero(fv.min(axis=0) / denom.max(axis=0) <= bound)
    dev_c, D0_c = dev[cols], D0[cols]

    def update(g: np.ndarray) -> np.ndarray:
        shrink = np.exp(-k * running_trapezoid(dt, g))
        if not (shrink.min() >= s_lo and shrink.max() <= 1.0):
            raise StateEscapeError(
                f"bottleneck iterate left [0, peak flow]: shrink factor outside "
                f"[{s_lo:.6g}, 1] on a window of length {span:.6g}")
        sh = shrink[:, None]
        weighted = np.asarray(diagram.flow(rho_star + sh * dev_c), dtype=float) / (
            1.0 + k * sh * D0_c)
        return weighted.min(axis=1)

    g0 = np.full(tn.size, float(np.min(fv[0] / denom[0])))
    g, iters, worst_ratio = iterate(update, g0, settings, f"window of length {span:.6g}")
    return tn, g, running_trapezoid(dt, g), iters, worst_ratio, cols.size
