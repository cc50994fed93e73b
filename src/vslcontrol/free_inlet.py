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
`picard.iterate`.  The gain bound makes each window's update a contraction
with certified factor coeff * window (`_contraction_coefficient`), and the
windows have the length _SAFETY / coeff (the last may be shorter), so that
factor is at most _SAFETY.

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

A march takes the node steps once, each window length (the certified one
and the last, shorter one) its time grid and shrink-range ends once, each
window its deviation integrals, candidates and update buffers, and each
update writes into those buffers and returns a new row-minimum array.
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
from .quadrature import bound_trapezoid, integral_to, running_trapezoid
from .trace import SimulationTrace, law_trace

# certified contraction factor of every window
_SAFETY = 0.5
# relative slack on a window's bounds.  ExponentialDiagram.flow rounds to
# within a few (shape + 2) * 745 ulps of its value wherever the value does
# not underflow, far below _MARGIN for any shape up to 1000; _FLOOR, the
# least normal float, covers the subnormal range
_MARGIN = 1e-9
_FLOOR = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class FreeInletGain:
    """Feedback gain k for a road of the given length and target density.

    The record is the law: `controller` binds it to a node grid, the
    inlet is left free (pins_inlet is False), and `law` names it in
    metadata.
    """

    law = "free_inlet"
    pins_inlet = False

    gain: float
    length: float
    rho_star: float

    def __post_init__(self):
        bound = self.gain_bound(self.length, self.rho_star)
        if not (0.0 < self.gain < bound):
            raise DomainError(f"gain must lie in (0, {bound:.6g}) = (0, 1/(length*rho_star))")

    @staticmethod
    def gain_bound(length: float, rho_star: float) -> float:
        """1/(length rho_star), the gain window's top; length, rho_star > 0."""
        if length <= 0.0 or rho_star <= 0.0:
            raise DomainError("length and rho_star must be positive")
        return 1.0 / (length * rho_star)

    def controller(self, diagram: ExponentialDiagram, x: np.ndarray, u_tol: float = 0.0
                   ) -> Callable[..., tuple[np.ndarray, np.ndarray, int]]:
        """The law on the nodes x: evaluate(rho, span=None) -> (u, f(rho), bottleneck index).

        The bottleneck index is the smallest minimizer of f(rho) M, where
        u equals 1 exactly.  u never exceeds 1 by construction, so u_tol is
        accepted only to share the fixed law's signature.  Every evaluation
        runs the diagram's domain check and the positivity check, which a
        NaN fails.  span, when given, is the caller's own
        (rho.item(rho.argmin()), rho.item(rho.argmax())) of this rho, and
        the domain check runs on it instead of a pass of its own.  u and
        f(rho) live in buffers bound here, with the trapezoid's views of
        them: they are valid until the next call of evaluate.
        """
        k, rho_star = self.gain, self.rho_star
        u, fv, work = np.empty(x.size), np.empty(x.size), np.empty(x.size)
        integrate = bound_trapezoid(np.diff(x), work, u)

        def evaluate(rho: np.ndarray, span: tuple[float, float] | None = None
                     ) -> tuple[np.ndarray, np.ndarray, int]:
            if span is None:
                diagram.density_range(rho)
            else:
                diagram.check_range(*span)
            diagram.flow_into(rho, fv, work)
            np.subtract(rho, rho_star, out=work)
            # u holds k D, then 1 + k D, then the weighted flow f M, then u
            np.multiply(k, integrate(), out=u)
            np.add(1.0, u, out=u)
            weighted = np.divide(fv, u, out=u)
            idx = int(weighted.argmin())
            value = float(weighted[idx])
            if not value > 0.0:
                raise StateEscapeError("weighted flow lost positivity")
            return np.divide(value, weighted, out=u), fv, idx

        return evaluate


def bottleneck(gain: FreeInletGain, diagram: ExponentialDiagram,
               profile: DensityProfile) -> tuple[float, float]:
    """Minimum of f(rho) M over the grid and its smallest minimizer."""
    check_pairing(gain, profile)
    _, fv, idx = gain.controller(diagram, profile.x)(profile.values)
    value = fv[idx] / (1.0 + gain.gain * profile.node_deviation_integrals()[idx])
    return float(value), float(profile.x[idx])


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
    candidate count.  The node steps are taken once and each window
    length's `_window_grid` is built once.  A window that does not converge
    within settings.max_iter raises ConvergenceError.
    """
    d = scenario.diagram
    check_pairing(gain, scenario)
    if not (gain.rho_star < d.delta):
        raise DomainError("rho_star must lie strictly below the diagram's "
                          "limit-reduction threshold")
    coeff = _contraction_coefficient(gain, d)
    window = _SAFETY / coeff

    targets = scenario.output_times
    x = scenario.rho0.x
    dx = np.diff(x)
    dev = scenario.rho0.values - scenario.rho_star
    rho_out = np.empty((targets.size, x.size))
    rho_out[0] = scenario.rho0.values
    j, t0, grids = 1, 0.0, {}
    n_windows = max_iters = max_width = 0
    max_ratio = 0.0
    eps = 1e-12 * scenario.horizon
    while t0 < scenario.horizon - eps:
        span = min(window, scenario.horizon - t0)
        if span not in grids:
            grids[span] = _window_grid(gain.gain, d.capacity, span, settings.time_samples)
        tn, g, cumg, iters, ratio, width = _solve_window(
            d, gain, scenario.rho_star, dx, dev, grids[span], settings)
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
            "gain": gain.gain,
            "length": gain.length,
            "decay_rate_bound": rate,
            "bottleneck_floor": rate / gain.gain,
            "lipschitz_slope": d.max_abs_slope,
            "capacity": d.capacity,
            "critical_density": d.critical_density,
            "window": window,
            "picard": {
                "windows": n_windows,
                "max_iterations": max_iters,
                "max_contraction_ratio": max_ratio,
                "factor_bound": min(coeff * window, _SAFETY),
                "tol": settings.tol,
                "candidates_max": max_width,
            },
        })


def _window_grid(k: float, f_peak: float, span: float, samples: int) -> tuple:
    """(span, tn, dt, s_lo, ends, k ends) of a window of length span, whatever its start."""
    tn = np.linspace(0.0, span, samples + 1)
    s_lo = math.exp(-k * span * f_peak) * (1.0 - _MARGIN)
    ends = np.array([[1.0], [s_lo]])
    return span, tn, np.diff(tn), s_lo, ends, k * ends


def _solve_window(diagram: ExponentialDiagram, gain: FreeInletGain, rho_star: float,
                  dx: np.ndarray, dev: np.ndarray, grid: tuple, settings: PicardSettings):
    """Fixed point of g(t) = P(rho[t]) on one window, by Picard iteration.

    rho[t] = rho_star + dev * exp(-k * integral_0^t g), so every iterate
    only needs the window-start deviation integrals (on the node steps dx).
    Returns the time grid, g, its running integral, the iteration count,
    the worst ratio of successive updates and the candidate count.

    The candidates come from the ends s = 1 and s = s_lo of the shrink
    range (s_lo less a relative _MARGIN), both evaluated through
    diagram.flow, so every density the window can produce is domain-checked.
    Each update, into buffers bound once per window, domain-checks its
    densities as flow does and checks that its shrink factors stay in
    [s_lo, 1], raising StateEscapeError otherwise: the bounds hold only there.
    """
    k = gain.gain
    span, tn, dt, s_lo, ends, k_ends = grid
    D0 = running_trapezoid(dx, dev)
    # row 0 (s = 1) is the window start, the same bits as the update's first row
    rho_ends = rho_star + ends * dev
    fv = diagram.flow(rho_ends)
    denom = 1.0 + k_ends * D0
    past = rho_ends - diagram.critical_density
    top = np.where(past[0] * past[1] <= 0.0, diagram.capacity, np.maximum(fv[0], fv[1]))
    bound = (top / np.minimum(denom[0], denom[1])).min() * (1.0 + _MARGIN) + _FLOOR
    cols = np.flatnonzero(np.minimum(fv[0], fv[1]) / np.maximum(denom[0], denom[1]) <= bound)
    dev_c, D0_c = dev[cols], D0[cols]
    shrink, k_shrink = np.empty(tn.size), np.empty((tn.size, 1))
    sh = shrink[:, None]
    rho, weighted, den = (np.empty((tn.size, cols.size)) for _ in range(3))

    def update(g: np.ndarray) -> np.ndarray:
        running_trapezoid(dt, g, out=shrink)
        np.exp(np.multiply(-k, shrink, out=shrink), out=shrink)
        if not (np.minimum.reduce(shrink) >= s_lo and np.maximum.reduce(shrink) <= 1.0):
            raise StateEscapeError(
                f"bottleneck iterate left [0, peak flow]: shrink factor outside "
                f"[{s_lo:.6g}, 1] on a window of length {span:.6g}")
        np.add(rho_star, np.multiply(sh, dev_c, out=rho), out=rho)
        diagram.density_range(rho)
        diagram.flow_into(rho, weighted, den)  # den is flow's scratch, then 1 + k s D0
        np.multiply(k, sh, out=k_shrink)
        np.add(1.0, np.multiply(k_shrink, D0_c, out=den), out=den)
        return np.minimum.reduce(np.divide(weighted, den, out=weighted), axis=1)

    g0 = np.full(tn.size, (fv[0] / denom[0]).min())
    g, iters, worst_ratio = iterate(update, g0, settings, f"window of length {span:.6g}")
    return tn, g, running_trapezoid(dt, g), iters, worst_ratio, cols.size
