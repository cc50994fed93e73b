"""Fundamental diagrams: equilibrium flow as a function of density.

The central object is the family

    F(rho, l) = A * rho * l * exp(-(1/shape) * (b*rho / (1 + a - a*l))**shape)

where l in (0, 1] is the speed-limit ratio (l = 1 means no limit) and
f(rho) := F(rho, 1) is the unlimited flow.  A > 0 scales flow, b > 0 scales
density, shape > 0 controls the exponential roll-off and a >= 0 controls how
strongly a speed limit reduces flow at low density.

Two structural assumptions are used by the controllers built on top:

  * unimodality: f(0) = 0, f > 0 on (0, rho_max], f' > 0 left of a single
    critical density, f'(rho_cr) = 0, and f'' < 0 on [0, rho_max];
  * limit response: F(rho, .) is strictly increasing on (0, l_sat(rho))
    where l_sat(rho) is the smallest limit ratio at which the limited flow
    already equals the unlimited flow (l_sat = 1 up to a threshold density
    delta, below which any speed limit strictly reduces flow).

`validate_assumptions` checks the shape of f through the family's exact
conditions; the limit response holds for every member (its docstring has
the proof).
Each limit operation has one elementwise path: `saturating_limit` gives
l_sat, and `speed_limits` is the one inversion l(rho, u) of
F(rho, l) = u f(rho).  Both bisect through `_bisect_all`, the package's
one bisection loop.  Where l_sat = 1, `speed_limits` starts from the
bracket of `warmstart.bracket`, whose docstring proves that the loop from
[0, 1] passes through it, so every limit keeps its bits.

At shape 1, which every preset runs, `flow_into` and `_limited_flow` skip
the power and the division by -shape, with the general order's bits;
their docstrings give the reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import AssumptionError, DomainError

DENSITY_TOL_REL = 1e-9  # slack on rho-domain checks, absorbs solver roundoff
_SCAN_ROWS = 128  # densities per block of the saturating-limit scan
# entries per block of work (speed_limits' bisection, the CSV writers, the
# fixed law's dense sup pass): 64 KiB of float64, under malloc's default
# 128 KiB mmap threshold, so each block's arrays come from the heap and are
# reused instead of being mapped and faulted in afresh
HEAP_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class ExponentialDiagram:
    """The exponential family F(rho, l) above.

    flow_scale:      A > 0
    density_scale:   b > 0
    shape:           exponent > 0
    vsl_sensitivity: a >= 0 (a = 0 makes the limited flow exactly l * f(rho))
    rho_max:         jam density > 0, with (b rho_max)^shape a finite float

    Derived constants (critical density, capacity, the limit-reduction
    threshold, the slope bound, the concavity floor) are computed lazily,
    in closed form, and cached.
    """

    flow_scale: float = 1.0
    density_scale: float = 1.0
    shape: float = 1.0
    vsl_sensitivity: float = 0.0
    rho_max: float = 1.6

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.flow_scale, self.density_scale, self.shape,
                                              self.vsl_sensitivity, self.rho_max)):
            raise DomainError("flow_scale, density_scale, shape, vsl_sensitivity "
                              "and rho_max must be finite")
        if self.flow_scale <= 0 or self.density_scale <= 0 or self.shape <= 0:
            raise DomainError("flow_scale, density_scale and shape must be positive")
        if self.vsl_sensitivity < 0:
            raise DomainError("vsl_sensitivity must be nonnegative")
        if self.rho_max <= 0:
            raise DomainError("rho_max must be positive")
        # v = (b rho)^shape enters every formula; its top must be a float
        try:
            top = (self.density_scale * self.rho_max) ** self.shape
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise DomainError("(density_scale * rho_max)^shape must be a finite float")

    # f(rho) = A rho exp(-(b rho)^shape / shape)
    def flow(self, rho):
        r = self._check_density(rho)
        out = self.flow_into(r, np.empty_like(r), np.empty_like(r))
        return out if out.ndim else float(out)

    def flow_into(self, r: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """f(r) written into out, with work as scratch; returns out.

        Unchecked: the caller has checked r's range (density_range, or
        check_range on its own min/max pass).  The one formula of f: flow
        allocates the two arrays, a bound law reuses its own.
        -v / shape is v / -shape bit for bit.

        Two evaluation orders, one set of bits.  In general the exponent is
        fl(fl(b r)^shape) / -shape, six passes with the two products.  At
        shape 1 it is one product, fl(-b r): x^1 = x and x / -1 = -x
        exactly, and round-to-nearest is symmetric, so fl(-b r) = -fl(b r),
        signed zeros included.  At A = 1 the last product is r exp(.):
        fl(1 r) = r.  So f takes three passes at shape 1 and A = 1.
        """
        if self.shape == 1.0:
            np.multiply(-self.density_scale, r, out=work)
            np.exp(work, out=work)
            if self.flow_scale == 1.0:
                return np.multiply(r, work, out=out)
        else:
            np.multiply(self.density_scale, r, out=work)
            work **= self.shape
            np.divide(work, -self.shape, out=work)
            np.exp(work, out=work)
        np.multiply(self.flow_scale, r, out=out)
        return np.multiply(out, work, out=out)

    # f'(rho) = A exp(-(b rho)^shape / shape) (1 - (b rho)^shape)
    def flow_slope(self, rho):
        r = self._check_density(rho)
        # a float goes through numpy's array power and exp, as in flow
        out = self._flow_slope_raw(np.atleast_1d(r))
        return out if r.ndim else float(out[0])

    def _flow_slope_raw(self, r: np.ndarray) -> np.ndarray:
        """f' on the array r, unchecked: the caller knows r lies in [0, rho_max]."""
        v = (self.density_scale * r) ** self.shape
        return self.flow_scale * np.exp(-v / self.shape) * (1.0 - v)

    # f''(rho) = -A exp(-(b rho)^shape / shape) (b rho)^shape (1 + shape - (b rho)^shape) / rho
    def flow_curvature(self, rho):
        r0 = self._check_density(rho)
        r = np.atleast_1d(r0)  # one rounding for floats and arrays, as in flow_slope
        v = (self.density_scale * r) ** self.shape
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(r > 0.0, v / np.where(r > 0.0, r, 1.0), 0.0)
        # v / rho -> b at rho = 0 for shape = 1, -> 0 for shape > 1, diverges for shape < 1
        if np.any(r == 0.0):
            if self.shape == 1.0:
                lim = self.density_scale
            elif self.shape > 1.0:
                lim = 0.0
            else:
                lim = np.inf
            ratio = np.where(r == 0.0, lim, ratio)
        out = -self.flow_scale * np.exp(-v / self.shape) * ratio * (1.0 + self.shape - v)
        return out if r0.ndim else float(out[0])

    def vsl_flow(self, rho, limit):
        """Flow under speed-limit ratio `limit`, F(rho, limit)."""
        r = self._check_density(rho)
        l = np.asarray(limit, dtype=float)
        if _outside_unit(l, 1.0):
            raise DomainError("limit ratio must lie in (0, 1]")
        out = self._vsl_flow_raw(np.atleast_1d(r), l)  # one rounding, as in flow_slope
        return out if r.ndim or l.ndim else float(out[0])

    def _vsl_flow_raw(self, r, l):
        return self._limited_flow(self.flow_scale * r, self.density_scale * r, l)

    def _limited_flow(self, ar, br, l):
        """F(rho, l) from A rho and b rho, bit for bit: v / -shape is (-v) / shape.

        At shape 1 the exponent is br / -s, with -s = fl(-1 - a t) =
        -fl(1 + a t): round-to-nearest is symmetric, and (br / s)^1 / -1 is
        br / -s exactly.  That skips the power and a division, seven passes
        instead of nine, with the same bits.
        """
        a = self.vsl_sensitivity
        if self.shape == 1.0:
            return ar * l * np.exp(br / (-1.0 - a * (1.0 - l)))
        s = 1.0 + a * (1.0 - l)
        return ar * l * np.exp((br / s) ** self.shape / -self.shape)

    @cached_property
    def delta(self) -> float:
        """rho_max when a (b rho_max)^shape <= 1, else 1 / (b a^(1/shape)).

        Below delta every limit ratio l < 1 strictly reduces flow, so the
        saturating limit is 1 there.
        """
        a = self.vsl_sensitivity
        if a * (self.density_scale * self.rho_max) ** self.shape <= 1.0:
            return self.rho_max
        return 1.0 / (self.density_scale * a ** (1.0 / self.shape))

    @cached_property
    def critical_density(self) -> float:
        """Unique rho_cr with f'(rho_cr) = 0: 1/b, where (b rho)^shape = 1.

        Raises AssumptionError exactly where single_flow_peak fails.
        """
        if not self.rho_max > 1.0 / self.density_scale:
            raise AssumptionError("flow slope does not change sign on [0, rho_max]; "
                                  "no interior critical density")
        return 1.0 / self.density_scale

    @cached_property
    def capacity(self) -> float:
        """Peak flow f(rho_cr): f rises up to rho_cr and falls after it."""
        return float(self.flow(self.critical_density))

    @cached_property
    def max_abs_slope(self) -> float:
        """max |f'| over [0, rho_max]: the Lipschitz constant of f and a
        safe wave-speed bound (the limit ratio never exceeds 1)."""
        return self.slope_bound(0.0, self.rho_max)

    @cached_property
    def min_concavity(self) -> float:
        """min(-f'') over [0, rho_max], in closed form.

        With v = (b rho)^shape, -f'' is stationary where
        v^2 - 3 shape v + shape^2 - 1 = 0.  The larger root
        v2 = (3 shape + sqrt(5 shape^2 + 4)) / 2 lies past 1 + shape;
        -f'' falls up to v2 and rises after it, and for shape > 1 it first
        rises from 0 at rho = 0.  So the min is at rho = 0 or at
        min(rho_max, v2^(1/shape) / b), both through flow_curvature as one
        array (its rho = 0 limit is +inf for shape < 1).
        """
        s = self.shape
        v2 = (3.0 * s + math.sqrt(5.0 * s * s + 4.0)) / 2.0
        far = min(self.rho_max, v2 ** (1.0 / s) / self.density_scale)
        return float(np.min(-self.flow_curvature(np.array([0.0, far]))))

    @cached_property
    def inflection_density(self) -> float:
        """(1 + shape)^(1/shape) / b, where f'' = 0 and f' is least."""
        return (1.0 + self.shape) ** (1.0 / self.shape) / self.density_scale

    def slope_bound(self, lo: float, hi: float) -> float:
        """max |f'| over [lo, hi], a band inside [0, rho_max], in closed form.

        f' falls up to the inflection density and rises after it, so |f'|
        is monotone or V-shaped on a band without it and peaks at an end;
        a band that holds it peaks there, at -f'(inflection_density).  The
        points go through flow_slope as one array, whose power and exp
        round as on any grid of the band (a numpy scalar's power may not).
        """
        infl = self.inflection_density
        points = [lo, hi, infl] if lo <= infl <= hi else [lo, hi]
        return float(np.max(np.abs(self.flow_slope(np.array(points)))))

    @cached_property
    def density_bounds(self) -> tuple[float, float]:
        """(-tol, rho_max + tol), tol = DENSITY_TOL_REL * max(1, rho_max): the
        interval density_range and check_range accept."""
        tol = DENSITY_TOL_REL * max(1.0, self.rho_max)
        return -tol, self.rho_max + tol

    def density_range(self, r: np.ndarray) -> tuple[float, float]:
        """(min, max) of the nonempty float array r, which must lie in [0, rho_max].

        One pass each for the min and the max, then check_range on them.
        argmin and argmax point at the first NaN if there is one, so the
        pair holds it and the check rejects the array.  (They cost a third
        of np.minimum.reduce on an oracle-sized state.)
        """
        return self.check_range(r.item(r.argmin()), r.item(r.argmax()))

    def check_range(self, lo: float, hi: float) -> tuple[float, float]:
        """(lo, hi), the min and max of a density array, or DomainError.

        The one density-domain rule: entries may stray DENSITY_TOL_REL *
        max(1, rho_max) outside [0, rho_max] (density_bounds).  NaN fails
        both comparisons.  A caller that already holds an array's
        (r.item(r.argmin()), r.item(r.argmax())) checks it here without a
        second pass; density_range makes the pair for any other caller.
        """
        floor, top = self.density_bounds
        if not (lo >= floor and hi <= top):
            raise DomainError(f"density outside [0, {self.rho_max}]")
        return lo, hi

    def _check_density(self, rho) -> np.ndarray:
        r = np.asarray(rho, dtype=float)
        if r.size:
            self.density_range(r)
        return r

    def _saturation_residual(self, k, l) -> np.ndarray:
        """The saturation equation's residual, given k = shape / (b rho)^shape."""
        a = self.vsl_sensitivity
        return (1.0 + a * (1.0 - l)) ** self.shape * (1.0 + k * np.log(l)) - 1.0

    def saturating_limit(self, rho):
        """Smallest limit ratio whose limited flow equals the unlimited flow.

        Elementwise, like flow; a 0-d input gives a float.  Equals 1 for
        rho <= delta.  Above delta it is the smallest l solving
        (1 + a(1-l))^shape (1 + shape (b rho)^-shape ln l) = 1, located by a
        scan of a geometric grid on [1e-9, 1] for the first point whose
        residual is >= 0, followed by bisection to the fixed point.

        The scan covers only the suffix of the grid where that point can
        lie.  At grid point l_j the residual is fl(fl(A_j B_j) - 1), with
        A_j = fl((1 + a(1 - l_j))^shape) > 0 and B_j = fl(1 + fl(k ln l_j)),
        k = shape / (b rho)^shape > 0; ln l_j and A_j are taken once per
        call.  A hit needs fl(A_j B_j) >= 1, hence B_j > 0, hence
        fl(k ln l_j) > -1.  The scan starts at the first index whose log is
        >= fl(-1/k) (the grid's logs increase).  Every log before it is
        < fl(-1/k), so < -1/k exactly, since a float between -1/k and its
        rounding would be nearer to -1/k.  There k ln l_j < -1, and as
        rounding is monotone and -1 a float, fl(k ln l_j) <= -1: no hit.  A
        block of cells starts where its smallest k does, the earliest of its
        starts.  Each residual keeps its operand order, so the first hit,
        and every bit, is that of the scan of all 600 points.  On a
        fine-grid bump the suffix holds about 34 of them.
        """
        r = self._check_density(rho)
        if np.any(r <= 0.0):
            raise DomainError("saturating limit needs rho > 0")
        out = np.ones_like(r)
        mask = r > self.delta
        if np.any(mask):
            k = self.shape / (self.density_scale * r[mask]) ** self.shape
            grid = np.geomspace(1e-9, 1.0, 600)
            log_grid = np.log(grid)
            lift = (1.0 + self.vsl_sensitivity * (1.0 - grid)) ** self.shape
            # the residual is 0 at l = 1, so every row has a hit; the scan
            # takes _SCAN_ROWS densities at a time, so its memory is bounded
            first = np.empty(k.size, dtype=np.intp)
            for s in range(0, k.size, _SCAN_ROWS):
                kb = k[s:s + _SCAN_ROWS, None]
                m = int(log_grid.searchsorted(-1.0 / kb.min()))
                hit = lift[m:] * (1.0 + kb * log_grid[m:]) - 1.0 >= 0.0
                first[s:s + _SCAN_ROWS] = m + np.argmax(hit, axis=1)
            out[mask] = _bisect_all(lambda mid: self._saturation_residual(k, mid) >= 0.0,
                                    grid[np.maximum(first - 1, 0)], grid[first], 80)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    where: str | None = None

    def __str__(self) -> str:
        loc = "" if self.where is None else f" at {self.where}"
        return f"{self.name}: {'pass' if self.passed else 'FAIL'} ({self.detail}{loc})"


def validate_assumptions(diagram: ExponentialDiagram) -> tuple[CheckResult, ...]:
    """Check the structural assumptions the controllers use, exactly.

    Reported checks:
      single_flow_peak   f' changes sign + -> - exactly once
      strict_concavity   f'' < 0 on [0, rho_max]

    With v = (b rho)^shape, f' = A e^(-v/shape) (1 - v) changes sign once,
    at rho = 1/b, so f has an interior peak iff rho_max > 1/b.  And
    f'' = -A e^(-v/shape) (v / rho) (1 + shape - v), with v increasing, is
    negative on (0, rho_max] iff (b rho_max)^shape < 1 + shape; at rho = 0,
    v / rho tends to b for shape = 1, to 0 for shape > 1 and to infinity
    for shape < 1, so f''(0) < 0 iff shape <= 1.

    The rest holds for every member, so it is not checked.  f(0) = 0 and
    f > 0 on (0, rho_max], since the constructor enforces A, b, shape > 0.
    And dF/dl > 0 on (0, l_sat(rho)): dF/dl has the sign of
    1 - (b rho)^shape phi(l), with phi(l) = a l / (1 + a (1 - l))^(1 + shape)
    increasing on (0, 1], so dF/dl changes sign at most once, from + to -.
    As F(rho, 0+) = 0 < f(rho) = F(rho, 1), the first l with F = f, which
    is l_sat, lies on the rising branch.

    Returns one CheckResult per check, in the order above, each with the
    first violating point, if any.  Nothing raises here; callers decide
    what a failure means for them.
    """
    b, shape, rho_max = diagram.density_scale, diagram.shape, diagram.rho_max
    has_peak = rho_max > 1.0 / b
    peak = CheckResult("single_flow_peak", has_peak,
                       f"rho_max = {rho_max:.6g} {'>' if has_peak else '<='} 1/b = {1.0 / b:.6g}")
    v = (b * rho_max) ** shape
    if shape > 1.0:
        concave = CheckResult("strict_concavity", False,
                              f"f''(0) = 0 for shape = {shape:.6g} > 1", (0.0,))
    elif v >= 1.0 + shape:
        concave = CheckResult("strict_concavity", False,
                              f"(b rho_max)^shape = {v:.6g} >= 1 + shape = {1.0 + shape:.6g}",
                              (diagram.inflection_density,))
    else:
        concave = CheckResult("strict_concavity", True,
                              f"(b rho_max)^shape = {v:.6g} < 1 + shape = {1.0 + shape:.6g}")
    return peak, concave


def _outside_unit(v: np.ndarray, top: float) -> bool:
    """Whether v holds a NaN or an entry outside (0, top], in one pass each."""
    return bool(v.size) and not (np.minimum.reduce(v, axis=None) > 0.0
                                 and np.maximum.reduce(v, axis=None) <= top)


def _bisect_all(up: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
                max_steps: int) -> np.ndarray:
    """Elementwise bisection midpoints after at most max_steps steps.

    up(mid) is True where the root lies in [lo, mid].  Requires 0 <= lo <= hi,
    so lo <= mid <= hi, and the branch-free ends fmin(hi, mid / go) and
    maximum(lo, mid * ~go) are np.where(go, mid, hi) and np.where(go, lo, mid)
    bit for bit: mid / 1 = mid, mid / 0 = inf or NaN (fmin skips NaN),
    mid * 0 = +0.0 <= lo and mid * 1 = mid.  A step that moves
    neither end is a fixed point: every later step computes the same mid
    and the same side, so the loop stops there with the result of running
    all max_steps.  NaN never compares equal, so a NaN element runs them all.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_steps):
            mid = 0.5 * (lo + hi)
            go = up(mid)
            new_lo = np.maximum(lo, mid * ~go)
            new_hi = np.fmin(hi, mid / go)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def speed_limits(diagram: ExponentialDiagram, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Physical limit ratios realizing the control u on a density field.

    The one inversion of the limit response: solves F(rho, l) = u * f(rho)
    elementwise by bisection on (0, l_sat(rho)], the monotone branch.
    With vsl_sensitivity = 0 this is simply l = u.  Densities outside
    [0, rho_max] and controls outside (0, 1], NaN included, raise
    DomainError.  Cells with l_sat = 1 skip the bisection steps whose
    outcome is proven: they start from `warmstart.bracket`, whose docstring
    has the proof, and end with the same bits as from [0, 1].
    """
    r, uu = np.broadcast_arrays(diagram._check_density(rho), np.asarray(u, dtype=float))
    if _outside_unit(uu, 1.0 + 1e-9):
        raise DomainError("control values must lie in (0, 1]")
    if diagram.vsl_sensitivity == 0.0:
        return np.minimum(uu, 1.0) * np.ones_like(r)
    r1 = r.ravel()
    out = np.minimum(uu.ravel(), 1.0)  # zero density carries zero flow; any ratio realizes it
    # HEAP_BLOCK cells at a time, so the bisection's arrays stay small
    # whatever the field's size; each cell's result is the same in any block
    from . import warmstart  # loaded on the first use, see warmstart
    for s in range(0, out.size, HEAP_BLOCK):
        warmstart.limits_block(diagram, r1[s:s + HEAP_BLOCK], out[s:s + HEAP_BLOCK])
    return out.reshape(r.shape)
