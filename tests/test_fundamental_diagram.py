"""Flow-density relationships.

Proves:
  1.  f(0) = 0 and the closed-form values at rho = 1, 0.7 (16 digits); a
      float gives the bits of a one-element array in every shape, for
      flow, flow_slope, flow_curvature and vsl_flow
  2.  vsl_flow at l = 1 equals flow bitwise; the a=1 reference value
  3.  critical density in closed form, exactly 1/density_scale:
      exponential, shape-2 family, and the non-concave members rho_max =
      2.1 and 2.5; capacity, the flow there, is the flow's maximum on a
      fine grid
  4.  delta: a = 0 gives rho_max; a = 1 gives 1/(b a^(1/shape)); the
      below-threshold case keeps rho_max
  5.  saturating limit: 1 at/below delta, interior root above it; the
      flow there matches the unlimited flow; elementwise, with a float for
      0-d input, and rho <= 0 rejected
  6.  speed_limits inverts the limit response: a known l at a = 1, full
      flow maps to the saturating limit, controls outside (0, 1] rejected;
      a field gives the same bits whole, row by row and in small blocks
  7.  assumption validator verdicts on family members: rho_max 1.6 and
      shape 0.5 pass, rho_max 2.1 and 2.5 are not concave, rho_max 0.9 has
      no peak, shape 2 has f''(0) = 0; the report holds the two exact
      checks, which agree with the former 2001-point sampler on 500 seeded
      random members away from the boundaries, and f(0) = 0 < f on the
      rest of the grid for each; critical_density raises exactly where
      single_flow_peak fails, on either side of rho_max = 1/b
  8.  domain errors: negative density, density above rho_max, bad limit,
      NaN limit; speed_limits rejects bad or NaN densities and NaN
      controls on both the a = 0 and the a > 0 path
  9.  analytic slope/curvature match central differences at O(h^2)
 10.  speed_limits solves F(rho, l) = u f(rho) vectorized, both a = 0
      and a > 0
 11.  the density check accepts and rejects exactly what the elementwise
      comparisons do at the +-tol edges, for 0-d, 1-d, 2-d and empty input,
      and rejects NaN
 12.  non-finite constructor fields, and A, b, shape or rho_max <= 0 or
      a < 0, are rejected with DomainError
 13.  saturating_limit and speed_limits stop their bisection at its fixed
      point with the result of the full fixed-count loops, and controls
      down to 1e-300 run the 100-step cap with the same bits as the loop
      that floored mid at 1e-300; a step that moves nothing stops the one
      bisection loop, a NaN element runs it out; its min/max ends give
      np.where's midpoints bit for bit, capped or stopped; every call
      stops before its cap but the cold call of tiny controls; on a
      fine-grid-shaped field below delta at least 95 % of the cells start
      warm, each warm call evaluates the predicate at most 16 times (14 here), and
      A rho and b rho are computed once per block, outside the steps
 14.  min_concavity, min(-f'') in closed form, is never above the min
      over a 2,000,001-point grid and within 1e-12 of it, for shapes 0.3
      to 3 and random shapes, with rho_max before the inflection density,
      between it and the far stationary point, and past both; on a
      pinned shape-3 member the former 2001-point grid lies above it
 15.  max_abs_slope, in closed form, is never below max |f'| on a
      2,000,001-point grid and within 1e-12 of it, for shapes 0.5 to 8;
      it is A exactly where the steepest descent is at rho = 0
 16.  slope_bound, max |f'| over a band in closed form, equals the max
      over 257 samples bit for bit on 1000 random bands without the
      inflection density, and -f' there on bands across it, which the
      samples fall short of
 17.  speed_limits' warm start keeps every bit of the loop from [0, 1]:
      roots on dyadic points of levels 1 to 40 and one ulp to either side,
      u = 1, rho = delta and its neighbours, roots below 2^-40 and rho near
      0, for a in {0.3, 1, 2} and shape in {0.5, 1, 2, 3}; a wrong first
      guess sends every cell back to [0, hi]; a process loads warmstart
      on its first speed_limits call with a > 0, not before
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vslcontrol import (AssumptionError, DomainError, ExponentialDiagram, speed_limits,
                        validate_assumptions)
from vslcontrol import fundamental_diagram, warmstart
from vslcontrol.fundamental_diagram import DENSITY_TOL_REL, _bisect_all

from conftest import grid_extreme

F_AT_1 = 0.3678794411714423216
F_AT_07 = 0.34760971265398666029
F_AT_16 = 0.32303442879144865358
VSL_A1_RHO1_L05 = 0.25670855951629601344
LSAT_A1_RHO15 = 0.72080308627034899465


class TestExponentialFlow:
    def test_zero_density_gives_zero_flow(self, diagram):
        assert diagram.flow(0.0) == 0.0

    def test_reference_values(self, diagram):
        assert diagram.flow(1.0) == pytest.approx(F_AT_1, abs=1e-16)
        assert diagram.flow(0.7) == pytest.approx(F_AT_07, abs=1e-16)
        assert diagram.flow(1.6) == pytest.approx(F_AT_16, abs=1e-16)

    def test_array_evaluation_matches_scalar(self, diagram):
        r = np.array([0.0, 0.3, 1.0, 1.6])
        np.testing.assert_array_equal(diagram.flow(r),
                                      [diagram.flow(v) for v in r])

    @pytest.mark.parametrize("shape", [0.5, 1.5, 2.0, 3.0])
    def test_scalar_rounds_as_the_array_in_every_shape(self, shape):
        # a float goes through numpy's array power and exp as a grid does,
        # not through its scalar math; at shape 0.5 the slope at the first
        # point once rounded differently (np.float64 ** 0.5 calls pow)
        d = ExponentialDiagram(shape=shape, vsl_sensitivity=1.0, rho_max=12.0)
        rng = np.random.default_rng(5)
        r = rng.uniform(0.0, 12.0, 2000)
        r[0] = 7.879307346479068
        l = rng.uniform(0.05, 1.0, r.size)
        for fn in (d.flow, d.flow_slope, d.flow_curvature):
            assert [fn(v) for v in r] == fn(r).tolist(), fn.__name__
            assert isinstance(fn(r[0]), float)
        assert [d.vsl_flow(v, w) for v, w in zip(r, l)] == d.vsl_flow(r, l).tolist()
        assert isinstance(d.vsl_flow(r[0], l[0]), float)

    def test_out_of_range_density_rejected(self, diagram):
        with pytest.raises(DomainError):
            diagram.flow(-0.01)
        with pytest.raises(DomainError):
            diagram.flow(1.7)

    def test_empty_input_gives_empty_flow(self, diagram):
        out = diagram.flow(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_scaled_family(self):
        d = ExponentialDiagram(flow_scale=2.5, density_scale=0.5, shape=2.0,
                               rho_max=3.0)
        r = 1.3
        v = (0.5 * r) ** 2.0
        assert d.flow(r) == pytest.approx(2.5 * r * np.exp(-v / 2.0), rel=1e-15)


class TestVslFlow:
    def test_no_limit_equals_flow(self, diagram):
        r = np.linspace(0.0, 1.6, 17)
        np.testing.assert_array_equal(diagram.vsl_flow(r, 1.0), diagram.flow(r))

    def test_reference_value_sensitivity_one(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        assert d.vsl_flow(1.0, 0.5) == pytest.approx(VSL_A1_RHO1_L05, abs=1e-15)

    def test_zero_density(self, diagram):
        assert diagram.vsl_flow(0.0, 0.5) == 0.0

    def test_nonpositive_limit_rejected(self, diagram):
        d1 = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        for d in (diagram, d1):
            for bad in (0.0, 1.5, np.nan, np.array([0.5, np.nan])):
                with pytest.raises(DomainError):
                    d.vsl_flow(0.5, bad)


class TestCriticalDensity:
    def test_reference_family(self, diagram):
        assert diagram.critical_density == pytest.approx(1.0, abs=1e-9)
        assert diagram.capacity == pytest.approx(F_AT_1, rel=1e-12)

    def test_shape_two_family(self):
        d = ExponentialDiagram(shape=2.0, rho_max=1.6)
        assert d.critical_density == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("rho_max", [2.1, 2.5])
    def test_non_concave_members_keep_their_peak(self, rho_max):
        d = ExponentialDiagram(rho_max=rho_max)
        assert d.critical_density == pytest.approx(1.0, abs=1e-9)
        assert d.capacity == pytest.approx(F_AT_1, rel=1e-12)

    def test_flow_peak(self):
        # the free law's window bounds take capacity as the flow's maximum
        for fields in (dict(rho_max=1.6), dict(rho_max=2.5), dict(shape=2.0, rho_max=1.6),
                       dict(shape=0.5, density_scale=2.0, rho_max=1.6),
                       dict(density_scale=0.7, rho_max=2.0)):
            d = ExponentialDiagram(**fields)
            fine = np.linspace(0.0, d.rho_max, 160001)
            assert d.capacity == d.flow(d.critical_density)
            assert float(np.max(d.flow(fine))) <= d.capacity * (1.0 + 1e-15)
            assert d.critical_density == 1.0 / d.density_scale

    def test_slope_changes_sign_around_it(self, diagram):
        r = diagram.critical_density
        assert diagram.flow_slope(r - 1e-4) > 0.0 > diagram.flow_slope(r + 1e-4)


class TestMaxAbsSlope:
    @pytest.mark.parametrize("shape,rho_max", [(0.5, 1.6), (1.0, 1.6), (2.0, 1.6),
                                               (5.0, 1.6), (8.0, 1.9)])
    def test_bounds_a_fine_grid(self, shape, rho_max):
        # f' is steepest at rho = 0 up to shape 2 here; from shape 5 on, at
        # the inflection density, which a 2001-point grid can miss
        d = ExponentialDiagram(flow_scale=1.5, shape=shape, rho_max=rho_max)
        fine = np.max(np.abs(d.flow_slope(np.linspace(0.0, rho_max, 2_000_001))))
        assert d.max_abs_slope >= fine
        assert d.max_abs_slope == pytest.approx(fine, rel=1e-12, abs=0.0)
        coarse = np.max(np.abs(d.flow_slope(np.linspace(0.0, rho_max, 2001))))
        if shape <= 2.0:
            assert d.max_abs_slope == coarse == 1.5
        else:
            assert coarse < fine


def far_stationary_density(d):
    """v2^(1/shape) / b, where -f'' stops falling: v2 = (3 s + sqrt(5 s^2 + 4)) / 2."""
    s = d.shape
    return ((3.0 * s + np.sqrt(5.0 * s * s + 4.0)) / 2.0) ** (1.0 / s) / d.density_scale


class TestMinConcavity:
    @staticmethod
    def members():
        rng = np.random.default_rng(18)
        shapes = [0.3, 0.5, 1.0, 2.0, 3.0, *rng.uniform(0.3, 3.0, size=4)]
        for shape in shapes:
            base = ExponentialDiagram(flow_scale=1.3, density_scale=0.8, shape=shape)
            infl, far = base.inflection_density, far_stationary_density(base)
            for rho_max in (0.9 * infl, 0.5 * (infl + far), 1.3 * far):
                yield ExponentialDiagram(flow_scale=1.3, density_scale=0.8, shape=shape,
                                         rho_max=rho_max)

    def test_bounds_a_fine_grid(self):
        for d in self.members():
            fine = grid_extreme(lambda r: -d.flow_curvature(r), 0.0, d.rho_max, np.min,
                                near=far_stationary_density(d))
            # -f'' takes about eight rounded operations, so a sample beside
            # an interior min may round up to about 8 eps below the closed
            # form's own evaluation; never by more
            assert d.min_concavity <= fine + 2e-15 * abs(fine), (d.shape, d.rho_max)
            assert d.min_concavity == pytest.approx(fine, rel=1e-12, abs=0.0)

    def test_old_grid_was_on_the_unsafe_side(self):
        d = ExponentialDiagram(flow_scale=1.7709, density_scale=1.8897, shape=3.0, rho_max=2.07)
        coarse = float(np.min(-d.flow_curvature(np.linspace(0.0, d.rho_max, 2001))))
        fine = grid_extreme(lambda r: -d.flow_curvature(r), 0.0, d.rho_max, np.min)
        assert d.min_concavity <= fine < coarse
        # the min sits at the far stationary point, not at an end
        assert d.min_concavity == -d.flow_curvature(far_stationary_density(d))


class TestDelta:
    def test_zero_sensitivity(self, diagram):
        assert diagram.delta == 1.6

    def test_above_threshold(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        assert d.delta == pytest.approx(1.0, rel=1e-15)

    def test_below_threshold_keeps_rho_max(self):
        d = ExponentialDiagram(vsl_sensitivity=0.25, shape=2.0, rho_max=1.6)
        # 0.25 * 1.6^2 = 0.64 <= 1
        assert d.delta == 1.6


class TestSaturatingLimit:
    def test_identity_at_or_below_delta(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        assert d.saturating_limit(0.5) == 1.0
        assert d.saturating_limit(1.0) == 1.0

    def test_zero_sensitivity_everywhere_one(self, diagram):
        for r in (0.1, 0.9, 1.6):
            assert diagram.saturating_limit(r) == 1.0

    def test_interior_root(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        l = d.saturating_limit(1.5)
        assert l == pytest.approx(LSAT_A1_RHO15, abs=1e-10)
        # the saturated limit recovers the unlimited flow
        assert d.vsl_flow(1.5, l) == pytest.approx(d.flow(1.5), rel=1e-10)

    def test_elementwise(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, shape=2.0, rho_max=1.6)
        rho = np.array([[0.2, 1.0, 1.3], [1.45, 1.5, 1.6]])
        got = d.saturating_limit(rho)
        assert got.shape == rho.shape
        np.testing.assert_array_equal(got, [[d.saturating_limit(r) for r in row] for row in rho])
        assert isinstance(d.saturating_limit(np.float64(1.5)), float)
        assert d.saturating_limit(np.array([])).shape == (0,)

    def test_nonpositive_or_bad_density_rejected(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        for bad in (0.0, np.array([1.2, 0.0]), -0.5, 1.7, np.nan):
            with pytest.raises(DomainError):
                d.saturating_limit(bad)


class TestValidator:
    def test_reference_family_passes(self, diagram):
        report = validate_assumptions(diagram)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "strict_concavity" in names and "single_flow_peak" in names

    @pytest.mark.parametrize("fields,failed,where", [
        (dict(rho_max=1.6), set(), None),
        (dict(shape=0.5, rho_max=1.6), set(), None),
        # f'' >= 0 from rho = 2 on, the inflection point (1 + shape)^(1/shape) / b
        (dict(rho_max=2.1), {"strict_concavity"}, (2.0,)),
        (dict(rho_max=2.5), {"strict_concavity"}, (2.0,)),
        (dict(rho_max=0.9), {"single_flow_peak"}, None),
        (dict(shape=2.0, rho_max=1.6), {"strict_concavity"}, (0.0,)),
        (dict(shape=2.0, rho_max=0.9), {"single_flow_peak", "strict_concavity"}, (0.0,)),
    ], ids=["rho_max-1.6", "shape-0.5", "rho_max-2.1", "rho_max-2.5", "rho_max-0.9",
            "shape-2", "shape-2-no-peak"])
    def test_family_verdicts(self, fields, failed, where):
        report = validate_assumptions(ExponentialDiagram(**fields))
        checks = {c.name: c for c in report.checks}
        assert list(checks) == ["single_flow_peak", "strict_concavity"]
        assert {c.name for c in report.checks if not c.passed} == failed
        assert report.passed == (not failed)
        assert checks["strict_concavity"].where == where

    @pytest.mark.parametrize("b", [1.0, 0.7, 1.8897])
    def test_critical_density_raises_exactly_without_a_peak(self, b):
        for rho_max in (1.0 / b, np.nextafter(1.0 / b, 0.0), np.nextafter(1.0 / b, 2.0)):
            d = ExponentialDiagram(density_scale=b, rho_max=float(rho_max))
            if validate_assumptions(d).checks[0].passed:
                assert d.critical_density == 1.0 / b
            else:
                with pytest.raises(AssumptionError, match="no interior critical density"):
                    d.critical_density


def sampled_verdicts(d, n_samples=2001):
    """(single peak, strict concavity) as the validator once sampled them:
    f' changes sign + -> - once and f'' < 0 at every point of an
    n_samples-point grid over [0, rho_max], 0 and rho_max included."""
    grid = np.linspace(0.0, d.rho_max, n_samples)
    slopes = np.asarray(d.flow_slope(grid), dtype=float)
    curvature = np.asarray(d.flow_curvature(grid), dtype=float)
    neg = np.nonzero(slopes < 0.0)[0]
    if slopes[0] <= 0.0 or neg.size == 0:
        peak = False
    else:
        head, tail = slopes[:neg[0]], slopes[neg[0]:]
        zeros = np.nonzero(head == 0.0)[0]
        peak = (zeros.size == 0 or (zeros.size == 1 and zeros[0] == neg[0] - 1)) \
            and not np.any(tail >= 0.0)
    return peak, not np.any(curvature >= 0.0)


class TestExactConditions:
    def test_agree_with_the_sampled_reference(self):
        rng = np.random.default_rng(12)
        verdicts = []
        while len(verdicts) < 500:
            b = rng.uniform(0.3, 3.0)
            shape = rng.choice([rng.uniform(0.3, 1.0), 1.0, rng.uniform(1.0, 3.0)])
            rho_max = rng.uniform(0.5, 3.0) / b
            v = (b * rho_max) ** shape
            # the grid's sampling decides within 1e-3 of a boundary; shape = 1
            # itself is exact (f''(0) = -2 A b)
            near = [abs(b * rho_max - 1.0), abs(v / (1.0 + shape) - 1.0)]
            if shape != 1.0:
                near.append(abs(shape - 1.0))
            if min(near) < 1e-3:
                continue
            d = ExponentialDiagram(flow_scale=rng.uniform(0.5, 2.0), density_scale=b,
                                   shape=shape, rho_max=rho_max)
            exact = tuple(c.passed for c in validate_assumptions(d).checks)
            assert exact == sampled_verdicts(d), (b, shape, rho_max)
            flows = d.flow(np.linspace(0.0, rho_max, 2001))
            assert flows[0] == 0.0 and np.all(flows[1:] > 0.0)
            verdicts.append((shape, *exact))
        # both verdicts of both checks occur, on either side of shape = 1
        for side in (lambda s: s < 1.0, lambda s: s > 1.0):
            seen = [(p, c) for s, p, c in verdicts if side(s)]
            assert {p for p, _ in seen} == {True, False}
        assert {c for s, _, c in verdicts if s <= 1.0} == {True, False}


class TestDerivatives:
    def test_slope_matches_central_difference(self, diagram):
        h = 1e-6
        for r in np.linspace(0.1, 1.5, 9):
            fd = (diagram.flow(r + h) - diagram.flow(r - h)) / (2.0 * h)
            assert diagram.flow_slope(r) == pytest.approx(fd, abs=5e-10)

    def test_curvature_matches_central_difference(self, diagram):
        h = 1e-5
        for r in np.linspace(0.1, 1.5, 9):
            fd = (diagram.flow(r + h) - 2.0 * diagram.flow(r)
                  + diagram.flow(r - h)) / h ** 2
            assert diagram.flow_curvature(r) == pytest.approx(fd, abs=1e-5)


class TestSpeedLimits:
    def test_zero_sensitivity_returns_control(self, diagram):
        rho = np.array([0.4, 0.9, 1.3])
        u = np.array([1.0, 0.7, 0.2])
        np.testing.assert_array_equal(speed_limits(diagram, rho, u), u)

    def test_positive_sensitivity_solves_flow_equation(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        rho = np.array([0.3, 0.8, 1.4])
        u = np.array([0.95, 0.6, 0.35])
        l = speed_limits(d, rho, u)
        for r, li, ui in zip(rho, l, u):
            assert d.vsl_flow(r, li) == pytest.approx(ui * d.flow(r), abs=1e-10)

    def test_zero_density_entries_pass_through(self, diagram):
        l = speed_limits(diagram, np.array([0.0, 0.5]), np.array([0.8, 0.8]))
        assert l[0] == 0.8

    def test_known_limit_at_sensitivity_one(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        l = speed_limits(d, np.array([1.0]), np.array([VSL_A1_RHO1_L05 / F_AT_1]))
        assert l[0] == pytest.approx(0.5, abs=1e-10)

    def test_full_flow_maps_to_saturation(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        l = speed_limits(d, np.array([1.5]), np.array([1.0]))
        assert l[0] == pytest.approx(LSAT_A1_RHO15, abs=1e-10)

    def test_bad_controls_rejected(self):
        # both the a = 0 shortcut and the a > 0 bisection
        for a in (0.0, 1.0):
            d = ExponentialDiagram(vsl_sensitivity=a, rho_max=1.6)
            for bad in (0.0, 1.01, np.nan):
                with pytest.raises(DomainError):
                    speed_limits(d, np.array([1.0]), np.array([bad]))

    def test_bad_densities_rejected(self):
        for a in (0.0, 1.0):
            d = ExponentialDiagram(vsl_sensitivity=a, rho_max=1.6)
            for bad in (-5.0, 3.0, np.nan):
                with pytest.raises(DomainError):
                    speed_limits(d, np.array([bad]), np.array([0.5]))
                with pytest.raises(DomainError):
                    speed_limits(d, np.array([[0.5, bad]]), 0.5)

    def test_blocks_give_the_same_bits(self, monkeypatch):
        # a 40 x 301 field is two blocks of speed_limits; per-row calls,
        # ragged blocks of 7 cells and scan blocks of 5 densities agree
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        rng = np.random.default_rng(5)
        rho = rng.uniform(0.0, 1.6, (40, 301))
        rho[0, :5] = 0.0
        u = rng.uniform(0.05, 1.0, rho.shape)
        whole = speed_limits(d, rho, u)
        assert rho.size > fundamental_diagram.HEAP_BLOCK and np.sum(rho > d.delta) > 128
        rows = np.array([speed_limits(d, r, v) for r, v in zip(rho, u)])
        monkeypatch.setattr(fundamental_diagram, "HEAP_BLOCK", 7)
        monkeypatch.setattr(fundamental_diagram, "_SCAN_ROWS", 5)
        small = speed_limits(d, rho, u)
        for got in (rows, small):
            np.testing.assert_array_equal(got.view(np.int64), whole.view(np.int64))


class TestBisectionFixedPoint:
    """saturating_limit and speed_limits against the fixed-count loops they stop early."""

    @staticmethod
    def full_saturating_limits(d, r):
        out = np.ones_like(r)
        mask = r > d.delta
        rm = r[mask]
        a, shape = d.vsl_sensitivity, d.shape

        def residual(rho, l):
            core = (d.density_scale * rho) ** shape
            return (1.0 + a * (1.0 - l)) ** shape * (1.0 + shape / core * np.log(l)) - 1.0

        grid = np.geomspace(1e-9, 1.0, 600)
        first = np.argmax(residual(rm[:, None], grid[None, :]) >= 0.0, axis=1)
        lo = np.where(first > 0, grid[np.maximum(first - 1, 0)], grid[0])
        hi = grid[first]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            up = residual(rm, mid) >= 0.0
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        out[mask] = 0.5 * (lo + hi)
        return out

    @classmethod
    def full_speed_limits(cls, d, rho, u):
        # keeps the floor np.maximum(mid, 1e-300) that speed_limits dropped
        out = np.empty_like(rho)
        zero = rho <= 0.0
        out[zero] = u[zero]
        r = rho[~zero]
        hi = cls.full_saturating_limits(d, r)
        y = np.minimum(u[~zero] * d.flow(r), d._vsl_flow_raw(r, hi))
        lo = np.zeros_like(r)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            up = d._vsl_flow_raw(r, np.maximum(mid, 1e-300)) >= y
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        out[~zero] = 0.5 * (lo + hi)
        return out

    @pytest.mark.parametrize("shape", [1.0, 2.0])
    @pytest.mark.parametrize("rows", ["saturating", "below_delta", "mixed", "tiny_u"])
    @pytest.mark.parametrize("size", [1, 257])
    def test_equals_fixed_count_loops(self, shape, rows, size, monkeypatch):
        d = ExponentialDiagram(vsl_sensitivity=1.0, shape=shape, rho_max=1.6)
        rng = np.random.default_rng(5)
        lo, hi = {"saturating": (d.delta * 1.001, 1.6), "below_delta": (0.1, d.delta),
                  "mixed": (0.0, 1.6), "tiny_u": (0.0, 1.6)}[rows]
        rho = rng.uniform(lo, hi, size)
        u = rng.uniform(0.05, 1.0, size)
        if rows == "tiny_u":
            # rho on (0, 1.6], roots below hi * 2^-100: the loop runs its
            # 100-step cap, with mid far above the reference's 1e-300 floor
            rho, u = hi - rho, 10.0 ** rng.uniform(-300.0, -6.0, size)
        if size > 1:
            rho[0], u[1] = lo, 1.0
        want_sat = self.full_saturating_limits(d, rho[rho > 0.0])
        want = self.full_speed_limits(d, rho, u)
        evals = count_evaluations(monkeypatch, 100)
        got = speed_limits(d, rho, u)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        # every call stops at its fixed point, but the cold call of tiny_u,
        # whose roots lie below hi * 2^-100, runs its cap
        assert 1 <= len(evals) <= 2
        for n, _, warm in evals:
            assert n == 100 if rows == "tiny_u" and not warm else n < 100
        assert rows != "tiny_u" or any(not warm for _, _, warm in evals)
        np.testing.assert_array_equal(d.saturating_limit(rho[rho > 0.0]), want_sat)

    def test_branch_free_ends_equal_np_where(self):
        # np.where's ends, the loop as it was, on brackets with lo = 0,
        # lo == hi (0 included), subnormal hi and hi = 1, and a predicate
        # that picks a side at random from mid's bits
        def where_loop(up, lo, hi, max_steps):
            for _ in range(max_steps):
                mid = 0.5 * (lo + hi)
                go = up(mid)
                new_lo, new_hi = np.where(go, lo, mid), np.where(go, mid, hi)
                if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                    break
                lo, hi = new_lo, new_hi
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(17)
        n = 1000
        hi = np.concatenate([rng.uniform(0.0, 1.0, n), np.ones(n),
                             5e-324 * rng.integers(0, 2 ** 20, n), 2.0 ** -1022 * rng.random(n),
                             10.0 ** rng.uniform(-300.0, 0.0, n)])
        hi[2 * n:2 * n + 5] = 0.0
        lo = hi * rng.random(hi.size)
        lo[::4] = 0.0
        lo[1::5] = hi[1::5]
        assert np.sum(lo == hi) >= n and np.sum((lo == 0.0) & (hi == 0.0)) > 0
        for max_steps in (30, 1100):
            mids = {}
            for name, loop in (("where", where_loop), ("min_max", _bisect_all)):
                seen = mids[name] = []

                def up(mid):
                    seen.append(mid.copy())
                    bits = mid.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                    return (bits >> np.uint64(40)) & np.uint64(1) == 1

                seen.append(loop(up, lo.copy(), hi.copy(), max_steps))
            assert len(mids["min_max"]) == len(mids["where"]) > 2
            for a, b in zip(mids["min_max"], mids["where"]):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_a_fine_grid_field_costs_bounded_calls(self, monkeypatch):
        # a 61 x 1601 field at a = 1 with densities below delta = 1, so
        # l_sat = 1 everywhere, controls in [0.9, 1] and u = 1 at the inlet
        # is 12 blocks.  At least 95 % of its cells start warm, each warm
        # call stops within 16 predicate evaluations (14 here), and _vsl_flow_raw
        # runs once per block, for y: the steps evaluate F from A rho and
        # b rho computed once per block
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.7, 1.0, (61, 1601))
        u = rng.uniform(0.9, 1.0, rho.shape)
        u[:, 0] = 1.0
        assert np.all(d.saturating_limit(rho) == 1.0)
        evals = count_evaluations(monkeypatch, 100)
        raw = []
        flow = ExponentialDiagram._vsl_flow_raw
        monkeypatch.setattr(ExponentialDiagram, "_vsl_flow_raw",
                            lambda self, r, l: raw.append(1) or flow(self, r, l))
        speed_limits(d, rho, u)
        assert len(raw) == -(-rho.size // fundamental_diagram.HEAP_BLOCK) == 12
        warm = [(n, cells) for n, cells, is_warm in evals if is_warm]
        assert len(warm) == 12
        assert sum(cells for _, cells in warm) >= 0.95 * rho.size
        assert max(n for n, _ in warm) <= 16

    def test_only_a_step_that_moves_nothing_stops(self):
        calls = []

        def up(mid):
            calls.append(1)
            return np.ones(mid.shape, dtype=bool)

        one = np.array([0.25])
        assert _bisect_all(up, one, one, 50)[0] == 0.25
        assert len(calls) == 1
        # a NaN end never equals itself, so a NaN element runs every step
        calls.clear()
        _bisect_all(up, np.array([0.25, 0.0]), np.array([0.25, np.nan]), 50)
        assert len(calls) == 50


class TestWarmBracket:
    """speed_limits' warm start against the loop from [0, hi] that it shortcuts."""

    DIAGRAMS = [(a, shape) for a in (0.3, 1.0, 2.0) for shape in (0.5, 1.0, 2.0, 3.0)]

    @staticmethod
    def loop(d, ar, br, y, hi):
        """100 np.where steps from [0, hi], the loop before it stopped early."""
        lo = np.zeros_like(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            up = d._limited_flow(ar, br, mid) >= y
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("a,shape", DIAGRAMS)
    def test_roots_on_dyadic_points(self, a, shape):
        # y = F(rho, p) at dyadic p = j / 2^k, k = 1..40, and its neighbours,
        # so that the root sits on a mid of the loop or an ulp beside it
        d = ExponentialDiagram(vsl_sensitivity=a, shape=shape, rho_max=1.6)
        rng = np.random.default_rng(11)
        k = np.repeat(np.arange(1, 41), 6)
        p = (2.0 * np.floor(rng.random(k.size) * 2.0 ** (k - 1)) + 1.0) / 2.0 ** k
        rho = rng.uniform(0.05, 1.0, p.size) * d.delta
        ar, br = d.flow_scale * rho, d.density_scale * rho
        hi = d.saturating_limit(rho)
        assert np.all(hi == 1.0)
        at_p = d._limited_flow(ar, br, p)
        warm = []
        for y in (at_p, np.nextafter(at_p, 0.0), np.nextafter(at_p, np.inf)):
            y = np.minimum(y, d._vsl_flow_raw(rho, hi))
            lo, up = warmstart.bracket(d, ar, br, y, hi)
            got = _bisect_all(lambda mid: d._limited_flow(ar, br, mid) >= y, lo, up, 100)
            want = self.loop(d, ar, br, y, hi)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            warm.append(lo > 0.0)
        assert np.mean(warm) > 0.9

    @pytest.mark.parametrize("a,shape", DIAGRAMS)
    def test_edge_cells_keep_their_bits(self, a, shape):
        # rho = delta and its float neighbours, rho near 0, u = 1 and the
        # float below it, u whose roots lie below 2^-40, and u whose roots
        # sit on dyadic points, against TestBisectionFixedPoint's loops
        d = ExponentialDiagram(vsl_sensitivity=a, shape=shape, rho_max=1.6)
        rng = np.random.default_rng(13)
        delta = d.delta
        rho = np.concatenate([[delta, np.nextafter(delta, 0.0), np.nextafter(delta, 2.0),
                               5e-324, 1e-310, 1e-300, 1e-150, 1e-20, 1e-8],
                              rng.uniform(0.0, 1.0, 12) * delta])
        rho = rho[rho <= d.rho_max]
        p = np.ldexp(1.0, -rng.integers(1, 41, 8)) * (2 * rng.integers(0, 2, 8) + 1)
        u = np.concatenate([[1.0, np.nextafter(1.0, 0.0), 1e-300, 1e-40, 1e-13, 0.5],
                            10.0 ** rng.uniform(-300.0, -13.0, 4)])
        r, uu = np.broadcast_arrays(rho[:, None], np.concatenate([u, np.ones(3 * p.size)]))
        r, uu = r.copy(), uu.copy()
        # u = F(rho, p) / f(rho) and the floats beside it: roots on dyadic points
        on_p = d.vsl_flow(rho[:, None], np.minimum(p, 1.0)) / d.flow(rho)[:, None]
        for j, v in enumerate((on_p, np.nextafter(on_p, 0.0), np.nextafter(on_p, 2.0))):
            uu[:, u.size + j * p.size:u.size + (j + 1) * p.size] = v
        uu = np.where(np.isfinite(uu) & (uu > 0.0), np.minimum(uu, 1.0), 1.0)
        got = speed_limits(d, r, uu)
        want = TestBisectionFixedPoint.full_speed_limits(d, r.ravel(), uu.ravel())
        np.testing.assert_array_equal(got.ravel().view(np.int64), want.view(np.int64))

    def test_a_wrong_guess_falls_back(self, monkeypatch):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        rng = np.random.default_rng(17)
        rho = rng.uniform(0.1, 1.0, 2000)
        u = rng.uniform(0.05, 1.0, rho.size)
        u[:20] = 1.0
        ar, br = d.flow_scale * rho, d.density_scale * rho
        hi = d.saturating_limit(rho)
        y = np.minimum(u * d.flow(rho), d._vsl_flow_raw(rho, hi))
        want = TestBisectionFixedPoint.full_speed_limits(d, rho, u)
        guess = warmstart.newton_limit(d, ar, br, y)
        n = rho.size
        near = [guess, guess * (1.0 + 2.0 ** -45), guess * (1.0 - 2.0 ** -45)]
        wrong = [guess * (1.0 + 1e-9), guess * (1.0 - 1e-9), guess * 1.5, guess * 0.5,
                 np.full(n, 0.5), np.full(n, np.nan), np.full(n, 2.0), np.zeros(n),
                 -guess, np.full(n, np.inf), np.full(n, 2.0 ** -45)]
        for trial in near + wrong:
            monkeypatch.setattr(warmstart, "newton_limit",
                                lambda *args, trial=trial: trial.copy())
            lo, up = warmstart.bracket(d, ar, br, y, hi)
            got = _bisect_all(lambda mid: d._limited_flow(ar, br, mid) >= y, lo, up, 100)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            if any(trial is w for w in wrong):
                # the guess misses every root by more than 2^-41: [0, hi] throughout
                assert np.all(lo == 0.0) and np.array_equal(up, hi)
            else:
                assert np.mean(lo > 0.0) > 0.95
        # speed_limits with a wrong guess runs the cold call alone, same bits
        evals = count_evaluations(monkeypatch, 100)
        np.testing.assert_array_equal(speed_limits(d, rho, u).view(np.int64),
                                      want.view(np.int64))
        assert [warm for _, _, warm in evals] == [False]

    def test_loaded_on_the_first_inversion_only(self):
        # a process that inverts no limit response (the oracle workloads,
        # every a = 0 run) does not compile the warm start
        src = Path(fundamental_diagram.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy as np, vslcontrol as v; "
             "loaded = lambda: print('vslcontrol.warmstart' in sys.modules); "
             "loaded(); v.speed_limits(v.ExponentialDiagram(), np.ones(3), 0.5); loaded(); "
             "d = v.ExponentialDiagram(vsl_sensitivity=1.0); "
             "v.speed_limits(d, np.ones(3), 0.5); loaded()"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "True"]


def count_evaluations(monkeypatch, max_steps):
    """[predicate evaluations, cells, warm] for each call of _bisect_all with max_steps.

    A warm call starts from warmstart.bracket's brackets, every lo > 0; a cold
    one from [0, hi].
    """
    counts = []
    bisect = fundamental_diagram._bisect_all

    def counted(up, lo, hi, steps):
        if steps != max_steps:
            return bisect(up, lo, hi, steps)
        assert np.all(lo > 0.0) or np.all(lo == 0.0)
        counts.append([0, lo.size, bool(lo.size and lo[0] > 0.0)])

        def counted_up(mid):
            counts[-1][0] += 1
            return up(mid)
        return bisect(counted_up, lo, hi, steps)

    monkeypatch.setattr(fundamental_diagram, "_bisect_all", counted)
    return counts


def test_no_critical_density_raises():
    # rho_max 0.9 < 1/b: f rises on all of [0, rho_max]
    with pytest.raises(AssumptionError, match="no interior critical density"):
        ExponentialDiagram(rho_max=0.9).critical_density


class TestDensityCheck:
    """The one-pass check against an elementwise predicate; NaN is outside."""

    @staticmethod
    def elementwise_rejects(diagram, r):
        tol = DENSITY_TOL_REL * max(1.0, diagram.rho_max)
        return bool(np.any(~((r >= -tol) & (r <= diagram.rho_max + tol))))

    def test_edges_in_every_shape(self, diagram):
        tol = DENSITY_TOL_REL * max(1.0, diagram.rho_max)
        top = diagram.rho_max + tol
        edges = [-tol, np.nextafter(-tol, -np.inf), top, np.nextafter(top, np.inf),
                 0.0, diagram.rho_max, np.nan, np.inf, -np.inf]
        inputs = [np.array([])]
        for v in edges:
            inputs += [np.asarray(v), np.array([0.7, v, 1.0]),
                       np.array([[0.7, 1.0], [v, 0.3]]), np.array([np.nan, v])]
        verdicts = set()
        for r in inputs:
            rejects = self.elementwise_rejects(diagram, r)
            verdicts.add(rejects)
            if rejects:
                with pytest.raises(DomainError):
                    diagram._check_density(r)
            else:
                assert diagram._check_density(r).shape == r.shape
                if r.size:
                    assert diagram.density_range(r) == (np.min(r), np.max(r))
        assert verdicts == {True, False}


class TestNonFiniteFields:
    @pytest.mark.parametrize("field", ["flow_scale", "density_scale", "shape",
                                       "vsl_sensitivity", "rho_max"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_exponential(self, field, bad):
        with pytest.raises(DomainError):
            ExponentialDiagram(**{field: bad})

    # A, b, shape > 0 is what makes f(0) = 0 and f > 0 on (0, rho_max]
    # hold for every member, so the validator need not check them
    @pytest.mark.parametrize("field,bad", [(f, v) for f in ("flow_scale", "density_scale",
                                                             "shape", "rho_max")
                                           for v in (0.0, -1.0)]
                             + [("vsl_sensitivity", -0.5)])
    def test_nonpositive(self, field, bad):
        with pytest.raises(DomainError):
            ExponentialDiagram(**{field: bad})


class TestSlopeBound:
    @staticmethod
    def sampled(d, lo, hi):
        """The band bound the oracle used before: max |f'| over 257 samples."""
        return float(np.max(np.abs(d.flow_slope(np.linspace(lo, hi, 257)))))

    @pytest.mark.parametrize("shape,rho_max", [(1.0, 1.6), (2.0, 1.6), (1.0, 2.5), (0.5, 12.0)])
    def test_equals_the_samples_off_the_inflection(self, shape, rho_max):
        d = ExponentialDiagram(shape=shape, rho_max=rho_max)
        infl = d.inflection_density
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 1000:
            lo, hi = np.sort(rng.uniform(0.0, rho_max, 2))
            if lo <= infl <= hi:
                continue
            assert d.slope_bound(lo, hi) == self.sampled(d, lo, hi)
            checked += 1

    def test_peaks_at_the_inflection_inside_the_band(self):
        d = ExponentialDiagram(rho_max=2.5)
        assert d.inflection_density == 2.0
        peak = -d.flow_slope(2.0)
        rng = np.random.default_rng(16)
        short = 0
        for lo, hi in zip(rng.uniform(1.5, 2.0, 2000), rng.uniform(2.0, 2.5, 2000)):
            assert d.slope_bound(lo, hi) == peak
            short += self.sampled(d, lo, hi) < peak
        assert short == 2000
