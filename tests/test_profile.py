"""Density profiles and their quadrature/norm primitives.

Proves:
  1.  cumulative deviation (node integrals plus quadrature.integral_to
      between nodes): zero at x = 0, exact for constant deviation, the
      quartic bump integral over [0,1] within O(h^2), additive over
      subintervals, exact partial-cell behavior between nodes
  2.  trapezoid error on the bump shrinks 4x when the grid doubles
  3.  sup deviation: reference value 0.5184 at the on-grid maximizer,
      zero only at equilibrium, isolated-spike case
  4.  builders: bump pins rho(0) = rho_star; polynomial matches the bump
      coefficients; uniform defaults to the set point
  5.  validation errors: nonpositive values, bad length, too few nodes,
      non-finite length or set point
  6.  scenario wiring: output times include endpoints, mismatched
      profiles rejected, densities above rho_max rejected, non-finite
      horizon, interval, length or set point rejected
"""

import numpy as np
import pytest

from vslcontrol import (DensityProfile, DomainError, Scenario, bump_profile,
                        polynomial_profile, sampled_profile, uniform_profile)
from vslcontrol.quadrature import integral_to

BUMP_INTEGRAL = 0.32  # exact: 4 * (1.44/3 - 2.4/4 + 1/5)
BUMP_SUP = 0.5184     # at x = 0.6


def deviation_to(p, x):
    """D(x) of profile p, exact through the last (linear) partial cell."""
    return integral_to(p.x, p.values - p.rho_star, p.node_deviation_integrals(), x)


class TestCumulativeDeviation:
    def test_zero_at_origin(self, bump400):
        assert bump400.node_deviation_integrals()[0] == 0.0
        assert deviation_to(bump400, 0.0) == 0.0

    def test_constant_deviation_is_linear(self):
        p = uniform_profile(2.0, 100, 0.5, value=1.5)
        assert p.node_deviation_integrals()[-1] == pytest.approx(2.0, rel=1e-14)
        assert deviation_to(p, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert deviation_to(p, 0.7) == pytest.approx(0.7, rel=1e-14)

    def test_bump_integral_reference(self, bump400):
        err = bump400.node_deviation_integrals()[-1] - BUMP_INTEGRAL
        # Euler-Maclaurin: -(h^2/12) * (dev'(1) - dev'(0)) with dev'(1) = -1.28
        assert err == pytest.approx((1.0 / 400) ** 2 / 12.0 * 1.28 * -1.0, rel=1e-3)
        assert abs(err) < 1e-6

    def test_refinement_is_second_order(self):
        errs = [abs(bump_profile(1.0, n, 0.7).node_deviation_integrals()[-1]
                    - BUMP_INTEGRAL) for n in (200, 400)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.02)

    def test_additive_over_subintervals(self, bump400):
        full = deviation_to(bump400, 1.0)
        # node integrals telescope
        D = bump400.node_deviation_integrals()
        assert D[-1] == pytest.approx(full, abs=1e-15)
        parts = np.diff(D)
        assert np.sum(parts) == pytest.approx(full, rel=1e-12)

    def test_partial_cell_is_linear_interpolation_of_integrand(self):
        p = sampled_profile(1.0, 1.0, np.array([1.0, 2.0, 1.0]))
        # between nodes 0 and 1 the deviation ramps 0 -> 1 over width 0.5
        assert deviation_to(p, 0.25) == pytest.approx(0.25 * 0.5 / 2.0, rel=1e-12)


class TestSupDeviation:
    def test_bump_reference(self, bump400):
        assert bump400.sup_deviation() == BUMP_SUP
        i = int(np.argmax(np.abs(bump400.values - 0.7)))
        assert bump400.x[i] == pytest.approx(0.6, abs=1e-12)

    def test_equilibrium_is_zero(self):
        assert uniform_profile(1.0, 50, 0.7).sup_deviation() == 0.0

    def test_single_spike(self):
        vals = np.full(51, 0.7)
        vals[17] += 0.1
        p = sampled_profile(1.0, 0.7, vals)
        assert p.sup_deviation() == pytest.approx(0.1, rel=1e-15)


class TestBuilders:
    def test_bump_pins_inlet(self, bump400):
        assert bump400.values[0] == 0.7

    def test_bump_equals_expanded_polynomial(self):
        b = bump_profile(1.0, 64, 0.7)
        q = polynomial_profile(1.0, 64, 0.7, (0.7, 0.0, 5.76, -9.6, 4.0))
        np.testing.assert_allclose(q.values, b.values, rtol=0, atol=1e-14)

    def test_uniform_defaults_to_set_point(self):
        p = uniform_profile(1.0, 10, 0.9)
        assert np.all(p.values == 0.9)


class TestValidation:
    def test_nonpositive_values_rejected(self):
        with pytest.raises(DomainError):
            sampled_profile(1.0, 0.5, np.array([0.5, 0.0, 0.5]))

    def test_single_node_rejected(self):
        with pytest.raises(DomainError):
            sampled_profile(1.0, 0.5, np.array([0.5]))

    def test_bad_length_rejected(self):
        with pytest.raises(DomainError):
            DensityProfile(0.0, np.array([0.5, 0.5]), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_length_or_set_point_rejected(self, bad):
        with pytest.raises(DomainError):
            DensityProfile(bad, np.array([0.7, 0.7]), 0.7)
        with pytest.raises(DomainError):
            DensityProfile(1.0, np.array([0.7, 0.7]), bad)


class TestScenario:
    def test_output_times_cover_horizon(self, free_scenario):
        t = free_scenario.output_times
        assert t[0] == 0.0 and t[-1] == 30.0 and t.size == 41

    def test_mismatched_set_point_rejected(self, diagram, bump400):
        with pytest.raises(DomainError):
            Scenario(diagram=diagram, length=1.0, rho_star=0.8, rho0=bump400,
                     horizon=10.0, output_interval=1.0)

    def test_non_finite_inputs_rejected(self, diagram, bump400):
        good = dict(diagram=diagram, length=1.0, rho_star=0.7, rho0=bump400,
                    horizon=10.0, output_interval=1.0)
        for key in ("length", "rho_star", "horizon", "output_interval"):
            for bad in (np.nan, np.inf):
                with pytest.raises(DomainError):
                    Scenario(**{**good, key: bad})

    def test_density_above_capacity_limit_rejected(self, diagram):
        vals = np.full(11, 0.7)
        vals[5] = 1.7
        p = sampled_profile(1.0, 0.7, vals)
        with pytest.raises(DomainError):
            Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                     horizon=10.0, output_interval=1.0)
