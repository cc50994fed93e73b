"""Calibration and closed-loop behavior of the fixed-inlet law.

Proves:
  1.  calibrate derives the frozen reference constants for the standard
      exponential setup: reserve band width a, concavity floor Q, back
      slope q, decay rate sigma - gamma L
  2.  the curvature margin genuinely fails for those gains (lhs ~ 4.9e-5
      against 0.1); strict mode raises naming it, override mode records it
  3.  admissibility: equilibrium and the reference bump pass with the
      binding slack at the inlet; a profile off the set point at x = 0 is
      rejected via the boundary gap
  4.  controls: u(0) = 1 bitwise, the frozen u(0, 1) value, escape errors
      outside the certified band
  5.  simulate: inlet density pinned, inlet control exactly 1, sup decay
      under exp(-(sigma - gamma L) t), Picard contraction ratio below the
      gamma L / sigma bound, signed and absolute sup envelopes agree for
      one-signed data, forward invariance along the trace
  6.  domain errors: gamma L >= sigma, inadmissible start, bad mode
"""

import numpy as np
import pytest

from vslcontrol import (CertificationError, DomainError, ExponentialDiagram,
                        Scenario, StateEscapeError, bump_profile, fixed_inlet,
                        sampled_profile, uniform_profile)

A_RESERVE = 0.046777359792382555   # root of f'(rho_star + a) = sigma L
Q_FLOOR = 0.08075860719786214      # min of -f'' over the band
Q_BACK = 0.12113791079679324       # max of -f' right of the band
CURV_LHS = 0.000048854376922976124086
U_OUTLET = 0.98947657575780870403  # continuum u(0, 1) on the bump


class TestCalibrate:
    def test_frozen_constants(self, fixed_gains):
        assert fixed_gains.slope_reserve == pytest.approx(A_RESERVE, abs=1e-9)
        assert fixed_gains.min_concavity == pytest.approx(Q_FLOOR, rel=1e-12)
        assert fixed_gains.max_back_slope == pytest.approx(Q_BACK, rel=1e-12)
        assert fixed_gains.decay_rate == pytest.approx(0.02, rel=1e-12)

    def test_reserve_solves_slope_equation(self, fixed_gains, diagram):
        got = float(diagram.flow_slope(0.7 + fixed_gains.slope_reserve))
        assert got == pytest.approx(0.12, abs=1e-9)

    def test_curvature_margin_fails_as_designed(self, fixed_gains):
        assert not fixed_gains.certified
        failed = fixed_gains.failed_conditions()
        assert [c.name for c in failed] == ["curvature_margin"]
        assert failed[0].lhs == pytest.approx(CURV_LHS, rel=1e-6)
        assert failed[0].rhs == 0.1

    def test_other_margins_pass(self, fixed_gains):
        byname = {c.name: c for c in fixed_gains.conditions}
        for name in ("flow_margin", "slope_margin", "rate_margin"):
            assert byname[name].passed, name

    def test_strict_mode_raises_naming_the_margin(self, diagram):
        with pytest.raises(CertificationError, match="curvature_margin"):
            fixed_inlet.calibrate(diagram, 0.7, 1.0, 0.12, 0.1, mode="strict")

    def test_bad_mode_rejected(self, diagram):
        with pytest.raises(DomainError):
            fixed_inlet.calibrate(diagram, 0.7, 1.0, 0.12, 0.1, mode="lenient")

    def test_set_point_ceiling(self, diagram):
        with pytest.raises(DomainError):
            fixed_inlet.calibrate(diagram, 1.1, 1.0, 0.12, 0.1, mode="override")

    def test_failed_slope_margin_blanks_the_reserve(self, diagram):
        g = fixed_inlet.calibrate(diagram, 0.7, 1.0, 5.0, 0.1, mode="override")
        byname = {c.name: c for c in g.conditions}
        assert not byname["slope_margin"].passed
        assert np.isnan(g.slope_reserve)
        assert "no reserve band" in byname["curvature_margin"].note

    def test_fully_certified_setup_exists(self, diagram):
        g = fixed_inlet.calibrate(diagram, 0.3, 1.0, 0.05, 1e-5, mode="strict")
        assert g.certified
        assert not g.failed_conditions()

    def test_condition_str_is_reportable(self, fixed_gains):
        lines = [str(c) for c in fixed_gains.conditions]
        assert any("FAIL" in s for s in lines)
        assert any(s.startswith("flow_margin:") for s in lines)


class TestAdmissible:
    def test_equilibrium(self, fixed_gains, diagram):
        res = fixed_inlet.admissible(fixed_gains, diagram,
                                     uniform_profile(1.0, 50, 0.7))
        assert res.ok and bool(res)
        assert res.min_slack == 0.0

    def test_reference_bump(self, fixed_gains, diagram, bump400):
        res = fixed_inlet.admissible(fixed_gains, diagram, bump400)
        assert res.ok
        assert res.argmin_x == 0.0  # inlet slack is exactly zero
        assert res.boundary_gap == 0.0

    def test_inlet_off_set_point_rejected(self, fixed_gains, diagram):
        vals = np.full(51, 0.7)
        vals[0] = 0.75
        p = sampled_profile(1.0, 0.7, vals)
        res = fixed_inlet.admissible(fixed_gains, diagram, p)
        assert not res.ok
        assert res.boundary_gap == pytest.approx(0.05, rel=1e-12)

    def test_flow_deficit_rejected(self, fixed_gains, diagram):
        # park most of the road near rho_max where f is far below the budget
        vals = np.full(101, 1.55)
        vals[0] = 0.7
        p = sampled_profile(1.0, 0.7, vals)
        res = fixed_inlet.admissible(fixed_gains, diagram, p)
        assert not res.ok
        assert res.min_slack < 0.0


class TestControl:
    def test_inlet_is_exactly_one(self, fixed_gains, diagram, bump400):
        u, fv, extra = fixed_gains.controls(diagram, bump400.x, bump400.values)
        assert u[0] == 1.0
        assert fv[0] == float(diagram.flow(0.7))
        assert extra is None

    def test_outlet_reference_value(self, fixed_gains, diagram, bump400):
        u, _, _ = fixed_gains.controls(diagram, bump400.x, bump400.values)
        assert bump400.x[-1] == 1.0
        assert u[-1] == pytest.approx(U_OUTLET, abs=1e-6)
        np.testing.assert_array_equal(
            u, fixed_inlet.control_profile(fixed_gains, diagram, bump400))

    def test_profile_stays_in_unit_interval(self, fixed_gains, diagram, bump400):
        u = fixed_inlet.control_profile(fixed_gains, diagram, bump400)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_escape_raises(self, fixed_gains, diagram):
        vals = np.full(101, 1.55)
        vals[0] = 0.7
        p = sampled_profile(1.0, 0.7, vals)
        with pytest.raises(StateEscapeError):
            fixed_inlet.control_profile(fixed_gains, diagram, p)


class TestSimulate:
    def test_boundary_conditions_are_exact(self, fixed_trace):
        assert np.all(fixed_trace.u[:, 0] == 1.0)
        assert np.all(np.abs(fixed_trace.rho[:, 0] - 0.7) == 0.0)

    def test_decay_envelope(self, fixed_trace):
        sup0 = fixed_trace.sup_deviation[0]
        bound = sup0 * np.exp(-0.02 * fixed_trace.times)
        assert np.all(fixed_trace.sup_deviation <= bound + 1e-12)

    def test_contraction_ratio_below_volterra_bound(self, fixed_trace):
        picard = fixed_trace.metadata["picard"]
        assert picard["factor_bound"] == pytest.approx(0.1 / 0.12, rel=1e-12)
        assert picard["max_contraction_ratio"] <= picard["factor_bound"] + 1e-9
        assert picard["windows"] == 1

    def test_signed_envelope_matches_for_one_signed_data(self, fixed_trace):
        assert fixed_trace.metadata["signed_sup_gap"] == 0.0
        assert fixed_trace.metadata["signed_sup_gap_flagged"] is False

    def test_forward_invariance_along_trace(self, fixed_trace, fixed_gains, diagram):
        for j in range(fixed_trace.times.size):
            p = sampled_profile(1.0, 0.7, fixed_trace.rho[j])
            assert fixed_inlet.admissible(fixed_gains, diagram, p).ok

    def test_equilibrium_is_a_fixed_point(self, fixed_gains, diagram):
        p = uniform_profile(1.0, 50, 0.7)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                      horizon=5.0, output_interval=1.0)
        tr = fixed_inlet.simulate(sc, fixed_gains)
        assert np.all(tr.rho == 0.7)
        assert np.all(tr.u[:, 0] == 1.0)
        # interior u compensates the planned relaxation budget, still <= 1
        assert np.all(tr.u <= 1.0)

    def test_gamma_at_or_above_sigma_rejected(self, diagram, fixed_scenario):
        g = fixed_inlet.calibrate(diagram, 0.7, 1.0, 0.12, 0.12, mode="override")
        with pytest.raises(DomainError):
            fixed_inlet.simulate(fixed_scenario, g)

    def test_inadmissible_start_rejected(self, fixed_gains, diagram):
        vals = np.full(101, 1.55)
        vals[0] = 0.7
        p = sampled_profile(1.0, 0.7, vals)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                      horizon=5.0, output_interval=1.0)
        with pytest.raises(DomainError):
            fixed_inlet.simulate(sc, fixed_gains)

    def test_sup_against_dense_reconstruction(self, fixed_trace):
        # reported sup equals the max over the stored grid row
        got = np.max(np.abs(fixed_trace.rho - 0.7), axis=1)
        np.testing.assert_array_equal(fixed_trace.sup_deviation, got)


@pytest.fixture(scope="module")
def fixed_trace(fixed_scenario, fixed_gains):
    return fixed_inlet.simulate(fixed_scenario, fixed_gains)
