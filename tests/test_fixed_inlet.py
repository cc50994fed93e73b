"""Calibration and closed-loop behavior of the fixed-inlet law.

Proves:
  1.  calibrate derives the frozen reference constants for the standard
      exponential setup: reserve band width a within 4 ulps, concavity
      floor Q and back slope q bit for bit, decay rate sigma - gamma L;
      the reserve predicate f'(rho_star + a) <= sigma L holds at a and
      fails one float below it; q, in closed form, is never below the max
      of max(0, -f') over a 2,000,001-point grid of the band and within
      1e-12 of it, with rho_max on either side of the inflection density,
      and Q is the diagram's min_concavity; on a pinned shape-3 member the
      former 2001-point grid lies below q
  2.  the curvature margin genuinely fails for those gains (lhs ~ 4.9e-5
      against 0.1); strict mode raises naming it, override mode records it;
      a diagram that fails strict_concavity (rho_max 2.5, shape 2) has
      min_concavity <= 0, so its curvature margin fails in either mode
  3.  admissibility: equilibrium and the reference bump pass with the
      binding slack at the inlet, and the bump's slack over x > 0 is
      positive; a profile off the set point at x = 0 is rejected via the
      boundary gap
  4.  controls: u(0) = 1 bitwise, the frozen u(0, 1) value, escape errors
      outside the certified band
  5.  simulate: inlet density pinned, inlet control exactly 1, sup decay
      under exp(-(sigma - gamma L) t), Picard contraction ratio below the
      gamma L / sigma bound, forward invariance along the trace
  6.  domain errors: gamma L >= sigma, inadmissible start, bad mode,
      non-finite sigma, gamma or length in either calibration mode, and
      sigma * horizon past log(float max), refused before the Picard solve;
      an exhausted iteration budget raises ConvergenceError; simulate calls
      np.diff as often at tolerance 1e-13 as at 1e-3, though it iterates at
      least twice as often
  7.  the Picard max over the upper envelope's candidate lines gives the
      g, iteration count, contraction ratio, rho and u of the full (time
      samples x nodes) matrix bit for bit: in gather runs of 2807
      entries and, on 1601 nodes, in one run of every row; on eight
      profiles whose lines tie, cross or crowd the envelope; and at
      horizon 150 on 1601 nodes.  Rows within 64 ulps of a hull
      breakpoint, and rows at inf or NaN, get the full max too.  The
      fine-grid benchmark's bump scans at most two lines a time row.  At
      horizon 600 on 1600 cells the memory peak of simulate stays under a
      quarter of that matrix, also when a plateau ties hundreds of lines
      at J = 0.  A matrix of HEAP_BLOCK entries takes the dense pass and
      one of HEAP_BLOCK + 1 the envelope, both with the full matrix's bits,
      on a bump and on a deviation whose negative side dominates.  A
      two-signed solve builds one envelope, on the points mirrored through
      x = 0, and keeps the full matrix's bits with the inlet's deviation at
      +-1e-10 and at +-0.2, where the inlet line is the early rows' max
  8.  known defect, pinned as a strict xfail: on rho0 = 0.7 + 0.1 x^2, which
      attains the decay bound exactly, the trapezoid Picard grid overshoots
      the bound by O(dt^2) and decay_bound fails; ROADMAP item 1's exact
      path is the mend
"""

import tracemalloc

import numpy as np
import pytest

from vslcontrol import (CertificationError, ConvergenceError, DensityProfile,
                        DomainError, ExponentialDiagram, Scenario, StateEscapeError,
                        bump_profile, config, fixed_inlet, runner, uniform_profile)
from vslcontrol.free_inlet import PicardSettings
from vslcontrol.quadrature import cumulative_trapezoid

from conftest import grid_extreme

A_RESERVE = 0.046777359792382555   # root of f'(rho_star + a) = sigma L
Q_FLOOR = 0.08075860719786214      # min of -f'' over the band
Q_BACK = 0.12113791079679324       # max of -f' right of the band
CURV_LHS = 0.000048854376922976124086
U_OUTLET = 0.98947657575780870403  # continuum u(0, 1) on the bump


def calibrate_at_half_slope(d):
    """Gains at rho_star = 0.3 / b with sigma L half of f'(rho_star), L = 1."""
    rho_star = 0.3 / d.density_scale
    sigma = 0.5 * d.flow_slope(rho_star)
    return fixed_inlet.calibrate(d, rho_star, 1.0, sigma, 0.1 * sigma, mode="override")


class TestCalibrate:
    def test_frozen_constants(self, fixed_gains):
        ulps = np.float64(fixed_gains.slope_reserve).view(np.int64) \
            - np.float64(A_RESERVE).view(np.int64)
        assert abs(ulps) <= 4
        assert fixed_gains.min_concavity == Q_FLOOR
        assert fixed_gains.max_back_slope == Q_BACK
        assert fixed_gains.decay_rate == pytest.approx(0.02, rel=1e-12)

    def test_reserve_predicate_flips_at_the_reserve(self, fixed_gains, diagram):
        a, sl = fixed_gains.slope_reserve, 0.12 * 1.0
        assert diagram.flow_slope(0.7 + a) <= sl
        assert not diagram.flow_slope(0.7 + np.nextafter(a, 0.0)) <= sl

    @staticmethod
    def back_slope_cases():
        rng = np.random.default_rng(18)
        for shape in [0.3, 0.5, 1.0, 2.0, 3.0, *rng.uniform(0.3, 3.0, size=4)]:
            b = rng.uniform(0.5, 2.0)
            d0 = ExponentialDiagram(flow_scale=rng.uniform(0.5, 2.0), density_scale=b,
                                    shape=shape)
            infl = d0.inflection_density
            for rho_max in (0.5 * (1.0 / b + infl), 1.5 * infl):
                d = ExponentialDiagram(flow_scale=d0.flow_scale, density_scale=b, shape=shape,
                                       rho_max=rho_max)
                yield d, calibrate_at_half_slope(d)

    def test_back_slope_bounds_a_fine_grid(self):
        for d, g in self.back_slope_cases():
            lo = g.rho_star + g.slope_reserve
            fine = max(0.0, grid_extreme(lambda r: -d.flow_slope(r), lo, d.rho_max, np.max,
                                         near=d.inflection_density))
            # -f' takes about six rounded operations: a sample beside the
            # inflection density may round up to about 6 eps above q's
            # own evaluation; never by more
            assert g.max_back_slope >= fine - 2e-15 * fine, (d.shape, d.rho_max)
            assert g.max_back_slope == pytest.approx(fine, rel=1e-12, abs=0.0)
            assert g.min_concavity == d.min_concavity

    def test_old_grid_was_on_the_unsafe_side(self):
        d = ExponentialDiagram(flow_scale=1.7709, density_scale=1.8897, shape=3.0, rho_max=2.07)
        g = calibrate_at_half_slope(d)
        band = np.linspace(g.rho_star + g.slope_reserve, d.rho_max, 2001)
        coarse = float(np.max(-d.flow_slope(band)))
        assert coarse < g.max_back_slope == -d.flow_slope(d.inflection_density)

    def test_checked_slope_calls_do_not_grow_with_the_steps(self, diagram, monkeypatch):
        # the reserve bisection evaluates f' unchecked inside [rho_star,
        # rho_cr]; only f'(rho_star) and the back slope go through the
        # checked flow_slope, however many steps the bisection takes
        calls, steps, counts = [], [], []
        checked_slope = ExponentialDiagram.flow_slope
        bisect = fixed_inlet._bisect_all

        def counted(self, rho):
            calls.append(1)
            return checked_slope(self, rho)

        monkeypatch.setattr(ExponentialDiagram, "flow_slope", counted)
        for max_steps in (100, 10):
            def capped(up, lo, hi, _, max_steps=max_steps):
                def counted_up(mid):
                    steps[-1] += 1
                    return up(mid)
                return bisect(counted_up, lo, hi, max_steps)

            monkeypatch.setattr(fixed_inlet, "_bisect_all", capped)
            calls.clear()
            steps.append(0)
            fixed_inlet.calibrate(diagram, 0.7, 1.0, 0.12, 0.1, mode="override")
            counts.append(len(calls))
        assert steps[0] > steps[1] == 10
        assert counts[0] == counts[1] == 2

    def test_reserve_solves_slope_equation(self, fixed_gains, diagram):
        got = float(diagram.flow_slope(0.7 + fixed_gains.slope_reserve))
        assert got == pytest.approx(0.12, abs=1e-9)

    def test_curvature_margin_fails_as_designed(self, fixed_gains):
        assert not fixed_gains.certified
        failed = [c for c in fixed_gains.conditions if not c.passed]
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

    @pytest.mark.parametrize("fields", [dict(rho_max=2.5), dict(shape=2.0, rho_max=1.6)],
                             ids=["rho_max-2.5", "shape-2"])
    def test_non_concave_diagram_cannot_certify(self, fields):
        # min(-f'') over [0, rho_max] is <= 0 when strict_concavity fails, so
        # the curvature margin fails whatever the gains
        d = ExponentialDiagram(**fields)
        gains = fixed_inlet.calibrate(d, 0.7, 1.0, 0.12, 0.1, mode="override")
        assert gains.min_concavity <= 0.0
        failed = [c for c in gains.conditions if not c.passed]
        assert [c.name for c in failed] == ["curvature_margin"]
        assert failed[0].lhs <= 0.0
        with pytest.raises(CertificationError, match="curvature_margin"):
            fixed_inlet.calibrate(d, 0.7, 1.0, 0.12, 0.1, mode="strict")

    def test_bad_mode_rejected(self, diagram):
        with pytest.raises(DomainError):
            fixed_inlet.calibrate(diagram, 0.7, 1.0, 0.12, 0.1, mode="lenient")

    @pytest.mark.parametrize("field", ["sigma", "gamma", "length"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["strict", "override"])
    def test_non_finite_gains_rejected(self, diagram, field, bad, mode):
        args = dict(rho_star=0.7, length=1.0, sigma=0.12, gamma=0.1)
        with pytest.raises(DomainError, match="finite"):
            fixed_inlet.calibrate(diagram, **{**args, field: bad}, mode=mode)

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
        assert all(c.passed for c in g.conditions)

    def test_condition_str_is_reportable(self, fixed_gains):
        lines = [str(c) for c in fixed_gains.conditions]
        assert any("FAIL" in s for s in lines)
        assert any(s.startswith("flow_margin:") for s in lines)


class TestAdmissible:
    def test_equilibrium(self, fixed_gains, diagram):
        res = fixed_inlet.admissible(fixed_gains, diagram,
                                     uniform_profile(1.0, 50, 0.7))
        assert res.ok
        assert res.min_slack == 0.0

    def test_reference_bump(self, fixed_gains, diagram, bump400):
        res = fixed_inlet.admissible(fixed_gains, diagram, bump400)
        assert res.ok
        assert res.argmin_x == 0.0  # inlet slack is exactly zero
        assert res.boundary_gap == 0.0
        assert res.interior_x > 0.0 and res.interior_slack > 0.0

    def test_inlet_off_set_point_rejected(self, fixed_gains, diagram):
        vals = np.full(51, 0.7)
        vals[0] = 0.75
        p = DensityProfile(1.0, vals, 0.7)
        res = fixed_inlet.admissible(fixed_gains, diagram, p)
        assert not res.ok
        assert res.boundary_gap == pytest.approx(0.05, rel=1e-12)

    def test_flow_deficit_rejected(self, fixed_gains, diagram):
        # park most of the road near rho_max where f is far below the budget
        vals = np.full(101, 1.55)
        vals[0] = 0.7
        p = DensityProfile(1.0, vals, 0.7)
        res = fixed_inlet.admissible(fixed_gains, diagram, p)
        assert not res.ok
        assert res.min_slack < 0.0


class TestControl:
    def test_inlet_is_exactly_one(self, fixed_gains, diagram, bump400):
        u, fv, extra = fixed_gains.controller(diagram, bump400.x)(bump400.values)
        assert u[0] == 1.0
        assert fv[0] == float(diagram.flow(0.7))
        assert extra is None

    def test_outlet_reference_value(self, fixed_gains, diagram, bump400):
        u, _, _ = fixed_gains.controller(diagram, bump400.x)(bump400.values)
        assert bump400.x[-1] == 1.0
        assert u[-1] == pytest.approx(U_OUTLET, abs=1e-6)

    def test_profile_stays_in_unit_interval(self, fixed_gains, diagram, bump400):
        u, _, _ = fixed_gains.controller(diagram, bump400.x)(bump400.values)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_escape_raises(self, fixed_gains, diagram):
        vals = np.full(101, 1.55)
        vals[0] = 0.7
        p = DensityProfile(1.0, vals, 0.7)
        with pytest.raises(StateEscapeError):
            fixed_gains.controller(diagram, p.x)(p.values)


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

    def test_forward_invariance_along_trace(self, fixed_trace, fixed_gains, diagram):
        for j in range(fixed_trace.times.size):
            p = DensityProfile(1.0, fixed_trace.rho[j], 0.7)
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

    def test_iteration_budget_exhausted(self, fixed_gains, fixed_scenario):
        with pytest.raises(ConvergenceError):
            fixed_inlet.simulate(fixed_scenario, fixed_gains, PicardSettings(max_iter=3))

    def test_exp_overflow_horizon_rejected_up_front(self, fixed_gains, diagram, monkeypatch):
        # sigma * horizon = 720 > log(float max): exp(sigma t) would overflow,
        # so simulate refuses before the Picard solve
        def no_solve(*args):
            raise AssertionError("the Picard solve ran")

        monkeypatch.setattr(fixed_inlet, "_sup_path", no_solve)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=bump_profile(1.0, 20, 0.7),
                      horizon=6000.0, output_interval=3000.0)
        assert fixed_gains.sigma * sc.horizon > fixed_inlet.EXP_LIMIT
        with pytest.raises(DomainError, match=r"sigma \* horizon = 720 exceeds"):
            fixed_inlet.simulate(sc, fixed_gains, PicardSettings(time_samples=2))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the trapezoid Picard grid overshoots an exactly attained decay bound "
        "by O(dt^2); mended by ROADMAP item 1's exact fixed-law path"))
    def test_bound_attained_at_the_outlet_holds(self):
        # the deviation 0.1 x^2 peaks at the outlet, where S(t) equals
        # 0.1 exp(-(sigma - gamma L) t) exactly; the sup deviation exceeds it
        # by 3.2e-8 / 2.0e-9 / 1.2e-10 / 7.8e-12 at t = 1 with 16 / 64 / 256 /
        # 1024 time samples
        cfg = config.RunConfig(law="fixed_inlet", profile_kind="polynomial",
                               poly_coeffs=(0.7, 0.0, 0.1), n_cells=20, horizon=1.0,
                               snapshots=3, mode="override", fixed_u_gap_tol=1.0)
        scenario = config.build_scenario(cfg)
        gains = runner._build_gains(cfg, scenario, cfg.law)
        trace = fixed_inlet.simulate(scenario, gains, config.build_picard(cfg))
        check = runner._decay_check(trace, gains.decay_rate)
        assert check.passed, str(check)

    def test_inadmissible_start_rejected(self, fixed_gains, diagram):
        vals = np.full(101, 1.55)
        vals[0] = 0.7
        p = DensityProfile(1.0, vals, 0.7)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                      horizon=5.0, output_interval=1.0)
        with pytest.raises(DomainError):
            fixed_inlet.simulate(sc, fixed_gains)

    def test_sup_against_dense_reconstruction(self, fixed_trace):
        # reported sup equals the max over the stored grid row
        got = np.max(np.abs(fixed_trace.rho - 0.7), axis=1)
        np.testing.assert_array_equal(fixed_trace.sup_deviation, got)

    def test_diff_calls_do_not_grow_with_iterations(self, fixed_gains, diagram, monkeypatch):
        # timing-free guard: _sup_path takes the time steps once per solve,
        # not once per Picard update
        diff = np.diff
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=bump_profile(1.0, 60, 0.7),
                      horizon=10.0, output_interval=0.5)
        seen = []
        for tol in (1e-3, 1e-13):
            calls = []
            monkeypatch.setattr(np, "diff", lambda *a, **kw: calls.append(1) or diff(*a, **kw))
            tr = fixed_inlet.simulate(sc, fixed_gains, PicardSettings(tol=tol))
            seen.append((tr.metadata["picard"]["max_iterations"], len(calls)))
        (few, few_calls), (many, many_calls) = seen
        assert many >= 2 * few
        assert many_calls == few_calls


def _profile_deviations(n_cells):
    """dev0 profiles whose lines tie, cross or crowd the upper envelope."""
    x = np.linspace(0.0, 1.0, n_cells + 1)
    bump = 4.0 * x ** 2 * (1.2 - x) ** 2
    inlet = bump.copy()
    inlet[0] = -1e-10
    return {
        "zero": np.zeros_like(x),                           # every line meets at J = 0
        "linear": 0.05 * x,                                 # all points collinear
        "-linear": -0.05 * x,
        "plateau": np.minimum(bump, 0.6 * bump.max()),     # a flat top ties at J = 0
        "sin": 0.05 * np.sin(3.0 * np.pi * x),              # two-signed
        "noise": np.random.default_rng(7).uniform(-0.05, 0.05, x.size),
        "rounded": np.round(bump, 2),                       # many collinear triples
        "inlet": inlet,                                     # -1e-10 at the inlet
    }


class TestBlockedPicardMax:
    """_sup_path's envelope max against the full-matrix loop it replaced."""

    @staticmethod
    def full_sup_path(gains, x, dev0, sup0, tn, settings):
        """The max of |.| of every line on every time row, 512 rows at a time."""
        grow, shrink = np.exp(gains.sigma * tn), np.exp(-gains.sigma * tn)
        g = np.full(tn.size, sup0)
        prev_diff, worst_ratio = None, 0.0
        for it in range(settings.max_iter):
            J = cumulative_trapezoid(tn, grow * g)
            peak = np.concatenate([
                np.abs(gains.gamma * J[s:s + 512, None] * x[None, :] + dev0[None, :]).max(axis=1)
                for s in range(0, tn.size, 512)])
            g_new = shrink * peak
            diff = float(np.max(np.abs(g_new - g)))
            if prev_diff is not None and prev_diff > 1e3 * settings.tol:
                worst_ratio = max(worst_ratio, diff / prev_diff)
            g = g_new
            if diff <= settings.tol:
                return g, it + 1, worst_ratio
            prev_diff = diff
        raise AssertionError("reference loop did not converge")

    @classmethod
    def assert_same_path(cls, fixed_gains, x, dev0, horizon, settings=PicardSettings()):
        tn = np.linspace(0.0, horizon, int(horizon * settings.time_samples) + 1)
        args = (fixed_gains, x, dev0, float(np.abs(dev0).max()), tn, settings)
        got, want = fixed_inlet._sup_path(*args), cls.full_sup_path(*args)
        # bitwise: equal values with the same sign of zero
        np.testing.assert_array_equal(got[0].view(np.int64), want[0].view(np.int64))
        assert got[1:3] == want[1:]
        return got[3]

    @staticmethod
    def envelope_max(x, dev0, gJ):
        """(the envelope's max, the full max) of the rows gJ."""
        got = np.empty(gJ.size)
        fixed_inlet._Envelope(x, dev0).row_max(gJ, got)
        return got, (gJ[:, None] * x + dev0).max(axis=1)

    @pytest.mark.parametrize("n_cells, block", [
        (400, 401 * 7),       # candidate runs of at most 2807 entries
        (1600, None),          # the default block on 1601 nodes: one run of every row
        (60, None),            # oracle-batch's grid: the whole matrix is 641 x 61
    ])
    def test_equals_full_matrix(self, diagram, fixed_gains, monkeypatch, n_cells, block):
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=bump_profile(1.0, n_cells, 0.7), horizon=10.0,
                      output_interval=0.5)
        if block is not None:
            monkeypatch.setattr(fixed_inlet, "HEAP_BLOCK", block)
        counts = self.assert_same_path(fixed_gains, sc.rho0.x, sc.rho0.values - 0.7, 10.0)
        assert counts["envelope_lines"] < n_cells + 1 and counts["envelope_width"] <= 2

        blocked = fixed_inlet.simulate(sc, fixed_gains)
        # the full matrix keeps no envelope; it reports the counts of the
        # run it is checked against, so every other metadata entry compares
        monkeypatch.setattr(fixed_inlet, "_sup_path",
                            lambda *a: (*self.full_sup_path(*a), counts))
        full = fixed_inlet.simulate(sc, fixed_gains)
        np.testing.assert_array_equal(blocked.rho, full.rho)
        np.testing.assert_array_equal(blocked.u, full.u)
        assert blocked.metadata == full.metadata

    @pytest.mark.parametrize("block", [None, 401 * 7])
    @pytest.mark.parametrize("name", list(_profile_deviations(400)))
    def test_adversarial_profiles_equal_full_matrix(self, fixed_gains, monkeypatch, name, block):
        if block is not None:
            monkeypatch.setattr(fixed_inlet, "HEAP_BLOCK", block)
        dev0 = _profile_deviations(400)[name]
        counts = self.assert_same_path(fixed_gains, np.linspace(0.0, 1.0, 401), dev0, 10.0)
        # two-signed data's envelope holds the 2n - 1 mirrored lines
        lines = 401 if np.all(dev0 >= 0.0) else 2 * 401 - 1
        assert 1 <= counts["envelope_width"] <= counts["envelope_lines"] <= lines
        if name == "zero":  # each row is a tie of all 401 lines
            assert counts["envelope_width"] == 401

    @pytest.mark.parametrize("name", ["noise", "rounded", "sin"])
    def test_rows_beside_the_breakpoints_equal_full_max(self, name):
        # time rows on and up to 64 ulps beside every hull breakpoint, where
        # rounding decides which of the lines meeting there is larger
        x = np.linspace(0.0, 1.0, 401)
        dev0 = _profile_deviations(400)[name]
        hull = fixed_inlet._upper_hull(x, dev0)
        beta = (dev0[hull[:-1]] - dev0[hull[1:]]) / np.diff(x[hull])
        ulps = np.concatenate([-np.arange(65), np.arange(1, 65)])
        rows = (beta[:, None] + ulps * np.spacing(beta)[:, None]).ravel()
        got, want = self.envelope_max(x, dev0, rows)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("seed", [5, 17, 2024])
    def test_two_signed_rows_equal_dense_abs_max(self, fixed_gains, monkeypatch, seed):
        # one update of _sup_path on a seeded deviation whose negative side
        # is the larger, at seeded iterates: the max over the lines and their
        # mirrored negatives is the dense max of |.| over every line, bit for bit
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 1.0, 201)
        dev0 = 0.05 * np.sin(rng.uniform(2.0, 8.0) * np.pi * x) - rng.uniform(0.02, 0.1) * x
        dev0[0] = 0.0
        tn = np.linspace(0.0, 2.0, 161)
        updates = []
        monkeypatch.setattr(fixed_inlet, "iterate",
                            lambda update, g0, *rest: (updates.append(update) or g0, 1, 0.0))
        fixed_inlet._sup_path(fixed_gains, x, dev0, float(np.abs(dev0).max()), tn,
                              PicardSettings())
        grow, shrink = np.exp(fixed_gains.sigma * tn), np.exp(-fixed_gains.sigma * tn)
        signed_differs = False
        for g in rng.uniform(0.0, 0.2, (4, tn.size)):
            lines = (fixed_gains.gamma * cumulative_trapezoid(tn, grow * g))[:, None] * x + dev0
            want = shrink * np.abs(lines).max(axis=1)
            got = updates[0](g)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            signed_differs |= not np.array_equal(shrink * lines.max(axis=1), want)
        assert signed_differs  # the rows exercise the mirrored negatives

    def test_two_signed_solve_builds_one_envelope(self, fixed_gains, monkeypatch):
        # the lines a_i and their negatives -a_i share one envelope, that of
        # the points mirrored through x_0 = 0
        built, envelope = [], fixed_inlet._Envelope
        monkeypatch.setattr(fixed_inlet, "_Envelope",
                            lambda *args: built.append(args) or envelope(*args))
        x = np.linspace(0.0, 1.0, 401)
        dev0 = _profile_deviations(400)["sin"]
        self.assert_same_path(fixed_gains, x, dev0, 10.0)
        assert len(built) == 1
        xs, ds = built[0]
        np.testing.assert_array_equal(xs, np.concatenate((-x[:0:-1], x)))
        np.testing.assert_array_equal(ds, np.concatenate((-dev0[:0:-1], dev0)))

    @pytest.mark.parametrize("inlet", [1e-10, -1e-10, 0.2, -0.2])
    def test_mirrored_inlet_point_equals_full_matrix(self, fixed_gains, inlet):
        # the inlet's line and its negative meet in the one point
        # (0, |dev0_0|); at +-0.2 that line is the early rows' max
        x = np.linspace(0.0, 1.0, 401)
        dev0 = _profile_deviations(400)["sin"]
        dev0[0] = inlet
        assert dev0.min() < 0.0 < dev0.max()
        assert 641 * x.size > fixed_inlet.HEAP_BLOCK  # the envelope, not the dense pass
        self.assert_same_path(fixed_gains, x, dev0, 10.0)

    @pytest.mark.parametrize("two_signed", [False, True])
    @pytest.mark.parametrize("rows, nodes", [(64, 128), (3, 2731)])
    def test_small_matrix_equals_full_matrix(self, fixed_gains, two_signed, rows, nodes):
        # n_t n = 64 x 128 = HEAP_BLOCK takes the dense pass, which reports
        # every line kept and scanned; 3 x 2731 = HEAP_BLOCK + 1 the
        # envelope.  Both give the full matrix's bits, on a bump and on a
        # deviation whose negative side dominates
        assert rows * nodes - fixed_inlet.HEAP_BLOCK == (rows == 3)
        x = np.linspace(0.0, 1.0, nodes)
        if two_signed:
            dev0 = 0.05 * np.sin(5.0 * np.pi * x) - 0.08 * x
            assert -dev0.min() > dev0.max() > 0.0
        else:
            dev0 = 4.0 * x ** 2 * (1.2 - x) ** 2
        counts = self.assert_same_path(fixed_gains, x, dev0, (rows - 1) / 64.0)
        dense = counts == {"envelope_lines": nodes, "envelope_width": nodes}
        assert dense == (rows == 64)

    def test_non_finite_rows_equal_full_max(self):
        # an iterate that overflowed: inf * x_0 = nan at the inlet, as before
        x = np.linspace(0.0, 1.0, 401)
        dev0 = _profile_deviations(400)["sin"]
        with np.errstate(invalid="ignore"):
            got, want = self.envelope_max(x, dev0, np.array([0.0, np.inf, -np.inf, np.nan, 1.0]))
        assert np.isnan(want[1:4]).all()
        np.testing.assert_array_equal(got, want)

    def test_long_horizon_equals_full_matrix(self, fixed_gains):
        # gamma J grows like exp(0.1 t), to 1e5 at horizon 150, so the late
        # rows' margins are 1e5 times the early rows'; 16 samples per unit
        # time keep the reference loop quick
        x = np.linspace(0.0, 1.0, 1601)
        counts = self.assert_same_path(fixed_gains, x, 4.0 * x ** 2 * (1.2 - x) ** 2, 150.0,
                                       PicardSettings(time_samples=16))
        assert counts["envelope_width"] <= 2

    def test_fine_grid_rows_scan_at_most_two_lines(self, diagram, fixed_gains):
        # the fine-grid benchmark's bump; a wider row means the envelope
        # fell back towards scanning all 1601 lines
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=bump_profile(1.0, 1600, 0.7, amplitude=3.5, width=1.17),
                      horizon=60.0, output_interval=1.0)
        picard = fixed_inlet.simulate(sc, fixed_gains).metadata["picard"]
        assert picard["max_iterations"] == 26
        assert picard["envelope_width"] <= 2
        assert picard["envelope_lines"] < 1601

    @staticmethod
    def simulate_peak_bytes(diagram, fixed_gains, rho0):
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=rho0,
                      horizon=600.0, output_interval=60.0)
        # 8 samples per unit time keep the 93 iterations quick; the old
        # matrix would still have been 4801 x 1601 doubles (61 MB)
        settings = PicardSettings(time_samples=8)
        matrix_bytes = (600 * settings.time_samples + 1) * 1601 * 8
        tracemalloc.start()
        try:
            tr = fixed_inlet.simulate(sc, fixed_gains, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tr.metadata["picard"]["max_iterations"] > 1
        return tr, peak, matrix_bytes

    def test_memory_peak_is_bounded(self, diagram, fixed_gains):
        _, peak, matrix_bytes = self.simulate_peak_bytes(
            diagram, fixed_gains, bump_profile(1.0, 1600, 0.7))
        assert peak < matrix_bytes / 4, (peak, matrix_bytes)

    def test_memory_peak_is_bounded_on_a_plateau(self, diagram, fixed_gains):
        # the flat top's lines tie at J = 0, so the first row scans all of
        # them; padding every row to that width would cost 4801 x that
        bump = bump_profile(1.0, 1600, 0.7).values
        top = 0.7 + 0.6 * (bump.max() - 0.7)
        rho0 = DensityProfile(1.0, np.minimum(bump, top), 0.7)
        tr, peak, matrix_bytes = self.simulate_peak_bytes(diagram, fixed_gains, rho0)
        assert tr.metadata["picard"]["envelope_width"] >= np.sum(rho0.values == top) >= 400
        assert peak < matrix_bytes / 4, (peak, matrix_bytes)


@pytest.fixture(scope="module")
def fixed_trace(fixed_scenario, fixed_gains):
    return fixed_inlet.simulate(fixed_scenario, fixed_gains)
