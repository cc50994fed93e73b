"""Independent finite-volume integrator used to cross-check the closed forms.

Proves:
  1.  settings validation (cell floor, cfl window, non-finite cfl cap); the
      settings hold only n_cells and cfl_cap
  2.  equilibrium initial data is preserved to machine precision under both
      laws
  3.  short-horizon integration tracks the semi-analytic solution on a
      coarse grid under both laws
  4.  the divergence guard: a state whose deviation leaves
      ESCAPE_FACTOR * max(sup0, 0.05 * rho_max) raises SolverDivergenceError
  5.  compare: identical traces give zero gaps, mismatched time grids are
      rejected, different space grids are resampled
  6.  conservation bookkeeping: interior mass change matches boundary
      fluxes to discretization accuracy
  7.  records that are not laws, and laws for another road, are rejected
  8.  the lean right-hand side (law and buffers bound once, slice
      stencil, RK4 in place) gives the same bits as a plain loop over
      gains.controls and np.gradient under RK4, for both laws at 60, 400
      and 800 cells and shapes 1 and 2; the checked ExponentialDiagram.flow
      is called as often whatever the step count, so no stage goes back
      to the allocating, separately checked flow
  9.  a bound law still runs its domain and escape checks on every call;
      the fixed law's checks skip a NaN flow as np.fmin does
  10. the automatic step is sized from the state's own density band: on
      criterion 07's free-law run the realised CFL stays under the cap with
      at most a fifth of the steps the global bound takes, and a state that
      leaves its band has its interval run again, step for step as the
      plain loop with the kept per-interval steps; a steady drift is
      extrapolated over the interval, so it is redone a few times only
"""

from dataclasses import fields

import numpy as np
import pytest

from vslcontrol import (DomainError, ExponentialDiagram, FreeInletGain, OracleSettings,
                        Scenario, SolverDivergenceError, StateEscapeError, bump_profile,
                        fixed_inlet, free_inlet, pde_oracle, uniform_profile)
from vslcontrol.config import (build_free_gain, build_oracle_settings, build_scenario,
                               preset, with_overrides)


def short_scenario(diagram, n_cells=80, horizon=2.0):
    p = bump_profile(1.0, n_cells, 0.7)
    return Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                    horizon=horizon, output_interval=0.5)


class TestSettings:
    def test_defaults(self):
        s = OracleSettings()
        assert s.n_cells == 400 and s.cfl_cap == 0.4
        assert [f.name for f in fields(OracleSettings)] == ["n_cells", "cfl_cap"]

    def test_rejections(self):
        with pytest.raises(DomainError):
            OracleSettings(n_cells=3)
        for bad in (0.0, 1.5, np.nan, np.inf):
            with pytest.raises(DomainError):
                OracleSettings(cfl_cap=bad)


class TestEquilibrium:
    def test_free_law_constant_state(self, diagram, free_gain):
        p = uniform_profile(1.0, 60, 0.7)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                      horizon=1.0, output_interval=0.25)
        tr = pde_oracle.integrate(sc, free_gain, OracleSettings(n_cells=60))
        assert np.max(np.abs(tr.rho - 0.7)) < 1e-13

    def test_fixed_law_constant_state(self, diagram, fixed_gains):
        p = uniform_profile(1.0, 60, 0.7)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                      horizon=1.0, output_interval=0.25)
        tr = pde_oracle.integrate(sc, fixed_gains, OracleSettings(n_cells=60))
        assert np.max(np.abs(tr.rho - 0.7)) < 1e-13


class TestShortRuns:
    def test_free_law_tracks_closed_form(self, diagram, free_gain):
        sc = short_scenario(diagram)
        semi = free_inlet.simulate(sc, free_gain)
        num = pde_oracle.integrate(sc, free_gain, OracleSettings(n_cells=80))
        cmp = pde_oracle.compare(semi, num)
        assert cmp.max_density_gap < 5e-3

    def test_fixed_law_tracks_closed_form(self, diagram, fixed_gains):
        sc = short_scenario(diagram)
        semi = fixed_inlet.simulate(sc, fixed_gains)
        num = pde_oracle.integrate(sc, fixed_gains, OracleSettings(n_cells=80))
        cmp = pde_oracle.compare(semi, num)
        assert cmp.max_density_gap < 5e-3

    def test_metadata_labels_the_oracle(self, diagram, free_gain):
        sc = short_scenario(diagram, horizon=0.5)
        tr = pde_oracle.integrate(sc, free_gain, OracleSettings(n_cells=40))
        assert tr.metadata["oracle"] is True
        assert tr.metadata["law"] == "free_inlet"
        assert tr.metadata["n_cells"] == 40
        assert tr.metadata["steps"] >= 1


class TestCompare:
    def test_identity_is_zero(self, diagram, free_gain):
        sc = short_scenario(diagram, horizon=0.5)
        tr = free_inlet.simulate(sc, free_gain)
        cmp = pde_oracle.compare(tr, tr)
        assert cmp.max_density_gap == 0.0
        assert cmp.max_control_gap == 0.0

    def test_mismatched_times_rejected(self, diagram, free_gain):
        a = free_inlet.simulate(short_scenario(diagram, horizon=1.0), free_gain)
        b = free_inlet.simulate(short_scenario(diagram, horizon=2.0), free_gain)
        with pytest.raises(DomainError):
            pde_oracle.compare(a, b)

    def test_space_resampling(self, diagram, free_gain):
        sc_fine = short_scenario(diagram, n_cells=160, horizon=1.0)
        sc_coarse = short_scenario(diagram, n_cells=80, horizon=1.0)
        a = free_inlet.simulate(sc_fine, free_gain)
        b = free_inlet.simulate(sc_coarse, free_gain)
        cmp = pde_oracle.compare(a, b)
        # linear resampling of the coarse trace dominates: O(h^2) ~ 2e-4
        assert cmp.max_density_gap < 5e-4


class TestConservation:
    def test_mass_balance(self, diagram, free_gain):
        sc = short_scenario(diagram, horizon=1.0)
        tr = pde_oracle.integrate(sc, free_gain, OracleSettings(n_cells=80))
        h = tr.x[1] - tr.x[0]
        for j in range(1, tr.times.size):
            dm = np.trapezoid(tr.rho[j] - tr.rho[j - 1], tr.x)
            dt = tr.times[j] - tr.times[j - 1]
            net = np.trapezoid((tr.inlet_flow[j - 1:j + 1] - tr.outlet_flow[j - 1:j + 1]),
                           tr.times[j - 1:j + 1])
            assert dm == pytest.approx(net, abs=5e-3 * dt + 5 * h ** 2)


class TestDispatch:
    def test_unsupported_gains_rejected(self, diagram):
        sc = short_scenario(diagram, horizon=0.5)
        with pytest.raises(DomainError):
            pde_oracle.integrate(sc, object(), OracleSettings(n_cells=40))

    def test_pairing_checked(self, diagram):
        sc = short_scenario(diagram, horizon=0.5)
        wrong = FreeInletGain(0.3, 1.0, 0.9)
        with pytest.raises(DomainError):
            pde_oracle.integrate(sc, wrong, OracleSettings(n_cells=40))


def reference_rows(scenario, gains, n_cells, steps_per_interval):
    """The oracle as a plain loop: gains.controls and np.gradient every RK4 stage.

    Output interval j takes steps_per_interval[j] equal steps.  Returns the
    state at every output time, one row each.
    """
    d = scenario.diagram
    x = np.linspace(0.0, scenario.length, n_cells + 1)
    h = scenario.length / n_cells
    rho = np.interp(x, scenario.rho0.x, scenario.rho0.values)

    def rhs(state):
        u, fv, _ = gains.controls(d, x, state, pde_oracle.ORACLE_U_TOL)
        out = -np.gradient(u * fv, h, edge_order=2)
        if gains.pins_inlet:
            out[0] = 0.0
        return out

    interval = float(scenario.output_times[1] - scenario.output_times[0])
    rows = [rho]
    for n_steps in steps_per_interval:
        dt = interval / n_steps
        for _ in range(n_steps):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(rho)
    return np.array(rows)


class TestLeanPath:
    @pytest.mark.parametrize("shape", [1.0, 2.0])
    @pytest.mark.parametrize("n_cells", [60, 400, 800])
    @pytest.mark.parametrize("law", ["free", "fixed"])
    def test_bitwise_equal_to_plain_loop(self, law, n_cells, shape):
        d = ExponentialDiagram(shape=shape, rho_max=1.6)
        gains = (FreeInletGain(0.3, 1.0, 0.7) if law == "free"
                 else fixed_inlet.calibrate(d, 0.7, 1.0, 0.12, 0.1, mode="override"))
        p = bump_profile(1.0, n_cells, 0.7, amplitude=2.0)
        sc = Scenario(diagram=d, length=1.0, rho_star=0.7, rho0=p,
                      horizon=1.0, output_interval=0.5)
        tr = pde_oracle.integrate(sc, gains, OracleSettings(n_cells=n_cells))
        ref = reference_rows(sc, gains, n_cells, tr.metadata["steps_per_interval"])
        assert np.array_equal(tr.rho[-1], ref[-1])
        assert np.array_equal(tr.rho, ref)

    @pytest.mark.parametrize("law", ["free", "fixed"])
    def test_checked_flow_calls_do_not_grow_with_the_steps(self, diagram, free_gain,
                                                          fixed_gains, law, monkeypatch):
        # the stages check the domain once each and evaluate f into bound
        # buffers; a stage that called the checked, allocating flow again
        # would add calls in proportion to the steps
        gains = free_gain if law == "free" else fixed_gains
        calls = []
        checked_flow = ExponentialDiagram.flow

        def counted(self, rho):
            calls.append(1)
            return checked_flow(self, rho)

        monkeypatch.setattr(ExponentialDiagram, "flow", counted)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=bump_profile(1.0, 400, 0.7), horizon=0.2, output_interval=0.1)
        counts, steps = [], []
        for cfl_cap in (0.4, 0.2):
            calls.clear()
            tr = pde_oracle.integrate(sc, gains, OracleSettings(n_cells=400, cfl_cap=cfl_cap))
            counts.append(len(calls))
            steps.append(tr.metadata["steps"])
        assert steps[1] > steps[0] >= 20
        assert counts[0] == counts[1] <= 2


class TestChecksEveryCall:
    @pytest.mark.parametrize("law", ["free", "fixed"])
    def test_domain_checked_after_a_good_call(self, diagram, free_gain, fixed_gains, law):
        gains = free_gain if law == "free" else fixed_gains
        x = np.linspace(0.0, 1.0, 61)
        evaluate = gains.controller(diagram, x, pde_oracle.ORACLE_U_TOL)
        good = np.full(x.size, 0.7)
        u, fv, _ = evaluate(good)
        assert np.all(u == 1.0)
        fv = fv.copy()  # the results are valid until the next call
        for bad_value in (1.7, -0.01):
            row = good.copy()
            row[30] = bad_value
            with pytest.raises(DomainError):
                evaluate(row)
        np.testing.assert_array_equal(evaluate(good)[1], fv)

    def test_fixed_law_skips_a_nan_flow(self):
        # under shape 0.5, f is NaN at a density just below 0, inside the
        # domain's tolerance: the flow and control checks skip it, as
        # np.fmin and the elementwise comparisons do, and still see a zero
        d = ExponentialDiagram(shape=0.5, rho_max=1.6)
        gains = fixed_inlet.calibrate(d, 0.7, 1.0, 0.12, 0.1, mode="override")
        x = np.linspace(0.0, 1.0, 61)
        evaluate = gains.controller(d, x, pde_oracle.ORACLE_U_TOL)
        row = np.full(x.size, 0.7)
        row[10] = -1e-12
        with np.errstate(invalid="ignore"):
            u, fv, _ = evaluate(row)
            assert np.isnan(fv[10]) and np.isnan(u[10])
            rest = np.delete(u, 10)
            assert np.all((rest > 0.0) & (rest <= 1.0))
            row[20] = 0.0
            with pytest.raises(StateEscapeError, match="flow vanished"):
                evaluate(row)

    def test_fixed_law_escape_message(self, diagram, fixed_gains):
        x = np.linspace(0.0, 1.0, 101)
        evaluate = fixed_gains.controller(diagram, x, pde_oracle.ORACLE_U_TOL)
        evaluate(np.full(x.size, 0.7))
        row = np.full(x.size, 0.7)
        row[50] = 0.3
        with pytest.raises(StateEscapeError) as info:
            evaluate(row)
        assert str(info.value) == ("control 1.5405 left (0, 1] at x = 0.5; "
                                   "profile not admissible")
        # the same row passes under a band that reaches u = 1.5405, clipped to 1
        u, _, _ = fixed_gains.controller(diagram, x, 0.541)(row)
        assert u.max() == 1.0
        with pytest.raises(StateEscapeError):
            fixed_gains.controller(diagram, x, 0.540)(row)
        row[20] = 1e-12
        with pytest.raises(StateEscapeError) as info:
            evaluate(row)
        assert str(info.value) == ("control 3.4579e+11 left (0, 1] at x = 0.2; "
                                   "profile not admissible")


class RampLaw:
    """A stub law with u = 1 - slope * x and a pinned inlet.

    The flow falls along the road, so a uniform state piles up and its
    density range grows: the state is bound to leave its starting band.
    """

    law = "ramp"
    pins_inlet = True
    rho_star = 0.7
    length = 1.0

    def __init__(self, slope):
        self.slope = slope

    def controls(self, diagram, x, rho, u_tol):
        return 1.0 - self.slope * x, np.asarray(diagram.flow(rho), dtype=float), None

    def controller(self, diagram, x, u_tol):
        return lambda rho: self.controls(diagram, x, rho, u_tol)


class TestBandStep:
    @pytest.fixture(scope="class")
    def criterion_07_free(self):
        cfg = with_overrides(preset("paper-sec5-free"), n_cells=400, oracle_n_cells=400,
                             oracle_cfl_cap=0.8, oracle_enabled=True)
        settings = build_oracle_settings(cfg)
        return settings, pde_oracle.integrate(build_scenario(cfg), build_free_gain(cfg),
                                              settings)

    def test_realised_cfl_within_cap(self, criterion_07_free):
        settings, tr = criterion_07_free
        assert 0.0 < tr.metadata["cfl"] <= settings.cfl_cap
        assert tr.metadata["redone_intervals"] == 0

    def test_steps_far_below_global_bound(self, criterion_07_free):
        # the global bound max|f'| = 1 over [0, rho_max] takes 15000 steps here
        _, tr = criterion_07_free
        assert tr.metadata["steps"] == sum(tr.metadata["steps_per_interval"])
        assert tr.metadata["steps"] <= 15000 // 5

    def test_band_escape_reruns_the_interval(self, diagram):
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=uniform_profile(1.0, 60, 0.7), horizon=1.0, output_interval=0.5)
        law = RampLaw(0.05)
        settings = OracleSettings(n_cells=60)
        tr = pde_oracle.integrate(sc, law, settings)
        meta = tr.metadata
        assert meta["redone_intervals"] >= 1
        assert meta["steps"] > sum(meta["steps_per_interval"])
        assert meta["cfl"] <= settings.cfl_cap
        assert tr.rho.max() > 0.7 + pde_oracle.BAND_ABS * diagram.rho_max
        ref = reference_rows(sc, law, 60, meta["steps_per_interval"])
        assert np.array_equal(tr.rho, ref)

    @pytest.mark.parametrize("slope,max_redone", [(0.5, 4), (0.05, 2)])
    def test_drift_is_extrapolated_over_the_interval(self, diagram, slope, max_redone):
        # rebuilding the band around the range seen alone redid 15 and 5
        # intervals here, taking 114 and 54 steps to keep 25 and 24
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=uniform_profile(1.0, 60, 0.7), horizon=1.0, output_interval=0.5)
        law = RampLaw(slope)
        settings = OracleSettings(n_cells=60)
        tr = pde_oracle.integrate(sc, law, settings)
        meta = tr.metadata
        assert 1 <= meta["redone_intervals"] <= max_redone
        assert meta["steps"] <= 2 * sum(meta["steps_per_interval"]) + 10
        assert meta["cfl"] <= settings.cfl_cap
        ref = reference_rows(sc, law, 60, meta["steps_per_interval"])
        assert np.array_equal(tr.rho, ref)


class TestDivergenceGuard:
    def test_deviation_beyond_the_escape_band_raises(self, diagram):
        # the ramp piles density up without end: the sup deviation passes
        # ESCAPE_FACTOR * max(0, 0.05 * rho_max) = 4 * 0.08 = 0.32 near t = 2
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=uniform_profile(1.0, 60, 0.7), horizon=8.0, output_interval=0.25)
        with pytest.raises(SolverDivergenceError) as info:
            pde_oracle.integrate(sc, RampLaw(0.5), OracleSettings(n_cells=60))
        assert "escaped the band 0.32 near t = 2" in str(info.value)
