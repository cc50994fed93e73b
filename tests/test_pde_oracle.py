"""Independent finite-volume integrator used to cross-check the closed forms.

Proves:
  1.  settings validation (cell floor, cfl window, non-finite cfl cap); the
      settings hold only n_cells and cfl_cap
  2.  equilibrium initial data is preserved to machine precision under both
      laws
  3.  short-horizon integration tracks the semi-analytic solution on a
      coarse grid under both laws
  4.  the divergence guard: a state whose deviation leaves
      ESCAPE_FACTOR * max(sup0, 0.05 * rho_max), or that turns NaN under a
      stub law with a NaN flow, raises SolverDivergenceError
  5.  compare: identical traces give zero gaps, mismatched time grids and
      traces of different roads are rejected (in either order), different
      space grids of one road are resampled
  6.  conservation bookkeeping: interior mass change matches boundary
      fluxes to discretization accuracy
  7.  records that are not laws, and laws for another road, are rejected
  8.  the lean right-hand side (law and buffers bound once, slice
      stencil, SSP-RK3 in place) gives the same bits as a plain loop over
      a freshly bound law and np.gradient under the same SSP-RK3 formula,
      for both laws at 60, 400 and 800 cells and shapes 1 and 2; the
      checked ExponentialDiagram.flow is called as often whatever the step
      count, so no stage goes back to the allocating, separately checked
      flow; a run evaluates the bound law exactly three times per step,
      plus once per snapshot for the trace, and runs density_range twice
      per step: stage 1 takes the range of the pass that ended the step
      before
  9.  a bound law still runs its domain and escape checks on every call;
      both laws refuse a NaN flow with StateEscapeError; the fixed law's
      escape says the state left the admissible family and, for
      uncertified gains only, that the gains are not certified
  10. each step is sized from the density range of the state it starts
      from: on criterion 07's free-law run the realised CFL stays under the
      cap in no more steps than the former widened speed band took; a
      state whose range grows every step (a ramp law) matches the plain
      loop's own sizing step for step, with nothing discarded; where the
      range only contracts, slope_bound runs once per output interval; a
      cap one ulp below the CFL number of n steps takes n + 1
  11. the keys README lists for <law>/oracle/metadata.json are exactly
      those an oracle trace adds to law, oracle, rho_star and n_cells
  12. a run whose step count at the diagram's largest wave speed exceeds
      MAX_STEPS is refused with DomainError before the law is evaluated
"""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

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
        assert s.n_cells == 400 and s.cfl_cap == 0.8
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

    def test_readme_lists_the_metadata_keys(self, diagram, free_gain):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (entry,) = re.findall(r"^<law>/oracle/ .*?metadata\.json adds (.*?)\n```",
                              readme, flags=re.S | re.M)
        listed = re.findall(r"\w+", re.sub(r"\([^)]*\)", "", entry).replace(" and ", ","))
        tr = pde_oracle.integrate(short_scenario(diagram, horizon=0.5), free_gain,
                                  OracleSettings(n_cells=40))
        assert listed == [key for key in tr.metadata
                          if key not in ("law", "oracle", "rho_star", "n_cells")]


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

    def test_different_roads_rejected(self, diagram, free_gain):
        # resampling would clamp the road on [0, 2] onto [0, 1]
        a = free_inlet.simulate(short_scenario(diagram, horizon=0.5), free_gain)
        long_road = Scenario(diagram=diagram, length=2.0, rho_star=0.7,
                             rho0=bump_profile(2.0, 80, 0.7, amplitude=0.4, width=2.0),
                             horizon=0.5, output_interval=0.5)
        b = free_inlet.simulate(long_road, FreeInletGain(0.3, 2.0, 0.7))
        for first, second in ((a, b), (b, a)):
            with pytest.raises(DomainError, match="different roads"):
                pde_oracle.compare(first, second)

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


def reference_rows(scenario, gains, n_cells, cfl_cap=OracleSettings.cfl_cap):
    """The oracle as a plain loop: a freshly bound law and np.gradient every stage
    of the SSP-RK3 step rho + (dt/6) (k1 + k2 + 4 k3).

    The loop sizes its own steps from its own state: the time left in an
    output interval is split into the fewest equal steps with
    dt * s / h <= cfl_cap, s the slope bound over the state's range, and
    sized again whenever a step's result leaves that range.  Returns the
    state at every output time, one row each, and the steps taken.
    """
    d = scenario.diagram
    x = np.linspace(0.0, scenario.length, n_cells + 1)
    h = scenario.length / n_cells
    rho = np.interp(x, scenario.rho0.x, scenario.rho0.values)

    def rhs(state):
        u, fv, _ = gains.controller(d, x, pde_oracle.ORACLE_U_TOL)(state)
        out = -np.gradient(u * fv, h, edge_order=2)
        if gains.pins_inlet:
            out[0] = 0.0
        return out

    interval = float(scenario.output_times[1] - scenario.output_times[0])
    rows, taken = [rho], 0
    for _ in range(scenario.output_times.size - 1):
        n_left, dt = 1, interval
        while n_left:
            lo, hi = np.min(rho), np.max(rho)
            s = d.slope_bound(max(lo, 0.0), min(hi, d.rho_max))
            time_left = n_left * dt
            n_left = 1
            while time_left / n_left * s / h > cfl_cap:
                n_left += 1
            dt = time_left / n_left
            while n_left:
                k1 = rhs(rho)
                k2 = rhs(rho + dt * k1)
                k3 = rhs(rho + (dt / 4.0) * (k1 + k2))
                rho = rho + (dt / 6.0) * (k1 + k2 + 4.0 * k3)
                taken += 1
                n_left -= 1
                if np.min(rho) < lo or np.max(rho) > hi:
                    break
        rows.append(rho)
    return np.array(rows), taken


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
        ref, taken = reference_rows(sc, gains, n_cells)
        assert np.array_equal(tr.rho[-1], ref[-1])
        assert np.array_equal(tr.rho, ref)
        assert tr.metadata["steps"] == taken

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

    @pytest.mark.parametrize("law", ["free", "fixed"])
    def test_three_law_evaluations_per_step(self, diagram, free_gain, fixed_gains, law,
                                            monkeypatch):
        # every law bound through gains.controller counts its evaluations:
        # three per SSP-RK3 step, and law_trace's one per snapshot
        gains = free_gain if law == "free" else fixed_gains
        calls = []
        controller = type(gains).controller

        def counted(self, *args):
            evaluate = controller(self, *args)

            def counting(rho, span=None):
                calls.append(1)
                return evaluate(rho, span)
            return counting

        monkeypatch.setattr(type(gains), "controller", counted)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=bump_profile(1.0, 400, 0.7), horizon=0.2, output_interval=0.1)
        # a cap below the default's, for steps enough to tell 3 per step apart
        tr = pde_oracle.integrate(sc, gains, OracleSettings(n_cells=400, cfl_cap=0.4))
        assert tr.metadata["steps"] >= 20
        assert len(calls) == 3 * tr.metadata["steps"] + tr.times.size

    @pytest.mark.parametrize("law", ["free", "fixed"])
    def test_two_density_passes_per_step(self, diagram, free_gain, fixed_gains, law,
                                         monkeypatch):
        # stage 1 takes the state's range from the min/max pass that ended
        # the step before, so density_range runs for stages 2 and 3 only,
        # plus law_trace's once per snapshot and once per checked call of
        # flow or slope_bound
        gains = free_gain if law == "free" else fixed_gains
        sizes, others = [], []
        density_range = ExponentialDiagram.density_range

        def counted_range(self, r):
            sizes.append(r.size)
            return density_range(self, r)

        def counted(method):
            def wrapper(self, *args):
                others.append(method.__name__)
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(ExponentialDiagram, "density_range", counted_range)
        for name in ("flow", "slope_bound"):
            method = getattr(ExponentialDiagram, name)
            monkeypatch.setattr(ExponentialDiagram, name, counted(method))
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=bump_profile(1.0, 400, 0.7), horizon=0.2, output_interval=0.1)
        tr = pde_oracle.integrate(sc, gains, OracleSettings(n_cells=400, cfl_cap=0.4))
        steps = tr.metadata["steps"]
        assert steps >= 20
        assert sizes.count(tr.x.size) == 2 * steps + tr.times.size
        assert len(sizes) == 2 * steps + tr.times.size + len(others)


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

    @pytest.mark.parametrize("law,message", [("free", "weighted flow lost positivity"),
                                             ("fixed", "flow vanished")])
    def test_nan_flow_is_refused(self, law, message):
        # under shape 0.5, f is NaN at a density just below 0, inside the
        # domain's tolerance: argmin points at the NaN, which fails the
        # positivity check, wherever it sits
        d = ExponentialDiagram(shape=0.5, rho_max=1.6)
        gains = (FreeInletGain(0.3, 1.0, 0.7) if law == "free" else
                 fixed_inlet.calibrate(d, 0.7, 1.0, 0.12, 0.1, mode="override"))
        x = np.linspace(0.0, 1.0, 61)
        evaluate = gains.controller(d, x, pde_oracle.ORACLE_U_TOL)
        assert np.all(evaluate(np.full(x.size, 0.7))[0] == 1.0)
        for node in (0, 10, 60):
            row = np.full(x.size, 0.7)
            row[node] = -1e-12
            with np.errstate(invalid="ignore"), pytest.raises(StateEscapeError,
                                                              match=message):
                evaluate(row)

    def test_fixed_law_escape_message(self, diagram, fixed_gains):
        x = np.linspace(0.0, 1.0, 101)
        evaluate = fixed_gains.controller(diagram, x, pde_oracle.ORACLE_U_TOL)
        evaluate(np.full(x.size, 0.7))
        row = np.full(x.size, 0.7)
        row[50] = 0.3
        with pytest.raises(StateEscapeError) as info:
            evaluate(row)
        assert str(info.value) == ("control 1.5405 left (0, 1] at x = 0.5; the state left "
                                   "the admissible family; the gains are not certified")
        # the same row passes under a band that reaches u = 1.5405, clipped to 1
        u, _, _ = fixed_gains.controller(diagram, x, 0.541)(row)
        assert u.max() == 1.0
        with pytest.raises(StateEscapeError):
            fixed_gains.controller(diagram, x, 0.540)(row)
        row[20] = 1e-12
        with pytest.raises(StateEscapeError) as info:
            evaluate(row)
        assert str(info.value) == ("control 3.4579e+11 left (0, 1] at x = 0.2; the state "
                                   "left the admissible family; the gains are not certified")
        # certified gains leave the gains out of the message
        certified = replace(fixed_gains, certified=True)
        with pytest.raises(StateEscapeError) as info:
            certified.controller(diagram, x, pde_oracle.ORACLE_U_TOL)(row)
        assert str(info.value) == ("control 3.4579e+11 left (0, 1] at x = 0.2; the state "
                                   "left the admissible family")


class RampLaw:
    """A stub law with u = 1 - slope * x and a pinned inlet.

    The flow falls along the road, so a uniform state piles up and its
    density range grows: each step's result leaves the range it started in.
    """

    law = "ramp"
    pins_inlet = True
    rho_star = 0.7
    length = 1.0

    def __init__(self, slope):
        self.slope = slope

    def controller(self, diagram, x, u_tol):
        u = 1.0 - self.slope * x
        return lambda rho, span=None: (u, np.asarray(diagram.flow(rho), dtype=float), None)


class NaNFlowLaw(RampLaw):
    """RampLaw with a NaN flow, which no law returns: the state turns NaN
    in the first step, and nothing checks it until the interval ends."""

    def controller(self, diagram, x, u_tol):
        u = 1.0 - self.slope * x
        return lambda rho, span=None: (u, np.full(x.size, np.nan), None)


class TestStepSize:
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

    def test_steps_far_below_global_bound(self, criterion_07_free):
        # the global bound max|f'| = 1 over [0, rho_max] takes 15000 steps
        # here, and the state's range widened into a speed band took 2437
        _, tr = criterion_07_free
        assert tr.metadata["steps"] <= 2437

    @pytest.mark.parametrize("slope", [0.5, 0.05])
    def test_growing_range_is_sized_again(self, diagram, slope, monkeypatch):
        # the ramp piles density up, so a step's result leaves the range
        # it was sized for: the time left is sized again from the new
        # state, and the step stands
        calls = []
        slope_bound = ExponentialDiagram.slope_bound

        def counted(self, lo, hi):
            calls.append((lo, hi))
            return slope_bound(self, lo, hi)

        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=uniform_profile(1.0, 60, 0.7), horizon=1.0, output_interval=0.5)
        law = RampLaw(slope)
        ref, taken = reference_rows(sc, law, 60)
        diagram.max_abs_slope  # the step budget's slope, cached on the diagram
        monkeypatch.setattr(ExponentialDiagram, "slope_bound", counted)
        settings = OracleSettings(n_cells=60)
        tr = pde_oracle.integrate(sc, law, settings)
        assert np.array_equal(tr.rho, ref)
        assert tr.metadata["steps"] == taken
        assert tr.metadata["cfl"] <= settings.cfl_cap
        assert len(calls) > 2  # sized again within an interval
        assert tr.rho.max() > calls[0][1]

    def test_cap_one_ulp_below_a_step_count(self, diagram, free_gain):
        # the cap sits one ulp below the CFL number of 11 equal steps, and
        # interval * s / (cap * h) rounds down onto 11: the oracle takes 12
        s, h = diagram.slope_bound(0.7, 0.7), 1.0 / 60
        cap = float(np.nextafter(0.25 / 11 * s / h, 0.0))
        assert math.ceil(0.25 * s / (cap * h)) == 11
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=uniform_profile(1.0, 60, 0.7), horizon=0.25, output_interval=0.25)
        tr = pde_oracle.integrate(sc, free_gain, OracleSettings(n_cells=60, cfl_cap=cap))
        assert tr.metadata["steps"] == 12
        assert tr.metadata["cfl"] <= cap

    def test_contracting_range_is_sized_once_per_interval(self, monkeypatch):
        # the fixed law pins the inlet at rho_star and the bump decays, so
        # the range only contracts: one slope_bound call per output
        # interval, however many steps the interval takes
        calls = []
        slope_bound = ExponentialDiagram.slope_bound

        def counted(self, lo, hi):
            calls.append(1)
            return slope_bound(self, lo, hi)

        cfg = with_overrides(preset("paper-sec5-fixed"), n_cells=400, oracle_n_cells=400,
                             oracle_cfl_cap=0.8, oracle_enabled=True)
        sc = build_scenario(cfg)
        gains = fixed_inlet.calibrate(sc.diagram, cfg.rho_star, cfg.length, cfg.sigma,
                                      cfg.gamma, cfg.mode)
        sc.diagram.max_abs_slope  # the step budget's slope, cached on the diagram
        monkeypatch.setattr(ExponentialDiagram, "slope_bound", counted)
        tr = pde_oracle.integrate(sc, gains, build_oracle_settings(cfg))
        assert tr.times.size - 1 == len(calls) == 40
        assert tr.metadata["steps"] > 100 * len(calls)


class TestStepBudget:
    def test_over_budget_is_refused_before_the_first_step(self, monkeypatch):
        # cfl_cap = 1e-9 on sec5-free: 40 intervals of 0.75 at max|f'| = 1
        # and h = 1/400 make 1.2e13 steps
        cfg = with_overrides(preset("paper-sec5-free"), oracle_enabled=True,
                             oracle_cfl_cap=1e-9)
        gains = build_free_gain(cfg)
        monkeypatch.setattr(type(gains), "controller",
                            lambda *args: pytest.fail("the law was bound"))
        with pytest.raises(DomainError, match=r"about 1\.2e\+13 steps .* budget of 10000000"):
            pde_oracle.integrate(build_scenario(cfg), gains, build_oracle_settings(cfg))


class TestDivergenceGuard:
    @pytest.mark.parametrize("law,says", [
        # the ramp piles density up without end: the sup deviation passes
        # ESCAPE_FACTOR * max(0, 0.05 * rho_max) = 4 * 0.08 = 0.32 near t = 2
        (RampLaw(0.5), "escaped the band 0.32 near t = 2"),
        (NaNFlowLaw(0.5), "state became non-finite near t = 0.25")], ids=["ramp", "nan_flow"])
    def test_state_outside_the_band_raises(self, diagram, law, says):
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=uniform_profile(1.0, 60, 0.7), horizon=8.0, output_interval=0.25)
        with pytest.raises(SolverDivergenceError) as info:
            pde_oracle.integrate(sc, law, OracleSettings(n_cells=60))
        assert says in str(info.value)
