"""Closed-loop behavior of the free-inlet speed-limit law.

Proves:
  1.  the gain window (0, 1/(L rho_star)) is enforced
  2.  the congestion weight M = 1/(1 + k D) is 1 at the inlet and at
      equilibrium, and u = P / (f M) holds node by node on the reference bump
  3.  the bottleneck search returns the global grid minimum of f M with
      the smallest minimizer, and agrees with a brute-force scan
  4.  the control is 1 exactly at the bottleneck, never above 1, and the
      inlet flow equals the bottleneck value bitwise
  5.  the certified decay rate matches the frozen reference, grows with
      the lower density bound, and saturates above rho_star
  6.  simulate: equilibrium stays put with u = 1 everywhere; the bump run
      obeys the exponential envelope at every output time; every window has
      the certified length, its contraction ratios stay within the certified
      factor 0.5 and the picard block holds exactly the documented keys; a
      horizon of 1e-13 runs its one window and keeps the envelope; a window
      that exhausts its iteration budget raises ConvergenceError
  7.  domain errors: rho_star at or above the limit-reduction threshold,
      mismatched gain/profile pairing, non-finite or non-positive Picard
      settings; PicardSettings has exactly time_samples, tol and max_iter
  8.  every window's Picard solve over its candidate nodes gives the g,
      iteration count and contraction ratio of the full (time samples x
      nodes) matrix bit for bit: on both free presets, oracle-batch-shaped
      60-cell bumps, deviations of both signs, a 3-node grid, equilibrium
      and, with rho_star at the peak, family members that are not concave
      (rho_max 2.1, 2.5) or flat at 0 (shape 2); an iterate past the peak
      flow the bounds assume
      raises StateEscapeError; the fine-grid benchmark's bumps keep at most
      an eighth of their 1601 nodes as candidates
"""

from dataclasses import fields

import numpy as np
import pytest

from vslcontrol import (ConvergenceError, DensityProfile, DomainError,
                        ExponentialDiagram, FreeInletGain, PicardSettings, Scenario,
                        StateEscapeError, bump_profile, config, free_inlet, picard,
                        runner, uniform_profile)
from vslcontrol.quadrature import cumulative_trapezoid

C_FREE = 0.076307345383806768561  # k min f / (1 + k L (rho_max - rho_star))
P_BUMP = 0.33204330036719243      # grid bottleneck of the 400-cell bump
WINDOW = 1.0408667024872496       # 0.5 over the contraction coefficient


class TestGain:
    def test_upper_bound_is_inverse_mass(self):
        FreeInletGain(1.42, 1.0, 0.7)
        with pytest.raises(DomainError):
            FreeInletGain(1.0 / 0.7, 1.0, 0.7)

    def test_nonpositive_rejected(self):
        for bad in (0.0, -0.3):
            with pytest.raises(DomainError):
                FreeInletGain(bad, 1.0, 0.7)

    def test_pairing_mismatch_rejected(self, free_gain, diagram):
        p = bump_profile(1.0, 50, 0.9)
        with pytest.raises(DomainError):
            free_inlet.bottleneck(free_gain, diagram, p)


def _controls(gain, diagram, profile):
    return gain.controller(diagram, profile.x)(profile.values)


class TestWeight:
    # M = 1/(1 + k D) enters u = P / (f M); checked through the law's controls
    def test_one_at_inlet(self, free_gain, diagram, bump400):
        u, fv, _ = _controls(free_gain, diagram, bump400)
        value, _ = free_inlet.bottleneck(free_gain, diagram, bump400)
        assert bump400.node_deviation_integrals()[0] == 0.0
        assert u[0] == value / fv[0]  # M(0) = 1 exactly

    def test_one_at_equilibrium(self, free_gain, diagram):
        p = uniform_profile(1.0, 200, 0.7)
        u, fv, idx = _controls(free_gain, diagram, p)
        assert np.all(p.node_deviation_integrals() == 0.0)
        assert np.all(u == 1.0)
        assert np.all(fv == float(diagram.flow(0.7)))
        assert idx == 0

    def test_bump_full_road(self, free_gain, diagram, bump400):
        u, fv, _ = _controls(free_gain, diagram, bump400)
        value, _ = free_inlet.bottleneck(free_gain, diagram, bump400)
        m = 1.0 / (1.0 + 0.3 * bump400.node_deviation_integrals())
        np.testing.assert_allclose(u, value / (fv * m), rtol=1e-15, atol=0)

    def test_below_one_under_congestion(self, free_gain, diagram, bump400):
        # u f = P / M exceeds P wherever M < 1, i.e. at every node past the inlet
        u, fv, _ = _controls(free_gain, diagram, bump400)
        value, _ = free_inlet.bottleneck(free_gain, diagram, bump400)
        assert np.all(bump400.node_deviation_integrals()[1:] > 0.0)
        assert np.all(u[1:] * fv[1:] > value)


class TestBottleneck:
    def test_bump_reference(self, free_gain, diagram, bump400):
        value, xstar = free_inlet.bottleneck(free_gain, diagram, bump400)
        assert value == P_BUMP
        assert xstar == 1.0

    def test_matches_brute_force(self, free_gain, diagram, bump400):
        D = bump400.node_deviation_integrals()
        cand = diagram.flow(bump400.values) / (1.0 + free_gain.gain * D)
        value, xstar = free_inlet.bottleneck(free_gain, diagram, bump400)
        assert value == float(np.min(cand))
        assert xstar == float(bump400.x[np.argmin(cand)])

    def test_equilibrium_ties_break_at_inlet(self, free_gain, diagram):
        p = uniform_profile(1.0, 100, 0.7)
        value, xstar = free_inlet.bottleneck(free_gain, diagram, p)
        assert value == pytest.approx(float(diagram.flow(0.7)), rel=1e-15)
        assert xstar == 0.0


class TestControl:
    def test_saturates_at_bottleneck(self, free_gain, diagram, bump400):
        _, xstar = free_inlet.bottleneck(free_gain, diagram, bump400)
        u, _, idx = _controls(free_gain, diagram, bump400)
        assert bump400.x[idx] == xstar
        assert u[idx] == 1.0

    def test_never_exceeds_one(self, free_gain, diagram, bump400):
        u, _, _ = _controls(free_gain, diagram, bump400)
        assert np.all(u <= 1.0)
        assert np.all(u > 0.0)

    def test_inlet_flow_equals_bottleneck(self, free_gain, diagram, bump400):
        value, _ = free_inlet.bottleneck(free_gain, diagram, bump400)
        u, fv, _ = _controls(free_gain, diagram, bump400)
        assert fv[0] == float(diagram.flow(0.7))
        assert u[0] * fv[0] == pytest.approx(value, rel=1e-15)


class TestDecayRateBound:
    def test_frozen_reference(self, free_gain, diagram):
        assert free_inlet.decay_rate_bound(free_gain, diagram, 0.7) == \
            pytest.approx(C_FREE, rel=1e-15)

    def test_monotone_in_lower_bound(self, free_gain, diagram):
        s = np.linspace(0.05, 0.7, 14)
        c = [free_inlet.decay_rate_bound(free_gain, diagram, v) for v in s]
        assert all(a <= b + 1e-15 for a, b in zip(c, c[1:]))

    def test_flat_above_set_point(self, free_gain, diagram):
        c1 = free_inlet.decay_rate_bound(free_gain, diagram, 0.7)
        c2 = free_inlet.decay_rate_bound(free_gain, diagram, 1.2)
        assert c1 == c2

    def test_equals_the_grid_minimum(self):
        # f has a single peak, so the ends of [lo, rho_max] give min f exactly
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = ExponentialDiagram(flow_scale=rng.uniform(0.5, 2.0),
                                   density_scale=rng.uniform(0.5, 2.0),
                                   shape=rng.uniform(0.5, 3.0), rho_max=rng.uniform(1.5, 3.0))
            g = FreeInletGain(0.3, 1.0, rng.uniform(0.2, 1.0))
            s = rng.uniform(0.01, 1.0) * d.rho_max
            lo = min(s, g.rho_star)
            fmin = float(np.min(d.flow(np.linspace(lo, d.rho_max, 2001))))
            want = g.gain * fmin / (1.0 + g.gain * g.length * (d.rho_max - g.rho_star))
            assert free_inlet.decay_rate_bound(g, d, s) == want

    def test_rejects_bad_bound(self, free_gain, diagram):
        for bad in (0.0, -0.1, 1.7):
            with pytest.raises(DomainError):
                free_inlet.decay_rate_bound(free_gain, diagram, bad)


class TestSimulate:
    def test_equilibrium_is_a_fixed_point(self, free_gain, diagram):
        p = uniform_profile(1.0, 50, 0.7)
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7, rho0=p,
                      horizon=5.0, output_interval=1.0)
        tr = free_inlet.simulate(sc, free_gain)
        assert np.all(tr.rho == 0.7)
        assert np.all(tr.u == 1.0)
        assert np.all(tr.sup_deviation == 0.0)

    def test_bump_decay_envelope(self, free_trace):
        sup0 = free_trace.sup_deviation[0]
        rate = free_trace.metadata["decay_rate_bound"]
        bound = sup0 * np.exp(-rate * free_trace.times)
        assert np.all(free_trace.sup_deviation <= bound + 1e-12)

    def test_inlet_flow_is_bottleneck_bitwise(self, free_trace, free_gain, diagram):
        for j in range(free_trace.times.size):
            p = DensityProfile(1.0, free_trace.rho[j], 0.7)
            value, _ = free_inlet.bottleneck(free_gain, diagram, p)
            assert free_trace.inlet_flow[j] == value

    def test_deviation_shape_is_preserved(self, free_trace):
        # rho(t) - rho_star is a scalar multiple of rho0 - rho_star
        d0 = free_trace.rho[0] - 0.7
        dT = free_trace.rho[-1] - 0.7
        mask = np.abs(d0) > 1e-9
        ratios = dT[mask] / d0[mask]
        assert np.ptp(ratios) < 1e-12

    def test_tiny_horizon_runs_one_window(self, free_gain, diagram):
        # the march's end tolerance scales with the horizon, so no horizon
        # is shorter than it
        sc = Scenario(diagram=diagram, length=1.0, rho_star=0.7,
                      rho0=bump_profile(1.0, 60, 0.7), horizon=1e-13, output_interval=1e-13)
        tr = free_inlet.simulate(sc, free_gain)
        assert tr.metadata["picard"]["windows"] == 1
        assert runner._decay_check(tr, tr.metadata["decay_rate_bound"]).passed

    def test_window_metadata(self, free_trace):
        picard = free_trace.metadata["picard"]
        assert free_trace.metadata["window"] == pytest.approx(WINDOW, rel=1e-12)
        assert picard["windows"] == int(np.ceil(30.0 / WINDOW))
        assert picard["max_contraction_ratio"] <= 0.5 + 1e-12
        assert picard["max_iterations"] <= 30
        assert picard["factor_bound"] == 0.5
        assert set(picard) == {"windows", "max_iterations", "max_contraction_ratio",
                               "factor_bound", "tol", "candidates_max"}

    def test_set_point_above_limit_threshold_rejected(self):
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        assert d.delta < 1.6
        g = FreeInletGain(0.1, 1.0, d.delta + 0.05)
        p = uniform_profile(1.0, 20, d.delta + 0.05)
        sc = Scenario(diagram=d, length=1.0, rho_star=d.delta + 0.05, rho0=p,
                      horizon=1.0, output_interval=0.5)
        with pytest.raises(DomainError):
            free_inlet.simulate(sc, g)

    def test_tiny_iteration_budget_raises(self, free_scenario, free_gain):
        with pytest.raises(ConvergenceError, match="window of length"):
            free_inlet.simulate(free_scenario, free_gain,
                                PicardSettings(max_iter=1, tol=1e-14))


class TestPicardSettings:
    def test_validation(self):
        with pytest.raises(DomainError):
            PicardSettings(time_samples=1)
        with pytest.raises(DomainError):
            PicardSettings(tol=0.0)
        with pytest.raises(DomainError):
            PicardSettings(max_iter=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                PicardSettings(tol=bad)

    def test_fields(self):
        assert [f.name for f in fields(PicardSettings)] == ["time_samples", "tol", "max_iter"]


def full_window(diagram, gain, rho_star, x, dev, span, settings):
    """The window solve over every node, one (time samples x nodes) matrix an update.

    Returns g, the iteration count and the worst contraction ratio.
    """
    k = gain.gain
    tn = np.linspace(0.0, span, settings.time_samples + 1)
    D0 = cumulative_trapezoid(x, dev)
    weighted0 = np.asarray(diagram.flow(rho_star + dev), dtype=float) / (1.0 + k * D0)

    def update(g):
        sh = np.exp(-k * cumulative_trapezoid(tn, g))[:, None]
        weighted = np.asarray(diagram.flow(rho_star + sh * dev), dtype=float) / (
            1.0 + k * sh * D0)
        return weighted.min(axis=1)

    return picard.iterate(update, np.full(tn.size, float(np.min(weighted0))), settings,
                          "reference window")


def _bump60(amplitude, gain):
    d = ExponentialDiagram(rho_max=1.6)
    sc = Scenario(diagram=d, length=1.0, rho_star=0.7,
                  rho0=bump_profile(1.0, 60, 0.7, amplitude=amplitude),
                  horizon=0.4, output_interval=0.2)
    return sc, FreeInletGain(gain, 1.0, 0.7), PicardSettings()


def _sampled(values, gain, horizon):
    d = ExponentialDiagram(rho_max=1.6)
    p = DensityProfile(1.0, values, 0.7)
    sc = Scenario(diagram=d, length=1.0, rho_star=0.7, rho0=p, horizon=horizon,
                  output_interval=horizon / 4)
    return sc, FreeInletGain(gain, 1.0, 0.7), PicardSettings()


def _at_peak(diagram, values):
    # rho_star at the critical density: nodes straddle the peak, where the
    # bounds take the capacity as the flow's maximum
    d = ExponentialDiagram(**diagram)
    rho_peak = d.critical_density
    vals = values(rho_peak)
    sc = Scenario(diagram=d, length=1.0, rho_star=rho_peak,
                  rho0=DensityProfile(1.0, vals, rho_peak), horizon=2.0, output_interval=0.5)
    return sc, FreeInletGain(0.5, 1.0, rho_peak), PicardSettings()


def _preset(name):
    cfg = config.preset(name)
    return config.build_scenario(cfg), config.build_free_gain(cfg), config.build_picard(cfg)


_X100 = np.linspace(0.0, 1.0, 101)
WINDOW_CASES = {
    "paper-sec5-free": lambda: _preset("paper-sec5-free"),
    "paper-fig7": lambda: _preset("paper-fig7"),
    "bump60-low": lambda: _bump60(0.5, 1.3),
    "bump60-mid": lambda: _bump60(2.0, 0.7),
    "bump60-high": lambda: _bump60(3.5, 0.2),
    "two-signed-sine": lambda: _sampled(0.7 + 0.5 * np.sin(3.0 * np.pi * _X100), 0.9, 5.0),
    "two-signed-steps": lambda: _sampled(np.where(_X100 < 0.5, 1.4, 0.2), 1.2, 3.0),
    "three-nodes": lambda: _sampled([0.7, 1.3, 0.3], 0.5, 5.0),
    "equilibrium": lambda: _sampled(np.full(101, 0.7), 0.5, 2.0),
    "rho_max2.5-equilibrium": lambda: _at_peak(dict(rho_max=2.5), lambda r: np.full(21, r)),
    "rho_max2.1-two-signed": lambda: _at_peak(
        dict(rho_max=2.1), lambda r: r + 0.9 * np.sin(3.0 * np.pi * np.linspace(0.0, 1.0, 41))),
    "shape2-two-signed": lambda: _at_peak(
        dict(shape=2.0, rho_max=1.6),
        lambda r: r + 0.4 * np.sin(3.0 * np.pi * np.linspace(0.0, 1.0, 41))),
}


class TestCandidateWindow:
    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_equals_full_matrix(self, case, monkeypatch):
        scenario, gain, settings = WINDOW_CASES[case]()
        solve = free_inlet._solve_window
        widths = []

        def checked(*args):
            out = solve(*args)
            g, iters, ratio = full_window(*args)
            assert np.array_equal(out[1], g)
            assert (out[3], out[4]) == (iters, ratio)
            widths.append(out[5])
            return out

        monkeypatch.setattr(free_inlet, "_solve_window", checked)
        tr = free_inlet.simulate(scenario, gain, settings)
        n = scenario.rho0.x.size
        assert len(widths) == tr.metadata["picard"]["windows"]
        assert tr.metadata["picard"]["candidates_max"] == max(widths) <= n
        if case.endswith("equilibrium"):
            assert min(widths) == n  # every node ties, so every node stays
        elif n > 3:
            assert max(widths) < n

    def test_iterate_past_the_peak_flow_raises(self, free_scenario, free_gain):
        class LowCapacity(ExponentialDiagram):
            capacity = 0.1  # below the bump's bottleneck value P_BUMP

        sc = Scenario(diagram=LowCapacity(rho_max=1.6), length=1.0, rho_star=0.7,
                      rho0=free_scenario.rho0, horizon=2.0, output_interval=1.0)
        with pytest.raises(StateEscapeError, match="shrink factor"):
            free_inlet.simulate(sc, free_gain)

    @pytest.mark.parametrize("amplitude,width", [(3.0, 1.15), (3.5, 1.17), (4.0, 1.2)])
    def test_fine_grid_candidates_stay_narrow(self, amplitude, width):
        # timing-free perf guard on the fine-grid benchmark's free-law shape
        d = ExponentialDiagram(vsl_sensitivity=1.0, rho_max=1.6)
        sc = Scenario(diagram=d, length=1.0, rho_star=0.7,
                      rho0=bump_profile(1.0, 1600, 0.7, amplitude=amplitude, width=width),
                      horizon=60.0, output_interval=1.0)
        tr = free_inlet.simulate(sc, FreeInletGain(0.3, 1.0, 0.7))
        assert tr.metadata["picard"]["candidates_max"] <= 1601 // 8


@pytest.fixture(scope="module")
def free_trace(free_scenario, free_gain):
    return free_inlet.simulate(free_scenario, free_gain)
