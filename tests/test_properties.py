"""Randomized invariant checks, 200+ cases each.

Every property lives in a module-level function taking a seeded generator
and returning the number of cases it ran; PROPERTY_CHECKS maps names to
those functions so the acceptance suite can re-run the whole battery.

Covered invariants:
  quadrature_affine_exactness   cumulative deviation (node integrals plus
                                integral_to) integrates affine data
                                exactly, vanishes at 0, and is additive
  limit_inversion_round_trip    speed_limits recovers the limit ratio that
                                generated the flow, on the monotone
                                branch; a batch equals its one-point calls
                                bit for bit
  limit_response_rises          dF/dl > 0 below the saturating limit, on
                                200 densities x 200 fractions of l_sat
                                per member: the limit response that
                                validate_assumptions proves rather than
                                checks
  validator_flags_concavity     concave family members pass; members past
                                the inflection point or with shape > 1
                                fail exactly on strict concavity, where
                                the exact condition says
  free_equilibrium_fixed_point  equilibrium data stays put with u = 1
  free_decay_and_flux           closed loop: u in (0, 1], inlet flow equals
                                the bottleneck, sup deviation under the
                                certified envelope, Picard ratios within
                                the safety bound
  fixed_boundary_and_decay      closed loop: exact inlet pinning, decay at
                                sigma - gamma L, contraction ratios within
                                gamma L / sigma, Gronwall consistency
  sup_norm_axioms               the deviation norm is absolutely
                                homogeneous and subadditive
  oracle_agreement              independent finite-volume runs track the
                                closed forms and conserve mass; the
                                oracle's recorded mass-balance residual
                                equals the one computed here
  config_round_trip             serialize/parse is the identity on random
                                configurations
"""

import numpy as np
import pytest

from vslcontrol import (ExponentialDiagram, FreeInletGain, OracleSettings,
                        Scenario, bump_profile, fixed_inlet,
                        free_inlet, pde_oracle, sampled_profile, speed_limits,
                        uniform_profile, validate_assumptions)
from vslcontrol.config import (RunConfig, parse_config, serialize_config,
                               with_overrides)
from vslcontrol.quadrature import cumulative_trapezoid, integral_to

N_CASES = 200
STANDARD = ExponentialDiagram(rho_max=1.6)


def quadrature_affine_exactness(rng, n_cases=N_CASES):
    for _ in range(n_cases):
        n = int(rng.integers(3, 31))
        length = rng.uniform(0.5, 2.0)
        rho_star = 1.0
        alpha = rng.uniform(-0.4, 0.4)
        beta = rng.uniform(-0.25, 0.25)
        x = np.linspace(0.0, length, n + 1)
        p = sampled_profile(length, rho_star, rho_star + alpha + beta * x)
        D = p.node_deviation_integrals()
        dev_to = lambda q: integral_to(p.x, p.values - rho_star, D, q)
        assert D[0] == 0.0 and dev_to(0.0) == 0.0
        q1, q2 = np.sort(rng.uniform(0.0, length, size=2))
        exact = lambda t: alpha * t + beta * t * t / 2.0
        for q in (q1, q2, length):
            assert dev_to(q) == pytest.approx(exact(q), abs=1e-13)
        both = dev_to(q2) - dev_to(q1)
        assert both == pytest.approx(exact(q2) - exact(q1), abs=1e-13)
    return n_cases


def limit_inversion_round_trip(rng, n_cases=N_CASES):
    for _ in range(n_cases):
        d = ExponentialDiagram(
            flow_scale=rng.uniform(0.5, 2.0),
            density_scale=rng.uniform(0.5, 2.0),
            shape=rng.uniform(0.6, 2.5),
            vsl_sensitivity=rng.uniform(0.0, 1.0),
            rho_max=rng.uniform(1.2, 2.5))
        rho = rng.uniform(0.05, 1.0) * d.rho_max
        l_true = rng.uniform(0.1, 0.999) * d.saturating_limit(rho)
        u = d.vsl_flow(rho, l_true) / d.flow(rho)
        assert float(speed_limits(d, rho, u)) == pytest.approx(l_true, abs=1e-8)
    # one batch through the same map equals its one-point calls
    d = ExponentialDiagram(vsl_sensitivity=0.7, rho_max=1.6)
    rho = rng.uniform(0.05, 1.5, size=n_cases)
    l_true = rng.uniform(0.1, 0.999, size=n_cases) * d.saturating_limit(rho)
    u = d.vsl_flow(rho, l_true) / d.flow(rho)
    batch = speed_limits(d, rho, u)
    np.testing.assert_allclose(batch, l_true, rtol=0, atol=1e-8)
    np.testing.assert_array_equal(batch, [speed_limits(d, r, uu) for r, uu in zip(rho, u)])
    return n_cases


def limit_response_rises(rng, n_cases=N_CASES):
    fractions = np.linspace(0.0, 1.0, 202)[1:-1]
    for _ in range(n_cases):
        A, b = rng.uniform(0.5, 2.0, size=2)
        a, shape = rng.uniform(0.0, 3.0), rng.uniform(0.3, 3.0)
        d = ExponentialDiagram(flow_scale=A, density_scale=b, shape=shape, vsl_sensitivity=a,
                               rho_max=rng.uniform(0.5, 3.0) / b)
        rho = np.linspace(0.0, d.rho_max, 201)[1:, None]
        l = fractions * d.saturating_limit(rho)
        # dF/dl = A rho e^(-(b rho / s)^shape / shape) (1 - a l (b rho)^shape / s^(1 + shape)),
        # s = 1 + a (1 - l), written out here rather than taken from the package
        s = 1.0 + a * (1.0 - l)
        slope = A * rho * np.exp(-(b * rho / s) ** shape / shape) * (
            1.0 - a * l * (b * rho) ** shape / s ** (1.0 + shape))
        assert np.all(slope > 0.0), (A, b, shape, a, d.rho_max)
    return n_cases


def validator_flags_concavity(rng, n_cases=N_CASES):
    for _ in range(n_cases):
        b = rng.uniform(0.5, 2.0)
        shape = rng.uniform(0.3, 1.0)
        common = dict(flow_scale=rng.uniform(0.5, 2.0), density_scale=b,
                      vsl_sensitivity=rng.uniform(0.0, 1.5))
        # f'' changes sign at the inflection point, past the peak at 1/b
        inflection = (1.0 + shape) ** (1.0 / shape) / b
        good = ExponentialDiagram(shape=shape, **common,
                                  rho_max=rng.uniform(1.01 / b, 0.99 * inflection))
        report = validate_assumptions(good)
        assert report.passed, [ck.name for ck in report.checks if not ck.passed]

        for bad, where in ((ExponentialDiagram(shape=shape, **common,
                                               rho_max=rng.uniform(1.01, 2.0) * inflection),
                            inflection),
                           (ExponentialDiagram(shape=rng.uniform(1.01, 3.0), **common,
                                               rho_max=rng.uniform(1.01, 3.0) / b), 0.0)):
            failed = [ck for ck in validate_assumptions(bad).checks if not ck.passed]
            assert [ck.name for ck in failed] == ["strict_concavity"]
            assert failed[0].where == pytest.approx((where,), rel=1e-12)
            # f'' vanishes at the reported point
            assert bad.flow_curvature(where) == pytest.approx(0.0, abs=1e-12)
    return n_cases


def free_equilibrium_fixed_point(rng, n_cases=N_CASES):
    for _ in range(n_cases):
        b = rng.uniform(0.5, 1.5)
        # keep the critical density 1/b interior to [0, rho_max]
        d = ExponentialDiagram(flow_scale=rng.uniform(0.5, 2.0),
                               density_scale=b,
                               rho_max=rng.uniform(1.2, 2.0) / b)
        length = rng.uniform(0.5, 2.0)
        rho_star = rng.uniform(0.2, 0.9) * min(d.delta, d.rho_max)
        k = rng.uniform(0.1, 0.9) / (length * rho_star)
        p = uniform_profile(length, int(rng.integers(10, 60)), rho_star)
        horizon = rng.uniform(0.5, 3.0)
        sc = Scenario(diagram=d, length=length, rho_star=rho_star, rho0=p,
                      horizon=horizon, output_interval=horizon / 4.0)
        tr = free_inlet.simulate(sc, FreeInletGain(k, length, rho_star))
        assert np.all(tr.rho == rho_star)
        assert np.all(tr.u == 1.0)
        assert np.all(tr.sup_deviation == 0.0)
    return n_cases


def free_decay_and_flux(rng, n_cases=N_CASES):
    d = STANDARD
    for _ in range(n_cases):
        amp = rng.uniform(0.3, 4.0)
        width = rng.uniform(1.0, 1.4)
        k = rng.uniform(0.15, 1.35)
        p = bump_profile(1.0, int(rng.integers(30, 80)), 0.7,
                         amplitude=amp, width=width)
        if float(np.max(p.values)) >= d.rho_max:
            continue
        g = FreeInletGain(k, 1.0, 0.7)
        horizon = rng.uniform(1.0, 5.0)
        sc = Scenario(diagram=d, length=1.0, rho_star=0.7, rho0=p,
                      horizon=horizon, output_interval=horizon / 5.0)
        tr = free_inlet.simulate(sc, g)
        assert np.all(tr.u > 0.0) and np.all(tr.u <= 1.0)
        rate = tr.metadata["decay_rate_bound"]
        bound = tr.sup_deviation[0] * np.exp(-rate * tr.times)
        assert np.all(tr.sup_deviation <= bound + 1e-10)
        picard = tr.metadata["picard"]
        assert picard["max_contraction_ratio"] <= 0.5 + 1e-9
        # inlet flow is the active bottleneck value at every snapshot
        for j in range(tr.times.size):
            pj = sampled_profile(1.0, 0.7, tr.rho[j])
            value, _ = free_inlet.bottleneck(g, d, pj)
            assert tr.inlet_flow[j] == pytest.approx(value, rel=1e-12)
    return n_cases


def _fixed_case(rng):
    """Rejection-sample an admissible fixed-law setup on the standard road."""
    d = STANDARD
    for _ in range(64):
        sigma = rng.uniform(0.09, 0.18)
        gamma = sigma * rng.uniform(0.5, 0.85)
        amp = rng.uniform(0.8, 4.0)
        width = rng.uniform(1.05, 1.35)
        p = bump_profile(1.0, 50, 0.7, amplitude=amp, width=width)
        if float(np.max(p.values)) >= d.rho_max:
            continue
        g = fixed_inlet.calibrate(d, 0.7, 1.0, sigma, gamma, mode="override")
        if fixed_inlet.admissible(g, d, p).ok:
            return p, g
    raise AssertionError("sampler failed to find an admissible setup")


def fixed_boundary_and_decay(rng, n_cases=N_CASES):
    d = STANDARD
    for _ in range(n_cases):
        p, g = _fixed_case(rng)
        horizon = rng.uniform(2.0, 8.0)
        sc = Scenario(diagram=d, length=1.0, rho_star=0.7, rho0=p,
                      horizon=horizon, output_interval=horizon / 6.0)
        tr = fixed_inlet.simulate(sc, g)
        assert np.all(tr.u[:, 0] == 1.0)
        assert np.all(tr.rho[:, 0] == 0.7)
        assert np.all(tr.u > 0.0) and np.all(tr.u <= 1.0)
        bound = tr.sup_deviation[0] * np.exp(-g.decay_rate * tr.times)
        assert np.all(tr.sup_deviation <= bound + 1e-10)
        picard = tr.metadata["picard"]
        assert picard["max_contraction_ratio"] <= \
            g.gamma * g.length / g.sigma + 1e-9
        # Gronwall form of the decay argument on the recorded envelope
        y = tr.sup_deviation * np.exp(g.sigma * tr.times)
        lhs = y
        rhs = y[0] + g.gamma * g.length * cumulative_trapezoid(tr.times, y)
        assert np.all(lhs <= rhs + 1e-9 * max(1.0, y[-1]))
    return n_cases


def sup_norm_axioms(rng, n_cases=N_CASES):
    for _ in range(n_cases):
        n = int(rng.integers(4, 60))
        length = rng.uniform(0.5, 2.0)
        rho_star = rng.uniform(0.5, 1.0)
        dev1 = rng.uniform(-0.3, 0.3, size=n + 1)
        dev2 = rng.uniform(-0.3, 0.3, size=n + 1)
        p1 = sampled_profile(length, rho_star, rho_star + dev1)
        p2 = sampled_profile(length, rho_star, rho_star + dev2)
        s1, s2 = p1.sup_deviation(), p2.sup_deviation()
        assert s1 >= 0.0
        c = rng.uniform(-1.5, 1.5)
        if np.all(rho_star + c * dev1 > 0.0):
            scaled = sampled_profile(length, rho_star, rho_star + c * dev1)
            assert scaled.sup_deviation() == \
                pytest.approx(abs(c) * s1, rel=1e-13, abs=1e-15)
        if np.all(rho_star + dev1 + dev2 > 0.0):
            both = sampled_profile(length, rho_star, rho_star + dev1 + dev2).sup_deviation()
            assert both <= s1 + s2 + 1e-15
        assert uniform_profile(length, n, rho_star).sup_deviation() == 0.0
    return n_cases


def oracle_agreement(rng, n_cases=N_CASES):
    d = STANDARD
    for i in range(n_cases):
        amp = rng.uniform(0.5, 3.5)
        p = bump_profile(1.0, 60, 0.7, amplitude=amp)
        if i % 2 == 0:
            gains = FreeInletGain(rng.uniform(0.2, 1.3), 1.0, 0.7)
            semi_fn = free_inlet.simulate
        else:
            gains = fixed_inlet.calibrate(d, 0.7, 1.0, 0.12, 0.1,
                                          mode="override")
            if not fixed_inlet.admissible(gains, d, p).ok:
                continue
            semi_fn = fixed_inlet.simulate
        sc = Scenario(diagram=d, length=1.0, rho_star=0.7, rho0=p,
                      horizon=0.4, output_interval=0.2)
        num = pde_oracle.integrate(sc, gains, OracleSettings(n_cells=60))
        semi = semi_fn(sc, gains)
        assert pde_oracle.compare(semi, num).max_density_gap < 5e-3
        # interior mass change balances the boundary fluxes
        dm = np.trapezoid(num.rho[-1] - num.rho[0], num.x)
        net = np.trapezoid(num.inlet_flow - num.outlet_flow, num.times)
        assert dm == pytest.approx(net, abs=2e-3)
        assert num.metadata["mass_balance_residual"] == abs(dm - net)
    return n_cases


def config_round_trip(rng, n_cases=N_CASES):
    profiles = ("bump", "uniform", "polynomial")
    for _ in range(n_cases):
        kind = profiles[int(rng.integers(0, 3))]
        cfg = with_overrides(
            RunConfig(),
            rho_max=float(rng.uniform(1.2, 2.0)),
            rho_star=float(rng.uniform(0.3, 0.9)),
            n_cells=int(rng.integers(10, 500)),
            horizon=float(rng.uniform(1.0, 60.0)),
            snapshots=int(rng.integers(2, 80)),
            profile_kind=kind,
            bump_amplitude=float(rng.uniform(0.5, 4.0)),
            poly_coeffs=tuple(rng.uniform(-1, 1, size=int(rng.integers(1, 5)))),
            uniform_value=None if rng.random() < 0.5 else float(rng.uniform(0.3, 1.0)),
            law=("free_inlet", "fixed_inlet", "both")[int(rng.integers(0, 3))],
            free_gain=float(rng.uniform(0.05, 1.4)),
            sigma=float(rng.uniform(0.05, 0.3)),
            gamma=float(rng.uniform(0.01, 0.2)),
            mode=("strict", "override")[int(rng.integers(0, 2))],
            picard_window=None if rng.random() < 0.5 else float(rng.uniform(0.1, 2.0)),
            picard_tol=float(10.0 ** rng.uniform(-14, -6)),
            oracle_enabled=bool(rng.random() < 0.5),
            note="x" * int(rng.integers(0, 10)))
        assert parse_config(serialize_config(cfg)) == cfg
    return n_cases


PROPERTY_CHECKS = {
    "quadrature_affine_exactness": quadrature_affine_exactness,
    "limit_inversion_round_trip": limit_inversion_round_trip,
    "limit_response_rises": limit_response_rises,
    "validator_flags_concavity": validator_flags_concavity,
    "free_equilibrium_fixed_point": free_equilibrium_fixed_point,
    "free_decay_and_flux": free_decay_and_flux,
    "fixed_boundary_and_decay": fixed_boundary_and_decay,
    "sup_norm_axioms": sup_norm_axioms,
    "oracle_agreement": oracle_agreement,
    "config_round_trip": config_round_trip,
}


@pytest.mark.parametrize("name", sorted(PROPERTY_CHECKS))
def test_property(name):
    import zlib
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    assert PROPERTY_CHECKS[name](rng) >= N_CASES
