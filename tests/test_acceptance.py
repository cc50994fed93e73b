"""End-to-end acceptance battery.

Each test checks one numbered shipping criterion against the bundled
presets and prints a single [criterion-NN] PASS/FAIL line (visible under
pytest -s; under plain pytest the test verdicts carry the same
information).  Criteria:

  01  free-inlet decay bound exp(-0.0763 t) * 0.5184, zero tolerance,
      run completes in under 10 s
  02  fixed-inlet decay bound exp(-0.02 t) * 0.5184, same form
  03  fitted free-inlet decay rate strictly exceeds the fixed-inlet one
  04  control bounds 0 < u <= 1 everywhere; fixed law pins u(t,0) = 1
      bitwise and rho(t,0) to the set point within 1e-12
  05  free-inlet flux identity |f u M - P| <= 1e-6 q_max over the trace
  06  fixed-inlet trace stays admissible at every snapshot
  07  finite-volume oracle within 5e-4 of the closed forms at 400 cells,
      gap shrinking at least 3.5x when both grids double
  08  terminal control gap within the preset thresholds (0.05 at t = 30
      free, 0.045 at t = 60 fixed)
  09  critical-density set point converges below 1% of the initial
      deviation
  10  certification text reports the curvature margin failure (~5e-5)
      with the other margins passing; not an error path
  11  the randomized property battery passes with >= 200 cases per
      property, Picard contraction factors within their bounds

The preset runs also pin the determinism contract: their density.csv,
control.csv and norms.csv hash to the SHA-256 digests the benchmark checks
(PRESET_SHA256 in benchmarks/workloads.py).
"""

import hashlib
import os
import time
import zlib

import numpy as np
import pytest

from conftest import load_benchmark_module
from test_properties import N_CASES, PROPERTY_CHECKS
from vslcontrol import fixed_inlet, free_inlet, pde_oracle, runner, sampled_profile
from vslcontrol.config import (build_free_gain, build_oracle_settings,
                               build_picard, build_scenario, preset,
                               with_overrides)

SUP0 = 0.5184


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _fit_rate(times: np.ndarray, sup: np.ndarray) -> float:
    return -float(np.polyfit(times, np.log(sup), 1)[0])


@pytest.fixture(scope="module")
def free_run(tmp_path_factory):
    cfg = preset("paper-sec5-free")
    t0 = time.perf_counter()
    res = runner.run(cfg, str(tmp_path_factory.mktemp("accept-free")))
    return res, cfg, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fixed_run(tmp_path_factory):
    cfg = preset("paper-sec5-fixed")
    t0 = time.perf_counter()
    res = runner.run(cfg, str(tmp_path_factory.mktemp("accept-fixed")))
    return res, cfg, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig7_run(tmp_path_factory):
    cfg = preset("paper-fig7")
    res = runner.run(cfg, str(tmp_path_factory.mktemp("accept-fig7")))
    return res, cfg


def _semi_and_oracle_gap(cfg, n_cells: int) -> float:
    c2 = with_overrides(cfg, n_cells=n_cells, oracle_n_cells=n_cells,
                        oracle_cfl_cap=0.8, oracle_enabled=True)
    sc = build_scenario(c2)
    if c2.law == "free_inlet":
        gains = build_free_gain(c2)
        semi = free_inlet.simulate(sc, gains, build_picard(c2))
    else:
        gains = fixed_inlet.calibrate(sc.diagram, c2.rho_star, c2.length,
                                      c2.sigma, c2.gamma, c2.mode)
        semi = fixed_inlet.simulate(sc, gains, build_picard(c2))
    otr = pde_oracle.integrate(sc, gains, build_oracle_settings(c2))
    return pde_oracle.compare(semi, otr).max_density_gap


@pytest.fixture(scope="module")
def oracle_gaps(free_run, fixed_run):
    out = {}
    for label, (_, cfg, _) in (("free", free_run), ("fixed", fixed_run)):
        out[label] = {n: _semi_and_oracle_gap(cfg, n) for n in (400, 800)}
    return out


def test_criterion_01_free_decay_bound(free_run):
    res, _, elapsed = free_run
    tr = res.law("free_inlet").trace
    bound = SUP0 * np.exp(-0.0763 * tr.times)
    margin = float(np.min(bound - tr.sup_deviation))
    ok = bool(np.all(tr.sup_deviation <= bound)) and elapsed < 10.0
    _report(1, ok, f"min envelope margin {margin:.3e}, runtime {elapsed:.2f} s")


def test_criterion_02_fixed_decay_bound(fixed_run):
    res, _, elapsed = fixed_run
    tr = res.law("fixed_inlet").trace
    bound = SUP0 * np.exp(-0.02 * tr.times)
    margin = float(np.min(bound - tr.sup_deviation))
    ok = bool(np.all(tr.sup_deviation <= bound)) and elapsed < 10.0
    _report(2, ok, f"min envelope margin {margin:.3e}, runtime {elapsed:.2f} s")


def test_criterion_03_rate_ordering(free_run, fixed_run):
    free_tr = free_run[0].law("free_inlet").trace
    fixed_tr = fixed_run[0].law("fixed_inlet").trace
    rf = _fit_rate(free_tr.times, free_tr.sup_deviation)
    rx = _fit_rate(fixed_tr.times, fixed_tr.sup_deviation)
    _report(3, rf > rx, f"fitted rates: free {rf:.4f} > fixed {rx:.4f}")


def test_criterion_04_control_bounds(free_run, fixed_run):
    free_tr = free_run[0].law("free_inlet").trace
    fixed_tr = fixed_run[0].law("fixed_inlet").trace
    in_unit = all(bool(np.all(tr.u > 0.0) and np.all(tr.u <= 1.0))
                  for tr in (free_tr, fixed_tr))
    inlet_u = bool(np.all(fixed_tr.u[:, 0] == 1.0))
    inlet_rho = float(np.max(np.abs(fixed_tr.rho[:, 0] - 0.7)))
    ok = in_unit and inlet_u and inlet_rho <= 1e-12
    _report(4, ok, f"0 < u <= 1 both laws; fixed inlet u = 1 bitwise, "
                   f"|rho(t,0) - 0.7| max {inlet_rho:.1e}")


def test_criterion_05_flux_identity(free_run):
    res, cfg, _ = free_run
    tr = res.law("free_inlet").trace
    d = build_scenario(cfg).diagram
    worst = 0.0
    for j in range(tr.times.size):
        p = sampled_profile(cfg.length, cfg.rho_star, tr.rho[j])
        m = 1.0 / (1.0 + cfg.free_gain * p.node_deviation_integrals())
        flux = np.asarray(d.flow(tr.rho[j]), dtype=float) * tr.u[j] * m
        worst = max(worst, float(np.max(np.abs(flux - tr.inlet_flow[j]))))
    tol = 1e-6 * d.capacity
    _report(5, worst <= tol, f"max |f u M - P| = {worst:.3e} <= {tol:.3e}")


def test_criterion_06_forward_invariance(fixed_run):
    res, cfg, _ = fixed_run
    tr = res.law("fixed_inlet").trace
    d = build_scenario(cfg).diagram
    gains = fixed_inlet.calibrate(d, cfg.rho_star, cfg.length, cfg.sigma,
                                  cfg.gamma, cfg.mode)
    slacks = []
    for j in range(tr.times.size):
        p = sampled_profile(cfg.length, cfg.rho_star, tr.rho[j])
        adm = fixed_inlet.admissible(gains, d, p)
        assert adm.ok, f"inadmissible at t = {tr.times[j]}"
        slacks.append(adm.min_slack)
    _report(6, True, f"admissible at all {tr.times.size} snapshots, "
                     f"min slack {min(slacks):.3e}")


def test_criterion_07_oracle_equivalence(oracle_gaps):
    lines = []
    ok = True
    for label in ("free", "fixed"):
        g400, g800 = oracle_gaps[label][400], oracle_gaps[label][800]
        ratio = g400 / g800
        ok = ok and g400 <= 5e-4 and ratio >= 3.5
        lines.append(f"{label}: gap(400) = {g400:.2e}, shrink x{ratio:.2f}")
    _report(7, ok, "; ".join(lines))


def test_criterion_08_terminal_control_gap(free_run, fixed_run):
    free_tr = free_run[0].law("free_inlet").trace
    fixed_tr = fixed_run[0].law("fixed_inlet").trace
    gf = float(np.max(np.abs(1.0 - free_tr.u[-1])))
    gx = float(np.max(np.abs(1.0 - fixed_tr.u[-1])))
    ok = (free_tr.times[-1] == 30.0 and gf <= free_run[1].free_u_gap_tol
          and fixed_tr.times[-1] == 60.0 and gx <= fixed_run[1].fixed_u_gap_tol)
    _report(8, ok, f"free |1-u| = {gf:.4f} <= 0.05 at t = 30; "
                   f"fixed {gx:.4f} <= 0.045 at t = 60")


def test_criterion_09_critical_set_point(fig7_run):
    res, _ = fig7_run
    tr = res.law("free_inlet").trace
    frac = tr.sup_deviation[-1] / tr.sup_deviation[0]
    _report(9, frac < 0.01,
            f"residual deviation {100 * frac:.3f}% of initial at t = "
            f"{tr.times[-1]:g}")


def test_criterion_10_certification_text(fixed_run):
    _, cfg, _ = fixed_run
    text = runner.certify(cfg)
    d = build_scenario(cfg).diagram
    gains = fixed_inlet.calibrate(d, cfg.rho_star, cfg.length, cfg.sigma,
                                  cfg.gamma, "override")
    failed = gains.failed_conditions()
    byname = {c.name: c for c in gains.conditions}
    ok = ("curvature_margin" in text and "FAIL" in text
          and [c.name for c in failed] == ["curvature_margin"]
          and 4e-5 < failed[0].lhs < 6e-5
          and all(byname[n].passed
                  for n in ("flow_margin", "slope_margin", "rate_margin")))
    _report(10, ok, f"curvature margin lhs = {failed[0].lhs:.3e} reported "
                    f"against {failed[0].rhs:g}; remaining margins pass")


def test_criterion_11_property_battery(fixed_run):
    picard = fixed_run[0].law("fixed_inlet").trace.metadata["picard"]
    assert picard["factor_bound"] == pytest.approx(0.8333333333333334, rel=1e-12)
    assert picard["max_contraction_ratio"] <= picard["factor_bound"]
    counts = {}
    for name, fn in sorted(PROPERTY_CHECKS.items()):
        counts[name] = fn(np.random.default_rng(zlib.crc32(name.encode()) + 1))
    ok = all(n >= N_CASES for n in counts.values())
    _report(11, ok, f"{len(counts)} properties x >= {min(counts.values())} "
                    f"cases; fixed-law contraction ratio "
                    f"{picard['max_contraction_ratio']:.4f} <= 0.8333")


def test_preset_artifacts_match_pinned_digests(free_run, fixed_run, fig7_run):
    runs = {"paper-sec5-free": free_run[0], "paper-sec5-fixed": fixed_run[0],
            "paper-fig7": fig7_run[0]}
    pinned = load_benchmark_module("workloads").PRESET_SHA256
    assert {name for name, _ in pinned} == set(runs)
    for (name, filename), want in pinned.items():
        law_dir = runs[name].law(preset(name).law).directory
        with open(os.path.join(law_dir, filename), "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        assert got == want, f"{name}/{filename}"
