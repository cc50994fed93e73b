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
      property, Picard contraction factors within their bounds; it reads
      each property's one run per session (run_property in
      test_properties.py) rather than running the battery again

Criterion 07's 400-cell oracle runs, and fig7's, also bound the oracle's
time error: halving the default oracle_cfl_cap moves the densities by under
5 % of the 400-cell gap to the closed form, and so it does on the
benchmark's 60-cell oracle-batch scenarios.  The same three runs conserve
mass to rounding: their mass_balance_residual is at most 1e-12.  At the
default settings sec5-free's oracle takes 2240 steps.

The preset runs also pin the determinism contract: their density.csv,
control.csv and norms.csv hash to the SHA-256 digests the benchmark checks
(PRESET_SHA256 in benchmarks/workloads.py), and each report.txt shows a
positive decay margin over t > 0, and the fixed law's a positive
invariance slack over t > 0, x > 0.  With numpy's AVX-512 kernels
disabled, sec5-free's digests move: a strict xfail pins that host
dependence (ROADMAP item 14).
"""

import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__ as _cpu_features

from conftest import load_benchmark_module
from test_properties import N_CASES, PROPERTY_CHECKS, run_property
from vslcontrol import (DensityProfile, ExponentialDiagram, FreeInletGain, OracleSettings,
                        Scenario, bump_profile, fixed_inlet, free_inlet, pde_oracle, runner)
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


def _semi_and_oracle(cfg, n_cells: int, cfl_cap: float = OracleSettings.cfl_cap):
    """The semi-analytic trace and the oracle trace of cfg at n_cells cells."""
    c2 = with_overrides(cfg, n_cells=n_cells, oracle_n_cells=n_cells,
                        oracle_cfl_cap=cfl_cap, oracle_enabled=True)
    sc = build_scenario(c2)
    if c2.law == "free_inlet":
        gains = build_free_gain(c2)
        semi = free_inlet.simulate(sc, gains, build_picard(c2))
    else:
        gains = fixed_inlet.calibrate(sc.diagram, c2.rho_star, c2.length,
                                      c2.sigma, c2.gamma, c2.mode)
        semi = fixed_inlet.simulate(sc, gains, build_picard(c2))
    return semi, pde_oracle.integrate(sc, gains, build_oracle_settings(c2))


@pytest.fixture(scope="module")
def oracle_runs(free_run, fixed_run, fig7_run):
    """Criterion 07's (semi-analytic, oracle) trace pairs by preset and cells,
    and fig7's at 400 cells."""
    out = {}
    for label, (_, cfg, _) in (("free", free_run), ("fixed", fixed_run)):
        out[label] = {n: _semi_and_oracle(cfg, n) for n in (400, 800)}
    out["fig7"] = {400: _semi_and_oracle(fig7_run[1], 400)}
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
        p = DensityProfile(cfg.length, tr.rho[j], cfg.rho_star)
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
        p = DensityProfile(cfg.length, tr.rho[j], cfg.rho_star)
        adm = fixed_inlet.admissible(gains, d, p)
        assert adm.ok, f"inadmissible at t = {tr.times[j]}"
        slacks.append(adm.min_slack)
    _report(6, True, f"admissible at all {tr.times.size} snapshots, "
                     f"min slack {min(slacks):.3e}")


def test_criterion_07_oracle_equivalence(oracle_runs):
    lines = []
    ok = True
    for label in ("free", "fixed"):
        g400, g800 = (pde_oracle.compare(*oracle_runs[label][n]).max_density_gap
                      for n in (400, 800))
        ratio = g400 / g800
        ok = ok and g400 <= 5e-4 and ratio >= 3.5
        lines.append(f"{label}: gap(400) = {g400:.2e}, shrink x{ratio:.2f}")
    _report(7, ok, "; ".join(lines))


def test_oracle_time_error_is_below_its_space_error(free_run, fixed_run, fig7_run,
                                                    oracle_runs):
    # halving the default cfl_cap halves every step, so the oracle's
    # densities move by its time error alone: well under its 400-cell gap
    # to the closed form
    cases = {"free": (free_run[1], oracle_runs["free"][400]),
             "fixed": (fixed_run[1], oracle_runs["fixed"][400]),
             "fig7": (fig7_run[1], oracle_runs["fig7"][400])}
    for label, (cfg, (semi, coarse)) in cases.items():
        _, fine = _semi_and_oracle(cfg, 400, cfl_cap=OracleSettings.cfl_cap / 2.0)
        gap = pde_oracle.compare(semi, coarse).max_density_gap
        moved = float(np.max(np.abs(fine.rho - coarse.rho)))
        assert moved < 0.05 * gap, f"{label}: moved {moved:.3g}, gap {gap:.3g}"


def test_oracle_time_error_on_short_bumps():
    # the benchmark's oracle-batch scenarios: 60 cells, horizon 0.4, bump
    # amplitudes across (0.5, 3.5), free gains across (0.2, 1.3) and the
    # fixed law at the preset's gains; halving the default cap moves the
    # densities by under 5 % of each 60-cell gap to the closed form
    cfg = preset("paper-sec5-fixed")
    d = ExponentialDiagram(rho_max=cfg.rho_max)
    fixed = fixed_inlet.calibrate(d, cfg.rho_star, cfg.length, cfg.sigma, cfg.gamma, cfg.mode)
    laws = [FreeInletGain(k, cfg.length, cfg.rho_star) for k in np.linspace(0.2, 1.3, 4)]
    for gains in laws + [fixed]:
        law = free_inlet if isinstance(gains, FreeInletGain) else fixed_inlet
        for amplitude in (0.5, 2.0, 3.5):
            p = bump_profile(cfg.length, 60, cfg.rho_star, amplitude=amplitude)
            sc = Scenario(diagram=d, length=cfg.length, rho_star=cfg.rho_star, rho0=p,
                          horizon=0.4, output_interval=0.2)
            coarse = pde_oracle.integrate(sc, gains, OracleSettings(n_cells=60))
            fine = pde_oracle.integrate(sc, gains, OracleSettings(
                n_cells=60, cfl_cap=OracleSettings.cfl_cap / 2.0))
            gap = pde_oracle.compare(law.simulate(sc, gains), coarse).max_density_gap
            moved = float(np.max(np.abs(fine.rho - coarse.rho)))
            assert moved < 0.05 * gap, f"{gains}, amplitude {amplitude}: moved {moved:.3g}"


def test_default_oracle_step_count(free_run, oracle_runs):
    # a timing-free guard on the oracle's cost: sec5-free with the oracle
    # on at its default settings, criterion 07's 400-cell run, takes 2240
    # steps (4480 at cfl_cap 0.4)
    cfg = with_overrides(free_run[1], oracle_enabled=True)
    assert cfg.n_cells == 400 and build_oracle_settings(cfg) == OracleSettings()
    assert oracle_runs["free"][400][1].metadata["steps"] == 2240


def test_oracle_conserves_mass_to_rounding(oracle_runs):
    # the stages' boundary balances account for every step's change of
    # the trapezoid mass, so only rounding is left over
    for label in ("free", "fixed", "fig7"):
        _, tr = oracle_runs[label][400]
        residual = tr.metadata["mass_balance_residual"]
        assert residual <= 1e-12, f"{label}: residual {residual:.3g}"


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
    failed = [c for c in gains.conditions if not c.passed]
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
    counts = {name: run_property(name) for name in PROPERTY_CHECKS}
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


def test_preset_reports_show_positive_margins(free_run, fixed_run, fig7_run):
    # the margins skip the ties by construction at t = 0 and at the pinned
    # inlet, so each is how close the run came to failing its check
    number = r"([-+0-9.e]+|inf|nan)"
    for res, cfg, *_ in (free_run, fixed_run, fig7_run):
        law = res.law(cfg.law)
        text = Path(law.directory, "report.txt").read_text()
        decay = re.search(rf"decay_bound: pass \(.* over t > 0 min margin {number}, "
                          rf"sup/bound at most {number} at t = {number}\)", text)
        assert decay, text
        margin, ratio, t = map(float, decay.groups())
        assert margin > 0.0 and 0.0 < ratio < 1.0 and t > 0.0, decay.group(0)
        if cfg.law == "fixed_inlet":
            inv = re.search(rf"forward_invariance: pass \(.* over t > 0, x > 0: {number} "
                            rf"at t = {number}, x = {number}\)", text)
            assert inv, text
            assert all(v > 0.0 for v in map(float, inv.groups())), inv.group(0)


@pytest.mark.skipif(not _cpu_features["X86_V4"],
                    reason="numpy dispatches to no AVX-512 kernel here, so none can be disabled")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the pinned bytes hold with numpy's AVX-512 kernels only: without them 278 of "
    "16,441 sec5-free densities move by 1 ulp; ROADMAP item 14 (a determinism "
    "contract that says where it holds)"))
def test_preset_digests_hold_without_avx512(tmp_path):
    out = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(runner.__file__))
    env = dict(os.environ, PYTHONPATH=src,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    subprocess.run([sys.executable, "-m", "vslcontrol.cli", "run", "--preset", "paper-sec5-free",
                    "--out", str(out)], env=env, check=True, capture_output=True)
    pinned = load_benchmark_module("workloads").PRESET_SHA256
    for (name, filename), want in pinned.items():
        if name == "paper-sec5-free":
            with open(out / "free_inlet" / filename, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == want, filename
