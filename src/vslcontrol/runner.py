"""Scenario engine: run configured controllers, write traces, check invariants.

Output layout (per run directory):

    config.ini                resolved configuration, re-runnable
    <law>/density.csv         long format: t,x,density
    <law>/control.csv         long format: t,x,u
    <law>/limits.csv          long format: t,x,l (physical speed-limit ratio)
    <law>/norms.csv           t,sup_deviation,bound
    <law>/flows.csv           t,inlet,outlet
    <law>/bottleneck.csv      t,x_star               (free-inlet law only)
    <law>/metadata.json       trace metadata + invariant outcomes
    <law>/report.txt          certification, constants, invariant summary
    <law>/oracle/…            oracle trace + gaps.csv  (when enabled)

All floats are printed with 17 significant digits, which round-trips
float64 exactly; identical configs therefore produce bit-identical files.
The long-format files take one %-format and one write per time row, with
the x column formatted once per file into the row template; limits.csv
reuses control.csv's rows when the limits equal the controls bit for bit
(vsl_sensitivity = 0).  The other CSV files are column tables written by
`_write_columns`.
The run exits nonzero if any runtime invariant check fails.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import fixed_inlet, free_inlet, pde_oracle
from .config import (RunConfig, build_diagram, build_free_gain,
                     build_oracle_settings, build_picard, build_scenario,
                     save_config)
from .errors import VslControlError
from .fundamental_diagram import CheckResult, ExponentialDiagram, shape_checks, speed_limits
from .picard import PicardSettings
from .profile import DensityProfile, Scenario
from .quadrature import cumulative_trapezoid
from .trace import SimulationTrace

FMT = "%.17g"


@dataclass(frozen=True)
class LawResult:
    law: str
    trace: SimulationTrace
    checks: tuple[CheckResult, ...]
    directory: str
    oracle_gap: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class RunResult:
    directory: str
    laws: tuple[LawResult, ...]

    @property
    def exit_code(self) -> int:
        return 0 if all(lr.passed for lr in self.laws) else 1

    def law(self, name: str) -> LawResult:
        for lr in self.laws:
            if lr.law == name:
                return lr
        raise KeyError(name)


def run(cfg: RunConfig, out_dir: str | None = None) -> RunResult:
    """Execute the configured law(s), write all artifacts, check invariants.

    The scenario, every law's gains and the solver settings are built
    before anything is written, so a refused config leaves no directory.
    """
    base = out_dir if out_dir is not None else cfg.output_dir
    scenario = build_scenario(cfg)
    laws = ("free_inlet", "fixed_inlet") if cfg.law == "both" else (cfg.law,)
    gains = {law: _build_gains(cfg, scenario, law) for law in laws}
    picard = build_picard(cfg)
    oracle = build_oracle_settings(cfg) if cfg.oracle_enabled else None
    os.makedirs(base, exist_ok=True)
    save_config(cfg, os.path.join(base, "config.ini"))
    return RunResult(directory=base, laws=tuple(
        _run_law(cfg, scenario, law, gains[law], picard, oracle, os.path.join(base, law))
        for law in laws))


def _build_gains(cfg: RunConfig, scenario: Scenario, law: str):
    if law == "free_inlet":
        return build_free_gain(cfg)
    return fixed_inlet.calibrate(scenario.diagram, cfg.rho_star, cfg.length,
                                 cfg.sigma, cfg.gamma, cfg.mode)


def _run_law(cfg: RunConfig, scenario: Scenario, law: str, gains,
             picard: PicardSettings, oracle: pde_oracle.OracleSettings | None,
             law_dir: str) -> LawResult:
    os.makedirs(law_dir, exist_ok=True)
    d = scenario.diagram
    if law == "free_inlet":
        trace = free_inlet.simulate(scenario, gains, picard)
        checks = _free_checks(cfg, scenario, gains, trace)
    else:
        trace = fixed_inlet.simulate(scenario, gains, picard)
        checks = _fixed_checks(cfg, scenario, gains, trace)

    _write_trace(law_dir, d, trace)
    oracle_gap = None
    if oracle is not None:
        otrace = pde_oracle.integrate(scenario, gains, oracle)
        odir = os.path.join(law_dir, "oracle")
        os.makedirs(odir, exist_ok=True)
        _write_trace(odir, d, otrace)
        _write_metadata(odir, otrace, ())
        comp = pde_oracle.compare(trace, otrace)
        _write_columns(os.path.join(odir, "gaps.csv"), "t,density_gap,control_gap",
                       comp.times, comp.density_gaps, comp.control_gaps)
        oracle_gap = comp.max_density_gap

    _write_metadata(law_dir, trace, checks)
    _write_report(law_dir, cfg, law, trace, checks, oracle_gap)
    return LawResult(law=law, trace=trace, checks=checks,
                     directory=law_dir, oracle_gap=oracle_gap)


# ---------------------------------------------------------------------------
# invariant checks

def _free_checks(cfg: RunConfig, scenario: Scenario, gain: free_inlet.FreeInletGain,
                 trace: SimulationTrace) -> tuple[CheckResult, ...]:
    d = scenario.diagram
    checks = [_unit_interval_check(trace)]

    worst = 0.0
    where = None
    for j in range(trace.times.size):
        Dn = cumulative_trapezoid(trace.x, trace.rho[j] - trace.rho_star)
        fv = np.asarray(d.flow(trace.rho[j]), dtype=float)
        weighted = fv * trace.u[j] / (1.0 + gain.gain * Dn)
        value = float(np.min(fv / (1.0 + gain.gain * Dn)))
        gap = float(np.max(np.abs(weighted - value)))
        if gap > worst:
            worst, where = gap, f"t = {trace.times[j]:.6g}"
    tol = 1e-6 * d.capacity
    checks.append(CheckResult(
        "flux_identity", worst <= tol,
        f"max |f(rho) u M - P| = {worst:.3e} (allowed {tol:.3e})", where))

    checks.append(_decay_check(trace, float(trace.metadata["decay_rate_bound"])))

    dev0 = trace.rho[0] - trace.rho_star
    dev = trace.rho - trace.rho_star
    flips = np.any(dev * dev0[None, :] < 0.0)
    checks.append(CheckResult(
        "deviation_sign_fixed", not bool(flips),
        "sign of rho - rho_star never flips at any node"))

    floor = min(float(np.min(trace.rho[0])), trace.rho_star)
    lo = float(np.min(trace.rho))
    hi = float(np.max(trace.rho))
    band_ok = lo >= floor - 1e-12 and hi <= d.rho_max + 1e-12
    checks.append(CheckResult(
        "density_band", band_ok,
        f"rho stays in [{floor:.6g}, rho_max]; saw [{lo:.6g}, {hi:.6g}]"))

    if abs(dev0[0]) == 0.0:
        pin = float(np.max(np.abs(trace.rho[:, 0] - trace.rho_star)))
        checks.append(CheckResult(
            "inlet_density_pinned", pin <= 1e-12,
            f"rho(t,0) stays at rho_star (max gap {pin:.3e})"))

    checks.append(_u_gap_check(trace, cfg.free_u_gap_tol))
    return tuple(checks)


def _fixed_checks(cfg: RunConfig, scenario: Scenario, gains: fixed_inlet.FixedInletGains,
                  trace: SimulationTrace) -> tuple[CheckResult, ...]:
    d = scenario.diagram
    checks = [_unit_interval_check(trace)]

    exact = bool(np.all(trace.u[:, 0] == 1.0))
    checks.append(CheckResult(
        "inlet_control_exact", exact, "u(t,0) equals 1 exactly at every snapshot"))

    pin = float(np.max(np.abs(trace.rho[:, 0] - trace.rho_star)))
    checks.append(CheckResult(
        "inlet_density_pinned", pin <= 1e-12,
        f"rho(t,0) stays at rho_star (max gap {pin:.3e})"))

    checks.append(_decay_check(trace, gains.decay_rate))

    worst = np.inf
    where = None
    ok = True
    for j in range(trace.times.size):
        prof = DensityProfile(gains.length, trace.rho[j], gains.rho_star)
        adm = fixed_inlet.admissible(gains, d, prof)
        if adm.min_slack < worst:
            worst, where = adm.min_slack, f"t = {trace.times[j]:.6g}, x = {adm.argmin_x:.6g}"
        ok = ok and adm.ok
    checks.append(CheckResult(
        "forward_invariance", ok,
        f"profiles stay admissible; worst slack {worst:.3e}", where))

    checks.append(_u_gap_check(trace, cfg.fixed_u_gap_tol))
    return tuple(checks)


def _unit_interval_check(trace: SimulationTrace) -> CheckResult:
    lo = float(np.min(trace.u))
    hi = float(np.max(trace.u))
    return CheckResult("control_in_unit_interval", lo > 0.0 and hi <= 1.0,
                       f"u in ({lo:.6g}, {hi:.6g}]")


def _decay_check(trace: SimulationTrace, rate: float) -> CheckResult:
    bound = np.exp(-rate * trace.times) * trace.sup_deviation[0]
    bad = trace.sup_deviation > bound
    if np.any(bad):
        j = int(np.argmax(bad))
        return CheckResult(
            "decay_bound", False,
            f"sup deviation {trace.sup_deviation[j]:.9g} exceeds bound {bound[j]:.9g}",
            f"t = {trace.times[j]:.6g}")
    margin = float(np.min(bound - trace.sup_deviation))
    return CheckResult("decay_bound", True,
                       f"exp(-{rate:.6g} t) bound holds (min margin {margin:.3e})")


def _u_gap_check(trace: SimulationTrace, tol: float) -> CheckResult:
    gap = float(np.max(np.abs(1.0 - trace.u[-1])))
    return CheckResult("control_gap_at_horizon", gap <= tol,
                       f"max |1 - u| = {gap:.6g} at t = {trace.times[-1]:.6g} "
                       f"(allowed {tol:.6g})")


# ---------------------------------------------------------------------------
# artifact writers

def _write_long(path: str, header: str, times: np.ndarray, x: np.ndarray,
                grid: np.ndarray, twin: tuple[str, str] | None = None) -> None:
    """One CSV row t,x,value per grid entry, t-major; `twin`, a (path,
    header) pair, names a second file that gets the same rows under its
    own header."""
    # The row template holds the formatted x column, a %s for the row's t
    # string at the start of each line and FMT for each value; FMT gives
    # the same bytes for a Python float as for a numpy float64.  Rows are
    # converted one at a time, so no Python-float copy of the grid exists.
    row_fmt = "%s" + "%s".join(f",{FMT % xi},{FMT}\n" for xi in x.tolist())
    args = [None] * (2 * x.size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh, \
            (open(twin[0], "w", encoding="utf-8", newline="\n") if twin
             else contextlib.nullcontext()) as th:
        fh.write(header + "\n")
        if twin:
            th.write(twin[1] + "\n")
        for t, row in zip(times.tolist(), grid):
            args[0::2] = [FMT % t] * x.size
            args[1::2] = row.tolist()
            line = row_fmt % tuple(args)
            fh.write(line)
            if twin:
                th.write(line)


def _write_columns(path: str, header: str, *columns: np.ndarray) -> None:
    """One CSV row per index of the equal-length columns, each cell in FMT."""
    row_fmt = ",".join([FMT] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        fh.writelines(row_fmt % row for row in rows)


def _write_trace(out: str, diagram: ExponentialDiagram, trace: SimulationTrace) -> None:
    _write_long(os.path.join(out, "density.csv"), "t,x,density",
                trace.times, trace.x, trace.rho)
    limits = speed_limits(diagram, trace.rho, trace.u)
    limits_file = (os.path.join(out, "limits.csv"), "t,x,l")
    # with vsl_sensitivity = 0 the limit is the control itself, bit for
    # bit, and limits.csv takes control.csv's formatted rows
    same = np.array_equal(limits.view(np.int64), trace.u.view(np.int64))
    _write_long(os.path.join(out, "control.csv"), "t,x,u",
                trace.times, trace.x, trace.u, limits_file if same else None)
    if not same:
        _write_long(*limits_file, trace.times, trace.x, limits)

    rate = float(trace.metadata.get("decay_rate_bound", 0.0))
    bound = np.exp(-rate * trace.times) * trace.sup_deviation[0]
    _write_columns(os.path.join(out, "norms.csv"), "t,sup_deviation,bound",
                   trace.times, trace.sup_deviation, bound)
    _write_columns(os.path.join(out, "flows.csv"), "t,inlet,outlet",
                   trace.times, trace.inlet_flow, trace.outlet_flow)
    if trace.bottleneck_x is not None:
        _write_columns(os.path.join(out, "bottleneck.csv"), "t,x_star",
                       trace.times, trace.bottleneck_x)


def _json_default(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()  # the matching Python scalar, or nested lists
    raise TypeError(f"not JSON serializable: {type(value)}")


def _write_metadata(out: str, trace: SimulationTrace,
                    checks: tuple[CheckResult, ...]) -> None:
    payload = dict(trace.metadata)
    payload["invariant_checks"] = {c.name: bool(c.passed) for c in checks}
    with open(os.path.join(out, "metadata.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_report(out: str, cfg: RunConfig, law: str, trace: SimulationTrace,
                  checks: tuple[CheckResult, ...], oracle_gap: float | None) -> None:
    lines = [f"run report: {law}"]
    if cfg.note:
        lines.append(f"note: {cfg.note}")
    lines.append(
        f"diagram: exponential flow_scale={cfg.flow_scale:g} "
        f"density_scale={cfg.density_scale:g} shape={cfg.shape:g} "
        f"vsl_sensitivity={cfg.vsl_sensitivity:g} rho_max={cfg.rho_max:g}")
    lines.append(
        f"scenario: length={cfg.length:g} rho_star={cfg.rho_star:g} "
        f"n_cells={trace.x.size - 1} horizon={cfg.horizon:g} snapshots={cfg.snapshots}")
    lines.append("")
    lines.extend(certification_lines(cfg, law))
    lines.append("")
    lines.append("constants:")
    for key in ("decay_rate_bound", "bottleneck_floor", "lipschitz_slope",
                "capacity", "critical_density", "window", "slope_reserve",
                "min_concavity", "max_back_slope", "signed_sup_gap"):
        if key in trace.metadata:
            lines.append(f"  {key} = {trace.metadata[key]!r}")
    picard = trace.metadata.get("picard", {})
    if picard:
        stats = " ".join(f"{k}={picard[k]!r}" for k in sorted(picard))
        lines.append(f"  picard: {stats}")
    lines.append("")
    lines.append("invariants:")
    for c in checks:
        lines.append(f"  {c}")
    if oracle_gap is not None:
        lines.append("")
        lines.append(f"oracle: max density gap = {oracle_gap!r}")
    lines.append("")
    lines.append("exit: ok" if all(c.passed for c in checks)
                 else "exit: INVARIANT VIOLATION")
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# certification

def certification_lines(cfg: RunConfig, law: str | None = None) -> list[str]:
    """Human-readable evaluation of every gain condition, both sides shown.

    A `diagram` block comes first: the family's exact single_flow_peak and
    strict_concavity conditions.  They are reported, not enforced here.
    """
    scenario_laws = ("free_inlet", "fixed_inlet") if cfg.law == "both" else (cfg.law,)
    laws = scenario_laws if law is None else (law,)
    d = build_diagram(cfg)
    lines = ["certification:"]
    lines.extend(f"  diagram {c}" for c in shape_checks(d))
    for current in laws:
        if current == "free_inlet":
            bound = 1.0 / (cfg.length * cfg.rho_star)
            ok = 0.0 < cfg.free_gain < bound
            lines.append(
                f"  free_inlet gain_bound: 0 < {cfg.free_gain:.9g} < {bound:.9g}"
                f" = 1/(L rho_star): {'pass' if ok else 'FAIL'}")
        else:
            gains = fixed_inlet.calibrate(d, cfg.rho_star, cfg.length,
                                          cfg.sigma, cfg.gamma, mode="override")
            for cond in gains.conditions:
                lines.append(f"  fixed_inlet {cond}")
            lines.append(
                f"  fixed_inlet derived: slope_reserve={gains.slope_reserve!r} "
                f"min_concavity={gains.min_concavity!r} "
                f"max_back_slope={gains.max_back_slope!r} "
                f"decay_rate={gains.decay_rate!r} certified={gains.certified}")
    return lines


def certify(cfg: RunConfig) -> str:
    """Certification-only entry point; never raises on failed conditions."""
    return "\n".join(certification_lines(cfg)) + "\n"


# ---------------------------------------------------------------------------
# trace reload + comparison

def _read_table(path: str, columns: int) -> np.ndarray:
    """The rows below a CSV artifact's header as an (n, columns) array."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # such as a file with no data rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise VslControlError(f"cannot read {path}: {exc}") from exc
    if data.shape[1] != columns:
        raise VslControlError(f"{path} does not hold rows of {columns} values")
    return data


def _read_long(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = _read_table(path, 3)
    times, x = np.unique(data[:, 0]), np.unique(data[:, 1])
    # rows are written t-major with x ascending; verify rather than assume
    if (data.shape[0] != times.size * x.size
            or not np.array_equal(data[:, 0].reshape(times.size, x.size)[:, 0], times)):
        raise VslControlError(f"unexpected row order in {path}")
    return times, x, data[:, 2].reshape(times.size, x.size)


def load_trace(directory: str) -> SimulationTrace:
    """Rebuild a SimulationTrace from a run directory's CSV files.

    A missing, truncated or malformed file raises VslControlError naming it.
    """
    times, x, rho = _read_long(os.path.join(directory, "density.csv"))
    _, _, u = _read_long(os.path.join(directory, "control.csv"))
    flows = _read_table(os.path.join(directory, "flows.csv"), 3)
    mpath = os.path.join(directory, "metadata.json")
    try:
        with open(mpath, "r", encoding="utf-8") as fh:
            metadata = json.load(fh)
        rho_star = float(metadata["rho_star"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise VslControlError(f"cannot read {mpath}: {type(exc).__name__} {exc}") from exc
    bpath = os.path.join(directory, "bottleneck.csv")
    bott = _read_table(bpath, 2)[:, 1] if os.path.exists(bpath) else None
    return SimulationTrace(
        times=times, x=x, rho=rho, u=u, rho_star=rho_star,
        inlet_flow=flows[:, 1], outlet_flow=flows[:, 2],
        bottleneck_x=bott, metadata=metadata)


def compare_runs(dir_a: str, dir_b: str) -> pde_oracle.TraceComparison:
    return pde_oracle.compare(load_trace(dir_a), load_trace(dir_b))
