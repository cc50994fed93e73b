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

All floats are printed as FMT = "%.17g", 17 significant digits, which
round-trips float64 exactly; identical configs therefore produce
bit-identical files.  `csvformat.format_block` formats a block of values at
once: for 1e-4 <= |v| < 1e17, where %.17g prints fixed notation, the
digits come from exact vectorised arithmetic, and every other value (0,
-0.0, subnormal, smaller or larger, nan, inf) goes through FMT % v one at a
time.  Either way the bytes are those of FMT % v.  The long-format files
format the x column and the times once per file and the grid in blocks of
whole time rows, about _WRITE_BLOCK values each, written as one buffer;
limits.csv gets control.csv's bytes when the limits equal the controls bit
for bit (vsl_sensitivity = 0).  The other CSV files are column tables
written by `_write_columns` through the same formatter.
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
from .fundamental_diagram import (HEAP_BLOCK, CheckResult, ExponentialDiagram,
                                  speed_limits, validate_assumptions)
from .picard import PicardSettings
from .profile import DensityProfile, Scenario
from .quadrature import cumulative_trapezoid
from .trace import SimulationTrace

FMT = "%.17g"  # the CSV float format; csvformat writes exactly its bytes


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
    _write_report(law_dir, cfg, gains, trace, checks, oracle_gap)
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

# values per written block.  Formatting and line assembly hold about 180
# bytes per value at once: 0.6 MB for a block of fine-grid rows, less than
# speed_limits holds on the same field (1.4 MB), so the writers do not set
# a run's peak memory.
_WRITE_BLOCK = HEAP_BLOCK // 2


def _write_long(path: str, header: str, times: np.ndarray, x: np.ndarray,
                grid: np.ndarray, twin: tuple[str, str] | None = None) -> None:
    """One CSV row t,x,value per grid entry, t-major; `twin`, a (path,
    header) pair, names a second file that gets the same rows under its
    own header."""
    # x and t are formatted once per file; the grid in blocks of whole
    # time rows, about _WRITE_BLOCK values each, written as one buffer
    from . import csvformat  # loaded on the first write, see csvformat
    xs, ts = csvformat.format_block(x), csvformat.format_block(times)
    rows = max(1, _WRITE_BLOCK // max(x.size, 1))
    targets = [(path, header)] + ([twin] if twin else [])
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p, _ in targets]
        for fh, (_, head) in zip(files, targets):
            fh.write(head.encode("utf-8") + b"\n")
        for s in range(0, times.size, rows):
            block = grid[s:s + rows]
            vs = csvformat.format_block(block)
            buf = csvformat.join_lines(ts[s:s + rows, None], xs,
                                       vs.reshape(block.shape + vs.shape[-1:]))
            for fh in files:
                fh.write(buf)


def _write_columns(path: str, header: str, *columns: np.ndarray) -> None:
    """One CSV row per index of the equal-length columns, each cell in FMT."""
    from . import csvformat  # loaded on the first write, see csvformat
    table = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    rows = max(1, _WRITE_BLOCK // table.shape[1])
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for s in range(0, table.shape[0], rows):
            block = table[s:s + rows]
            cells = csvformat.format_block(block).reshape(block.shape + (-1,))
            fh.write(csvformat.join_lines(*(cells[:, j] for j in range(block.shape[1]))))


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


def _write_report(out: str, cfg: RunConfig, gains, trace: SimulationTrace,
                  checks: tuple[CheckResult, ...], oracle_gap: float | None) -> None:
    lines = [f"run report: {gains.law}"]
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
    lines.extend(certification_lines(cfg, gains))
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

def certification_lines(cfg: RunConfig, gains=None) -> list[str]:
    """Human-readable evaluation of every gain condition, both sides shown.

    A `diagram` block comes first: the family's exact single_flow_peak and
    strict_concavity conditions.  They are reported, not enforced here.
    Given a run's gains, the block covers that run's law and its fixed-law
    constants come from those gains; without them it covers the config's
    laws, and the fixed law is calibrated here in override mode.
    """
    if gains is not None:
        laws = (gains.law,)
    else:
        laws = ("free_inlet", "fixed_inlet") if cfg.law == "both" else (cfg.law,)
    d = build_diagram(cfg)
    lines = ["certification:"]
    lines.extend(f"  diagram {c}" for c in validate_assumptions(d).checks)
    for current in laws:
        if current == "free_inlet":
            bound = 1.0 / (cfg.length * cfg.rho_star)
            ok = 0.0 < cfg.free_gain < bound
            lines.append(
                f"  free_inlet gain_bound: 0 < {cfg.free_gain:.9g} < {bound:.9g}"
                f" = 1/(L rho_star): {'pass' if ok else 'FAIL'}")
        else:
            fixed = gains if gains is not None else fixed_inlet.calibrate(
                d, cfg.rho_star, cfg.length, cfg.sigma, cfg.gamma, mode="override")
            for cond in fixed.conditions:
                lines.append(f"  fixed_inlet {cond}")
            lines.append(
                f"  fixed_inlet derived: slope_reserve={fixed.slope_reserve!r} "
                f"min_concavity={fixed.min_concavity!r} "
                f"max_back_slope={fixed.max_back_slope!r} "
                f"decay_rate={fixed.decay_rate!r} certified={fixed.certified}")
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
    """The times, nodes and (times, nodes) values of a long-format file."""
    data = _read_table(path, 3)
    times, x = np.unique(data[:, 0]), np.unique(data[:, 1])
    # rows are written t-major with x ascending; verify rather than assume
    if data.shape[0] != times.size * x.size:
        raise VslControlError(f"{path} does not hold one row per (t, x) pair")
    if not np.all(data[:, 0].reshape(times.size, x.size) == times[:, None]):
        raise VslControlError(f"unexpected row order in {path}")
    if not np.all(data[:, 1].reshape(times.size, x.size) == x):
        raise VslControlError(f"the x column of {path} is not the node grid in every time row")
    return times, x, data[:, 2].reshape(times.size, x.size)


def _expect_same(path: str, name: str, got: np.ndarray, want: np.ndarray) -> None:
    if not np.array_equal(got, want):
        raise VslControlError(f"{path} does not hold the {name} of density.csv")


def load_trace(directory: str) -> SimulationTrace:
    """Rebuild a SimulationTrace from a run directory's CSV files.

    A missing, truncated or malformed file raises VslControlError naming it,
    and so does a file whose times (or, for control.csv, nodes) are not
    those of density.csv.
    """
    times, x, rho = _read_long(os.path.join(directory, "density.csv"))
    cpath = os.path.join(directory, "control.csv")
    ctimes, cx, u = _read_long(cpath)
    _expect_same(cpath, "times", ctimes, times)
    _expect_same(cpath, "node grid", cx, x)
    fpath = os.path.join(directory, "flows.csv")
    flows = _read_table(fpath, 3)
    _expect_same(fpath, "times", flows[:, 0], times)
    mpath = os.path.join(directory, "metadata.json")
    try:
        with open(mpath, "r", encoding="utf-8") as fh:
            metadata = json.load(fh)
        rho_star = float(metadata["rho_star"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise VslControlError(f"cannot read {mpath}: {type(exc).__name__} {exc}") from exc
    bpath = os.path.join(directory, "bottleneck.csv")
    bott = None
    if os.path.exists(bpath):
        table = _read_table(bpath, 2)
        _expect_same(bpath, "times", table[:, 0], times)
        bott = table[:, 1]
    return SimulationTrace(
        times=times, x=x, rho=rho, u=u, rho_star=rho_star,
        inlet_flow=flows[:, 1], outlet_flow=flows[:, 2],
        bottleneck_x=bott, metadata=metadata)


def compare_runs(dir_a: str, dir_b: str) -> pde_oracle.TraceComparison:
    return pde_oracle.compare(load_trace(dir_a), load_trace(dir_b))
