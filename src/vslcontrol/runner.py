"""Scenario engine: run configured controllers, write traces, check invariants.

Output layout (per run directory):

    config.ini                resolved configuration, re-runnable
    <law>/density.csv         long format: t,x,density
    <law>/control.csv         long format: t,x,u
    <law>/limits.csv          long format: t,x,l where l != u (vsl_sensitivity > 0)
    <law>/norms.csv           t,sup_deviation,bound
    <law>/flows.csv           t,inlet,outlet
    <law>/bottleneck.csv      t,x_star               (free-inlet law only)
    <law>/metadata.json       trace metadata + invariant outcomes; written last
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
whole time rows, about HEAP_BLOCK values each, written as one buffer.
The other CSV files are column tables written by `_write_columns` through
the same formatter.  The run writes nothing until every law is solved and
checked, then replaces the law directories an earlier run left, and it
exits nonzero if any runtime invariant check fails.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import warnings
from dataclasses import dataclass

import numpy as np

from . import fixed_inlet, free_inlet, pde_oracle
from .config import (LAWS, RunConfig, build_diagram, build_free_gain,
                     build_oracle_settings, build_picard, build_scenario,
                     save_config)
from .errors import VslControlError
from .fundamental_diagram import (HEAP_BLOCK, CheckResult, ExponentialDiagram,
                                  speed_limits, validate_assumptions)
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
    """Solve and check the configured law(s), then write all artifacts.

    The scenario, gains and settings, then each law's simulate, checks and
    oracle integrate and compare all return before the first write, so a
    run that raises leaves no directory; failed checks still write it all.
    A file or symlink in place of a law directory fails the run with
    FileExistsError before config.ini is written or any directory removed.
    """
    base = out_dir if out_dir is not None else cfg.output_dir
    scenario = build_scenario(cfg)
    gains = {law: _build_gains(cfg, scenario, law) for law in cfg.laws}
    picard = build_picard(cfg)
    oracle = build_oracle_settings(cfg) if cfg.oracle_enabled else None
    solved = []
    for law in cfg.laws:
        free = law == "free_inlet"
        trace = (free_inlet if free else fixed_inlet).simulate(scenario, gains[law], picard)
        checks = (_free_checks if free else _fixed_checks)(cfg, scenario, gains[law], trace)
        otrace = comp = None
        if oracle is not None:
            otrace = pde_oracle.integrate(scenario, gains[law], oracle)
            comp = pde_oracle.compare(trace, otrace)
        solved.append((law, trace, checks, otrace, comp))

    # a file or symlink where a law directory goes would make os.mkdir
    # fail: refuse it before anything in --out changes
    for path in (os.path.join(base, law) for law in cfg.laws):
        if os.path.islink(path) or (os.path.lexists(path) and not os.path.isdir(path)):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
    os.makedirs(base, exist_ok=True)
    for stale in (os.path.join(base, law) for law in LAWS):
        if os.path.isdir(stale) and not os.path.islink(stale):
            shutil.rmtree(stale)
    save_config(cfg, os.path.join(base, "config.ini"))
    results = []
    for law, trace, checks, otrace, comp in solved:
        law_dir = os.path.join(base, law)
        os.mkdir(law_dir)
        rate = float(trace.metadata["decay_rate_bound"])
        _write_trace(law_dir, scenario.diagram, trace, rate)
        if otrace is not None:
            odir = os.path.join(law_dir, "oracle")
            os.mkdir(odir)
            _write_trace(odir, scenario.diagram, otrace, rate)
            _write_columns(os.path.join(odir, "gaps.csv"), "t,density_gap,control_gap",
                           comp.times, comp.density_gaps, comp.control_gaps)
            _write_metadata(odir, otrace, ())
        gap = None if comp is None else comp.max_density_gap
        _write_report(law_dir, cfg, gains[law], trace, checks, gap)
        _write_metadata(law_dir, trace, checks)
        results.append(LawResult(law=law, trace=trace, checks=checks,
                                 directory=law_dir, oracle_gap=gap))
    return RunResult(directory=base, laws=tuple(results))


def _build_gains(cfg: RunConfig, scenario: Scenario, law: str):
    if law == "free_inlet":
        return build_free_gain(cfg)
    return fixed_inlet.calibrate(scenario.diagram, cfg.rho_star, cfg.length,
                                 cfg.sigma, cfg.gamma, cfg.mode)


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
        checks.append(_inlet_pin_check(trace))

    checks.append(_u_gap_check(trace, cfg.free_u_gap_tol))
    return tuple(checks)


def _fixed_checks(cfg: RunConfig, scenario: Scenario, gains: fixed_inlet.FixedInletGains,
                  trace: SimulationTrace) -> tuple[CheckResult, ...]:
    d = scenario.diagram
    checks = [_unit_interval_check(trace)]

    exact = bool(np.all(trace.u[:, 0] == 1.0))
    checks.append(CheckResult(
        "inlet_control_exact", exact, "u(t,0) equals 1 exactly at every snapshot"))

    checks.append(_inlet_pin_check(trace))
    checks.append(_decay_check(trace, gains.decay_rate))

    # the margin skips what ties by construction: the initial profile, which
    # simulate admitted, and the pinned inlet, whose slack is 0 exactly
    worst = np.inf
    where = None
    ok = True
    for j in range(trace.times.size):
        prof = DensityProfile(gains.length, trace.rho[j], gains.rho_star)
        adm = fixed_inlet.admissible(gains, d, prof)
        if trace.times[j] > 0.0 and adm.interior_slack < worst:
            worst = adm.interior_slack
            where = f"t = {trace.times[j]:.6g}, x = {adm.interior_x:.6g}"
        ok = ok and adm.ok
    checks.append(CheckResult(
        "forward_invariance", ok,
        f"profiles stay admissible; worst slack over t > 0, x > 0: {worst:.3e}", where))

    checks.append(_u_gap_check(trace, cfg.fixed_u_gap_tol))
    return tuple(checks)


def _unit_interval_check(trace: SimulationTrace) -> CheckResult:
    lo = float(np.min(trace.u))
    hi = float(np.max(trace.u))
    return CheckResult("control_in_unit_interval", lo > 0.0 and hi <= 1.0,
                       f"u in ({lo:.6g}, {hi:.6g}]")


def _inlet_pin_check(trace: SimulationTrace) -> CheckResult:
    pin = float(np.max(np.abs(trace.rho[:, 0] - trace.rho_star)))
    return CheckResult("inlet_density_pinned", pin <= 1e-12,
                       f"rho(t,0) stays at rho_star (max gap {pin:.3e})")


def _decay_check(trace: SimulationTrace, rate: float) -> CheckResult:
    bound = np.exp(-rate * trace.times) * trace.sup_deviation[0]
    bad = trace.sup_deviation > bound
    if np.any(bad):
        j = int(np.argmax(bad))
        return CheckResult(
            "decay_bound", False,
            f"sup deviation {trace.sup_deviation[j]:.9g} exceeds bound {bound[j]:.9g}",
            f"t = {trace.times[j]:.6g}")
    # at t = 0 the bound is the deviation itself, a tie by construction
    later = trace.times > 0.0
    if not np.any(later):
        return CheckResult("decay_bound", True,
                           f"exp(-{rate:.6g} t) bound holds (no snapshot after t = 0)")
    sup, top = trace.sup_deviation[later], bound[later]
    margin = float(np.min(top - sup))
    # where the bound underflows to 0 the check above forces sup = 0
    ratio = np.divide(sup, top, out=np.zeros_like(sup), where=top > 0.0)
    j = int(np.argmax(ratio))
    return CheckResult("decay_bound", True,
                       f"exp(-{rate:.6g} t) bound holds; over t > 0 min margin {margin:.3e}, "
                       f"sup/bound at most {ratio[j]:.3g}", f"t = {trace.times[later][j]:.6g}")


def _u_gap_check(trace: SimulationTrace, tol: float) -> CheckResult:
    gap = float(np.max(np.abs(1.0 - trace.u[-1])))
    return CheckResult("control_gap_at_horizon", gap <= tol,
                       f"max |1 - u| = {gap:.6g} at t = {trace.times[-1]:.6g} "
                       f"(allowed {tol:.6g})")


# ---------------------------------------------------------------------------
# artifact writers

# The writers take HEAP_BLOCK values per block.  Formatting and line
# assembly hold about 130 bytes per value at once (tracemalloc peak): 1.0 MB
# for a block of five fine-grid rows, less than speed_limits holds on the
# same field (1.7-1.8 MB), so the writers do not set a run's peak memory.


def _write_long(path: str, header: str, times: np.ndarray, x: np.ndarray,
                grid: np.ndarray) -> None:
    """One CSV row t,x,value per grid entry, t-major."""
    # x and t are formatted once per file; the grid in blocks of whole
    # time rows, about HEAP_BLOCK values each, written as one buffer
    from . import csvformat  # loaded on the first write, see csvformat
    xs, ts = csvformat.format_block(x), csvformat.format_block(times)
    rows = max(1, HEAP_BLOCK // max(x.size, 1))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for s in range(0, times.size, rows):
            block = grid[s:s + rows]
            vs = csvformat.format_block(block)
            fh.write(csvformat.join_lines(ts[s:s + rows, None], xs,
                                          vs.reshape(block.shape + vs.shape[-1:])))


def _write_columns(path: str, header: str, *columns: np.ndarray) -> None:
    """One CSV row per index of the equal-length columns, each cell in FMT."""
    from . import csvformat  # loaded on the first write, see csvformat
    table = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    rows = max(1, HEAP_BLOCK // table.shape[1])
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for s in range(0, table.shape[0], rows):
            block = table[s:s + rows]
            cells = csvformat.format_block(block).reshape(block.shape + (-1,))
            fh.write(csvformat.join_lines(*(cells[:, j] for j in range(block.shape[1]))))


def _write_trace(out: str, diagram: ExponentialDiagram, trace: SimulationTrace,
                 rate: float) -> None:
    """The trace's CSV files; norms.csv bounds S(t) by exp(-rate t) S(0).  At
    vsl_sensitivity = 0 the limits are the controls bit for bit, and
    limits.csv is written only where they differ."""
    _write_long(os.path.join(out, "density.csv"), "t,x,density",
                trace.times, trace.x, trace.rho)
    _write_long(os.path.join(out, "control.csv"), "t,x,u", trace.times, trace.x, trace.u)
    limits = speed_limits(diagram, trace.rho, trace.u)
    if not np.array_equal(limits.view(np.int64), trace.u.view(np.int64)):
        _write_long(os.path.join(out, "limits.csv"), "t,x,l", trace.times, trace.x, limits)

    bound = np.exp(-rate * trace.times) * trace.sup_deviation[0]
    _write_columns(os.path.join(out, "norms.csv"), "t,sup_deviation,bound",
                   trace.times, trace.sup_deviation, bound)
    _write_columns(os.path.join(out, "flows.csv"), "t,inlet,outlet",
                   trace.times, trace.inlet_flow, trace.outlet_flow)
    if trace.bottleneck_x is not None:
        _write_columns(os.path.join(out, "bottleneck.csv"), "t,x_star",
                       trace.times, trace.bottleneck_x)


def _write_metadata(out: str, trace: SimulationTrace,
                    checks: tuple[CheckResult, ...]) -> None:
    payload = dict(trace.metadata)
    payload["invariant_checks"] = {
        c.name: {"passed": bool(c.passed), "detail": c.detail, "where": c.where} for c in checks}
    with open(os.path.join(out, "metadata.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
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
                "capacity", "critical_density", "window"):
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
    laws = cfg.laws if gains is None else (gains.law,)
    d = build_diagram(cfg)
    lines = ["certification:"]
    lines.extend(f"  diagram {c}" for c in validate_assumptions(d))
    for current in laws:
        if current == "free_inlet":
            bound = free_inlet.FreeInletGain.gain_bound(cfg.length, cfg.rho_star)
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
    if not np.all(np.isfinite(data)):  # no run writes one: every law refuses NaN
        raise VslControlError(f"{path} holds a value that is not finite")
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

    A missing, truncated or malformed file, or one with a non-finite value,
    raises VslControlError naming it, and so does a file whose times (or,
    for control.csv, nodes) are not those of density.csv.
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
