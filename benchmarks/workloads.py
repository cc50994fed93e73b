"""The four benchmark workloads: seeded inputs, one timed case, output checks.

Each workload builds its inputs in `__init__` (the set-up a user pays before
the first case), exposes a SHA-256 `digest` of those inputs, runs one unit
of work in `case`, and checks that unit's outputs in `check`, which returns
the failures it found instead of raising.  Cases call the package only
through its public entry points, and through module attributes, so the
span recorder in `tracing` sees every layer call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil

import numpy as np

from vslcontrol import (ExponentialDiagram, FreeInletGain, OracleSettings,
                        Scenario, bump_profile, cli, config, fixed_inlet,
                        free_inlet, pde_oracle, runner)

PRESETS = ("paper-sec5-free", "paper-sec5-fixed", "paper-fig7")

# density.csv, control.csv and norms.csv of each preset, as written at the
# commit that introduced this benchmark (the byte-identity contract).
PRESET_SHA256 = {
    ("paper-sec5-free", "density.csv"): "a1985012066750c4e7de0913ee99cf85e6385bae0434333014980bb3eae6621d",
    ("paper-sec5-free", "control.csv"): "9970ff384465d1dbd99f2d7d3b8286d74251a05f1f54d42e1f981a2afe5a9a63",
    ("paper-sec5-free", "norms.csv"): "21ed82abc47c38a4ac292d075778a260b2e313351d314807f73bfbe596ee680c",
    ("paper-sec5-fixed", "density.csv"): "e691708e0b2fc18edbd391537e31c0af24a7e7e651c796d5b582b05edf54b481",
    ("paper-sec5-fixed", "control.csv"): "a99c761a84b98f7b6fcbc2e6db687fe703208699f7bb39af0348c1c46fa0a64b",
    ("paper-sec5-fixed", "norms.csv"): "a8a53c38b4e8a1170764b0f067b49317431e7e5d9cc4347ddde050bd99613ba7",
    ("paper-fig7", "density.csv"): "af18bf00320a465074d587546fe314e98cd8021303703de40311f9deaed5bffd",
    ("paper-fig7", "control.csv"): "8671184692f8afd7552bee6a2db8c13b49da96668d02aa8606edbb8d4de55a46",
    ("paper-fig7", "norms.csv"): "a493e6dece80f593233f79774532d80c55ea8b3618f330d3231018522d1056fc",
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _warm_constants(diagram) -> None:
    """Evaluate the diagram's lazily cached constants, as set-up work."""
    for name in ("capacity", "critical_density", "delta", "max_abs_slope"):
        getattr(diagram, name)


def _law_module(gains):
    return free_inlet if isinstance(gains, FreeInletGain) else fixed_inlet


class PaperPresets:
    """`vslcontrol run` on the three presets, then `compare` with the last round.

    The inputs are the bundled presets, so the seed is recorded but unused.
    Every case builds its own configs and scenarios, as the CLI does, so
    set-up only looks the presets up.  The first round compares its free
    run with itself.
    """


    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.digest = _digest(config.serialize_config(config.preset(p)) for p in PRESETS)
        self.workdir = workdir
        self.prev: str | None = None

    def case(self, i: int) -> dict:
        rnd = os.path.join(self.workdir, f"round-{i}")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["run", "--preset", p, "--out", os.path.join(rnd, p)])
                     for p in PRESETS]
        here = os.path.join(rnd, PRESETS[0], "free_inlet")
        there = os.path.join(self.prev or rnd, PRESETS[0], "free_inlet")
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            codes.append(cli.main(["compare", here, there]))
        return {"dir": rnd, "codes": codes, "compare": text.getvalue()}

    def check(self, res: dict) -> list[str]:
        bad = [f"exit code {c} from command {k}" for k, c in enumerate(res["codes"]) if c != 0]
        if res["compare"] != "max density gap: 0.0\nmax control gap: 0.0\n":
            bad.append(f"compare gaps not exactly 0.0: {res['compare']!r}")
        for (p, name), want in PRESET_SHA256.items():
            law = config.preset(p).law
            path = os.path.join(res["dir"], p, law, name)
            try:
                with open(path, "rb") as fh:
                    got = hashlib.sha256(fh.read()).hexdigest()
            except OSError as exc:
                got = repr(exc)
            if got != want:
                bad.append(f"{p}/{law}/{name}: sha256 {got} != {want}")
        if self.prev is not None:
            shutil.rmtree(self.prev, ignore_errors=True)
        self.prev = res["dir"]
        return bad

    def out_dir(self, res: dict) -> str:
        return res["dir"]


class OracleGrid:
    """Criterion 07's quadruple: both presets' laws at 400 and 800 cells.

    Each preset's horizon is cut to half its first output interval (1/80 of
    the preset's horizon; 1/800 in tiny mode), so a case takes about a
    second and a run's median rests on many cases.  Inputs are the
    presets; the seed is recorded but unused.
    """

    CELLS = (400, 800)

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        divisor = 800 if tiny else 80
        self.runs = []
        cfgs = []
        for p in PRESETS[:2]:
            base = config.preset(p)
            base = config.with_overrides(base, horizon=base.horizon / divisor, snapshots=2,
                                         oracle_enabled=True, oracle_cfl_cap=0.8)
            for n in self.CELLS:
                cfg = config.with_overrides(base, n_cells=n, oracle_n_cells=n)
                scenario = config.build_scenario(cfg)
                _warm_constants(scenario.diagram)
                gains = (config.build_free_gain(cfg) if cfg.law == "free_inlet"
                         else fixed_inlet.calibrate(scenario.diagram, cfg.rho_star, cfg.length,
                                                    cfg.sigma, cfg.gamma, cfg.mode))
                self.runs.append((p, n, scenario, gains, config.build_picard(cfg),
                                  config.build_oracle_settings(cfg)))
                cfgs.append(cfg)
        self.digest = _digest(config.serialize_config(c) for c in cfgs)

    def case(self, i: int) -> dict:
        gaps = {}
        for p, n, scenario, gains, picard, settings in self.runs:
            semi = _law_module(gains).simulate(scenario, gains, picard)
            otrace = pde_oracle.integrate(scenario, gains, settings)
            gaps[p, n] = pde_oracle.compare(semi, otrace).max_density_gap
        return gaps

    def check(self, gaps: dict) -> list[str]:
        bad = []
        for p in PRESETS[:2]:
            coarse, fine = (gaps[p, n] for n in self.CELLS)
            if not coarse <= 5e-4:
                bad.append(f"{p}: gap {coarse:.3e} at 400 cells exceeds 5e-4")
            if not coarse >= 3.5 * fine:
                bad.append(f"{p}: gap shrinks only x{coarse / fine:.3f} from 400 to 800 cells")
        return bad

    def out_dir(self, res):
        return None


class OracleBatch:
    """32 short oracle_agreement-shaped scenarios on a 60-cell bump.

    Even scenarios run the free law with a random gain, odd ones the fixed
    law.  Each law's amplitudes, and the free law's gains, are stratified:
    they take one value from each of equally wide slices of their range,
    in seeded order, so that the batch's work hardly depends on the seed.
    A fixed-law amplitude that leaves the profile inadmissible is drawn
    again in its slice, so every scenario runs.
    """

    SIZE = 32

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        d = ExponentialDiagram(rho_max=1.6)
        _warm_constants(d)
        fixed = fixed_inlet.calibrate(d, 0.7, 1.0, 0.12, 0.1, mode="override")
        self.settings = OracleSettings(n_cells=60)
        self.runs = []
        parts = []
        half = (4 if tiny else self.SIZE) // 2
        slices = {law: rng.permutation(half) for law in ("free", "fixed", "gain")}

        def draw(law: str, k: int, lo: float, hi: float) -> float:
            return lo + (hi - lo) * (slices[law][k] + rng.random()) / half

        for i in range(2 * half):
            law = "fixed" if i % 2 else "free"
            while True:
                profile = bump_profile(1.0, 60, 0.7, amplitude=draw(law, i // 2, 0.5, 3.5))
                if law == "free" or fixed_inlet.admissible(fixed, d, profile).ok:
                    break
            gains = FreeInletGain(draw("gain", i // 2, 0.2, 1.3), 1.0, 0.7) if law == "free" else fixed
            scenario = Scenario(diagram=d, length=1.0, rho_star=0.7, rho0=profile,
                                horizon=0.4, output_interval=0.2)
            self.runs.append((scenario, gains))
            parts += [profile.values.tobytes(), repr(gains)]
        self.digest = _digest(parts)

    def case(self, i: int) -> list:
        out = []
        for scenario, gains in self.runs:
            num = pde_oracle.integrate(scenario, gains, self.settings)
            semi = _law_module(gains).simulate(scenario, gains)
            out.append((pde_oracle.compare(semi, num).max_density_gap, num))
        return out

    def check(self, res: list) -> list[str]:
        bad = []
        for k, (gap, num) in enumerate(res):
            dm = np.trapezoid(num.rho[-1] - num.rho[0], num.x)
            net = np.trapezoid(num.inlet_flow - num.outlet_flow, num.times)
            if not gap < 5e-3:
                bad.append(f"scenario {k}: gap {gap:.3e} exceeds 5e-3")
            if not abs(dm - net) <= 2e-3:
                bad.append(f"scenario {k}: mass balance off by {abs(dm - net):.3e}")
        return bad

    def out_dir(self, res):
        return None


class FineGrid:
    """`runner.run` with both laws on 1600 cells, horizon 60, limits saturating.

    vsl_sensitivity = 1 puts delta at 1.0, below the bump's peak, so
    `speed_limits` runs its saturating-limit bisection.  The bump's
    amplitude and width come from the seed, inside the box where the
    fixed-law profile is admissible and every invariant check passes.
    `runner.run` builds the scenario and calibrates inside each case.
    """


    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.cfg = config.RunConfig(
            law="both", n_cells=200 if tiny else 1600, horizon=60.0, snapshots=61,
            vsl_sensitivity=1.0, mode="override",
            bump_amplitude=float(rng.uniform(3.0, 4.0)),
            bump_width=float(rng.uniform(1.15, 1.2)))
        self.digest = _digest([config.serialize_config(self.cfg)])
        self.workdir = workdir

    def case(self, i: int):
        return runner.run(self.cfg, os.path.join(self.workdir, f"case-{i}"))

    def check(self, res) -> list[str]:
        bad = [f"{lr.law}: {c}" for lr in res.laws for c in lr.checks if not c.passed]
        if res.exit_code != 0:
            bad.append(f"exit code {res.exit_code}")
        shutil.rmtree(res.directory, ignore_errors=True)
        return bad

    def out_dir(self, res) -> str:
        return res.directory


WORKLOADS = {
    "paper-presets": PaperPresets,
    "oracle-grid": OracleGrid,
    "oracle-batch": OracleBatch,
    "fine-grid": FineGrid,
}
