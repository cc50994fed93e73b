"""Run configuration: INI parsing, serialization, presets, object builders.

The format is a flat key-value file with one section per module:

    [diagram]    flow_scale, density_scale, shape, vsl_sensitivity, rho_max
    [scenario]   length, rho_star, n_cells, horizon, snapshots, profile + params
    [controller] law, free_gain, sigma, gamma, mode, u-gap thresholds, note
    [picard]     window, time_samples, tol, max_iter, safety, retry_cap
    [oracle]     enabled, n_cells, cfl_cap
    [output]     directory

Parsing and serialization round-trip exactly: floats are written with repr,
which reproduces the same float64 on re-parse.  "auto" stands for None in
the optional keys window and uniform_value.  A key outside this layout,
including any key under [DEFAULT], is rejected.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .fundamental_diagram import ExponentialDiagram
from .free_inlet import FreeInletGain
from .pde_oracle import OracleSettings
from .picard import PicardSettings
from .profile import (DensityProfile, Scenario, bump_profile, polynomial_profile,
                      sampled_profile, uniform_profile)

LAWS = ("free_inlet", "fixed_inlet", "both")
MODES = ("strict", "override")
PROFILES = ("bump", "polynomial", "uniform", "samples")


@dataclass(frozen=True)
class RunConfig:
    """Flat, primitive-valued mirror of one run's inputs."""

    # diagram
    flow_scale: float = 1.0
    density_scale: float = 1.0
    shape: float = 1.0
    vsl_sensitivity: float = 0.0
    rho_max: float = 1.6
    # scenario
    length: float = 1.0
    rho_star: float = 0.7
    n_cells: int = 400
    horizon: float = 30.0
    snapshots: int = 41
    profile_kind: str = "bump"
    bump_amplitude: float = 4.0
    bump_width: float = 1.2
    poly_coeffs: tuple[float, ...] = ()
    uniform_value: float | None = None
    sample_values: tuple[float, ...] = ()
    # controller
    law: str = "free_inlet"
    free_gain: float = 0.3
    sigma: float = 0.12
    gamma: float = 0.1
    mode: str = "strict"
    free_u_gap_tol: float = 0.05
    fixed_u_gap_tol: float = 0.045
    note: str = ""
    # picard
    picard_window: float | None = None
    picard_time_samples: int = 64
    picard_tol: float = 1e-10
    picard_max_iter: int = 200
    picard_safety: float = 0.5
    picard_retry_cap: int = 5
    # oracle
    oracle_enabled: bool = False
    oracle_n_cells: int = 400
    oracle_cfl_cap: float = 0.4
    # output
    output_dir: str = "out"

    def __post_init__(self):
        if self.law not in LAWS:
            raise ConfigError(f"law must be one of {LAWS}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.profile_kind not in PROFILES:
            raise ConfigError(f"profile must be one of {PROFILES}")
        if self.snapshots < 2:
            raise ConfigError("need at least 2 snapshots")
        if self.n_cells < 2:
            raise ConfigError("need at least 2 cells")
        for f in fields(self):
            if "float" not in f.type:
                continue
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else () if value is None else (value,)
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite")


# The INI surface follows RunConfig's field order.  Each section opens at
# the field named in _SECTION_STARTS; a key is its field's name minus the
# section prefix, except for the two keys in _RENAMED.
_SECTION_STARTS = {"flow_scale": "diagram", "length": "scenario", "law": "controller",
                   "picard_window": "picard", "oracle_enabled": "oracle",
                   "output_dir": "output"}
_RENAMED = {"profile_kind": "profile", "output_dir": "directory"}


def _layout():
    section = None
    for f in fields(RunConfig):
        section = _SECTION_STARTS.get(f.name, section)
        yield section, _RENAMED.get(f.name, f.name.removeprefix(section + "_")), f.name


_LAYOUT = tuple(_layout())  # (section, key, config field) in file order

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _parse_value(field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "float | None":
            return None if raw.lower() in ("auto", "none", "") else float(raw)
        if kind == "tuple[float, ...]":
            return tuple(float(p) for p in raw.split(",") if p.strip() != "")
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for key {field_name}") from exc


def serialize_config(cfg: RunConfig) -> str:
    lines: list[str] = []
    current = None
    for section, key, field_name in _LAYOUT:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_format_value(getattr(cfg, field_name))}")
    lines.append("")
    return "\n".join(lines)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    if parser.defaults():
        # configparser copies these into every section and lists no
        # [DEFAULT] section, so they would pass unchecked or be misnamed
        raise ConfigError("keys under [DEFAULT] are not supported; "
                          f"move {', '.join(parser.defaults())} into their sections")
    known = {(s, k): f for s, k, f in _LAYOUT}
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            field_name = known.get((section, key))
            if field_name is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            values[field_name] = _parse_value(field_name, raw)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(cfg))


# ---------------------------------------------------------------------------
# builders

def build_diagram(cfg: RunConfig) -> ExponentialDiagram:
    return ExponentialDiagram(flow_scale=cfg.flow_scale, density_scale=cfg.density_scale,
                              shape=cfg.shape, vsl_sensitivity=cfg.vsl_sensitivity,
                              rho_max=cfg.rho_max)


def build_profile(cfg: RunConfig) -> DensityProfile:
    if cfg.profile_kind == "bump":
        return bump_profile(cfg.length, cfg.n_cells, cfg.rho_star,
                            cfg.bump_amplitude, cfg.bump_width)
    if cfg.profile_kind == "polynomial":
        if not cfg.poly_coeffs:
            raise ConfigError("polynomial profile needs poly_coeffs")
        return polynomial_profile(cfg.length, cfg.n_cells, cfg.rho_star, cfg.poly_coeffs)
    if cfg.profile_kind == "uniform":
        return uniform_profile(cfg.length, cfg.n_cells, cfg.rho_star, cfg.uniform_value)
    if not cfg.sample_values:
        raise ConfigError("sampled profile needs sample_values")
    return sampled_profile(cfg.length, cfg.rho_star, cfg.sample_values)


def build_scenario(cfg: RunConfig) -> Scenario:
    diagram = build_diagram(cfg)
    interval = cfg.horizon / (cfg.snapshots - 1)
    return Scenario(diagram=diagram, length=cfg.length, rho_star=cfg.rho_star,
                    rho0=build_profile(cfg), horizon=cfg.horizon,
                    output_interval=interval)


def build_free_gain(cfg: RunConfig) -> FreeInletGain:
    return FreeInletGain(gain=cfg.free_gain, length=cfg.length, rho_star=cfg.rho_star)


def _section_settings(cls, cfg: RunConfig, prefix: str):
    """cls built from the RunConfig fields named prefix + each of its fields."""
    return cls(**{f.name: getattr(cfg, prefix + f.name) for f in fields(cls)})


def build_picard(cfg: RunConfig) -> PicardSettings:
    return _section_settings(PicardSettings, cfg, "picard_")


def build_oracle_settings(cfg: RunConfig) -> OracleSettings:
    return _section_settings(OracleSettings, cfg, "oracle_")


# ---------------------------------------------------------------------------
# presets

PRESETS: dict[str, RunConfig] = {
    "paper-sec5-free": RunConfig(
        law="free_inlet", horizon=30.0, free_gain=0.3, mode="strict",
        free_u_gap_tol=0.05,
        note="gain 0.3 on the standard congestion bump; decay bound rate 0.0763"),
    "paper-sec5-fixed": RunConfig(
        law="fixed_inlet", horizon=60.0, sigma=0.12, gamma=0.1, mode="override",
        fixed_u_gap_tol=0.045,
        note="override mode: the curvature margin fails for these gains by design "
             "of the example; the decay bound rate 0.02 still holds"),
    "paper-fig7": RunConfig(
        law="free_inlet", rho_star=1.0, horizon=60.0, free_gain=0.3, mode="strict",
        free_u_gap_tol=0.05,
        note="set point at the critical density; gain 0.3 carried over from the "
             "main free-inlet case, which leaves it otherwise unconstrained "
             "(bound 1/(L*rho_star) = 1)"),
}


def preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None


def with_overrides(cfg: RunConfig, **changes) -> RunConfig:
    return replace(cfg, **changes)
