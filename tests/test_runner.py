"""Run directories, config round-trips, and the command-line surface.

Proves:
  1.  serialize/parse is the identity on every preset and on overridden
      configs, including None sentinels, tuple-valued fields and notes of
      several lines, whose written config.ini re-runs; the serialized
      default config and presets keep their pinned SHA-256; the diagram,
      Picard and oracle settings built from RunConfig() are their classes'
      defaults
  2.  unknown keys, keys under [DEFAULT], bad enum values, malformed
      numbers (the error names their [section] key) and a negative
      terminal-gap tolerance raise ConfigError, while a zero tolerance is
      valid; the INI example in README.md parses; each
      README sentence "The `[section]` keys are ..." names exactly that
      section's keys; the default config as written with [picard] window,
      safety and retry_cap raises ConfigError naming [picard] window
  3.  run() writes the documented file set, and its result has no entry
      for a law it did not solve; norms.csv respects the decay
      bound row by row; load_trace round-trips the arrays bit for bit;
      a trace refuses times that do not increase and arrays of the wrong
      shape;
      report.txt states the grid the trace was computed on; limits.csv of
      a run whose densities pass delta (a = 1) keeps its pinned SHA-256,
      and at a = 0 no law or oracle directory has one, control.csv
      holding the limits bit for bit;
      the decay margin skips the tie at t = 0, and reads a ratio of 0
      where the bound is 0; the oracle's norms.csv bound decays at the
      law's certified rate; the files a run writes, oracle included, are
      the entries of README's "Run directory layout"
  3b. a run into an earlier run's --out replaces its law directories: an
      oracle directory or a second law that the new run does not write is
      gone, other files stay; a refused run (exit 2) leaves every file of
      an existing run byte-identical; a file or symlink in place of a law
      directory exits 2 and nothing outside --out moves; in place of an
      earlier run's law directory it exits 2 and every file of that run,
      config.ini included, stays byte-identical
  4.  two runs of the same config produce byte-identical files
  5.  compare_runs of a directory against itself is exactly zero
  6.  certify() reports the failing curvature margin without raising; a
      zero road or set point (free law or both) and a diagram whose
      (b rho_max)^shape overflows exit 2 with one error line, and run
      leaves no directory for the latter;
      certify and report.txt both carry the diagram's exact single_flow_peak
      and strict_concavity verdicts: pass on the presets, a non-concave
      free run (rho_max 2.5) reports strict_concavity FAIL and exits 0, a
      diagram with no peak (rho_max 0.9) is certified as failing and its
      run exits 2; on every preset the certification block of report.txt,
      written from the run's own gains (one calibration per run), equals
      certify's output, and metadata.json records each check's pass flag,
      detail and location as its report.txt line states them
  7.  the CLI returns 0 on clean runs, 1 on a failed check, 2 on usage
      errors, and prints one status line per law and one line per failed
      check; --strict and --override exclude each other on
      run, and certify takes neither; a compare of a run directory with a missing,
      truncated or incomplete file, with a NaN in density.csv or an
      infinity in control.csv, with density.csv one row short or with
      its rows out of x order or out of time order, with flows.csv cut to
      two columns, with control.csv on another node grid, or with control.csv,
      flows.csv or bottleneck.csv at other times, a compare of runs on
      different roads (either order), a compare of a law directory without
      metadata.json, a run into an existing file, a MemoryError in a solve,
      a fixed-law run with sigma * horizon past log(float max), an
      oracle over its step budget (in well under a second, no --out) and
      a fixed-law state that escapes after t = 0 under uncertified gains
      (the line names the snapshot time and the gains, no --out)
      exit 2 with one error line and no exception out of cli.main; the
      [project.scripts] entry
      point declared in pyproject.toml resolves to vslcontrol.cli:main and
      runs as its own process; a preset run imports no scipy module; two
      main calls build one parser and print the same text
  8.  a non-finite float in any config key, a gain outside its window, a
      strict calibration failure, a missing --config file, a bad mode, one
      snapshot, one cell, a polynomial or sampled profile without its
      values, a negative terminal-gap tolerance of either law, a malformed
      [oracle] n_cells or enabled (named as such), keys under [DEFAULT]
      and each removed key ([diagram] kind, [oracle] scheme, dt,
      escape_factor, [picard] window, safety, retry_cap, and the whole
      default config as written with the last three) all exit 2 with an
      error line that names the cause and leave no run directory; so do
      a second law whose start is inadmissible and an oracle that raises;
      a free-law window that exhausts [picard] max_iter exits 2 with one
      ConvergenceError line naming the window
  9.  every layer the benchmark's span recorder wraps is reached through
      module attributes by a run with both laws and the oracle, then compare;
      every benchmark workload passes its own check on one tiny case
 10.  the long-format and column-table writers give the bytes of a plain
      per-cell writer, for one and many rows, nodes and columns and for
      -0.0, subnormal, huge, NaN and infinite values; the block formatter
      equals "%.17g" % v byte for byte on over a million values (random
      bits, log-uniform magnitudes, dyadic values and exact 17th-digit
      ties, decimal-rounded values and their neighbours, powers of ten and
      their neighbours, specials); on fine-grid-shaped density, control
      and limit grids no value takes the per-value fallback, and on the
      writer tests' specials exactly the values outside [1e-4, 1e17) do;
      importing the package does not load the formatter, the first write does;
      writing a fine-grid-shaped long file peaks (tracemalloc) below
      speed_limits on the same field
 11.  every name in vslcontrol.__all__ resolves, and the README's "Library
      entry points" block runs as written
 12.  known wrong answers, as strict xfails until the ROADMAP item named
      in each reason mends them: the fixed preset at horizon 2000 or on a
      1e-6 road fails decay_bound; the fixed preset at [picard] tol = 1e-2,
      with its sup path solved at gamma / 2, and the free preset solved
      with 1.03 k all pass every check
 13.  a fixed-law run whose deviation is largest below rho_star (a
      polynomial profile under override gains) exits 0 with every check
      passing, and its oracle gap shrinks x3.5 or more from 50 to 100 cells
"""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError

import vslcontrol
from conftest import load_benchmark_module
from vslcontrol import cli, csvformat, fixed_inlet, free_inlet, pde_oracle, runner
from vslcontrol import trace as trace_module
from vslcontrol.config import (_FIELD_TYPES, _LAYOUT, ConfigError, PRESETS, RunConfig,
                               build_diagram, build_oracle_settings, build_picard,
                               build_scenario, load_config, parse_config, preset,
                               save_config, serialize_config, with_overrides)
from vslcontrol.errors import DomainError, SolverDivergenceError
from vslcontrol.fundamental_diagram import CheckResult, ExponentialDiagram, speed_limits
from vslcontrol.pde_oracle import OracleSettings
from vslcontrol.picard import PicardSettings

# short horizons need a looser terminal u-gap than the presets' long-run targets
QUICK = dict(n_cells=60, horizon=3.0, snapshots=7,
             free_u_gap_tol=0.2, fixed_u_gap_tol=0.2)
SRC = Path(vslcontrol.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def quick_free(tmp_path_factory):
    cfg = with_overrides(preset("paper-sec5-free"), **QUICK)
    out = str(tmp_path_factory.mktemp("free"))
    return runner.run(cfg, out), cfg


@pytest.fixture(scope="module")
def quick_fixed(tmp_path_factory):
    cfg = with_overrides(preset("paper-sec5-fixed"), **QUICK,
                         oracle_enabled=True, oracle_n_cells=60)
    out = str(tmp_path_factory.mktemp("fixed"))
    return runner.run(cfg, out), cfg


def with_ini_value(text: str, section: str, key: str, value: str) -> str:
    """text with the value of [section] key replaced by the raw string value."""
    head, sep, rest = text.partition(f"[{section}]\n")
    rest, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", rest, count=1)
    assert sep and n == 1, (section, key)
    return head + sep + rest


def retired_picard_text() -> str:
    """serialize_config(RunConfig()) as written while [picard] still had the
    keys window, safety and retry_cap, and [oracle] cfl_cap defaulted to
    0.4, checked against its former digest."""
    text = serialize_config(RunConfig()).replace("[picard]\n", "[picard]\nwindow = auto\n")
    text = text.replace("max_iter = 200\n", "max_iter = 200\nsafety = 0.5\nretry_cap = 5\n")
    text = text.replace("cfl_cap = 0.8\n", "cfl_cap = 0.4\n")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "b0ba1ad5e6c793b962d41177c9a0ba6046f84fdabe03d74fb2971fb2ada2359d")
    return text


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name):
        cfg = preset(name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_none_and_tuple_fields(self):
        cfg = with_overrides(RunConfig(), picard_time_samples=9, uniform_value=0.8,
                             profile_kind="polynomial",
                             poly_coeffs=(0.7, 0.0, 1.5e-3))
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("note", ["first line\nsecond line", "a\n\nb [c]\nd = e"])
    def test_multi_line_note(self, note):
        # each later line is written indented, as a continuation of the key
        cfg = with_overrides(preset("paper-sec5-free"), note=note)
        text = serialize_config(cfg)
        assert "note = " + note.replace("\n", "\n  ") + "\n" in text
        assert parse_config(text) == cfg

    def test_multi_line_note_config_ini_reruns(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        text = serialize_config(with_overrides(preset("paper-sec5-free"), **QUICK, note=""))
        p.write_text(text.replace("note = \n", "note = first line\n  second line\n"))
        assert cli.main(["run", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
        written = tmp_path / "a" / "config.ini"
        assert load_config(str(written)).note == "first line\nsecond line"
        assert cli.main(["run", "--config", str(written), "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err == ""

    def test_defaults_are_the_library_classes(self):
        # RunConfig restates no default of the classes it builds
        cfg = RunConfig()
        for built, cls in ((build_diagram(cfg), ExponentialDiagram),
                           (build_picard(cfg), PicardSettings),
                           (build_oracle_settings(cfg), OracleSettings)):
            assert dataclasses.asdict(built) == dataclasses.asdict(cls()), cls.__name__

    def test_file_round_trip(self, tmp_path):
        cfg = preset("paper-fig7")
        p = str(tmp_path / "run.ini")
        save_config(cfg, p)
        assert load_config(p) == cfg

    def test_unknown_key_rejected(self):
        text = serialize_config(RunConfig()) + "\n[controller]\nturbo = yes\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unknown_section_rejected(self):
        for text in (serialize_config(RunConfig()) + "\n[extras]\nx = 1\n",
                     "[DEFAULT]\nlaw = fixed_inlet\nhorizon = 5.0\n",
                     "[DEFAULT]\nrho_max = 1.5\n\n[scenario]\nhorizon = 5.0\n"):
            with pytest.raises(ConfigError, match=r"\[(extras|DEFAULT)\]"):
                parse_config(text)

    def test_readme_example_parses(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        cfg = parse_config(block)
        assert cfg.oracle_enabled and cfg.free_gain == 0.3

    def test_readme_key_lists_match_layout(self):
        # each "The `[section]` keys are `a`, `b` and `c`" sentence names
        # exactly that section's keys, in file order
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        lists = re.findall(r"The `\[(\w+)\]` keys are\s+((?:`\w+`(?:,\s+|\s+and\s+)?)+)",
                           readme)
        assert {section for section, _ in lists} >= {"picard", "oracle"}
        for section, names in lists:
            assert re.findall(r"`(\w+)`", names) == [
                key for s, key, _ in _LAYOUT if s == section], section

    def test_retired_picard_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown config key \[picard\] window$"):
            parse_config(retired_picard_text())

    def test_malformed_number_rejected(self):
        text = serialize_config(RunConfig()).replace("sigma = 0.12", "sigma = fast")
        with pytest.raises(ConfigError, match=r"^bad value 'fast' for key \[controller\] sigma$"):
            parse_config(text)

    def test_gap_tolerances_start_at_zero(self):
        RunConfig(free_u_gap_tol=0.0, fixed_u_gap_tol=0.0)
        for name in ("free_u_gap_tol", "fixed_u_gap_tol"):
            with pytest.raises(ConfigError, match=rf"^{name} must be >= 0$"):
                RunConfig(**{name: -1e-300})

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(law="open_loop")
        with pytest.raises(ConfigError):
            RunConfig(profile_kind="sawtooth")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("paper-sec6")

    # The round trips hold under any consistent renaming or reordering of
    # keys; these digests pin the INI text itself (the benchmark's input
    # digests are built from it).
    SERIALIZED_SHA256 = {
        None: "932e7c94eb87ec82a96aa29881ae43d486af6df380e5732f1ae6121193e622e7",
        "paper-sec5-free": "8000d3f67c323e8fd070bb89e8f1d39e2e045dcf3fcce34889c75a3a7296b7e1",
        "paper-sec5-fixed": "32c54fef6921a3c7f3c3217894aeffdeff0893a80f87f0ac71c7dcb7a2bd2cb8",
        "paper-fig7": "07ae5ec88f161f0c86b736434e0cfca8b1f26fabc67528596c423faad451114d",
    }

    @pytest.mark.parametrize("name", list(SERIALIZED_SHA256), ids=str)
    def test_serialized_text_is_pinned(self, name):
        cfg = RunConfig() if name is None else preset(name)
        got = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
        assert got == self.SERIALIZED_SHA256[name]


class TestRunDirectory:
    # limits.csv of SATURATING_RUN, where speed_limits takes the saturating
    # branch (248 free and 493 fixed density entries lie above delta = 1)
    SATURATING_RUN = dict(law="both", vsl_sensitivity=1.0, mode="override", n_cells=100,
                          horizon=10.0, snapshots=11, free_u_gap_tol=1.0, fixed_u_gap_tol=1.0)
    LIMITS_SHA256 = {
        "free_inlet": "234c1b88bb35375e07c556748a8f6a9ec19f9b34b79accba684941dcba14334d",
        "fixed_inlet": "8d98c32e10c14b269c3ddf9059dc23a811d1445cf6bd0bab229725a092e535cd",
    }

    def test_file_set(self, quick_free):
        res, _ = quick_free
        law_dir = res.law("free_inlet").directory
        with pytest.raises(KeyError):
            res.law("fixed_inlet")  # a law the run did not solve
        assert os.path.isfile(os.path.join(res.directory, "config.ini"))
        for name in ("density.csv", "control.csv", "norms.csv",
                     "flows.csv", "bottleneck.csv", "metadata.json", "report.txt"):
            assert os.path.isfile(os.path.join(law_dir, name)), name
        # limits.csv is written at vsl_sensitivity > 0 only (see the pinned one below)
        assert not os.path.exists(os.path.join(law_dir, "limits.csv"))

    def test_fixed_law_has_no_bottleneck_file(self, quick_fixed):
        res, _ = quick_fixed
        law_dir = res.law("fixed_inlet").directory
        assert not os.path.exists(os.path.join(law_dir, "bottleneck.csv"))
        assert os.path.isdir(os.path.join(law_dir, "oracle"))

    def test_all_checks_pass(self, quick_free, quick_fixed):
        for res, _ in (quick_free, quick_fixed):
            assert res.exit_code == 0
            for law in res.laws:
                assert law.passed, [c.name for c in law.checks if not c.passed]

    @pytest.mark.parametrize("times,sup,want", [
        ([0.0, 1.0, 2.0], [1.0, 0.5, 0.9],
         "over t > 0 min margin 1.000e-01, sup/bound at most 0.9 at t = 2)"),
        ([0.0], [1.0], "(no snapshot after t = 0))"),
        # zero initial deviation: the bound is 0, so every ratio reads 0
        ([0.0, 1.0], [0.0, 0.0], "over t > 0 min margin 0.000e+00, sup/bound at most 0 at t = 1)"),
    ])
    def test_decay_margin_skips_the_tie_at_t0(self, times, sup, want):
        trace = SimpleNamespace(times=np.array(times), sup_deviation=np.array(sup))
        with np.errstate(all="raise"):
            check = runner._decay_check(trace, 0.0)
        assert check.passed and str(check).endswith(want), str(check)

    def test_norms_bound_row_by_row(self, quick_free):
        res, _ = quick_free
        path = os.path.join(res.law("free_inlet").directory, "norms.csv")
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-12)

    def test_oracle_norms_bound_uses_the_law_rate(self, tmp_path):
        cfg = with_overrides(preset("paper-sec5-free"), oracle_enabled=True,
                             horizon=3.0, snapshots=5)
        law_dir = runner.run(cfg, str(tmp_path)).law("free_inlet").directory
        with open(os.path.join(law_dir, "metadata.json")) as fh:
            rate = json.load(fh)["decay_rate_bound"]
        rows = np.loadtxt(os.path.join(law_dir, "oracle", "norms.csv"),
                          delimiter=",", skiprows=1)
        times, sup, bound = rows.T
        assert rate > 0.0 and times.size == 5
        np.testing.assert_array_equal(bound, np.exp(-rate * times) * sup[0])
        assert np.all(bound[1:] < sup[0])

    def test_readme_layout_matches_the_files(self, quick_fixed, tmp_path):
        # README's "Run directory layout" block lists what a run writes:
        # each entry's path up to its first blank, `<law>` for the law
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Run directory layout\n\n```\n", 1)[1].split("```", 1)[0]
        listed = {line.split()[0] for line in block.splitlines() if line[:1].strip()}
        assert {"config.ini", "<law>/oracle/"} <= listed
        law_files = {e.removeprefix("<law>/") for e in listed if e.startswith("<law>/")}
        oracle_files = law_files - {"report.txt", "oracle/"} | {"gaps.csv"}
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK,
                             oracle_enabled=True, oracle_n_cells=60)
        free = runner.run(cfg, str(tmp_path))
        # both runs are at vsl_sensitivity = 0, where limits.csv is not written
        for res, skip in ((free, {"limits.csv"}),
                          (quick_fixed[0], {"limits.csv", "bottleneck.csv"})):
            (law,) = res.laws
            assert set(os.listdir(res.directory)) == {"config.ini", law.law}
            written = {n + "/" if os.path.isdir(os.path.join(law.directory, n)) else n
                       for n in os.listdir(law.directory)}
            assert written == law_files - skip, law.law
            oracle = set(os.listdir(os.path.join(law.directory, "oracle")))
            assert oracle == oracle_files - skip, law.law

    def test_load_trace_round_trips_bitwise(self, quick_free):
        res, _ = quick_free
        law = res.law("free_inlet")
        loaded = runner.load_trace(law.directory)
        np.testing.assert_array_equal(loaded.rho, law.trace.rho)
        np.testing.assert_array_equal(loaded.u, law.trace.u)
        np.testing.assert_array_equal(loaded.times, law.trace.times)
        assert loaded.metadata["law"] == "free_inlet"

    @pytest.mark.parametrize("change,says", [
        (lambda tr: {"times": tr.times[::-1]}, "snapshot times must increase strictly"),
        (lambda tr: {"rho": tr.rho[:, 1:]}, "rho must have shape"),
        (lambda tr: {"inlet_flow": tr.inlet_flow[1:]}, "inlet_flow must have one entry"),
    ], ids=["times", "rho", "inlet_flow"])
    def test_trace_refuses_arrays_that_disagree(self, quick_free, change, says):
        trace = quick_free[0].law("free_inlet").trace
        with pytest.raises(DomainError, match=says):
            dataclasses.replace(trace, **change(trace))

    def test_oracle_gap_recorded(self, quick_fixed):
        res, cfg = quick_fixed
        law = res.law("fixed_inlet")
        assert law.oracle_gap is not None
        gaps = os.path.join(law.directory, "oracle", "gaps.csv")
        assert os.path.isfile(gaps)
        assert law.oracle_gap < 5e-3

    def test_report_states_the_sampled_grid(self, tmp_path):
        # a sampled profile sets its own grid: 41 samples are 40 cells,
        # whatever [scenario] n_cells says
        samples = tuple(0.7 + 0.1 * np.exp(-((np.linspace(0.0, 1.0, 41) - 0.5) / 0.1) ** 2))
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK, profile_kind="samples",
                             sample_values=samples)
        res = runner.run(cfg, str(tmp_path / "o"))
        law = res.law("free_inlet")
        assert law.trace.x.size == 41
        text = Path(law.directory, "report.txt").read_text()
        assert "scenario: length=1 rho_star=0.7 n_cells=40 horizon=3" in text

    def test_saturating_limits_csv_is_pinned(self, tmp_path):
        res = runner.run(with_overrides(preset("paper-sec5-free"), **self.SATURATING_RUN),
                         str(tmp_path))
        for law, want in self.LIMITS_SHA256.items():
            law_dir = res.law(law).directory
            assert np.any(runner.load_trace(law_dir).rho > 1.0)
            with open(os.path.join(law_dir, "limits.csv"), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == want, law

    def test_limits_csv_is_control_csv_at_zero_sensitivity(self, quick_free, quick_fixed):
        # at vsl_sensitivity = 0 the limits are the controls bit for bit, so
        # control.csv holds them and no directory, oracle included, has limits.csv
        dirs = []
        for res, cfg in (quick_free, quick_fixed):
            assert cfg.vsl_sensitivity == 0.0
            for law in res.laws:
                oracle = os.path.join(law.directory, "oracle")
                dirs += [law.directory] + ([oracle] if os.path.isdir(oracle) else [])
        assert len(dirs) == 3
        diagram = build_scenario(quick_free[1]).diagram
        for where in dirs:
            assert not os.path.exists(os.path.join(where, "limits.csv")), where
            trace = runner.load_trace(where)
            control = Path(where, "control.csv").read_bytes()
            assert control.startswith(b"t,x,u\n") and len(control) > 1000
            limits = speed_limits(diagram, trace.rho, trace.u)
            np.testing.assert_array_equal(limits.view(np.int64), trace.u.view(np.int64))

    def test_report_mentions_certification(self, quick_fixed):
        res, _ = quick_fixed
        text = Path(res.law("fixed_inlet").directory, "report.txt").read_text()
        assert "curvature_margin" in text
        assert "FAIL" in text
        assert "decay_rate_bound" in text

    def test_determinism(self, tmp_path):
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK)
        a = runner.run(cfg, str(tmp_path / "a"))
        b = runner.run(cfg, str(tmp_path / "b"))
        for name in ("density.csv", "control.csv", "norms.csv"):
            fa = Path(a.law("free_inlet").directory, name).read_bytes()
            fb = Path(b.law("free_inlet").directory, name).read_bytes()
            assert fa == fb, name

    def test_compare_runs_self_is_zero(self, quick_free):
        res, _ = quick_free
        d = res.law("free_inlet").directory
        cmp = runner.compare_runs(d, d)
        assert cmp.max_density_gap == 0.0
        assert cmp.max_control_gap == 0.0

    def test_both_laws_in_one_run(self, tmp_path):
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK, law="both",
                             mode="override")
        res = runner.run(cfg, str(tmp_path / "both"))
        assert {lr.law for lr in res.laws} == {"free_inlet", "fixed_inlet"}
        assert res.exit_code == 0


class TestExistingOut:
    """A run owns config.ini and the law directories of its --out."""

    @staticmethod
    def files(root) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(Path(root).rglob("*")) if p.is_file()}

    def test_oracle_directory_of_an_earlier_run_goes(self, tmp_path):
        out = str(tmp_path / "o")
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK)
        runner.run(with_overrides(cfg, oracle_enabled=True, oracle_n_cells=60), out)
        assert os.path.isdir(os.path.join(out, "free_inlet", "oracle"))
        runner.run(cfg, out)
        assert not os.path.exists(os.path.join(out, "free_inlet", "oracle"))

    def test_law_directory_of_an_earlier_run_goes(self, tmp_path):
        out = tmp_path / "o"
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK)
        runner.run(with_overrides(cfg, law="both", mode="override"), str(out))
        (out / "notes.txt").write_text("kept\n")
        runner.run(cfg, str(out))
        assert sorted(os.listdir(out)) == ["config.ini", "free_inlet", "notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_refused_run_leaves_every_file(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK, oracle_enabled=True,
                             oracle_n_cells=60)
        runner.run(cfg, out)
        before = self.files(out)
        p = str(tmp_path / "c.ini")
        save_config(with_overrides(cfg, free_gain=2.0), p)
        assert cli.main(["run", "--config", p, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert self.files(out) == before

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_law_path_that_is_not_a_directory_exits_two(self, tmp_path, capsys, kind):
        # neither is removed: os.mkdir fails, and nothing outside --out moves
        out, elsewhere = tmp_path / "o", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        (elsewhere / "keep.csv").write_text("1\n")
        if kind == "file":
            (out / "free_inlet").write_text("not a directory\n")
        else:
            (out / "free_inlet").symlink_to(elsewhere, target_is_directory=True)
        assert cli.main(["run", "--preset", "paper-sec5-free", "--out", str(out)]) == 2
        assert "free_inlet" in capsys.readouterr().err
        assert self.files(elsewhere) == {"keep.csv": b"1\n"}
        if kind == "file":
            assert (out / "free_inlet").read_text() == "not a directory\n"
        else:
            assert (out / "free_inlet").is_symlink()

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_law_path_that_is_not_a_directory_changes_nothing(self, tmp_path, capsys, kind):
        # an earlier run's free_inlet/ moved aside, a file or a symlink to it
        # in its place: the refused run writes no config.ini, removes nothing
        out = tmp_path / "o"
        assert cli.main(["run", "--preset", "paper-sec5-free", "--out", str(out)]) == 0
        (out / "free_inlet").rename(out / "moved")
        if kind == "file":
            (out / "free_inlet").write_text("not a directory\n")
        else:
            (out / "free_inlet").symlink_to(out / "moved", target_is_directory=True)
        before = self.files(out)
        capsys.readouterr()
        assert cli.main(["run", "--preset", "paper-fig7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 17] File exists") and "free_inlet" in err, err
        assert self.files(out) == before


class TestMeasuredWrongAnswers:
    """Runs whose exit code ROADMAP measured as wrong, pinned until the item
    named in each reason mends them; each takes under a second."""

    @staticmethod
    def exit_code(tmp_path, name, **overrides) -> int:
        return runner.run(with_overrides(preset(name), **overrides), str(tmp_path)).exit_code

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "decay_bound fails at t = 1050: the absolute Picard tol floors the deviation; "
        "ROADMAP item 6 (the fixed law's exact path)"))
    def test_fixed_preset_at_horizon_2000_passes(self, tmp_path):
        assert self.exit_code(tmp_path, "paper-sec5-fixed", horizon=2000.0) == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "decay_bound fails at t = 1.5 after one Picard iteration on a 1e-6 road; "
        "ROADMAP item 6 (the fixed law's exact path)"))
    def test_fixed_preset_on_a_tiny_road_passes(self, tmp_path):
        assert self.exit_code(tmp_path, "paper-sec5-fixed", length=1e-6) == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "densities 2.29e-3 off the default solve pass every check; ROADMAP item 12a "
        "(the fixed-law path residual)"))
    def test_loose_fixed_tolerance_fails_a_check(self, tmp_path):
        assert self.exit_code(tmp_path, "paper-sec5-fixed", picard_tol=1e-2) == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a sup path solved at gamma / 2, 0.111 off, passes every check; ROADMAP item 12b "
        "(mutation tests for the path residual)"))
    def test_fixed_sup_path_at_half_gamma_fails_a_check(self, tmp_path, monkeypatch):
        sup_path = fixed_inlet._sup_path

        def half_gamma(gains, *args):
            return sup_path(dataclasses.replace(gains, gamma=gains.gamma / 2.0), *args)
        monkeypatch.setattr(fixed_inlet, "_sup_path", half_gamma)
        assert self.exit_code(tmp_path, "paper-sec5-fixed") == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "densities solved with 1.03 k pass every check; ROADMAP item 12b (mutation "
        "tests for the path residual)"))
    def test_free_solve_at_a_wrong_gain_fails_a_check(self, tmp_path, monkeypatch):
        # the densities come from the 1.03 k solve; the controls and metadata
        # are the true law's, evaluated on them
        simulate = free_inlet.simulate

        def fast(scenario, gain, settings):
            true = simulate(scenario, gain, settings)
            wrong = simulate(scenario, free_inlet.FreeInletGain(
                1.03 * gain.gain, gain.length, gain.rho_star), settings)
            return trace_module.law_trace(gain, scenario.diagram, wrong.times, wrong.x,
                                          wrong.rho, 0.0, true.metadata)
        monkeypatch.setattr(free_inlet, "simulate", fast)
        assert self.exit_code(tmp_path, "paper-sec5-free") == 1


class TestNegativeSideDominates:
    """The fixed-law run whose deviation is largest below rho_star (ROADMAP
    item 18): its simulator solves the law's own sup norm, |.|."""

    def test_oracle_gap_shrinks_with_the_grid(self, tmp_path):
        gaps = []
        for n in (50, 100):
            cfg = with_overrides(preset("paper-sec5-fixed"), profile_kind="polynomial",
                                 poly_coeffs=(0.7, 0.0, -0.1), sigma=0.33, gamma=0.297,
                                 horizon=2.0, snapshots=5, n_cells=n, oracle_enabled=True,
                                 oracle_n_cells=n)
            result = runner.run(cfg, str(tmp_path / str(n)))
            assert result.exit_code == 0
            assert all(c.passed for c in result.laws[0].checks)
            gaps.append(result.laws[0].oracle_gap)
        # a simulator of the signed max stays 2.31e-2 off at every grid
        assert gaps[0] >= 3.5 * gaps[1]


class TestCertify:
    def test_reports_failure_without_raising(self):
        text = runner.certify(preset("paper-sec5-fixed"))
        assert "curvature_margin" in text and "FAIL" in text

    def test_free_law_reports_gain_window(self):
        text = runner.certify(preset("paper-sec5-free"))
        assert "gain" in text
        assert "1.42857" in text  # 1/(L rho_star)

    @pytest.mark.parametrize("law", ["free_inlet", "both"])
    @pytest.mark.parametrize("key", ["rho_star", "length"])
    def test_zero_road_or_set_point_exits_two(self, key, law, tmp_path, capsys):
        # the gain window 1/(L rho_star) does not exist: an error line, no traceback
        p = str(tmp_path / "c.ini")
        save_config(with_overrides(preset("paper-sec5-free"), law=law, **{key: 0.0}), p)
        assert cli.main(["certify", "--config", p]) == 2
        assert capsys.readouterr().err == "error: length and rho_star must be positive\n"

    def test_steep_diagram_exits_two(self, tmp_path, capsys):
        # (b rho_max)^shape = 1.6^1600 overflows a float
        p = str(tmp_path / "c.ini")
        save_config(with_overrides(preset("paper-sec5-free"), shape=1600.0), p)
        out = tmp_path / "o"
        for command in (["certify", "--config", p], ["run", "--config", p, "--out", str(out)]):
            assert cli.main(command) == 2
            assert capsys.readouterr().err == (
                "error: (density_scale * rho_max)^shape must be a finite float\n")
        assert not out.exists()


class TestDiagramConditions:
    """The family's exact conditions, reported by certify and report.txt alike."""

    def test_presets_pass(self, quick_free):
        res, _ = quick_free
        text = Path(res.law("free_inlet").directory, "report.txt").read_text()
        for name in PRESETS:
            cert = runner.certify(preset(name))
            for check in ("single_flow_peak", "strict_concavity"):
                assert f"  diagram {check}: pass" in cert and f"  diagram {check}: pass" in text

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_report_block_equals_certify(self, name, tmp_path, monkeypatch):
        cfg = preset(name)
        calls = []
        calibrate = fixed_inlet.calibrate

        def counted(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(fixed_inlet, "calibrate", counted)
        res = runner.run(cfg, str(tmp_path / name))
        assert len(calls) == (cfg.law == "fixed_inlet")  # one calibration per run
        law_dir = res.law(cfg.law).directory
        text = Path(law_dir, "report.txt").read_text()
        block = text[text.index("certification:\n"):text.index("\n\nconstants:")] + "\n"
        assert block == runner.certify(cfg)
        # metadata.json records each check as its report line states it
        checks = json.loads(Path(law_dir, "metadata.json").read_text())["invariant_checks"]
        lines = text[text.index("invariants:\n"):].splitlines()[1:len(checks) + 1]
        assert set(lines) == {f"  {CheckResult(name, **c)}" for name, c in checks.items()}
        assert all(c["passed"] for c in checks.values())

    def test_non_concave_free_run_reports_but_runs(self, tmp_path, capsys):
        cfg = with_overrides(preset("paper-sec5-free"), rho_max=2.5)
        path = str(tmp_path / "c.ini")
        save_config(cfg, path)
        out = str(tmp_path / "o")
        assert cli.main(["run", "--config", path, "--out", out]) == 0
        assert "free_inlet: ok" in capsys.readouterr().out
        assert cli.main(["certify", "--config", path]) == 0
        cert = capsys.readouterr().out
        report = Path(out, "free_inlet", "report.txt").read_text()
        for text in (cert, report):
            assert "  diagram single_flow_peak: pass" in text
            assert "  diagram strict_concavity: FAIL" in text

    def test_no_peak_is_certified_as_failing_and_refused_by_run(self, tmp_path, capsys):
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK, rho_max=0.9,
                             profile_kind="uniform", uniform_value=0.8)
        path = str(tmp_path / "c.ini")
        save_config(cfg, path)
        assert cli.main(["certify", "--config", path]) == 0
        assert "  diagram single_flow_peak: FAIL" in capsys.readouterr().out
        out = tmp_path / "o"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
        assert "no interior critical density" in capsys.readouterr().err
        assert not (out / "free_inlet" / "density.csv").exists()


class TestCli:
    def test_run_returns_zero(self, tmp_path, capsys):
        rc = cli.main(["run", "--preset", "paper-sec5-free", "--out",
                       str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "free_inlet: ok" in out

    def test_certify_prints_conditions(self, capsys):
        rc = cli.main(["certify", "--preset", "paper-sec5-fixed"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "curvature_margin" in out

    def test_parser_is_built_once(self, capsys, monkeypatch):
        # the parser with its three subcommand parsers is built on the first
        # main call of a process; a second call reuses it
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        try:
            texts = []
            for _ in range(2):
                assert cli.main(["certify", "--preset", "paper-sec5-fixed"]) == 0
                texts.append(capsys.readouterr().out)
        finally:
            cli._parser.cache_clear()
        assert texts[0] == texts[1] and "curvature_margin" in texts[0]
        assert built == ["vslcontrol", "vslcontrol run", "vslcontrol certify",
                         "vslcontrol compare"]

    @pytest.mark.parametrize("tol,rc,failed", [
        (QUICK["free_u_gap_tol"], 0, []),
        # no run of 3 time units brings u back to 1 exactly
        (0.0, 1, ["control_gap_at_horizon"])], ids=["passes", "fails_a_check"])
    def test_config_file_input(self, tmp_path, capsys, tol, rc, failed):
        # one status line per law, then one line per failed check
        cfg = with_overrides(preset("paper-sec5-free"), **{**QUICK, "free_u_gap_tol": tol})
        p = str(tmp_path / "c.ini")
        save_config(cfg, p)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", p, "--out", str(out)]) == rc
        lines = capsys.readouterr().out.splitlines()
        state = "INVARIANT VIOLATION" if failed else "ok"
        assert lines[0] == f"free_inlet: {state} ({out / 'free_inlet'})"
        assert [line.split(":")[0] for line in lines[1:]] == [f"  {c}" for c in failed]
        assert all(": FAIL (" in line for line in lines[1:])

    def test_compare_command(self, tmp_path, capsys):
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK)
        res = runner.run(cfg, str(tmp_path / "o"))
        d = res.law("free_inlet").directory
        rc = cli.main(["compare", d, d])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0" in out

    def test_unknown_preset_is_a_usage_error(self, capsys):
        rc = cli.main(["run", "--preset", "nope", "--out", "unused"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_strict_override_flags_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--preset", "paper-sec5-fixed", "--strict", "--override"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--strict", "--override"])
    def test_certify_takes_no_mode_flag(self, flag, capsys):
        # certify reports every condition whatever the mode
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--preset", "paper-sec5-fixed", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_non_finite_floats_exit_two(self, tmp_path, capsys):
        floats = [(key, name) for _, key, name in _LAYOUT if "float" in _FIELD_TYPES[name]]
        assert len(floats) == 20
        p = tmp_path / "c.ini"
        out = tmp_path / "o"
        for key, name in floats:
            for bad in ("nan", "inf"):
                p.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {bad}",
                                    serialize_config(RunConfig())))
                rc = cli.main(["run", "--config", str(p), "--out", str(out)])
                err = capsys.readouterr().err
                assert rc == 2 and err.startswith("error:"), (key, bad, rc, err)
                assert name in err, err
                assert not out.exists()

    def test_refused_config_writes_no_directory(self, tmp_path, capsys):
        sources = [(["--preset", "paper-sec5-fixed", "--strict"], "curvature_margin"),
                   (["--config", str(tmp_path / "missing.ini")], "cannot read config")]
        defaults = tmp_path / "defaults.ini"
        defaults.write_text("[DEFAULT]\nlaw = fixed_inlet\nhorizon = 5.0\n")
        sources.append((["--config", str(defaults)], "[DEFAULT]"))
        # (preset, [section] key = value, what the error line names)
        edits = [("paper-sec5-free", "controller", "free_gain", "2.0", "gain"),
                 ("paper-sec5-free", "controller", "mode", "bogus", "mode"),
                 ("paper-sec5-free", "scenario", "snapshots", "1", "snapshots"),
                 ("paper-sec5-free", "scenario", "n_cells", "1", "cells"),
                 ("paper-sec5-free", "scenario", "profile", "polynomial", "poly_coeffs"),
                 ("paper-sec5-free", "scenario", "profile", "samples", "sample_values"),
                 ("paper-sec5-free", "controller", "free_u_gap_tol", "-1.0",
                  "free_u_gap_tol must be >= 0"),
                 ("paper-sec5-fixed", "controller", "fixed_u_gap_tol", "-1.0",
                  "fixed_u_gap_tol must be >= 0"),
                 ("paper-sec5-free", "oracle", "n_cells", "abc",
                  "bad value 'abc' for key [oracle] n_cells"),
                 ("paper-sec5-free", "oracle", "enabled", "maybe",
                  "bad value 'maybe' for key [oracle] enabled")]
        for i, (name, section, key, value, names) in enumerate(edits):
            p = tmp_path / f"c{i}.ini"
            p.write_text(with_ini_value(serialize_config(preset(name)), section, key, value))
            sources.append((["--config", str(p)], names))
        out = tmp_path / "o"
        for source, names in sources:
            err = self.assert_error_exit(capsys, "run", *source, "--out", str(out))
            assert names in err, (source, err)
            assert not out.exists(), source

    def test_inadmissible_second_law_writes_no_directory(self, tmp_path, capsys):
        # the free law solves; the fixed law's start is refused after it
        p = str(tmp_path / "c.ini")
        save_config(with_overrides(preset("paper-sec5-free"), **QUICK, law="both",
                                   mode="override", bump_amplitude=6.0), p)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial profile is not admissible")
        assert err.count("error:") == 1 and err.count("\n") == 1, err
        assert not out.exists()

    def test_oracle_failure_writes_no_directory(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise SolverDivergenceError("oracle diverged")
        monkeypatch.setattr(pde_oracle, "integrate", diverge)
        p = str(tmp_path / "c.ini")
        save_config(with_overrides(preset("paper-sec5-free"), **QUICK, oracle_enabled=True), p)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", p, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: oracle diverged\n"
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("diagram", "kind", "exponential"), ("oracle", "scheme", "central_flux_rk4"),
        ("oracle", "dt", "auto"), ("oracle", "escape_factor", "4.0"),
        ("picard", "window", "auto"), ("picard", "safety", "0.5"),
        ("picard", "retry_cap", "5")])
    def test_removed_key_writes_no_directory(self, tmp_path, capsys, section, key, value):
        p = tmp_path / "c.ini"
        text = serialize_config(with_overrides(preset("paper-sec5-free"), oracle_enabled=True))
        p.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key [{section}] {key}"), err
        assert not out.exists()

    def test_retired_picard_keys_write_no_directory(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        p.write_text(retired_picard_text())
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown config key [picard] window\n"
        assert not out.exists()

    def test_unconverged_window_exits_two(self, tmp_path, capsys):
        p = str(tmp_path / "c.ini")
        save_config(with_overrides(preset("paper-sec5-free"), **QUICK,
                                   picard_max_iter=1, picard_tol=1e-14), p)
        assert cli.main(["run", "--config", p, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: window of length \S+ did not converge in 1 iterations\n",
                            err), err

    @pytest.fixture
    def run_copy(self, quick_free, tmp_path):
        """A writable copy of a complete free-law run directory."""
        dst = tmp_path / "run"
        shutil.copytree(quick_free[0].law("free_inlet").directory, dst)
        return dst

    @staticmethod
    def assert_error_exit(capsys, *args):
        """cli.main(args) returns 2 and prints one error line, which it returns;
        an exception that escapes main fails the test."""
        assert cli.main(list(args)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        return err

    def test_compare_without_density_file(self, run_copy, capsys):
        (run_copy / "density.csv").unlink()
        err = self.assert_error_exit(capsys, "compare", str(run_copy), str(run_copy))
        assert "density.csv" in err

    @pytest.mark.parametrize("name,cut,says", [
        pytest.param("density.csv", lambda lines: lines[:3] + [lines[3].rsplit(b",", 1)[0]
                                                               + b",nan\n"] + lines[4:],
                     "not finite", id="nan"),
        pytest.param("control.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(b",", 1)[0]
                                                                + b",inf\n"],
                     "not finite", id="inf"),
        pytest.param("control.csv", lambda lines: lines[:len(lines) // 2]
                     + [lines[len(lines) // 2][:4]], "cannot read", id="mid_row"),
        pytest.param("control.csv", lambda lines: lines[:1], "cannot read", id="header_only"),
        pytest.param("density.csv", lambda lines: lines[:5] + lines[6:],
                     "one row per (t, x) pair", id="dropped_row"),
        pytest.param("flows.csv", lambda lines: [line.rsplit(b",", 1)[0] + b"\n"
                                                 for line in lines],
                     "rows of 3 values", id="two_columns")])
    def test_compare_truncated_csv(self, run_copy, name, cut, says, capsys):
        path = run_copy / name
        path.write_bytes(b"".join(cut(path.read_bytes().splitlines(keepends=True))))
        err = self.assert_error_exit(capsys, "compare", str(run_copy), str(run_copy))
        assert name in err and says in err, err

    @pytest.mark.parametrize("i,j,says", [(2, 3, "node grid"), (1, -1, "unexpected row order")],
                             ids=["same_time", "different_times"])
    def test_compare_density_rows_out_of_order(self, quick_free, run_copy, i, j, says, capsys):
        # two nodes of the first time row swapped (read by sorted x, each of
        # the two values would pair with the other's node), or the first and
        # last rows, which hold different times
        path = run_copy / "density.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[i], lines[j] = lines[j], lines[i]
        path.write_bytes(b"".join(lines))
        original = quick_free[0].law("free_inlet").directory
        err = self.assert_error_exit(capsys, "compare", original, str(run_copy))
        assert "density.csv" in err and says in err, err

    def test_compare_control_on_another_grid(self, quick_free, run_copy, capsys):
        trace = runner.load_trace(str(run_copy))
        runner._write_long(str(run_copy / "control.csv"), "t,x,u",
                           trace.times, 2.0 * trace.x, trace.u)
        original = quick_free[0].law("free_inlet").directory
        err = self.assert_error_exit(capsys, "compare", original, str(run_copy))
        assert "control.csv" in err and "node grid" in err

    @pytest.mark.parametrize("name,columns", [("control.csv", None), ("flows.csv", 3),
                                              ("bottleneck.csv", 2)])
    def test_compare_file_at_other_times(self, run_copy, name, columns, capsys):
        path = run_copy / name
        if columns is None:
            trace = runner.load_trace(str(run_copy))
            runner._write_long(str(path), "t,x,u", trace.times + 1.0, trace.x, trace.u)
        else:
            header = path.read_text().splitlines()[0]
            table = runner._read_table(str(path), columns)
            table[:, 0] += 1.0
            runner._write_columns(str(path), header, *table.T)
        err = self.assert_error_exit(capsys, "compare", str(run_copy), str(run_copy))
        assert name in err and "times" in err

    @pytest.mark.parametrize("longer_first", [False, True])
    def test_compare_different_roads(self, quick_free, run_copy, longer_first, capsys):
        # the copy's nodes stretched to [0, 2]: one error line, not a clamped gap
        trace = runner.load_trace(str(run_copy))
        for name, header, values in (("density.csv", "t,x,density", trace.rho),
                                     ("control.csv", "t,x,u", trace.u)):
            runner._write_long(str(run_copy / name), header, trace.times, 2.0 * trace.x, values)
        dirs = [quick_free[0].law("free_inlet").directory, str(run_copy)]
        if longer_first:
            dirs.reverse()
        err = self.assert_error_exit(capsys, "compare", *dirs)
        assert "different roads" in err and len(err.splitlines()) == 1

    def test_compare_metadata_without_rho_star(self, run_copy, capsys):
        path = run_copy / "metadata.json"
        meta = json.loads(path.read_text())
        del meta["rho_star"]
        path.write_text(json.dumps(meta))
        err = self.assert_error_exit(capsys, "compare", str(run_copy), str(run_copy))
        assert "metadata.json" in err and "rho_star" in err

    def test_compare_without_metadata(self, run_copy, capsys):
        # metadata.json is written last: a law directory without it is unfinished
        (run_copy / "metadata.json").unlink()
        err = self.assert_error_exit(capsys, "compare", str(run_copy), str(run_copy))
        assert "metadata.json" in err

    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def allocate(*args, **kwargs):
            raise _ArrayMemoryError((10 ** 12,), np.dtype(float))
        monkeypatch.setattr(free_inlet, "simulate", allocate)
        out = tmp_path / "o"
        assert cli.main(["run", "--preset", "paper-sec5-free", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err
        assert not out.exists()

    def test_run_into_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        err = self.assert_error_exit(capsys, "run", "--preset", "paper-sec5-free",
                                     "--out", str(target))
        assert str(target) in err
        assert target.read_text() == "not a directory\n"

    def test_fixed_run_past_the_exp_limit(self, tmp_path, capsys):
        # sigma * horizon = 720 > log(float max): refused before the Picard solve
        cfg = with_overrides(RunConfig(), law="fixed_inlet", mode="override", n_cells=20,
                             horizon=6000.0, snapshots=3, picard_time_samples=2)
        path = tmp_path / "c.ini"
        save_config(cfg, str(path))
        err = self.assert_error_exit(capsys, "run", "--config", str(path),
                                     "--out", str(tmp_path / "o"))
        assert "sigma * horizon = 720 exceeds" in err

    def test_oracle_over_its_step_budget(self, tmp_path, capsys):
        # cfl_cap = 1e-9 asks for about 1.2e13 oracle steps: refused before
        # the first, so the run takes about as long as the free-law solve
        cfg = with_overrides(preset("paper-sec5-free"), oracle_enabled=True,
                             oracle_cfl_cap=1e-9)
        path, out = tmp_path / "c.ini", tmp_path / "o"
        save_config(cfg, str(path))
        start = time.perf_counter()
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: the oracle would take about 1.2e+13 steps"), err
        assert err.count("\n") == 1 and not out.exists()

    def test_fixed_law_escape_names_time_and_gains(self, tmp_path, capsys):
        # an admissible cubic start under gains whose curvature margin
        # fails: the control leaves (0, 1] at the first snapshot after 0
        path, out = tmp_path / "c.ini", tmp_path / "o"
        path.write_text(
            "[scenario]\nn_cells = 50\nhorizon = 7.314046703668047\nsnapshots = 7\n"
            "profile = polynomial\n"
            "poly_coeffs = 0.7,0.1570099873246555,-1.1957364099100254,1.8950631683883516\n"
            "[controller]\nlaw = fixed_inlet\nsigma = 0.09593319439263814\n"
            "gamma = 0.08037310843080396\nmode = override\n")
        cfg = load_config(str(path))
        scenario = build_scenario(cfg)
        gains = runner._build_gains(cfg, scenario, "fixed_inlet")
        assert fixed_inlet.admissible(gains, scenario.diagram, scenario.rho0).ok
        assert [c.name for c in gains.conditions if not c.passed] == ["curvature_margin"]
        err = self.assert_error_exit(capsys, "run", "--config", str(path), "--out", str(out))
        assert err == ("error: at t = 1.21901: control 1.00186 left (0, 1] at x = 1; the state "
                       "left the admissible family; the gains are not certified\n")
        assert not out.exists()

    def test_run_imports_no_scipy(self, tmp_path):
        # numpy is the one runtime dependency; a full preset run in its own
        # process must not import scipy, not even lazily
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from vslcontrol.cli import main; "
             "rc = main(['run', '--preset', 'paper-sec5-free', '--out', 'o']); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
             "sys.exit(rc)"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "free_inlet: ok" in proc.stdout
        assert proc.stdout.rstrip().endswith("[]"), proc.stdout

    def test_console_script_entry_point(self, tmp_path):
        # An installed `vslcontrol` script is only the wrapper pip generates
        # from [project.scripts]; check that mapping and run its target in a
        # fresh process the way the wrapper does, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["vslcontrol"]
        assert target == "vslcontrol.cli:main"
        module, func = target.split(":")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {func}; sys.exit({func}())",
             "certify", "--preset", "paper-sec5-free"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "gain" in proc.stdout, proc.stderr


class TestBenchmarkHooks:
    def test_every_traced_target_records_a_span(self, tmp_path, capsys):
        tracing = load_benchmark_module("tracing")
        cfg = with_overrides(preset("paper-sec5-free"), n_cells=40, horizon=1.0,
                             snapshots=3, law="both", mode="override",
                             oracle_enabled=True, oracle_n_cells=40,
                             free_u_gap_tol=1.0, fixed_u_gap_tol=1.0)
        p = str(tmp_path / "c.ini")
        save_config(cfg, p)
        out = str(tmp_path / "o")
        law_dir = os.path.join(out, "free_inlet")
        recorder = tracing.Recorder()
        recorder.install()
        try:
            assert cli.main(["run", "--config", p, "--out", out]) == 0
            assert cli.main(["compare", law_dir, os.path.join(law_dir, "oracle")]) == 0
        finally:
            recorder.uninstall()
        seen = {span.name for span in recorder.spans}
        want = {tracing._span_name(m, a) for m, a, _ in tracing.TARGETS}
        assert not want - seen, sorted(want - seen)

    @pytest.mark.parametrize("name", list(load_benchmark_module("workloads").WORKLOADS))
    def test_workload_passes_its_check(self, name, tmp_path):
        workload = load_benchmark_module("workloads").WORKLOADS[name](1, True, str(tmp_path))
        assert workload.check(workload.case(0)) == []


class TestLongWriter:
    """runner._write_long against a per-cell reference writer."""

    SPECIALS = [-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1, -2.5e-17]

    @staticmethod
    def reference(path, header, times, x, grid):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for j in range(times.size):
                for i in range(x.size):
                    fh.write("%.17g,%.17g,%.17g\n" % (times[j], x[i], grid[j, i]))

    def test_float_and_float64_format_alike(self):
        for v in self.SPECIALS:
            assert runner.FMT % v == runner.FMT % np.float64(v)

    @pytest.mark.parametrize("n_times", [1, 3])
    @pytest.mark.parametrize("n_nodes", [1, 1601])
    def test_bytes_equal_reference(self, tmp_path, n_times, n_nodes):
        rng = np.random.default_rng(n_times * 10000 + n_nodes)
        times = np.array([0.0, -0.0, 1.0 / 3.0])[:n_times]
        x = np.linspace(0.0, 1.0, n_nodes)
        grid = rng.standard_normal((n_times, n_nodes)) * 10.0 ** rng.integers(-300, 300, n_nodes)
        k = min(grid.size, len(self.SPECIALS))
        grid.flat[:k] = self.SPECIALS[:k]
        self.assert_matches(tmp_path, times, x, grid)

    @pytest.mark.parametrize("value", SPECIALS)
    def test_special_value_in_every_column(self, tmp_path, value):
        one = np.array([value])
        self.assert_matches(tmp_path, one, one, one[None, :])

    def assert_matches(self, tmp_path, times, x, grid):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        runner._write_long(str(got), "t,x,v", times, x, grid)
        self.reference(str(want), "t,x,v", times, x, grid)
        assert got.read_bytes() == want.read_bytes()

    def test_peak_memory_below_speed_limits(self, tmp_path):
        # the writers do not set a run's peak memory: one fine-grid-shaped
        # long file (61 x 1601, written HEAP_BLOCK values at a time) peaks
        # below speed_limits on the same field, whose cells pass delta
        cfg = RunConfig(law="fixed_inlet", n_cells=1600, horizon=60.0, snapshots=61,
                        vsl_sensitivity=1.0, mode="override",
                        bump_amplitude=3.5, bump_width=1.17)
        scenario = build_scenario(cfg)
        trace = fixed_inlet.simulate(scenario, runner._build_gains(cfg, scenario, "fixed_inlet"),
                                     build_picard(cfg))
        d = scenario.diagram
        assert trace.rho.shape == (61, 1601) and np.any(trace.rho > d.delta)
        path = str(tmp_path / "density.csv")
        work = [lambda: runner._write_long(path, "t,x,density", trace.times, trace.x, trace.rho),
                lambda: speed_limits(d, trace.rho, trace.u)]
        peaks = []
        for call in work:
            call()  # loads csvformat or warmstart before the measured call
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1], peaks


class TestColumnWriter:
    """runner._write_columns against a per-cell reference writer."""

    SPECIALS = TestLongWriter.SPECIALS

    @staticmethod
    def reference(path, header, *columns):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for j in range(columns[0].size):
                fh.write(",".join("%.17g" % c[j] for c in columns) + "\n")

    @pytest.mark.parametrize("n_rows", [1, 41])
    @pytest.mark.parametrize("n_columns", [1, 3])
    def test_bytes_equal_reference(self, tmp_path, n_rows, n_columns):
        rng = np.random.default_rng(n_rows * 10 + n_columns)
        columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
                   for _ in range(n_columns)]
        k = min(n_rows, len(self.SPECIALS))
        for i, c in enumerate(columns):
            c[:k] = np.roll(self.SPECIALS, i)[:k]
        self.assert_matches(tmp_path, *columns)

    @pytest.mark.parametrize("value", SPECIALS)
    def test_special_value_in_every_column(self, tmp_path, value):
        self.assert_matches(tmp_path, *[np.array([value])] * 3)

    def assert_matches(self, tmp_path, *columns):
        header = ",".join(f"c{i}" for i in range(len(columns)))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        runner._write_columns(str(got), header, *columns)
        self.reference(str(want), header, *columns)
        assert got.read_bytes() == want.read_bytes()


class TestFormatBlock:
    """csvformat.format_block against Python's own FMT, one value at a time."""

    @staticmethod
    def values() -> np.ndarray:
        """Over a million values that stress each step of the exact path."""
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
        magnitudes = np.exp(rng.uniform(np.log(1e-8), np.log(1e18), 300_000))
        magnitudes *= rng.choice([-1.0, 1.0], magnitudes.size)
        k = np.arange(-60, 61, dtype=float)
        dyadic = np.concatenate([2.0 ** k, 3.0 * 2.0 ** k, 5.0 * 2.0 ** k,
                                 1.0 + 2.0 ** -k[k > 0], 1.0 - 2.0 ** -k[k > 0]])
        # exact ties of the 17th digit: odd / 2**(17 - e) in [10**e, 10**(e + 1))
        ties = []
        for e in range(-4, 16):
            j = 17 - e
            lo, hi = int(10.0 ** e * 2 ** j), min(int(10.0 ** (e + 1) * 2 ** j), 2 ** 53)
            odd = rng.integers(lo // 2, hi // 2, 5000) * 2 + 1
            ties.append(np.ldexp(odd.astype(float), -j))
        rounded = np.array([round(m, int(d)) for m, d in zip(
            (rng.uniform(-1.0, 1.0, 150_000) * 10.0 ** rng.integers(-4, 17, 150_000)).tolist(),
            rng.integers(1, 18, 150_000))])
        edges = np.concatenate([10.0 ** np.arange(-5, 19), -10.0 ** np.arange(-5, 19)])
        steps = [edges]
        for _ in range(8):
            steps = ([np.nextafter(steps[0], 0.0)] + steps
                     + [np.nextafter(steps[-1], np.inf * edges)])
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf])
        parts = [bits, magnitudes, dyadic, -dyadic, *ties, rounded,
                 np.nextafter(rounded, np.inf), np.nextafter(rounded, -np.inf), *steps, specials]
        return np.concatenate(parts)

    @staticmethod
    def format_rows(values: np.ndarray) -> list[bytes]:
        out = []
        for s in range(0, values.size, 65536):
            rows = np.ascontiguousarray(csvformat.format_block(values[s:s + 65536]))
            out.extend(rows.view(f"S{rows.shape[1]}").ravel().tolist())
        return out

    def test_equals_python_byte_for_byte(self):
        values = self.values()
        assert values.size >= 1_000_000
        got = self.format_rows(values)
        want = [(runner.FMT % v).encode("ascii") for v in values.tolist()]
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
            pytest.fail(f"{len(bad)} values differ, such as {bad[:5]}")

    def test_rows_are_left_aligned_and_padded_with_nul(self):
        rows = csvformat.format_block(np.array([-1e16, 0.5, 1.0, np.nan]))
        assert rows.dtype == np.uint8 and rows.shape[1] <= 24
        text = [bytes(r).rstrip(b"\0") for r in rows]
        assert text == [b"-10000000000000000", b"0.5", b"1", b"nan"]
        assert all(b"\0" not in t for t in text)
        assert csvformat.format_block(np.array([])).shape == (0, 0)

    def test_loaded_on_the_first_write_only(self, tmp_path):
        # a process that writes no CSV (the oracle workloads) neither loads
        # the formatter nor builds its tables
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy as np, vslcontrol; "
             "print('vslcontrol.csvformat' in sys.modules); "
             "vslcontrol.runner._write_columns('c.csv', 'a', np.ones(3)); "
             "print('vslcontrol.csvformat' in sys.modules)"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        scalar = csvformat.format_scalar

        def counting(value):
            calls.append(value)
            return scalar(value)
        monkeypatch.setattr(csvformat, "format_scalar", counting)
        return calls

    def test_fine_grid_fields_take_the_exact_path(self, counted, tmp_path):
        cfg = RunConfig(law="both", n_cells=1600, horizon=60.0, snapshots=61,
                        vsl_sensitivity=1.0, mode="override",
                        bump_amplitude=3.5, bump_width=1.17)
        scenario = build_scenario(cfg)
        for law, module in (("free_inlet", free_inlet), ("fixed_inlet", fixed_inlet)):
            trace = module.simulate(scenario, runner._build_gains(cfg, scenario, law),
                                    build_picard(cfg))
            limits = speed_limits(scenario.diagram, trace.rho, trace.u)
            for grid in (trace.rho, trace.u, limits):
                assert grid.shape == (61, 1601)
                csvformat.format_block(grid)
        assert counted == []
        # a whole file: t = 0 and x = 0 are the only values outside, each formatted once
        runner._write_long(str(tmp_path / "d.csv"), "t,x,density",
                           trace.times, trace.x, trace.rho)
        assert counted == [0.0, 0.0]

    def test_specials_fall_back_exactly_when_outside(self, counted):
        specials = TestLongWriter.SPECIALS
        csvformat.format_block(np.array(specials))
        outside = [v for v in specials if not 1e-4 <= abs(v) < 1e17]
        assert [runner.FMT % v for v in counted] == [runner.FMT % v for v in outside]
        assert len(outside) == len(specials) - 1


def test_every_exported_name_resolves():
    for name in vslcontrol.__all__:
        assert getattr(vslcontrol, name) is not None, name


def test_readme_library_block_runs():
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library entry points\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
