"""Run directories, config round-trips, and the command-line surface.

Proves:
  1.  serialize/parse is the identity on every preset and on overridden
      configs, including None sentinels and tuple-valued fields; the
      serialized default config and presets keep their pinned SHA-256
  2.  unknown keys, keys under [DEFAULT], bad enum values and malformed
      numbers raise ConfigError; the INI example in README.md parses
  3.  run() writes the documented file set; norms.csv respects the decay
      bound row by row; load_trace round-trips the arrays bit for bit;
      report.txt states the grid the trace was computed on; limits.csv of
      a run whose densities pass delta (a = 1) keeps its pinned SHA-256
  4.  two runs of the same config produce byte-identical files
  5.  compare_runs of a directory against itself is exactly zero
  6.  certify() reports the failing curvature margin without raising;
      certify and report.txt both carry the diagram's exact single_flow_peak
      and strict_concavity verdicts: pass on the presets, a non-concave
      free run (rho_max 2.5) reports strict_concavity FAIL and exits 0, a
      diagram with no peak (rho_max 0.9) is certified as failing and its
      run exits 2; on every preset the certification block of report.txt,
      written from the run's own gains (one calibration per run), equals
      certify's output
  7.  the CLI returns 0 on clean runs, 2 on usage errors, and prints one
      status line per law; a compare of a run directory with a missing,
      truncated or incomplete file, with density.csv rows out of x order,
      with control.csv on another node grid, or with control.csv,
      flows.csv or bottleneck.csv at other times, a run into an existing
      file and a fixed-law run with sigma * horizon past log(float max)
      exit 2 with an error line and no traceback; the [project.scripts] entry
      point declared in pyproject.toml resolves to vslcontrol.cli:main and
      runs as its own process; a preset run imports no scipy module
  8.  a non-finite float in any config key, a gain outside its window, a
      strict calibration failure, keys under [DEFAULT] and each removed
      key ([diagram] kind, [oracle] scheme, dt, escape_factor) all exit 2
      with an error line and leave no run directory
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
      importing the package does not load the formatter, the first write does
 11.  every name in vslcontrol.__all__ resolves
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vslcontrol
from conftest import load_benchmark_module
from vslcontrol import cli, csvformat, fixed_inlet, free_inlet, runner
from vslcontrol.config import (_FIELD_TYPES, _LAYOUT, ConfigError, PRESETS, RunConfig,
                               build_picard, build_scenario, load_config, parse_config,
                               preset, save_config, serialize_config, with_overrides)
from vslcontrol.fundamental_diagram import speed_limits

# short horizons need a looser terminal u-gap than the presets' long-run targets
QUICK = dict(n_cells=60, horizon=3.0, snapshots=7,
             free_u_gap_tol=0.2, fixed_u_gap_tol=0.2)
SRC = Path(vslcontrol.__file__).resolve().parents[1]


def cli_process(*args: str, cwd) -> subprocess.CompletedProcess:
    """`python -m vslcontrol.cli ARGS` in a fresh process on this checkout."""
    return subprocess.run([sys.executable, "-m", "vslcontrol.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


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


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name):
        cfg = preset(name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_none_and_tuple_fields(self):
        cfg = with_overrides(RunConfig(), picard_window=0.5, uniform_value=0.8,
                             profile_kind="polynomial",
                             poly_coeffs=(0.7, 0.0, 1.5e-3))
        assert parse_config(serialize_config(cfg)) == cfg

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

    def test_malformed_number_rejected(self):
        text = serialize_config(RunConfig()).replace("sigma = 0.12", "sigma = fast")
        with pytest.raises(ConfigError):
            parse_config(text)

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
        None: "b0ba1ad5e6c793b962d41177c9a0ba6046f84fdabe03d74fb2971fb2ada2359d",
        "paper-sec5-free": "93053e6bf2c8542fecf7db9231fb08c0216e46a7c3bf0f7a5daa8f26526a62f9",
        "paper-sec5-fixed": "e1ac642248b654cc350a1238c420d066a76fdf9e55ff232a7e563c00c9b95db0",
        "paper-fig7": "06f9cd1547fdcc93d9894afd5bdeca7ba425fed3401e168f8344dc8ba54c42ae",
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
        assert os.path.isfile(os.path.join(res.directory, "config.ini"))
        for name in ("density.csv", "control.csv", "limits.csv", "norms.csv",
                     "flows.csv", "bottleneck.csv", "metadata.json", "report.txt"):
            assert os.path.isfile(os.path.join(law_dir, name)), name

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

    def test_norms_bound_row_by_row(self, quick_free):
        res, _ = quick_free
        path = os.path.join(res.law("free_inlet").directory, "norms.csv")
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-12)

    def test_load_trace_round_trips_bitwise(self, quick_free):
        res, _ = quick_free
        law = res.law("free_inlet")
        loaded = runner.load_trace(law.directory)
        np.testing.assert_array_equal(loaded.rho, law.trace.rho)
        np.testing.assert_array_equal(loaded.u, law.trace.u)
        np.testing.assert_array_equal(loaded.times, law.trace.times)
        assert loaded.metadata["law"] == "free_inlet"

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
        text = open(os.path.join(law.directory, "report.txt")).read()
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
        # at vsl_sensitivity = 0 the limits are the controls, and limits.csv
        # is control.csv's rows under its own header, oracle traces included
        dirs = []
        for res, cfg in (quick_free, quick_fixed):
            assert cfg.vsl_sensitivity == 0.0
            for law in res.laws:
                oracle = os.path.join(law.directory, "oracle")
                dirs += [law.directory] + ([oracle] if os.path.isdir(oracle) else [])
        assert len(dirs) == 3
        for where in dirs:
            with open(os.path.join(where, "control.csv"), "rb") as fh:
                control = fh.read()
            with open(os.path.join(where, "limits.csv"), "rb") as fh:
                limits = fh.read()
            assert control.startswith(b"t,x,u\n") and len(control) > 1000
            assert limits == b"t,x,l\n" + control[len(b"t,x,u\n"):]

    def test_report_mentions_certification(self, quick_fixed):
        res, _ = quick_fixed
        text = open(os.path.join(res.law("fixed_inlet").directory,
                                 "report.txt")).read()
        assert "curvature_margin" in text
        assert "FAIL" in text
        assert "decay_rate_bound" in text

    def test_determinism(self, tmp_path):
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK)
        a = runner.run(cfg, str(tmp_path / "a"))
        b = runner.run(cfg, str(tmp_path / "b"))
        for name in ("density.csv", "control.csv", "norms.csv"):
            fa = open(os.path.join(a.law("free_inlet").directory, name), "rb").read()
            fb = open(os.path.join(b.law("free_inlet").directory, name), "rb").read()
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


class TestCertify:
    def test_reports_failure_without_raising(self):
        text = runner.certify(preset("paper-sec5-fixed"))
        assert "curvature_margin" in text and "FAIL" in text

    def test_free_law_reports_gain_window(self):
        text = runner.certify(preset("paper-sec5-free"))
        assert "gain" in text
        assert "1.42857" in text  # 1/(L rho_star)


class TestDiagramConditions:
    """The family's exact conditions, reported by certify and report.txt alike."""

    def test_presets_pass(self, quick_free):
        res, _ = quick_free
        text = open(os.path.join(res.law("free_inlet").directory, "report.txt")).read()
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
        text = open(os.path.join(res.law(cfg.law).directory, "report.txt")).read()
        block = text[text.index("certification:\n"):text.index("\n\nconstants:")] + "\n"
        assert block == runner.certify(cfg)

    def test_non_concave_free_run_reports_but_runs(self, tmp_path, capsys):
        cfg = with_overrides(preset("paper-sec5-free"), rho_max=2.5)
        path = str(tmp_path / "c.ini")
        save_config(cfg, path)
        out = str(tmp_path / "o")
        assert cli.main(["run", "--config", path, "--out", out]) == 0
        assert "free_inlet: ok" in capsys.readouterr().out
        assert cli.main(["certify", "--config", path]) == 0
        cert = capsys.readouterr().out
        report = open(os.path.join(out, "free_inlet", "report.txt")).read()
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

    def test_config_file_input(self, tmp_path, capsys):
        cfg = with_overrides(preset("paper-sec5-free"), **QUICK)
        p = str(tmp_path / "c.ini")
        save_config(cfg, p)
        rc = cli.main(["run", "--config", p, "--out", str(tmp_path / "o")])
        assert rc == 0

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
            cli.main(["certify", "--preset", "paper-sec5-fixed",
                      "--strict", "--override"])
        assert exc.value.code == 2

    def test_non_finite_floats_exit_two(self, tmp_path, capsys):
        floats = [(key, name) for _, key, name in _LAYOUT if "float" in _FIELD_TYPES[name]]
        assert len(floats) == 22
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
        p = str(tmp_path / "c.ini")
        save_config(with_overrides(preset("paper-sec5-free"), free_gain=2.0), p)
        defaults = tmp_path / "defaults.ini"
        defaults.write_text("[DEFAULT]\nlaw = fixed_inlet\nhorizon = 5.0\n")
        for source in (["--config", p], ["--preset", "paper-sec5-fixed", "--strict"],
                       ["--config", str(defaults)]):
            out = tmp_path / "o"
            assert cli.main(["run", *source, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error:")
            assert not out.exists(), source

    @pytest.mark.parametrize("section,key,value", [
        ("diagram", "kind", "exponential"), ("oracle", "scheme", "central_flux_rk4"),
        ("oracle", "dt", "auto"), ("oracle", "escape_factor", "4.0")])
    def test_removed_key_writes_no_directory(self, tmp_path, capsys, section, key, value):
        p = tmp_path / "c.ini"
        text = serialize_config(with_overrides(preset("paper-sec5-free"), oracle_enabled=True))
        p.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key [{section}] {key}"), err
        assert not out.exists()

    @pytest.fixture
    def run_copy(self, quick_free, tmp_path):
        """A writable copy of a complete free-law run directory."""
        dst = tmp_path / "run"
        shutil.copytree(quick_free[0].law("free_inlet").directory, dst)
        return dst

    @staticmethod
    def assert_error_exit(cwd, *args):
        proc = cli_process(*args, cwd=cwd)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        return proc.stderr

    def test_compare_without_density_file(self, run_copy, tmp_path):
        (run_copy / "density.csv").unlink()
        err = self.assert_error_exit(tmp_path, "compare", str(run_copy), str(run_copy))
        assert "density.csv" in err

    @pytest.mark.parametrize("keep", ["mid_row", "header_only"])
    def test_compare_truncated_csv(self, run_copy, tmp_path, keep):
        path = run_copy / "control.csv"
        data = path.read_bytes()
        end = data.index(b"\n") + 1 if keep == "header_only" else \
            data.rindex(b"\n", 0, len(data) // 2) + 5
        path.write_bytes(data[:end])
        err = self.assert_error_exit(tmp_path, "compare", str(run_copy), str(run_copy))
        assert "control.csv" in err

    def test_compare_density_row_out_of_x_order(self, quick_free, run_copy, tmp_path):
        # two nodes of the first time row swapped: read by sorted x, each of
        # the two values would pair with the other's node
        path = run_copy / "density.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2], lines[3] = lines[3], lines[2]
        path.write_bytes(b"".join(lines))
        original = quick_free[0].law("free_inlet").directory
        err = self.assert_error_exit(tmp_path, "compare", original, str(run_copy))
        assert "density.csv" in err and "node grid" in err

    def test_compare_control_on_another_grid(self, quick_free, run_copy, tmp_path):
        trace = runner.load_trace(str(run_copy))
        runner._write_long(str(run_copy / "control.csv"), "t,x,u",
                           trace.times, 2.0 * trace.x, trace.u)
        original = quick_free[0].law("free_inlet").directory
        err = self.assert_error_exit(tmp_path, "compare", original, str(run_copy))
        assert "control.csv" in err and "node grid" in err

    @pytest.mark.parametrize("name,columns", [("control.csv", None), ("flows.csv", 3),
                                              ("bottleneck.csv", 2)])
    def test_compare_file_at_other_times(self, run_copy, tmp_path, name, columns):
        path = run_copy / name
        if columns is None:
            trace = runner.load_trace(str(run_copy))
            runner._write_long(str(path), "t,x,u", trace.times + 1.0, trace.x, trace.u)
        else:
            header = path.read_text().splitlines()[0]
            table = runner._read_table(str(path), columns)
            table[:, 0] += 1.0
            runner._write_columns(str(path), header, *table.T)
        err = self.assert_error_exit(tmp_path, "compare", str(run_copy), str(run_copy))
        assert name in err and "times" in err

    def test_compare_metadata_without_rho_star(self, run_copy, tmp_path):
        path = run_copy / "metadata.json"
        meta = json.loads(path.read_text())
        del meta["rho_star"]
        path.write_text(json.dumps(meta))
        err = self.assert_error_exit(tmp_path, "compare", str(run_copy), str(run_copy))
        assert "metadata.json" in err and "rho_star" in err

    def test_run_into_existing_file(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        self.assert_error_exit(tmp_path, "run", "--preset", "paper-sec5-free",
                               "--out", str(target))
        assert target.read_text() == "not a directory\n"

    def test_fixed_run_past_the_exp_limit(self, tmp_path):
        # sigma * horizon = 720 > log(float max): refused before the Picard solve
        cfg = with_overrides(RunConfig(), law="fixed_inlet", mode="override", n_cells=20,
                             horizon=6000.0, snapshots=3, picard_time_samples=2)
        path = tmp_path / "c.ini"
        save_config(cfg, str(path))
        err = self.assert_error_exit(tmp_path, "run", "--config", str(path),
                                     "--out", str(tmp_path / "o"))
        assert "sigma * horizon = 720 exceeds" in err

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
        got, want, twin = tmp_path / "got.csv", tmp_path / "want.csv", tmp_path / "twin.csv"
        runner._write_long(str(got), "t,x,v", times, x, grid, (str(twin), "t,x,w"))
        self.reference(str(want), "t,x,v", times, x, grid)
        assert got.read_bytes() == want.read_bytes()
        assert twin.read_bytes() == b"t,x,w" + want.read_bytes()[len(b"t,x,v"):]


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
