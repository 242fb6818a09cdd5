"""Front end: config parsing, dispatch, CSV contract, exit codes."""

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from dipole_loop import cli
from dipole_loop.errors import ConfigError


def write_conf(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_csv(path):
    """Split a CSV artifact into (comment lines, header, data rows)."""
    lines = open(path, encoding="utf-8").read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = list(csv.reader(io.StringIO("\n".join(ln for ln in lines if not ln.startswith("#")))))
    return comments, body[0], body[1:]


class TestParseGrid:
    def test_log(self):
        g = cli.parse_grid("1:100:3,log")
        assert np.allclose(g, [1.0, 10.0, 100.0])

    def test_lin(self):
        g = cli.parse_grid("0:1:5,lin")
        assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("bad", [
        "1:100:3", "1:100,log", "1:100:3,geo", "a:100:3,log", "1:100:1,lin",
        "-1:100:3,log", "1:2:3:4,lin",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cli.parse_grid(bad)


class TestParseConfig:
    def test_defaults(self):
        cfg = cli.parse_config("")
        assert cfg["atoms.m1"] == 1.0
        assert cfg["atoms.m2"] == 0.95
        assert cfg["jc.n_list"] == (0, 1, 5)
        assert cfg["cavity.z"] is None

    def test_values_and_comments(self):
        cfg = cli.parse_config(
            "# a comment\n"
            "atoms.m1 = 2.0  # trailing comment\n"
            "\n"
            "jc.rwa = false\n"
            "jc.n_list = 0,2\n"
        )
        assert cfg["atoms.m1"] == 2.0
        assert cfg["jc.rwa"] is False
        assert cfg["jc.n_list"] == (0, 2)

    def test_collects_all_errors(self):
        text = (
            "atom.m1 = 1\n"       # unknown section
            "atoms.m1 = -1\n"     # positivity
            "atoms.m2 = abc\n"    # unparsable
            "no equals here\n"    # malformed
            "atoms.m2 = 0.9\n"    # duplicate of line 3
        )
        with pytest.raises(ConfigError) as err:
            cli.parse_config(text)
        problems = err.value.problems
        assert len(problems) == 5
        assert any("line 1" in p and "unknown key" in p for p in problems)
        assert any("line 2" in p and "atoms.m1" in p and "positive" in p for p in problems)
        assert any("line 3" in p and "atoms.m2" in p for p in problems)
        assert any("line 4" in p and "key = value" in p for p in problems)
        assert any("line 5" in p and "duplicate" in p for p in problems)

    def test_mass_ordering(self):
        with pytest.raises(ConfigError, match="m1 must be >="):
            cli.parse_config("atoms.m1 = 0.9\natoms.m2 = 0.95\n")

    def test_truncation_headroom(self):
        with pytest.raises(ConfigError, match="n_init"):
            cli.parse_config("jc.n_init = 7\njc.n_max = 8\n")
        with pytest.raises(ConfigError, match="n_list"):
            cli.parse_config("jc.n_list = 0,7\njc.n_max = 8\n")

    def test_grid_specs_validated(self):
        with pytest.raises(ConfigError, match="lambda_grid"):
            cli.parse_config("regulator.lambda_grid = 10:100:x,log\n")
        with pytest.raises(ConfigError, match="lambda_grid"):
            cli.parse_config("nr.lambda_grid = 1:2:3,geo\n")

    def test_echo_sorted_and_stable(self):
        cfg = cli.parse_config("atoms.m1 = 2.0\n")
        lines = cfg.echo_lines()
        keys = [ln.split("=", 1)[0] for ln in lines]
        assert keys == sorted(keys)
        assert "# atoms.m1 = 2.00000000000000000e+00" in lines
        assert cfg.echo_lines() == lines


class TestDispatchExitCodes:
    def test_success_and_artifact(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "")
        code = cli.main(["check-dims", "--config", conf, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "check-dims" in capsys.readouterr().out
        comments, header, rows = read_csv(str(tmp_path / "out" / "check_dims.csv"))
        assert header[0].startswith("interaction")
        assert ["P_tilde", "3", "1", "%.17e" % 1.0, "non_renormalizable"] in rows
        assert ["P", "3", "0", "%.17e" % 0.0, "marginal"] in rows
        assert ["P", "2", "-1/2", "%.17e" % -0.5, "super"] in rows
        assert ["P_tilde", "2", "1/2", "%.17e" % 0.5, "non_renormalizable"] in rows

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["check-dims", "--config", str(tmp_path / "nope.conf")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_lists_all(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "atom.m1 = 1\natoms.m2 = abc\n")
        code = cli.main(["check-dims", "--config", conf])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "line 2" in err

    def test_domain_error_is_3(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "selfenergy.s_max = -0.5\n")
        code = cli.main(["loop-selfenergy", "--config", conf, "--out", str(tmp_path)])
        assert code == 3
        assert "branch point" in capsys.readouterr().err

    def test_exact_path_threshold_is_3(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "selfenergy.path = exact\nselfenergy.level = 1\n")
        code = cli.main(["loop-selfenergy", "--config", conf, "--out", str(tmp_path)])
        assert code == 3
        assert "decay threshold" in capsys.readouterr().err

    def test_oracle_failure_is_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "master_integral", lambda kind, s, lam: 0.0)
        conf = write_conf(tmp_path, "")
        code = cli.main(["oracle-verify", "--config", conf, "--out", str(tmp_path)])
        assert code == 4
        assert "oracle check failed" in capsys.readouterr().err

    def test_oracle_verify_passes(self, tmp_path):
        conf = write_conf(tmp_path, "")
        assert cli.main(["oracle-verify", "--config", conf, "--out", str(tmp_path)]) == 0

    def test_unknown_command_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["fly", "--config", "x"])

    def test_dispatch_unknown_command(self):
        with pytest.raises(ConfigError):
            cli.dispatch("fly", cli.parse_config(""))

    def test_jc_rabi_needs_splitting(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "atoms.m1 = 1.0\natoms.m2 = 1.0\n")
        code = cli.main(["jc-rabi", "--config", conf, "--out", str(tmp_path)])
        assert code == 2
        assert "resonance" in capsys.readouterr().err


class TestCsvContract:
    def test_provenance_echo(self, tmp_path):
        conf = write_conf(tmp_path, "atoms.m1 = 2.0\natoms.m2 = 1.9\n")
        cli.main(["check-dims", "--config", conf, "--out", str(tmp_path)])
        comments, _, _ = read_csv(str(tmp_path / "check_dims.csv"))
        assert comments[0] == "# command = check-dims"
        assert "# atoms.m1 = 2.00000000000000000e+00" in comments
        # every registered key appears exactly once
        keys = [c.split(" = ")[0][2:] for c in comments[1:]]
        assert keys == sorted(cli._REGISTRY)

    def test_float_format_17_digits(self, tmp_path):
        conf = write_conf(tmp_path, "")
        cli.main(["jc-rabi", "--config", conf, "--out", str(tmp_path)])
        _, header, rows = read_csv(str(tmp_path / "jc_rabi.csv"))
        assert header == ["n[1]", "period_measured[natural]", "period_predicted[natural]", "rel_err[1]"]
        for row in rows:
            for cell in row[1:]:
                mantissa = cell.split("e")[0]
                assert len(mantissa.replace("-", "").replace(".", "")) == 18

    def test_determinism_across_runs(self, tmp_path):
        conf = write_conf(tmp_path, "")
        cli.main(["jc-rabi", "--config", conf, "--out", str(tmp_path / "a")])
        cli.main(["jc-rabi", "--config", conf, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "jc_rabi.csv").read_bytes()
        b = (tmp_path / "b" / "jc_rabi.csv").read_bytes()
        assert a == b

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        conf = write_conf(tmp_path, "")
        monkeypatch.setenv("DIPOLE_LOOP_THREADS", "1")
        cli.main(["oracle-verify", "--config", conf, "--out", str(tmp_path / "a")])
        monkeypatch.setenv("DIPOLE_LOOP_THREADS", "4")
        cli.main(["oracle-verify", "--config", conf, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "oracle_verify.csv").read_bytes()
        b = (tmp_path / "b" / "oracle_verify.csv").read_bytes()
        assert a == b

    def test_bad_thread_env_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DIPOLE_LOOP_THREADS", "many")
        conf = write_conf(tmp_path, "")
        code = cli.main(["jc-rabi", "--config", conf, "--out", str(tmp_path)])
        assert code == 2


class TestImportFloor:
    def test_commands_run_without_scipy(self, tmp_path):
        # only oracle-verify needs scipy; the other commands run on numpy
        conf = write_conf(tmp_path, "")
        script = (
            "import sys\n"
            "from dipole_loop.cli import main\n"
            "for command in ('loop-vertex', 'jc-rabi'):\n"
            f"    assert main([command, '--config', {conf!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"


class TestLambdaGridFlag:
    def test_sweep_rows(self, tmp_path):
        conf = write_conf(tmp_path, "")
        code = cli.main([
            "loop-vertex", "--config", conf, "--out", str(tmp_path),
            "--lambda-grid", "10:1000:3,log",
        ])
        assert code == 0
        comments, _, rows = read_csv(str(tmp_path / "loop_vertex.csv"))
        assert len(rows) == 3
        assert "# regulator.lambda_grid = 10:1000:3,log" in comments
        lams = [float(r[0]) for r in rows]
        assert lams == sorted(lams)

    def test_bad_flag_is_config_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "")
        code = cli.main([
            "loop-vertex", "--config", conf, "--out", str(tmp_path),
            "--lambda-grid", "10:1000:x,log",
        ])
        assert code == 2


class TestSIBoundary:
    def test_si_config_matches_natural(self, tmp_path):
        from dipole_loop.units import UnitSystem

        us = UnitSystem("SI", 1.0)
        si = "\n".join([
            "units.mode = SI",
            f"atoms.m1 = {us.to_si(1.0, 'mass'):.17e}",
            f"atoms.m2 = {us.to_si(0.95, 'mass'):.17e}",
            f"dipole.dx = {us.to_si(0.01, 'dipole_moment'):.17e}",
            "dipole.dy = 0.0",
            "dipole.dz = 0.0",
            f"cavity.omega = {us.to_si(0.05, 'angular_frequency'):.17e}",
            f"cavity.volume = {us.to_si(1.0, 'volume'):.17e}",
        ]) + "\n"
        conf_si = write_conf(tmp_path, si, "si.conf")
        conf_nat = write_conf(tmp_path, "", "nat.conf")
        cli.main(["jc-rabi", "--config", conf_si, "--out", str(tmp_path / "si")])
        cli.main(["jc-rabi", "--config", conf_nat, "--out", str(tmp_path / "nat")])
        _, _, rows_si = read_csv(str(tmp_path / "si" / "jc_rabi.csv"))
        _, _, rows_nat = read_csv(str(tmp_path / "nat" / "jc_rabi.csv"))
        for a, b in zip(rows_si, rows_nat):
            assert float(a[1]) == pytest.approx(float(b[1]), rel=1e-12)


class TestJcEvolveCommand:
    def test_full_oscillation_recorded(self, tmp_path):
        conf = write_conf(tmp_path, "jc.n_times = 101\n")
        assert cli.main(["jc-evolve", "--config", conf, "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(str(tmp_path / "jc_evolve.csv"))
        assert header[0] == "time[natural]"
        assert len(rows) == 101
        pe = [float(r[1]) for r in rows]
        assert pe[0] == pytest.approx(1.0)
        assert min(pe) < 1e-6  # reaches the lower level twice over two periods
        norms = [float(r[3]) for r in rows]
        assert max(abs(n - 1.0) for n in norms) < 1e-12
