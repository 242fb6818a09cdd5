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
        "-1:100:3,log", "1:2:3:4,lin", f"1:100:{cli.MAX_GRID_COUNT + 1},lin",
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

    @pytest.mark.parametrize("key, cap", [
        ("jc.n_max", cli.MAX_N_MAX),
        ("jc.n_times", cli.MAX_N_TIMES),
        ("selfenergy.s_count", cli.MAX_S_COUNT),
    ])
    def test_work_caps(self, key, cap):
        assert cli.parse_config(f"{key} = {cap}\n")[key] == cap
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"# a cap\n{key} = {cap + 1}\n")
        assert err.value.problems == [f"line 2: {key} must be <= {cap}"]

    @pytest.mark.parametrize("key", ["regulator.lambda_grid", "nr.lambda_grid"])
    def test_grid_count_cap(self, key):
        cap = cli.MAX_GRID_COUNT
        assert cli.parse_config(f"{key} = 1e-3:1e3:{cap},log\n")[key] == f"1e-3:1e3:{cap},log"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"# a cap\n{key} = 1e-3:1e3:{cap + 1},log\n")
        assert err.value.problems == [f"line 2: {key}: grid '1e-3:1e3:{cap + 1},log' needs count <= {cap}"]

    def test_n_list_length_cap(self):
        cap = cli.MAX_N_LIST
        at_cap = ",".join(["0"] * cap)
        assert cli.parse_config(f"jc.n_list = {at_cap}\n")["jc.n_list"] == (0,) * cap
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"# a cap\njc.n_list = {at_cap},0\n")
        assert err.value.problems == [f"line 2: jc.n_list must have at most {cap} entries"]

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

    def test_uncreatable_out_dir_is_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = cli.main(["check-dims", "--config", os.devnull, "--out", str(blocker / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: cannot write output" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_unwritable_csv_is_2(self, tmp_path, capsys):
        (tmp_path / "check_dims.csv").mkdir()  # the CSV's name is taken by a directory
        code = cli.main(["check-dims", "--config", os.devnull, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: cannot write output" in err
        assert "Traceback" not in err
        assert (tmp_path / "check_dims.csv").is_dir()

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

    def test_unreachable_quad_tol_is_3(self, tmp_path, capsys):
        # below double precision, so no quadrature can certify it
        conf = write_conf(tmp_path, "regulator.quad_tol = 1e-18\n")
        code = cli.main(["oracle-verify", "--config", conf, "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: radial quadrature")
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

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
        assert keys == sorted(cli._TABLE)

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
        for command in ("jc-rabi", "oracle-verify"):
            name = command.replace("-", "_") + ".csv"
            assert cli.main([command, "--config", conf, "--out", str(tmp_path / "a")]) == 0
            assert cli.main([command, "--config", conf, "--out", str(tmp_path / "b")]) == 0
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestImportFloor:
    def test_commands_run_without_scipy(self, tmp_path):
        # every command runs on numpy alone (scipy is a test dependency),
        # and no command loads a thread pool
        conf = write_conf(tmp_path, "")
        script = (
            "import sys\n"
            "from dipole_loop.cli import COMMANDS, main\n"
            "for command in COMMANDS:\n"
            f"    assert main([command, '--config', {conf!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print('concurrent.futures' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-2:] == ["False", "[]"]


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

    def test_flag_over_count_cap_is_config_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "")
        code = cli.main([
            "loop-selfenergy", "--config", conf, "--out", str(tmp_path),
            "--lambda-grid", f"10:1e4:{cli.MAX_GRID_COUNT + 1},log",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --lambda-grid: grid '10:1e4:{cli.MAX_GRID_COUNT + 1},log' "
            f"needs count <= {cli.MAX_GRID_COUNT}\n"
        )
        assert not any(tmp_path.glob("*.csv"))


class TestRuleCount:
    @pytest.mark.parametrize("command, grid, rules", [
        # one Feynman-parameter rule per cutoff covers its whole s sweep
        # and its on-shell reference
        ("loop-selfenergy", "10:10000:24,log", 24),
        ("loop-selfenergy", None, 1),
        # 2 mass shifts, 2 wavefunction fits, vertex, polarization and
        # the 12-cutoff prefactor fit
        ("report-counterterms", None, 18),
    ])
    def test_rule_count(self, tmp_path, monkeypatch, command, grid, rules):
        calls = []
        rule = cli.renorm._fixed_rule

        def counting(*args, **kwargs):
            calls.append(None)
            return rule(*args, **kwargs)

        monkeypatch.setattr(cli.renorm, "_fixed_rule", counting)
        argv = [command, "--config", write_conf(tmp_path, ""), "--out", str(tmp_path)]
        if grid is not None:
            argv += ["--lambda-grid", grid]
        assert cli.main(argv) == 0
        assert len(calls) == rules


class TestTransformCount:
    @pytest.mark.parametrize("grid", [None, "1e-4:1e-2:200,log"])
    def test_nr_reduce_transforms_whole_grid_once(self, tmp_path, monkeypatch, grid):
        # decoupling_residual and reduced_block_error each transform the
        # whole grid in one call, whatever its size
        calls = []
        transform = cli.nrmod.similarity_transform

        def counting(*args, **kwargs):
            calls.append(None)
            return transform(*args, **kwargs)

        monkeypatch.setattr(cli.nrmod, "similarity_transform", counting)
        text = "" if grid is None else f"nr.lambda_grid = {grid}\n"
        argv = ["nr-reduce", "--config", write_conf(tmp_path, text), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(calls) == 2
        _, _, rows = read_csv(str(tmp_path / "nr_reduce.csv"))
        assert len(rows) == (9 if grid is None else 200)


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


class TestPhasePrecisionRefusal:
    @pytest.mark.parametrize("command", ["jc-evolve", "jc-rabi"])
    def test_unresolvable_phases_exit_3(self, tmp_path, capsys, command):
        # g ~ 1e-16: eps*max|E|*t is O(1), and the periods came out 99% wrong
        conf = write_conf(tmp_path, "dipole.dx = 1e-15\n")
        code = cli.main([command, "--config", conf, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: phase precision estimate eps*max|E|*t = ")
        assert "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["jc-evolve", "jc-rabi"])
    def test_small_coupling_still_runs(self, tmp_path, command):
        conf = write_conf(tmp_path, "dipole.dx = 1e-6\n")
        assert cli.main([command, "--config", conf, "--out", str(tmp_path)]) == 0


def _reference_csv(path, cfg, command, header, rows):
    """Every row through csv.writer and _cell: the fast row writer's oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# command = {command}\n")
        for line in cfg.echo_lines():
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._cell(v) for v in row])


class TestFastRowWriter:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_bytes_match_csv_writer(self, tmp_path, command):
        cfg = cli.parse_config("")
        result = cli._HANDLERS[command](cfg, cli._physics(cfg))
        header, rows = result[0], result[1]
        cli._write_csv(str(tmp_path / "fast.csv"), cfg, command, header, rows)
        _reference_csv(str(tmp_path / "slow.csv"), cfg, command, header, rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_mixed_rows_fall_back(self, tmp_path):
        cfg = cli.parse_config("")
        header = ["a", "b", "c"]
        rows = [
            (1.5, np.float64(-2.0e-300), float("nan")),
            (3, 0.25, "x,y"),
            (np.int64(7), True, np.float32(0.1)),
            [0.1, 0.2, 0.3],
        ]
        cli._write_csv(str(tmp_path / "fast.csv"), cfg, "check-dims", header, rows)
        _reference_csv(str(tmp_path / "slow.csv"), cfg, "check-dims", header, rows)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "slow.csv").read_bytes()
        assert b'\n3,2.50000000000000000e-01,"x,y"\n' in fast
