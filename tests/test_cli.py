"""Front end: config parsing, dispatch, CSV contract, exit codes."""

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from dipole_loop import cli
from dipole_loop.errors import ConfigError, DipoleLoopError


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

    def test_echo_sorted_and_stable(self, tmp_path):
        cfg = cli.parse_config("atoms.m1 = 2.0\n")
        echoes = []
        for name in ("a.csv", "b.csv"):
            cli._write_csv(str(tmp_path / name), cfg, "check-dims", ["h"], [])
            echoes.append(read_csv(str(tmp_path / name))[0][1:])
        keys = [ln.split("=", 1)[0] for ln in echoes[0]]
        assert keys == sorted(keys)
        assert "# atoms.m1 = 2.00000000000000000e+00" in echoes[0]
        assert echoes[1] == echoes[0]

    def test_config_is_read_only(self):
        cfg = cli.parse_config("")
        with pytest.raises(TypeError):
            cfg["atoms.m1"] = 2.0


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
        scale = cli._si_scales(1.0)
        si = "\n".join([
            "units.mode = SI",
            f"atoms.m1 = {1.0 * scale['mass']:.17e}",
            f"atoms.m2 = {0.95 * scale['mass']:.17e}",
            f"dipole.dx = {0.01 * scale['dipole_moment']:.17e}",
            "dipole.dy = 0.0",
            "dipole.dz = 0.0",
            f"cavity.omega = {0.05 * scale['angular_frequency']:.17e}",
            f"cavity.volume = {1.0 * scale['volume']:.17e}",
        ]) + "\n"
        conf_si = write_conf(tmp_path, si, "si.conf")
        conf_nat = write_conf(tmp_path, "", "nat.conf")
        cli.main(["jc-rabi", "--config", conf_si, "--out", str(tmp_path / "si")])
        cli.main(["jc-rabi", "--config", conf_nat, "--out", str(tmp_path / "nat")])
        _, _, rows_si = read_csv(str(tmp_path / "si" / "jc_rabi.csv"))
        _, _, rows_nat = read_csv(str(tmp_path / "nat" / "jc_rabi.csv"))
        for a, b in zip(rows_si, rows_nat):
            assert float(a[1]) == pytest.approx(float(b[1]), rel=1e-12)

    @pytest.mark.parametrize("text, problem", [
        # 1e-310 rad/s is 6.6e-326 natural units: it underflows to zero
        ("cavity.omega = 1e-310", "cavity.omega must be a positive finite number (natural-unit value 0.0)"),
        # 1e300 C m is past the largest double in natural units
        ("dipole.dx = 1e300", "dipole.dx must be finite (natural-unit value inf)"),
        # one natural time unit is 6.6e54 s at 1e-70 eV
        ("units.base_energy_ev = 1e-70\njc.t_max = 1e-300",
         "jc.t_max must be positive when given (natural-unit value 0.0)"),
    ])
    def test_converted_values_rechecked(self, tmp_path, capsys, text, problem):
        conf = write_conf(tmp_path, f"units.mode = SI\n{text}\n")
        assert cli.main(["check-dims", "--config", conf, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: after SI conversion: {problem}\n"
        assert not any(tmp_path.glob("*.csv"))


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


class TestCoupling:
    def test_zero_coupling_with_span_evolves_freely(self, tmp_path):
        conf = write_conf(tmp_path, "dipole.dx = 0\njc.t_max = 10\njc.n_times = 11\n")
        assert cli.main(["jc-evolve", "--config", conf, "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(str(tmp_path / "jc_evolve.csv"))
        assert [float(r[0]) for r in rows] == pytest.approx(np.linspace(0.0, 10.0, 11))
        # no coupling: the upper level stays populated, up to round-off in |e^{-iEt}|^2
        assert [float(r[1]) for r in rows] == pytest.approx([1.0] * 11, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("command, message", [
        ("jc-evolve", "jc-evolve: coupling g vanishes (dipole zero or node of the mode); set jc.t_max"),
        ("jc-rabi", "jc-rabi: coupling g vanishes (dipole zero or node of the mode)"),
    ])
    def test_zero_coupling_refused_where_g_sets_the_span(self, tmp_path, capsys, command, message):
        text = "dipole.dx = 0\n" + ("jc.t_max = 10\n" if command == "jc-rabi" else "")
        assert cli.main([command, "--config", write_conf(tmp_path, text), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["jc-evolve", "jc-rabi"])
    @pytest.mark.parametrize("text, g", [
        ("cavity.omega = 1e-310", "nan"),  # z = pi / (2 Omega) is infinite
        ("cavity.volume = 1e-320", "-inf"),  # E per photon is infinite
    ])
    def test_non_finite_coupling_is_config_error(self, tmp_path, capsys, command, text, g):
        conf = write_conf(tmp_path, text + "\n")
        assert cli.main([command, "--config", conf, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: coupling g is {g} in natural units; it is built from dipole.dx")
        assert not any(tmp_path.glob("*.csv"))


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
        for key in sorted(cfg):
            fh.write(f"# {key} = {cli._format_value(cfg[key])}\n")
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


class TestMagnitudeBounds:
    @pytest.mark.parametrize("key, cap", [
        ("regulator.lambda", cli.MAX_LAMBDA),
        ("units.base_energy_ev", cli.MAX_BASE_ENERGY_EV),
    ])
    def test_upper_caps(self, key, cap):
        assert cli.parse_config(f"{key} = {cap!r}\n")[key] == cap
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"{key} = {10 * cap!r}\n")
        assert err.value.problems == [f"line 1: {key} must be <= {cap}"]

    def test_base_energy_floor(self):
        floor = cli.MIN_BASE_ENERGY_EV
        assert cli.parse_config(f"units.base_energy_ev = {floor!r}\n")["units.base_energy_ev"] == floor
        with pytest.raises(ConfigError, match=f"units.base_energy_ev must be >= {floor}"):
            cli.parse_config(f"units.base_energy_ev = {floor / 10!r}\n")

    @pytest.mark.parametrize("flag", [True, False])
    def test_cutoff_grid_cap(self, tmp_path, capsys, flag):
        spec = f"10:{10 * cli.MAX_LAMBDA!r}:3,log"
        text, argv = (("", ["--lambda-grid", spec]) if flag else (f"regulator.lambda_grid = {spec}\n", []))
        code = cli.main(["loop-vertex", "--config", write_conf(tmp_path, text), "--out", str(tmp_path), *argv])
        assert code == 2
        assert f"cutoff grid values must be <= {cli.MAX_LAMBDA}" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("mass", ["1e200", "1e-200"])
    def test_mass_square_must_be_a_double(self, tmp_path, capsys, mass):
        conf = write_conf(tmp_path, f"atoms.m1 = {mass}\natoms.m2 = {mass}\n")
        code = cli.main(["check-dims", "--config", conf, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: atoms.m1 is {float(mass)!r} in natural units")
        assert not any(tmp_path.glob("*.csv"))

    def test_si_mass_checked_after_conversion(self, tmp_path, capsys):
        # 1e120 kg is 5.6e155 natural units, whose square overflows
        conf = write_conf(tmp_path, "units.mode = SI\natoms.m1 = 1e120\natoms.m2 = 1e120\n")
        code = cli.main(["check-dims", "--config", conf, "--out", str(tmp_path)])
        assert code == 2
        assert "in natural units; m^2 must be finite and nonzero (1.6e-162 <= m <= 1.3e154)" in capsys.readouterr().err


class TestNonFiniteRefused:
    def test_nonfinite_column(self):
        header = ["name", "a", "b"]
        assert cli._nonfinite_column(header, [("x", 1.0, 2), ("y", 3.0, 4)]) is None
        assert cli._nonfinite_column(header, [("x", 1.0, 2.0), ("y", 3.0, float("inf"))]) == "b"
        assert cli._nonfinite_column(header, []) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_row_exits_3(self, tmp_path, capsys, monkeypatch, bad):
        def handler(cfg, phys):
            rows = [("a", 1, 0.5), ("b", 2, bad)]
            return ["name[name]", "n[1]", "x[natural]"], rows, "never printed", []

        monkeypatch.setitem(cli._HANDLERS, "check-dims", handler)
        code = cli.main(["check-dims", "--config", os.devnull, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: check-dims: column x[natural] holds a non-finite value; no CSV written\n"
        assert captured.out == ""
        assert not any(tmp_path.glob("*.csv"))


# Exit-code probe table: every command on configs at the edges of the
# double range, run once through main(). parse_config and dispatch are
# watched on the way: each either lets a CSV of finite floats be written
# or raises a package error, never a builtin one. main() exits 0, 2, 3 or
# 4 without a traceback and leaves no CSV on 2 or 3. Cases marked
# OVERFLOWS overflow a double inside the computation by design.
OVERFLOWS = pytest.mark.filterwarnings("ignore::RuntimeWarning")
PROBES = [
    pytest.param("dipole.dx = 1e300", id="dx-1e300", marks=OVERFLOWS),
    pytest.param("dipole.dx = 1e160", id="dx-1e160", marks=OVERFLOWS),
    pytest.param("atoms.m1 = 1e200\natoms.m2 = 1e200", id="masses-1e200"),
    pytest.param("atoms.m1 = 1e-200\natoms.m2 = 1e-200", id="masses-1e-200"),
    pytest.param("atoms.m2 = 0.1", id="m2-0.1"),
    pytest.param("regulator.lambda = 1e300", id="lambda-1e300"),
    pytest.param("regulator.lambda = 1e-300", id="lambda-1e-300"),
    pytest.param("cavity.omega = 1e300", id="omega-1e300"),
    pytest.param("cavity.omega = 1e-300", id="omega-1e-300"),
    pytest.param("cavity.volume = 1e-300", id="volume-1e-300"),
    pytest.param("cavity.z = 1e300", id="z-1e300"),
    pytest.param("vertex.q0 = 1e300\nvertex.q1 = 1e300\nvertex.q2 = 1e300\nvertex.q3 = 1e300",
                 id="vertex-q-1e300", marks=OVERFLOWS),
    pytest.param("polarization.q0 = 1e300\npolarization.q1 = 1e300\n"
                 "polarization.q2 = 1e300\npolarization.q3 = 1e300", id="polarization-q-1e300", marks=OVERFLOWS),
    pytest.param("polarization.q0 = 5", id="polarization-q0-5"),
    pytest.param("selfenergy.s_max = -1", id="s_max--1"),
    pytest.param("selfenergy.s_max = 1e300", id="s_max-1e300", marks=OVERFLOWS),
    pytest.param("jc.t_max = 1e300", id="t_max-1e300"),
    pytest.param("units.mode = SI", id="SI"),
    pytest.param("units.mode = SI\nunits.base_energy_ev = 1e300", id="SI-base-1e300"),
    pytest.param("nr.lambda3_ratio = 1e300", id="lambda3_ratio-1e300", marks=OVERFLOWS),
    pytest.param("regulator.lambda_grid = 1e-300:1e300:5,log", id="cutoff-grid-1e-300:1e300"),
    pytest.param("nr.lambda_grid = 1e-300:1e300:5,log", id="nr-grid-1e-300:1e300", marks=OVERFLOWS),
    pytest.param("regulator.quad_tol = 1e-18", id="quad_tol-1e-18"),
    pytest.param("units.mode = SI\ncavity.omega = 1e-310", id="SI-omega-1e-310"),
    pytest.param("units.mode = SI\ndipole.dx = 1e300", id="SI-dx-1e300"),
    pytest.param("cavity.omega = 1e-310", id="omega-1e-310"),
    pytest.param("cavity.volume = 1e-320", id="volume-1e-320"),
]


def _numbers(rows):
    """Every cell that parses as a float ('nan' and 'inf' included)."""
    out = []
    for row in rows:
        for cell in row:
            try:
                out.append(float(cell))
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("text", PROBES)
def test_exit_code_probe(tmp_path, capsys, monkeypatch, text, command):
    raised = []

    def watched(fn):
        def call(*args):
            try:
                return fn(*args)
            except BaseException as exc:
                raised.append(exc)
                raise

        return call

    monkeypatch.setattr(cli, "parse_config", watched(cli.parse_config))
    monkeypatch.setattr(cli, "dispatch", watched(cli.dispatch))
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_conf(tmp_path, text + "\n"), "--out", str(out)])
    err = capsys.readouterr().err
    assert [exc for exc in raised if not isinstance(exc, DipoleLoopError)] == []
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    csv_path = out / (command.replace("-", "_") + ".csv")
    if code in (2, 3):
        assert not csv_path.exists()
    else:
        assert np.isfinite(_numbers(read_csv(str(csv_path))[2])).all()
