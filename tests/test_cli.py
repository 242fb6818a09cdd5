"""Front end: config parsing, dispatch, CSV contract, exit codes."""

import csv
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole_loop import _csvfloat, cli, errors, jc, nr, renorm
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
        "1:inf:3,lin", "nan:1:3,lin", "1e-4:inf:5,log",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cli.parse_grid(bad)


# endpoints at and around every bound a grid value meets: zero and its
# neighbours, the normal and subnormal floor, the cutoff cap, the largest double
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1.0, 1e76,
          float(np.nextafter(1e76, 0.0)), float(np.nextafter(1e76, np.inf)), 1e300, 1.7976931348623157e308]
_ENDPOINTS = st.one_of(
    st.sampled_from(_EDGES + [-v for v in _EDGES]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestGridEndpointRule:
    @staticmethod
    def array_rule(spec, what, hi):
        """The grid value parser's oracle: build the whole grid, check every value."""
        with np.errstate(all="ignore"):  # a lin grid spanning -max to max overflows
            grid = cli.parse_grid(spec)
        if not (grid > 0).all():
            raise ValueError(f"{what} grid values must be positive")
        if not (grid <= hi).all():
            raise ValueError(f"{what} grid values must be <= {hi}")
        return spec.strip()

    @staticmethod
    def outcome(parse, spec):
        try:
            return parse(spec)
        except ValueError as exc:
            return f"refused: {exc}"

    @given(_ENDPOINTS, _ENDPOINTS, st.one_of(st.integers(2, 40), st.just(cli.MAX_GRID_COUNT)),
           st.sampled_from(["lin", "log"]), st.sampled_from([cli.MAX_LAMBDA, float("inf")]))
    @settings(max_examples=400, deadline=None)
    def test_endpoints_decide_as_every_value_does(self, start, stop, count, kind, hi):
        spec = f"{start!r}:{stop!r}:{count},{kind}"
        expected = self.outcome(lambda s: self.array_rule(s, "test", hi), spec)
        assert self.outcome(cli._grid("test", hi), spec) == expected


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

    def test_int_list_error(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("jc.n_list = 0,x\n")
        assert err.value.problems == ["line 1: jc.n_list: expected comma-separated integers, got '0,x'"]

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

    @pytest.mark.parametrize("text", ["cavity.omega = 0", "cavity.omega = -1", "cavity.volume = 0"])
    def test_cavity_mode_positive(self, text):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"# a mode\n{text}\n")
        key = text.split(" ", 1)[0]
        assert err.value.problems == [f"line 2: {key} must be a positive finite number"]

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

    def test_split_vertex_at_subnormal_m2_sq_names_no_threshold(self, tmp_path, capsys):
        # beta(y = 1) = m2^2 is subnormal but positive for this spacelike q,
        # so no threshold is crossed: the rule fails on the 1 / beta near-pole
        conf = write_conf(tmp_path, "atoms.m2 = 1e-160\nvertex.symmetric_masses = false\n"
                                    "vertex.q0 = 0.1\nvertex.q1 = 0.3\n")
        assert cli.main(["loop-vertex", "--config", conf, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: Feynman-parameter rule reached ")
        assert "threshold" not in err

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

    def test_unknown_command_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["fly", "--config", "x"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [cli._USAGE, f"error: unknown command 'fly'; expected one of {', '.join(cli.COMMANDS)}"]

    def test_builtin_error_escapes_main(self, tmp_path, monkeypatch):
        # exit 3 is a package error; any other exception is a bug and is not caught
        def broken(cfg):
            raise ValueError("bug")

        monkeypatch.setitem(cli._HANDLERS, "check-dims", broken)
        with pytest.raises(ValueError, match="bug"):
            cli.main(["check-dims", "--config", os.devnull, "--out", str(tmp_path)])
        assert not list(tmp_path.rglob("*.csv"))

    def test_one_base_per_error_type(self):
        # so main() maps each onto one exit code
        for name in errors.__all__[1:]:
            assert getattr(errors, name).__bases__ == (DipoleLoopError,)

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


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")


def _child_env(**env_vars):
    """This environment with src on the path and no BLAS thread variable or PYTHONUNBUFFERED but env_vars."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in (*BLAS_THREAD_VARS, "PYTHONUNBUFFERED")}
    env.update(env_vars, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return env


def _fresh_python(script, **env_vars):
    """Stdout lines of script in a new interpreter (see _child_env)."""
    out = subprocess.run([sys.executable, "-c", script], env=_child_env(**env_vars), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


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
        assert _fresh_python(script)[-2:] == ["False", "[]"]

    # of these nine modules, a command loads only the one it runs and
    # numpy if it computes with arrays, and importing cli loads none.
    # numpy.polynomial, which renorm's Gauss-Legendre rules once came from,
    # and numpy.ma, which np.unique imports, no command needs; nor argparse
    # and dataclasses, since main() reads argv itself and the records are
    # plain classes
    WATCHED = ("numpy", "dipole_loop.jc", "dipole_loop.nr", "dipole_loop.renorm", "numpy.polynomial", "fractions",
               "numpy.ma", "argparse", "dataclasses")
    LOOP = ["numpy", "dipole_loop.renorm"]
    LOADS = {
        "jc-evolve": ["numpy", "dipole_loop.jc"],
        "jc-rabi": ["numpy", "dipole_loop.jc"],
        "nr-reduce": ["numpy", "dipole_loop.nr"],
        "loop-selfenergy": LOOP,
        "loop-vertex": LOOP,
        "loop-polarization": LOOP,
        "report-counterterms": LOOP,
        "check-dims": ["fractions"],
        "oracle-verify": ["numpy"],
    }

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_command_loads_only_its_module(self, tmp_path, command):
        conf = write_conf(tmp_path, "")
        script = (
            "import sys\n"
            "from dipole_loop.cli import main\n"
            f"assert main([{command!r}, '--config', {conf!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            f"print([m for m in {self.WATCHED!r} if m in sys.modules])\n"
        )
        assert _fresh_python(script)[-1] == repr(self.LOADS[command])

    # the Feynman-parameter scales take fractions only for an interior
    # minimum: timelike momenta, as in the edge-kinematics workload
    @pytest.mark.parametrize("command, timelike", [
        pytest.param("loop-vertex", "vertex.symmetric_masses = false\nvertex.q0 = 0.5\nvertex.q1 = 0.1\n",
                     id="loop-vertex"),
        pytest.param("loop-polarization", "polarization.q0 = 1.6\npolarization.q1 = 0\n", id="loop-polarization"),
    ])
    def test_fractions_only_for_an_interior_minimum(self, tmp_path, command, timelike):
        script = (
            "import sys\n"
            "from dipole_loop.cli import main\n"
            "for conf in sys.argv[1:]:\n"
            f"    assert main([{command!r}, '--config', conf, '--out', {str(tmp_path)!r}]) == 0\n"
            "    print('fractions' in sys.modules)\n"
        )
        confs = [write_conf(tmp_path, "", "default.conf"), write_conf(tmp_path, timelike, "timelike.conf")]
        out = subprocess.run([sys.executable, "-c", script, *confs], env=_child_env(), capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[1::2] == ["False", "True"]  # each after its summary line

    # what argparse and dataclasses brought in; numpy loads inspect itself,
    # so only the bare import and check-dims are checked for these
    FRONT_END = ("inspect", "gettext", "locale")

    def test_cli_import_loads_none(self):
        script = f"import sys, dipole_loop.cli\nprint([m for m in {self.WATCHED + self.FRONT_END!r} if m in sys.modules])"
        assert _fresh_python(script) == ["[]"]

    def test_check_dims_loads_no_inspect(self, tmp_path):
        # check-dims loads no numpy, so nothing else brings inspect in
        script = (
            "import sys\n"
            "from dipole_loop.cli import main\n"
            f"assert main(['check-dims', '--config', {os.devnull!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            f"print([m for m in {self.FRONT_END!r} if m in sys.modules])\n"
        )
        assert _fresh_python(script)[-1] == "[]"

    def test_core_contractions_load_no_loop_layer(self):
        script = (
            "import sys\n"
            "from dipole_loop.core import AtomPair, contractions, dipole_from_moment\n"
            "contractions(dipole_from_moment([0.01, 0.0, 0.0], AtomPair(m1=1.0, m2=0.95)))\n"
            "print([m for m in ('dipole_loop.renorm', 'dipole_loop.loops') if m in sys.modules])\n"
        )
        assert _fresh_python(script) == ["[]"]

    @pytest.mark.parametrize("text", [
        pytest.param("no.such_key = 1", id="unknown-key"),
        pytest.param("atoms.m1 = 1e100\natoms.m2 = 1e100\ndipole.dx = 1e300", id="gamma-overflow"),
        pytest.param(None, id="missing-file"),
        pytest.param(f"regulator.lambda_grid = 10:{10 * cli.MAX_LAMBDA!r}:3,log", id="grid-refusal"),
    ])
    def test_refused_config_loads_no_numpy(self, tmp_path, text):
        # a config is read and refused before any command computes
        conf = str(tmp_path / "missing.conf") if text is None else write_conf(tmp_path, text)
        script = (
            "import sys\n"
            "from dipole_loop.cli import main\n"
            f"assert main(['loop-vertex', '--config', {conf!r}, '--out', {str(tmp_path)!r}]) == 2\n"
            "print('numpy' in sys.modules)\n"
        )
        assert _fresh_python(script)[-1] == "False"

    def test_grids_checked_without_numpy(self, tmp_path):
        # both grid keys and the --lambda-grid flag are checked in pure Python
        conf = write_conf(tmp_path, "regulator.lambda_grid = 10:1e4:24,log\nnr.lambda_grid = 1e-4:1e-2:200,log\n")
        script = (
            "import sys\n"
            "from dipole_loop.cli import main\n"
            f"argv = ['check-dims', '--config', {conf!r}, '--out', {str(tmp_path)!r}, '--lambda-grid', '10:1e3:3,lin']\n"
            "assert main(argv) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        assert _fresh_python(script)[-1] == "False"


class TestHarnessPatchPoints:
    # every attribute that bench/tracing.py's `patched` replaces, by owner:
    # keep this list in step with it, so that an import change cannot
    # silently break bench/run.py --trace 1
    PATCHED = {
        cli: ("parse_config", "_physics", "_write_csv", "_pmap", "_HANDLERS", "master_integral",
              "radial_quadrature", "feynman_identity_check", "symmetric_integration_check"),
        renorm: ("self_energy", "wavefunction_Z", "vertex_one_loop", "photon_polarization",
                 "counterterm_report", "integrate", "master_integral", "master_integral_d_scale"),
        jc: ("build_hamiltonian", "evolve", "measure_resonant_period"),
        nr: ("decoupling_residual", "reduced_block_error", "similarity_transform"),
    }

    @pytest.mark.parametrize("owner", list(PATCHED), ids=lambda m: m.__name__)
    def test_patched_names_exist(self, owner):
        assert [a for a in self.PATCHED[owner] if not hasattr(owner, a)] == []

    @pytest.mark.parametrize("owner, attr, command", [
        (jc, "evolve", "jc-evolve"),
        (jc, "measure_resonant_period", "jc-rabi"),
        (nr, "decoupling_residual", "nr-reduce"),
        (renorm, "self_energy", "loop-selfenergy"),
        (cli, "_pmap", "loop-selfenergy"),
        (cli, "_pmap", "loop-vertex"),
        (cli, "_pmap", "loop-polarization"),
        (renorm, "counterterm_report", "report-counterterms"),
        (cli, "symmetric_integration_check", "oracle-verify"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_handler_calls_the_patched_name(self, tmp_path, monkeypatch, owner, attr, command):
        # a handler looks the function up on its module when it runs, so
        # a replacement installed after cli was imported is the one called
        calls = []
        fn = getattr(owner, attr)

        def counting(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
        assert cli.main([command, "--config", write_conf(tmp_path, ""), "--out", str(tmp_path)]) == 0
        assert calls


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
class TestBlasThreads:
    @staticmethod
    def threads(tmp_path, **env_vars):
        """Thread count and OMP_NUM_THREADS' presence after nr-reduce loaded numpy."""
        script = (
            "import os\n"
            "from dipole_loop.cli import main\n"
            f"assert main(['nr-reduce', '--config', os.devnull, '--out', {str(tmp_path)!r}]) == 0\n"
            "status = open('/proc/self/status').read().split('\\n')\n"
            "print(next(line.split()[1] for line in status if line.startswith('Threads:')))\n"
            "print('OMP_NUM_THREADS' in os.environ)\n"
        )
        return _fresh_python(script, **env_vars)[-2:]

    def test_one_thread_by_default(self, tmp_path):
        # the process runs BLAS on its main thread alone, and the default is
        # not left in the environment for child processes
        assert self.threads(tmp_path) == ["1", "False"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the core count")
    def test_caller_setting_wins(self, tmp_path):
        assert self.threads(tmp_path, OPENBLAS_NUM_THREADS="2") == ["2", "False"]

    def test_package_root_does_not_load_numpy(self):
        # the default is set before numpy loads only if nothing imported it first
        assert _fresh_python("import sys, dipole_loop\nprint('numpy' in sys.modules)") == ["False"]


class TestProcessEntry:
    """python -m dipole_loop.cli (run(): flush, then os._exit) matches in-process main()."""

    @staticmethod
    def in_process(argv, capsys):
        """(exit code, stdout, stderr) of main(argv) in this interpreter."""
        capsys.readouterr()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @staticmethod
    def process(argv):
        """(exit code, stdout, stderr) of the module's process entry, both streams piped."""
        # without PYTHONUNBUFFERED a piped stdout is block-buffered, so the
        # summary line reaches the pipe only through run()'s flush
        out = subprocess.run([sys.executable, "-m", "dipole_loop.cli", *argv], env=_child_env(),
                             capture_output=True, text=True, timeout=120)
        return out.returncode, out.stdout, out.stderr

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_summary_and_csv_match_main(self, tmp_path, capsys, command):
        argv = [command, "--config", write_conf(tmp_path, ""), "--out", str(tmp_path)]
        csv_path = tmp_path / (command.replace("-", "_") + ".csv")
        expected = self.in_process(argv, capsys)
        expected_bytes = csv_path.read_bytes()
        csv_path.unlink()
        assert expected[0] == 0 and expected[2] == ""
        assert expected[1].startswith(f"{command}: ")
        assert self.process(argv) == expected
        assert csv_path.read_bytes() == expected_bytes

    @pytest.mark.parametrize("command, text, code", [
        pytest.param("check-dims", "atoms.m1 = abc", 2, id="config-error"),
        pytest.param("loop-selfenergy", "selfenergy.s_max = -0.5", 3, id="domain-error"),
        pytest.param("no-such-command", "", 2, id="unknown-command"),
    ])
    def test_refusal_keeps_code_and_message(self, tmp_path, capsys, command, text, code):
        argv = [command, "--config", write_conf(tmp_path, text), "--out", str(tmp_path)]
        expected = self.in_process(argv, capsys)
        assert expected[0] == code and expected[1] == ""
        assert self.process(argv) == expected
        last = expected[2].splitlines()[-1]
        assert last.startswith(("config error: ", "error: "))
        assert "Traceback" not in expected[2]
        assert not any(tmp_path.glob("*.csv"))

    # argv tables: {conf} is an empty config file, {out} the output
    # directory and {tmp} the test's own directory
    def both(self, template, tmp_path, capsys):
        """(code, stdout, stderr, {CSV path: bytes}) of one argv, the same in-process and as a process."""
        conf = write_conf(tmp_path, "")
        argv = [token.format(conf=conf, out=str(tmp_path / "out"), tmp=str(tmp_path)) for token in template]
        results = []
        for run in (lambda: self.in_process(argv, capsys), lambda: self.process(argv)):
            code, out, err = run()
            csvs = {}
            for path in sorted(tmp_path.rglob("*.csv")):
                csvs[str(path.relative_to(tmp_path))] = path.read_bytes()
                path.unlink()
            results.append((code, out, err, csvs))
        assert results[0] == results[1]
        return results[0]

    @pytest.mark.parametrize("template, canonical", [
        pytest.param(["check-dims", "--config={conf}", "--out={out}"], None, id="equals-form"),
        pytest.param(["--config", "{conf}", "--out", "{out}", "check-dims"], None, id="options-first"),
        pytest.param(["--out={out}", "check-dims", "--config", "{conf}"], None, id="command-between"),
        pytest.param(["check-dims", "--config", "{conf}", "--out", "{tmp}/first", "--out", "{out}"], None,
                     id="last-wins"),
        pytest.param(["--lambda-grid=10:1000:3,log", "loop-vertex", "--config={conf}", "--out", "{out}"],
                     ["loop-vertex", "--config", "{conf}", "--out", "{out}", "--lambda-grid", "10:1000:3,log"],
                     id="grid-equals-form"),
    ])
    def test_accepted_forms(self, tmp_path, capsys, template, canonical):
        # each form runs as "<command> --config C --out O [--lambda-grid SPEC]" does
        canonical = canonical or ["check-dims", "--config", "{conf}", "--out", "{out}"]
        code, _, err, csvs = expected = self.both(canonical, tmp_path, capsys)
        assert (code, err, list(csvs)) == (0, "", [f"out/{canonical[0].replace('-', '_')}.csv"])
        assert self.both(template, tmp_path, capsys) == expected

    @pytest.mark.parametrize("two_tokens", [False, True], ids=["equals-form", "two-tokens"])
    def test_grid_value_starting_with_dash_is_read(self, tmp_path, capsys, two_tokens):
        # the spec reaches the grid check, which refuses it as a config error
        spec = "-10:1000:3,lin"
        grid = ["--lambda-grid", spec] if two_tokens else [f"--lambda-grid={spec}"]
        code, out, err, csvs = self.both(["loop-vertex", "--config", "{conf}", "--out", "{out}", *grid], tmp_path, capsys)
        assert (code, out, err, csvs) == (2, "", "config error: --lambda-grid: cutoff grid values must be positive\n", {})

    @pytest.mark.parametrize("template", [
        pytest.param(["-h"], id="h"),
        pytest.param(["--help"], id="help"),
        pytest.param(["check-dims", "--config", "{conf}", "--out", "{out}", "-h"], id="after-options"),
        pytest.param(["fly", "--help"], id="unknown-command"),
        pytest.param(["--config", "--help"], id="as-a-value"),
    ])
    def test_help(self, tmp_path, capsys, template):
        expected = f"{cli._USAGE}\ncommands: {', '.join(cli.COMMANDS)}\n"
        assert self.both(template, tmp_path, capsys) == (0, expected, "", {})

    @pytest.mark.parametrize("template, error", [
        pytest.param([], "missing command", id="empty"),
        pytest.param(["--config", "{conf}"], "missing command", id="no-command"),
        pytest.param(["fly", "--config", "{conf}"], "unknown command 'fly'", id="unknown-command"),
        pytest.param(["check-dims"], "missing option --config PATH", id="no-config"),
        pytest.param(["check-dims", "--out", "{out}"], "missing option --config PATH", id="out-without-config"),
        pytest.param(["check-dims", "--conf", "{conf}"], "unknown option '--conf'", id="abbreviation"),
        pytest.param(["check-dims", "--config", "{conf}", "-o", "{out}"], "unknown option '-o'", id="short-option"),
        pytest.param(["check-dims", "--config", "{conf}", "--verbose=1"], "unknown option '--verbose'",
                     id="unknown-option"),
        pytest.param(["check-dims", "--config"], "option --config needs a value", id="value-missing"),
        pytest.param(["check-dims", "--config", "--out", "{out}"], "option --config needs a value",
                     id="option-as-value"),
        pytest.param(["check-dims", "--config", "{conf}", "--lambda-grid"], "option --lambda-grid needs a value",
                     id="grid-value-missing"),
        pytest.param(["check-dims", "nr-reduce", "--config", "{conf}"], "unexpected argument 'nr-reduce'",
                     id="two-commands"),
        pytest.param(["check-dims", "--config", "{conf}", "{out}"], "unexpected argument '", id="stray-word"),
    ])
    def test_usage_error(self, tmp_path, capsys, template, error):
        code, out, err, csvs = self.both(template, tmp_path, capsys)
        assert (code, out, csvs) == (2, "", {})
        usage, problem = err.splitlines()
        assert usage == cli._USAGE
        assert problem.startswith(f"error: {error}")

    def test_module_executes_once(self, tmp_path):
        # python -m runs cli as __main__: writing a float array must not
        # import dipole_loop.cli, which would execute the module again
        argv = [sys.executable, "-X", "importtime", "-m", "dipole_loop.cli", "jc-evolve",
                "--config", write_conf(tmp_path, ""), "--out", str(tmp_path)]
        out = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=120)
        assert out.returncode == 0
        imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")]
        assert "dipole_loop._csvfloat" in imported
        assert "dipole_loop.cli" not in imported

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["check-dims", "nr-reduce"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["flush", "print"])
    def test_unwritable_summary_is_config_error(self, tmp_path, command, unbuffered):
        # with stdout unbuffered, dispatch's print of the summary fails;
        # otherwise run()'s flush does. Either is an unwritable output
        argv = [command, "--config", write_conf(tmp_path, ""), "--out", str(tmp_path)]
        env = _child_env(PYTHONUNBUFFERED="1") if unbuffered else _child_env()
        with open("/dev/full", "w") as full:
            out = subprocess.run([sys.executable, "-m", "dipole_loop.cli", *argv], env=env, stdout=full,
                                 stderr=subprocess.PIPE, text=True, timeout=120)
        assert out.returncode == 2
        assert out.stderr == "config error: cannot write output: [Errno 28] No space left on device\n"
        assert (tmp_path / (command.replace("-", "_") + ".csv")).exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command, text, code", [
        pytest.param("check-dims", "atoms.m1 = abc", 2, id="config-error"),
        pytest.param("loop-selfenergy", "selfenergy.s_max = -0.5", 3, id="domain-error"),
        pytest.param("oracle-verify", "", 4, id="oracle-failure"),
    ])
    def test_unwritable_stderr_keeps_code(self, tmp_path, command, text, code):
        # with stderr unwritable the exit code is the only report left: the
        # error line's failed write must not raise, and run()'s stderr flush
        # must not turn the code into 2. A master integral that reads 0
        # fails oracle-verify's cross-check
        patch = "cli.master_integral = lambda kind, s, lam: 0.0\n" if code == 4 else ""
        argv = ["dipole-loop", command, "--config", write_conf(tmp_path, text), "--out", str(tmp_path)]
        script = f"import sys\nfrom dipole_loop import cli\n{patch}sys.argv = {argv!r}\ncli.run()\n"
        with open("/dev/full", "w") as full:
            out = subprocess.run([sys.executable, "-c", script], env=_child_env(), stdout=subprocess.PIPE,
                                 stderr=full, text=True, timeout=120)
        assert out.returncode == code
        if code == 4:  # a failed cross-check still writes its CSV and summary line
            assert out.stdout.startswith("oracle-verify: ")
        else:
            assert out.stdout == ""


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
        # 2 wavefunction fits (each level's mass shift is the on-shell
        # point of its fit), vertex, polarization and the 12-cutoff
        # prefactor fit
        ("report-counterterms", None, 16),
    ])
    def test_rule_count(self, tmp_path, monkeypatch, command, grid, rules):
        calls = []
        rule = renorm._fixed_rule

        def counting(*args, **kwargs):
            calls.append(None)
            return rule(*args, **kwargs)

        monkeypatch.setattr(renorm, "_fixed_rule", counting)
        argv = [command, "--config", write_conf(tmp_path, ""), "--out", str(tmp_path)]
        if grid is not None:
            argv += ["--lambda-grid", grid]
        assert cli.main(argv) == 0
        assert len(calls) == rules

    def test_loop_vertex_builds_each_rule_once(self, tmp_path):
        # all 24 cutoffs grade towards one point and converge at 64 nodes,
        # so their 48 rules are the two (size, grading point) pairs, each
        # built once and then read from renorm._rule's cache
        renorm._rule.cache_clear()
        argv = ["loop-vertex", "--config", write_conf(tmp_path, ""), "--out", str(tmp_path),
                "--lambda-grid", "10:10000:24,log"]
        assert cli.main(argv) == 0
        info = renorm._rule.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 46, 2)


class TestTransformCount:
    @pytest.mark.parametrize("grid", [None, "1e-4:1e-2:200,log"])
    def test_nr_reduce_transforms_whole_grid_once(self, tmp_path, monkeypatch, grid):
        # decoupling_residual sums the series once for the whole grid,
        # whatever its size, and gives every column from that one sum; it
        # never takes the eigendecomposition that the tests keep as the oracle
        calls = {"_decouple": 0, "similarity_transform": 0}

        def counting(name):
            fn = getattr(nr, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(nr, name, counting(name))
        text = "" if grid is None else f"nr.lambda_grid = {grid}\n"
        argv = ["nr-reduce", "--config", write_conf(tmp_path, text), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert calls == {"_decouple": 1, "similarity_transform": 0}
        _, _, rows = read_csv(str(tmp_path / "nr_reduce.csv"))
        assert len(rows) == (9 if grid is None else 200)


class TestNrReduceSlope:
    def test_one_distinct_point_is_not_fitted(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "nr.lambda_grid = 1e-3:1e-3:3,log\n")
        assert cli.main(["nr-reduce", "--config", conf, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "nr-reduce: 3 points, post-transform residual slope not fitted (fewer than two distinct lambda_max)\n"
        )
        assert len(read_csv(str(tmp_path / "nr_reduce.csv"))[2]) == 3

    def test_rows_with_zero_residual_left_out(self, tmp_path, capsys):
        # r_after underflows to 0 on the five lowest points; the fit takes the other four
        conf = write_conf(tmp_path, "nr.lambda_grid = 5e-324:1e-2:9,log\n")
        assert cli.main(["nr-reduce", "--config", conf, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "nr-reduce: 9 points, post-transform residual slope 2.0000 (target 2), 5 rows with r_after = 0 left out\n"
        )
        _, _, rows = read_csv(str(tmp_path / "nr_reduce.csv"))
        assert [float(r[3]) == 0.0 for r in rows] == [True] * 5 + [False] * 4

    @pytest.mark.parametrize("start", ["1e-12", "1e-10", "1e-8"])
    def test_slope_is_two_to_small_lambda(self, tmp_path, capsys, start):
        conf = write_conf(tmp_path, f"nr.lambda_grid = {start}:1e-2:9,log\n")
        assert cli.main(["nr-reduce", "--config", conf, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        slope = float(out.split("residual slope ")[1].split()[0])
        assert slope == pytest.approx(2.0, abs=1e-3)


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


class TestNonFiniteInputs:
    @pytest.mark.parametrize("text, problem", [
        ("jc.t_max = inf", "line 1: jc.t_max must be finite when given"),
        ("units.mode = SI\njc.t_max = 1e300",
         "after SI conversion: jc.t_max must be finite when given (natural-unit value inf)"),
    ])
    @pytest.mark.parametrize("command", ["jc-evolve", "check-dims"])
    def test_infinite_t_max_is_config_error(self, tmp_path, capsys, command, text, problem):
        conf = write_conf(tmp_path, text + "\n")
        assert cli.main([command, "--config", conf, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not any(tmp_path.glob("*.csv"))

    def test_overflowing_nr_field_is_config_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "units.mode = SI\nnr.lambda3_ratio = 1e250\n")
        assert cli.main(["nr-reduce", "--config", conf, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: nr-reduce: gamma.F is not finite in natural units")
        assert "nr.lambda3_ratio, nr.lambda_grid, atoms.m1 and atoms.m2" in err
        assert not any(tmp_path.glob("*.csv"))


class TestCountertermCutoff:
    def test_rejected_prefactor_fit_is_3(self, tmp_path, capsys, monkeypatch):
        fit = renorm.divergence_fit
        fits = []

        def rejecting(*args, **kwargs):
            fits.append(fit(*args, **kwargs)._replace(fit_residual=0.5, accepted=False))
            return fits[-1]

        monkeypatch.setattr(renorm, "divergence_fit", rejecting)
        conf = write_conf(tmp_path, "")
        assert cli.main(["report-counterterms", "--config", conf, "--out", str(tmp_path)]) == 3
        assert len(fits) == 1 and fits[0].accepted is False
        assert capsys.readouterr().err == (
            "error: prefactor fit rejected: residual 5.000e-01 above 1e-4 of its Lambda^2 term\n"
        )
        assert not any(tmp_path.glob("*.csv"))

    def test_z_lost_to_rounding_is_3(self, tmp_path, capsys):
        # at Lambda = 1e7 Sigma(s) - Sigma(-m^2) rounds to zero on the whole s grid
        conf = write_conf(tmp_path, "regulator.lambda = 1e7\n")
        assert cli.main(["report-counterterms", "--config", conf, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: Sigma(s) - Sigma(-m^2) over the s grid is lost to rounding")
        assert "the cutoff Lambda = 1e+07 is too large for this fit" in err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text, moment", [
        # s reaches 1e117 and Sigma 1e238: the fit's moment against s overflows
        pytest.param("atoms.m1 = 1e60\natoms.m2 = 1e60\nregulator.lambda = 1e62\n", "inf", id="masses-1e60"),
        # gamma^2 overflows, so Sigma(s) - Sigma(-m^2) is inf - inf
        pytest.param("dipole.dx = 1e300\n", "nan", id="dx-1e300"),
    ])
    def test_z_fit_overflow_is_named(self, tmp_path, capsys, text, moment):
        conf = write_conf(tmp_path, text)
        assert cli.main(["report-counterterms", "--config", conf, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: Sigma(s) - Sigma(-m^2) over the s grid overflows a double: its moment against s is {moment}\n"
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("dx", ["1e-158", "3e-158", "1e-157"])
    def test_subnormal_gamma_sq_is_named(self, tmp_path, capsys, dx):
        # gamma^2 ~ 1e-314 is subnormal: sigma_I's differences over the s grid
        # hold some 1e3 to 1e5 quanta of the smallest double, and the line
        # fitted through them curves; the refusal says so, not that the grid
        # is too wide
        conf = write_conf(tmp_path, f"dipole.dx = {dx}\n")
        assert cli.main(["report-counterterms", "--config", conf, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: curvature residual \S+ exceeds 1e-03 of the slope: gamma\^2 int I_A is subnormal \(at most "
            r"\S+\), so Sigma\(s\) - Sigma\(-m\^2\) over the s grid holds only \S+ quanta of the smallest double\n",
            err)
        assert not any(tmp_path.glob("*.csv"))

    def test_large_cutoff_still_runs(self, tmp_path):
        conf = write_conf(tmp_path, "regulator.lambda = 1e5\n")
        assert cli.main(["report-counterterms", "--config", conf, "--out", str(tmp_path)]) == 0
        _, _, rows = read_csv(str(tmp_path / "report_counterterms.csv"))
        z = {r[0]: float(r[1]) for r in rows}
        assert z["Z_phi_inv.1.scalar"] != 1.0 and z["Z_phi_inv.2.scalar"] != 1.0


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

    def test_summary_reports_phase_estimate(self, tmp_path, capsys):
        # g = 0 leaves H diagonal, and the sector of |upper, 0> tops out at
        # |upper, 8>: max|E| = 8 Omega + omega12/2 with the default n_max and masses
        conf = write_conf(tmp_path, "dipole.dx = 0\njc.t_max = 500\njc.n_times = 11\n")
        assert cli.main(["jc-evolve", "--config", conf, "--out", str(tmp_path)]) == 0
        estimate = np.finfo(float).eps * (8 * 0.05 + 0.5 * (1.0 - 0.95)) * 500.0
        assert capsys.readouterr().out.endswith(f", phase estimate {estimate:.3e} (bound 1e-06)\n")


class TestJcTruncation:
    def test_rabi_refuses_leakage(self, tmp_path, capsys):
        # without the RWA, n = 5 of the default n_list leaks about 5e-5 into
        # the top band of the default n_max 8
        conf = write_conf(tmp_path, "jc.rwa = false\n")
        assert cli.main(["jc-rabi", "--config", conf, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: top-band population ")
        assert not any(tmp_path.glob("*.csv"))

    def test_rabi_with_headroom_runs(self, tmp_path):
        conf = write_conf(tmp_path, "jc.rwa = false\njc.n_max = 12\n")
        assert cli.main(["jc-rabi", "--config", conf, "--out", str(tmp_path)]) == 0

    def test_evolve_zero_step_is_config_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "jc.t_max = 5e-324\n")
        assert cli.main(["jc-evolve", "--config", conf, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: jc-evolve: sample step jc.t_max / (jc.n_times - 1) = 5e-324 / 400 rounds to zero\n"
        assert not any(tmp_path.glob("*.csv"))


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
            fh.write(f"# {key} = {cli._cell(cfg[key])}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._cell(v) for v in row])


def _written_as_reference(tmp_path, cfg, header, rows):
    """The bytes _write_csv writes for rows, asserted equal to _reference_csv's."""
    cli._write_csv(str(tmp_path / "fast.csv"), cfg, "jc-evolve", header, rows)
    _reference_csv(str(tmp_path / "slow.csv"), cfg, "jc-evolve", header, rows)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "slow.csv").read_bytes()
    return fast


class TestFastRowWriter:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_bytes_match_csv_writer(self, tmp_path, command):
        cfg = cli.parse_config("")
        result = cli._HANDLERS[command](cli._physics(cfg))
        header, rows = result[0], result[1]
        cli._write_csv(str(tmp_path / "fast.csv"), cfg, command, header, rows)
        _reference_csv(str(tmp_path / "slow.csv"), cfg, command, header, rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_mixed_rows_fall_back(self, tmp_path):
        cfg = cli.parse_config("")
        header = ["a", "b", "c"]
        rows = [
            (1.5, np.float64(-2.0e-300), float("nan")),
            (3, 0.25, "x y"),  # no cell holds a comma, a quote or a newline
            (np.int64(7), True, np.float32(0.1)),
            [0.1, 0.2, 0.3],
        ]
        cli._write_csv(str(tmp_path / "fast.csv"), cfg, "check-dims", header, rows)
        _reference_csv(str(tmp_path / "slow.csv"), cfg, "check-dims", header, rows)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "slow.csv").read_bytes()
        assert b'\n3,2.50000000000000000e-01,x y\n' in fast

    def test_cavity_scale_array(self, tmp_path):
        # jc-evolve at the size of the cavity-scale workload: 20,000 rows x 5
        cfg = cli.parse_config("jc.n_max = 120\njc.n_init = 40\njc.n_times = 20000\njc.rwa = false\n")
        header, rows = cli._HANDLERS["jc-evolve"](cli._physics(cfg))[:2]
        assert rows.shape == (20000, 5)
        _written_as_reference(tmp_path, cfg, header, rows)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_one_table_type_per_handler(self, command):
        cfg = cli.parse_config("")
        rows = cli._HANDLERS[command](cli._physics(cfg))[1]
        if command in ("jc-evolve", "nr-reduce", "loop-selfenergy", "loop-vertex", "loop-polarization"):
            assert isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
        else:
            assert isinstance(rows, list)


def _assert_matches_percent(values):
    """The kernel's text of each value equals _FLOAT_FORMAT % value."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    got = "".join(_csvfloat.text_blocks(values.reshape(-1, 1), cli._cell)).split("\n")
    assert got.pop() == ""
    want = [cli._FLOAT_FORMAT % v for v in values.tolist()]
    assert len(got) == len(want)
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        pytest.fail(f"{values[i]!r}: kernel {got[i]!r}, % {want[i]!r}")


class TestFloatKernel:
    """_csvfloat against "%" itself, cell by cell."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_any_finite_double(self, values):
        _assert_matches_percent(values + [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])

    def test_random_bit_patterns(self):
        # every exponent field, so NaNs, infinities and subnormals as well
        bits = np.random.default_rng(23).integers(0, 2**64, size=10**6, dtype=np.uint64)
        _assert_matches_percent(bits.view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        # floor(log10 |x|) is the estimate most likely to be one off here
        cells = []
        for e in range(-307, 309):
            up = down = float(f"1e{e}")
            cells.append(up)
            for _ in range(2):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
                cells += [up, down]
        cells = np.array(cells)
        _assert_matches_percent(np.concatenate((cells, -cells)))

    def test_exact_ties(self):
        # x = M 2^(-1-k) = (M 5^k / 2) 10^(-k): an odd M 5^k in [2e17, 2e18)
        # puts x exactly halfway between two 18-digit decimals
        rng = np.random.default_rng(7)
        cells = []
        for k in range(2, 23):
            lo, hi = -(-2 * 10**17 // 5**k), min(2 * 10**18 // 5**k, 2**53)
            m = [int(v) | 1 for v in rng.integers(lo, hi, size=200)]
            m = [v for v in m if v < 2**53 and 2 * 10**17 <= v * 5**k < 2 * 10**18]
            cells += [v * 2.0 ** (-1 - k) for v in m]
        assert len(cells) > 4000
        cells = np.array(cells)
        _assert_matches_percent(np.concatenate((cells, -cells)))

    @pytest.mark.parametrize("shift", [-1.0, 1.0], ids=["one-low", "one-high"])
    def test_exponent_estimate_off_by_one(self, monkeypatch, shift):
        # a cell whose exponent estimate is off goes to "%", so the text does
        # not depend on how closely np.log10 rounds
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        rng = np.random.default_rng(3)
        _assert_matches_percent(rng.standard_normal(1000) * 10.0 ** rng.integers(-270, 270, 1000))

    def test_fallback_cells_in_rows(self, tmp_path):
        rows = np.array([
            [np.nan, np.inf, -np.inf, -0.0],
            [5e-324, -5e-324, 0.0, 1e-300],
            [1e300, -1.7976931348623157e308, 2.5, -1.0],
        ])
        fast = _written_as_reference(tmp_path, cli.parse_config(""), ["a", "b", "c", "d"], rows)
        assert b"\nnan,inf,-inf,-0.00000000000000000e+00\n4.94065645841246544e-324," in fast

    def test_block_boundary_inside_a_row(self, tmp_path):
        rows = np.random.default_rng(5).standard_normal((3000, 7)) * 10.0 ** np.arange(-9, 12, 3)
        assert _csvfloat.BLOCK % 7 != 0 and rows.size > 2 * _csvfloat.BLOCK
        _written_as_reference(tmp_path, cli.parse_config(""), [f"c{i}" for i in range(7)], rows)


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
        table = np.array([[1.0, 2.0, 3.0], [4.0, -np.inf, np.nan]])
        assert cli._nonfinite_column(header, table) == "a"
        assert cli._nonfinite_column(header, table[:1]) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_row_exits_3(self, tmp_path, capsys, monkeypatch, bad):
        def handler(cfg):
            rows = [("a", 1, 0.5), ("b", 2, bad)]
            return ["name[name]", "n[1]", "x[natural]"], rows, "never printed", []

        monkeypatch.setitem(cli._HANDLERS, "check-dims", handler)
        code = cli.main(["check-dims", "--config", os.devnull, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: check-dims: column x[natural] holds a non-finite value; no CSV written\n"
        assert captured.out == ""
        assert not any(tmp_path.glob("*.csv"))


class TestRuntimeWarningRefused:
    """A RuntimeWarning raised in a handler is recorded, not shown, and refuses the run."""

    @staticmethod
    def run(tmp_path, monkeypatch, handler):
        monkeypatch.setitem(cli._HANDLERS, "check-dims", handler)
        return cli.main(["check-dims", "--config", os.devnull, "--out", str(tmp_path)])

    @pytest.mark.parametrize("value, message", [
        (1.0, "error: check-dims: overflow encountered in multiply; no CSV written\n"),
        (np.inf, "error: check-dims: column x[natural] holds a non-finite value; no CSV written\n"),
    ])
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, value, message):
        # finite rows name numpy's message; a non-finite column keeps its own
        def handler(cfg):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            warnings.warn("invalid value encountered in matmul", RuntimeWarning)
            return ["x[natural]"], [(value,)], "never printed", []

        assert self.run(tmp_path, monkeypatch, handler) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert not any(tmp_path.glob("*.csv"))

    def test_numpy_overflow(self, tmp_path, capsys, monkeypatch):
        def handler(cfg):
            big = np.array([1e300]) * 1e300
            return ["x[natural]"], [(float(big[0] > 0),)], "never printed", []

        assert self.run(tmp_path, monkeypatch, handler) == 3
        assert re.fullmatch(r"error: check-dims: overflow encountered in \w+; no CSV written\n", capsys.readouterr().err)

    def test_refusal_keeps_its_code_and_text(self, tmp_path, capsys, monkeypatch):
        def handler(cfg):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            raise ConfigError(["check-dims: refused"])

        assert self.run(tmp_path, monkeypatch, handler) == 2
        assert capsys.readouterr().err == "config error: check-dims: refused\n"

    def test_other_warnings_still_shown(self, tmp_path, capsys, monkeypatch):
        def handler(cfg):
            warnings.warn("a user warning", UserWarning)
            return ["x[natural]"], [(1.0,)], "written", []

        with pytest.warns(UserWarning, match="a user warning"):
            assert self.run(tmp_path, monkeypatch, handler) == 0
        assert capsys.readouterr().out == "written\n"


# Exit-code probe table: every command on configs at the edges of the
# double range, run once through main(). parse_config and dispatch are
# watched on the way: each either lets a CSV of finite floats be written
# or raises a package error, never a builtin one. main() exits with the
# code pinned in the row for that command (in cli.COMMANDS order: jc-evolve,
# jc-rabi, nr-reduce, loop-selfenergy, loop-vertex, loop-polarization,
# report-counterterms, check-dims, oracle-verify), without a traceback,
# and leaves no CSV on 2 or 3. An exit 3 prints one line, whatever numpy
# warned on the way (the dx, vertex-q, polarization-q and s_max rows
# overflow a double inside the computation by design), and a success none.
PROBES = [
    pytest.param("dipole.dx = 1e300", (0, 0, 0, 3, 3, 3, 3, 0, 0), id="dx-1e300"),
    pytest.param("dipole.dx = 1e160", (0, 0, 0, 3, 3, 3, 3, 0, 0), id="dx-1e160"),
    pytest.param("atoms.m1 = 1e200\natoms.m2 = 1e200", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="masses-1e200"),
    pytest.param("atoms.m1 = 1e-200\natoms.m2 = 1e-200", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="masses-1e-200"),
    # lambda_2 = k^2/m2^2 reaches 1 at the top of the default nr.lambda_grid
    pytest.param("atoms.m2 = 0.1", (0, 0, 3, 3, 0, 0, 3, 0, 0), id="m2-0.1"),
    # lambda_2 overflows to inf (m2^2 is subnormal), and reaches 1e4; M^2(x = 1) = m2^2
    # is subnormal but positive, so the spacelike polarization runs
    pytest.param("atoms.m2 = 1e-160", (0, 0, 3, 3, 0, 0, 3, 0, 0), id="m2-1e-160"),
    pytest.param("atoms.m2 = 1e-3", (0, 0, 3, 3, 0, 0, 3, 0, 0), id="m2-1e-3"),
    pytest.param("regulator.lambda = 1e300", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="lambda-1e300"),
    pytest.param("regulator.lambda = 1e-300", (0, 0, 0, 3, 0, 0, 3, 0, 0), id="lambda-1e-300"),
    # the report's prefactor fit runs up to Lambda = 5000 m1, past loops.MAX_LAMBDA;
    # a zero dipole keeps wavefunction_Z's fit finite, so the report reaches that grid
    pytest.param("atoms.m1 = 1e74\natoms.m2 = 1e74\nregulator.lambda = 1e76\ndipole.dx = 0",
                 (2, 2, 0, 0, 0, 0, 3, 0, 0), id="masses-1e74-dx-0"),
    # wavefunction_Z's fixed s grid [0, 1e-3 M^2] is not small against Lambda^2,
    # or against the mass splitting at first order in it
    pytest.param("regulator.lambda = 0.1", (0, 0, 0, 0, 0, 0, 3, 0, 0), id="lambda-0.1"),
    pytest.param("atoms.m2 = 0.6\nselfenergy.b_order = 1", (0, 0, 0, 0, 0, 0, 3, 0, 0), id="m2-0.6-b_order-1"),
    pytest.param("cavity.omega = 1e300", (3, 0, 0, 0, 0, 0, 0, 0, 0), id="omega-1e300"),
    pytest.param("cavity.omega = 1e-300", (3, 3, 0, 0, 0, 0, 0, 0, 0), id="omega-1e-300"),
    pytest.param("cavity.volume = 1e-300", (0, 0, 0, 0, 0, 0, 0, 0, 0), id="volume-1e-300"),
    pytest.param("cavity.z = 1e300", (0, 0, 0, 0, 0, 0, 0, 0, 0), id="z-1e300"),
    pytest.param("vertex.q0 = 1e300\nvertex.q1 = 1e300\nvertex.q2 = 1e300\nvertex.q3 = 1e300",
                 (0, 0, 0, 0, 3, 0, 0, 0, 0), id="vertex-q-1e300"),
    pytest.param("polarization.q0 = 1e300\npolarization.q1 = 1e300\n"
                 "polarization.q2 = 1e300\npolarization.q3 = 1e300",
                 (0, 0, 0, 0, 0, 3, 0, 0, 0), id="polarization-q-1e300"),
    pytest.param("polarization.q0 = 5", (0, 0, 0, 0, 0, 3, 0, 0, 0), id="polarization-q0-5"),
    pytest.param("selfenergy.s_max = -1", (0, 0, 0, 3, 0, 0, 0, 0, 0), id="s_max--1"),
    pytest.param("selfenergy.s_max = 1e300", (0, 0, 0, 3, 0, 0, 0, 0, 0), id="s_max-1e300"),
    pytest.param("jc.t_max = 1e300", (3, 0, 0, 0, 0, 0, 0, 0, 0), id="t_max-1e300"),
    pytest.param("jc.t_max = inf", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="t_max-inf"),
    pytest.param("jc.t_max = 5e-324", (2, 0, 0, 0, 0, 0, 0, 0, 0), id="t_max-5e-324"),
    pytest.param("units.mode = SI\njc.t_max = 1e300", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="SI-t_max-1e300"),
    pytest.param("units.mode = SI\nnr.lambda3_ratio = 1e250", (3, 3, 2, 3, 0, 0, 3, 0, 0), id="SI-lambda3_ratio-1e250"),
    pytest.param("units.mode = SI", (3, 3, 0, 3, 0, 0, 3, 0, 0), id="SI"),
    pytest.param("units.mode = SI\nunits.base_energy_ev = 1e300", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="SI-base-1e300"),
    pytest.param("nr.lambda3_ratio = 1e300", (0, 0, 3, 0, 0, 0, 0, 0, 0), id="lambda3_ratio-1e300"),
    pytest.param("regulator.lambda_grid = 1e-300:1e300:5,log", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="cutoff-grid-1e-300:1e300"),
    pytest.param("nr.lambda_grid = 1e-300:1e300:5,log", (0, 0, 3, 0, 0, 0, 0, 0, 0), id="nr-grid-1e-300:1e300"),
    pytest.param("nr.lambda_grid = 0.5:5:3,lin", (0, 0, 3, 0, 0, 0, 0, 0, 0), id="nr-grid-0.5:5"),
    # r_after underflows to 0 on the lowest points, which the slope fit leaves out
    pytest.param("nr.lambda_grid = 5e-324:1e-2:9,log", (0, 0, 0, 0, 0, 0, 0, 0, 0), id="nr-grid-5e-324:1e-2"),
    pytest.param("nr.lambda_grid = 1e-4:inf:5,log", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="nr-grid-1e-4:inf"),
    pytest.param("regulator.quad_tol = 1e-18", (0, 0, 0, 3, 3, 3, 3, 0, 3), id="quad_tol-1e-18"),
    # oracle-verify runs its quadrature at 1e-10 however loose quad_tol is
    pytest.param("regulator.quad_tol = 1e-3", (0, 0, 0, 0, 0, 0, 0, 0, 0), id="quad_tol-1e-3"),
    pytest.param("units.mode = SI\ncavity.omega = 1e-310", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="SI-omega-1e-310"),
    pytest.param("units.mode = SI\ndipole.dx = 1e300", (2, 2, 2, 2, 2, 2, 2, 2, 2), id="SI-dx-1e300"),
    pytest.param("cavity.omega = 1e-310", (2, 2, 0, 0, 0, 0, 0, 0, 0), id="omega-1e-310"),
    pytest.param("cavity.volume = 1e-320", (2, 2, 0, 0, 0, 0, 0, 0, 0), id="volume-1e-320"),
    # gamma = d sqrt(m1 m2) overflows although d and m^2 are finite
    pytest.param("atoms.m1 = 1e100\natoms.m2 = 1e100\ndipole.dx = 1e300", (2, 2, 2, 2, 2, 2, 2, 2, 2),
                 id="masses-1e100-dx-1e300"),
    # the loop commands run without a dipole; the cavity commands need a coupling
    pytest.param("dipole.dx = 0", (2, 2, 0, 0, 0, 0, 0, 0, 0), id="dx-0"),
    # gamma = d sqrt(m1 m2) underflows to 0, but g = -d sqrt(Omega / V) sin(K z)
    # does not: the cavity commands reach the phase-precision refusal
    pytest.param("atoms.m1 = 1e-150\natoms.m2 = 0.9e-150\ndipole.dx = 1e-175", (3, 3, 0, 3, 0, 3, 3, 0, 0),
                 id="masses-1e-150-dx-1e-175"),
    # gamma^2 is subnormal from dipole.dx ~ 1e-154 down: the Z fit's differences
    # round to 0 below 1e-159, hold too few quanta for a line from 1e-158 to
    # 1e-157, and enough from 3e-157 on
    pytest.param("dipole.dx = 1e-160", (3, 3, 0, 0, 0, 0, 0, 0, 0), id="dx-1e-160"),
    pytest.param("dipole.dx = 1e-159", (3, 3, 0, 0, 0, 0, 0, 0, 0), id="dx-1e-159"),
    pytest.param("dipole.dx = 1e-158", (3, 3, 0, 0, 0, 0, 3, 0, 0), id="dx-1e-158"),
    pytest.param("dipole.dx = 3e-158", (3, 3, 0, 0, 0, 0, 3, 0, 0), id="dx-3e-158"),
    pytest.param("dipole.dx = 1e-157", (3, 3, 0, 0, 0, 0, 3, 0, 0), id="dx-1e-157"),
    pytest.param("dipole.dx = 3e-157", (3, 3, 0, 0, 0, 0, 0, 0, 0), id="dx-3e-157"),
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
@pytest.mark.parametrize("text, codes", PROBES)
def test_exit_code_probe(tmp_path, capsys, monkeypatch, text, codes, command):
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
    assert code == codes[cli.COMMANDS.index(command)]
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1
    if code == 0:
        assert err == ""
    csv_path = out / (command.replace("-", "_") + ".csv")
    if code in (2, 3):
        assert not csv_path.exists()
    else:
        assert np.isfinite(_numbers(read_csv(str(csv_path))[2])).all()



# The exit-code contract on random config text, well-formed in half the
# examples and malformed in the other half (unparsable values, unknown keys,
# lines without '=', duplicate keys). Numbers sit around every bound a config
# value meets: zero, the subnormal floor, m^2 underflow and overflow, the
# cutoff cap, the largest double. Sizes stay small, so each run is quick.
_MAGNITUDES = ["5e-324", "1e-320", "1e-160", "1e-12", "1e-3", "0.1", "0.5", "1", "5", "1e3", "1e76", "1e160", "1e300"]
_NUMBER = st.sampled_from(_MAGNITUDES + ["0", "-1", "-1e300"])
_BAD_NUMBER = st.one_of(st.sampled_from(["inf", "-inf", "nan", "1e400", "abc", ""]), st.floats().map(repr))
_INT = st.integers(0, 12).map(str)
_BAD_INT = st.sampled_from(["-1", "1.5", "abc", "", str(10**6)])
_SCALE = st.sampled_from([1e-300, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e300])
_CHOICES = {"jc.level_init": ("upper", "lower"), "selfenergy.path": ("expansion", "exact")}


def _fuzz_grid(good):
    ends = st.sampled_from(_MAGNITUDES) if good else st.one_of(_NUMBER, _BAD_NUMBER)
    counts = st.sampled_from(["2", "3", "5"] if good else ["1", "x", str(cli.MAX_GRID_COUNT + 1)])
    kinds = st.sampled_from(["log", "lin"] if good else ["log", "lin", "geo"])
    return st.builds("{}:{}:{},{}".format, ends, ends, counts, kinds)


def _fuzz_value(key, good):
    default = cli._TABLE[key][0]
    if key.endswith("lambda_grid"):
        return _fuzz_grid(good)
    if isinstance(default, bool):
        return st.sampled_from(["true", "false"] if good else ["maybe"])
    if isinstance(default, int):
        return st.integers(-1, 1).map(lambda step: str(default + step)) if good else _BAD_INT
    if isinstance(default, tuple):
        return st.lists(_INT if good else st.one_of(_INT, _BAD_INT), min_size=1, max_size=4).map(",".join)
    if isinstance(default, str):
        return st.sampled_from(_CHOICES[key] if good else ("bogus",))
    if not good:
        return st.one_of(_NUMBER, _BAD_NUMBER)
    return _NUMBER if default is None else st.one_of(_NUMBER, _SCALE.map(lambda f: repr(default * f)))


@st.composite
def _fuzz_config(draw):
    """(config text, --lambda-grid value or None), well-formed or not."""
    good = draw(st.booleans())
    keys = draw(st.lists(st.sampled_from(sorted(set(cli._TABLE) - {"units.mode"})), max_size=4, unique=good))
    lines = [f"{key} = {draw(_fuzz_value(key, good or draw(st.booleans())))}" for key in keys]
    if not good:
        lines += draw(st.lists(st.sampled_from(["no.such_key = 1", "atoms.m1", "= 1"]), max_size=2))
    mode = draw(st.sampled_from([None, "natural", "SI"] if good else [None, "SI", "si"]))
    if mode is not None:
        lines.append(f"units.mode = {mode}")
    lambda_grid = draw(st.one_of(st.none(), _fuzz_grid(good)))
    return "\n".join(draw(st.permutations(lines))) + "\n", lambda_grid


@given(config=_fuzz_config(), command=st.sampled_from(cli.COMMANDS))
@settings(max_examples=300, deadline=None)
def test_fuzzed_exit_code_contract(config, command):
    # main() catches only package errors, so a builtin one fails here with its example
    text, lambda_grid = config
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "run.conf")
        with open(conf, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, "--config", conf, "--out", os.path.join(tmp, "out")]
        if lambda_grid is not None:
            argv.append(f"--lambda-grid={lambda_grid}")  # a spec may start with '-'
        code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        csv_path = os.path.join(tmp, "out", command.replace("-", "_") + ".csv")
        if code in (2, 3):
            assert not os.path.exists(csv_path)
        else:
            assert np.isfinite(_numbers(read_csv(csv_path)[2])).all()


# The exit-code contract on random command lines: a command and options,
# each written "--opt VALUE" or "--opt=VALUE", in any order, with junk
# tokens (unknown options, extra words, a help flag) in some examples.
# Relative paths land in a fresh working directory.
_ARGV_OPTIONS = ("--config", "--out", "--lambda-grid")
_ARGV_VALUES = st.sampled_from(
    ["run.conf", "bad.conf", "missing.conf", "out", "", "-", "10:1000:3,log", "-10:1000:3,lin", "x"])
_ARGV_JUNK = st.one_of(
    st.sampled_from(cli.COMMANDS + ("fly",) + _ARGV_OPTIONS),
    st.sampled_from(["--", "-x", "--conf", "--config=", "=", "-h", "--help", "--help=1"]),
    _ARGV_VALUES,
)


@st.composite
def _fuzz_argv(draw):
    groups = [[draw(st.sampled_from(cli.COMMANDS + ("fly",)))]]
    for name in _ARGV_OPTIONS:
        if draw(st.booleans()):
            value = "run.conf" if name == "--config" and draw(st.booleans()) else draw(_ARGV_VALUES)
            groups.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    groups += [[token] for token in draw(st.lists(_ARGV_JUNK, max_size=1))]
    return [token for group in draw(st.permutations(groups)) for token in group]


@given(argv=_fuzz_argv())
@settings(max_examples=200, deadline=None)
def test_fuzzed_argv_exit_codes(argv):
    # main() returns a code for every command line and raises nothing
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in (("run.conf", ""), ("bad.conf", "atoms.m1 = abc\n")):
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            assert cli.main(argv) in (0, 2, 3, 4)
        finally:
            os.chdir(cwd)
