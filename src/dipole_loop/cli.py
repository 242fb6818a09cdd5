"""Batch front end: config parsing, command dispatch, CSV emission.

Usage:
    dipole-loop <command> --config <path> [--out <dir>]
                [--lambda-grid start:stop:count,log|lin]

Commands: jc-evolve, jc-rabi, nr-reduce, loop-selfenergy, loop-vertex,
loop-polarization, report-counterterms, check-dims, oracle-verify.
main() reads the command line itself: "--opt VALUE" or "--opt=VALUE" in
any order around the command, the last of a repeated option winning; -h
or --help prints the usage (exit 0), a malformed line usage and error (2).

Configuration is line-oriented "section.key = value" with '#' comments.
All config problems are collected and reported together with line
numbers; unknown keys are rejected, and so is a config asking for more
work than the MAX_* caps or a magnitude past a MAX_/MIN_ bound. Exit
codes: 0 success, 2 usage or config error (an unwritable CSV or summary line
included), 3 numeric/domain error (a NaN or an infinity in an output row
included), 4 failed internal cross-check.
main() catches only the package's errors (errors.py): any other exception
is a bug and prints its traceback. A command process (the dipole-loop
script, python -m dipole_loop.cli) enters through run(), which flushes
stdout and stderr and ends with os._exit; code embedding the package calls
main(), which returns the exit code.
numpy loads only in a command that computes with arrays, with one BLAS
thread unless the caller set a count: reading a config, refusing it,
check-dims and the three loop sweeps (rows of plain floats) run without it.

Every CSV starts with the full resolved configuration echoed as
'#'-prefixed comments, then a header row naming columns and units, then
data rows with floats printed as %.17e. A float array is formatted in
numpy blocks (_csvfloat), byte-identical to %.17e cell by cell. Identical
config and command produce byte-identical CSVs.

With units.mode = SI the apparatus keys (atoms.*, dipole.*, cavity.*,
jc.t_max) are read as SI values (kg, C m, rad/s, m^3, m, s) and
converted to natural units once at this boundary, where the converted
values pass the table's checks again; regulator and sweep keys are
always natural-unit numbers, and all outputs are in natural units.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from collections.abc import Mapping
from types import MappingProxyType

# jc, nr and renorm are imported by the handlers that call them, so a
# command process loads only its own module; handlers call them as module
# attributes, so wrappers installed there (bench/tracing.py) still apply
from .core import (
    AtomPair,
    classify_renormalizability,
    dipole_from_moment,
    engineering_dimension,
)
from .errors import (
    ConfigError,
    DipoleLoopError,
    KinematicDomainError,
    OracleError,
)
from .loops import (
    MAX_LAMBDA,
    MasterIntegralKind,
    RegScheme,
    feynman_identity_check,
    master_integral,
    radial_quadrature,
    symmetric_integration_check,
)

__all__ = ["COMMANDS", "parse_config", "parse_grid", "dispatch", "main", "run"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# Caps on the work and the magnitudes one config may ask for, each at least
# ten times the largest value a workload, test or README example uses.
# _grid_spec checks the count before parse_grid allocates the grid.
MAX_GRID_COUNT = 2000
MAX_N_MAX = 1200
MAX_N_TIMES = 200_000
MAX_S_COUNT = 100
MAX_N_LIST = 100
# the SI electric-field scale goes through (base energy)^4: it overflows
# past about 1.7e74 eV and underflows to zero below about 1e-83 eV
MIN_BASE_ENERGY_EV = 1e-70
MAX_BASE_ENERGY_EV = 1e70
# every float a CSV holds, config echo included
_FLOAT_FORMAT = "%.17e"


def _grid_spec(spec: str) -> tuple:
    """Check "start:stop:count,log|lin" in pure Python: (start, stop, count, kind)."""
    spec = spec.strip()
    parts = spec.rsplit(",", 1)
    if len(parts) != 2 or parts[1] not in ("log", "lin"):
        raise ValueError(f"grid {spec!r} must end in ',log' or ',lin'")
    pieces = parts[0].split(":")
    if len(pieces) != 3:
        raise ValueError(f"grid {spec!r} must be start:stop:count")
    try:
        start, stop = float(pieces[0]), float(pieces[1])
        count = int(pieces[2])
    except ValueError:
        raise ValueError(f"grid {spec!r} has unparsable numbers") from None
    if count < 2:
        raise ValueError(f"grid {spec!r} needs count >= 2")
    if count > MAX_GRID_COUNT:
        raise ValueError(f"grid {spec!r} needs count <= {MAX_GRID_COUNT}")
    if parts[1] == "log" and (start <= 0 or stop <= 0):
        raise ValueError(f"log grid {spec!r} needs positive endpoints")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid {spec!r} needs finite endpoints")
    return start, stop, count, parts[1]


def parse_grid(spec: str):
    """Parse "start:stop:count,log|lin" into a 1-d float array."""
    start, stop, count, kind = _grid_spec(spec)
    import numpy as np
    return (np.geomspace if kind == "log" else np.linspace)(start, stop, count)


def _spaced(start: float, stop: float, count: int, kind: str = "lin") -> list:
    """count floats from start to stop as numpy's linspace spaces them (for kind "log", its
    geomspace, up to the last bit of 10.0 ** y): the cutoff and s grids, far below overflow."""
    if kind == "log":
        return [start] + [10.0**y for y in _spaced(math.log10(start), math.log10(stop), count)[1:-1]] + [stop]
    delta, div = stop - start, count - 1
    # numpy scales i / div by delta where the step delta / div rounds to 0
    return [(i * (delta / div) if delta / div else i / div * delta) + start for i in range(div)] + [stop]


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"expected true or false, got {s!r}")


def _parse_int_list(s: str) -> tuple:
    try:
        return tuple(int(tok) for tok in s.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {s!r}") from None


def _opt(parser):
    """Value parser that maps an empty string to None."""

    def parse(s: str):
        return None if s.strip() == "" else parser(s)

    return parse


def _choice(*allowed: str):
    def parse(s: str):
        s = s.strip()
        if s not in allowed:
            raise ValueError(f"expected one of {allowed}, got {s!r}")
        return s

    return parse


def _grid(what: str, hi: float = math.inf):
    """Value parser of a grid spec, kept as its text.

    Every value of a lin or log grid lies between its finite endpoints,
    so the endpoints alone are checked against the bounds."""

    def parse(s: str) -> str:
        start, stop, _, _ = _grid_spec(s)
        if not min(start, stop) > 0:
            raise ValueError(f"{what} grid values must be positive")
        if not max(start, stop) <= hi:
            raise ValueError(f"{what} grid values must be <= {hi}")
        return s.strip()

    return parse


_CUTOFF_GRID = _grid("cutoff", MAX_LAMBDA)

# checks: (predicate, phrase) pairs; a value that fails one is reported
# as "<key> <phrase>"
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "must be a positive finite number")
_FINITE = (math.isfinite, "must be finite")
_FINITE_WHEN_GIVEN = (lambda v: v is None or math.isfinite(v), "must be finite when given")


def _at_least(lo):
    return (lambda v: v >= lo, f"must be >= {lo}")


def _at_most(hi):
    return (lambda v: v <= hi, f"must be <= {hi}")


# key -> (default, value parser, checks). Defaults are the resolved values
# used when a key is absent; None means "derived at dispatch". The checks
# run in order on the merged value and the first that fails is reported.
_TABLE = {
    "atoms.m1": (1.0, float, (_POSITIVE,)),
    "atoms.m2": (0.95, float, (_POSITIVE,)),
    "dipole.dx": (0.01, float, (_FINITE,)),
    "dipole.dy": (0.0, float, (_FINITE,)),
    "dipole.dz": (0.0, float, (_FINITE,)),
    "cavity.omega": (0.05, float, (_POSITIVE,)),
    "cavity.volume": (1.0, float, (_POSITIVE,)),
    "cavity.z": (None, _opt(float), (_FINITE_WHEN_GIVEN,)),
    "jc.level_init": ("upper", _choice("upper", "lower"), ()),
    "jc.n_init": (0, int, (_at_least(0),)),
    "jc.n_max": (8, int, (_at_most(MAX_N_MAX),)),
    "jc.rwa": (True, _parse_bool, ()),
    "jc.leak_threshold": (1e-8, float, ((lambda v: 0 < v < 1, "must be in (0, 1)"),)),
    "jc.t_max": (None, _opt(float), ((lambda v: v is None or v > 0, "must be positive when given"), _FINITE_WHEN_GIVEN)),
    "jc.n_times": (401, int, (_at_least(2), _at_most(MAX_N_TIMES))),
    "jc.n_list": ((0, 1, 5), _parse_int_list, ((lambda v: len(v) <= MAX_N_LIST, f"must have at most {MAX_N_LIST} entries"),)),
    "regulator.lambda": (100.0, float, (_POSITIVE, _at_most(MAX_LAMBDA))),
    "regulator.quad_tol": (1e-10, float, ((lambda v: 0 < v < 1e-2, "must be in (0, 1e-2)"),)),
    "regulator.lambda_grid": (None, _opt(_CUTOFF_GRID), ()),
    "selfenergy.level": (1, int, ((lambda v: v in (1, 2), "must be 1 or 2"),)),
    "selfenergy.path": ("expansion", _choice("expansion", "exact"), ()),
    "selfenergy.b_order": (0, int, ((lambda v: v in (0, 1), "must be 0 or 1"),)),
    "selfenergy.s_max": (None, _opt(float), (_FINITE_WHEN_GIVEN,)),
    "selfenergy.s_count": (9, int, (_at_least(2), _at_most(MAX_S_COUNT))),
    "vertex.q0": (0.25, float, (_FINITE,)),
    "vertex.q1": (0.25, float, (_FINITE,)),
    "vertex.q2": (0.0, float, (_FINITE,)),
    "vertex.q3": (0.0, float, (_FINITE,)),
    "vertex.symmetric_masses": (True, _parse_bool, ()),
    "polarization.q0": (0.0, float, (_FINITE,)),
    "polarization.q1": (0.3, float, (_FINITE,)),
    "polarization.q2": (0.0, float, (_FINITE,)),
    "polarization.q3": (0.0, float, (_FINITE,)),
    "nr.lambda_grid": ("1e-4:1e-2:9,log", _grid("small-parameter"), ()),
    "nr.lambda3_ratio": (0.7, float, (_POSITIVE,)),
    "units.mode": ("natural", _choice("natural", "SI"), ()),
    "units.base_energy_ev": (1.0, float, (_POSITIVE, _at_least(MIN_BASE_ENERGY_EV), _at_most(MAX_BASE_ENERGY_EV))),
}


def _check(values: dict, where: dict) -> list:
    """The table's checks, then the cross-field rules; returns the problems."""

    def loc(key):
        return f"line {where[key]}: " if key in where else ""

    problems = []
    numbers_ok = True
    for key, (_, _, checks) in _TABLE.items():
        for check in checks:
            ok, phrase = check
            if not ok(values[key]):
                problems.append(f"{loc(key)}{key} {phrase}")
                if check in (_POSITIVE, _FINITE):
                    numbers_ok = False
                break

    # a non-positive or non-finite number would make the ordering meaningless
    if numbers_ok and values["atoms.m1"] < values["atoms.m2"]:
        problems.append(f"{loc('atoms.m2')}atoms.m1 must be >= atoms.m2 (level 1 is the upper level)")
    if values["jc.n_max"] < values["jc.n_init"] + 2:
        problems.append(
            f"{loc('jc.n_max')}jc.n_max must be >= jc.n_init + 2 to monitor truncation leakage"
        )
    for n in values["jc.n_list"]:
        if n < 0 or n + 2 > values["jc.n_max"]:
            problems.append(
                f"{loc('jc.n_list')}jc.n_list entry {n} needs 0 <= n <= jc.n_max - 2"
            )
    return problems


def parse_config(text: str) -> Mapping:
    """Parse and validate key = value configuration text.

    Collects every problem (unknown key, unparsable value, constraint
    violation) with its line number before raising ConfigError. Returns
    a read-only mapping of every table key to its resolved value.
    """
    values = {key: default for key, (default, _, _) in _TABLE.items()}
    where: dict = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _TABLE:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in where:
            problems.append(f"line {lineno}: duplicate key {key!r} (first set on line {where[key]})")
            continue
        where[key] = lineno
        try:
            values[key] = _TABLE[key][1](val)
        except ValueError as exc:
            problems.append(f"line {lineno}: {key}: {exc}")
    # constraint checks run on the merged values even when some lines
    # failed to parse (those keys keep defaults, so no cascades)
    problems.extend(_check(values, where))
    if problems:
        raise ConfigError(problems)
    return MappingProxyType(values)


# ---------------------------------------------------------------------------
# physics assembly (single unit-conversion boundary)
# ---------------------------------------------------------------------------

# CODATA 2018 (Tiesinga et al., Rev. Mod. Phys. 93, 025010 (2021))
HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)  # J s: h / 2 pi, h exact in the SI
C_SI = 299792458.0  # m / s
EPS0_SI = 8.8541878128e-12  # F / m
EV_SI = 1.602176634e-19  # J

# apparatus key -> the quantity its value is read as when units.mode = SI
_SI_QUANTITY = {
    "atoms.m1": "mass", "atoms.m2": "mass",
    "dipole.dx": "dipole_moment", "dipole.dy": "dipole_moment", "dipole.dz": "dipole_moment",
    "cavity.omega": "angular_frequency", "cavity.volume": "volume", "cavity.z": "length",
    "jc.t_max": "time",
}
_DIPOLE = ("dipole.dx", "dipole.dy", "dipole.dz")


def _si_scales(base_energy_ev: float) -> dict:
    """SI value of one natural unit of each quantity (hbar = c = eps0 = 1)."""
    energy = base_energy_ev * EV_SI  # J
    length = HBAR_SI * C_SI / energy  # m
    # the field scale is fixed by the energy density eps0 E^2, and d E is
    # an energy in both systems
    field = (energy / (EPS0_SI * length**3)) ** 0.5
    return {
        "mass": energy / C_SI**2,
        "dipole_moment": energy / field,
        "angular_frequency": energy / HBAR_SI,
        "volume": length**3,
        "length": length,
        "time": HBAR_SI / energy,
    }


def _physics(cfg: Mapping) -> dict:
    """The resolved config in natural units, the one mapping a handler reads.

    With units.mode = SI the apparatus keys are divided by their scales
    here, and the converted values must pass the table's checks again.
    cavity.z defaults to the mode's antinode, and "atoms" (AtomPair) is
    built from the converted values, so a mass pair outside AtomPair's range
    is a config error. It refuses, in pure Python, a non-finite gamma, so
    _gamma cannot fail; the command handlers, renorm and loops refuse the rest.
    """
    natural = dict(cfg)
    if cfg["units.mode"] == "SI":
        scales = _si_scales(cfg["units.base_energy_ev"])
        for key, quantity in _SI_QUANTITY.items():
            if natural[key] is not None:
                natural[key] = natural[key] / scales[quantity]
        problems = _check(natural, {})  # without line numbers each problem starts with its key
        if problems:
            raise ConfigError([
                f"after SI conversion: {p} (natural-unit value {natural[p.split(' ', 1)[0]]!r})"
                for p in problems
            ])
    m1, m2 = natural["atoms.m1"], natural["atoms.m2"]
    try:
        natural["atoms"] = AtomPair(m1=m1, m2=m2)
    except ValueError as exc:
        raise ConfigError([f"atoms.m1 and atoms.m2 in natural units: {exc}"]) from None
    # gamma^{0i} = d_i sqrt(m1 m2), as core.dipole_from_moment computes it
    scale = math.sqrt(m1 * m2)
    if not all(math.isfinite(natural[key] * scale) for key in _DIPOLE):
        raise ConfigError(["gamma = d sqrt(m1 m2) is not finite in natural units; it is built from dipole.dx, dipole.dy, dipole.dz, atoms.m1 and atoms.m2"])
    if natural["cavity.z"] is None:
        natural["cavity.z"] = math.pi / (2.0 * natural["cavity.omega"])  # antinode of sin(K z) with K = Omega
    return natural


def _gamma(cfg: Mapping):
    """The DipoleTensor of _physics' mapping, which has checked it is finite."""
    return dipole_from_moment([cfg[key] for key in _DIPOLE], cfg["atoms"])


def _pmap(fn, items):
    """Order-preserving map over a sweep; bench/tracing.py wraps it by name."""
    return [fn(x) for x in items]


def _sweep(cfg: Mapping, rows_at):
    """The rows of rows_at(reg), a list of rows, over the config's cutoffs, each RegScheme mapped by _pmap."""
    spec = cfg["regulator.lambda_grid"]
    lambdas = [cfg["regulator.lambda"]] if spec is None else _spaced(*_grid_spec(spec))
    regs = [RegScheme(Lambda=lam, quad_tol=cfg["regulator.quad_tol"]) for lam in lambdas]
    return [row for rows in _pmap(rows_at, regs) for row in rows]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    """The text of one CSV value: a config echo's or a row cell's."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):  # numpy's float64 included
        return _FLOAT_FORMAT % v
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _write_csv(path: str, cfg: Mapping, command: str, header: list, rows) -> None:
    """Write the config echo (sorted by key), the header and the rows.

    A float array is formatted in numpy blocks by _csvfloat, byte-identical
    to _cell's _FLOAT_FORMAT, with _cell for the cells it cannot decide; a
    list of rows goes cell by cell through _cell. No header name or cell
    holds a comma, a quote or a newline, so no field needs quoting.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# command = {command}\n")
        for key in sorted(cfg):
            fh.write(f"# {key} = {_cell(cfg[key])}\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, list):
            fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
        else:
            from . import _csvfloat
            fh.writelines(_csvfloat.text_blocks(rows, _cell))


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _jc_params(cfg: Mapping, Omega: float | None = None):
    """The jc.JCParams of the config's cavity mode and atoms."""
    from . import jc as jcmod
    atoms = cfg["atoms"]
    g = jcmod.rabi_coupling(cfg["dipole.dx"], cfg["cavity.omega"], cfg["cavity.volume"], cfg["cavity.z"])
    if not math.isfinite(g):
        raise ConfigError([f"coupling g is {g!r} in natural units; it is built from dipole.dx, cavity.omega, "
                           "cavity.volume and cavity.z"])
    return jcmod.JCParams(
        g=g,
        omega12=atoms.omega12,
        Omega=cfg["cavity.omega"] if Omega is None else Omega,
        n_max=cfg["jc.n_max"],
        rwa=cfg["jc.rwa"],
        leak_threshold=cfg["jc.leak_threshold"],
    )


def _cmd_jc_evolve(cfg: Mapping):
    import numpy as np
    from . import jc as jcmod
    params = _jc_params(cfg)
    state = jcmod.JCState.basis(cfg["jc.level_init"], cfg["jc.n_init"], cfg["jc.n_max"])
    t_max = cfg["jc.t_max"]
    if t_max is None:
        # the default span is one vacuum Rabi period: it needs g
        if abs(params.g) < 1e-300:
            raise ConfigError(["jc-evolve: coupling g vanishes (dipole zero or node of the mode); set jc.t_max"])
        t_max = 2.0 * jcmod.rabi_period(params.g, cfg["jc.n_init"])
    dt = t_max / (cfg["jc.n_times"] - 1)
    if dt == 0.0:
        raise ConfigError([f"jc-evolve: sample step jc.t_max / (jc.n_times - 1) = {t_max!r} / {cfg['jc.n_times'] - 1} rounds to zero"])
    result = jcmod.evolve(state, params, t_max, dt)
    rows = np.column_stack(
        (result.times, result.p_excited, result.inversion, result.norms, result.top_band)
    )
    header = ["time[natural]", "p_excited[1]", "inversion[1]", "norm[1]", "top_band[1]"]
    drift = float(np.max(np.abs(result.norms - 1.0)))
    summary = (
        f"jc-evolve: {len(rows)} samples to t = {t_max:.6g}, "
        f"norm drift {drift:.3e}, max top-band {float(result.top_band.max()):.3e}, "
        f"phase estimate {result.phase_estimate:.3e} (bound {jcmod.PHASE_PRECISION_BOUND:.0e})"
    )
    return header, rows, summary, []


def _cmd_jc_rabi(cfg: Mapping):
    from . import jc as jcmod
    atoms = cfg["atoms"]
    if atoms.omega12 <= 0:
        raise ConfigError(["jc-rabi: needs atoms.m1 > atoms.m2 (resonance tunes the mode to omega12)"])
    # Tuned to resonance, Omega = omega12, but g stays the configured mode's,
    # at cavity.omega and cavity.z (by default its antinode). Both period
    # columns use this g, so rel_err holds; the tuned cavity's g would be
    # sqrt(omega12 / Omega) sin(omega12 z) / sin(Omega z) times this one.
    params = _jc_params(cfg, Omega=atoms.omega12)
    if abs(params.g) < 1e-300:
        raise ConfigError(["jc-rabi: coupling g vanishes (dipole zero or node of the mode)"])

    n_list = cfg["jc.n_list"]
    rows = []
    for n, measured in zip(n_list, jcmod.measure_resonant_period(params, n_list)):
        predicted = jcmod.rabi_period(params.g, n)
        rows.append((n, measured, predicted, abs(measured - predicted) / predicted))
    header = ["n[1]", "period_measured[natural]", "period_predicted[natural]", "rel_err[1]"]
    worst = max(r[3] for r in rows)
    summary = f"jc-rabi: {len(rows)} photon numbers, worst period error {worst:.3e}"
    return header, rows, summary, []


def _cmd_nr_reduce(cfg: Mapping):
    import numpy as np
    from . import nr as nrmod
    atoms = cfg["atoms"]
    targets = parse_grid(cfg["nr.lambda_grid"])
    k = atoms.m1 * np.sqrt(targets)
    gdotF = cfg["nr.lambda3_ratio"] * targets * atoms.m_bar * np.sqrt(atoms.m1 * atoms.m2)
    lam_max = float(np.max(nrmod.lambda_max(k, gdotF, atoms)))
    if not np.isfinite(gdotF).all():
        raise ConfigError(["nr-reduce: gamma.F is not finite in natural units; it is built from nr.lambda3_ratio, nr.lambda_grid, atoms.m1 and atoms.m2"])
    if not lam_max < 1.0:
        raise KinematicDomainError(f"nr-reduce: lambda_max = {lam_max:.3g} >= 1 on nr.lambda_grid; expansion invalid")
    res = nrmod.decoupling_residual(k, gdotF, atoms)
    rows = np.column_stack(
        (targets, res["lambda_max"], res["r_before"], res["r_after"], res["error"], res["h_norm"])
    )
    header = [
        "lambda_target[1]",
        "lambda_max[1]",
        "residual_before[natural]",
        "residual_after[natural]",
        "reduced_block_error[natural]",
        "h_norm[natural]",
    ]
    kept = res["r_after"] > 0  # r_after underflows to 0 below lambda ~ 1e-162, and log(0) fits nothing
    lam = res["lambda_max"][kept]
    # fewer than two distinct values of a finite lam; np.unique would
    # import numpy.ma, which costs more than this handler computes
    if lam.size == 0 or lam.min() == lam.max():
        fit = "not fitted (fewer than two distinct lambda_max)"
    else:
        fit = f"{np.polyfit(np.log(lam), np.log(res['r_after'][kept]), 1)[0]:.4f} (target 2)"
    if not kept.all():
        fit += f", {np.count_nonzero(~kept)} rows with r_after = 0 left out"
    summary = f"nr-reduce: {len(rows)} points, post-transform residual slope {fit}"
    return header, rows, summary, []


def _cmd_loop_selfenergy(cfg: Mapping):
    from . import renorm
    atoms, gamma = cfg["atoms"], _gamma(cfg)
    level = cfg["selfenergy.level"]
    path = cfg["selfenergy.path"]
    b_order = cfg["selfenergy.b_order"]
    s_max = cfg["selfenergy.s_max"]
    if s_max is None:
        s_max = 1e-3 * atoms.M2
    s_grid = _spaced(0.0, s_max, cfg["selfenergy.s_count"])
    p_sq = [s - atoms.mass(level) ** 2 for s in s_grid]

    def block(reg):
        res = renorm.self_energy(level, p_sq, atoms, gamma, reg, path=path, b_order=b_order)
        columns = (s_grid, p_sq, res.sigma_I, res.sigma_II, res.total, [v - res.on_shell_value for v in res.total])
        return [(reg.Lambda, *row) for row in zip(*columns)]

    rows = _sweep(cfg, block)
    header = [
        "lambda[natural]",
        "s[natural^2]",
        "p_sq[natural^2]",
        "sigma_I[natural^2]",
        "sigma_II[natural^2]",
        "sigma_total[natural^2]",
        "sigma_subtracted[natural^2]",
    ]
    summary = (
        f"loop-selfenergy: level {level}, {path} path, {len(rows) // len(s_grid)} cutoff(s) x "
        f"{len(s_grid)} offsets, Sigma(-m^2) = {rows[0][5]:.9e}"
    )
    return header, rows, summary, []


def _cmd_loop_vertex(cfg: Mapping):
    from . import renorm
    atoms, gamma = cfg["atoms"], _gamma(cfg)
    q = (cfg["vertex.q0"], cfg["vertex.q1"], cfg["vertex.q2"], cfg["vertex.q3"])
    p_prime = (atoms.m1, 0.0, 0.0, 0.0)

    def row(reg):
        v = renorm.vertex_one_loop(p_prime, q, atoms, gamma, reg, symmetric_masses=cfg["vertex.symmetric_masses"])
        return [(reg.Lambda, v["q_sq"], v["J"], v["K0"], v["K1"], v["K2"], v["Gamma_I_coeff"], v["Z1_inv"])]

    rows = _sweep(cfg, row)
    header = [
        "lambda[natural]",
        "q_sq[natural^2]",
        "J[1]",
        "K0[natural^-2]",
        "K1[natural^-2]",
        "K2[natural^-2]",
        "Gamma_I_coeff[1]",
        "Z1_inv[1]",
    ]
    summary = f"loop-vertex: {len(rows)} cutoff(s), Z1_inv = {rows[-1][7]:.12e} at lambda = {rows[-1][0]:.6g}"
    return header, rows, summary, []


def _cmd_loop_polarization(cfg: Mapping):
    from . import renorm
    atoms, gamma = cfg["atoms"], _gamma(cfg)
    q = (cfg["polarization.q0"], cfg["polarization.q1"], cfg["polarization.q2"], cfg["polarization.q3"])

    def row(reg):
        pol = renorm.photon_polarization(q, atoms, gamma, reg)
        return [(reg.Lambda, pol["q_sq"], pol["P_coeff"], pol["transversality"], *(v for row in pol["Pi"] for v in row))]

    rows = _sweep(cfg, row)
    header = ["lambda[natural]", "q_sq[natural^2]", "P_coeff[1]", "transversality[1]"]
    header.extend(f"Pi_{mu}{nu}[natural^2]" for mu in range(4) for nu in range(4))
    summary = (
        f"loop-polarization: {len(rows)} cutoff(s), P = {rows[-1][2]:.12e}, "
        f"transversality {rows[-1][3]:.3e}"
    )
    return header, rows, summary, []


def _cmd_report_counterterms(cfg: Mapping):
    from . import renorm
    reg = RegScheme(Lambda=cfg["regulator.lambda"], quad_tol=cfg["regulator.quad_tol"])
    rep = renorm.counterterm_report(cfg["atoms"], _gamma(cfg), reg, b_order=cfg["selfenergy.b_order"])
    rows = list(rep.rows)
    header = ["quantity[name]", "value[natural]", "operator_class[name]"]
    summary = (
        f"report-counterterms: measured loop prefactor {rep.prefactor_measured:.12e}, "
        f"ratio to printed 1/(2 pi)^3 = {rep.prefactor_ratio_to_printed:.9f}"
    )
    return header, rows, summary, []


def _cmd_check_dims(cfg: Mapping):
    rows = []
    for interaction in ("P_tilde", "P"):
        for n in (3, 2):
            dim = engineering_dimension(interaction, n)
            rows.append((
                interaction,
                n,
                str(dim),
                float(dim),
                classify_renormalizability(interaction, n),
            ))
    header = [
        "interaction[name]",
        "n_spatial[1]",
        "dimension[exact]",
        "dimension[1]",
        "classification[name]",
    ]
    summary = "check-dims: 4 interaction/dimension assignments tabulated"
    return header, rows, summary, []


def _cmd_oracle_verify(cfg: Mapping):
    """Closed forms vs the tanh-sinh quadrature oracle, plus the measure checks."""
    tol = min(cfg["regulator.quad_tol"], 1e-10)  # a case passes within 1e-10, so the oracle runs as tight

    def one(case):
        kind, ratio, lam = case
        s = (ratio * lam) ** 2
        a, b = kind.value  # the integrand u^a / (u + s)^b
        closed = master_integral(kind, s, lam)
        quad = radial_quadrature(lambda u: u**a / (u + s) ** b, lam, tol)
        rel = abs(closed - quad) / max(abs(closed), abs(quad))
        return (kind.name, ratio, lam, closed, quad, rel)

    cases = [
        (kind, ratio, lam)
        for kind in MasterIntegralKind
        for ratio in (1e-3, 1e-2, 0.1, 0.3)
        for lam in (1.0, 10.0, 100.0)
    ]
    rows = _pmap(one, cases)
    header = [
        "kind[name]",
        "scale_over_lambda[1]",
        "lambda[natural]",
        "closed_form[natural]",
        "quadrature[natural]",
        "rel_err[1]",
    ]
    worst = max(r[5] for r in rows)
    failures = [r for r in rows if r[5] > 1e-10]

    fey = feynman_identity_check(1.3, 0.7)
    fey3 = feynman_identity_check(1.3, 0.7, 2.1)
    rows.append(("feynman_identity_2", 0.0, 0.0, fey, 0.0, fey))
    rows.append(("feynman_identity_3", 0.0, 0.0, fey3, 0.0, fey3))
    sym = symmetric_integration_check()
    rows.append(("symmetric_offdiag_z", 0.0, 0.0, sym["max_offdiag_z"], 0.0, 0.0))
    rows.append(("symmetric_diag_z", 0.0, 0.0, sym["max_diag_z"], 0.0, 0.0))

    problems = []
    if failures:
        problems.append(f"{len(failures)} closed-form cases off by more than 1e-10 (worst {worst:.3e})")
    if fey > 1e-11 or fey3 > 1e-11:
        problems.append(f"Feynman identity residuals {fey:.3e}, {fey3:.3e} exceed 1e-11")
    if sym["max_offdiag_z"] > 5.0 or sym["max_diag_z"] > 5.0:
        problems.append(
            f"angular second-moment z-scores {sym['max_offdiag_z']:.2f}/{sym['max_diag_z']:.2f} exceed 5"
        )
    summary = f"oracle-verify: {len(cases)} closed-form cases, worst rel err {worst:.3e}"
    return header, rows, summary, problems


# ---------------------------------------------------------------------------
# dispatch and entry point
# ---------------------------------------------------------------------------

# Each handler takes _physics' mapping and returns (header, rows, summary,
# problems): rows are a 2-d float array, or a list of row tuples when a column
# holds ints or text; problems are failed internal cross-checks, raised as
# OracleError once the CSV is written. A NaN or an infinity in any row is
# refused before the CSV is opened.
_HANDLERS = {
    "jc-evolve": _cmd_jc_evolve,
    "jc-rabi": _cmd_jc_rabi,
    "nr-reduce": _cmd_nr_reduce,
    "loop-selfenergy": _cmd_loop_selfenergy,
    "loop-vertex": _cmd_loop_vertex,
    "loop-polarization": _cmd_loop_polarization,
    "report-counterterms": _cmd_report_counterterms,
    "check-dims": _cmd_check_dims,
    "oracle-verify": _cmd_oracle_verify,
}
COMMANDS = tuple(_HANDLERS)


def _nonfinite_column(header: list, rows):
    """Header of the first numeric column holding a NaN or an infinity, or None."""
    if isinstance(rows, list):
        finite = [isinstance(column[0], str) or all(map(math.isfinite, column)) for column in zip(*rows)]
    else:
        import numpy as np
        finite = np.isfinite(rows).all(axis=0).tolist()
    return next((name for name, ok in zip(header, finite) if not ok), None)


def dispatch(command: str, cfg: Mapping, out_dir: str = ".") -> str:
    """Run one command, write its CSV, print the one-line summary.

    Returns the CSV path. Raises the package error types (an unwritable
    CSV or summary line is a ConfigError, a non-finite row or a handler's
    RuntimeWarning a DipoleLoopError); main() maps them to exit codes.
    """
    if command not in _HANDLERS:
        raise ConfigError([f"unknown command {command!r}; expected one of {COMMANDS}"])
    # one BLAS thread unless the caller set a count: no matrix here is wide
    # enough for a second to pay. OpenBLAS reads the count when numpy loads,
    # in a handler, and no child process inherits the default
    default_threads = "OMP_NUM_THREADS" not in os.environ
    if default_threads:
        os.environ["OMP_NUM_THREADS"] = "1"
    # a RuntimeWarning (numpy's floating-point exceptions) is recorded, not shown
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            header, rows, summary, problems = _HANDLERS[command](_physics(cfg))
    finally:
        if default_threads:
            del os.environ["OMP_NUM_THREADS"]
        for w in caught:
            if not issubclass(w.category, RuntimeWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    bad = _nonfinite_column(header, rows)
    if bad is not None:
        raise DipoleLoopError(f"{command}: column {bad} holds a non-finite value; no CSV written")
    floating = [w.message for w in caught if issubclass(w.category, RuntimeWarning)]
    if floating:
        raise DipoleLoopError(f"{command}: {floating[0]}; no CSV written")
    path = os.path.join(out_dir, command.replace("-", "_") + ".csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(path, cfg, command, header, rows)
        print(summary)
    except OSError as exc:
        raise ConfigError([f"cannot write output: {exc}"]) from None
    if problems:
        raise OracleError("; ".join(problems))
    return path


_USAGE = "usage: dipole-loop <command> --config PATH [--out DIR] [--lambda-grid start:stop:count,log|lin]"


def _read_argv(argv: list) -> tuple:
    """(command, {option: value}) of a command line; a ValueError names its first problem."""
    words, opts, tokens = [], {"--out": "."}, iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        if not token.startswith("-"):
            words.append(token)
        elif name not in ("--config", "--out", "--lambda-grid"):
            raise ValueError(f"unknown option {name!r}")
        elif not eq and (value := next(tokens, "--")).startswith("--"):
            raise ValueError(f"option {name} needs a value")
        else:
            opts[name] = value  # the last of a repeated option wins
    if len(words) > 1:
        raise ValueError(f"unexpected argument {words[1]!r}")
    if not words or words[0] not in _HANDLERS:
        problem = f"unknown command {words[0]!r}" if words else "missing command"
        raise ValueError(f"{problem}; expected one of {', '.join(COMMANDS)}")
    if "--config" not in opts:
        raise ValueError("missing option --config PATH")
    return words[0], opts


def main(argv: list | None = None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        _report(_USAGE, f"commands: {', '.join(COMMANDS)}", file=sys.stdout)
        return 0
    try:
        command, opts = _read_argv(argv)
    except ValueError as exc:
        _report(_USAGE, f"error: {exc}")
        return 2
    try:
        try:
            with open(opts["--config"], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError([f"cannot read config file: {exc}"]) from None
        cfg = parse_config(text)
        if "--lambda-grid" in opts:
            try:
                spec = _CUTOFF_GRID(opts["--lambda-grid"])
            except ValueError as exc:
                raise ConfigError([f"--lambda-grid: {exc}"]) from None
            cfg = MappingProxyType({**cfg, "regulator.lambda_grid": spec})
        dispatch(command, cfg, opts["--out"])
        return 0
    except ConfigError as exc:
        _report(*(f"config error: {problem}" for problem in exc.problems))
        return 2
    except OracleError as exc:
        _report(f"oracle check failed: {exc}")
        return 4
    except DipoleLoopError as exc:
        _report(f"error: {exc}")
        return 3


def _report(*lines: str, file=None) -> None:
    """Print lines on stderr (or file); if they cannot be written, the exit code is the only report left."""
    try:
        for line in lines:
            print(line, file=file or sys.stderr)
    except OSError:
        pass


def run() -> None:
    """Process entry point: main(), then flush stdout and stderr and os._exit.

    When main() returns, _write_csv's with block has closed the CSV, and
    nothing but stdout and stderr is still buffered, so ending here skips
    only the interpreter's finalization, which frees every module and numpy
    object. A flush of stdout that fails (a closed pipe, a full disk) is an
    unwritable output, exit 2 as in main(). A failed flush of stderr turns
    only a success into 2: after a refusal the code is the one report that
    still reaches the caller. An uncaught exception, which main() lets
    through only for a bug, leaves by the normal exit path.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        _report(f"config error: cannot write output: {exc}")
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        code = code or 2
    os._exit(code)


if __name__ == "__main__":
    run()
