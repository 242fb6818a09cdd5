"""Loop CSV columns against 40-digit mpmath of their own regulated integrals.

The truth integrates the same closed-form master integrals in mpmath at
40 digits, from the same float inputs, so it shares none of the code's
double arithmetic or Feynman-parameter rules: it is the oracle of rounding
and quadrature. Rows are a fixed subsample of the default config and of
the benchmark's seed-0 cutoff-sweep and edge-kinematics configs (every
fourth cutoff). Each column is held to 10 x quad_tol relative, a bound
fixed before the first comparison. Each test prints one line per column
and source: the worst relative error, its ratio to the bound and the
cutoff where it occurs (run with -s to see them).

Columns covered: loop-polarization's P_coeff; loop-vertex's J, K0, K1
and K2; loop-selfenergy's sigma_I, sigma_II and sigma_total at offsets 0,
4 and 8 of each cutoff's 9, and its sigma_subtracted at offsets 4 and 8,
which misses the bound on every source (xfail, ROADMAP item 3; strict
except on the default source, where the miss is about one ulp).
"""

import csv
import math

import mpmath
import numpy as np
import pytest

from dipole_loop import cli
from dipole_loop.core import contractions, gamma_sq_dot

LEDGER_DPS = 40
BOUND_PER_TOL = 10.0


def _command_rows(tmp_path, command, text):
    """The resolved config and the data rows (header -> float) of one command's CSV."""
    conf = tmp_path / "run.conf"
    conf.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(conf), "--out", str(tmp_path)]) == 0
    with open(tmp_path / (command.replace("-", "_") + ".csv"), encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    return cli._physics(cli.parse_config(text)), [{k: float(v) for k, v in row.items()} for row in csv.DictReader(body)]


def _worst(command, source, column, errors, bound):
    """Print and return the worst of one column's (relative error, cutoff) pairs on one
    source; a NaN error counts as the worst."""
    worst, lam = max(errors, key=lambda e: (math.isnan(e[0]), e[0]))
    print(f"ledger {command} {column} {source}: worst relative error {worst:.2e}, "
          f"{worst / bound:.2e} of the bound, at lambda = {lam:.6g}")
    return worst, lam


def _rel(value, truth):
    return float(abs(value - truth) / abs(truth))


def _i_a(a, lam_sq):
    """I_A(a) = (1 / 16 pi^2) [Lambda^2 + a - 2 a ln((Lambda^2 + a) / a) - a^2 / (Lambda^2 + a)]."""
    t = lam_sq + a
    return (lam_sq + a - 2 * a * mpmath.log(t / a) - a * a / t) / (16 * mpmath.pi**2)


def _i_e(a, lam_sq):
    """I_E(a) = (1 / 16 pi^2) [ln((Lambda^2 + a) / a) - Lambda^2 / (Lambda^2 + a)]."""
    return (mpmath.log((lam_sq + a) / a) - lam_sq / (lam_sq + a)) / (16 * mpmath.pi**2)


def _polarization_truth(cfg, lam):
    """P = int_0^1 I_E(M^2(x)) dx, M^2(x) = m1^2 + (m2^2 - m1^2 + q^2) x - q^2 x^2,
    split at M^2's minimum where it lies inside, as photon_polarization grades its rule."""
    with mpmath.workdps(LEDGER_DPS):
        m1_sq, m2_sq = mpmath.mpf(cfg["atoms"].m1) ** 2, mpmath.mpf(cfg["atoms"].m2) ** 2
        q = [mpmath.mpf(cfg[f"polarization.q{mu}"]) for mu in range(4)]
        q_sq = -q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2
        lam_sq = mpmath.mpf(lam) ** 2
        points = [0, 1]
        if q_sq < 0 and 0 < (m2_sq - m1_sq + q_sq) / (2 * q_sq) < 1:
            points.insert(1, (m2_sq - m1_sq + q_sq) / (2 * q_sq))
        return mpmath.quad(lambda x: _i_e(m1_sq + (m2_sq - m1_sq + q_sq) * x - q_sq * x * x, lam_sq), points)


SOURCES = ["default", "cutoff-sweep-0", "edge-kinematics-0"]


def _ledger_rows(tmp_path, workloads, command, source, per_cutoff=1):
    """The resolved config and the data rows of every fourth cutoff of one command on
    one source config, where the command writes per_cutoff rows per cutoff."""
    text = "" if source == "default" else workloads.config_text(workloads.generate(source[:-2], 0))
    cfg, rows = _command_rows(tmp_path, command, text)
    rows = [row for i in range(0, len(rows), 4 * per_cutoff) for row in rows[i:i + per_cutoff]]
    assert len(rows) == per_cutoff * (1 if source == "default" else 6)
    return cfg, rows


@pytest.mark.parametrize("errors", [[(1e-12, 10.0), (math.nan, 20.0)], [(math.nan, 20.0), (1e-12, 10.0)]])
def test_worst_is_nan_when_any_error_is(errors):
    # max over plain tuples can skip a NaN after a finite entry; a NaN row must fail
    worst, lam = _worst("ledger-self-test", "none", "column", errors, 1e-9)
    assert math.isnan(worst) and lam == 20.0
    assert not worst <= 1e-9


@pytest.mark.parametrize("source", SOURCES)
def test_polarization_p_coeff(tmp_path, workloads, source):
    cfg, rows = _ledger_rows(tmp_path, workloads, "loop-polarization", source)
    bound = BOUND_PER_TOL * cfg["regulator.quad_tol"]
    truths = [_polarization_truth(cfg, row["lambda[natural]"]) for row in rows]
    _worst("loop-polarization", source, "P_coeff",
           [(_rel(row["P_coeff[1]"], truth), row["lambda[natural]"]) for row, truth in zip(rows, truths)], bound)
    for row, truth in zip(rows, truths):
        assert abs(row["P_coeff[1]"] - truth) <= bound * abs(truth), (row["lambda[natural]"], row["P_coeff[1]"], truth)


def _vertex_truth(cfg, lam):
    """J = (1/32 pi^2) int_0^1 [ln(1 + L2/beta) - L2 / (2 (L2 + beta))] dy and
    K_m = (1/64 pi^2) int_0^1 y^m L2 / (beta (L2 + beta)) dy for m = 0, 1, 2,
    with L2 = Lambda^2 and beta(y) = (m2^2 + delta) + (q^2 - delta) y - q^2 y^2
    (m2^2 = M^2 and delta = 0 under vertex.symmetric_masses), split at beta's
    minimum where it lies inside, as vertex_one_loop grades its rule."""
    with mpmath.workdps(LEDGER_DPS):
        m1_sq, m2_sq = mpmath.mpf(cfg["atoms"].m1) ** 2, mpmath.mpf(cfg["atoms"].m2) ** 2
        if cfg["vertex.symmetric_masses"]:
            m2_sq, delta = (m1_sq + m2_sq) / 2, mpmath.mpf(0)
        else:
            delta = m1_sq - m2_sq
        q = [mpmath.mpf(cfg[f"vertex.q{mu}"]) for mu in range(4)]
        q_sq = -q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2
        lam_sq = mpmath.mpf(lam) ** 2
        points = [0, 1]
        if q_sq < 0 and 0 < (q_sq - delta) / (2 * q_sq) < 1:
            points.insert(1, (q_sq - delta) / (2 * q_sq))

        def beta(y):
            return m2_sq + delta + (q_sq - delta) * y - q_sq * y * y

        prefactor = 1 / (16 * mpmath.pi**2)
        J = prefactor / 2 * mpmath.quad(
            lambda y: mpmath.log(1 + lam_sq / beta(y)) - lam_sq / (2 * (lam_sq + beta(y))), points)
        K = [prefactor / 4 * mpmath.quad(lambda y: y**m * lam_sq / (beta(y) * (lam_sq + beta(y))), points)
             for m in range(3)]
        return [J] + K


@pytest.mark.parametrize("source", SOURCES)
def test_vertex_j_and_k(tmp_path, workloads, source):
    cfg, rows = _ledger_rows(tmp_path, workloads, "loop-vertex", source)
    bound = BOUND_PER_TOL * cfg["regulator.quad_tol"]
    columns = ["J[1]", "K0[natural^-2]", "K1[natural^-2]", "K2[natural^-2]"]
    truths = [_vertex_truth(cfg, row["lambda[natural]"]) for row in rows]
    for i, column in enumerate(columns):
        _worst("loop-vertex", source, column,
               [(_rel(row[column], truth[i]), row["lambda[natural]"]) for row, truth in zip(rows, truths)], bound)
    for row, row_truths in zip(rows, truths):
        for column, truth in zip(columns, row_truths):
            assert abs(row[column] - truth) <= bound * abs(truth), (row["lambda[natural]"], column, row[column], truth)


# the offsets of each cutoff's 9 loop-selfenergy rows that the ledger samples;
# offset 0 is on the mass shell
SE_OFFSETS = (0, 4, 8)


def _selfenergy_truth(cfg, lam, p_sq):
    """(sigma_I, sigma_II) = (gamma^2 int_0^1 I_A(a^2) dx, 4 gpp int_0^1 x^2 I_E(a^2) dx).

    gamma^2 and gpp = gamma^2_{tau lambda} p^tau p^lambda at the level's rest-frame
    on-shell momentum are the code's doubles. On the expansion path (order 0)
    a^2 = M^2 x^2 + s x (1 - x), with s = p^2 + m_level^2 formed in double as the
    code forms it; on the exact path a^2 = m_inner^2 x + p^2 x (1 - x)."""
    atoms, level, gamma = cfg["atoms"], cfg["selfenergy.level"], cli._gamma(cfg)
    gsq = contractions(gamma)["gamma_sq"]
    gpp = gamma_sq_dot(gamma, np.array([atoms.mass(level), 0.0, 0.0, 0.0]))
    with mpmath.workdps(LEDGER_DPS):
        if cfg["selfenergy.path"] == "expansion":
            assert cfg["selfenergy.b_order"] == 0, "the truth covers order 0 of the expansion only"
            m_sq, s = mpmath.mpf(atoms.M2), mpmath.mpf(p_sq + atoms.mass(level) ** 2)

            def a_sq(x):
                return m_sq * x * x + s * x * (1 - x)
        else:
            m_inner_sq, p = mpmath.mpf(atoms.mass(3 - level) ** 2), mpmath.mpf(p_sq)

            def a_sq(x):
                return m_inner_sq * x + p * x * (1 - x)

        lam_sq = mpmath.mpf(lam) ** 2
        int_a = mpmath.quad(lambda x: _i_a(a_sq(x), lam_sq), [0, 1])
        int_e = mpmath.quad(lambda x: x * x * _i_e(a_sq(x), lam_sq), [0, 1])
        return gsq * int_a, 4 * gpp * int_e


SE_COLUMNS = ["sigma_I[natural^2]", "sigma_II[natural^2]", "sigma_total[natural^2]", "sigma_subtracted[natural^2]"]


@pytest.fixture(scope="module", params=SOURCES)
def selfenergy(request, tmp_path_factory, workloads):
    """(source, resolved config, column -> (relative error, cutoff) pairs) of loop-selfenergy's
    sampled rows on one source; sigma_subtracted is sampled at offsets 4 and 8 only."""
    source = request.param
    cfg, rows = _ledger_rows(tmp_path_factory.mktemp("selfenergy"), workloads, "loop-selfenergy", source,
                             per_cutoff=9)
    errors = {column: [] for column in SE_COLUMNS}
    for start in range(0, len(rows), 9):
        block = rows[start:start + 9]
        lam = block[0]["lambda[natural]"]
        for offset in SE_OFFSETS:
            row = block[offset]
            sigma_i, sigma_ii = _selfenergy_truth(cfg, lam, row["p_sq[natural^2]"])
            if offset == 0:
                # the on-shell reference, where sigma_subtracted is exactly 0
                on_shell = sigma_i + sigma_ii
            truths = [sigma_i, sigma_ii, sigma_i + sigma_ii, sigma_i + sigma_ii - on_shell]
            for column, truth in zip(SE_COLUMNS if offset else SE_COLUMNS[:3], truths):
                errors[column].append((_rel(row[column], truth), lam))
    return source, cfg, errors


def test_selfenergy_sigma(selfenergy):
    source, cfg, errors = selfenergy
    bound = BOUND_PER_TOL * cfg["regulator.quad_tol"]
    worst = {column: _worst("loop-selfenergy", source, column, errors[column], bound) for column in SE_COLUMNS[:3]}
    assert all(w <= bound for w, _ in worst.values()), worst


def test_selfenergy_sigma_subtracted(request, selfenergy):
    source, cfg, errors = selfenergy
    # on the default source the miss is about one ulp of the on-shell total, which a
    # platform that rounds that total differently may not repeat, so it may pass there
    request.applymarker(pytest.mark.xfail(strict=source != "default", reason=(
        "ROADMAP item 3: sigma_subtracted is the difference of two Lambda^2-sized totals and "
        "keeps their rounding")))
    bound = BOUND_PER_TOL * cfg["regulator.quad_tol"]
    worst, lam = _worst("loop-selfenergy", source, "sigma_subtracted[natural^2]", errors["sigma_subtracted[natural^2]"],
                        bound)
    assert worst <= bound, (lam, worst)
