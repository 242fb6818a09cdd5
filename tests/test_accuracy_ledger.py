"""Loop CSV columns against 40-digit mpmath of their own regulated integrals.

The truth integrates the same closed-form master integrals in mpmath at
40 digits, from the same float inputs, so it shares none of the code's
double arithmetic or Feynman-parameter rules: it is the oracle of rounding
and quadrature. Rows are a fixed subsample of the default config and of
the benchmark's seed-0 cutoff-sweep and edge-kinematics configs (every
fourth cutoff). Each column is held to 10 x quad_tol relative, a bound
fixed before the first comparison.

Columns covered: loop-polarization's P_coeff; loop-vertex's J, K0, K1
and K2.
"""

import csv

import mpmath
import pytest

from dipole_loop import cli

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


def _ledger_rows(tmp_path, workloads, command, source):
    """The resolved config and every fourth data row of one command on one source config."""
    text = "" if source == "default" else workloads.config_text(workloads.generate(source[:-2], 0))
    cfg, rows = _command_rows(tmp_path, command, text)
    rows = rows[::4]
    assert len(rows) == (1 if source == "default" else 6)
    return cfg, rows


@pytest.mark.parametrize("source", SOURCES)
def test_polarization_p_coeff(tmp_path, workloads, source):
    cfg, rows = _ledger_rows(tmp_path, workloads, "loop-polarization", source)
    bound = BOUND_PER_TOL * cfg["regulator.quad_tol"]
    for row in rows:
        truth = _polarization_truth(cfg, row["lambda[natural]"])
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
    for row in rows:
        for column, truth in zip(columns, _vertex_truth(cfg, row["lambda[natural]"])):
            assert abs(row[column] - truth) <= bound * abs(truth), (row["lambda[natural]"], column, row[column], truth)
