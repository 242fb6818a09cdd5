"""Loop CSV columns against 40-digit mpmath of their own regulated integrals.

The truth integrates the same closed-form master integrals in mpmath at
40 digits, from the same float inputs, so it shares none of the code's
double arithmetic or Feynman-parameter rules: it is the oracle of rounding
and quadrature. Rows are a fixed subsample of the default config and of
the benchmark's seed-0 cutoff-sweep and edge-kinematics configs (every
fourth cutoff). Each column is held to 10 x quad_tol relative, a bound
fixed before the first comparison.

Columns covered: loop-polarization's P_coeff.
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


@pytest.mark.parametrize("source", ["default", "cutoff-sweep-0", "edge-kinematics-0"])
def test_polarization_p_coeff(tmp_path, workloads, source):
    text = "" if source == "default" else workloads.config_text(workloads.generate(source[:-2], 0))
    cfg, rows = _command_rows(tmp_path, "loop-polarization", text)
    rows = rows[::4]
    assert len(rows) == (1 if source == "default" else 6)
    bound = BOUND_PER_TOL * cfg["regulator.quad_tol"]
    for row in rows:
        truth = _polarization_truth(cfg, row["lambda[natural]"])
        assert abs(row["P_coeff[1]"] - truth) <= bound * abs(truth), (row["lambda[natural]"], row["P_coeff[1]"], truth)
