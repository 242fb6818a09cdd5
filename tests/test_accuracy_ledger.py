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
except on the default source, where the miss is about one ulp). Two more
loop-polarization configs, far above the cutoff, pin ROADMAP item 2's
documented failures as strict xfails. The truths live in tests/truth.py.
"""

import csv
import math

import pytest
from truth import polarization_truth, selfenergy_truth, vertex_truth

from dipole_loop import cli

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
    truths = [polarization_truth(cfg, row["lambda[natural]"]) for row in rows]
    _worst("loop-polarization", source, "P_coeff",
           [(_rel(row["P_coeff[1]"], truth), row["lambda[natural]"]) for row, truth in zip(rows, truths)], bound)
    for row, truth in zip(rows, truths):
        assert abs(row["P_coeff[1]"] - truth) <= bound * abs(truth), (row["lambda[natural]"], row["P_coeff[1]"], truth)


# the two documented failures of ROADMAP item 2, where M^2 is far above Lambda^2:
# the SI config exits 0 with P = -7.1e-19 against a truth of +3.5e-34, and
# Lambda = 0.01 exits 3 ("Feynman-parameter rule reached 1.20e-09")
ITEM_2_CONFIGS = [
    pytest.param("units.mode = SI\natoms.m1 = 1e-26\natoms.m2 = 0.95e-26\ndipole.dx = 1e-29\n", id="SI"),
    pytest.param("regulator.lambda = 0.01\n", id="lambda-0.01"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the master integrals' brackets cancel to rounding once the scale passes Lambda^2"))
@pytest.mark.parametrize("text", ITEM_2_CONFIGS)
def test_polarization_p_coeff_far_above_cutoff(tmp_path, text):
    cfg, (row,) = _command_rows(tmp_path, "loop-polarization", text)
    truth = polarization_truth(cfg, row["lambda[natural]"])
    assert abs(row["P_coeff[1]"] - truth) <= BOUND_PER_TOL * cfg["regulator.quad_tol"] * abs(truth), (row, truth)


@pytest.mark.parametrize("source", SOURCES)
def test_vertex_j_and_k(tmp_path, workloads, source):
    cfg, rows = _ledger_rows(tmp_path, workloads, "loop-vertex", source)
    bound = BOUND_PER_TOL * cfg["regulator.quad_tol"]
    columns = ["J[1]", "K0[natural^-2]", "K1[natural^-2]", "K2[natural^-2]"]
    truths = [vertex_truth(cfg, row["lambda[natural]"]) for row in rows]
    for i, column in enumerate(columns):
        _worst("loop-vertex", source, column,
               [(_rel(row[column], truth[i]), row["lambda[natural]"]) for row, truth in zip(rows, truths)], bound)
    for row, row_truths in zip(rows, truths):
        for column, truth in zip(columns, row_truths):
            assert abs(row[column] - truth) <= bound * abs(truth), (row["lambda[natural]"], column, row[column], truth)


# the offsets of each cutoff's 9 loop-selfenergy rows that the ledger samples;
# offset 0 is on the mass shell
SE_OFFSETS = (0, 4, 8)


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
            sigma_i, sigma_ii = selfenergy_truth(cfg, lam, row["p_sq[natural^2]"])
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
