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
import random
import re
from fractions import Fraction

import pytest
from truth import polarization_truth, selfenergy_truth, vertex_truth

from dipole_loop import cli

BOUND_PER_TOL = 10.0


def _command_rows(tmp_path, command, text):
    """The resolved config and the data rows (header -> float) of one command's CSV."""
    conf = tmp_path / "run.conf"
    conf.write_text(text, encoding="utf-8")
    assert cli.main([command, "--config", str(conf), "--out", str(tmp_path)]) == 0
    return _csv_rows(tmp_path, command, text)


def _csv_rows(tmp_path, command, text):
    """The resolved config and the data rows of the CSV that command wrote to tmp_path from text."""
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


def test_polarization_p_coeff_at_subnormal_m2_sq(tmp_path):
    # M^2(x = 1) = m2^2 = 1e-320 is subnormal but positive: the spacelike q runs
    cfg, (row,) = _command_rows(tmp_path, "loop-polarization", "atoms.m2 = 1e-160\n")
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


# A truth-checked fuzz of three loop commands (ROADMAP item 21's tier-1 slice).
# Natural-unit configs, FUZZ_CONFIGS per command from a fixed seed, at quad_tol
# FUZZ_TOL: m1 log-uniform in [1e-3, 1e3] and Lambda / m1 in [0.1, 1e5] (below
# that M^2 >> Lambda^2, item 2's regime). loop-polarization and loop-vertex,
# whose Feynman-parameter scale is a quadratic, draw m2 / m1 in [1e-10, 1],
# every momentum component uniform in [-m1, m1], and the vertex's masses split
# or symmetric. No drawn q^2 passes a pair threshold (-q^2 <= m1^2), but where
# m2^2 is below the rounding of m1^2 a scale summed in double would invent one,
# so a refusal may name a threshold only where q^2 < 0. loop-selfenergy runs
# the exact path at level 2 with m2 / m1 in [1e-10, 1], or the expansion path at
# level 1 or 2 and order 0 or 1 with m2 / m1 in [0.63, 1] (|b| < 0.87); its offsets
# are never past a threshold. Every exit-0 row is held to the ledger's bound: sigma_I and
# sigma_II at SE_OFFSETS for loop-selfenergy (sigma_subtracted is item 3's miss).
FUZZ_CONFIGS = 40
FUZZ_TOL = 1e-10


def _fuzz_quadratic(section):
    """A loop-polarization or loop-vertex config from rng, and whether a refusal may name a threshold."""
    def draw(rng):
        m1 = 10.0 ** rng.uniform(-3.0, 3.0)
        q = [rng.uniform(-m1, m1) for _ in range(4)]
        text = (f"atoms.m1 = {m1!r}\natoms.m2 = {m1 * 10.0 ** rng.uniform(-10.0, 0.0)!r}\n"
                f"regulator.lambda = {m1 * 10.0 ** rng.uniform(-1.0, 5.0)!r}\n"
                f"vertex.symmetric_masses = {rng.choice(['true', 'false'])}\n"
                + "".join(f"{section}.q{mu} = {q[mu]!r}\n" for mu in range(4)))
        return text, sum(Fraction(v) ** 2 for v in q[1:]) - Fraction(q[0]) ** 2 < 0
    return draw


def _fuzz_selfenergy(rng):
    """A loop-selfenergy config from rng; no refusal may name a threshold."""
    m1 = 10.0 ** rng.uniform(-3.0, 3.0)
    path = rng.choice(["exact", "expansion"])
    level, low = (2, -10.0) if path == "exact" else (rng.choice([1, 2]), math.log10(0.63))
    text = (f"atoms.m1 = {m1!r}\natoms.m2 = {m1 * 10.0 ** rng.uniform(low, 0.0)!r}\n"
            f"regulator.lambda = {m1 * 10.0 ** rng.uniform(-1.0, 5.0)!r}\n"
            f"selfenergy.path = {path}\nselfenergy.level = {level}\n")
    if path == "expansion":
        text += f"selfenergy.b_order = {rng.choice([0, 1])}\n"
    return text, False


def _one_row_pairs(columns, truth_of):
    """(value, truth, cutoff) of each column of a one-row CSV."""
    def pairs(cfg, rows):
        (row,) = rows
        lam = row["lambda[natural]"]
        return [(row[column], truth, lam) for column, truth in zip(columns, truth_of(cfg, lam))]
    return pairs


def _selfenergy_pairs(cfg, rows):
    """(value, truth, cutoff) of sigma_I and sigma_II at SE_OFFSETS of a one-cutoff loop-selfenergy CSV."""
    pairs = []
    for row in (rows[offset] for offset in SE_OFFSETS):
        lam = row["lambda[natural]"]
        truths = selfenergy_truth(cfg, lam, row["p_sq[natural^2]"])
        pairs += [(row[column], truth, lam) for column, truth in zip(SE_COLUMNS[:2], truths)]
    return pairs


FUZZ = {
    "loop-polarization": (_fuzz_quadratic("polarization"),
                          _one_row_pairs(["P_coeff[1]"], lambda cfg, lam: [polarization_truth(cfg, lam)])),
    "loop-vertex": (_fuzz_quadratic("vertex"),
                    _one_row_pairs(["J[1]", "K0[natural^-2]", "K1[natural^-2]", "K2[natural^-2]"], vertex_truth)),
    "loop-selfenergy": (_fuzz_selfenergy, _selfenergy_pairs),
}


@pytest.mark.parametrize("command, seed", [("loop-polarization", 0), ("loop-vertex", 1), ("loop-selfenergy", 2)])
def test_fuzzed_rows_within_bound(tmp_path, capsys, command, seed):
    draw, pairs_of = FUZZ[command]
    rng = random.Random(seed)
    conf = tmp_path / "fuzz.conf"
    codes, errors, causes = [], [], set()
    for _ in range(FUZZ_CONFIGS):
        text, threshold_allowed = draw(rng)
        text += f"regulator.quad_tol = {FUZZ_TOL!r}\n"
        conf.write_text(text, encoding="utf-8")
        code = cli.main([command, "--config", str(conf), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        codes.append(code)
        assert code in (0, 3), (text, err)
        if code == 3:
            causes.add(re.sub(r"\d[\d.]*(e[-+]\d+)?", "N", err.strip()))
            assert "threshold" not in err or threshold_allowed, (text, err)
            continue
        errors += [(_rel(value, truth), lam) for value, truth, lam in pairs_of(*_csv_rows(tmp_path, command, text))]
    print(f"fuzz {command}: {codes.count(0)} of {FUZZ_CONFIGS} configs exit 0, refusals {sorted(causes)}")
    worst, lam = _worst(command, f"fuzz-{seed}", "every column", errors, BOUND_PER_TOL * FUZZ_TOL)
    assert worst <= BOUND_PER_TOL * FUZZ_TOL, (lam, worst)
