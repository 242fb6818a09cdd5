"""Correctness gate for the CSVs the benchmark makes the program write.

Every CSV must have the expected header and row count, finite numbers,
and the invariants its command already carries (norm drift,
transversality, oracle residuals, ...). On the default seed it must
also match the stored reference rows numerically. The tolerances are
no looser than the ones the package's own oracles and acceptance checks
apply to the same quantity.

    python3 bench/gate.py write-reference   # regenerate bench/reference/

writes the reference files from the current source tree.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
MAX_REFERENCE_ROWS = 400

# Relative tolerance for a reference comparison: the closed-form vs
# quadrature threshold of oracle-verify and acceptance check 1.
REL_TOL = 1e-10
# report-counterterms holds fit slopes of subtracted self-energies, which
# amplify a 1e-13 change in their inputs about 1e3-fold. This is still
# tighter than acceptance checks 4 and 6 (2e-2 and 1e-6) on those values.
REL_TOL_REPORT = 1e-8
# Residuals and diagnostics are compared absolutely, at the threshold
# their own oracle applies.
ABS_TOL = {
    ("oracle-verify", "rel_err[1]"): 1e-10,
    ("jc-rabi", "rel_err[1]"): 1e-10,
    ("jc-evolve", "p_excited[1]"): 1e-10,
    ("jc-evolve", "inversion[1]"): 1e-10,
    ("jc-evolve", "top_band[1]"): 1e-10,
    ("jc-evolve", "norm[1]"): 1e-12,  # acceptance 7 norm drift
    ("loop-polarization", "transversality[1]"): 1e-13,  # acceptance 5
}
ORACLE_RESIDUAL_ABS_TOL = 1e-11  # oracle-verify's Feynman identity threshold


def csv_name(command: str) -> str:
    return command.replace("-", "_") + ".csv"


def parse_csv(text: str):
    """Split a program CSV into (comment lines, header, rows)."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(body))))
    if not table:
        return comments, [], []
    return comments, table[0], table[1:]


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _grid_count(spec: str | None) -> int:
    return 1 if not spec else int(spec.rsplit(",", 1)[0].split(":")[2])


def expected_rows(command: str, cfg: dict, reference: dict) -> int:
    """Data rows the command must write for this config."""
    n_cut = _grid_count(cfg.get("regulator.lambda_grid"))
    if command == "jc-evolve":
        return int(cfg.get("jc.n_times", 401))
    if command == "jc-rabi":
        return len(cfg.get("jc.n_list", "0,1,5").split(","))
    if command == "nr-reduce":
        return _grid_count(cfg.get("nr.lambda_grid", "1e-4:1e-2:9,log"))
    if command == "loop-selfenergy":
        return n_cut * int(cfg.get("selfenergy.s_count", 9))
    if command in ("loop-vertex", "loop-polarization"):
        return n_cut
    return reference["n_rows"]  # fixed-size tables


def _scale(command: str, column: str, row: dict) -> float:
    """Magnitude a cell's relative tolerance is taken against."""
    if command == "loop-selfenergy" and column in ("sigma_subtracted[natural^2]", "sigma_II[natural^2]"):
        return abs(row["sigma_total[natural^2]"])
    if command == "nr-reduce" and column in ("residual_after[natural]", "reduced_block_error[natural]"):
        return abs(row["h_norm[natural]"])
    if command == "loop-polarization" and column.startswith("Pi_"):
        return max(abs(v) for k, v in row.items() if k.startswith("Pi_"))
    return abs(row[column])


def _allowed(command: str, column: str, row: dict, label: str) -> float:
    if (command, column) in ABS_TOL:
        return ABS_TOL[(command, column)]
    if command == "oracle-verify" and not label.startswith("I_"):
        return ORACLE_RESIDUAL_ABS_TOL
    rel = REL_TOL_REPORT if command == "report-counterterms" else REL_TOL
    return rel * _scale(command, column, row)


def compare_reference(command: str, header: list, rows: list, reference: dict) -> list:
    """Numeric comparison of the sampled reference rows."""
    problems = []
    for key, ref_line in reference["rows"].items():
        i = int(key)
        ref_cells = ref_line.split(",")
        if i >= len(rows):
            problems.append(f"{command}: reference row {i} missing")
            continue
        ref_num = {col: _num(c) for col, c in zip(header, ref_cells)}
        for col, new, ref in zip(header, rows[i], ref_cells):
            a, r = _num(new), ref_num[col]
            if a is None or r is None:
                if new != ref:
                    problems.append(f"{command}: row {i} {col} = {new!r}, reference {ref!r}")
                continue
            if math.isnan(a) and math.isnan(r):
                continue
            bound = _allowed(command, col, ref_num, ref_cells[0])
            if not abs(a - r) <= bound:
                problems.append(
                    f"{command}: row {i} {col} = {new}, reference {ref} (|diff| {abs(a - r):.3e} > {bound:.3e})"
                )
    return problems


def _column(header: list, rows: list, name: str) -> list:
    j = header.index(name)
    return [float(r[j]) for r in rows]


def invariants(command: str, header: list, rows: list, cfg: dict) -> list:
    """Checks every seed must pass: what the command's own output promises."""
    problems = []
    for i, row in enumerate(rows):
        for col, cell in zip(header, row):
            v = _num(cell)
            if v is not None and not math.isfinite(v):
                problems.append(f"{command}: row {i} {col} is {cell}")
    if problems:
        return problems

    def need(ok: bool, what: str):
        if not ok:
            problems.append(f"{command}: {what}")

    if command == "jc-evolve":
        drift = max(abs(v - 1.0) for v in _column(header, rows, "norm[1]"))
        need(drift <= 1e-12, f"norm drift {drift:.3e} > 1e-12")
        top = max(_column(header, rows, "top_band[1]"))
        need(top <= float(cfg.get("jc.leak_threshold", 1e-8)), f"top-band population {top:.3e} over threshold")
    elif command == "jc-rabi":
        # the prediction pi / (g sqrt(n + 1)) is the RWA period; without the
        # RWA the counter-rotating terms move it at first order in
        # g sqrt(n + 1) / (omega12 + Omega), with Omega = omega12 at
        # resonance, so that first-order term (coefficient 1) is the bound
        rwa = cfg.get("jc.rwa", "true") == "true"
        for n, predicted, err in zip(_column(header, rows, "n[1]"), _column(header, rows, "period_predicted[natural]"),
                                     _column(header, rows, "rel_err[1]")):
            if rwa:
                limit = 1e-6
            else:
                g_root_n = math.pi / predicted  # g sqrt(n + 1)
                limit = g_root_n / (2.0 * (float(cfg["atoms.m1"]) - float(cfg["atoms.m2"])))
            need(err <= limit, f"period rel err {err:.3e} > {limit:.3e} at n = {n:g}")
    elif command == "nr-reduce":
        for r in rows:
            d = dict(zip(header, map(float, r)))
            need(d["residual_after[natural]"] < d["residual_before[natural]"],
                 f"transform did not reduce the residual at {d['lambda_target[1]']:.3e}")
            need(d["reduced_block_error[natural]"] <= d["lambda_max[1]"] ** 2 * d["h_norm[natural]"],
                 f"reduced block error above lambda^2 |H| at {d['lambda_target[1]']:.3e}")
    elif command == "loop-selfenergy":
        for s, sub in zip(_column(header, rows, "s[natural^2]"), _column(header, rows, "sigma_subtracted[natural^2]")):
            need(s != 0.0 or sub == 0.0, f"on-shell subtraction leaves {sub:.3e} at s = 0")
    elif command == "loop-polarization":
        worst = max(_column(header, rows, "transversality[1]"))
        need(worst <= 1e-13, f"transversality {worst:.3e} > 1e-13")
    elif command == "oracle-verify":
        for r in rows:
            label, closed, rel = r[0], float(r[3]), float(r[5])
            if label.startswith("I_"):
                need(rel <= 1e-10, f"{label} closed form off by {rel:.3e}")
            elif label.startswith("feynman"):
                need(closed <= 1e-11, f"{label} residual {closed:.3e}")
            else:
                need(closed <= 5.0, f"{label} z-score {closed:.2f}")
    return problems


def check_csv(command: str, text: str, cfg: dict, reference: dict, compare: bool) -> list:
    """All problems with one CSV; an empty list means it passes the gate."""
    comments, header, rows = parse_csv(text)
    if header != reference["header"]:
        return [f"{command}: header {header} differs from {reference['header']}"]
    if not comments or comments[0] != f"# command = {command}":
        return [f"{command}: missing '# command' line"]
    n = expected_rows(command, cfg, reference)
    if len(rows) != n:
        return [f"{command}: {len(rows)} rows, expected {n}"]
    problems = invariants(command, header, rows, cfg)
    if compare:
        if comments != reference["comments"]:
            problems.append(f"{command}: config echo differs from the reference")
        problems.extend(compare_reference(command, header, rows, reference))
    return problems


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(text: str) -> dict:
    comments, header, rows = parse_csv(text)
    step = max(1, math.ceil(len(rows) / MAX_REFERENCE_ROWS))
    keep = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
    return {
        "comments": comments,
        "header": header,
        "n_rows": len(rows),
        "rows": {str(i): ",".join(rows[i]) for i in keep},
    }


def reference_for(workload: str, seed: int, tiny: bool = False) -> dict:
    """Run a workload's commands once and keep their CSVs as reference entries."""
    import run
    from workloads import WORKLOADS, generate

    entries = {}
    with run.WorkDir() as work:
        cfg_path = work.write_config(generate(workload, seed, tiny))
        for command in WORKLOADS[workload][0]:
            out = work.fresh_dir()
            res = run.run_process(run.command_argv(command, cfg_path, out), work.path)
            if res.status != 0:
                raise RuntimeError(f"{workload} {command}: exit {res.status}\n{res.stderr}")
            entries[command] = reference_entry((out / csv_name(command)).read_text(encoding="utf-8"))
    return entries


def write_reference() -> None:
    """Store every workload's CSVs on the default seed."""
    import run
    from workloads import DEFAULT_SEED, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        doc = {
            "workload": name,
            "seed": DEFAULT_SEED,
            "source_sha256": run.source_digest(),
            "csv": reference_for(name, DEFAULT_SEED),
        }
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {REFERENCE_DIR.name}/{name}.json")


if __name__ == "__main__":
    if sys.argv[1:] != ["write-reference"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    write_reference()
