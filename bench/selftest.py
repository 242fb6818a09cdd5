"""Self-test of the benchmark harness: tiny sizes, one repetition.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a deliberately perturbed reference drives fail_frac above 0 while
the unperturbed one passes, and that span self-times are non-negative.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402

SEED = 1


def declared(kind: str) -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emitted(res: dict, units: dict) -> dict:
    line = run.result_line(res, units)
    return {name: m["unit"] for name, m in line["metrics"].items() if isinstance(m["value"], (int, float))}


def perturbed(reference: dict) -> dict:
    """The same reference with one stored number moved by 1e-6 relative."""
    bad = copy.deepcopy(reference)
    rows = bad["loop-vertex"]["rows"]
    key = next(iter(rows))
    cells = rows[key].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))  # J[1]
    rows[key] = ",".join(cells)
    return bad


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    res = run.measure("cutoff-sweep", SEED, seconds=0, tiny=True, setup_reps=1)
    expect(res["correct"] and res["failed"] == 0, f"tiny end-to-end run is correct {res['problems']}")
    expect(emitted(res, run.END_TO_END) == declared("end_to_end"),
           "every end-to-end metric is emitted with its declared unit")

    res = run.trace("cold-start", SEED, seconds=0, tiny=True, importtime_reps=1)
    expect(res["correct"] and res["failed"] == 0, f"tiny traced run is correct {res['problems']}")
    expect(emitted(res, run.PER_LAYER) == declared("per_layer"),
           "every per-layer metric is emitted with its declared unit")
    expect(res["min_self_s"] >= 0, f"span self-times are non-negative (min {res['min_self_s']:.3e} s)")
    expect(res["metrics"]["loops.master_integral.calls"] > 0 and res["metrics"]["jc.evolve.calls"] == 1,
           "spans and counters see the layers the commands call")

    reference = gate.reference_for("cutoff-sweep", SEED, tiny=True)
    good = run.measure("cutoff-sweep", SEED, seconds=0, tiny=True, setup_reps=1, reference=reference)
    expect(good["failed"] == 0, "a reference taken from the same code passes the gate")
    bad = run.measure("cutoff-sweep", SEED, seconds=0, tiny=True, setup_reps=1, reference=perturbed(reference))
    frac = bad["failed"] / bad["attempted"]
    expect(frac > 0 and not bad["correct"], f"a perturbed reference drives fail_frac above 0 ({frac:.3f})")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
