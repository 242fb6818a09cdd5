"""Baseline cross-check against the ROADMAP "State at this re-anchor" table.

    python3 bench/baseline.py

Runs each command in-process through ``dipole_loop.cli.main``, untraced,
on the default config and on the 24-cutoff sweep ``10:10000:24,log``,
and prints the best of three next to the table's figures (its default,
two-thread column; no program environment variable is set). It also
times ``check-dims`` and ``import dipole_loop.cli`` as processes. The
table's figures were measured by hand and vary by about 30%.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import ALL_COMMANDS  # noqa: E402

REPS = 3
SWEEP = "10:10000:24,log"
# milliseconds, from the ROADMAP table
ROADMAP_MS = {
    "default": {
        "jc-evolve": 4.4, "jc-rabi": 34, "nr-reduce": 18, "loop-selfenergy": 16, "loop-vertex": 15,
        "loop-polarization": 0.4, "report-counterterms": 34, "check-dims": 0.2, "oracle-verify": 98,
    },
    "sweep": {"loop-selfenergy": 480, "loop-vertex": 724, "loop-polarization": 6.7},
}
ROADMAP_PROCESS_S = {"check-dims": "0.9-1.2", "import dipole_loop.cli": "0.95"}


def best_ms(cli, argv: list) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        best = min(best, time.perf_counter() - start)
        if status != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {status}")
    return best * 1e3


def main() -> int:
    if not (run.SRC / "dipole_loop" / "cli.py").is_file():
        print("baseline: no program source; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from dipole_loop import cli

    print(f"{'config':<9}{'command':<22}{'ROADMAP ms':>12}{'now ms':>12}{'now/ROADMAP':>13}")
    with run.WorkDir() as work:
        cfg = work.write_config({})
        for label, commands in (("default", ALL_COMMANDS), ("sweep", tuple(ROADMAP_MS["sweep"]))):
            for command in commands:
                argv = [command, "--config", str(cfg), "--out", str(work.fresh_dir())]
                if label == "sweep":
                    argv += ["--lambda-grid", SWEEP]
                now = best_ms(cli, argv)
                then = ROADMAP_MS[label][command]
                print(f"{label:<9}{command:<22}{then:>12.4g}{now:>12.4g}{now / then:>13.2f}")

        print(f"\n{'process':<31}{'ROADMAP s':>12}{'now s (median of 5)':>21}")
        for label, argv in (
            ("check-dims", run.command_argv("check-dims", cfg, work.fresh_dir())),
            ("import dipole_loop.cli", run.IMPORT_ARGV),
        ):
            run.run_process(argv, work.path)  # warm-up
            walls = [run.run_process(argv, work.path).wall_s for _ in range(5)]
            print(f"{label:<31}{ROADMAP_PROCESS_S[label]:>12}{statistics.median(walls):>21.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
