"""Benchmark for the dipole-loop command-line workbench.

    python3 bench/run.py --workload cutoff-sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

A single client runs closed loop: it generates a config from the seed
(bench/workloads.py), runs each command of the workload as its own
``python -m dipole_loop.cli`` process, one at a time, and checks every
CSV (bench/gate.py). It repeats the command list for ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics: process set-up
time, summed wall and CPU time of the command list, rows written per
second and peak child RSS. The times are given at a reference machine
speed: a fixed calibration process runs before and after every
measured process, and each measured time is scaled by CAL_REF_S over
the calibrator's time (see ``Calibrated``). The raw times are in the
record as well. With ``--trace 1`` it instead parses
``python -X importtime`` and runs the same argv in-process through
``dipole_loop.cli.main``, alternating untraced and traced passes, and
reports per-layer counts and times from spans recorded around the
package's entry points (bench/tracing.py), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it hold the
full record (per-metric quartiles and sample counts, per-command times
and provenance). The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text, generate  # noqa: E402

SETUP_REPS = 5  # fewest set-up samples per run
IMPORTTIME_REPS = 3
PROCESS_TIMEOUT_S = 150
IMPORT_ARGV = [sys.executable, "-c", "import dipole_loop.cli"]
# The calibrator: a fixed process that imports nothing of the program
# but does what its processes do, in small: start an interpreter,
# import numpy, multiply matrices on the BLAS threads and run a
# pure-Python loop. On a shared host the speed of every process drifts
# by 15-30% within minutes; calibrator runs just before and just after
# each measured process slow down with it, so the ratio holds steady
# where the raw times do not.
CALIBRATOR_ARGV = [sys.executable, "-I", "-c",
                   "import numpy as np; a = np.ones((500, 500)); [a @ a for _ in range(15)]; "
                   "sum(i * i for i in range(1_000_000))"]
# The calibrator's median wall time on the reference host (2 vCPU Intel
# Xeon at 2.0 GHz, CPython 3.11.7); reported times are in seconds at
# the speed this implies.
CAL_REF_S = 0.30
IMPORT_MODULES = ("numpy", "scipy.integrate", "scipy.optimize", "scipy.linalg", "dipole_loop.cli")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# span or counter name -> the fields reported for it
LAYER_FIELDS = {
    "cli.parse_config": ("time_s",),
    "cli.physics": ("time_s",),
    "cli.handler": ("time_s",),
    "cli.write_csv": ("time_s",),
    "renorm.self_energy": ("calls", "self_s"),
    "renorm.wavefunction_Z": ("calls", "self_s"),
    "renorm.vertex_one_loop": ("calls", "self_s"),
    "renorm.photon_polarization": ("calls", "self_s"),
    "renorm.counterterm_report": ("self_s",),
    "renorm.quad": ("calls", "time_s"),
    "renorm.dblquad": ("calls", "time_s"),
    "loops.master_integral": ("calls", "time_s"),
    "loops.master_integral_d_scale": ("calls",),
    "loops.radial_quadrature": ("calls", "time_s"),
    "loops.feynman_identity_check": ("time_s",),
    "loops.symmetric_integration_check": ("time_s",),
    "jc.build_hamiltonian": ("time_s",),
    "jc.evolve": ("calls", "time_s"),
    "jc.measure_resonant_period": ("calls", "time_s"),
    "nr.decoupling_residual": ("calls", "time_s"),
    "nr.reduced_block_error": ("time_s",),
    "nr.similarity_transform": ("calls", "time_s"),
}
UNITS = {"calls": "count", "time_s": "s", "self_s": "s"}
PER_LAYER = {
    **{f"import.{m}_s": "s" for m in IMPORT_MODULES},
    **{f"{name}.{f}": UNITS[f] for name, fields in LAYER_FIELDS.items() for f in fields},
    "cli.write_csv.bytes": "bytes",
    "cli.rows": "count",
    "cli.pool.busy_over_wall": "ratio",
    "loops.master_integral.calls_per_row": "count",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
# per-layer values that are counts, which must repeat exactly between passes
EXACT = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bytes"))


# ---------------------------------------------------------------------------
# processes and scratch space
# ---------------------------------------------------------------------------


@dataclass
class ProcResult:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def child_env() -> dict:
    """The caller's environment with src on the path and no program settings."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DIPOLE_LOOP_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def command_argv(command: str, cfg_path: Path, out: Path) -> list:
    return [sys.executable, "-m", "dipole_loop.cli", command, "--config", str(cfg_path), "--out", str(out)]


def run_process(argv: list, scratch: Path) -> ProcResult:
    """Run one child to completion; wall from the parent, CPU and RSS from wait4."""
    with open(os.devnull, "wb") as devnull, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=devnull, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: leave no child running
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return ProcResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, text)


class Calibrated:
    """Runs measured processes, each right after the calibrator.

    The calibrator also runs once after the last process, so each one is
    bracketed by two calibrator runs. Multiplying a time of process i by
    ``factor(i)``, CAL_REF_S over the mean of those two calibrator times,
    gives that time at the reference machine speed.
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.cal_s: list = []
        run_process(CALIBRATOR_ARGV, scratch)  # warm-up: first-touch file cache

    def _calibrate(self):
        cal = run_process(CALIBRATOR_ARGV, self.scratch)
        if cal.status != 0:
            raise RuntimeError(f"calibrator failed: {cal.stderr.strip()[-500:]}")
        self.cal_s.append(cal.wall_s)

    def run(self, argv: list) -> tuple:
        """(result, index) of one measured process."""
        self._calibrate()
        return run_process(argv, self.scratch), len(self.cal_s) - 1

    def close(self):
        self._calibrate()

    def factor(self, i: int) -> float:
        return 2.0 * CAL_REF_S / (self.cal_s[i] + self.cal_s[i + 1])


class WorkDir:
    """Scratch directory inside the checkout, removed on exit."""

    def __enter__(self):
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        self._n = 0
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    def write_config(self, cfg: dict) -> Path:
        path = self.path / "workload.cfg"
        path.write_text(config_text(cfg), encoding="utf-8")
        return path

    def fresh_dir(self) -> Path:
        self._n += 1
        path = self.path / f"out{self._n}"
        path.mkdir()
        return path


# ---------------------------------------------------------------------------
# statistics and provenance
# ---------------------------------------------------------------------------


def summary(values: list) -> dict:
    """Median, quartiles, sample count and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if n >= 2 else (values[0],) * 3
    tail = next((p for p in (99, 95, 90, 75, 50) if n * (100 - p) / 100 >= 10), None)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": n,
        "tail_pct": tail,
        "tail": statistics.quantiles(values, n=100)[tail - 1] if tail else None,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dipole_loop").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, cfg: dict) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "config": cfg,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "env": {k: os.environ.get(k) for k in BLAS_ENV}},
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


class OutputCheck:
    """Gates the first copy of each CSV and requires every rerun to be byte-identical."""

    def __init__(self, workload: str, seed: int, cfg: dict, tiny: bool, reference: dict | None = None):
        self.cfg = cfg
        self.reference = reference if reference is not None else gate.load_reference(workload)["csv"]
        # stored rows exist for the default seed at full size
        self.compare = (seed == DEFAULT_SEED and not tiny) or reference is not None
        self.first: dict = {}  # command -> (digest, passed the gate, data rows)
        self.problems: list = []

    def check(self, command: str, out: Path, status: int) -> bool:
        """True when this command's run counts as a success."""
        if status != 0:
            self.problems.append(f"{command}: exit {status}")
            return False
        path = out / gate.csv_name(command)
        if not path.is_file():
            self.problems.append(f"{command}: no CSV written")
            return False
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if command not in self.first:
            text = data.decode("utf-8")
            found = gate.check_csv(command, text, self.cfg, self.reference[command], self.compare)
            self.problems.extend(found)
            self.first[command] = (digest, not found, len(gate.parse_csv(text)[2]))
            return not found
        first_digest, ok, _ = self.first[command]
        if digest != first_digest:
            self.problems.append(f"{command}: rerun is not byte-identical")
            return False
        return ok

    def rows(self) -> int:
        return sum(rows for _, _, rows in self.first.values())


# ---------------------------------------------------------------------------
# end-to-end measurement (tracing off)
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, tiny: bool = False,
            setup_reps: int = SETUP_REPS, reference: dict | None = None) -> dict:
    commands, _ = WORKLOADS[workload]
    cfg = generate(workload, seed, tiny)
    check = OutputCheck(workload, seed, cfg, tiny, reference)
    attempted = failed = 0
    with WorkDir() as work:
        cfg_path = work.write_config(cfg)
        deadline = time.perf_counter() + seconds
        run_process(IMPORT_ARGV, work.path)  # untimed warm-up: compiles .pyc files
        clock = Calibrated(work.path)
        # (result, calibrator index) pairs
        setup, iterations = [], []
        # One timed set-up import before each pass spreads the set-up samples
        # over the run, like the passes; at least two passes, so every rerun
        # is checked for identical bytes.
        while len(iterations) < 2 or time.perf_counter() < deadline:
            setup.append(clock.run(IMPORT_ARGV))
            out = work.fresh_dir()
            procs = []
            for command in commands:
                p, i = clock.run(command_argv(command, cfg_path, out))
                attempted += 1
                if not check.check(command, out, p.status):
                    failed += 1
                    if p.status != 0:
                        check.problems.append(f"{command} stderr: {p.stderr.strip()[-500:]}")
                procs.append((p, i))
            shutil.rmtree(out)
            iterations.append(procs)
        while len(setup) < setup_reps:
            setup.append(clock.run(IMPORT_ARGV))
        clock.close()
        setup_ok = all(p.status == 0 for p, _ in setup)
        if not setup_ok:
            check.problems.append(f"set-up import failed: {setup[-1][0].stderr.strip()[-500:]}")

    # (result, speed factor) pairs from here on
    setup = [(p, clock.factor(i)) for p, i in setup]
    iterations = [[(p, clock.factor(i)) for p, i in it] for it in iterations]
    per_command = {c: [it[i] for it in iterations] for i, c in enumerate(commands)}

    def command_sum(field: str, scaled: bool) -> float:
        # Each command's median over the passes, summed over the list: a
        # burst of machine noise during one pass then moves one sample of
        # each command instead of the whole sum.
        return sum(statistics.median(getattr(p, field) * (f if scaled else 1.0) for p, f in ps)
                   for ps in per_command.values())

    wall, cpu = command_sum("wall_s", True), command_sum("cpu_s", True)
    raw_wall = command_sum("wall_s", False)
    rows = check.rows()
    return {
        "metrics": {
            "setup_s": statistics.median(p.wall_s * f for p, f in setup),
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "cpu_s": cpu,
            "peak_rss_mb": max(p.rss_mb for it in iterations for p, _ in it),
        },
        # the same metrics in plain seconds at the speed the host had
        "raw": {
            "setup_s": statistics.median(p.wall_s for p, _ in setup),
            "wall_s": raw_wall,
            "rows_per_s": rows / raw_wall,
            "cpu_s": command_sum("cpu_s", False),
        },
        "stats": {
            "setup_s": summary([p.wall_s * f for p, f in setup]),
            "pass_wall_s": summary([sum(p.wall_s * f for p, f in it) for it in iterations]),
            "pass_cpu_s": summary([sum(p.cpu_s * f for p, f in it) for it in iterations]),
            "calibrator_s": summary(clock.cal_s),
        },
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and setup_ok and not check.problems,
        "problems": check.problems,
        "rows_per_pass": rows,
        "per_command": {c: {"wall_s": summary([p.wall_s * f for p, f in ps]),
                            "raw_wall_s": summary([p.wall_s for p, _ in ps]),
                            "cpu_s": summary([p.cpu_s * f for p, f in ps]),
                            "rss_mb": max(p.rss_mb for p, _ in ps)}
                        for c, ps in per_command.items()},
        "cfg": cfg,
    }


# ---------------------------------------------------------------------------
# per-layer measurement (traced, in-process)
# ---------------------------------------------------------------------------


def import_layer(work: WorkDir, reps: int) -> tuple:
    run_process(IMPORT_ARGV, work.path)  # warm-up: compiles .pyc files
    samples = {m: [] for m in IMPORT_MODULES}
    problems = []
    for _ in range(reps):
        p = run_process([sys.executable, "-X", "importtime", *IMPORT_ARGV[1:]], work.path)
        if p.status != 0:
            problems.append(f"importtime run failed: {p.stderr.strip()[-500:]}")
            continue
        for module, secs in tracing.parse_importtime(p.stderr, IMPORT_MODULES).items():
            samples[module].append(secs)
    return samples, problems


def inprocess_pass(cli, commands, cfg_path: Path, work: WorkDir, check: OutputCheck, tracer=None) -> tuple:
    """Run the command list through cli.main; returns (wall seconds, per-command walls, failures)."""
    walls, failures = {}, 0
    for command in commands:
        out = work.fresh_dir()
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
        main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        walls[command] = time.perf_counter() - start
        if not check.check(command, out, status):
            failures += 1
        shutil.rmtree(out)
    return sum(walls.values()), walls, failures


def layer_values(tracer: tracing.Tracer) -> dict:
    spans = tracer.spans()
    totals = tracing.span_totals(spans)
    counts = tracer.counts()
    values = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            key = f"{name}.{f}"
            values[key] = counts[key] if key in counts else totals.get(name, {}).get(f, 0)
    values["cli.write_csv.bytes"] = counts["cli.write_csv.bytes"]
    values["cli.rows"] = counts["cli.rows"]
    values["cli.pool.busy_over_wall"] = tracing.pool_busy_over_wall(spans)
    values["loops.master_integral.calls_per_row"] = (
        values["loops.master_integral.calls"] / values["cli.rows"] if values["cli.rows"] else 0.0
    )
    values["_min_self_s"] = min((t["min_self_s"] for t in totals.values()), default=0.0)
    return values


def trace(workload: str, seed: int, seconds: float, tiny: bool = False,
          importtime_reps: int = IMPORTTIME_REPS) -> dict:
    commands, _ = WORKLOADS[workload]
    cfg = generate(workload, seed, tiny)
    check = OutputCheck(workload, seed, cfg, tiny)
    sys.path.insert(0, str(SRC))
    from dipole_loop import cli

    attempted = failed = 0
    with WorkDir() as work:
        cfg_path = work.write_config(cfg)
        import_samples, problems = import_layer(work, importtime_reps)
        check.problems.extend(problems)

        def run_pass(tracer=None):
            nonlocal attempted, failed
            wall, walls, failures = inprocess_pass(cli, commands, cfg_path, work, check, tracer)
            attempted += len(commands)
            failed += failures
            return wall, walls

        run_pass()  # warm-up: lazy imports and first-touch allocations
        untraced, traced, layers, command_walls = [], [], [], {c: [] for c in commands}
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            wall, walls = run_pass()
            untraced.append(wall)
            for c, w in walls.items():
                command_walls[c].append(w)
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced.append(run_pass(tracer)[0])
            layers.append(layer_values(tracer))

    metrics = {f"import.{m}_s": statistics.median(v) if v else 0.0 for m, v in import_samples.items()}
    for key in layers[0]:
        if key in EXACT:
            metrics[key] = layers[0][key]
            if any(layer[key] != layers[0][key] for layer in layers):
                check.problems.append(f"{key} differs between traced passes")
        elif not key.startswith("_"):
            metrics[key] = statistics.median(layer[key] for layer in layers)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - metrics["trace.untraced_wall_s"]
    min_self = min(layer["_min_self_s"] for layer in layers)
    return {
        "metrics": metrics,
        "stats": {"untraced_wall_s": summary(untraced), "traced_wall_s": summary(traced),
                  **{f"import.{m}_s": summary(v) for m, v in import_samples.items() if v}},
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not check.problems,
        "problems": check.problems,
        "min_self_s": min_self,
        "per_command": {c: summary(w) for c, w in command_walls.items()},
        "cfg": cfg,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def result_line(res: dict, units: dict) -> dict:
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    res = trace(workload, seed, seconds) if traced else measure(workload, seed, seconds)
    record = {k: v for k, v in res.items() if k != "cfg"}
    record["fail_frac"] = res["failed"] / res["attempted"]
    record["provenance"] = provenance(workload, seed, res["cfg"])
    print(json.dumps(record, indent=1, sort_keys=True, default=float))
    return result_line(res, PER_LAYER if traced else END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "dipole_loop" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'dipole_loop'}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        line = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    results = {}
    for workload in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            results[workload] = run_one(workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    width = max(len(n) for n in units) + 2
    print(f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:>17}" for w in WORKLOADS))
    for name, unit in units.items():
        cells = "".join(f"{results[w]['metrics'][name]['value']:>17.6g}" for w in WORKLOADS)
        print(f"{name:<{width}}{unit:<8}{cells}")
    fails = "".join(f"{results[w]['failed'] / results[w]['attempted']:>17.6g}" for w in WORKLOADS)
    print(f"{'fail_frac':<{width}}{'1':<8}{fails}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
