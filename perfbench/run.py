"""bilgamma benchmark: one workload, one process, one thread.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload density_grid --seed 1 --seconds 12 --trace 0

The workload's inputs (model and pricing files, grids, strikes, sample
seeds) are generated from ``--seed`` into a scratch directory inside the
checkout, which is removed again at exit.  The fixed operation list of the
workload is run in passes, and every operation's output is checked
against an independent route (see checks.py).  ``--seconds`` sets the
number of passes, max(2, round(seconds / nominal pass duration)): the
work of a run is fixed, so runs on different commits stay comparable,
and it measures about ``--seconds`` on the reference machine (2 vCPUs,
Python 3.11, numpy 2.4, scipy 1.17).  Times are CPU times of the
single-threaded process, scaled to the reference machine's speed by a
calibration loop timed between operations (see ``end_to_end``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the layer functions wrapped (see spans.py) and
prints the per-layer metrics, averaged per traced pass, together with the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Without bilgamma sources under ``src/`` the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

# One thread everywhere: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BILGAMMA_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
MIN_PASSES = 2             # so that every timing is a median of at least two
CAL_ITERATIONS = 200_000   # the calibration loop
CAL_SAMPLES = 3            # calibration loops before each operation
CAL_REFERENCE_S = 0.0140   # CPU time of one loop on the reference machine

# What a CLI user pays before any command runs: a fresh interpreter that
# imports bilgamma and loads the workload's model and pricing files.
SETUP_CODE = """\
import json, sys
from pathlib import Path
import bilgamma
for path in sys.argv[1:]:
    if Path(path).name.startswith("model_"):
        bilgamma.load_model(path)
    else:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
"""

E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "passed_frac": "ratio", "route_gap": "ratio"}


def remove_work(work: Path):
    """Remove a run's scratch directory, and WORK once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def calibrate(cal: list):
    """Append to ``cal`` the CPU times of CAL_SAMPLES runs of a fixed
    pure-Python loop that shares no code with the package: samples of how
    fast the machine runs at this moment."""
    for _ in range(CAL_SAMPLES):
        start = process_time()
        total = 0
        for i in range(CAL_ITERATIONS):
            total += i * i
        cal.append(process_time() - start)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(files: list, cal: list) -> float:
    """Median CPU time of SETUP_REPS fresh interpreters, after one untimed
    start that compiles the bytecode and warms the file cache.
    Calibration samples go to ``cal`` before each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS + 1):
        calibrate(cal)
        start = children_cpu()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *files], env=env,
                       cwd=ROOT, check=True, timeout=120)
        times.append(children_cpu() - start)
    return statistics.median(times[1:])


class Run:
    """Passes over one workload's operations, with their verdicts."""

    def __init__(self, workload, failure_types):
        self.workload = workload
        self.failure_types = failure_types
        self.walls: list = []          # CPU time of each pass
        self.cal: list = []            # calibration samples
        self.by_op: dict = {op.name: [] for op in workload.ops}
        self.attempted = 0
        self.failed = 0
        self.unexpected: set = set()
        self.route_gap = 0.0
        self.misses: dict = {}

    def one_pass(self, tracer=None) -> dict:
        results = {}
        for op in self.workload.ops:
            calibrate(self.cal)
            t0 = process_time()
            try:
                results[op.name] = (tracer.span("op", op.run) if tracer
                                    else op.run())
            except self.failure_types as exc:
                results[op.name] = exc
            self.by_op[op.name].append(process_time() - t0)
        self.walls.append(sum(t[-1] for t in self.by_op.values()))
        return results

    def judge(self, results: dict, checks):
        ops = self.workload.ops
        values = {}
        for op in ops:
            out = results[op.name]
            bad = isinstance(out, Exception) or (op.cli and out != 0)
            values[op.name] = None if bad else op.read(out)
        for op in ops:
            if values[op.name] is None:
                verdict = [checks.Check(f"operation failed: {results[op.name]!r}",
                                        math.inf, 1.0)]
            else:
                verdict = op.check(values)
            self.attempted += 1
            missed = [c for c in verdict if not c.passed]
            if missed:
                self.failed += 1
                self.misses[op.name] = (op.known_defect, missed)
                if not op.known_defect and any(not c.statistical for c in missed):
                    self.unexpected.add(op.name)
            if op.known_defect:
                continue
            for c in verdict:
                if not c.statistical and math.isfinite(c.ratio):
                    self.route_gap = max(self.route_gap, c.ratio)

    def loop(self, seconds: float, checks=None, tracer=None):
        """A fixed number of passes, so that every run of a workload at
        the same ``seconds`` does the same work on any machine or commit."""
        for _ in range(max(MIN_PASSES,
                           round(seconds / self.workload.pass_seconds))):
            results = self.one_pass(tracer)
            if checks is not None:
                self.judge(results, checks)


def speed(run: Run) -> float:
    """How much slower than the reference the machine ran during ``run``."""
    return statistics.median(run.cal) / CAL_REFERENCE_S


def end_to_end(run: Run, setup_s: float) -> tuple[dict, list]:
    """Timings are medians over the passes, in CPU time of this
    single-threaded process, divided by the machine's speed during the
    run: the median calibration sample over CAL_REFERENCE_S.  On the shared
    reference VM the CPU speed drifts by up to 1.8x in phases of seconds to
    minutes, longer than a run; the calibration loop slows down with it, so
    the quotient reads as seconds at the reference speed and keeps only
    the work of the program."""
    slow = speed(run)
    med = {name: statistics.median(t) for name, t in run.by_op.items()}
    values = {
        "wall_s": statistics.median(run.walls) / slow,
        "op_p50_s": statistics.median(med.values()) / slow,
        "op_tail_s": max(med.values()) / slow,
        "setup_s": setup_s / slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": (run.attempted - run.failed) / run.attempted,
        "route_gap": run.route_gap,
    }
    notes = [f"speed {slow:.4f} x the reference: median of {len(run.cal)} "
             f"calibration loops {statistics.median(run.cal) * 1e3:.3f} ms "
             f"(fastest {min(run.cal) * 1e3:.3f} ms)",
             f"wall_s: median of {len(run.walls)} passes; unscaled CPU time "
             f"median {statistics.median(run.walls):.4g} s, fastest "
             f"{min(run.walls):.4g} s",
             f"op_p50_s, op_tail_s: p50 and p100 (0 samples beyond) over the "
             f"{len(med)} operations of a pass, each at its median",
             f"setup_s: median of {SETUP_REPS} fresh interpreters; unscaled "
             f"{setup_s:.4g} s",
             "unscaled CPU time of each operation:"]
    notes += [f"  {name:32s} fastest {min(t):.4g} s, median {med[name]:.4g} s"
              for name, t in run.by_op.items()]
    return values, notes


def per_layer(tracer, spans, traced: Run, untraced: Run) -> tuple[dict, list]:
    passes = len(traced.walls)
    summary = tracer.summary()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failures": 0}
    metrics = {}
    for fn in spans.FUNCTIONS:
        row = summary.get(fn, zero)
        for key, unit in (("calls", "count"), ("busy_s", "s"),
                          ("self_s", "s"), ("failures", "count")):
            metrics[f"{fn}.{key}"] = (row[key] / passes, unit)
    for name in spans.COUNTERS:
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = (tracer.counts[name] / passes, unit)
    for module in spans.MODULES:
        own = sum(row["self_s"] for fn, row in summary.items()
                  if fn.startswith(module + "."))
        metrics[f"{module}.self_s"] = (own / passes, "s")
    # Each half is scaled by its own calibration, so drift between the
    # halves does not show up as overhead.
    overhead = (statistics.median(traced.walls) / speed(traced)
                - statistics.median(untraced.walls) / speed(untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    op_time = summary["op"]["busy_s"]
    ranked = sorted(((row["self_s"], fn) for fn, row in summary.items()
                     if fn != "op"), reverse=True)
    notes = [f"traced passes {passes}, untraced passes {len(untraced.walls)}, "
             f"overhead {overhead:+.4f} s per pass at the reference speed "
             f"(speed {speed(untraced):.3f} untraced, {speed(traced):.3f} traced)",
             "largest self time (share of traced operation time):"]
    notes += [f"  {fn:40s} {t / passes:10.4f} s  {t / op_time:6.1%}"
              for t, fn in ranked[:8]]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bilgamma" / "__init__.py").is_file():
        print(f"error: bilgamma sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads
    from bilgamma.errors import BilgammaError

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        untraced = Run(wl, BilgammaError)
        if args.trace:
            untraced.loop(args.seconds / 2.0, checks)
            traced = Run(wl, BilgammaError)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.loop(args.seconds / 2.0, tracer=tracer)
            finally:
                tracer.restore()
            metrics, notes = per_layer(tracer, spans, traced, untraced)
        else:
            setup_s = measure_setup(wl.setup_files, untraced.cal)
            untraced.loop(args.seconds, checks)
            values, notes = end_to_end(untraced, setup_s)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    finally:
        remove_work(work)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(wl.ops)} operations per pass")
    for line in notes:
        print(line)
    for name, (defect, missed) in untraced.misses.items():
        tag = f"known defect: {defect}" if defect else "FAILED"
        for c in missed:
            print(f"{tag}: {name}: {c.label}: gap {c.gap:.6g} > tol {c.tol:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": not untraced.unexpected,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
