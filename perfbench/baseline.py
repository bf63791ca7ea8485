"""Single-operation baseline, measured through the benchmark's tracer.

Usage, from the root of a checkout of the repository:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Runs each row of the ROADMAP baseline table once in each of REPS
repetitions, as a CLI command (or one library call where no command
exposes it) with the layer functions wrapped.  It records for every row
the median span duration, the repetition count and the value computed,
so that a fast wrong answer shows up next to its time.  Times are unscaled CPU times; the machine's
speed relative to the reference (run.CAL_REFERENCE_S), from calibration
loops timed before every repetition, and the bilgamma source line count
are recorded alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import run  # sets the one-thread environment before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from bilgamma import cli, stein  # noqa: E402
from bilgamma.sampling import RandomStream  # noqa: E402

REPS = 3


def source_lines() -> dict:
    files = sorted((run.SRC / "bilgamma").glob("*.py"))
    lines = code = 0
    for path in files:
        text = path.read_text(encoding="utf-8").splitlines()
        lines += len(text)
        code += sum(1 for t in text if t.strip() and not t.strip().startswith("#"))
    return {"files": len(files), "lines": lines, "code_lines": code}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def durations(tracer, name: str) -> list:
    return [end - start for n, start, end, _ in tracer.spans if n == name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name("baseline.json")))
    args = parser.parse_args(argv)

    work = run.WORK / f"baseline-{os.getpid()}"
    work.mkdir(parents=True)
    rows = []
    cal: list = []

    def row(name, layer, samples, value, note=""):
        rows.append({"name": name, "layer": layer,
                     "median_s": statistics.median(samples),
                     "reps": len(samples), "value": value, "note": note})

    def traced(fn):
        """Run ``fn`` REPS times, each under a fresh tracer; returns the
        tracers and the last result."""
        tracers = []
        for _ in range(REPS):
            run.calibrate(cal)
            tracer = spans.Tracer()
            tracer.install()
            try:
                result = tracer.span("op", fn)
            finally:
                tracer.restore()
            tracers.append(tracer)
        return tracers, result

    try:
        five = workloads.write_model(work, "five_mixed", workloads.FIVE_MIXED)
        pg = workloads.write_model(work, "pricing_gamma", workloads.PRICING_GAMMA)
        deep_rows = workloads.deep_model(np.random.default_rng([0, 4]))
        deep = workloads.write_model(work, "deep", deep_rows)
        otm = workloads.write_json(work / "pricing_otm.json",
                                   {"s0": 1.0, "strike": 1.2, "rate": 0.05,
                                    "maturity": 1.0})
        out = str(work / "out")

        # CLI pdf, 41 points on [-5, 5]: the per-point and per-kernel rows
        # come from its spans.
        pdf, _ = traced(lambda: cli.main(["pdf", "--model", five, "--xmin", "-5",
                                          "--xmax", "5", "--points", "41",
                                          "--out", out]))
        table = workloads.read_table(out)
        row("CLI pdf, 41 points, five_mixed", "cli",
            [sum(durations(t, "cli.main")) for t in pdf],
            float(np.nanmax(table[:, 3])), "value: max |series - Fourier|")
        row("pdf_series, one point (five_mixed, pmf 76x21)", "combo",
            [statistics.median(durations(t, "combo.pdf_series")) for t in pdf],
            float(table[0, 2]), "value: density at x = -5")
        row("pdf_fourier, one point (five_mixed)", "combo",
            [statistics.median(durations(t, "combo.pdf_fourier")) for t in pdf],
            float(table[0, 1]), "value: density at x = -5")
        row("log_hyperint, one kernel", "quadrature",
            [statistics.median(durations(t, "quadrature.log_hyperint")) for t in pdf],
            len(durations(pdf[0], "quadrature.log_hyperint")),
            "value: kernels per CLI pdf call")

        cf, _ = traced(lambda: cli.main(["cf", "--model", deep, "--out", out]))
        row("build_mixture, rate ratio ~200 (tail_tol 1e-12)", "combo",
            [sum(durations(t, "combo.build_mixture")) for t in cf],
            cf[0].counts["combo.build_mixture.terms"],
            "value: pmf terms, positive plus negative side")

        model = cli.load_model(five)
        st, (est, se) = traced(lambda: stein.stein_identity_check(
            model, stein.SIN_W3, 50_000, RandomStream(505)))
        row("stein_apply_batch, 50k points, 5 components, 96 nodes", "stein",
            [sum(durations(t, "stein.stein_apply_batch")) for t in st],
            est / se, "value: E[A sin T] estimate in standard errors")

        smp, _ = traced(lambda: cli.main(["sample", "--model", five, "--n",
                                          "1000000", "--seed", "3", "--out", out]))
        draws = np.loadtxt(out, delimiter=",", skiprows=1)
        row("sample_direct, 1e6 draws, 5 components", "sampling",
            [sum(durations(t, "sampling.sample_direct")) for t in smp],
            float(draws.mean()), "value: sample mean")
        row("CLI sample --n 1000000 to CSV", "cli",
            [sum(durations(t, "cli.main")) for t in smp],
            smp[0].counts["cli.csv_bytes"], "value: CSV bytes")
        row("_write_csv in CLI sample --n 1000000", "cli",
            [sum(durations(t, "cli._write_csv")) for t in smp],
            statistics.median(sum(durations(t, "cli._write_csv"))
                              / sum(durations(t, "cli.main")) for t in smp),
            "value: the CSV writer's share of the CLI command's time")

        for method, label in (("integral", "price_call_integral"),
                              ("series", "price_call_gamma_series")):
            pr, _ = traced(lambda: cli.main(["price", "--model", pg, "--pricing",
                                             otm, "--method", method, "--out", out]))
            price = workloads.read_json(out)["price"]
            row(f"{label}, OTM K=1.2, PRICING_GAMMA", "pricing",
                [sum(durations(t, f"pricing.{label}")) for t in pr], price,
                "value: call price")
    finally:
        run.remove_work(work)

    report = {
        "machine": {"cpus": os.cpu_count(), "processor": cpu_model(),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "speed": statistics.median(cal) / run.CAL_REFERENCE_S},
        "src_loc": source_lines(),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for r in rows:
        print(f"{r['name']:55s} {r['median_s']:12.6g}  value {r['value']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
