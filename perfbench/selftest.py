"""Self-test of the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

It checks that every workload prints every metric BENCHMARK.json names,
with its unit, that the route checks flag a deliberately perturbed value,
and that the benchmark refuses to run without the package sources.  The
file is not named test_*.py, so the repository's own test run does not
collect it (the pricing workload alone takes about half a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def expected(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_workload_prints_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert f"{name} " in proc.stdout      # also printed by name


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench(ROOT, "density_grid", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected("per_layer")
    assert result["metrics"]["quadrature.log_hyperint.calls"]["value"] > 0
    assert result["metrics"]["pricing._tail_probability.calls"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "density_grid", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_density_check_flags_perturbed_series(tmp_path):
    wl = workloads.density_grid(7, tmp_path)
    op = wl.ops[0]
    assert op.run() == 0
    value = op.read(None)
    assert all(c.passed for c in op.check({op.name: value}))
    value[0, 2] += 2.0 * checks.TOL_DENSITY
    assert not all(c.passed for c in op.check({op.name: value}))


def test_closed_form_checks_flag_perturbed_values():
    rows = workloads.FIVE_MIXED
    z = np.linspace(-20.0, 20.0, 41)
    cf = checks.product_cf(rows, z)
    table = np.column_stack([z, cf.real, cf.imag, cf.real, cf.imag, 0 * z])
    assert all(c.passed for c in checks.cf(table, rows, 1e-12))
    table[3, 3] += 1e-7
    assert not all(c.passed for c in checks.cf(table, rows, 1e-12))

    moments = checks.raw_moments(checks.cumulants(rows, 4))
    report = {"moments": {str(k + 1): m for k, m in enumerate(moments)}}
    assert all(c.passed for c in checks.moments(report, rows))
    report["moments"]["2"] *= 1.0 + 1e-7
    assert not all(c.passed for c in checks.moments(report, rows))

    assert checks.price(0.5, 0.5 * (1 + 5e-5), "p")[0].passed
    assert not checks.price(0.5, 0.5 * (1 + 5e-4), "p")[0].passed
    assert not checks.stein(0.0, 1.0, 1e-10)[1].passed


def test_sample_check_flags_a_perturbed_draw():
    direct = np.random.default_rng(3).gamma(2.0, size=1000)
    got = np.array([float(f"{v:.17g}") for v in direct])
    assert checks.same_draws(got, direct)[0].gap == 0.0
    got[10] = np.nextafter(np.nextafter(got[10], 1.0), 1.0)
    assert not checks.same_draws(got, direct)[0].passed
    assert not checks.same_draws(got[:-1], direct)[0].passed


def test_call_price_matches_a_gamma_closed_form():
    """One gamma component (shape 3, rate 4): the call is
    e^(-r) (m1 Q(X > L) - K P(X > L)), with Q the law tilted to rate 3."""
    from scipy.stats import gamma
    rows = [(4.0, 3.0, 1.0e8, 1.0e-8, 1.0, 1.0)]
    strike, rate = 1.2, 0.04
    level = np.log(strike)
    m1 = (4.0 / 3.0) ** 3
    closed = np.exp(-rate) * (m1 * gamma.sf(level, 3.0, scale=1 / 3.0)
                              - strike * gamma.sf(level, 3.0, scale=1 / 4.0))
    got = checks.call_price(rows, strike, rate)
    assert abs(got - closed) <= 1e-6 * closed
    assert all(c.passed for c in checks.price(got, closed, "p"))
    assert not checks.price(got * (1 + 5e-4), closed, "p")[0].passed


def test_raw_moments_of_a_gaussian():
    assert checks.raw_moments([1.0, 2.0, 0.0, 0.0]) == [1.0, 3.0, 7.0, 25.0]
