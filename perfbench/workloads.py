"""The benchmark workloads: seeded inputs, the fixed operation list of one
pass, and the route check of every operation.

Every operation is one CLI command run in-process through
``bilgamma.cli.main(argv)``, except where no command exposes the
computation (the Stein identity check and the direct-vs-mixture KS
comparison), where it is one public library call.  Functions are looked
up on their module at call time, so the tracer's wrappers see them.  The
program only receives the files and arguments generated here from the
seed.

Why these four: each one makes a different layer dominant, so a change to
one layer moves one workload and is predicted to leave the others alone.

* density_grid  - CLI pdf; combo.pdf_series -> quadrature.log_hyperint
* pricing_strip - CLI price; nested quadrature in pricing._tail_probability
* monte_carlo   - CLI sample/cp-sweep, Stein check, KS; no quadrature
* deep_mixture  - CLI cf/moments on wide-rate models; combo.build_mixture
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bilgamma import cli, combo, sampling, stein
from bilgamma.sampling import RandomStream

import checks

# Component tables (alpha, p, beta, q, w1, w2), fixed here so that the
# benchmark inputs do not change when the package's own model grid does.
FIVE_MIXED = [(1.2, 0.3, 2.2, 0.5, 1.0, 1.0), (2.0, 1.1, 3.0, 0.8, 0.7, 0.9),
              (3.1, 0.9, 1.8, 1.3, 1.1, 0.6), (4.0, 0.6, 2.6, 0.4, 0.8, 1.0),
              (2.7, 1.4, 4.2, 1.0, 0.9, 1.3)]
PAIR_NONINT = [(1.5, 0.7, 2.0, 1.2, 1.0, 0.8), (2.5, 1.8, 3.5, 0.4, 0.5, 1.2)]
PRICING_GAMMA = [(3.0, 1.1, 1.0e8, 1.0e-8, 1.0, 1.0),
                 (4.0, 0.9, 1.0e8, 1.0e-8, 1.0, 1.0)]
MARTINGALE = [(6.0, 1.0, 4.0, 0.9, 1.5, 1.0), (5.0, 0.8, 7.0, 1.1, 1.0, 1.0)]

AUTO_ATM_DEFECT = ("price --method auto at the money takes the gamma-only "
                   "closed form on a bilateral model (ROADMAP item 4)")


@dataclass
class Op:
    """One operation: ``run`` executes it and returns a CLI exit code or a
    library value; ``read`` turns that into the computed value; ``check``
    judges the value given every value of the pass, keyed by op name."""

    name: str
    run: Callable[[], object]
    read: Callable[[object], object]
    check: Callable[[dict], list]
    known_defect: str = ""
    cli: bool = True


@dataclass
class Workload:
    name: str
    ops: list
    setup_files: list        # model and pricing files a CLI call loads
    pass_seconds: float      # nominal duration of one pass, fixes the pass count


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def write_model(work: Path, name: str, rows) -> str:
    keys = ("alpha", "p", "beta", "q", "w1", "w2")
    return write_json(work / f"model_{name}.json",
                      {"components": [dict(zip(keys, map(float, r))) for r in rows]})


def read_table(path: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_op(name, argv, out, read, check, known_defect="") -> Op:
    return Op(name, lambda: cli.main(argv), lambda _: read(out), check,
              known_defect)


# -- density_grid ------------------------------------------------------------


GRID_POINTS = 8


def density_grid(seed: int, work: Path) -> Workload:
    """CLI pdf on five_mixed and pair_nonint.  Each model gets a grid of
    GRID_POINTS equally spaced points that tiles [-5, 5], shifted by a
    seed-drawn 0.4-0.6 of the spacing h = 10 / GRID_POINTS, so that no point
    is nearer than 0.4 h to the origin, where the series route is singular.
    The grid is split into its even and odd points, one CLI call each.  The
    series cost per point falls from about 0.45 s near the origin to 0.15 s
    at |x| = 5 (five_mixed), so a grid that tiles the whole interval keeps
    the argument mix, and the cost of a pass, the same for every seed."""
    rng = _rng(seed, 1)
    h = 10.0 / GRID_POINTS
    ops, files = [], []
    for name, rows in (("five_mixed", FIVE_MIXED), ("pair_nonint", PAIR_NONINT)):
        path = write_model(work, name, rows)
        files.append(path)
        first = -5.0 + rng.uniform(0.4, 0.6) * h
        for half in (0, 1):
            xmin = first + half * h
            xmax = xmin + (GRID_POINTS - 2) * h
            label = f"pdf {name} #{half}"
            out = str(work / f"pdf_{name}_{half}.csv")
            argv = ["pdf", "--model", path, "--xmin", repr(xmin), "--xmax",
                    repr(xmax), "--points", str(GRID_POINTS // 2), "--out", out]
            ops.append(_cli_op(label, argv, out, read_table,
                               lambda v, k=label: checks.density(
                                   v[k], GRID_POINTS // 2)))
    return Workload("density_grid", ops, files, 3.8)


# -- pricing_strip -----------------------------------------------------------


def pricing_strip(seed: int, work: Path) -> Workload:
    """CLI price on PRICING_GAMMA (integral and series at a seed-drawn
    out-of-the-money strike, atm at the money) and on MARTINGALE
    (integral, monte-carlo and auto at the money), at a seed-drawn rate.
    Every price is checked against the Gil-Pelaez price of the closed-form
    cf; the integral prices also against the other route at their strike.
    Auto at the money on MARTINGALE is a known defect and stays in the
    strip."""
    rng = _rng(seed, 2)
    rate = rng.uniform(0.03, 0.06)
    models = {"PG": PRICING_GAMMA, "MG": MARTINGALE}
    paths = {"PG": write_model(work, "pricing_gamma", PRICING_GAMMA),
             "MG": write_model(work, "martingale", MARTINGALE)}
    files = list(paths.values())

    def pricing(tag, strike):
        files.append(write_json(work / f"pricing_{tag}.json",
                                {"s0": 1.0, "strike": strike, "rate": rate,
                                 "maturity": 1.0}))
        return files[-1]

    def price(model, strike, pfile, method, pair=None, mc=None,
              known_defect="", extra=()):
        """CLI price of ``model`` at ``strike`` by ``method``, checked against
        the closed-form price and, if given, op ``pair``.  ``mc`` names the
        Monte Carlo op whose standard error widens the tolerance to 4 SE."""
        tag = f"{model} K={strike:.4g}"
        name = f"price {tag} {method}"
        ref = checks.call_price(models[model], strike, rate)

        def check(v):
            se = (v[mc]["tolerance_achieved"] / checks.SE_MULT
                  if mc and v[mc] is not None else 0.0)
            own = v[name]["price"]
            out = checks.price(own, ref, f"{name} vs closed form (C9)",
                               se if method == "monte-carlo" else 0.0)
            if pair is not None:
                other = v[pair]["price"] if v[pair] is not None else None
                out += checks.price(own, other, f"{name} vs {pair} (C9)", se)
            return out

        out = str(work / f"price_{model}_{method}.json")
        argv = ["price", "--model", paths[model], "--pricing", pfile,
                "--method", method, *extra, "--out", out]
        return _cli_op(name, argv, out, read_json, check, known_defect)

    k2 = float(rng.uniform(1.15, 1.25))
    mc_seed = str(rng.integers(1, 2 ** 31 - 1))
    pg_atm, pg_otm, mg_atm = (pricing("pg_atm", 1.0), pricing("pg_otm", k2),
                              pricing("mg_atm", 1.0))
    pg_pair = f"price PG K={k2:.4g}"
    mg_mc = "price MG K=1 monte-carlo"
    ops = [
        price("PG", k2, pg_otm, "integral", pair=f"{pg_pair} series"),
        price("PG", k2, pg_otm, "series", pair=f"{pg_pair} integral"),
        price("PG", 1.0, pg_atm, "atm"),
        price("MG", 1.0, mg_atm, "integral", pair=mg_mc, mc=mg_mc),
        price("MG", 1.0, mg_atm, "monte-carlo", mc=mg_mc,
              extra=("--seed", mc_seed)),
        price("MG", 1.0, mg_atm, "auto", known_defect=AUTO_ATM_DEFECT),
    ]
    return Workload("pricing_strip", ops, files, 13.0)


# -- monte_carlo -------------------------------------------------------------

SAMPLE_N = 300_000
CP_ORDERS, CP_N = "1,2,4,8,16", 20_000
STEIN_N = 50_000
KS_N, KS_REPS = 5_000, 20


def monte_carlo(seed: int, work: Path) -> Workload:
    """CLI sample to CSV and CLI cp-sweep on five_mixed, the Stein identity
    check for sin, and a direct-vs-mixture KS comparison: samplers, the
    Stein batch operator and the CSV writer, with no quadrature at all."""
    rng = _rng(seed, 3)
    path = write_model(work, "five_mixed", FIVE_MIXED)
    model = combo.load_model(path)
    s_sample, s_cp, s_stein, s_ks = (int(s) for s in
                                     rng.integers(1, 2 ** 31 - 1, size=4))
    sample_out = str(work / "sample.csv")
    cp_out = str(work / "cp_sweep.csv")

    def read_draws(out):
        return np.loadtxt(out, delimiter=",", skiprows=1)

    # The references are the same in every pass: compute them once.
    @functools.cache
    def direct_draws():
        return sampling.sample_direct(model, SAMPLE_N, RandomStream(s_sample, 0))

    @functools.cache
    def stein_closed_mean():
        draws = sampling.sample_direct(model, STEIN_N, RandomStream(s_stein))
        return float(checks.stein_sine(FIVE_MIXED, draws).mean())

    def sample_check(v):
        """With one stream the CLI writes sample_direct(model, n,
        RandomStream(seed, 0)) as %.17g, which must read back exactly."""
        return (checks.same_draws(v["sample"], direct_draws())
                + checks.sample_cumulants(v["sample"], FIVE_MIXED))

    def stein_run():
        return stein.stein_identity_check(model, stein.SIN_W3, STEIN_N,
                                          RandomStream(s_stein))

    def stein_check(v):
        est, se = v["stein sin"]
        return checks.stein(est, se, stein_closed_mean())

    def ks_run():
        rep = combo.build_mixture(model, tail_tol=1e-10)
        return [stein.empirical_kolmogorov(
                    sampling.sample_direct(model, KS_N, RandomStream(s_ks + r, 0)),
                    sampling.sample_mixture(rep, KS_N, RandomStream(s_ks + r, 1)))
                for r in range(KS_REPS)]

    ops = [
        _cli_op("sample", ["sample", "--model", path, "--n", str(SAMPLE_N),
                           "--seed", str(s_sample), "--streams", "1",
                           "--out", sample_out],
                sample_out, read_draws, sample_check),
        _cli_op("cp-sweep", ["cp-sweep", "--model", path, "--m", CP_ORDERS,
                             "--n", str(CP_N), "--seed", str(s_cp),
                             "--out", cp_out],
                cp_out, read_table,
                lambda v: checks.cp_sweep(v["cp-sweep"], CP_N)),
        Op("stein sin", stein_run, lambda value: value, stein_check, cli=False),
        Op("ks direct vs mixture", ks_run, lambda value: value,
           lambda v: checks.ks_repetitions(v["ks direct vs mixture"], KS_N),
           cli=False),
    ]
    return Workload("monte_carlo", ops, [path], 2.8)


# -- deep_mixture ------------------------------------------------------------

DEEP_TAIL_TOL = 1e-12


def deep_model(rng) -> list:
    """Three components whose positive rates span a ratio of about 200,
    which at tail_tol 1e-12 gives a positive pmf of about 5.5k terms."""
    eta = rng.uniform(3.75, 4.25)
    ratio = rng.uniform(199.0, 201.0)
    lam = [eta / ratio, eta / np.sqrt(ratio) * rng.uniform(0.95, 1.05), eta]
    p = [rng.uniform(0.99, 1.01), rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1)]
    mu = rng.uniform(1.75, 2.25, 3)
    q = rng.uniform(0.9, 1.1, 3)
    w1, w2 = rng.uniform(0.9, 1.1, 3), rng.uniform(0.9, 1.1, 3)
    return [(lam[j] * w1[j], p[j], mu[j] * w2[j], q[j], w1[j], w2[j])
            for j in range(3)]


def deep_mixture(seed: int, work: Path) -> Workload:
    """CLI cf and moments on two seed-drawn wide-rate models: building the
    mixture (the O(K^2) pmf recursion) is most of each command."""
    rng = _rng(seed, 4)
    ops, files = [], []
    for i in range(2):
        rows = deep_model(rng)
        path = write_model(work, f"deep_{i}", rows)
        files.append(path)
        cf_out = str(work / f"cf_{i}.csv")
        mom_out = str(work / f"moments_{i}.json")
        tail = repr(DEEP_TAIL_TOL)
        ops.append(_cli_op(f"cf deep #{i}",
                           ["cf", "--model", path, "--tail-tol", tail,
                            "--out", cf_out], cf_out, read_table,
                           lambda v, k=f"cf deep #{i}", r=rows:
                           checks.cf(v[k], r, DEEP_TAIL_TOL)))
        ops.append(_cli_op(f"moments deep #{i}",
                           ["moments", "--model", path, "--tail-tol", tail,
                            "--out", mom_out], mom_out, read_json,
                           lambda v, k=f"moments deep #{i}", r=rows:
                           checks.moments(v[k], r)))
    return Workload("deep_mixture", ops, files, 8.5)


WORKLOADS = {
    "density_grid": density_grid,
    "pricing_strip": pricing_strip,
    "monte_carlo": monte_carlo,
    "deep_mixture": deep_mixture,
}
