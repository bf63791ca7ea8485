"""Batch command-line interface.

Every command is file-driven and reproducible: grids go to CSV, scalar and
structured reports to JSON, and any command that draws random numbers
requires an explicit --seed.  Exit codes: 0 success, 1 verification
failure, 2 configuration error, 3 numerical or domain error.  The
environment variable BILGAMMA_THREADS caps internal parallelism; results
never depend on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .combo import (
    LinearCombinationModel,
    build_mixture,
    load_model,
    read_fields,
    read_json,
)
from .errors import (
    BilgammaError,
    DomainError,
    KappaUndefinedError,
    ModelFileError,
    NonFiniteResultError,
    SeriesDivergenceError,
)
from .pricing import (
    PricingInputs,
    gamma_route_growth,
    martingale_gap,
    price_call_atm,
    price_call_gamma_series,
    price_call_integral,
    price_call_monte_carlo,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .sampling import (
    RandomStream,
    _check_cp_order,
    sample_compound_poisson,
    sample_direct,
    sample_path,
)
from .stein import (
    bound_compound_poisson_k,
    bound_two_sums,
    d3_bg_terms,
    d3_normal_terms,
    empirical_kolmogorov,
    kappa_inputs,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


_CSV_BLOCK_ROWS = 65_536


def _write_csv(path: str | None, header, formats, columns):
    """Write ``header``, then row i of the equal-length float arrays
    ``columns`` with each value %-formatted by its entry of ``formats``
    (%.17g reads back exactly).  Rows are formatted as text in blocks of
    _CSV_BLOCK_ROWS, so that neither a per-value f-string nor the whole
    text is ever materialised."""
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        line = ",".join(formats) + writer.dialect.lineterminator
        for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[i:i + _CSV_BLOCK_ROWS] for c in columns])
            out.write(line * len(block) % tuple(block.ravel().tolist()))
    finally:
        if path:
            out.close()


def _write_json(path: str | None, payload: dict):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResultError(
            "the report holds NaN or an infinity, which JSON does not allow") from None
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _spec_from_args(args) -> QuadratureSpec:
    return QuadratureSpec(abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                          max_subdivisions=args.max_subdivisions)


def _thread_cap() -> int:
    raw = os.environ.get("BILGAMMA_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"BILGAMMA_THREADS must be an integer, got {raw!r}")


def _fan_out(draw, count: int) -> list:
    """[draw(i) for i in range(count)], mapped over a pool of at most
    BILGAMMA_THREADS workers; the result never depends on the pool size."""
    workers = max(1, min(_thread_cap(), count))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(draw, range(count)))


def _parse_tgrid(text: str) -> np.ndarray:
    try:
        start, step, stop = (float(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"--tgrid must be start:step:stop, got {text!r}")
    if not all(map(math.isfinite, (start, step, stop))):
        raise ConfigError(f"--tgrid needs finite values, got {text!r}")
    if step <= 0 or stop <= start:
        raise ConfigError("--tgrid needs step > 0 and stop > start")
    steps = (stop - start) / step
    if steps > 1e7:
        raise ConfigError(f"--tgrid has {steps:.6g} steps, more than 1e7")
    # the last point passes stop by rounding only
    return start + step * np.arange(math.floor(steps * (1.0 + 1e-12)) + 1)


def _grid(lo: float, hi: float, points: int, what: str) -> np.ndarray:
    """``points`` equally spaced values from ``lo`` to ``hi``.  Both are
    finite, but their difference can still overflow a double, and linspace
    would then fill the grid with NaN and infinities: that is a ConfigError
    naming ``what``, the flags that set the bounds."""
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{what}: the grid's span must be finite, "
                          f"got {lo!r} to {hi!r}")
    return np.linspace(lo, hi, points)


# -- commands ----------------------------------------------------------------


def cmd_pdf(args) -> int:
    model = load_model(args.model)
    spec = _spec_from_args(args)
    rep = build_mixture(model, tail_tol=args.tail_tol)
    xs = _grid(args.xmin, args.xmax, args.points, "--xmin/--xmax")
    fourier, series = np.array(
        [(model.pdf_fourier(float(x), spec),
          rep.pdf_series(float(x)) if x != 0.0 else math.nan)
         for x in xs]).T
    _write_csv(args.out, ["x", "pdf_fourier", "pdf_series", "abs_diff"],
               ["%.12g", "%.12e", "%.12e", "%.3e"],
               [xs, fourier, series, np.abs(series - fourier)])
    return EXIT_OK


def cmd_cf(args) -> int:
    model = load_model(args.model)
    rep = build_mixture(model, tail_tol=args.tail_tol)
    zs = _grid(-args.zmax, args.zmax, args.points, "--zmax")
    prod = model.cf(zs)
    mix = rep.cf(zs)
    _write_csv(args.out, ["z", "cf_product_re", "cf_product_im",
                          "cf_mixture_re", "cf_mixture_im", "abs_diff"],
               ["%.12g"] + ["%.12e"] * 4 + ["%.3e"],
               [zs, prod.real, prod.imag, mix.real, mix.imag, np.abs(prod - mix)])
    return EXIT_OK


def cmd_moments(args) -> int:
    model = load_model(args.model)
    rep = build_mixture(model, tail_tol=args.tail_tol)
    payload = {
        "moments": {str(k): rep.moment(k) for k in range(1, args.kmax + 1)},
        "cumulants": {str(k): model.cumulant(k) for k in range(1, args.kmax + 1)},
        "mean": model.mean,
        "variance": model.variance,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_sample(args) -> int:
    model = load_model(args.model)
    streams = min(args.streams, args.n)
    counts = [args.n // streams + (1 if i < args.n % streams else 0)
              for i in range(streams)]
    chunks = _fan_out(lambda i: sample_direct(model, counts[i],
                                              RandomStream(args.seed, i)),
                      streams)
    _write_csv(args.out, ["value"], ["%.17g"], [np.concatenate(chunks)])
    return EXIT_OK


def cmd_bounds(args) -> int:
    model = load_model(args.model)
    # the two-sums and compound-Poisson bounds set their universal constants
    # to 1.0, so those values are bound shapes
    payload: dict = {"constants_default": True}
    try:
        kap = kappa_inputs(model)
        payload["kappa"] = {"log_g_n": kap.log_g_n, "log_h_n": kap.log_h_n,
                            "kappa_n": kap.kappa_n}
    except KappaUndefinedError as exc:
        _write_json(args.out, {"error": "kappa_undefined",
                               "log_g_n": exc.log_g_n,
                               "log_h_n": exc.log_h_n})
        return EXIT_NUMERICAL
    if args.target:
        fields = read_fields(read_json(args.target, "target"), "target file",
                             ("alpha", "p", "beta", "q"))
        target = LinearCombinationModel.from_components(
            [[*fields.values(), 1.0, 1.0]])
        terms = d3_bg_terms(model, target)
        payload["d3_bg"] = {"value": float(sum(terms.values())), "terms": terms}
    if args.sigma is not None:
        terms = d3_normal_terms(model, args.sigma)
        payload["d3_normal"] = {"value": float(sum(terms.values())), "terms": terms}
    if args.other:
        other = load_model(args.other)
        payload["two_sums"] = {"value": bound_two_sums(model, other)}
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_cp_sweep(args) -> int:
    model = load_model(args.model)
    try:
        orders = [int(v) for v in args.m.split(",")]
    except ValueError:
        raise ConfigError(f"--m must be a comma-separated integer list, got {args.m!r}")
    for m in orders:
        _check_cp_order(m)
    reference = sample_direct(model, args.n, RandomStream(args.seed, 0))
    dks = []
    for i, m in enumerate(orders):
        z = sample_compound_poisson(model, m, args.n, RandomStream(args.seed, i + 1))
        dks.append(empirical_kolmogorov(z, reference))
    c_fit = dks[0] / bound_compound_poisson_k(model, orders[0])
    bounds = [c_fit * bound_compound_poisson_k(model, m) for m in orders]
    _write_csv(args.out, ["m", "d_k", "bound_fitted"], ["%d", "%.6f", "%.6f"],
               [np.array(orders, dtype=float), np.array(dks), np.array(bounds)])
    return EXIT_OK


def cmd_price(args) -> int:
    model = load_model(args.model)
    inputs = PricingInputs(**read_fields(
        read_json(args.pricing, "pricing"), "pricing file",
        ("s0", "strike", "rate", "maturity"), ("dividend", "t_now", "spot_at_t")))
    spec = _spec_from_args(args)
    method = args.method
    if method == "auto":
        # the closed form only where its own guards accept the model
        method = "integral"
        if inputs.spot_at_t == inputs.strike:
            try:
                gamma_route_growth(model, inputs)
                method = "atm"
            except (DomainError, SeriesDivergenceError):
                pass
    if method == "integral":
        price = price_call_integral(model, inputs, spec)
        tolerance = 1e-8
    elif method in ("series", "atm"):
        route = price_call_gamma_series if method == "series" else price_call_atm
        price, tolerance = route(model, inputs, args.tail_tol)
    else:  # monte-carlo
        if args.seed is None:
            raise ConfigError("--seed is required for the monte-carlo method")
        price, se = price_call_monte_carlo(model, inputs, args.n,
                                           RandomStream(args.seed, 0))
        tolerance = 4.0 * se
    payload = {
        "price": price,
        "method": method,
        "tolerance_achieved": tolerance,
        "martingale_gap": martingale_gap(model, inputs.rate, inputs.dividend),
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    grid = _parse_tgrid(args.tgrid)
    paths = _fan_out(lambda i: sample_path(model, grid,
                                           RandomStream(args.seed, i)),
                     args.paths)
    header = ["t"] + [f"path_{i}" for i in range(args.paths)]
    _write_csv(args.out, header, ["%.12g"] * len(header), [grid] + paths)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(suite=args.suite, seed=args.seed,
                       corrupt_gamma=args.corrupt_gamma)
    _write_json(args.out, report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


# -- parser ------------------------------------------------------------------


def _count(least: int):
    """argparse type for a count of at least ``least``: anything else is a
    usage error (exit 2), not a numpy traceback or an empty result."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


def _finite(text: str) -> float:
    """argparse type for a finite float: nan or inf is a usage error (exit 2),
    not a crash inside QUADPACK or rows of NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _add_quad_args(p):
    p.add_argument("--abs-tol", type=_finite, default=DEFAULT_QUAD.abs_tol)
    p.add_argument("--rel-tol", type=_finite, default=DEFAULT_QUAD.rel_tol)
    p.add_argument("--max-subdivisions", type=_count(1),
                   default=DEFAULT_QUAD.max_subdivisions)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilgamma",
        description="Linear combinations of bilateral-gamma laws: densities, "
                    "transforms, bounds, simulation, and option pricing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdf", help="density grid (Fourier and series routes)")
    p.add_argument("--model", required=True)
    p.add_argument("--xmin", type=_finite, required=True)
    p.add_argument("--xmax", type=_finite, required=True)
    p.add_argument("--points", type=_count(1), default=401)
    p.add_argument("--tail-tol", type=_finite, default=1e-10, dest="tail_tol")
    p.add_argument("--out")
    _add_quad_args(p)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("cf", help="characteristic-function grid (both routes)")
    p.add_argument("--model", required=True)
    p.add_argument("--zmax", type=_finite, default=20.0)
    p.add_argument("--points", type=_count(1), default=401)
    p.add_argument("--tail-tol", type=_finite, default=1e-12, dest="tail_tol")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("moments", help="moments and cumulants up to kmax")
    p.add_argument("--model", required=True)
    p.add_argument("--kmax", type=_count(1), default=4)
    p.add_argument("--tail-tol", type=_finite, default=1e-12, dest="tail_tol")
    p.add_argument("--out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("sample", help="i.i.d. draws of the combination")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--streams", type=_count(1), default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bounds", help="approximation-bound report")
    p.add_argument("--model", required=True)
    p.add_argument("--target", help="bilateral-gamma target JSON")
    p.add_argument("--sigma", type=_finite, help="normal target std dev")
    p.add_argument("--other", help="second model (weights-only difference)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cp-sweep",
                       help="compound-Poisson Kolmogorov-distance sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--m", default="1,2,4,8,16,32,64")
    p.add_argument("--n", type=_count(1), default=100000)
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cp_sweep)

    p = sub.add_parser("price", help="European call price")
    p.add_argument("--model", required=True)
    p.add_argument("--pricing", required=True)
    p.add_argument("--method", default="auto",
                   choices=["auto", "integral", "series", "atm", "monte-carlo"])
    p.add_argument("--n", type=_count(2), default=1000000)
    p.add_argument("--seed", type=_count(0))
    p.add_argument("--tail-tol", type=_finite, default=1e-12, dest="tail_tol")
    p.add_argument("--out")
    _add_quad_args(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("simulate", help="process paths on a time grid")
    p.add_argument("--model", required=True)
    p.add_argument("--tgrid", required=True, help="start:step:stop")
    p.add_argument("--paths", type=_count(0), default=1)
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", default="full", choices=["full", "quick"])
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--out")
    p.add_argument("--corrupt-gamma", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # an OSError is an --out that cannot be written; its text names the path
    except (ConfigError, ModelFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BilgammaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
