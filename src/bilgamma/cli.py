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
import contextlib
import functools
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .combo import (
    _PMF_TAIL_TOL,
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
from .sampling import (
    RandomStream,
    _check_cp_order,
    sample_compound_poisson,
    sample_direct,
    sample_path,
)
from .stein import (
    bound_compound_poisson_k,
    bound_d3_bg,
    bound_d3_normal,
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


# Every CSV line ends in CRLF, the csv module's default line terminator.
_CRLF = "\r\n"
# A block of rows holds at most this many cells, so that the formatter's
# temporaries stay in the CPU cache.
_CSV_BLOCK_CELLS = 8_192


def _write_csv(path: str | None, header, formats, *tables):
    """Write ``header`` (plain names, which need no quoting), then the rows
    of each of ``tables`` in turn, every line ended by _CRLF.  A table is a
    list of equal-length float arrays, its columns; each value of a row is
    %-formatted by its entry of ``formats`` (%.17g reads back exactly), in
    blocks of at most _CSV_BLOCK_CELLS cells (one row at least), so that
    neither a per-value f-string nor the whole text is ever materialised.
    Rows of one %.<P>g go through _GFormatter, byte for byte as % would."""
    with (open(path, "w", newline="", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as out:
        out.write(",".join(header) + _CRLF)
        rows = max(1, _CSV_BLOCK_CELLS // len(formats))
        precision = _g_precision(formats)
        if precision is None:
            line = ",".join(formats) + _CRLF

            def format_block(block):
                return line * len(block) % tuple(block.ravel().tolist())
        else:
            format_block = _GFormatter(precision, rows, len(formats))
        for columns in tables:
            for i in range(0, len(columns[0]), rows):
                out.write(format_block(
                    np.column_stack([c[i:i + rows] for c in columns])))


def _g_precision(formats) -> int | None:
    """P when every entry of ``formats`` is the same %.<P>g with
    1 <= P <= 17, else None."""
    match = re.fullmatch(r"%\.([1-9]|1[0-7])g", formats[0])
    if match is None or any(f != formats[0] for f in formats):
        return None
    return int(match[1])


# Byte offsets in the 64-byte row where _GFormatter lays out one cell before
# a mask picks its text: "  -0.000" (the sign, and the "0." and zeros of
# 0.000ddd), the digits of D zero-padded to 20 (integer part, or all digits),
# the same 20 digits with a "." over D's leading digit (fraction part), the
# exponent "e+XXX", and "," followed by _CRLF.
_G_SIGN, _G_ZERO, _G_POINT, _G_ZEROS = 2, 3, 4, 5
_G_INT, _G_FRAC, _G_EXP, _G_SEP, _G_ROW = 8, 28, 48, 56, 64
# Tables over decimal exponents e10 cover |e10| <= _G_E10, which holds the
# exponents of every |x| in [1e-280, 1e280] and keeps 10**(P - 1 - e10) and
# its split finite for P <= 17.
_G_E10 = 282
_VELTKAMP = 134_217_729.0  # 2**27 + 1 splits a double into two 26-bit halves


@functools.cache  # built on first use: importing the CLI builds nothing
def _g_tables(precision: int):
    """Read-only lookup tables of _GFormatter for %.<precision>g rows.  A
    table over decimal exponents e10 is indexed by e10 + _G_E10."""
    p = precision
    e10 = np.arange(-_G_E10, _G_E10 + 1)
    # 10**(p - 1 - e10) as an unevaluated sum hi + lo of doubles, both
    # correctly rounded from exact integers; hi comes split in halves.
    scale = np.empty((2, e10.size))
    for i, s in enumerate((p - 1 - e10).tolist()):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        scale[:, i] = hi, (num * hi_den - hi_num * den) / (den * hi_den)
    hi, lo = scale
    split = _VELTKAMP * hi
    hi_head = split - (split - hi)
    # "e+XXX" as one 8-byte word per exponent
    expo = np.zeros((e10.size, 8), np.uint8)
    expo[:, :2] = [ord("e"), ord("+")]
    expo[e10 < 0, 1] = ord("-")
    size = np.abs(e10)
    expo[:, 2:5] = np.stack([size // 100, size // 10 % 10, size % 10],
                            axis=1) + ord("0")
    # the layout class of each exponent: %g's fixed form for -4 <= e10 < p
    # (classes 0..p+3), else the exponent form with 2 or 3 exponent digits
    layout = np.where((e10 >= -4) & (e10 < p), e10 + 4,
                      np.where(np.abs(e10) < 100, p + 4, p + 5))
    # the mask row of each (layout, trailing zeros, negative, last column)
    cls, zeros, neg, last = (a.ravel()[:, None] for a in np.indices((p + 6, p, 2, 2)))
    j = np.arange(_G_ROW)
    nd = p - zeros                  # significant digits printed
    x = cls - 4                     # e10 in the fixed form
    expform = cls >= p + 4
    small = ~expform & (x < 0)      # 0.000ddd
    lead = np.where(expform, 1, x + 1)  # digits before the point otherwise
    first = _G_INT + 20 - p         # where D's leading digit sits
    mask = neg.astype(bool) & (j == _G_SIGN)
    mask |= small & ((j == _G_ZERO) | (j == _G_POINT)
                     | ((j >= _G_ZEROS) & (j < _G_ZEROS - x - 1)))
    mask |= (j >= first) & (j < first + np.where(small, nd, lead))
    point = first + _G_FRAC - _G_INT  # digit k of the copy sits at point + k
    mask |= ~small & (nd > lead) & ((j == point)
                                    | ((j >= point + lead) & (j < point + nd)))
    mask |= expform & ((j == _G_EXP) | (j == _G_EXP + 1) | (j == _G_EXP + 3)
                       | (j == _G_EXP + 4) | ((j == _G_EXP + 2) & (cls == p + 5)))
    mask |= np.where(last, (j > _G_SEP) & (j <= _G_SEP + len(_CRLF)), j == _G_SEP)
    # the 4 ASCII digits of 0..9999 as one uint32 each, and their trailing zeros
    k = np.arange(10_000)
    quads = (np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
             + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    quad_zeros = np.zeros(10_000, np.intp)
    quad_zeros[0] = 4
    for d in (10, 100, 1000):
        quad_zeros[(k % d == 0) & (k > 0)] += 1
    tables = (hi, hi_head, hi - hi_head, lo, expo.view(np.uint64).ravel(),
              layout * (p * 4), mask, quads, quad_zeros)
    for t in tables:
        t.setflags(write=False)
    return tables


class _GFormatter:
    """Formats blocks of at most ``rows`` rows of ``cols`` %.<P>g cells,
    P = ``precision``, as the text that % writes, byte for byte.

    For each value x, e10 = floor(log10|x|) and y = |x| * 10**(P - 1 - e10)
    is formed as a double-double by Dekker's error-free two-product (Numer.
    Math. 18, 1971), with 10**(P - 1 - e10) held to 2**-106, so the integer
    part and fraction of y are known to about 1e-14.  The digits are the
    integer D nearest y.  x is certified only when the fraction is more
    than 1e-7 from 1/2, the integer part is at least 10**(P - 1) and D is
    below 10**P: then D is the correctly rounded P-digit significand and
    e10 the exponent, whatever floor(log10) did near a power of ten.  D's
    digits come from 4-digit table lookups, and a mask row per layout (%g's
    fixed or exponent form, the trailing zeros to strip, the sign, the
    separator) picks the cell's bytes.  Every value that is not certified
    -- 0, -0, inf, nan, |x| outside [1e-280, 1e280], ties such as
    1234567890123456.25 at P = 17, and some values next to a power of ten
    -- is written by % itself."""

    def __init__(self, precision: int, rows: int, cols: int):
        self.precision = precision
        self.tables = _g_tables(precision)
        cells = rows * cols
        self.row = np.zeros((cells, _G_ROW), np.uint8)
        self.row[:, :_G_INT] = np.frombuffer(b"  -0.000", np.uint8)
        sep = ("," + _CRLF).encode("ascii")
        self.row[:, _G_SEP:_G_SEP + len(sep)] = np.frombuffer(sep, np.uint8)
        self.mask = np.empty((cells, _G_ROW), bool)
        self.last = (np.arange(cells) % cols == cols - 1).astype(np.intp)

    def __call__(self, block: np.ndarray) -> str:
        p = self.precision
        (hi_t, head_t, tail_t, lo_t, expo, layout, masks, quads,
         quad_zeros) = self.tables
        x = np.ascontiguousarray(block, dtype=np.float64).ravel()
        n = x.size
        a = np.abs(x)
        ok = (a >= 1e-280) & (a <= 1e280)  # before any arithmetic: no nan, inf
        a = np.where(ok, a, 1.0)
        e10 = np.log10(a)
        e10 = np.floor(e10, out=e10).astype(np.intp)
        e10 += _G_E10
        # y + err == a * hi exactly (a = head + tail, hi = h_head + h_tail),
        # then err takes a * lo
        h_head, h_tail = head_t[e10], tail_t[e10]
        y = a * hi_t[e10]
        head = a * _VELTKAMP
        tail = head - a
        head -= tail
        tail = a - head
        err = head * h_head
        err -= y
        head *= h_tail
        err += head
        h_head *= tail
        err += h_head
        tail *= h_tail
        err += tail
        a *= lo_t[e10]
        err += a
        digits = y.astype(np.int64)
        y -= digits
        y += err  # the fraction, up to a whole carry
        carry = np.floor(y)
        y -= carry
        digits += carry.astype(np.int64)
        ok &= digits >= 10 ** (p - 1)
        y -= 0.5
        digits += y > 0
        ok &= np.abs(y, out=y) > 1e-7
        ok &= digits < 10 ** p
        # five 4-digit groups of the zero-padded 20-digit D
        groups = np.empty((n, 5), np.intp)
        high = digits // 100_000_000
        digits -= high * 100_000_000
        groups[:, 0] = high // 100_000_000
        high -= groups[:, 0] * 100_000_000
        groups[:, 1] = high // 10_000
        groups[:, 2] = high - groups[:, 1] * 10_000
        groups[:, 3] = digits // 10_000
        groups[:, 4] = digits - groups[:, 3] * 10_000
        quad_text = quads[groups]
        row = self.row[:n]
        words = row.view(np.uint32)
        words[:, _G_INT // 4:_G_INT // 4 + 5] = quad_text
        words[:, _G_FRAC // 4:_G_FRAC // 4 + 5] = quad_text
        row[:, _G_FRAC + 20 - p] = ord(".")
        row.view(np.uint64)[:, _G_EXP // 8] = expo[e10]
        # trailing zeros of D, and the mask row of each cell's layout
        zeros = quad_zeros[groups[:, 4]]
        more = np.flatnonzero(groups[:, 4] == 0)
        for k in (3, 2, 1, 0):
            if not more.size:
                break
            zeros[more] += quad_zeros[groups[more, k]]
            more = more[groups[more, k] == 0]
        key = np.minimum(zeros, p - 1, out=zeros)
        key *= 4
        key += layout[e10]
        key += 2 * (x < 0)
        key += self.last[:n]
        # every key is in range; "clip" lets take write into out unbuffered
        mask = np.take(masks, key, axis=0, out=self.mask[:n], mode="clip")
        fallback = np.flatnonzero(~ok)
        if fallback.size:
            fmt = f"%.{p}g"
            texts = [fmt % v for v in x[fallback].tolist()]
            lengths = np.fromiter(map(len, texts), np.intp, len(texts))
            offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
            row[np.repeat(fallback, lengths),
                _G_INT + np.arange(offsets.size) - offsets] = np.frombuffer(
                    "".join(texts).encode("ascii"), np.uint8)
            span = np.arange(_G_SEP)
            mask[fallback, :_G_SEP] = ((span >= _G_INT)
                                       & (span < _G_INT + lengths[:, None]))
        return str(row[mask].data, "ascii")


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
# Every command but verify takes the model that main loads from --model.


def cmd_pdf(model, args) -> int:
    rep = build_mixture(model)
    xs = _grid(args.xmin, args.xmax, args.points, "--xmin/--xmax")
    # each route takes the whole grid in one call; the series skips x = 0
    fourier, series = model.pdf_fourier(xs), np.full(xs.shape, math.nan)
    series[xs != 0.0] = rep.pdf_series(xs[xs != 0.0])
    _write_csv(args.out, ["x", "pdf_fourier", "pdf_series", "abs_diff"],
               ["%.12g", "%.12e", "%.12e", "%.3e"],
               [xs, fourier, series, np.abs(series - fourier)])
    return EXIT_OK


def cmd_cf(model, args) -> int:
    rep = build_mixture(model, tail_tol=args.tail_tol)
    zs = _grid(-args.zmax, args.zmax, args.points, "--zmax")
    prod = model.cf(zs)
    mix = rep.cf(zs)
    _write_csv(args.out, ["z", "cf_product_re", "cf_product_im",
                          "cf_mixture_re", "cf_mixture_im", "abs_diff"],
               ["%.12g"] + ["%.12e"] * 4 + ["%.3e"],
               [zs, prod.real, prod.imag, mix.real, mix.imag, np.abs(prod - mix)])
    return EXIT_OK


def cmd_moments(model, args) -> int:
    rep = build_mixture(model, tail_tol=args.tail_tol)
    payload = {
        "moments": {str(k): m for k, m in enumerate(rep.moments(args.kmax), 1)},
        "cumulants": {str(k): model.cumulant(k) for k in range(1, args.kmax + 1)},
        "mean": model.mean,
        "variance": model.variance,
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_sample(model, args) -> int:
    streams = min(args.streams, args.n)
    counts = [args.n // streams + (1 if i < args.n % streams else 0)
              for i in range(streams)]
    chunks = _fan_out(lambda i: sample_direct(model, counts[i],
                                              RandomStream(args.seed, i)),
                      streams)
    # each stream is written as drawn, in turn: no second copy of the draws
    _write_csv(args.out, ["value"], ["%.17g"], *([c] for c in chunks))
    return EXIT_OK


def cmd_bounds(model, args) -> int:
    # the two-sums and compound-Poisson bounds set their universal constants
    # to 1.0, so those values are bound shapes
    payload: dict = {"constants_default": True}
    try:
        # the two-sums bound needs no kappa: --other alone reports none
        if args.target or args.sigma is not None or not args.other:
            payload["kappa"] = vars(kappa_inputs(model))
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
        payload["d3_bg"] = {"value": bound_d3_bg(model, target),
                            "terms": d3_bg_terms(model, target)}
    if args.sigma is not None:
        payload["d3_normal"] = {"value": bound_d3_normal(model, args.sigma),
                                "terms": d3_normal_terms(model, args.sigma)}
    if args.other:
        other = load_model(args.other)
        payload["two_sums"] = {"value": bound_two_sums(model, other)}
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_cp_sweep(model, args) -> int:
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


def cmd_price(model, args) -> int:
    inputs = PricingInputs(**read_fields(
        read_json(args.pricing, "pricing"), "pricing file",
        ("s0", "strike", "rate", "maturity"), ("dividend", "t_now", "spot_at_t")))
    method = args.method
    if method == "auto":
        # the gamma-only series wherever its own guards accept the model
        try:
            gamma_route_growth(model, inputs)
            method = "atm" if inputs.strike == inputs.spot_at_t else "series"
        except (DomainError, SeriesDivergenceError):
            method = "integral"
    if method == "integral":
        price = price_call_integral(model, inputs)
        tolerance = 1e-8
    elif method in ("series", "atm"):
        route = price_call_gamma_series if method == "series" else price_call_atm
        price, tolerance = route(model, inputs)
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


def cmd_simulate(model, args) -> int:
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


@functools.cache  # built once per process: main is called in-process too
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilgamma",
        description="Linear combinations of bilateral-gamma laws: densities, "
                    "transforms, bounds, simulation, and option pricing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, model=True):
        """Subparser ``name``, which runs ``func``; --model first if ``model``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if model:
            p.add_argument("--model", required=True)
        return p

    p = command("pdf", cmd_pdf, "density grid (Fourier and series routes)")
    p.add_argument("--xmin", type=_finite, required=True)
    p.add_argument("--xmax", type=_finite, required=True)
    p.add_argument("--points", type=_count(1), default=401)

    p = command("cf", cmd_cf, "characteristic-function grid (both routes)")
    p.add_argument("--zmax", type=_finite, default=20.0)
    p.add_argument("--points", type=_count(1), default=401)
    p.add_argument("--tail-tol", type=_finite, default=_PMF_TAIL_TOL, dest="tail_tol")

    p = command("moments", cmd_moments, "moments and cumulants up to kmax")
    p.add_argument("--kmax", type=_count(1), default=4)
    p.add_argument("--tail-tol", type=_finite, default=_PMF_TAIL_TOL, dest="tail_tol")

    p = command("sample", cmd_sample, "i.i.d. draws of the combination")
    p.add_argument("--n", type=_count(1), required=True)
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--streams", type=_count(1), default=1)

    p = command("bounds", cmd_bounds, "approximation-bound report")
    p.add_argument("--target", help="bilateral-gamma target JSON")
    p.add_argument("--sigma", type=_finite, help="normal target std dev")
    p.add_argument("--other", help="second model (weights-only difference)")

    p = command("cp-sweep", cmd_cp_sweep,
                "compound-Poisson Kolmogorov-distance sweep")
    p.add_argument("--m", default="1,2,4,8,16,32,64")
    p.add_argument("--n", type=_count(1), default=100000)
    p.add_argument("--seed", type=_count(0), required=True)

    p = command("price", cmd_price, "European call price")
    p.add_argument("--pricing", required=True)
    p.add_argument("--method", default="auto",
                   choices=["auto", "integral", "series", "atm", "monte-carlo"])
    p.add_argument("--n", type=_count(2), default=1000000)
    p.add_argument("--seed", type=_count(0))

    p = command("simulate", cmd_simulate, "process paths on a time grid")
    p.add_argument("--tgrid", required=True, help="start:step:stop")
    p.add_argument("--paths", type=_count(0), default=1)
    p.add_argument("--seed", type=_count(0), required=True)

    p = command("verify", cmd_verify, "run the invariant suite", model=False)
    p.add_argument("--suite", default="full", choices=["full", "quick"])
    p.add_argument("--seed", type=_count(0), required=True)

    for each in sub.choices.values():
        each.add_argument("--out")
    # p is still verify's parser: a fault-injection hook, hidden from --help
    p.add_argument("--corrupt-gamma", action="store_true",
                   help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "model" not in args:  # verify builds its own models
            return args.func(args)
        # the model is read before any other input file
        return args.func(load_model(args.model), args)
    # an OSError is an --out that cannot be written; its text names the path
    except (ConfigError, ModelFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BilgammaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
