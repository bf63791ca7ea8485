"""Quadrature primitives and special functions.

All adaptive integration in the package funnels through the helpers here so
that tolerances and domain transformations are applied uniformly:

* infinite upper limits are compactified with ``t = u / (1 - u)``,
* Fourier-type integrals (densities, Gil-Pelaez tails) go through
  ``oscillatory_integral`` and QUADPACK's dedicated oscillatory rule.

scipy is imported inside the functions that call it, here and in the other
modules, so that a command that never integrates does not pay to load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "integrate_zero_to_inf",
    "oscillatory_integral",
    "fourier_density",
    "log_hyperint",
    "log_hyperint_rows",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for one adaptive integration.

    abs_tol / rel_tol feed QUADPACK's epsabs / epsrel; max_subdivisions
    caps the interval bisections.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("abs_tol and rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


def _quad(f: Callable[[float], float], a: float, b: float,
          spec: QuadratureSpec) -> float:
    """scipy.integrate.quad with the spec's budget; raises on failure."""
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.max_subdivisions, full_output=1)
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if the error estimate still
        # meets the requested budget (roundoff-noise flags are common when
        # the integral is effectively converged).
        val, err = out[0], out[1]
        if err > max(spec.abs_tol, spec.rel_tol * abs(val)) * 10.0:
            raise NonConvergenceError(
                f"quadrature failed on [{a}, {b}]: {out[3]}")
    return out[0]


def integrate_zero_to_inf(f: Callable[[float], float],
                          spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Adaptive integral of ``f`` over (0, inf), via ``t = u / (1 - u)``."""
    def mapped(u: float) -> float:
        t = u / (1.0 - u)
        return f(t) / (1.0 - u) ** 2

    return _quad(mapped, 0.0, 1.0, spec)


def oscillatory_integral(g: Callable[[float], complex], x: float,
                         lower: float, spec: QuadratureSpec) -> float:
    """int_lower^inf Re(e^{-ixz} g(z)) dz: its cos and sin parts by QUADPACK's
    Fourier rule, or the plain compactified rule when x = 0.  The two parts
    run the same rule over the same nodes, so ``g`` is evaluated once per
    distinct node and its value shared.  A non-finite ``x`` is rejected:
    QUADPACK's Fourier rule does not return from it."""
    from scipy.integrate import quad

    if not math.isfinite(x):
        raise DomainError(f"require a finite x, got x={x}")
    if x == 0.0:
        return integrate_zero_to_inf(lambda t: g(lower + t).real, spec)

    values: dict[float, complex] = {}

    def at(z: float) -> complex:
        val = values.get(z)
        if val is None:
            val = values[z] = g(z)
        return val

    total = 0.0
    for part, weight in ((lambda z: at(z).real, "cos"),
                         (lambda z: at(z).imag, "sin")):
        out = quad(part, lower, np.inf, weight=weight, wvar=x,
                   epsabs=spec.abs_tol, limlst=150,
                   limit=spec.max_subdivisions, full_output=1)
        if len(out) > 3 and out[1] > spec.abs_tol * 100.0:
            raise NonConvergenceError(
                f"oscillatory quadrature failed at x={x}: {out[-1]}")
        total += out[0]
    return total


def fourier_density(cf: Callable[[float], complex], x: float,
                    spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Density h(x) = (1/pi) int_0^inf Re(e^{-ixz} cf(z)) dz of a cf."""
    return oscillatory_integral(cf, x, 0.0, spec) / math.pi


def _log_sum(pieces) -> float:
    """log sum_k e^(scale_k) I_k over (scale_k, I_k) pairs; NaN when the
    sum underflows to 0 or is not finite."""
    top = max(scale for scale, _ in pieces)
    total = sum(val * math.exp(scale - top) for scale, val in pieces)
    return top + math.log(total) if 0.0 < total < math.inf else math.nan


def log_hyperint(a: float, b: float, x: float,
                 spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """log of I(a,b,x) = int_0^inf e^{-xt} t^{a-1} (1+t)^{b-a-1} dt.

    This is Gamma(a) times the second-kind confluent hypergeometric
    integral; working in log space keeps large-shape evaluations (a or b
    of the order of hundreds) inside float range.  The domain is split at
    t = 1; on [0, 1] the substitution t = s^(1/a) removes the t^(a-1)
    endpoint singularity when a < 1.  [1, inf) is split again at the peak
    t_star of the exponent when t_star > 1: [1, t_star] is integrated in t
    and [t_star, inf) is compactified by t = t_star / (1 - u), so the peak,
    of width about t_star / sqrt(b), stays a fixed share of each interval
    however far out it lies.  Each piece is integrated relative to the
    peak of its exponent and the pieces are combined in log space.

    For a large x the mass of [0, 1] is a spike near 0, at t_star or
    within 1/x of 0, that a rule over all of [0, 1] misses (the pieces sum
    to 0), and past x of about 1e154 t_star overflows (NaN).  Only then is
    the integral taken again with t_star in a form that neither overflows
    nor cancels and [0, 1] split at the spike's scale
    t1 = max(t_star, 1/x): [0, t1] in t / t1 (or its power a) and
    [t1, 1] by t = t1 / (1 - v), with the scale t1 moved into the log so
    that each piece is of order one.
    """
    if not (a > 0.0 and x > 0.0):
        raise DomainError(f"require a > 0 and x > 0, got a={a}, x={x}")
    c = b - a - 1.0

    def g(t: float) -> float:
        return -x * t + (a - 1.0) * math.log(t) + c * math.log1p(t)

    def below(t1: float, t_star: float):
        # [0, t1] in t / t1, relative to the peak of its exponent: for
        # a > 1 the peak of g; for a <= 1 that of -x t + c log1p(t) (t^(a-1)
        # is integrated away or is 1), at c/x - 1 clipped to [0, t1]
        if a > 1.0:
            shift = g(t_star) if t_star > 0.0 else 0.0
        else:
            t01 = min(max(c / x - 1.0, 0.0), t1)
            shift = -x * t01 + c * math.log1p(t01)
        if a < 1.0:
            inv_a = 1.0 / a

            def piece(s: float) -> float:
                t = t1 * s ** inv_a
                return inv_a * math.exp(-x * t + c * math.log1p(t) - shift)

            return a * math.log(t1) + shift, _quad(piece, 0.0, 1.0, spec)

        def piece(u: float) -> float:
            t = t1 * u
            return math.exp(g(t) - shift) if t > 0.0 else (
                math.exp(-shift) if a == 1.0 else 0.0)

        return math.log(t1) + shift, _quad(piece, 0.0, 1.0, spec)

    def above(t_star: float):
        # [1, inf), relative to the peak of g for a > 1, and for a <= 1 to
        # the larger of g(1) and g(t0): g falls except between its local
        # minimum and t_star
        t0 = max(t_star, 1.0)
        if a > 1.0:
            shift = g(t_star) if t_star > 0.0 else 0.0
        else:
            shift = max(g(1.0), g(t0))

        def piece_tail(u: float) -> float:
            # t = t0 / (1 - u) maps [0, 1) onto [t0, inf)
            v = 1.0 - u
            return t0 * math.exp(g(t0 / v) - shift) / (v * v)

        val = _quad(piece_tail, 0.0, 1.0, spec)
        if t0 > 1.0:
            val += _quad(lambda t: math.exp(g(t) - shift), 1.0, t0, spec)
        return shift, val

    # the larger root of the quadratic g'(t) t (1 + t) = 0: the interior
    # maximum of g for a > 1, a local maximum (if real) for a <= 1
    bq = x - (a - 1.0) - c
    disc = bq * bq + 4.0 * x * (a - 1.0)
    t_star = (-bq + math.sqrt(max(disc, 0.0))) / (2.0 * x)
    val = _log_sum([below(1.0, t_star), above(t_star)])
    if math.isfinite(val):
        return val

    # the same root of the quadratic divided by x, which does not
    # overflow, in the form that does not cancel
    lin, const = bq / x, (a - 1.0) / x
    root = math.sqrt(max(lin * lin + 4.0 * const, 0.0))
    t_star = 2.0 * const / (lin + root) if lin > 0.0 else (root - lin) / 2.0
    t1 = max(t_star, 1.0 / x)
    if t1 < 1.0:
        shift = max(g(t1), g(min(max(t_star, t1), 1.0)))

        def past_spike(v: float) -> float:
            # t = t1 / (1 - v) maps [0, 1 - t1] onto [t1, 1]
            w = 1.0 - v
            return math.exp(g(t1 / w) - shift) / (w * w)

        val = _log_sum([below(t1, t_star),
                        (math.log(t1) + shift, _quad(past_spike, 0.0, 1.0 - t1, spec)),
                        above(t_star)])
        if math.isfinite(val):
            return val
    raise NonConvergenceError(
        f"hypergeometric integral underflowed for a={a}, b={b}, x={x}")


def log_hyperint_rows(a0: float, b0: float, x: float, rows: int, cols: int,
                      spec: QuadratureSpec = DEFAULT_QUAD,
                      seed: Callable[..., float] = log_hyperint):
    """Yield (i, L_i) for i = rows - 1 down to 0, where

        L_i[j] = log I(a0 + i, b0 + i + j, x),  j = 0 .. cols - 1,

    with I the integral of ``log_hyperint``.  At most two entries are
    integrated (by ``seed``, which takes log_hyperint's arguments); the
    rest follow from three exact relations, each applied in the direction
    in which it adds positive terms only:

    * (D) (a0 + k) d_k + (b0 + k - x) d_(k+1) = x d_(k+2) for the diagonal
      d_k = I(a0 + k, b0 + k) (by parts on
      d/dt [t^(a0+k) (1+t)^(b0-a0) e^(-xt)]) gives the first entry of
      every row.  It is seeded at k0 = ceil(x - b0), clipped to the
      diagonal, and run forward above k0, where b0 + k - x >= 0, and
      backward below it as (a0 + k) d_k = x d_(k+2) + (x - b0 - k) d_(k+1);
    * (B) x I(a, b+1) = (b - 1 + x) I(a, b) - (b - a - 1) I(a, b-1)
      (DLMF 13.3.8) fills the last row forward in b, the direction in
      which U is the dominant solution, so the recurrence is stable;
    * (A) I(a, b+1) = I(a, b) + I(a+1, b+1) (13.3.10; the integrand
      identity (1 + t) = 1 + t) builds each earlier row as a running sum
      of the row below it, and gives the last row's second entry from the
      diagonal run one step past it.

    At most two rows and the diagonal are held at a time.
    """
    if rows < 1 or cols < 1:
        raise DomainError(f"require rows >= 1 and cols >= 1, got {rows}, {cols}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"require a finite x > 0, got x={x}")
    # the diagonal runs one step past the last row when that row has a
    # second entry to build from it
    n = rows + (cols > 1)
    diag = np.empty(n)
    k0 = min(max(math.ceil(x - b0), 0), max(n - 2, 0))
    diag[k0] = seed(a0 + k0, b0 + k0, x, spec)
    if n > 1:
        diag[k0 + 1] = seed(a0 + k0 + 1.0, b0 + k0 + 1.0, x, spec)
        # (D) forward as a recurrence for the ratio d_(k+2) / d_(k+1)
        ratio = math.exp(diag[k0 + 1] - diag[k0])
        for k in range(k0, n - 2):
            ratio = ((a0 + k) / ratio + (b0 + k - x)) / x
            diag[k + 2] = diag[k + 1] + math.log(ratio)
        # (D) backward as a recurrence for the ratio d_k / d_(k+1)
        ratio = math.exp(diag[k0] - diag[k0 + 1])
        for k in range(k0 - 1, -1, -1):
            ratio = (x / ratio + (x - b0 - k)) / (a0 + k)
            diag[k] = diag[k + 1] + math.log(ratio)
    a, b = a0 + rows - 1, b0 + rows - 1
    row = np.empty(cols)
    row[0] = diag[rows - 1]
    if cols > 1:
        row[1] = np.logaddexp(diag[rows - 1], diag[rows])
        # (B) as a recurrence for the ratio I(a, b+j+1) / I(a, b+j)
        ratio = math.exp(row[1] - row[0])
        for j in range(1, cols - 1):
            bj = b + j
            ratio = (bj - 1.0 + x - (bj - a - 1.0) / ratio) / x
            row[j + 1] = row[j] + math.log(ratio)
    yield rows - 1, row
    for i in range(rows - 2, -1, -1):
        below = row
        row = np.empty(cols)
        row[0] = diag[i]
        row[1:] = below[:-1]
        yield i, np.logaddexp.accumulate(row, out=row)
