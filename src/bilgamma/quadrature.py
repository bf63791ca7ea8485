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


def log_hyperint(a: float, b: float, x: float,
                 spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """log of I(a,b,x) = int_0^inf e^{-xt} t^{a-1} (1+t)^{b-a-1} dt.

    This is Gamma(a) times the second-kind confluent hypergeometric
    function U(a, b, x) (DLMF 13.4.4); working in log space keeps
    large-shape evaluations (a or b of the order of hundreds) inside
    float range.  The substitution t = e^s gives int exp(h(s)) ds with

        h(s) = -x e^s + a s + c log(1 + e^s),   c = b - a - 1,

    which has no endpoint singularity and one maximum, at s0 = log t0 for
    t0 the positive root of x t^2 + (x - b + 1) t = a.  The integrand is
    h(s0 + d) - h(s0) written in d alone, so no two values of h cancel.
    The peak is about w = 2 / sqrt(-h''(s0)) wide.  Each side of it is
    one rule over a finite reach in log(1 + |d| / w), which gives the
    peak and every feature out to the reach a fair share of the nodes.
    Past either reach the integrand is below e^-50, except that past the
    left one it may instead be e^(A + a d) to within e^-40: that tail,
    about 1/a long, is added in closed form.
    """
    if not (a > 0.0 and x > 0.0):
        raise DomainError(f"require a > 0 and x > 0, got a={a}, x={x}")
    c = b - a - 1.0
    # t0 = a / (beta + root) = (root - beta) / x, root^2 = beta^2 + a x,
    # each in the form that neither cancels nor overflows, taken as a log
    beta = 0.5 * (x - b + 1.0)
    root = math.hypot(beta, math.sqrt(a) * math.sqrt(x))
    s0 = (math.log(a) - math.log(beta + root) if beta >= 0.0
          else math.log(root - beta) - math.log(x))
    log1p_t0 = max(s0, 0.0) + math.log1p(math.exp(-abs(s0)))
    # tau = t0 / (1 + t0) and the logs of tau and of 1 - tau
    log_tau, log_tau_c = s0 - log1p_t0, -log1p_t0
    tau = math.exp(log_tau)
    log_xt0 = s0 + math.log(x)
    xt0 = math.exp(log_xt0)
    # -h''(s0) = a + c tau^2 = x t0 - c tau (1 - tau), a sum of positives
    w = 2.0 / math.sqrt(a + c * tau * tau if c >= 0.0
                        else xt0 - c * tau * math.exp(log_tau_c))
    # Below d = -left, h(s0 + d) - h(s0) is A + a d to within e^-40, with
    # A = x t0 - c log(1 + t0), or it is below -50, as it is at most
    # x t0 + a d + max(-c, 0) log(1 + t0) for d < 0.  Past d = right,
    # x t0 e^d exceeds 2 (a + max(c, 0)) + 1 by e^5 and it is below -70.
    left = min(max(s0 + math.log(x + abs(c)) + 40.0, 0.0),
               (xt0 + max(-c, 0.0) * log1p_t0 + 50.0) / a)
    right = math.log(2.0 * (a + max(c, 0.0)) + 1.0) - log_xt0 + 5.0

    # local names: a kernel evaluates the integrand about 170 times
    expm1, exp, log1p = math.expm1, math.exp, math.log1p

    def side(reach: float) -> float:
        # int of exp(h(s0 + d) - h(s0)) from 0 to reach by
        # d = +-w (e^(span u) - 1), with h(s0 + d) - h(s0) =
        # a d + c log(1 - tau + tau e^d) - x t0 (e^d - 1), each term in a
        # form that neither overflows nor loses a small d
        span = math.log1p(abs(reach) / w)
        scale = math.copysign(w, reach)

        def piece(u: float) -> float:
            stretch = expm1(span * u)
            d = scale * stretch
            if d < 1.0:
                e = expm1(d)
                grow = xt0 * e
            else:
                grow = -exp(log_xt0 + d) * expm1(-d)
            if -1.0 < d < 1.0:
                mix = log1p(tau * e)
            else:
                hi, lo = max(log_tau_c, log_tau + d), min(log_tau_c, log_tau + d)
                mix = hi + log1p(exp(lo - hi))
            return exp(a * d + c * mix - grow) * (1.0 + stretch)

        return w * span * _quad(piece, 0.0, 1.0, spec)

    # the rules' part and the closed-form tail, added as logs because the
    # tail, 1/a long, overflows for a subnormal a
    body = math.log(side(-left) + side(right))
    tail = xt0 - c * log1p_t0 - a * left - math.log(a)
    return (-xt0 + a * s0 + c * log1p_t0 + max(body, tail)
            + math.log1p(math.exp(-abs(body - tail))))


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
