"""Quadrature primitives and special functions.

All adaptive integration in the package funnels through the helpers here so
that tolerances and domain transformations are applied uniformly:

* infinite upper limits are compactified with ``t = u / (1 - u)``,
* Fourier-type integrals (densities, Gil-Pelaez tails) go through
  ``oscillatory_integral`` and QUADPACK's dedicated oscillatory rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NonConvergenceError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUAD",
    "integrate_zero_to_inf",
    "oscillatory_integral",
    "fourier_density",
    "log_hyperint",
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
    Fourier rule, or the plain compactified rule when x = 0."""
    if x == 0.0:
        return integrate_zero_to_inf(lambda t: g(lower + t).real, spec)

    total = 0.0
    for part, weight in ((lambda z: g(z).real, "cos"),
                         (lambda z: g(z).imag, "sin")):
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
    integral; working in log space keeps large-shape evaluations (a or b
    of the order of hundreds) inside float range.  The domain is split at
    t = 1; on [0, 1] the substitution t = s^(1/a) removes the t^(a-1)
    endpoint singularity when a < 1, and [1, inf) is compactified as usual.
    Each piece is integrated relative to the peak of its exponent and the
    two are combined in log space.
    """
    if not (a > 0.0 and x > 0.0):
        raise DomainError(f"require a > 0 and x > 0, got a={a}, x={x}")
    c = b - a - 1.0

    def g(t: float) -> float:
        return -x * t + (a - 1.0) * math.log(t) + c * math.log1p(t)

    # the larger root of the quadratic g'(t) t (1 + t) = 0: the interior
    # maximum of g for a > 1, a local maximum (if real) for a <= 1
    bq = x - (a - 1.0) - c
    disc = bq * bq + 4.0 * x * (a - 1.0)
    t_star = (-bq + math.sqrt(max(disc, 0.0))) / (2.0 * x)
    if a > 1.0:
        # one shift, the peak of g, scales both pieces
        shift01 = shift1 = g(t_star) if t_star > 0.0 else 0.0
    else:
        # each piece is scaled by the peak of its own exponent: on [0, 1]
        # -x t + c log1p(t) (t^(a-1) is integrated away or is 1), which
        # peaks at c/x - 1 clipped to [0, 1]; on [1, inf) g, which falls
        # except between its local minimum and t_star
        t01 = min(max(c / x - 1.0, 0.0), 1.0)
        shift01 = -x * t01 + c * math.log1p(t01)
        shift1 = max(g(1.0), g(max(t_star, 1.0)))

    if a < 1.0:
        inv_a = 1.0 / a

        def piece01(s: float) -> float:
            t = s ** inv_a
            return inv_a * math.exp(-x * t + c * math.log1p(t) - shift01)
    else:

        def piece01(t: float) -> float:
            return math.exp(g(t) - shift01) if t > 0.0 else (
                math.exp(-shift01) if a == 1.0 else 0.0)

    def piece1inf(u: float) -> float:
        t = u / (1.0 - u)
        return math.exp(g(t) - shift1) / (1.0 - u) ** 2

    i1 = _quad(piece01, 0.0, 1.0, spec)
    i2 = _quad(piece1inf, 0.5, 1.0, spec)
    shift = max(shift01, shift1)
    total = i1 * math.exp(shift01 - shift) + i2 * math.exp(shift1 - shift)
    if total <= 0.0:
        raise NonConvergenceError(
            f"hypergeometric integral underflowed for a={a}, b={b}, x={x}")
    return shift + math.log(total)
