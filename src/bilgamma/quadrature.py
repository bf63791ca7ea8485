"""Quadrature primitives and special functions.

All adaptive integration in the package funnels through the helpers here so
that tolerances and domain transformations are applied uniformly:

* ``integrate_zero_to_inf`` compactifies (0, inf) with ``t = u / (1 - u)``,
* Fourier-type integrals (densities, Gil-Pelaez tails) go through
  ``oscillatory_integral`` and QUADPACK's dedicated oscillatory rule
  over [lower, inf), or the compactified rule at x = 0.

Every integral runs at one fixed budget: QUADPACK's epsabs ``_ABS_TOL``,
epsrel ``_REL_TOL`` and at most ``_MAX_SUBDIVISIONS`` bisections.

scipy is imported inside the functions that call it, here and in the other
modules, so that a command that never integrates does not pay to load it.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "integrate_zero_to_inf",
    "oscillatory_integral",
    "fourier_density",
    "log_hyperint",
]


# The one quadrature budget.  _quad and oscillatory_integral read these at
# call time, not as default arguments.
_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000


def _first_sentence(text: str) -> str:
    """The first sentence of one of scipy's QUADPACK messages, on one line."""
    return re.match(r".*?(?:\.(?= [A-Z])|$)", " ".join(text.split())).group(0)


def _quad(f: Callable[[float], float], a: float, b: float) -> float:
    """scipy.integrate.quad at the package's budget; raises on failure."""
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=_ABS_TOL, epsrel=_REL_TOL,
               limit=_MAX_SUBDIVISIONS, full_output=1)
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if the error estimate still
        # meets the requested budget (roundoff-noise flags are common when
        # the integral is effectively converged).
        val, err = out[0], out[1]
        if err > max(_ABS_TOL, _REL_TOL * abs(val)) * 10.0:
            raise NonConvergenceError(
                f"QAGS quadrature failed on [{a}, {b}]: "
                f"{_first_sentence(out[3])}")
    return out[0]


def integrate_zero_to_inf(f: Callable[[float], float]) -> float:
    """Adaptive integral of ``f`` over (0, inf), via ``t = u / (1 - u)``."""
    def mapped(u: float) -> float:
        t = u / (1.0 - u)
        return f(t) / (1.0 - u) ** 2

    return _quad(mapped, 0.0, 1.0)


def oscillatory_integral(g: Callable[[float], complex], x: float,
                         lower: float) -> float:
    """int_lower^inf Re(e^{-ixz} g(z)) dz: its cos and sin parts by QUADPACK's
    Fourier rule, or the plain compactified rule when x = 0.  The two parts
    run the same rule over the same nodes, so ``g`` is evaluated once per
    distinct node and its value shared.  A non-finite ``x`` is rejected:
    QUADPACK's Fourier rule does not return from it."""
    from scipy.integrate import quad

    if not math.isfinite(x):
        raise DomainError(f"require a finite x, got x={x}")
    if x == 0.0:
        # scipy 1.17's QAWF at wvar = 0 integrates from 0 whatever `lower`:
        # PRICING_GAMMA's Gil-Pelaez part on [1, inf) gave pi/2, not 1.0117
        return integrate_zero_to_inf(lambda t: g(lower + t).real)

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
                   epsabs=_ABS_TOL, limlst=150,
                   limit=_MAX_SUBDIVISIONS, full_output=1)
        if len(out) > 3 and out[1] > _ABS_TOL * 100.0:
            # QAWF's reason is its first failing cycle's, if one failed
            bad = np.flatnonzero(out[2]["ierlst"][:out[2]["lst"]])
            reason = (f"cycle {bad[0] + 1}: {out[4][out[2]['ierlst'][bad[0]]]}"
                      if bad.size else out[3])
            raise NonConvergenceError(
                f"oscillatory quadrature (QAWF, {weight} part) failed on "
                f"[{lower}, inf) at x={x}: {_first_sentence(reason)}")
        total += out[0]
    return total


def fourier_density(cf: Callable[[float], complex], x: float) -> float:
    """Density h(x) = (1/pi) int_0^inf Re(e^{-ixz} cf(z)) dz of a cf."""
    return oscillatory_integral(cf, x, 0.0) / math.pi


def log_hyperint(a: float, b: float, x: float) -> float:
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

        return w * span * _quad(piece, 0.0, 1.0)

    # the rules' part and the closed-form tail, added as logs because the
    # tail, 1/a long, overflows for a subnormal a
    body = math.log(side(-left) + side(right))
    tail = xt0 - c * log1p_t0 - a * left - math.log(a)
    return (-xt0 + a * s0 + c * log1p_t0 + max(body, tail)
            + math.log1p(math.exp(-abs(body - tail))))

