"""Quadrature primitives and special functions.

All adaptive integration in the package funnels through the helpers here so
that tolerances and domain transformations are applied uniformly:

* ``_quad`` runs QUADPACK: QAGS on a finite interval, QAGI on (0, inf)
  for ``integrate_zero_to_inf``,
* Fourier-type integrals (densities, Gil-Pelaez tails) go through
  ``oscillatory_integral``: Ooura & Mori's double-exponential rule over
  [lower, inf), or ``integrate_zero_to_inf`` at x = 0,
* ``log_hyperint`` by a nested tanh-sinh rule.

The two numpy rules take a float (a float out) or an array of arguments,
and evaluate each level on the nodes of every argument not yet within the
budget, joined in batches of about ``_NODE_BLOCK`` nodes, one numpy call
each; each argument keeps its own stopping test, so each entry is bitwise
what it would be alone.

Every integral runs at one fixed budget: absolute error ``_ABS_TOL`` or
relative ``_REL_TOL``, in ``_MAX_SUBDIVISIONS`` QUADPACK bisections or
``_FOURIER_LEVELS`` or ``_HYPERINT_LEVELS`` levels of the two rules.

scipy is imported inside the functions that call it, here and in the other
modules, so that a command that never integrates does not pay to load it.
"""

from __future__ import annotations

import cmath
import functools
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
_FOURIER_LEVELS = 8  # steps h = 0.2 / 2^k, k < _FOURIER_LEVELS
_HYPERINT_LEVELS = 6  # steps 1/16, then h = 2^-(5 + k), k < _HYPERINT_LEVELS
_NODE_BLOCK = 2 ** 16  # nodes of a batch of arguments held at once by a numpy rule


def _first_sentence(text: str) -> str:
    """The first sentence of one of scipy's QUADPACK messages, on one line."""
    return re.match(r".*?(?:\.(?= [A-Z])|$)", " ".join(text.split())).group(0)


def _quad(f: Callable[[float], float], a: float, b: float) -> float:
    """scipy.integrate.quad at the package's budget: QUADPACK's QAGS on a
    finite [a, b], its QAGI where b is inf; raises on failure."""
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
                f"QUADPACK quadrature failed on [{a}, {b}]: "
                f"{_first_sentence(out[3])}")
    return out[0]


def integrate_zero_to_inf(f: Callable[[float], float]) -> float:
    """Adaptive integral of ``f`` over (0, inf) by QUADPACK's QAGI."""
    return _quad(f, 0.0, math.inf)


@functools.cache  # built on first use: importing the module builds nothing
def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Level ``level`` of a nested tanh-sinh rule for int_0^1 f(u) du
    (Takahasi & Mori 1974): u = (1 + tanh(pi/2 sinh t)) / 2, weight h du/dt
    at t = n h, |t| <= 3.5, h = 2^-(5 + level), for every n at level 0
    (even n, the rule at h = 1/16, first) and odd n past it."""
    h = 2.0 ** -(5 + level)
    n = np.arange(-3.5 / h, 3.5 / h + 1.0)
    t = h * (np.concatenate((n[::2], n[1::2])) if level == 0 else n[1::2])
    v = math.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(-v)), h * 0.5 * math.pi * np.cosh(t) / (1.0 + np.cosh(v))


@functools.cache  # built on first use: importing the module builds nothing
def _fourier_nodes(level: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Level ``level`` of Ooura & Mori's (1999) rule for int_0^inf f(z)
    cos(z) dz and int_0^inf f(z) sin(z) dz: at h = 0.2 / 2^level and
    M = pi / h, nodes M phi(t) at t = (n - 1/2) h (cos), then t = n h (sin),
    weighted by M h phi'(t) times the cos or sin of the node, where
    phi(t) = t / (1 - e^u), u = -2t - a (1 - e^-t) - b (e^t - 1), b = 1/4,
    a = b / sqrt(1 + M log(1 + M) / (4 pi)).  As t falls, phi falls double-
    exponentially to 0; as t grows, so does the trig factor (-1)^n
    sin(M phi(t) - M t).  Returns (nodes, weights, number of cos nodes),
    kept until the weights underflow."""
    h = 0.2 / 2.0 ** level
    big_m, b = math.pi / h, 0.25
    a = b / math.sqrt(1.0 + big_m * math.log1p(big_m) / (4.0 * math.pi))
    n = np.arange(math.floor(-16.0 / h), math.ceil(10.0 / h) + 1.0)
    t = np.concatenate((n - 0.5, n)) * h
    du = -2.0 - a * np.exp(-t) - b * np.exp(t)
    # sign(u) = -sign(t); with e = e^-|u|, d = 1 - e: phi = t / d or -t e / d
    u = np.abs(-2.0 * t + a * np.expm1(-t) - b * np.expm1(t))
    e, d = np.exp(-u), -np.expm1(-u)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 is set below
        phi = np.where(t > 0.0, t / d, -t * e / d)
        dphi = np.where(t > 0.0, (1.0 + t * e * du / d) / d,
                        (t * du / d - 1.0) * e / d)
        shift = np.sin(big_m * t * e / d) * np.tile(1.0 - 2.0 * (n % 2.0), 2)
    c = 2.0 + a + b
    phi[t == 0.0], dphi[t == 0.0] = 1.0 / c, 0.5 + (a - b) / (2.0 * c * c)
    nodes = big_m * phi
    trig = np.concatenate((np.cos(nodes[:n.size]), np.sin(nodes[n.size:])))
    weights = big_m * h * dphi * np.where(t > 0.0, shift, trig)
    kept = weights != 0.0
    return nodes[kept], weights[kept], int(kept[:n.size].sum())


def oscillatory_integral(g: Callable, x, lower: float):
    """int_lower^inf Re(e^{-ixz} g(z)) dz on a float x (a float out) or on
    an array of them (an array of x's shape out): at x = 0 by
    ``integrate_zero_to_inf``, on floats; else by ``_fourier_nodes`` on
    e^{-ix lower} g(lower + z), z scaled by 1/|x|, on the nodes whose
    weight over |x| is at least 1e-4 _ABS_TOL (bounding the share of the
    rest where |g| <= 1, as for a cf and for cf(z)/z on z >= 1), until two
    levels agree within the budget.  Each x keeps its own nodes and its
    own stopping test; a level calls ``g`` on the joined nodes of the x
    still open, in grid order, once per run of them that reaches
    ``_NODE_BLOCK`` nodes and once on the rest, so an entry is what it
    would be alone.  Where some x fail (a non-finite x among them), raises
    the error of the first in grid order."""
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel().tolist()
    out, errors, last = np.empty(len(flat)), {}, {}

    def failed(i: int) -> str:
        return f"Fourier quadrature failed on [{lower}, inf) at x={flat[i]}"

    def settle(batch: list, previous: dict) -> dict:
        """One call of g on the nodes of a batch of x; returns the x that
        stay open, with their value and gap at this level."""
        values, start, still = g(np.concatenate([z for *_, z in batch])), 0, {}
        for i, split, w, z in batch:
            # Re(e^{-ixz} (c + is)) = c cos(|x| z) + sign(x) s sin(|x| z)
            x = flat[i]
            v = cmath.exp(-1j * x * lower) * values[start:start + len(z)]
            start += len(z)
            total = float(w[:split] @ v.real[:split] + math.copysign(1.0, x) * (
                w[split:] @ v.imag[split:])) / abs(x)
            if (gap := abs(total - previous[i][0])) <= max(
                    _ABS_TOL, _REL_TOL * abs(total)):
                out[i] = total
            else:
                still[i] = (total, gap)
        return still

    for i, v in enumerate(flat):
        if not math.isfinite(v):
            errors[i] = DomainError(f"require a finite x, got x={v}")
        elif v == 0.0:
            try:
                out[i] = integrate_zero_to_inf(lambda t: g(lower + t).real)
            except NonConvergenceError as exc:
                errors[i] = exc
        else:
            last[i] = (math.nan, math.nan)  # its value and gap a level before
    for level in range(_FOURIER_LEVELS):
        nodes, weights, n_cos = _fourier_nodes(level)
        size, previous, last, batch, held = np.abs(weights), last, {}, [], 0
        for i in previous:
            keep = size >= 1e-4 * _ABS_TOL * abs(flat[i])
            if keep[0] or keep[n_cos]:  # the skipped nodes must include z -> 0
                errors[i] = NonConvergenceError(
                    f"{failed(i)}: |x| is below its reach")
                continue
            z = lower + nodes[keep] / abs(flat[i])
            batch.append((i, np.count_nonzero(keep[:n_cos]), weights[keep], z))
            if (held := held + len(z)) >= _NODE_BLOCK:
                last.update(settle(batch, previous))
                batch, held = [], 0
        if batch:
            last.update(settle(batch, previous))
        if not last:
            break
    for i, (_, gap) in last.items():
        errors[i] = NonConvergenceError(
            f"{failed(i)}: {_FOURIER_LEVELS} levels, the last two {gap:.3g} apart")
    if errors:
        raise errors[min(errors)]
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


def fourier_density(cf: Callable, x):
    """Density h(x) = (1/pi) int_0^inf Re(e^{-ixz} cf(z)) dz of a cf, on a
    float x or an array of them, per ``oscillatory_integral``."""
    return oscillatory_integral(cf, x, 0.0) / math.pi


def log_hyperint(a, b, x):
    """log of I(a,b,x) = int_0^inf e^{-xt} t^{a-1} (1+t)^{b-a-1} dt, on
    floats (one float out) or on arrays that broadcast.

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
    peak and every feature out to the reach a fair share of the nodes of
    ``_tanh_sinh_nodes``, on one array per level for every argument not
    yet within the budget, in batches of about ``_NODE_BLOCK`` nodes:
    each value is what it would be alone.  Past either reach the
    integrand is below e^-50, except that past the left one it may be
    e^(A + a d) to within e^-40 instead: that tail, about 1/a long, is
    added in closed form.
    """
    args, table, ends = np.broadcast(a, b, x), [], []
    flat = [(float(a), float(b), float(x)) for a, b, x in args]
    for a, b, x in flat:
        if not (0.0 < a < math.inf and math.isfinite(b) and 0.0 < x < math.inf):
            raise DomainError(f"require finite a, x > 0 and b, got {a, b, x}")
        c = b - a - 1.0
        # t0 = a / (beta + root) = (root - beta) / x, root^2 = beta^2 + a x,
        # each in the form that neither cancels nor overflows, taken as a log
        beta = 0.5 * (x - b + 1.0)
        root = math.hypot(beta, math.sqrt(a) * math.sqrt(x))
        s0 = (math.log(a) - math.log(beta + root) if beta >= 0.0
              else math.log(root - beta) - math.log(x))
        log1p_t0 = max(s0, 0.0) + math.log1p(math.exp(-abs(s0)))
        tau, tau_c = math.exp(s0 - log1p_t0), math.exp(-log1p_t0)  # t0/(1+t0)
        log_xt0 = s0 + math.log(x)
        xt0 = math.exp(log_xt0)
        # -h''(s0) = a + c tau^2 = x t0 - c tau (1 - tau), a sum of positives
        w = 2.0 / math.sqrt(a + c * tau * tau if c >= 0.0
                            else xt0 - c * tau * tau_c)
        # Below d = -left, h(s0 + d) - h(s0) is A + a d to within e^-40, A =
        # x t0 - c log(1 + t0), or below -50, as it is at most x t0 + a d +
        # max(-c, 0) log(1 + t0) for d < 0.  Past d = right, x t0 e^d
        # exceeds 2 (a + max(c, 0)) + 1 by e^5 and it is below -70.
        left = min(max(s0 + math.log(x + abs(c)) + 40.0, 0.0),
                   (xt0 + max(-c, 0.0) * log1p_t0 + 50.0) / a)
        right = math.log(2.0 * (a + max(c, 0.0)) + 1.0) - log_xt0 + 5.0
        sl, sr = math.log1p(left / w), math.log1p(right / w)
        peak = (a, c, xt0, log_xt0, tau, s0, -log1p_t0)
        table.append([(sl, -w, w * sl, *peak), (sr, w, w * sr, *peak)])
        ends.append((a * s0 - xt0 + c * log1p_t0,
                     xt0 - c * log1p_t0 - a * left - math.log(a)))
    table, ends = np.array(table), np.array(ends)
    todo, body, total = np.arange(len(table)), np.empty(len(table)), 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for level in range(_HYPERINT_LEVELS):
            u, weights = _tanh_sinh_nodes(level)
            sums, coarse, step = [], [], max(1, _NODE_BLOCK // (2 * u.size))
            for start in range(0, len(table), step):
                # sides (left, right) on axis 1, nodes on axis 2: at d = -+w
                # expm1(span u), h(s0 + d) - h(s0) = a d + c log(1 - tau +
                # tau e^d) - x t0 (e^d - 1) in terms that neither overflow
                # nor lose a small d, plus span u for the Jacobian
                (span, scale, jac, a, c, xt0, log_xt0, tau, s0, log_tau_c) = \
                    np.moveaxis(table[start:start + step, :, :, None], 2, 0)
                stretch = span * u
                d = scale * np.expm1(stretch)
                e = np.expm1(d)
                grow = np.where(d < 1.0, xt0 * e, np.exp(log_xt0 + d) - xt0)
                z = s0 + d   # log(tau e^d) - log(1 - tau)
                mix = np.where(np.abs(d) < 1.0, np.log1p(tau * e), log_tau_c
                               + np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
                part = np.exp(a * d + c * mix - grow + stretch) * (jac * weights)
                sums.append(part.sum((1, 2)))
                if level == 0:  # its even n alone are the rule one level coarser
                    coarse.append(2.0 * part[..., :u.size // 2 + 1].sum((1, 2)))
            total = np.concatenate(sums) + 0.5 * total
            if level == 0:
                last = np.concatenate(coarse)
            gap = np.abs(total - last)
            done = gap <= np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
            body[todo[done]] = total[done]
            if done.all():
                break
            todo, table, total, last, gap = (
                v[~done] for v in (todo, table, total, total, gap))
        else:
            raise NonConvergenceError(
                f"log_hyperint failed at (a, b, x) = {flat[todo[0]]}: "
                f"{_HYPERINT_LEVELS + 1} levels, the last two {gap[0]:.3g} apart")
    # the tail is added as a log: 1/a long, it overflows for a subnormal a
    out = ends[:, 0] + np.logaddexp(np.log(body), ends[:, 1])
    return out.reshape(args.shape) if args.shape else float(out[0])
