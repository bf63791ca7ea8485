"""Stein operator, Kolmogorov distance, and approximation-bound evaluators.

The combination's law is characterised by E[A f(T)] = 0 over smooth f,
with the operator

    A f(x) = -x f(x) + int f(x+u) u nu(du)
           = -x f(x) + int_0^inf f(x+u) sum_j p_j e^(-lam_j u) du
                     - int_0^inf f(x-u) sum_j q_j e^(-mu_j u) du

(the 1/u of the Levy density cancels against the u weight).  A test
function that carries its exponential-kernel transform

    K_f(x, lam) = int_0^inf f(x+u) e^(-lam u) du

and a parity (f(-y) = parity f(y)) is applied in closed form,

    A f(x) = -x f(x) + sum_j p_j K_f(x, lam_j) - parity sum_j q_j K_f(-x, mu_j),

at O(n) cost per point; every ``TestFunction`` carries both.  The bound
evaluators below are deterministic functions of model parameters (a
variance-gamma target is the bilateral-gamma target with q = p).  The
two-sums and compound-Poisson results only assert that their universal
constants exist; those constants are set to 1.0, a reporting convention
rather than an estimate, so the values are bound shapes and the CLI report
says so ("constants_default").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .combo import LinearCombinationModel
from .errors import (
    DomainError,
    EmptySampleError,
    KappaUndefinedError,
    ModelMismatchError,
)
from .sampling import _check_count, _direct_mean, sample_direct

__all__ = [
    "KappaInputs",
    "TestFunction",
    "SIN_W3",
    "GAUSSIAN_W2",
    "X_GAUSSIAN_W1",
    "STEIN_TEST_FUNCTIONS",
    "stein_apply_batch",
    "stein_identity_check",
    "empirical_kolmogorov",
    "kappa_inputs",
    "bound_two_sums",
    "bound_compound_poisson_k",
    "bound_d3_bg",
    "bound_d3_normal",
    "d3_bg_terms",
    "d3_normal_terms",
]


@dataclass(frozen=True)
class KappaInputs:
    """g = prod alpha_j beta_j, h = g * sum (w1 w2 + |w1 beta - w2 alpha|)
    / (alpha beta), and the amplification factor kappa = g / (g - h).

    g and h are carried as logs: g overflows a double for many components
    (128 components with alpha beta = 1600 give g ~ 1e410), while kappa
    needs only the ratio h/g."""

    log_g_n: float
    log_h_n: float
    kappa_n: float


@dataclass(frozen=True)
class TestFunction:
    """A test function f with its exponential-kernel transform
    ``kernel(x, lam)`` = int_0^inf f(x+u) e^(-lam u) du and its ``parity``
    (+1 or -1, f(-y) = parity f(y)): all the Stein operator needs."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str
    kernel: Callable[[np.ndarray, float], np.ndarray]
    parity: int

    def __post_init__(self):
        if self.parity not in (1, -1):
            raise DomainError("a test function needs parity +1 or -1")

    def __call__(self, x):
        return self.evaluator(x)


_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def _sin_kernel(x, lam):
    return (lam * np.sin(x) + np.cos(x)) / (lam * lam + 1.0)


def _gauss_kernel(x, lam):
    """sqrt(pi/2) e^(-x^2/2) erfcx((x+lam)/sqrt 2).  Where x + lam < 0 the
    reflection erfcx(-z) = 2 e^(z^2) - erfcx(z) turns it into
    sqrt(pi/2) (2 e^(lam x + lam^2/2) - e^(-x^2/2) erfcx(|x+lam|/sqrt 2)),
    so neither branch overflows or forms inf * 0."""
    from scipy import special as sp

    s = x + lam
    tail = np.exp(-0.5 * x * x) * sp.erfcx(np.abs(s) * math.sqrt(0.5))
    # lam x + lam^2/2 < 0 wherever s < 0; the clip only spares the other branch
    body = 2.0 * np.exp(np.minimum(lam * x + 0.5 * lam * lam, 0.0))
    return _SQRT_HALF_PI * np.where(s < 0.0, body - tail, tail)


def _x_gauss_kernel(x, lam):
    # by parts: int_0^inf (x+u) e^(-(x+u)^2/2) e^(-lam u) du
    return np.exp(-0.5 * np.square(x)) - lam * _gauss_kernel(x, lam)


# sin and all its derivatives are bounded by 1 (order 3 certified, and any
# higher order too); e^(-x^2/2) has |h|, |h'|, |h''| <= 1 but |h'''| peaks
# near 1.38; x e^(-x^2/2) has |h|, |h'| <= 1 but |h''| peaks near 1.38.
SIN_W3 = TestFunction(np.sin, "sin", _sin_kernel, -1)
GAUSSIAN_W2 = TestFunction(lambda x: np.exp(-0.5 * np.square(x)), "gauss",
                           _gauss_kernel, 1)
X_GAUSSIAN_W1 = TestFunction(lambda x: x * np.exp(-0.5 * np.square(x)),
                             "x*gauss", _x_gauss_kernel, -1)
STEIN_TEST_FUNCTIONS = (SIN_W3, X_GAUSSIAN_W1, GAUSSIAN_W2)


def _require_test_function(f) -> None:
    if not isinstance(f, TestFunction):
        raise DomainError("the Stein operator needs a TestFunction (with "
                          f"its kernel and parity), got {type(f).__name__}")


def stein_apply_batch(model: LinearCombinationModel, f: TestFunction,
                      xs: np.ndarray) -> np.ndarray:
    """Vectorised A f over many points, from the ``TestFunction``'s kernel
    K and parity: -x f(x) + sum_j p_j K(x, lam_j) - parity sum_j q_j
    K(-x, mu_j), at O(n) cost per point.  Any other f is a DomainError."""
    _require_test_function(f)
    xs = np.asarray(xs, dtype=float)
    out = -xs * f(xs)
    for j in range(model.n):
        out += model.p[j] * f.kernel(xs, model.lam[j])
    for j in range(model.n):
        out -= (f.parity * model.q[j]) * f.kernel(-xs, model.mu[j])
    return out


def stein_identity_check(model: LinearCombinationModel, f: TestFunction,
                         n_samples: int, rng) -> tuple[float, float]:
    """Monte Carlo estimate of E[A f(T)] with its standard error.

    A f is applied to 2^16 draws at a time, so memory is O(2^16) at any
    n_samples.  Up to 2^16 draws the result is bit-identical to the mean
    and ``std(ddof=1) / sqrt(n)`` of one array of A f; above that a seed
    gives other, equally distributed, draws.  The characterisation holds
    iff the estimate is statistically zero (|estimate| within ~4 standard
    errors at large n).
    """
    _check_count(n_samples, 10_000, "the identity check")
    _require_test_function(f)
    return _direct_mean(sample_direct, model, n_samples, rng,
                        lambda xs: stein_apply_batch(model, f, xs))


def empirical_kolmogorov(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov distance: exact sup of |F_a - F_b| over the
    pooled order statistics."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySampleError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(fa - fb).max())


def kappa_inputs(model: LinearCombinationModel) -> KappaInputs:
    """Amplification-factor ingredients; defined only while g > h."""
    log_g = float(np.sum(np.log(model.alpha * model.beta)))
    ratio = float(np.sum(
        (model.w1 * model.w2 + np.abs(model.w1 * model.beta - model.w2 * model.alpha))
        / (model.alpha * model.beta)))
    log_h = log_g + math.log(ratio)
    if not ratio < 1.0:
        raise KappaUndefinedError(log_g, log_h)
    return KappaInputs(log_g_n=log_g, log_h_n=log_h, kappa_n=1.0 / (1.0 - ratio))


def bound_two_sums(model_w: LinearCombinationModel,
                   model_pi: LinearCombinationModel) -> float:
    """Wasserstein bound between two combinations sharing all shape/rate
    parameters and differing only in weights:

        c1 sum_j p_j/sqrt(2 alpha_j) |w1_j - pi1_j| / sqrt(w1_j + pi1_j)
      + c2 sum_j q_j/sqrt(2 beta_j)  |w2_j - pi2_j| / sqrt(w2_j + pi2_j)

    with c1 = c2 = 1.
    """
    same = (np.array_equal(model_w.alpha, model_pi.alpha)
            and np.array_equal(model_w.p, model_pi.p)
            and np.array_equal(model_w.beta, model_pi.beta)
            and np.array_equal(model_w.q, model_pi.q))
    if not same:
        raise ModelMismatchError(
            "two-sums bound requires identical (alpha, p, beta, q) across "
            "components; only the weights may differ")
    pos = np.sum(model_w.p / np.sqrt(2.0 * model_w.alpha)
                 * np.abs(model_w.w1 - model_pi.w1)
                 / np.sqrt(model_w.w1 + model_pi.w1))
    neg = np.sum(model_w.q / np.sqrt(2.0 * model_w.beta)
                 * np.abs(model_w.w2 - model_pi.w2)
                 / np.sqrt(model_w.w2 + model_pi.w2))
    return float(pos + neg)


def bound_compound_poisson_k(model: LinearCombinationModel, m: int) -> float:
    """Kolmogorov bound c (|C1| + |C2|)^(2/5) m^(-1/5), c = 1, for the
    order-m compound-Poisson approximation."""
    if m < 1:
        raise DomainError("compound-Poisson order m must be >= 1")
    c1c2 = abs(model.cumulant(1)) + abs(model.cumulant(2))
    return c1c2 ** 0.4 * m ** -0.2


def _d3_common_terms(model, kappa, target_inv_ab, target_mean_diff_rate,
                     target_shape_term, target_mean):
    w12 = model.w1 * model.w2
    ab = model.alpha * model.beta
    mean_t = model.cumulant(1)
    t1 = ((2.0 + abs(mean_t) / 3.0) * kappa
          * abs(float(np.sum(w12 / ab)) - target_inv_ab))
    t2 = ((2.0 + abs(mean_t) / 2.0) * kappa
          * abs(float(np.sum(model.w1 / model.alpha - model.w2 / model.beta))
                - target_mean_diff_rate))
    t3 = 0.5 * kappa * abs(
        float(np.sum(w12 * (model.p + model.q) / ab)) - target_shape_term)
    t4 = kappa * abs(mean_t - target_mean)
    return {"second_derivative": t1, "first_derivative": t2,
            "shape": t3, "mean": t4}


def d3_bg_terms(model: LinearCombinationModel,
                target: LinearCombinationModel) -> dict:
    """Constituent terms of the order-3 smooth-Wasserstein bound against a
    bilateral-gamma target, a one-component model: the law
    BG(lam, p, mu, q) with its effective rates lam = alpha/w1, mu = beta/w2."""
    if target.n != 1:
        raise DomainError(
            f"bilateral-gamma target needs one component, got {target.n}")
    kappa = kappa_inputs(model).kappa_n
    a, b = float(target.lam[0]), float(target.mu[0])
    ab = a * b
    return _d3_common_terms(
        model, kappa,
        target_inv_ab=1.0 / ab,
        target_mean_diff_rate=1.0 / a - 1.0 / b,
        target_shape_term=float(target.p[0] + target.q[0]) / ab,
        target_mean=target.mean)


def bound_d3_bg(model: LinearCombinationModel,
                target: LinearCombinationModel) -> float:
    """Order-3 smooth-Wasserstein bound

        d3(T, Z) <= (2 + |E T|/3) kappa |sum w1 w2/(a_j b_j) - 1/(a b)|
                  + (2 + |E T|/2) kappa |sum (w1/a_j - w2/b_j) - (1/a - 1/b)|
                  + (1/2) kappa |sum w1 w2 (p_j+q_j)/(a_j b_j) - (p+q)/(a b)|
                  + kappa |E T - E Z|

    for Z ~ BG(a, p, b, q), the one-component ``target`` (a, b its
    effective rates); exact constants, no configuration."""
    return float(sum(d3_bg_terms(model, target).values()))


def d3_normal_terms(model: LinearCombinationModel, sigma: float) -> dict:
    """Terms of the normal-target bound (the large-shape limit of the
    bilateral-gamma bound): the rate-difference target vanishes and the
    shape term compares against sigma^2."""
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")
    kappa = kappa_inputs(model).kappa_n
    return _d3_common_terms(
        model, kappa,
        target_inv_ab=0.0,
        target_mean_diff_rate=0.0,
        target_shape_term=sigma * sigma,
        target_mean=0.0)


def bound_d3_normal(model: LinearCombinationModel, sigma: float) -> float:
    """Order-3 smooth-Wasserstein bound against N(0, sigma^2)."""
    return float(sum(d3_normal_terms(model, sigma).values()))
