"""Exponential stock model driven by the combination's Levy process.

S_t = S0 exp(X_t) with bank account e^(rt) and dividend rate v; the
discounted price e^(-(r-v)t) S_t is a martingale iff E[e^(X_1)] equals
e^(r-v).  European call prices follow from the time-t' = T - t law of the
process, whose shapes are the model's shapes scaled by t'; the gamma-only
series sums the shape-mixing pmf of that law's positive side.  At K = s it
is the at-the-money closed form, and at K <= s the forward value
e^(-rT) (s E[e^G] - K), since G >= 0 puts every payoff in the money.

The pricing integral int_L^inf (s e^x - K) h(x) dx (L = ln(K/s)) is
evaluated through the exponential tilt: s e^x h(x) = s M(1) h~(x) where h~
is the density of the combination with rates lam_j - 1 and mu_j + 1, so

    price = e^(-rT) [ s M(1) P~(X > L) - K P(X > L) ],

two tail probabilities, each one Gil-Pelaez integral of the closed-form cf
of the tilted or the plain law (see _tail_probability).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass

import numpy as np

from .combo import GammaMixture, LinearCombinationModel, _check_count, _completed_series
from .errors import DomainError, NonFiniteResultError, SeriesDivergenceError
from .quadrature import _quad, oscillatory_integral
from .sampling import _direct_mean, sample_direct

__all__ = [
    "PricingInputs",
    "martingale_gap",
    "negative_part_bound",
    "gamma_route_growth",
    "price_call_integral",
    "price_call_gamma_series",
    "price_call_atm",
    "price_call_monte_carlo",
]


@dataclass(frozen=True)
class PricingInputs:
    """European-call inputs (S0, K, r, v, t, T) plus the conditioning spot.

    Requires finite inputs with r >= v >= 0 and T > t; ``spot_at_t``
    defaults to S0, and must equal it, when pricing from t = 0.
    """

    s0: float
    strike: float
    rate: float
    maturity: float
    dividend: float = 0.0
    t_now: float = 0.0
    spot_at_t: float | None = None

    def __post_init__(self):
        if self.s0 <= 0.0 or self.strike <= 0.0:
            raise DomainError("spot and strike must be positive")
        if not (self.rate >= self.dividend >= 0.0):
            raise DomainError("require rate >= dividend >= 0")
        if self.t_now < 0.0 or not self.maturity > self.t_now:
            raise DomainError("require 0 <= t_now < maturity")
        if self.spot_at_t is None:
            if self.t_now > 0.0:
                raise DomainError("spot_at_t is required when t_now > 0")
            object.__setattr__(self, "spot_at_t", self.s0)
        elif self.spot_at_t <= 0.0:
            raise DomainError("spot_at_t must be positive")
        if not all(map(math.isfinite, astuple(self))):
            raise DomainError(f"pricing inputs must be finite, got {self}")
        if self.t_now == 0.0 and self.spot_at_t != self.s0:
            raise DomainError(f"at t_now = 0 the spot is s0, got {self}")

    @property
    def t_remaining(self) -> float:
        return self.maturity - self.t_now

    @property
    def log_moneyness(self) -> float:
        return math.log(self.strike / self.spot_at_t)


def martingale_gap(model: LinearCombinationModel, rate: float,
                   dividend: float) -> float:
    """E[e^(X_1)] - e^(rate - dividend); zero iff the measure is a
    martingale measure for the discounted stock; raises OutOfStripError
    unless every alpha_j/w1_j > 1."""
    return model.mgf(1.0) - math.exp(rate - dividend)


def _tail_probability(cf, level: float) -> float:
    """P(X > level) = 1/2 + (1/pi) int_0^inf Im(e^(-iz level) cf(z)) / z dz
    (Gil-Pelaez), on [0, 1] by the adaptive rule, whose nodes are interior
    (never z = 0), and on [1, inf) by the Fourier rule of
    ``oscillatory_integral``, which reads the cf on arrays of nodes."""
    def head(z: float) -> float:
        return (cmath.exp(-1j * z * level) * cf(z)).imag / z

    near = _quad(head, 0.0, 1.0)
    far = oscillatory_integral(lambda z: -1j * cf(z) / z, level, 1.0)
    return 0.5 + (near + far) / math.pi


def price_call_integral(model: LinearCombinationModel,
                        inputs: PricingInputs) -> float:
    """Call price e^(-rT) int_L^inf (s e^x - K) h(x) dx against the time-t'
    law, as two Gil-Pelaez tails in tilted form (see module docstring)."""
    t_prime = inputs.t_remaining
    scaled = model.scaled(t_prime)
    m1 = scaled.mgf(1.0)
    tilted = LinearCombinationModel(
        alpha=(model.lam - 1.0) * model.w1, p=scaled.p,
        beta=(model.mu + 1.0) * model.w2, q=scaled.q,
        w1=model.w1, w2=model.w2)
    s = inputs.spot_at_t
    level = inputs.log_moneyness
    p_plain = _tail_probability(scaled.cf, level)
    p_tilted = _tail_probability(tilted.cf, level)
    price = math.exp(-inputs.rate * inputs.maturity) * (
        s * m1 * p_tilted - inputs.strike * p_plain)
    return max(price, 0.0)


NEGATIVE_PART_TOL = 1e-8  # price change per unit strike the gamma routes may drop


def negative_part_bound(model: LinearCombinationModel,
                        inputs: PricingInputs) -> float:
    """s E[e^G] (1 - E[e^-N]) = s E[e^X] (1 / E[e^-N] - 1) at time t', which
    bounds what the negative part N of X = G - N changes in a call price:
    the payoff is 1-Lipschitz in s e^X, and G and N are independent."""
    t, mu = inputs.t_remaining, model.mu
    log_neg = t * float(np.sum(model.q * np.log(mu / (mu + 1.0))))
    return inputs.spot_at_t * model.scaled(t).mgf(1.0) * math.expm1(-log_neg)


def gamma_route_growth(model: LinearCombinationModel,
                       inputs: PricingInputs) -> tuple[float, float]:
    """Growth eta/(eta-1) per unit of shape of the gamma-only routes, and
    the :func:`negative_part_bound` they drop; raises unless eta > 1, the
    mixture expectation converges (its pmf tail ratio 1 - lam_min/eta does
    not depend on t') and the negative part is negligible."""
    eta = model.eta
    if eta <= 1.0:
        raise DomainError(f"gamma-only pricing requires eta > 1, got {eta}")
    growth = eta / (eta - 1.0)
    theta = 1.0 - model.lam_min / eta
    if theta * growth >= 1.0 - 1e-12:
        raise SeriesDivergenceError(
            "mixture expectation diverges: pmf tail ratio "
            f"{theta:.6g} times growth {growth:.6g} >= 1")
    bound = negative_part_bound(model, inputs)
    if bound > NEGATIVE_PART_TOL * inputs.strike:
        raise DomainError(
            f"gamma-only pricing ignores a negative part worth up to {bound:.3g}")
    return growth, bound


def price_call_gamma_series(model: LinearCombinationModel,
                            inputs: PricingInputs) -> tuple[float, float]:
    """Call price for the gamma-driven (positive-part) model by the
    incomplete-gamma series over the time-t' mixture (L, p of that law):

        e^(-rT) sum_j P(L=j) [ s (eta/(eta-1))^(p+j) Q(p+j, (eta-1) ln(K/s))
                               - K Q(p+j, eta ln(K/s)) ],

    Q the regularised upper incomplete gamma.  Requires a model
    :func:`gamma_route_growth` accepts; only the mixture's positive side is
    built, at the package's pmf cut ``combo._PMF_TAIL_TOL`` (1e-12).  Each
    sum is completed by its geometric tail.  At K <= s every Q is 1: the
    K-sum is the total mass 1 and the price is the forward value
    e^(-rT) (s E[e^G] - K).  Returns the price and its tolerance: the
    completions plus the discounted negative-part bound.
    """
    growth, dropped = gamma_route_growth(model, inputs)
    scaled = model.scaled(inputs.t_remaining)
    side = GammaMixture.build(scaled.lam, scaled.p)
    eta, level = side.rate, inputs.log_moneyness
    s, strike = inputs.spot_at_t, inputs.strike
    a = side.shape + np.arange(len(side.pmf))
    sum_k, tail_k = 1.0, 0.0
    with np.errstate(divide="ignore"):
        log_w = np.log(side.pmf)
        log_s = log_w + a * math.log(growth)
        if level > 0.0:
            from scipy import special as sp

            log_s += np.log(sp.gammaincc(a, (eta - 1.0) * level))
            sum_k, tail_k = _completed_series(
                log_w + np.log(sp.gammaincc(a, eta * level)), side.theta_max)
    sum_s, tail_s = _completed_series(log_s, side.theta_max * growth)
    discount = math.exp(-inputs.rate * inputs.maturity)
    return (discount * float(s * sum_s - strike * sum_k),
            discount * (float(abs(s * tail_s - strike * tail_k)) + dropped))


def price_call_atm(model: LinearCombinationModel,
                   inputs: PricingInputs) -> tuple[float, float]:
    """At-the-money closed form for the gamma-driven model,

        K e^(-rT) ( E[(eta/(eta-1))^(p+L)] - 1 )

    over the time-t' mixture (L, p of that law), requiring s = K and a
    model :func:`gamma_route_growth` accepts.  It is
    :func:`price_call_gamma_series` at ln(K/s) = 0, where every incomplete
    gamma is 1, and returns that route's price and tolerance."""
    if inputs.spot_at_t != inputs.strike:
        raise DomainError("at-the-money formula requires spot == strike")
    return price_call_gamma_series(model, inputs)


def price_call_monte_carlo(model: LinearCombinationModel,
                           inputs: PricingInputs, n: int, rng
                           ) -> tuple[float, float]:
    """Monte Carlo price and its standard error from n >= 2 exact draws of
    the time-t' law; raises NonFiniteResultError if the payoff's mean or
    variance overflows.

    The payoff is taken in place on 2^16 draws at a time, so memory is
    O(2^16) at any n.  Up to 2^16 draws the result is bit-identical to
    ``payoff.mean()``, ``payoff.std(ddof=1) / sqrt(n)`` of one payoff
    array; above that a seed gives other, equally distributed, draws."""
    _check_count(n, 2, "a Monte Carlo standard error")
    discount = math.exp(-inputs.rate * inputs.maturity)

    def payoff(x: np.ndarray) -> np.ndarray:
        np.exp(x, out=x)
        x *= inputs.spot_at_t
        x -= inputs.strike
        np.maximum(x, 0.0, out=x)
        x *= discount
        return x

    with np.errstate(over="ignore", invalid="ignore"):
        price, se = _direct_mean(sample_direct,
                                 model.scaled(inputs.t_remaining), n, rng,
                                 payoff)
    if not math.isfinite(price):
        raise NonFiniteResultError(
            f"Monte Carlo payoff mean is {price} (spot * e^X overflows)")
    if not math.isfinite(se):
        raise NonFiniteResultError(
            f"Monte Carlo payoff variance overflows (standard error {se})")
    return price, se
