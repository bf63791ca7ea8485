"""The bilateral-gamma law BG(alpha, p, beta, q).

The law of X1 - X2 for independent X1 ~ Ga(alpha, p), X2 ~ Ga(beta, q),
with Ga(rate, shape).  Special cases: p = q is variance gamma, additionally
alpha = beta is symmetric variance gamma, p = q = 1 with alpha = beta is
Laplace; beta -> inf degenerates to Ga(alpha, p).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError, SingularPointError
from .quadrature import DEFAULT_QUAD, QuadratureSpec, _quad, fourier_density

__all__ = ["BilateralGamma"]


@dataclass(frozen=True)
class BilateralGamma:
    """Parameters of one bilateral-gamma law.

    alpha, beta are the rates and p, q the shapes of the positive and
    negative gamma parts; all strictly positive.
    """

    alpha: float
    p: float
    beta: float
    q: float

    def __post_init__(self):
        for name in ("alpha", "p", "beta", "q"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v) and v > 0):
                raise DomainError(f"BilateralGamma.{name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, float(v))

    def cf(self, z):
        """Characteristic function (1 - iz/alpha)^(-p) (1 + iz/beta)^(-q)."""
        z = np.asarray(z, dtype=complex)
        val = np.exp(-self.p * np.log(1.0 - 1j * z / self.alpha)
                     - self.q * np.log(1.0 + 1j * z / self.beta))
        return complex(val) if val.ndim == 0 else val

    def levy_density(self, u: float) -> float:
        """Density of the Levy measure: (p/u) e^(-alpha u) on u > 0 and
        (q/|u|) e^(-beta |u|) on u < 0."""
        if u == 0.0:
            raise DomainError("Levy density undefined at u = 0")
        if u > 0.0:
            return self.p / u * math.exp(-self.alpha * u)
        return self.q / (-u) * math.exp(-self.beta * (-u))

    def cumulant(self, k: int) -> float:
        """k-th cumulant (k-1)! (p / alpha^k + (-1)^k q / beta^k)."""
        if k < 1:
            raise DomainError("cumulant order must be >= 1")
        return math.factorial(k - 1) * (
            self.p / self.alpha ** k + (-1) ** k * self.q / self.beta ** k)

    @property
    def mean(self) -> float:
        return self.cumulant(1)

    @property
    def variance(self) -> float:
        return self.cumulant(2)

    def pdf(self, x: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
        """Density by the one-sided convolution integral.

        For x > 0 (x < 0 mirrored):

            h(x) = alpha^p beta^q / (Gamma(p) Gamma(q)) *
                   e^(-alpha x) int_0^inf (x+s)^(p-1) s^(q-1) e^(-(alpha+beta)s) ds

        after substituting y = x + s, which removes the moving lower limit.
        At x = 0 the density is evaluated by Fourier inversion when
        p + q > 1 and is a genuine singularity otherwise.
        """
        if x == 0.0:
            if self.p + self.q <= 1.0:
                raise SingularPointError(
                    "density unbounded at x = 0 when p + q <= 1")
            return fourier_density(self.cf, 0.0, spec)
        if x > 0.0:
            rate_out, shp_out, shp_in = self.alpha, self.p, self.q
        else:
            rate_out, shp_out, shp_in = self.beta, self.q, self.p
        ax = abs(x)
        c = self.alpha + self.beta
        # rescale to v = c s so the exponential decays at unit rate (keeps
        # the adaptive rule honest when one rate is extreme)
        log_pref = (self.p * math.log(self.alpha) + self.q * math.log(self.beta)
                    - sp.gammaln(self.p) - sp.gammaln(self.q) - rate_out * ax
                    - shp_in * math.log(c))

        def integrand(v: float) -> float:
            return ((ax + v / c) ** (shp_out - 1.0) * v ** (shp_in - 1.0)
                    * math.exp(-v))

        if shp_in < 1.0:
            # v = w^(1/shp_in) on [0, 1] removes the endpoint singularity
            inv = 1.0 / shp_in

            def near(w: float) -> float:
                v = w ** inv
                return inv * (ax + v / c) ** (shp_out - 1.0) * math.exp(-v)

            part0 = _quad(near, 0.0, 1.0, spec)
        else:
            part0 = _quad(integrand, 0.0, 1.0, spec)

        def far(u: float) -> float:
            v = 1.0 + u / (1.0 - u)
            return integrand(v) / (1.0 - u) ** 2

        part1 = _quad(far, 0.0, 1.0, spec)
        return math.exp(log_pref) * (part0 + part1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws as the difference of two exact gamma variates."""
        if n < 1:
            raise DomainError("sample size must be >= 1")
        return (rng.gamma(self.p, 1.0 / self.alpha, n)
                - rng.gamma(self.q, 1.0 / self.beta, n))
