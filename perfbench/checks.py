"""Route checks for benchmark operations.

Each check compares the value an operation computed with the value of an
independent route and judges the gap against the tolerance that
``tests/test_acceptance.py`` pins for that pair.  Closed forms that the
checks need (product-form cf, cumulants, the Stein operator applied to
sin, call prices by Gil-Pelaez inversion of the product cf) are evaluated
here from the component table, not through bilgamma, so a defect in the
package cannot cancel out of its own check.

A *statistical* check (Monte Carlo, Kolmogorov-Smirnov, sample cumulants)
has a false-alarm rate by design; it counts towards failed operations like
any other check but is left out of ``route_gap``, which is meant to be
deterministic and comparable across commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.stats import kstat

TOL_CF = 1e-8                 # C1: sup |product cf - mixture cf| <= 1e-8 + 2 tail_tol
TOL_DENSITY = 1e-6            # C3: series vs Fourier density
TOL_CUMULANT_REL = 1e-8       # C4: closed form vs an independent route, relative
TOL_PRICE_REL = 1e-4          # C9: pricing routes, relative
SE_MULT = 4.0                 # C4, C5, C9: Monte Carlo agreement within 4 SE
KS_CRIT_001 = 1.628           # C11: two-sample coefficient at level 0.01
KS_MAX_REJECTIONS = 1         # C11: at most 1 of 20 repetitions above it
TOL_STEIN_CLOSED = 1e-11      # test_stein: Gauss-Laguerre batch vs closed form


@dataclass(frozen=True)
class Check:
    label: str
    gap: float
    tol: float
    statistical: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.gap <= self.tol)      # False for NaN

    @property
    def ratio(self) -> float:
        return self.gap / self.tol


# -- closed forms on a component table (rows of alpha, p, beta, q, w1, w2) --


def _columns(rows):
    a, p, b, q, w1, w2 = np.asarray(rows, dtype=float).T
    return a / w1, p, b / w2, q


def product_cf(rows, z) -> np.ndarray:
    lam, p, mu, q = _columns(rows)
    zz = np.asarray(z, dtype=complex)[:, None]
    return np.exp((-p * np.log(1.0 - 1j * zz / lam)
                   - q * np.log(1.0 + 1j * zz / mu)).sum(axis=1))


def cumulants(rows, kmax: int) -> list[float]:
    lam, p, mu, q = _columns(rows)
    return [math.factorial(k - 1) * float(np.sum(p / lam ** k)
                                          + (-1) ** k * np.sum(q / mu ** k))
            for k in range(1, kmax + 1)]


def call_price(rows, strike: float, rate: float, s0: float = 1.0,
               maturity: float = 1.0) -> float:
    """European call on S_T = s0 e^(X_T) by Gil-Pelaez inversion of the
    product cf phi of X_T (shapes p, q scaled by T):

        P(X > L)          = 1/2 + 1/pi int_0^inf Im(e^(-iuL) phi(u)) / u du
        E[e^X; X > L]     = phi(-i)/2 + 1/pi int_0^inf Im(e^(-iuL) phi(u - i)) / u du

    with L = log(K / s0); the second is the first under the measure tilted
    by e^X.  Requires every positive rate alpha/w1 > 1."""
    a, p, b, q, w1, w2 = np.asarray(rows, dtype=float).T
    law = np.column_stack([a, p * maturity, b, q * maturity, w1, w2])
    level = math.log(strike / s0)

    def phi(u, shift):
        return product_cf(law, [complex(u) + shift])[0]

    def tail(shift: complex) -> float:
        # [0, 1] directly; on [1, inf) the oscillating factor e^(-iuL) is
        # left to QUADPACK's Fourier-weighted rule.
        head = quad(lambda u: (np.exp(-1j * u * level) * phi(u, shift)).imag / u,
                    0.0, 1.0, epsabs=1e-11, epsrel=1e-10, limit=200)[0]
        if level == 0.0:
            rest = quad(lambda u: phi(u, shift).imag / u, 1.0, math.inf,
                        epsabs=1e-11, epsrel=1e-10, limit=200)[0]
        else:
            w, sign = abs(level), math.copysign(1.0, level)
            rest = (quad(lambda u: phi(u, shift).imag / u, 1.0, math.inf,
                         weight="cos", wvar=w, epsabs=1e-11, limlst=200)[0]
                    - sign * quad(lambda u: phi(u, shift).real / u, 1.0, math.inf,
                                  weight="sin", wvar=w, epsabs=1e-11, limlst=200)[0])
        return float(phi(0.0, shift).real) / 2.0 + (head + rest) / math.pi

    return math.exp(-rate * maturity) * (s0 * tail(-1j) - strike * tail(0j))


def raw_moments(kappa: list[float]) -> list[float]:
    """Raw moments from cumulants by the complete Bell recursion
    m_n = sum_{j=1}^{n} C(n-1, j-1) kappa_j m_{n-j}."""
    m = [1.0]
    for n in range(1, len(kappa) + 1):
        m.append(sum(math.comb(n - 1, j - 1) * kappa[j - 1] * m[n - j]
                     for j in range(1, n + 1)))
    return m[1:]


def stein_sine(rows, x: np.ndarray) -> np.ndarray:
    """A sin(x) in closed form: int_0^inf sin(x +- u) e^(-r u) du
    = (r sin x +- cos x) / (r^2 + 1)."""
    lam, p, mu, q = _columns(rows)
    s, c = np.sin(x)[:, None], np.cos(x)[:, None]
    return (-x * np.sin(x)
            + (p * (lam * s + c) / (lam ** 2 + 1.0)).sum(axis=1)
            - (q * (mu * s - c) / (mu ** 2 + 1.0)).sum(axis=1))


# -- checks, one function per kind of operation output ---------------------


def density(table: np.ndarray, points: int) -> list[Check]:
    """``table`` columns: x, pdf_fourier, pdf_series, abs_diff (CLI pdf)."""
    gap = float(np.abs(table[:, 2] - table[:, 1]).max())
    return [Check("one row per requested point", abs(len(table) - points), 0.5),
            Check("density series vs Fourier (C3)", gap, TOL_DENSITY)]


def cf(table: np.ndarray, rows, tail_tol: float) -> list[Check]:
    """``table`` columns: z, product re/im, mixture re/im, abs_diff (CLI cf)."""
    ref = product_cf(rows, table[:, 0])
    prod = table[:, 1] + 1j * table[:, 2]
    mix = table[:, 3] + 1j * table[:, 4]
    tol = TOL_CF + 2.0 * tail_tol
    return [Check("cf product form vs closed form", float(np.abs(prod - ref).max()), tol),
            Check("cf mixture vs product (C1)", float(np.abs(mix - ref).max()), tol)]


def moments(report: dict, rows) -> list[Check]:
    kmax = len(report["moments"])
    ref = raw_moments(cumulants(rows, kmax))
    got = [report["moments"][str(k)] for k in range(1, kmax + 1)]
    gap = max(abs(g - r) / abs(r) for g, r in zip(got, ref))
    return [Check("moments (mixture) vs cumulants (C4)", gap, TOL_CUMULANT_REL)]


def price(value: float, reference: float | None, label: str,
          reference_se: float = 0.0) -> list[Check]:
    """C9: |a - b| <= max(1e-4 relative, 4 SE of a Monte Carlo side)."""
    if reference is None:
        return [Check(f"{label}: reference route failed", math.inf, 1.0)]
    tol = max(TOL_PRICE_REL * max(abs(value), abs(reference)),
              SE_MULT * reference_se)
    return [Check(label, abs(value - reference), tol,
                  statistical=reference_se > 0.0)]


def same_draws(got: np.ndarray, direct: np.ndarray) -> list[Check]:
    """The draws read back from a CSV against the sampler's own array, in
    units in the last place; %.17g round-trips, so the gap must be 0."""
    if got.shape != direct.shape:
        return [Check("sample CSV holds every draw", math.inf, 1.0)]
    ulps = np.abs(got - direct) / np.spacing(np.abs(direct))
    return [Check("sample CSV vs sample_direct, in ulps", float(ulps.max()), 1.0)]


def sample_cumulants(draws: np.ndarray, rows, blocks: int = 50) -> list[Check]:
    """C4: block k-statistics of the draws within 4 SE of the closed form."""
    usable = len(draws) - len(draws) % blocks
    parts = draws[:usable].reshape(blocks, -1)
    out = []
    for k, closed in enumerate(cumulants(rows, 4), start=1):
        stats = np.array([kstat(row, k) for row in parts])
        se = float(stats.std(ddof=1) / math.sqrt(blocks))
        out.append(Check(f"sample cumulant {k} (C4)",
                         abs(float(stats.mean()) - closed), SE_MULT * se,
                         statistical=True))
    return out


def cp_sweep(table: np.ndarray, n: int) -> list[Check]:
    """C6 on the CLI cp-sweep table (m, d_k, bound_fitted): nonincreasing up
    to twice the KS noise, below the fitted bound (to the 1e-6 printed
    resolution), log-log slope at most -1/5 + 0.1."""
    m, dk, bound = table[:, 0], table[:, 1], table[:, 2]
    noise = KS_CRIT_001 * math.sqrt(2.0 / n)
    rise = float(np.max(np.diff(dk), initial=0.0))
    over = float(np.max(dk - bound))
    slope = float(np.polyfit(np.log(m), np.log(dk), 1)[0])
    return [Check("d_K nonincreasing in m (C6)", rise, 2.0 * noise, True),
            Check("d_K below fitted bound (C6)", max(over, 0.0), 1e-6, True),
            Check("d_K log-log slope (C6)", slope + 0.2, 0.1, True)]


def stein(est: float, se: float, closed_mean: float) -> list[Check]:
    return [Check("Stein identity E[A sin T] = 0 (C5)", abs(est), SE_MULT * se,
                  statistical=True),
            Check("Stein batch vs closed-form transform", abs(est - closed_mean),
                  TOL_STEIN_CLOSED)]


def ks_repetitions(stats: list[float], n: int) -> list[Check]:
    """C11: the level-0.01 critical value is exceeded in at most 1 of the
    repetitions."""
    crit = KS_CRIT_001 * math.sqrt(2.0 / n)
    rejections = sum(s > crit for s in stats)
    return [Check("KS direct vs mixture (C11)", float(rejections),
                  float(KS_MAX_REJECTIONS), statistical=True)]
