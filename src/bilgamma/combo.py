"""Linear combinations of independent bilateral-gamma variables.

The central object is T = sum_j (w1_j X_j - w2_j Y_j) with
X_j ~ Ga(alpha_j, p_j), Y_j ~ Ga(beta_j, q_j).  Writing
lam_j = alpha_j / w1_j and mu_j = beta_j / w2_j, the law of T is again
bilateral gamma with randomised shapes:

    T ~ BG(eta, p + L, xi, q + M),   eta = max_j lam_j,  xi = max_j mu_j,

where p = sum p_j, q = sum q_j and L, M are independent nonnegative
integer variables whose pmfs come from the convolution recursion below
(the classical mixture construction for weighted gamma sums).  That
identity is the backbone of everything in this module: both the cf and the
density admit a product form (over components) and a mixture form (over
the randomised shapes), and the two must agree to quadrature accuracy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import (
    DomainError,
    InversionNotIntegrableError,
    ModelFileError,
    NonConvergenceError,
    OutOfStripError,
    SingularPointError,
    TruncationFailureError,
)
from .quadrature import (
    DEFAULT_QUAD,
    QuadratureSpec,
    fourier_density,
    log_hyperint,
)

__all__ = [
    "LinearCombinationModel",
    "MixtureRepresentation",
    "LevyDensity",
    "build_mixture",
    "load_model",
]

_FIELDS = ("alpha", "p", "beta", "q", "w1", "w2")


@dataclass(frozen=True)
class LinearCombinationModel:
    """Component parameters of one linear combination.

    Each of the six arrays has one entry per component; all entries are
    strictly positive.  ``w1``/``w2`` weight the positive and negative
    gamma parts, so equal weight pairs give a plain convolution of
    bilateral-gamma laws.  Each field is a read-only copy of the input.
    """

    alpha: np.ndarray
    p: np.ndarray
    beta: np.ndarray
    q: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        arrays = {}
        n = None
        for name in _FIELDS:
            arr = np.atleast_1d(np.array(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            arrays[name] = arr
            if n is None:
                n = arr.shape[0]
            elif arr.shape != (n,):
                raise DomainError(f"field '{name}' has length {arr.shape}, expected ({n},)")
        if n < 1:
            raise DomainError("model needs at least one component")
        for name, arr in arrays.items():
            bad = np.where(~(np.isfinite(arr) & (arr > 0.0)))[0]
            if bad.size:
                raise DomainError(
                    f"component {bad[0]}: field '{name}' must be finite and > 0, "
                    f"got {arr[bad[0]]!r}")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_components(cls, components) -> "LinearCombinationModel":
        """Build from an iterable of (alpha, p, beta, q, w1, w2) tuples."""
        cols = list(zip(*components))
        if len(cols) != 6:
            raise DomainError("each component needs exactly 6 entries")
        return cls(*cols)

    @classmethod
    def from_json_obj(cls, obj) -> "LinearCombinationModel":
        """Parse the model document {"components": [{"alpha": ..., ...}]}.

        Rejects malformed input naming the offending component index and
        field.
        """
        if not isinstance(obj, dict) or "components" not in obj:
            raise ModelFileError("model document must contain a 'components' list")
        comps = obj["components"]
        if not isinstance(comps, list) or not comps:
            raise ModelFileError("'components' must be a non-empty list")
        rows = []
        for i, entry in enumerate(comps):
            if not isinstance(entry, dict):
                raise ModelFileError(f"component {i}: expected an object")
            row = []
            for name in _FIELDS:
                if name not in entry:
                    raise ModelFileError(f"component {i}: missing field '{name}'")
                try:
                    v = float(entry[name])
                except (TypeError, ValueError):
                    raise ModelFileError(
                        f"component {i}: field '{name}' is not a number: "
                        f"{entry[name]!r}") from None
                if not (math.isfinite(v) and v > 0.0):
                    raise ModelFileError(
                        f"component {i}: field '{name}' must be finite and > 0, got {v}")
                row.append(v)
            rows.append(row)
        return cls.from_components(rows)

    def to_json_obj(self) -> dict:
        return {"components": [
            {name: float(getattr(self, name)[j]) for name in _FIELDS}
            for j in range(self.n)]}

    # -- derived quantities ------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.alpha.shape[0])

    @property
    def lam(self) -> np.ndarray:
        """Effective positive-part rates alpha_j / w1_j."""
        return self.alpha / self.w1

    @property
    def mu(self) -> np.ndarray:
        """Effective negative-part rates beta_j / w2_j."""
        return self.beta / self.w2

    @property
    def eta(self) -> float:
        return float(self.lam.max())

    @property
    def xi(self) -> float:
        return float(self.mu.max())

    @property
    def lam_min(self) -> float:
        return float(self.lam.min())

    @property
    def mu_min(self) -> float:
        return float(self.mu.min())

    @property
    def p_total(self) -> float:
        return float(self.p.sum())

    @property
    def q_total(self) -> float:
        return float(self.q.sum())

    def scaled(self, t: float) -> "LinearCombinationModel":
        """Model with all shapes multiplied by t (the time-t law of the
        associated Levy process)."""
        if t <= 0.0:
            raise DomainError("time scale must be > 0")
        return LinearCombinationModel(self.alpha, self.p * t, self.beta,
                                      self.q * t, self.w1, self.w2)

    # -- transforms and densities -------------------------------------------

    def cf(self, z):
        """Characteristic function, product form over components:

        prod_j (alpha_j/(alpha_j - iz w1_j))^p_j (beta_j/(beta_j + iz w2_j))^q_j
        """
        z = np.asarray(z, dtype=complex)
        zz = z[..., None]
        expo = (-self.p * np.log(1.0 - 1j * zz * self.w1 / self.alpha)
                - self.q * np.log(1.0 + 1j * zz * self.w2 / self.beta)).sum(axis=-1)
        val = np.exp(expo)
        return complex(val) if val.ndim == 0 else val

    def mgf(self, z: float) -> float:
        """Moment generating function on the strip (-mu_min, lam_min)."""
        if not (-self.mu_min < z < self.lam_min):
            raise OutOfStripError(
                f"mgf argument {z} outside strip ({-self.mu_min}, {self.lam_min})")
        return float(np.exp(
            np.sum(self.p * np.log(self.lam / (self.lam - z)))
            + np.sum(self.q * np.log(self.mu / (self.mu + z)))))

    def levy_density(self, u: float) -> float:
        """Density of the Levy measure

        (1/u) sum_j [ p_j e^(-lam_j u) 1(u>0) - q_j e^(-mu_j |u|) 1(u<0) ],

        positive on both half-lines.
        """
        if u == 0.0:
            raise DomainError("Levy density undefined at u = 0")
        if u > 0.0:
            return float(np.sum(self.p * np.exp(-self.lam * u)) / u)
        return float(np.sum(self.q * np.exp(-self.mu * (-u))) / (-u))

    def cumulant(self, k: int) -> float:
        """k-th cumulant (k-1)! sum_j [p_j/lam_j^k + (-1)^k q_j/mu_j^k],
        which equals int u^k against the Levy measure."""
        if k < 1:
            raise DomainError("cumulant order must be >= 1")
        return math.factorial(k - 1) * float(
            np.sum(self.p / self.lam ** k) + (-1) ** k * np.sum(self.q / self.mu ** k))

    @property
    def mean(self) -> float:
        return self.cumulant(1)

    @property
    def variance(self) -> float:
        return self.cumulant(2)

    def pdf_fourier(self, x: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
        """Density by Fourier inversion of the product-form cf.

        Requires sum_j (p_j + q_j) > 1 so the cf is absolutely integrable;
        small negative quadrature values (above -1e-8) are clamped to zero.
        """
        if self.p_total + self.q_total <= 1.0:
            raise InversionNotIntegrableError(
                "cf decays like |z|^-(sum shapes) <= |z|^-1; pointwise "
                "inversion is not guaranteed")
        raw = fourier_density(self.cf, float(x), spec)
        if raw < -1e-8:
            raise NonConvergenceError(
                f"inverted density materially negative at x={x}: {raw}")
        return max(raw, 0.0)

    def mixture(self, tail_tol: float = 1e-12,
                k_max: int = 10000) -> "MixtureRepresentation":
        return build_mixture(self, tail_tol=tail_tol, k_max=k_max)


def load_model(path) -> LinearCombinationModel:
    """Load a model JSON document from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON in {path}: {exc}") from exc
    return LinearCombinationModel.from_json_obj(obj)


@dataclass(frozen=True)
class LevyDensity:
    """Callable view of the combination's Levy measure density."""

    model: LinearCombinationModel

    def __call__(self, u: float) -> float:
        return self.model.levy_density(u)

    def abs_moment(self, k: int = 1) -> float:
        """int |u|^k against the measure; finite for every k >= 1."""
        lam, mu = self.model.lam, self.model.mu
        return math.factorial(k - 1) * float(
            np.sum(self.model.p / lam ** k) + np.sum(self.model.q / mu ** k))


def _mixture_pmf(theta: np.ndarray, shapes: np.ndarray, log_mass0: float,
                 tail_tol: float, k_max: int) -> np.ndarray:
    """Shape-mixing pmf for one side of the combination.

    P(0) = exp(log_mass0), P(k) = P(0) * g_k with g_0 = 1 and

        g_k = (1/k) sum_{i=1}^{k} s_i g_{k-i},   s_i = sum_j shapes_j theta_j^i,

    grown until the retained mass reaches 1 - tail_tol.  Returns the
    truncated pmf.  Each step is one dot product over the filled prefixes
    of ``s`` and ``g``, which grow by doubling, so K terms cost O(K^2)
    flops and O(K) memory whatever ``k_max`` is.
    """
    mass0 = math.exp(log_mass0)
    g = np.empty(64)
    s = np.empty(64)    # s[i - 1] = s_i
    g[0] = 1.0
    acc = mass0
    th_pow = np.ones_like(theta)
    k = 0
    while acc < 1.0 - tail_tol:
        k += 1
        if k > k_max:
            raise TruncationFailureError(
                f"pmf mass {acc:.17g} below 1 - {tail_tol:g} after {k_max} terms")
        if k == len(g):
            g = np.concatenate([g, np.empty(k)])
            s = np.concatenate([s, np.empty(k)])
        th_pow = th_pow * theta
        s[k - 1] = np.dot(shapes, th_pow)
        g_k = float(np.dot(s[:k], g[k - 1::-1])) / k
        g[k] = g_k
        acc += mass0 * g_k
    return mass0 * g[:k + 1]


def _completed_series(log_terms, r):
    """Sum of exp(log_terms) over the last axis plus the geometric tail
    of ratio r (a scalar or one per row, in [0, 1); callers reject r >= 1
    with their own error) past the last term, exact when the dropped terms
    shrink by exactly r.  Returns (completed sum, completion)."""
    terms = np.exp(log_terms)
    tail = terms[..., -1] * r / (1.0 - r)
    return terms.sum(axis=-1) + tail, tail


def _power_mean(pmf, shape0: float, base: float, theta_max: float):
    """E[base^(shape0 + L)] over the truncated pmf of L with tail ratio
    theta_max, completed as in :func:`_completed_series`."""
    with np.errstate(divide="ignore"):
        log_terms = np.log(pmf) + (shape0 + np.arange(len(pmf))) * math.log(base)
    return _completed_series(log_terms, theta_max * base)


@dataclass(frozen=True, eq=False)
class MixtureRepresentation:
    """Randomised-shape mixture of one linear combination.

    Truncated pmfs of the two shape-mixing variables.  Immutable; every
    method is a pure function of the stored arrays.
    """

    model: LinearCombinationModel
    tail_tol: float
    eta: float
    xi: float
    p: float                 # total positive shape
    q: float                 # total negative shape
    pmf_pos: np.ndarray
    pmf_neg: np.ndarray
    theta_pos_max: float     # largest pmf tail ratio, max_j (1 - lam_j/eta)
    theta_neg_max: float

    # -- transforms ---------------------------------------------------------

    def cf(self, z):
        """Mixture form of the cf,

        sum_{j,k} P(L=j) P(M=k) (1 - iz/eta)^-(p+j) (1 + iz/xi)^-(q+k),

        which factorises into two single series.  Truncation error is
        bounded by the dropped pmf mass since every term has modulus <= 1.
        The points are taken in blocks of about 2**16 / K, so the
        (points x K) temporaries stay near a megabyte for any grid.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        jj = np.arange(len(self.pmf_pos))
        kk = np.arange(len(self.pmf_neg))
        rows = max(1, 2 ** 16 // max(len(jj), len(kk)))
        val = np.empty(flat.shape, dtype=complex)
        for start in range(0, len(flat), rows):
            zz = flat[start:start + rows, None]
            log_a = -np.log(1.0 - 1j * zz / self.eta)
            log_b = -np.log(1.0 + 1j * zz / self.xi)
            s_pos = (self.pmf_pos * np.exp((self.p + jj) * log_a)).sum(axis=-1)
            s_neg = (self.pmf_neg * np.exp((self.q + kk) * log_b)).sum(axis=-1)
            val[start:start + rows] = s_pos * s_neg
        val = val.reshape(z.shape)
        return complex(val) if val.ndim == 0 else val

    def mgf(self, z: float) -> float:
        """E[(eta/(eta-z))^(p+L)] E[(xi/(xi+z))^(q+M)] on the exact strip
        (-mu_min, lam_min); outside it the mixture series diverges.

        The pmf tails are asymptotically geometric with the known ratios,
        so the truncated series is completed by the geometric estimate of
        the remainder (exact when one component rate dominates)."""
        if not (-self.xi < z < self.eta):
            raise OutOfStripError(f"mgf argument {z} outside (-xi, eta)")
        lam_min, mu_min = self.model.lam_min, self.model.mu_min
        if not (-mu_min < z < lam_min):
            raise OutOfStripError(
                f"mgf argument {z} outside exact strip ({-mu_min}, {lam_min})")
        s_pos = _power_mean(self.pmf_pos, self.p, self.eta / (self.eta - z),
                            self.theta_pos_max)[0]
        s_neg = _power_mean(self.pmf_neg, self.q, self.xi / (self.xi + z),
                            self.theta_neg_max)[0]
        return float(s_pos * s_neg)

    # -- moments -------------------------------------------------------------

    def moment(self, k: int, tol: float = 1e-6) -> float:
        """E[T^k] by the binomial expansion over the two gamma mixtures:

        sum_{j=0}^{k} C(k,j) (-1)^j eta^-(k-j) xi^-j
            * sum_l P(L=l) (l+p)_{k-j} * sum_m P(M=m) (m+q)_j

        with (y)_r the ascending factorial.  Each inner series is the
        truncated sum plus its geometric tail completion; when the
        completed share exceeds ``tol`` relative to the result the pmf is
        too shallow for this order and the call fails rather than report a
        value dominated by extrapolation.
        """
        if k < 1:
            raise DomainError("moment order must be >= 1")
        pos_vals, pos_ext = _factorial_sums(self.pmf_pos, self.p, k,
                                            self.theta_pos_max)
        neg_vals, neg_ext = _factorial_sums(self.pmf_neg, self.q, k,
                                            self.theta_neg_max)
        total = 0.0
        extrapolated = 0.0
        scale = 0.0
        for j in range(k + 1):
            w = math.comb(k, j) * self.eta ** -(k - j) * self.xi ** -j
            term = w * pos_vals[k - j] * neg_vals[j]
            total += (-1) ** j * term
            scale = max(scale, abs(term))
            extrapolated += w * (pos_ext[k - j] * neg_vals[j]
                                 + pos_vals[k - j] * neg_ext[j])
        if extrapolated > tol * max(1.0, scale):
            raise TruncationFailureError(
                f"moment({k}) extrapolated tail {extrapolated:.3g} exceeds "
                f"tolerance {tol:g}; rebuild the mixture with a smaller tail_tol")
        return float(total)

    # -- densities -----------------------------------------------------------

    def pdf_series(self, x: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
        """Density by the mixture double series with hypergeometric kernel.

        For x > 0 each (j, k) term is

            P(L=j) P(M=k) eta^(p+j) xi^(q+k) / (Gamma(p+j) Gamma(q+k))
            * e^(-eta x) x^(p+q+j+k-1) Gamma(q+k) F(q+k, p+q+j+k, (eta+xi)x)

        and for x < 0 the mirrored kernel swaps the roles of the two sides:
        e^(xi x) (-x)^(...) Gamma(p+j) F(p+j, p+q+j+k, -(eta+xi)x).  Terms
        are accumulated in log space; pairs whose pmf weight cannot reach
        the tolerance are skipped wherever they sit, since a pmf can peak
        far from index 0.
        """
        if x == 0.0:
            raise SingularPointError("series density not evaluated at x = 0")
        ax = abs(x)
        big_x = (self.eta + self.xi) * ax
        log_eta, log_xi, log_ax = (math.log(self.eta), math.log(self.xi),
                                   math.log(ax))
        with np.errstate(divide="ignore"):
            lp_pos = np.log(self.pmf_pos)
            lp_neg = np.log(self.pmf_neg)
        lg_pos = sp.gammaln(self.p + np.arange(len(self.pmf_pos)))
        lg_neg = sp.gammaln(self.q + np.arange(len(self.pmf_neg)))
        # dropping a pair costs at most pmf weight times a density bound
        cut = math.log(spec.abs_tol * 1e-3 / max(self.eta, self.xi))
        total = 0.0
        for j in np.flatnonzero(lp_pos + lp_neg.max() >= cut).tolist():
            for k in np.flatnonzero(lp_pos[j] + lp_neg >= cut).tolist():
                lw = lp_pos[j] + lp_neg[k]
                b = self.p + self.q + j + k
                lead = (lw + (self.p + j) * log_eta + (self.q + k) * log_xi
                        - lg_pos[j] - lg_neg[k] + (b - 1.0) * log_ax)
                if x > 0.0:
                    lt = lead - self.eta * ax + log_hyperint(self.q + k, b, big_x, spec)
                else:
                    lt = lead - self.xi * ax + log_hyperint(self.p + j, b, big_x, spec)
                total += math.exp(lt)
        return total

    def gamma_mixture_pdf(self, x: float) -> float:
        """Density of the positive part alone (the gamma-combination limit):

        sum_j P(L=j) eta^(p+j) x^(p+j-1) e^(-eta x) / Gamma(p+j),  x > 0.
        """
        if x <= 0.0:
            raise DomainError("gamma-mixture density defined for x > 0 only")
        jj = np.arange(len(self.pmf_pos))
        with np.errstate(divide="ignore"):
            lt = (np.log(self.pmf_pos) + (self.p + jj) * math.log(self.eta)
                  + (self.p + jj - 1.0) * math.log(x) - self.eta * x
                  - sp.gammaln(self.p + jj))
        return float(np.exp(lt).sum())


def _factorial_sums(pmf: np.ndarray, shape0: float, k: int, theta_max: float):
    """Ascending-factorial sums sum_l pmf_l (l+shape0)_r for r = 0..k.

    Returns the completed sums and the size of each geometric tail
    completion.  Consecutive tail terms have ratio close to
    theta_max * (l+shape0+r)/(l+shape0), so the remainder past the last
    retained index is completed geometrically from the last term.
    """
    ll = np.arange(len(pmf))
    last = len(pmf) - 1
    rr = np.arange(k + 1)
    with np.errstate(divide="ignore"):
        log_terms = (np.log(pmf) + sp.gammaln(ll + shape0 + rr[:, None])
                     - sp.gammaln(ll + shape0))
    rho = np.zeros(k + 1)
    if theta_max > 0.0 and last > 0:
        rho = theta_max * (last + shape0 + rr) / (last + shape0)
    if rho.max() >= 1.0:
        r = int(np.argmax(rho >= 1.0))
        raise TruncationFailureError(
            f"factorial series of order {r} has non-contracting tail "
            f"(ratio {rho[r]:.4g}); rebuild the mixture with a smaller tail_tol")
    return _completed_series(log_terms, rho)


def build_mixture(model: LinearCombinationModel, tail_tol: float = 1e-12,
                  k_max: int = 10000) -> MixtureRepresentation:
    """Construct the randomised-shape mixture of ``model``.

    Both pmfs are truncated at the first index where the retained mass
    reaches 1 - tail_tol; failing to get there within ``k_max`` terms is an
    error, never silent.
    """
    if not (0.0 < tail_tol < 1.0):
        raise DomainError("tail_tol must be in (0, 1)")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    lam, mu = model.lam, model.mu
    eta, xi = model.eta, model.xi
    theta_pos = 1.0 - lam / eta
    theta_neg = 1.0 - mu / xi
    log_c = float(np.sum(model.p * np.log(lam / eta)))
    log_d = float(np.sum(model.q * np.log(mu / xi)))
    pmf_pos = _mixture_pmf(theta_pos, model.p, log_c, tail_tol, k_max)
    pmf_neg = _mixture_pmf(theta_neg, model.q, log_d, tail_tol, k_max)
    return MixtureRepresentation(
        model=model,
        tail_tol=tail_tol,
        eta=eta,
        xi=xi,
        p=model.p_total,
        q=model.q_total,
        pmf_pos=pmf_pos,
        pmf_neg=pmf_neg,
        theta_pos_max=float(theta_pos.max()),
        theta_neg_max=float(theta_neg.max()),
    )
