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

import cmath
import json
import math
import os
from dataclasses import dataclass

import numpy as np

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
    log_hyperint_rows,
)

__all__ = [
    "LinearCombinationModel",
    "MixtureRepresentation",
    "build_mixture",
    "load_model",
]

_FIELDS = ("alpha", "p", "beta", "q", "w1", "w2")

# arguments that ``LinearCombinationModel.cf`` evaluates by its cmath loop
_REAL_SCALARS = (float, int, np.floating, np.integer)

_MOMENT_TAIL_TOL = 1e-6  # largest share of a moment its tail completion may give


@dataclass(frozen=True)
class LinearCombinationModel:
    """Component parameters of one linear combination.

    Each of the six arrays has one entry per component; all entries are
    strictly positive.  ``w1``/``w2`` weight the positive and negative
    gamma parts, so equal weight pairs give a plain convolution of
    bilateral-gamma laws.  Each field is a read-only copy of the input.

    One component with unit weights is the single law BG(alpha, p, beta, q),
    ``from_components([(alpha, p, beta, q, 1, 1)])``; this is how the
    package states a bilateral-gamma law, a Stein-bound target included.
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
                    f"got {float(arr[bad[0]])!r}")
        # the product cf's coefficients, as arrays over the components and
        # as one tuple of Python floats per component
        columns = (self.p, self.w1, 1.0 / self.alpha,
                   self.q, self.w2, 1.0 / self.beta)
        object.__setattr__(self, "_cf_columns", columns)
        object.__setattr__(self, "_cf_rows",
                           tuple(zip(*(c.tolist() for c in columns))))

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

        A real scalar z (one QUADPACK node) sums the log factors in a cmath
        loop over the components and returns a complex; any other z
        broadcasts the same expression over a trailing component axis.
        """
        if isinstance(z, _REAL_SCALARS):
            lib, iz, rows = cmath, 1j * float(z), self._cf_rows
        else:
            lib, rows = np, (self._cf_columns,)
            iz = 1j * np.asarray(z, dtype=complex)[..., None]
        expo = -0j  # -0.0 + t == t for every t, signed zeros included
        for p, w1, inv_alpha, q, w2, inv_beta in rows:
            expo += (-p * lib.log(1.0 - iz * w1 * inv_alpha)
                     - q * lib.log(1.0 + iz * w2 * inv_beta))
        if lib is cmath:
            return cmath.exp(expo)
        val = np.exp(expo.sum(axis=-1))
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


def load_model(path) -> LinearCombinationModel:
    """Load a model JSON document from disk.  A missing, unreadable,
    non-UTF-8 or malformed file raises ModelFileError."""
    if not os.path.isfile(path):
        raise ModelFileError(f"model file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON in {path}: {exc}") from exc
    return LinearCombinationModel.from_json_obj(obj)


# an overflowing g_k makes the mass inf or NaN, which ends the recursion and
# is reported as an error, so numpy's overflow warning would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def _mixture_pmf(theta: np.ndarray, shapes: np.ndarray, log_mass0: float,
                 tail_tol: float, k_max: int) -> np.ndarray:
    """Shape-mixing pmf for one side of the combination.

    P(0) = exp(log_mass0), P(k) = P(0) * g_k with g_0 = 1 and

        g_k = (1/k) sum_{i=1}^{k} s_i g_{k-i},   s_i = sum_j shapes_j theta_j^i,

    grown until the retained mass reaches 1 - tail_tol.  Returns the
    truncated pmf.  Each step is one dot product over the filled prefixes
    of ``s`` and ``g``, which grow by doubling, so K terms cost O(K^2)
    flops and O(K) memory whatever ``k_max`` is.  A P(0) so small that the
    g_k overflow before the mass is reached (or P(0) underflowing to 0) is
    an error, never a pmf with inf or NaN entries.
    """
    mass0 = math.exp(log_mass0)
    if mass0 == 0.0:
        raise TruncationFailureError(
            f"pmf mass at 0 underflows: log P(0) = {log_mass0:.6g}")
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
    if not math.isfinite(acc):
        raise TruncationFailureError(
            f"pmf recursion overflowed after {k} terms: log P(0) = {log_mass0:.6g}")
    return mass0 * g[:k + 1]


def _completed_series(log_terms, r):
    """Sum of exp(log_terms) over the last axis plus the geometric tail
    of ratio r (a scalar or one per row, in [0, 1); callers reject r >= 1
    with their own error) past the last term, exact when the dropped terms
    shrink by exactly r.  Returns (completed sum, completion)."""
    terms = np.exp(log_terms)
    tail = terms[..., -1] * r / (1.0 - r)
    return terms.sum(axis=-1) + tail, tail


def _power_sum(pmf, shape, log_r):
    """sum_j pmf[j] r^(shape + j) for a column of log r values, one per
    row, by the baby-step/giant-step split described in
    ``MixtureRepresentation.cf``."""
    step = math.isqrt(len(pmf))
    giants = -(-len(pmf) // step)
    blocks = np.zeros(giants * step)
    blocks[:len(pmf)] = pmf
    blocks = blocks.reshape(giants, step)
    baby = np.exp(np.arange(step) * log_r)[:, None, :]
    inner = np.empty((len(log_r), giants), dtype=complex)
    inner.real = (blocks * baby.real).sum(axis=-1)
    inner.imag = (blocks * baby.imag).sum(axis=-1)
    giant = np.exp((shape + step * np.arange(giants)) * log_r)
    return (inner * giant).sum(axis=-1)


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

        Each series is a power sum in one ratio r per point, still summed
        term by term, with its index split as j = B m + i, B = isqrt(K)
        (baby-step/giant-step, Paterson & Stockmeyer 1973): the baby steps
        r^i, i < B, and the giant steps r^(p + B m) take B + K/B complex
        exps per point instead of K.  The inner sums
        sum_i P(L = B m + i) r^i are an elementwise product and a sum over
        the last axis, on the real and imaginary parts.  They are not a
        BLAS matmul: its blocking makes a point's rounding depend on the
        other points of the call, while this reduction sums each point in
        the same order however many points there are.  So a point's value
        does not depend on the grid or the blocking.  The points are taken
        in blocks of about 2**16 / K, so the (points x K) temporaries stay
        near a megabyte for any grid.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        rows = max(1, 2 ** 16 // max(len(self.pmf_pos), len(self.pmf_neg)))
        val = np.empty(flat.shape, dtype=complex)
        for start in range(0, len(flat), rows):
            zz = flat[start:start + rows, None]
            val[start:start + rows] = (
                _power_sum(self.pmf_pos, self.p, -np.log(1.0 - 1j * zz / self.eta))
                * _power_sum(self.pmf_neg, self.q, -np.log(1.0 + 1j * zz / self.xi)))
        val = val.reshape(z.shape)
        return complex(val) if val.ndim == 0 else val

    # -- moments -------------------------------------------------------------

    def moment(self, k: int) -> float:
        """E[T^k] by the binomial expansion over the two gamma mixtures:

        sum_{j=0}^{k} C(k,j) (-1)^j eta^-(k-j) xi^-j
            * sum_l P(L=l) (l+p)_{k-j} * sum_m P(M=m) (m+q)_j

        with (y)_r the ascending factorial.  Each inner series is the
        truncated sum plus its geometric tail completion; when the
        completed share exceeds _MOMENT_TAIL_TOL relative to the result the
        pmf is too shallow for this order and the call fails rather than
        report a value dominated by extrapolation.
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
        if extrapolated > _MOMENT_TAIL_TOL * max(1.0, scale):
            raise TruncationFailureError(
                f"moment({k}) extrapolated tail {extrapolated:.3g} exceeds "
                f"tolerance {_MOMENT_TAIL_TOL:g}; rebuild the mixture with a "
                f"smaller tail_tol")
        return float(total)

    # -- densities -----------------------------------------------------------

    def pdf_series(self, x: float, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
        """Density by the mixture double series with hypergeometric kernel.

        For x > 0 each (j, k) term is

            P(L=j) P(M=k) eta^(p+j) xi^(q+k) / (Gamma(p+j) Gamma(q+k))
            * e^(-eta x) x^(p+q+j+k-1) I(q+k, p+q+j+k, (eta+xi)x)

        with I(a, b, X) = int_0^inf e^(-Xt) t^(a-1) (1+t)^(b-a-1) dt =
        Gamma(a) U(a, b, X); for x < 0 the mirrored kernel swaps the roles
        of the two sides: e^(xi x) (-x)^(...) I(p+j, p+q+j+k, -(eta+xi)x).
        Pairs whose pmf weight cannot reach the tolerance are skipped
        wherever they sit, since a pmf can peak far from index 0.

        The kernels of the kept pairs' bounding box form a grid whose rows
        step a and b together (k for x > 0, j for x < 0) and whose columns
        step b alone.  ``log_hyperint_rows`` integrates at most two kernels
        per point, on the diagonal a, b -> a+1, b+1 that holds the first
        entry of every row, and gets the rest from exact relations run in
        the direction that adds positive terms only: the diagonal relation
        (a+k) d_k + (b+k-X) d_(k+1) = X d_(k+2) for d_k = I(a+k, b+k),
        I(a, b+1) = I(a, b) + I(a+1, b+1) (DLMF 13.3.10) and
        X I(a, b+1) = (b-1+X) I(a, b) - (b-a-1) I(a, b-1) (DLMF 13.3.8).
        """
        from scipy import special as sp

        if not math.isfinite(x):
            raise DomainError(f"series density needs a finite x, got x={x}")
        if x == 0.0:
            raise SingularPointError("series density not evaluated at x = 0")
        ax = abs(x)
        if not math.isfinite((self.eta + self.xi) * ax):
            # the kernel argument overflows only far past where e^(-rate |x|)
            # has underflowed: the density is 0 there, as it is at 1e300
            return 0.0
        log_ax = math.log(ax)

        def side(pmf, shape, rate):
            # log weight and the factors of a term that depend on one index
            n = np.arange(len(pmf))
            with np.errstate(divide="ignore"):
                lp = np.log(pmf)
            return lp, (lp + (shape + n) * math.log(rate)
                        - sp.gammaln(shape + n) + n * log_ax)

        pos = side(self.pmf_pos, self.p, self.eta)
        neg = side(self.pmf_neg, self.q, self.xi)
        if x > 0.0:
            (lp_row, f_row), (lp_col, f_col) = neg, pos
            shape, rate = self.q, self.eta
        else:
            (lp_row, f_row), (lp_col, f_col) = pos, neg
            shape, rate = self.p, self.xi
        # dropping a pair costs at most pmf weight times a density bound
        cut = math.log(spec.abs_tol * 1e-3 / max(self.eta, self.xi))
        rows = np.flatnonzero(lp_row + lp_col.max() >= cut)
        cols = np.flatnonzero(lp_col + lp_row.max() >= cut)
        if rows.size == 0:
            return 0.0
        r_lo, c_lo, c_hi = int(rows[0]), int(cols[0]), int(cols[-1]) + 1
        lp_col, f_col = lp_col[c_lo:c_hi], f_col[c_lo:c_hi]
        const = (self.p + self.q - 1.0) * log_ax - rate * ax
        total = 0.0
        # the seeds are looked up by this module's name, where a tracer
        # (perfbench/spans.py) counts them as log_hyperint calls
        for i, log_kernel in log_hyperint_rows(
                shape + r_lo, self.p + self.q + r_lo + c_lo,
                (self.eta + self.xi) * ax, int(rows[-1]) + 1 - r_lo,
                c_hi - c_lo, spec, seed=log_hyperint):
            r = r_lo + i
            keep = lp_row[r] + lp_col >= cut
            total += float(np.exp(const + f_row[r] + f_col[keep]
                                  + log_kernel[keep]).sum())
        return total

    def gamma_mixture_pdf(self, x: float) -> float:
        """Density of the positive part alone (the gamma-combination limit):

        sum_j P(L=j) eta^(p+j) x^(p+j-1) e^(-eta x) / Gamma(p+j),  x > 0.
        """
        from scipy import special as sp

        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(
                f"gamma-mixture density needs a finite x > 0, got x={x}")
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
    from scipy import special as sp

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
    pmf_pos.flags.writeable = False
    pmf_neg.flags.writeable = False
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
