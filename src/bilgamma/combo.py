"""Linear combinations of independent bilateral-gamma variables.

The central object is T = sum_j (w1_j X_j - w2_j Y_j) with
X_j ~ Ga(alpha_j, p_j), Y_j ~ Ga(beta_j, q_j).  Writing
lam_j = alpha_j / w1_j and mu_j = beta_j / w2_j, the law of T is again
bilateral gamma with randomised shapes:

    T ~ BG(eta, p + L, xi, q + M),   eta = max_j lam_j,  xi = max_j mu_j,

where p = sum p_j, q = sum q_j and L, M are independent nonnegative
integer variables whose pmfs come from the convolution recursion below
(the classical mixture construction for weighted gamma sums, Moschopoulos
1985).  Each side is one ``GammaMixture``, sum_n P(N=n) Ga(rate, shape + n),
and ``MixtureRepresentation`` holds the two.  That identity is the backbone
of everything in this module: both the cf and the density admit a product
form (over components) and a mixture form (over the randomised shapes), and
the two must agree to quadrature accuracy.
The module also reads every input document (``read_json``, ``read_fields``).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ModelFileError,
    NonConvergenceError,
    NonFiniteResultError,
    OutOfStripError,
    SingularPointError,
    TruncationFailureError,
)
from .quadrature import fourier_density, log_hyperint

__all__ = [
    "GammaMixture",
    "LinearCombinationModel",
    "MixtureRepresentation",
    "build_mixture",
    "load_model",
    "read_fields",
    "read_json",
]

_FIELDS = ("alpha", "p", "beta", "q", "w1", "w2")

# arguments that ``LinearCombinationModel.cf`` evaluates by its math loop
_REAL_SCALARS = (float, int, np.floating, np.integer)

# past |u| = 2^500, log(1 + u^2) rounds to 2 log|u|; u^2 overflows at 1.3e154
_SQUARE_SAFE = 2.0 ** 500

_TAIL_MASS_TOL = 1e-6  # largest tail share a moment, a density or a draw may lose

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

_KERNEL_BLOCK = 2 ** 16  # entries of the series' kernel grid held at a time
_PMF_MAX_TERMS = 10_000  # terms a pmf side may take to reach 1 - tail_tol
_PMF_TAIL_TOL = 1e-12  # the pmf mass a side drops: the package's one cut


def _check_count(n, least: int, what: str) -> None:
    """Raise DomainError unless n is a Python or numpy integer >= least."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"{what} needs an integer n, got {n!r}")
    if n < least:
        raise DomainError(f"{what} needs n >= {least}, got {n}")


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
        # the product cf's coefficients, one tuple of floats per component:
        # the shapes and the scales 1/lam_j, 1/mu_j of z
        columns = (self.p, self.w1 / self.alpha, self.q, self.w2 / self.beta)
        object.__setattr__(self, "_cf_rows",
                           tuple(zip(*(c.tolist() for c in columns))))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_components(cls, components) -> "LinearCombinationModel":
        """Build from an iterable of (alpha, p, beta, q, w1, w2) tuples."""
        try:
            cols = list(zip(*components, strict=True))
        except ValueError:
            cols = ()
        if len(cols) != 6:
            raise DomainError("each component needs exactly 6 entries")
        return cls(*cols)

    @classmethod
    def from_json_obj(cls, obj) -> "LinearCombinationModel":
        """Parse the model document {"components": [{"alpha": ..., ...}]}.

        Rejects malformed input naming the offending component index and
        field; a value the constructor rejects (not finite and > 0) is
        re-raised as ModelFileError with the constructor's message.
        """
        if not isinstance(obj, dict) or "components" not in obj:
            raise ModelFileError("model document must contain a 'components' list")
        comps = obj["components"]
        if not isinstance(comps, list) or not comps:
            raise ModelFileError("'components' must be a non-empty list")
        rows = [read_fields(entry, f"component {i}", _FIELDS).values()
                for i, entry in enumerate(comps)]
        try:
            return cls.from_components(rows)
        except DomainError as exc:
            raise ModelFileError(str(exc)) from None

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

        on real z, from its modulus and phase: with u_j = z w1_j/alpha_j and
        v_j = z w2_j/beta_j,

            log|cf| = -sum_j (p_j log(1 + u_j^2) + q_j log(1 + v_j^2)) / 2,
            arg cf  =  sum_j (p_j atan u_j - q_j atan v_j),

        added one component at a time, in order, each log(1 + u^2) by
        ``_log1p_square``.  A real scalar z, as QUADPACK passes its nodes
        one at a time, goes through ``math`` and returns a complex; any
        other z through numpy over z's own shape (a 0-d z returns a
        complex), elementwise, so an entry does not depend on the others.
        A complex z raises DomainError.
        """
        if isinstance(z, _REAL_SCALARS):
            z, atan, log1p_square = float(z), math.atan, _log1p_square_float
        else:
            z = np.asarray(z)
            if z.dtype.kind not in "biuf":
                raise DomainError(f"the product cf takes a real z, got {z.dtype}")
            z = z.astype(float, copy=False)
            atan, log1p_square = np.arctan, _log1p_square
        log_mod = phase = 0.0
        for p, scale_u, q, scale_v in self._cf_rows:
            u, v = z * scale_u, z * scale_v
            log_mod -= 0.5 * (p * log1p_square(u) + q * log1p_square(v))
            phase += p * atan(u) - q * atan(v)
        if isinstance(z, float):
            modulus = math.exp(log_mod)
            return complex(modulus * math.cos(phase), modulus * math.sin(phase))
        modulus, val = np.exp(log_mod), np.empty(z.shape, dtype=complex)
        np.multiply(modulus, np.cos(phase), out=val.real)
        np.multiply(modulus, np.sin(phase), out=val.imag)
        return complex(val) if val.ndim == 0 else val

    def mgf(self, z: float) -> float:
        """Moment generating function on the strip (-mu_min, lam_min);
        a value past the largest double raises NonFiniteResultError."""
        if not (-self.mu_min < z < self.lam_min):
            raise OutOfStripError(
                f"mgf argument {z} outside strip ({-self.mu_min}, {self.lam_min})")
        log_mgf = (np.sum(self.p * np.log(self.lam / (self.lam - z)))
                   + np.sum(self.q * np.log(self.mu / (self.mu + z))))
        if log_mgf > _LOG_FLOAT_MAX:
            raise NonFiniteResultError(
                f"mgf({z}) overflows a double: log mgf = {log_mgf:.6g}")
        return float(np.exp(log_mgf))

    def levy_density(self, u: float) -> float:
        """Density of the Levy measure

        (1/u) sum_j [ p_j e^(-lam_j u) 1(u>0) - q_j e^(-mu_j |u|) 1(u<0) ],

        positive on both half-lines and 0 at u = +-inf.
        """
        if u == 0.0 or math.isnan(u):
            raise DomainError(f"Levy density undefined at u = {u}")
        if u > 0.0:
            return float(np.sum(self.p * np.exp(-self.lam * u)) / u)
        return float(np.sum(self.q * np.exp(-self.mu * (-u))) / (-u))

    def cumulant(self, k: int) -> float:
        """k-th cumulant (k-1)! sum_j [p_j/lam_j^k + (-1)^k q_j/mu_j^k],
        which equals int u^k against the Levy measure; raises
        NonFiniteResultError where (k-1)! overflows a double."""
        _check_count(k, 1, "the cumulant of order n")
        try:
            return math.factorial(k - 1) * float(
                np.sum(self.p / self.lam ** k) + (-1) ** k * np.sum(self.q / self.mu ** k))
        except OverflowError:
            raise NonFiniteResultError(
                f"cumulant({k}): (k-1)! overflows a double") from None

    @property
    def mean(self) -> float:
        return self.cumulant(1)

    @property
    def variance(self) -> float:
        return self.cumulant(2)

    def pdf_fourier(self, x):
        """Density by Fourier inversion of the product-form cf, on a float x
        (a float out) or an array of them (an array out), at any x != 0,
        and at x = 0 when the total shape s = sum_j (p_j + q_j) exceeds 1.
        For s <= 1 the cf, ~|z|^-s, is not absolutely integrable, but the
        inversion converges at x != 0 by Dirichlet's test; the density is
        infinite at 0, and a grid holding 0 raises SingularPointError
        before any quadrature.  Small negative quadrature values (above
        -1e-8) are clamped to zero; a value below names its x.
        """
        xs = np.asarray(x, dtype=float)
        if self.p_total + self.q_total <= 1.0 and (xs == 0.0).any():
            raise SingularPointError(
                "density is infinite at x = 0 when the total shape is <= 1")
        raw = np.asarray(fourier_density(self.cf, xs))
        if (negative := np.flatnonzero(raw < -1e-8)).size:
            i = negative[0]
            raise NonConvergenceError(
                f"inverted density materially negative at "
                f"x={xs.flat[i].item()}: {raw.flat[i].item()}")
        out = np.maximum(raw, 0.0)
        return out if xs.ndim else float(out)


def _log1p_square(u):
    """log(1 + u^2) of an array u, also where u^2 overflows (|u| past
    1.3e154): bitwise log1p(u * u) up to |u| = 2^500, and past there
    2 log|u|, which it is within u^-2."""
    with np.errstate(over="ignore"):  # an array out for a 0-d u too
        out = np.log1p(np.square(u), out=np.empty(np.shape(u)))
    if (past := np.flatnonzero(np.abs(u) > _SQUARE_SAFE)).size:  # rare
        out.flat[past] = 2.0 * np.log(np.abs(np.ravel(u)[past]))
    return out


def _log1p_square_float(u: float) -> float:
    """``_log1p_square`` of a float."""
    a = abs(u)
    return 2.0 * math.log(a) if a > _SQUARE_SAFE else math.log1p(a * a)


def read_json(path, what: str = "model"):
    """Parse the JSON document at ``path``, the ``what`` file of a command
    (a model, pricing or target file).  A missing, unreadable, non-UTF-8
    or malformed file raises ModelFileError naming ``what`` and ``path``."""
    if not os.path.isfile(path):
        raise ModelFileError(f"{what} file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON in {what} file {path}: {exc}") from exc


def read_fields(obj, what: str, required, optional=()) -> dict:
    """The named fields of the JSON object ``obj`` as floats: every
    ``required`` name, and each ``optional`` name that is present.  A
    document that is not an object, a missing field or a value that is not
    a number raises ModelFileError naming ``what``, the field and the value."""
    if not isinstance(obj, dict):
        raise ModelFileError(f"{what}: expected an object")
    fields = {}
    for name in (*required, *(n for n in optional if n in obj)):
        if name not in obj:
            raise ModelFileError(f"{what}: missing field '{name}'")
        value = obj[name]
        # JSON numbers only: float() would also take "2.5" and true
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelFileError(f"{what}: field '{name}' is not a number: "
                                 f"{value!r}")
        try:
            fields[name] = float(value)
        except OverflowError:
            raise ModelFileError(
                f"{what}: field '{name}' overflows a double") from None
    return fields


def load_model(path) -> LinearCombinationModel:
    """Load a model JSON document from disk; see :func:`read_json`."""
    return LinearCombinationModel.from_json_obj(read_json(path))


def _mixture_pmf(theta: np.ndarray, shapes: np.ndarray, log_mass0: float,
                 tail_tol: float) -> np.ndarray:
    """Shape-mixing pmf for one side of the combination.

    P(0) = exp(log_mass0), P(k) = P(0) * g_k with g_0 = 1 and

        g_k = (1/k) sum_{i=1}^{k} s_i g_{k-i},   s_i = sum_j shapes_j theta_j^i,

    grown until the retained mass, a compensated sum (Neumaier 1974),
    reaches 1 - tail_tol: at the first K where ``math.fsum`` does.  Returns
    the truncated pmf.  Swapping the two sums gives the recursion that runs:

        g_k = (1/k) sum_j shapes_j h_j(k),
        h_j(k) = theta_j (h_j(k-1) + g_{k-1}),   h_j(0) = 0,

    O(n) work and state per step, so K terms cost O(nK) flops (K = 5.5k
    at n = 3 takes about 3 ms).  Every term is nonnegative, so nothing
    cancels, and components with theta_j = 0 drop out.  g and h are
    carried in units of a power of two, rescaled by 2**-512 whenever g
    passes 2**512, so P(k) = g * scale never overflows however small P(0)
    is.  A subnormal P(0) starts the recursion at g_0 = e^-64 against a
    normal scale, so the later entries keep full precision.  P(0)
    underflowing to 0, or the mass short of 1 - tail_tol after
    ``_PMF_MAX_TERMS`` terms, is an error.
    """
    mass0 = math.exp(log_mass0)
    if mass0 == 0.0:
        raise TruncationFailureError(
            f"pmf mass at 0 underflows: log P(0) = {log_mass0:.6g}")
    shift = 64.0 if mass0 < 2.0 ** -1022 else 0.0   # P(0) subnormal
    g, scale = math.exp(-shift), math.exp(log_mass0 + shift)
    keep = theta > 0.0
    th, sh = theta[keep].tolist(), shapes[keep].tolist()
    h = [0.0] * len(th)
    idx = range(len(th))
    rescale_at = 2.0 ** 512
    pmf = [mass0]
    acc, lost, k = mass0, 0.0, 0   # the mass is acc + lost
    while acc + lost < 1.0 - tail_tol:
        k += 1
        if k > _PMF_MAX_TERMS:
            # the terms left add at most p_k rho / (1 - rho); if 10 times
            # that cannot close the gap, no cap can: tail_tol is too small
            rho = max(pmf[-1] / pmf[-2] if pmf[-1] else 0.0, max(th))
            left = pmf[-1] * rho / (1.0 - rho) if rho < 1.0 else math.inf
            why = (f"tail_tol {tail_tol:g} is below the computed pmf's "
                   f"precision floor: pmf mass {acc + lost:.17g}"
                   if acc + lost + 10.0 * left < 1.0 - tail_tol else
                   f"pmf mass {acc + lost:.17g} below 1 - {tail_tol:g}")
            raise TruncationFailureError(f"{why} after {_PMF_MAX_TERMS} terms")
        total = 0.0
        for j in idx:
            v = th[j] * (h[j] + g)
            h[j] = v
            total += sh[j] * v
        g = total / k
        if g > rescale_at:
            g = math.ldexp(g, -512)
            h = [math.ldexp(v, -512) for v in h]
            scale = math.ldexp(scale, 512)
        pk = g * scale
        pmf.append(pk)
        t = acc + pk
        lost += (acc - t) + pk if acc >= pk else (pk - t) + acc
        acc = t
    return np.array(pmf)


def _completed_series(log_terms, r):
    """Sum of exp(log_terms) over the last axis plus the geometric tail
    of ratio r (a scalar or one per row, in [0, 1); callers reject r >= 1
    with their own error) past the last term, exact when the dropped terms
    shrink by exactly r.  Returns (completed sum, completion)."""
    terms = np.exp(log_terms)
    tail = terms[..., -1] * r / (1.0 - r)
    return terms.sum(axis=-1) + tail, tail


# The one dropped-mass rule, for the readers that take a pmf as the whole
# law: the densities and the mixture sampler.  The cf and the pmf-weighted
# series (moments, the gamma-only price) complete or bound their tails.
def _require_mass(**sides: GammaMixture) -> None:
    """Refuse each named side whose pmf dropped more than _TAIL_MASS_TOL."""
    for name, side in sides.items():
        if (dropped := 1.0 - side.pmf.sum()) > _TAIL_MASS_TOL:
            raise TruncationFailureError(
                f"the {name} pmf drops mass {dropped:.3g} > {_TAIL_MASS_TOL:g}"
                "; rebuild the mixture with a smaller tail_tol")


def log_hyperint_blocks(grids) -> list:
    """For each grid (a0, b0, x, rows, cols) of ``grids``, an iterator of
    (i, j, L) for blocks L = G[i:i + m, j:j + n] that tile the grid
    G[i, j] = log I(a0 + i, b0 + i + j, x), i < rows, j < cols, for I the
    integral of ``log_hyperint``, which gives two entries of every grid in
    one call.  The rest follow from three exact relations, each run in a
    stable direction (only (B) subtracts, forward in b, where U is the
    dominant solution):

    * (D) (a0 + k) d_k + (b0 + k - x) d_(k+1) = x d_(k+2), by parts on
      d/dt [t^(a0+k) (1+t)^(b0-a0) e^(-xt)], gives the first column
      d_k = I(a0 + k, b0 + k), run both ways from k0 = ceil(x - b0);
    * (B) x I(a, b+1) = (b - 1 + x) I(a, b) - (b - a - 1) I(a, b-1)
      (DLMF 13.3.8) fills the last row;
    * (A) I(a, b+1) = I(a, b) + I(a+1, b+1) (13.3.10) gives the last
      row's second entry from d_rows, and the rest along the grid's
      shorter side: each row a running sum of the one below, or each
      column from the one before, in blocks of about _KERNEL_BLOCK.

    Each grid's blocks are bitwise what they would be alone.
    """
    starts, args = [], []
    for a0, b0, x, rows, cols in grids:
        if rows < 1 or cols < 1 or not 0.0 < x < math.inf:
            raise DomainError(f"require rows, cols >= 1 and a finite x > 0, "
                              f"got rows={rows}, cols={cols}, x={x}")
        # the diagonal runs one step past the last row if it has a 2nd entry
        n = rows + (cols > 1)
        k0 = min(max(math.ceil(x - b0), 0), max(n - 2, 0))
        starts.append((k0, len(args), len(args) + min(n, 2)))
        args += [(a0 + k0 + s, b0 + k0 + s, x) for s in (0.0, 1.0)[:n]]
    seeds = log_hyperint(*np.array(args).T).tolist() if args else []
    return [_kernel_grid(*grid, k0, seeds[begin:end])
            for grid, (k0, begin, end) in zip(grids, starts)]


def _kernel_grid(a0: float, b0: float, x: float, rows: int, cols: int,
                 k0: int, diag: list):
    """The blocks of one grid of ``log_hyperint_blocks`` from its seeds
    ``diag``, d_k0 and d_(k0+1) (d_k0 alone for a one-entry diagonal)."""
    n, head = rows + (cols > 1), []
    if n > 1:
        # (D) forward as a recurrence for the ratio d_(k+2) / d_(k+1)
        ratio = math.exp(diag[1] - diag[0])
        for k in range(k0, n - 2):
            ratio = ((a0 + k) / ratio + (b0 + k - x)) / x
            diag.append(diag[-1] + math.log(ratio))
        # (D) backward as a recurrence for the ratio d_k / d_(k+1)
        ratio = math.exp(diag[0] - diag[1])
        for k in range(k0 - 1, -1, -1):
            ratio = (x / ratio + (x - b0 - k)) / (a0 + k)
            head.append((head[-1] if head else diag[0]) + math.log(ratio))
    diag = head[::-1] + diag
    last = diag[rows - 1:rows]
    if cols > 1:
        last.append(float(np.logaddexp(diag[rows - 1], diag[rows])))
        # (B) as a recurrence for the ratio I(a, b+j+1) / I(a, b+j)
        a, b, ratio = a0 + rows - 1, b0 + rows - 1, math.exp(last[1] - last[0])
        for j in range(1, cols - 1):
            ratio = (b + j - 1.0 + x - (b + j - a - 1.0) / ratio) / x
            last.append(last[-1] + math.log(ratio))
    diag, last = np.array(diag[:rows]), np.array(last)
    wide, (lines, length) = rows <= cols, sorted((rows, cols))
    step = max(1, _KERNEL_BLOCK // length)   # whole rows, else columns
    for start in range(0, lines, step):
        block = np.empty((min(step, lines - start), length))
        for r, k in enumerate(range(start, start + len(block))):
            if k == 0:
                block[r] = last if wide else diag
            elif wide:   # row rows - 1 - k
                block[r, 0], block[r, 1:] = diag[rows - 1 - k], line[:-1]
                np.logaddexp.accumulate(block[r], out=block[r])
            else:        # column k
                block[r, -1] = last[k]
                np.logaddexp(line[:-1], line[1:], out=block[r, :-1])
            line = block[r]
        yield ((rows - start - len(block), 0, block[::-1]) if wide
               else (0, start, block.T))


@dataclass(frozen=True, eq=False)
class GammaMixture:
    """One side of the mixture, the law sum_n P(N=n) Ga(rate, shape + n):
    ``pmf`` is the truncated pmf of N and ``theta_max`` its largest tail
    ratio max_j (1 - rate_j/rate).  T's sides are (eta, p + L), (xi, q + M).
    """

    pmf: np.ndarray
    shape: float
    rate: float
    theta_max: float

    @classmethod
    def build(cls, rates: np.ndarray, shapes: np.ndarray,
              tail_tol: float = _PMF_TAIL_TOL) -> "GammaMixture":
        """The mixture law of sum_j Ga(rates_j, shapes_j), per ``_mixture_pmf``."""
        if not (0.0 < tail_tol < 1.0):
            raise DomainError("tail_tol must be in (0, 1)")
        rate = float(rates.max())
        theta = 1.0 - rates / rate
        log_mass0 = float(np.sum(shapes * np.log(rates / rate)))
        pmf = _mixture_pmf(theta, shapes, log_mass0, tail_tol)
        pmf.flags.writeable = False
        return cls(pmf, float(shapes.sum()), rate, float(theta.max()))

    def log_terms(self, log_x: float) -> np.ndarray:
        """log(P(N=n) rate^(shape+n) x^n / Gamma(shape+n)) for every n of
        the pmf: the factors of the n-th term of the density that depend
        on n; all but x^n are built once."""
        return self._log_weights + np.arange(len(self.pmf)) * log_x

    @functools.cached_property
    def _log_weights(self) -> np.ndarray:
        from scipy import special as sp
        n = np.arange(len(self.pmf))
        with np.errstate(divide="ignore"):
            return (np.log(self.pmf) + (self.shape + n) * math.log(self.rate)
                    - sp.gammaln(self.shape + n))

    def cf(self, z) -> np.ndarray:
        """sum_n P(N=n) (1 - iz/rate)^-(shape+n) on the real array z, in
        z's shape (a complex z raises DomainError).  Truncation error is
        bounded by the dropped pmf mass since every term has modulus <= 1.

        The series is a power sum in one ratio r per point, with its index
        split as n = B m + i, B = isqrt(K) (baby-step/giant-step, Paterson &
        Stockmeyer 1973): the B baby steps r^i, i < B, are one complex exp
        each, and the G = ceil(K/B) giant steps r^(shape + B m) are the
        running products of r^shape by r^B, so a point takes B + 2 exps
        and G - 1 complex products instead of K exps.  (Baby steps as
        running products too would compound the rounding of r over B
        steps.)  The pmf is laid out once per call as the zero-padded
        (G x B) matrix of its blocks P(N = B m + i), so a point's inner sums
        sum_i P(N = B m + i) r^i are one real (G x B) @ (B x 2) product of
        that matrix with the point's baby powers as (re, im) columns.  Every
        point's product has the same shape, so its rounding does not depend
        on the other points of the call or on how the grid is blocked.  One
        matrix product over the whole grid would be faster, but BLAS blocks
        such a product by the number of points, and a point's value would
        then change with the grid.  The points are taken in blocks of
        2**12 // B, so the (points x B) temporaries hold about 2**12 entries
        for any grid.
        """
        z = np.asarray(z)
        if z.dtype.kind not in "biuf":
            raise DomainError(f"the mixture cf takes a real z, got {z.dtype}")
        flat = z.astype(complex).reshape(-1)
        step = math.isqrt(len(self.pmf))
        giants = -(-len(self.pmf) // step)
        blocks = np.pad(self.pmf, (0, giants * step - len(self.pmf)))
        blocks = blocks.reshape(giants, step)
        rows = max(1, 2 ** 12 // step)
        val = np.empty(flat.shape, dtype=complex)
        for start in range(0, len(flat), rows):
            log_r = -np.log(1.0 - 1j * flat[start:start + rows, None] / self.rate)
            baby = np.exp(np.arange(step) * log_r)
            inner = np.matmul(blocks, baby.view(float).reshape(len(log_r), step, 2))
            giant = np.empty((len(log_r), giants), dtype=complex)
            giant[:, :1] = np.exp(self.shape * log_r)
            giant[:, 1:] = np.exp(step * log_r)
            np.multiply.accumulate(giant, axis=1, out=giant)
            val[start:start + rows] = (inner.view(complex)[..., 0] * giant).sum(axis=-1)
        return val.reshape(z.shape)

    def factorial_sums(self, k: int):
        """Ascending-factorial sums sum_n P(N=n) (n + shape)_r for r = 0..k.

        Returns the completed sums, the size of each geometric tail
        completion and its ratio rho_r = theta_max (n + shape + r)/(n +
        shape) at the last retained n, near that of consecutive tail terms
        (0 for a one-term pmf, which has no tail).  A row with rho_r >= 1
        means nothing; each reader refuses the rows it takes.  Row r is the
        same at every k >= r.  log (a)_r is the running sum of log(a + i),
        i < r: k logs per term, where a difference of log-gammas cancels.
        """
        a = np.arange(len(self.pmf)) + self.shape
        log_rising = np.zeros((k + 1, len(a)))
        for r in range(k):
            np.add(log_rising[r], np.log(a + r), out=log_rising[r + 1])
        rho = np.zeros(k + 1)
        if self.theta_max > 0.0 and len(a) > 1:
            rho = self.theta_max * (a[-1] + np.arange(k + 1)) / a[-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return (*_completed_series(np.log(self.pmf) + log_rising, rho), rho)

    def pdf(self, x: float) -> float:
        """Density of the mixture (the gamma-combination density),

        sum_n P(N=n) rate^(shape+n) x^(shape+n-1) e^(-rate x) / Gamma(shape+n),  x > 0.
        """
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(
                f"gamma-mixture density needs a finite x > 0, got x={x}")
        _require_mass(mixture=self)
        log_x = math.log(x)
        return float(np.exp((self.shape - 1.0) * log_x - self.rate * x
                            + self.log_terms(log_x)).sum())


@dataclass(frozen=True, eq=False)
class MixtureRepresentation:
    """Randomised-shape mixture of one linear combination, T ~ BG(eta,
    p + L, xi, q + M): the positive side ``pos`` minus the independent
    negative side ``neg``.  Immutable; every method is a pure function.
    """

    pos: GammaMixture
    neg: GammaMixture

    # read-only aliases for the benchmark tracer's term counter
    # (perfbench/spans.py); they go once it reads pos.pmf and neg.pmf
    pmf_pos = property(lambda self: self.pos.pmf)
    pmf_neg = property(lambda self: self.neg.pmf)

    # -- transforms ---------------------------------------------------------

    def cf(self, z):
        """Mixture form of the cf on a real z, pos.cf(z) * neg.cf(-z) =
        sum_{j,k} P(L=j) P(M=k) (1 - iz/eta)^-(p+j) (1 + iz/xi)^-(q+k)."""
        z = np.asarray(z)
        val = self.pos.cf(z) * self.neg.cf(-z)
        return complex(val) if val.ndim == 0 else val

    # -- moments -------------------------------------------------------------

    def moment(self, k: int) -> float:
        """E[T^k] by the binomial expansion over the two gamma mixtures:

        sum_{j=0}^{k} C(k,j) (-1)^j eta^-(k-j) xi^-j
            * sum_l P(L=l) (l+p)_{k-j} * sum_m P(M=m) (m+q)_j

        with (y)_r the ascending factorial.  Each inner series is the
        truncated sum plus its geometric tail completion, which must
        contract (a one-term pmf, with none, must pass _require_mass); when
        the completed share exceeds _TAIL_MASS_TOL relative to the result
        the pmf is too shallow for this order and the call fails rather
        than report a value dominated by extrapolation.  A sum that
        overflows a double raises NonFiniteResultError.
        """
        _check_count(k, 1, "the moment of order n")
        return self._moment(k, self.pos.factorial_sums(k), self.neg.factorial_sums(k))

    def moments(self, kmax: int) -> list[float]:
        """[moment(1), ..., moment(kmax)], each order judged as moment(k)
        judges it, from one factorial_sums table of order kmax per side."""
        _check_count(kmax, 1, "the moments up to order n")
        pos, neg = self.pos.factorial_sums(kmax), self.neg.factorial_sums(kmax)
        return [self._moment(k, pos, neg) for k in range(1, kmax + 1)]

    @np.errstate(over="ignore", invalid="ignore")
    def _moment(self, k: int, pos: tuple, neg: tuple) -> float:
        """moment(k) from rows 0..k of each side's factorial_sums."""
        for side, (_, _, rho) in ((self.pos, pos), (self.neg, neg)):
            if side.theta_max > 0.0 and len(side.pmf) == 1:
                _require_mass(mixture=side)
            if (rho[:k + 1] >= 1.0).any():
                r = int(np.argmax(rho >= 1.0))
                raise TruncationFailureError(
                    f"factorial series of order {r} has non-contracting tail "
                    f"(ratio {rho[r]:.4g}); rebuild the mixture with a smaller tail_tol")
        (pos_vals, pos_ext, _), (neg_vals, neg_ext, _) = pos, neg
        total = 0.0
        extrapolated = 0.0
        scale = 0.0
        for j in range(k + 1):
            try:
                w = (math.comb(k, j) * self.pos.rate ** -(k - j)
                     * self.neg.rate ** -j)
            except OverflowError:
                w = math.inf
            term = w * pos_vals[k - j] * neg_vals[j]
            total += (-1) ** j * term
            scale = max(scale, abs(term))
            extrapolated += w * (pos_ext[k - j] * neg_vals[j]
                                 + pos_vals[k - j] * neg_ext[j])
        if not math.isfinite(total):
            raise NonFiniteResultError(f"moment({k}) overflows a double")
        if extrapolated > _TAIL_MASS_TOL * max(1.0, scale):
            raise TruncationFailureError(
                f"moment({k}) extrapolated tail {extrapolated:.3g} exceeds "
                f"tolerance {_TAIL_MASS_TOL:g}; rebuild the mixture with a "
                f"smaller tail_tol")
        return float(total)

    # -- densities -----------------------------------------------------------

    def pdf_series(self, x):
        """Density by the mixture double series with hypergeometric kernel,
        on a float x (a float out) or an array of them (an array out).

        For x > 0 each (j, k) term is

            P(L=j) P(M=k) eta^(p+j) xi^(q+k) / (Gamma(p+j) Gamma(q+k))
            * e^(-eta x) x^(p+q+j+k-1) I(q+k, p+q+j+k, (eta+xi)x)

        with I(a, b, X) = int_0^inf e^(-Xt) t^(a-1) (1+t)^(b-a-1) dt =
        Gamma(a) U(a, b, X); for x < 0 the mirrored kernel swaps the roles
        of the two sides: e^(xi x) (-x)^(...) I(p+j, p+q+j+k, -(eta+xi)x).
        Every (j, k) pair of the pmfs is summed, so their truncation at
        ``tail_tol`` is the series' only one.  The kernels of a point form
        a grid whose rows step a and b together (k for x > 0, j for x < 0)
        and whose columns step b alone, which ``log_hyperint_blocks``
        fills, seeding every point's grid in one call.  A non-finite x
        raises DomainError and x = 0 SingularPointError, the first such x
        in grid order.
        """
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel().tolist()
        for v in flat:
            if not math.isfinite(v):
                raise DomainError(f"series density needs a finite x, got x={v}")
            if v == 0.0:
                raise SingularPointError("series density not evaluated at x = 0")
        _require_mass(positive=self.pos, negative=self.neg)
        b0, rate = self.pos.shape + self.neg.shape, self.pos.rate + self.neg.rate
        # (index, |x|, row side, column side) of each x whose kernel argument
        # is finite: it overflows only far past where e^(-rate |x|) has
        # underflowed, and the density is 0 there, as it is at 1e300
        points = [(i, abs(v), *((self.neg, self.pos) if v > 0.0
                                else (self.pos, self.neg)))
                  for i, v in enumerate(flat) if math.isfinite(rate * abs(v))]
        grids = log_hyperint_blocks([(row.shape, b0, rate * ax, len(row.pmf),
                                      len(col.pmf)) for _, ax, row, col in points])
        out = np.zeros(len(flat))
        for (i, ax, row, col), blocks in zip(points, grids):
            log_ax = math.log(ax)
            f_row, f_col = row.log_terms(log_ax), col.log_terms(log_ax)
            const = (b0 - 1.0) * log_ax - col.rate * ax
            out[i] = math.fsum(np.exp(const + f_row[k:k + len(L), None]
                                      + f_col[j:j + L.shape[1]] + L).sum()
                               for k, j, L in blocks)
        return out.reshape(xs.shape) if xs.ndim else float(out[0])


def build_mixture(model: LinearCombinationModel,
                  tail_tol: float = _PMF_TAIL_TOL) -> MixtureRepresentation:
    """Construct the randomised-shape mixture of ``model``.

    Both pmfs are truncated at the first index where the exact retained
    mass reaches 1 - tail_tol, 0 < tail_tol < 1, by default the package's
    one cut ``_PMF_TAIL_TOL`` = 1e-12; failing to get there within
    ``_PMF_MAX_TERMS`` terms is an error, never silent.
    """
    return MixtureRepresentation(
        pos=GammaMixture.build(model.lam, model.p, tail_tol),
        neg=GammaMixture.build(model.mu, model.q, tail_tol),
    )
