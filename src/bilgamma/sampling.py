"""Random-variate generation with reproducible stream semantics.

Every sampler takes a RandomStream (anything else raises DomainError);
identical (seed, stream_id) pairs reproduce identical draws.  The direct, path and compound-Poisson samplers
share one kernel, ``_gamma_sums``, which draws the combination's Levy
process at time t: by gamma additivity that is the combination with every
shape scaled by t.  Gamma variates come from numpy's exact rejection
samplers (valid for shapes below 1 as well).  Besides the n-array it
returns, the kernel holds one buffer of at most _CHUNK variates, scaled and
summed in place.  Chunking keeps the component-major draw order (each
side's n variates one after another), so the generator consumes its bits
as an unchunked draw would and a seed reproduces earlier releases' draws
bit for bit.  Parallel Monte Carlo splits work by stream_id, so results
depend on the stream layout but never on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combo import LinearCombinationModel, MixtureRepresentation
from .errors import DomainError, GridError

__all__ = [
    "RandomStream",
    "sample_direct",
    "sample_mixture",
    "sample_compound_poisson",
    "sample_path",
]


@dataclass(frozen=True)
class RandomStream:
    """Seedable, platform-stable stream identity (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    raise DomainError(f"expected a RandomStream, got {type(rng)!r}")


_CHUNK = 2 ** 16  # gamma variates held in _gamma_sums' buffer at a time


def _gamma_sums(model: LinearCombinationModel, time, n: int,
                gen: np.random.Generator) -> np.ndarray:
    """n draws of the combination's Levy process at ``time`` (a scalar or
    n values): sum_j (w1_j Ga(p_j t, alpha_j) - w2_j Ga(q_j t, beta_j)),
    2 gamma variates per component and draw; t = 0 gives exactly 0.

    Each side's variates are drawn in chunks into one buffer and scaled in
    place by 1/rate, then by the weight: the same variates, in the same
    order and with the same roundings as ``w * gen.gamma(shape * time,
    1/rate, n)``."""
    out = np.zeros(n)
    buf = np.empty(min(n, _CHUNK))
    sides = [(model.p, model.alpha, model.w1, np.add),
             (model.q, model.beta, model.w2, np.subtract)]
    for j in range(model.n):
        for shape, rate, weight, combine in sides:
            for lo in range(0, n, _CHUNK):
                part = out[lo:lo + _CHUNK]
                chunk = buf[:len(part)]
                t = time if np.ndim(time) == 0 else time[lo:lo + _CHUNK]
                gen.standard_gamma(shape[j] * t, out=chunk)
                chunk *= 1.0 / rate[j]
                chunk *= weight[j]
                combine(part, chunk, out=part)
    return out


def sample_direct(model: LinearCombinationModel, n: int, rng) -> np.ndarray:
    """n i.i.d. draws of sum_j (w1_j X_j - w2_j Y_j), 2n gamma variates each."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    return _gamma_sums(model, 1.0, n, _as_generator(rng))


def sample_mixture(rep: MixtureRepresentation, n: int, rng) -> np.ndarray:
    """n i.i.d. draws through the randomised-shape route: draw the shape
    indices from the truncated pmfs, then Ga(eta, p+L) - Ga(xi, q+M).

    Residual pmf mass (at most the rep's tail_tol) is assigned to the
    largest retained support point, keeping a proper distribution.
    """
    if n < 1:
        raise DomainError("sample size must be >= 1")
    gen = _as_generator(rng)
    pmf_pos = rep.pmf_pos.copy()
    pmf_pos[-1] += max(0.0, 1.0 - pmf_pos.sum())
    pmf_neg = rep.pmf_neg.copy()
    pmf_neg[-1] += max(0.0, 1.0 - pmf_neg.sum())
    ell = gen.choice(len(pmf_pos), p=pmf_pos / pmf_pos.sum(), size=n)
    em = gen.choice(len(pmf_neg), p=pmf_neg / pmf_neg.sum(), size=n)
    draws = gen.gamma(rep.p + ell, 1.0 / rep.eta)
    draws -= gen.gamma(rep.q + em, 1.0 / rep.xi)
    return draws


def _check_cp_order(m: int) -> None:
    """Raise DomainError unless 1 <= m <= 2**53, the integers a double
    holds exactly (numpy's Poisson sampler rejects larger means)."""
    if not 1 <= m <= 2 ** 53:
        raise DomainError(f"compound-Poisson order m must be in [1, 2**53], got {m}")


def sample_compound_poisson(model: LinearCombinationModel, m: int, n: int,
                            rng) -> np.ndarray:
    """n draws of Z_m = sum_{i<=N} J_i with N ~ Poisson(m) and jumps J_i
    i.i.d. copies of the combination with all shapes scaled by 1/m.

    Given N jumps their sum is exactly the combination's Levy process at
    time N/m, so each draw takes 2 gamma variates per component whatever
    m is.  The cf is exp(m (phi^(1/m)(z) - 1)); N = 0 yields an exact atom
    at 0.  m runs from 1 to 2**53, the integers a double holds exactly.
    """
    _check_cp_order(m)
    if n < 1:
        raise DomainError("sample size must be >= 1")
    gen = _as_generator(rng)
    return _gamma_sums(model, gen.poisson(m, n) / m, n, gen)


def sample_path(model: LinearCombinationModel, t_grid, rng) -> np.ndarray:
    """One path of the associated Levy process on ``t_grid``.

    The grid must start at 0 and be finite and strictly increasing; the
    path starts at 0 and each increment over (s, t] is drawn exactly from
    the combination with shapes scaled by t - s (no Euler discretisation).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or t[0] != 0.0:
        raise GridError("time grid must be one-dimensional and start at 0")
    dt = np.diff(t)
    if not np.all((0.0 < dt) & (dt < np.inf)):
        raise GridError("time grid must be finite and strictly increasing")
    inc = _gamma_sums(model, dt, len(dt), _as_generator(rng))
    return np.concatenate([[0.0], np.cumsum(inc)])
