"""Random-variate generation with reproducible stream semantics.

Every sampler takes a RandomStream (anything else raises DomainError,
except the package's own _Resumed generator) and an integer count (see
combo._check_count); identical (seed, stream_id) pairs reproduce identical
draws.  The direct, path and compound-Poisson samplers share one kernel,
``_gamma_sums``, which draws the combination's Levy process at time t: by
gamma additivity that is the combination with every shape scaled by t.
Gamma variates come from numpy's exact rejection samplers (valid for
shapes below 1 as well).  Besides the n-array it returns, the kernel holds
one buffer of at most _CHUNK variates, scaled and summed in place.
Chunking keeps the component-major draw order (each side's n variates one
after another), so the generator consumes its bits as an unchunked draw
would and a seed reproduces earlier releases' draws bit for bit.  Parallel
Monte Carlo splits work by stream_id, so results depend on the stream
layout but never on the worker count.

The Monte Carlo estimators reduce _CHUNK draws at a time (``_direct_mean``,
each chunk one ``sample_direct`` call on a _Resumed generator) in
O(_CHUNK) memory at any n.  Up to _CHUNK draws their values are
bit-identical to the one-array mean and ``std(ddof=1) / sqrt(n)``; above
that a seed gives other, equally distributed, draws.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .combo import LinearCombinationModel, MixtureRepresentation, _check_count, _require_mass
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

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   and v >= 0 for v in astuple(self)):
            raise DomainError(
                f"seed and stream_id must be non-negative integers, got {self}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


class _Resumed:
    """A live generator in a RandomStream's place: each sampler call
    continues it where the last one stopped."""

    def __init__(self, gen: np.random.Generator):
        self.gen = gen


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, _Resumed):
        return rng.gen
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
    _check_count(n, 1, "a sample")
    return _gamma_sums(model, 1.0, n, _as_generator(rng))


def _direct_mean(sample: Callable, model: LinearCombinationModel, n: int,
                 rng, values: Callable[[np.ndarray], np.ndarray]
                 ) -> tuple[float, float]:
    """Mean of ``values`` over n >= 2 direct draws, and its standard error.

    ``sample`` is the caller's ``sample_direct``, called for _CHUNK draws
    at a time on one _Resumed generator from ``rng`` (so each chunk's
    draws pass through the name the caller imports, where perfbench's
    tracer counts them).  ``values`` maps each chunk (it may overwrite
    it), and the chunk's mean and centred sum of squares merge into the
    running ones by the pairwise update of Chan, Golub & LeVeque (1983).
    The first chunk sets them, so one chunk gives ``v.mean()``,
    ``v.std(ddof=1) / sqrt(n)`` bit for bit (and no inf * 0).  An
    overflow shows as a result that is not finite."""
    stream = _Resumed(_as_generator(rng))

    def moments(k: int) -> tuple[float, float]:
        vals = values(sample(model, k, stream))
        mean = float(vals.mean())
        vals -= mean
        return mean, float(np.square(vals, out=vals).sum())

    count = min(n, _CHUNK)
    mean, m2 = moments(count)
    while count < n:
        k = min(_CHUNK, n - count)
        chunk_mean, chunk_m2 = moments(k)
        total = count + k
        delta = chunk_mean - mean
        mean += delta * k / total
        m2 += chunk_m2 + delta * delta * count * k / total
        count = total
    return mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def sample_mixture(rep: MixtureRepresentation, n: int, rng) -> np.ndarray:
    """n i.i.d. draws through the randomised-shape route: draw the shape
    indices from the truncated pmfs, then Ga(eta, p+L) - Ga(xi, q+M).

    Residual pmf mass is assigned to the largest retained support point,
    keeping a proper distribution, once each side passes _require_mass.
    """
    _check_count(n, 1, "a sample")
    _require_mass(positive=rep.pos, negative=rep.neg)
    sides = (rep.pos, rep.neg)
    gen = _as_generator(rng)
    indices = []
    for side in sides:
        pmf = side.pmf.copy()
        pmf[-1] += max(0.0, 1.0 - pmf.sum())
        indices.append(gen.choice(len(pmf), p=pmf / pmf.sum(), size=n))
    # both index draws precede both gamma draws: seeded streams pin the order
    pos, neg = [gen.gamma(side.shape + idx, 1.0 / side.rate)
                for side, idx in zip(sides, indices)]
    return pos - neg


def _check_cp_order(m: int) -> None:
    """Raise DomainError unless m is a count (combo._check_count) of at most
    2**53, which a double holds exactly (numpy's Poisson sampler rejects more)."""
    _check_count(m, 1, "the compound-Poisson order m = n")
    if m > 2 ** 53:
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
    _check_count(n, 1, "a sample")
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
