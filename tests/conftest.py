import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import quad

import bilgamma
from bilgamma import LinearCombinationModel, build_mixture
from bilgamma.combo import GammaMixture
from bilgamma.quadrature import integrate_zero_to_inf, log_hyperint
from bilgamma.models import (
    KAPPA_SINGLE,
    MARTINGALE,
    MODEL_GRID,
    PRICING_GAMMA,
)

KS_CRIT_001 = 1.628  # asymptotic two-sample coefficient at level 0.01


@pytest.fixture(scope="session")
def model_grid():
    return MODEL_GRID


@pytest.fixture(scope="session")
def mixture_grid():
    """Mixtures of the whole grid at certified tail mass 1e-12."""
    return {name: build_mixture(model, tail_tol=1e-12)
            for name, model in MODEL_GRID.items()}


@pytest.fixture(scope="session")
def mixture_grid_deep():
    """Deeper truncation for polynomially-weighted pmf sums (moments up to
    order 4 amplify the tail by the fourth power of the support size)."""
    return {name: build_mixture(model, tail_tol=1e-14)
            for name, model in MODEL_GRID.items()}


@pytest.fixture(scope="session")
def laplace_model():
    return MODEL_GRID["laplace"]


@pytest.fixture(scope="session")
def pair_integer():
    return MODEL_GRID["pair_integer"]


@pytest.fixture(scope="session")
def pair_nonint():
    return MODEL_GRID["pair_nonint"]


@pytest.fixture(scope="session")
def kappa_single():
    return KAPPA_SINGLE


@pytest.fixture(scope="session")
def pricing_gamma():
    return PRICING_GAMMA


@pytest.fixture(scope="session")
def martingale_model():
    return MARTINGALE


@pytest.fixture()
def builds(monkeypatch):
    """Count the mixture sides built (GammaMixture.build calls)."""
    calls = []
    build = GammaMixture.build.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(GammaMixture, "build", classmethod(counted))
    return calls


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    bilgamma, with ``args`` as its sys.argv[1:]."""
    src = str(Path(bilgamma.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def single(alpha, p, beta, q, w1=1.0, w2=1.0) -> LinearCombinationModel:
    return LinearCombinationModel.from_components([(alpha, p, beta, q, w1, w2)])


def bg_pdf(law, x: float) -> float:
    """Oracle density of BG(alpha, p, beta, q) at x != 0 by the one-sided
    convolution integral, independent of the package's density routes.

    ``law`` is a one-component model (its rates are alpha/w1, beta/w2) or
    the tuple (alpha, p, beta, q).  For x > 0 (x < 0 mirrored):

        h(x) = alpha^p beta^q / (Gamma(p) Gamma(q)) *
               e^(-alpha x) int_0^inf (x+s)^(p-1) s^(q-1) e^(-(alpha+beta)s) ds
    """
    if isinstance(law, LinearCombinationModel):
        assert law.n == 1
        law = (law.lam[0], law.p[0], law.mu[0], law.q[0])
    alpha, p, beta, q = map(float, law)
    assert x != 0.0, "the oracle covers x != 0"
    if x > 0.0:
        rate_out, shp_out, shp_in = alpha, p, q
    else:
        rate_out, shp_out, shp_in = beta, q, p
    ax = abs(x)
    c = alpha + beta
    # v = c s makes the exponential decay at unit rate
    log_pref = (p * math.log(alpha) + q * math.log(beta) - sp.gammaln(p)
                - sp.gammaln(q) - rate_out * ax - shp_in * math.log(c))

    def integral(f):
        return quad(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=2000)[0]

    def integrand(v):
        return (ax + v / c) ** (shp_out - 1.0) * v ** (shp_in - 1.0) * math.exp(-v)

    if shp_in < 1.0:
        # v = w^(1/shp_in) on [0, 1] removes the endpoint singularity
        inv = 1.0 / shp_in
        part0 = integral(lambda w: inv * (ax + w ** inv / c) ** (shp_out - 1.0)
                         * math.exp(-w ** inv))
    else:
        part0 = integral(integrand)
    part1 = integral(lambda u: integrand(1.0 + u / (1.0 - u)) / (1.0 - u) ** 2)
    return math.exp(log_pref) * (part0 + part1)


def pdf_series_pairwise(rep, x: float) -> float:
    """Oracle series density: every (j, k) pair's kernel by its own
    ``log_hyperint`` quadrature."""
    ax = abs(x)
    pos, neg = rep.pos, rep.neg
    lp_pos, lp_neg = np.log(pos.pmf), np.log(neg.pmf)
    lg_pos = sp.gammaln(pos.shape + np.arange(len(pos.pmf)))
    lg_neg = sp.gammaln(neg.shape + np.arange(len(neg.pmf)))
    total = 0.0
    for j in range(len(lp_pos)):
        for k in range(len(lp_neg)):
            b = pos.shape + neg.shape + j + k
            lt = (lp_pos[j] + lp_neg[k] + (pos.shape + j) * math.log(pos.rate)
                  + (neg.shape + k) * math.log(neg.rate) - lg_pos[j] - lg_neg[k]
                  + (b - 1.0) * math.log(ax))
            a, rate = ((neg.shape + k, pos.rate) if x > 0.0
                       else (pos.shape + j, neg.rate))
            total += math.exp(lt - rate * ax + log_hyperint(
                a, b, (pos.rate + neg.rate) * ax))
    return total


def stein_apply(model: LinearCombinationModel, f, x: float) -> float:
    """Oracle A f(x) by adaptive quadrature of the two exponential-kernel
    integrals, independent of the package's closed forms and fixed rule."""
    lam, mu = model.lam, model.mu
    p, q = model.p, model.q

    def pos(u):
        return float(f(x + u)) * float(np.sum(p * np.exp(-lam * u)))

    def neg(u):
        return float(f(x - u)) * float(np.sum(q * np.exp(-mu * u)))

    return (-x * float(f(x)) + integrate_zero_to_inf(pos)
            - integrate_zero_to_inf(neg))


def block_cumulant_se(draws: np.ndarray, k: int, blocks: int = 50):
    """Unbiased cumulant estimate and its standard error from block
    k-statistics."""
    from scipy.stats import kstat

    usable = len(draws) - len(draws) % blocks
    parts = draws[:usable].reshape(blocks, -1)
    stats = np.array([kstat(row, k) for row in parts])
    return float(stats.mean()), float(stats.std(ddof=1) / np.sqrt(blocks))


def chunked_direct_draws(model: LinearCombinationModel, n: int,
                         stream) -> np.ndarray:
    """The n direct draws the Monte Carlo estimators reduce: _CHUNK at a
    time from one generator, concatenated (one array, for the oracle)."""
    from bilgamma import sampling

    gen = stream.generator()
    return np.concatenate([
        sampling._gamma_sums(model, 1.0, min(sampling._CHUNK, n - lo), gen)
        for lo in range(0, n, sampling._CHUNK)])
