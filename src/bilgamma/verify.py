"""Self-contained invariant suite behind the `bilgamma verify` command.

Runs the executable identities that tie the package together: the mixture
cf must reproduce the product cf, the Stein identity must hold in Monte
Carlo, mixture and direct sampling must agree in law, and the density
routes (near x = 0) and the pricing routes (on the gamma-driven model,
near the money too) must agree.  Deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import models as model_zoo
from .combo import _PMF_TAIL_TOL, build_mixture
from .errors import DomainError
from .pricing import (
    PricingInputs,
    price_call_atm,
    price_call_gamma_series,
    price_call_integral,
)
from .sampling import RandomStream, sample_direct, sample_mixture
from .stein import SIN_W3, empirical_kolmogorov, stein_identity_check

__all__ = ["run_suite"]

_KS_CRIT_001 = 1.628  # asymptotic two-sample critical coefficient at level 0.01


def _corrupted(rep):
    """Test hook: perturb the first recursion weight so the cf identity
    breaks detectably."""
    pmf = rep.pos.pmf.copy()
    if len(pmf) > 1:
        pmf[1] *= 1.001
    else:
        pmf[0] *= 0.999
    return dataclasses.replace(rep, pos=dataclasses.replace(rep.pos, pmf=pmf))


def run_suite(suite: str = "full", seed: int = 1,
              corrupt_gamma: bool = False) -> dict:
    """Run the invariant suite; returns a JSON-ready report.  The Monte
    Carlo checks also report their statistic's p-value."""
    if suite not in ("full", "quick"):
        raise DomainError(f"unknown suite {suite!r}")
    from scipy.special import kolmogorov  # deferred: importing stays scipy-free
    full = suite == "full"
    grid = model_zoo.MODEL_GRID
    checks: list[dict] = []

    def record(name, value, threshold, **extra):
        checks.append({"name": name, "value": value, "threshold": threshold,
                       "passed": bool(value <= threshold), **extra})

    # each shipped model's mixture at the package's pmf cut, which the cf
    # identity (on a corrupted copy if asked), the KS and the density read
    reps = {name: build_mixture(model) for name, model in grid.items()}

    # characteristic-function identity: mixture form against product form
    zs = np.linspace(-20.0, 20.0, 401)
    for name, model in grid.items():
        rep = _corrupted(reps[name]) if corrupt_gamma else reps[name]
        err = float(np.abs(model.cf(zs) - rep.cf(zs)).max())
        record(f"cf_identity[{name}]", err, 1e-8 + 2.0 * _PMF_TAIL_TOL)

    # Stein identity in Monte Carlo
    stein_models = list(grid.items()) if full else [("pair_nonint",
                                                     grid["pair_nonint"])]
    n_stein = 400_000 if full else 100_000
    for i, (name, model) in enumerate(stein_models):
        est, se = stein_identity_check(model, SIN_W3, n_stein,
                                       RandomStream(seed, 100 + i))
        record(f"stein_identity[{name}]", abs(est), 4.0 * se, std_error=se,
               p_value=math.erfc(abs(est) / (se * math.sqrt(2.0))))

    # sampling equivalence, two-sample Kolmogorov at level 0.01
    n_ks = 100_000 if full else 20_000
    crit = _KS_CRIT_001 * math.sqrt(2.0 / n_ks)
    ks_models = list(grid.items()) if full else [("pair_integer",
                                                  grid["pair_integer"])]
    for i, (name, model) in enumerate(ks_models):
        a = sample_direct(model, n_ks, RandomStream(seed, 200 + i))
        b = sample_mixture(reps[name], n_ks, RandomStream(seed, 300 + i))
        d = empirical_kolmogorov(a, b)
        record(f"sampling_equivalence[{name}]", d, crit,
               p_value=float(kolmogorov(d * math.sqrt(n_ks / 2.0))))

    # Fourier against series density near x = 0: the nodes must reach the mass
    near = np.array([-1e-6, 1e-6])
    record("density_agreement[near_zero]", max(float(np.abs(
        m.pdf_fourier(near) - reps[name].pdf_series(near)).max())
        for name, m in grid.items()), 1e-6)

    # pricing route agreement on the gamma-driven model, out of the money,
    # near it (where the Gil-Pelaez tails' level is near 0) and at it
    model = model_zoo.PRICING_GAMMA
    for label, strike, route, key in (
            ("otm", 1.2, price_call_gamma_series, "series"),
            ("near_money", 1.0000001, price_call_gamma_series, "series"),
            ("atm", 1.0, price_call_atm, "closed_form")):
        inputs = PricingInputs(s0=1.0, strike=strike, rate=0.05, maturity=1.0)
        integral = price_call_integral(model, inputs)
        other = route(model, inputs)[0]
        record(f"pricing_agreement[{label}]", abs(other - integral) / integral,
               1e-5, integral=integral, **{key: other})

    return {
        "suite": suite,
        "seed": seed,
        "corrupt_gamma": corrupt_gamma,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
