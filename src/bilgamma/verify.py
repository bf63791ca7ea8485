"""Self-contained invariant suite behind the `bilgamma verify` command.

Runs the executable identities that tie the package together: the mixture
cf must reproduce the product cf, the Stein identity must hold in Monte
Carlo, mixture and direct sampling must agree in law, and the pricing
routes must agree on the gamma-driven model.  Deterministic given the
seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import models as model_zoo
from .combo import build_mixture
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
    """Run the invariant suite; returns a JSON-ready report."""
    if suite not in ("full", "quick"):
        raise DomainError(f"unknown suite {suite!r}")
    full = suite == "full"
    grid = model_zoo.MODEL_GRID
    checks: list[dict] = []

    def record(name, value, threshold, **extra):
        checks.append({"name": name, "value": value, "threshold": threshold,
                       "passed": bool(value <= threshold), **extra})

    # characteristic-function identity: mixture form against product form
    zs = np.linspace(-20.0, 20.0, 401)
    tail_tol = 1e-12
    for name, model in grid.items():
        rep = build_mixture(model, tail_tol=tail_tol)
        if corrupt_gamma:
            rep = _corrupted(rep)
        err = float(np.abs(model.cf(zs) - rep.cf(zs)).max())
        record(f"cf_identity[{name}]", err, 1e-8 + 2.0 * tail_tol)

    # Stein identity in Monte Carlo
    stein_models = list(grid.items()) if full else [("pair_nonint",
                                                     grid["pair_nonint"])]
    n_stein = 400_000 if full else 100_000
    for i, (name, model) in enumerate(stein_models):
        est, se = stein_identity_check(model, SIN_W3, n_stein,
                                       RandomStream(seed, 100 + i))
        record(f"stein_identity[{name}]", abs(est), 4.0 * se, std_error=se)

    # sampling equivalence, two-sample Kolmogorov at level 0.01
    n_ks = 100_000 if full else 20_000
    crit = _KS_CRIT_001 * math.sqrt(2.0 / n_ks)
    ks_models = list(grid.items()) if full else [("pair_integer",
                                                  grid["pair_integer"])]
    for i, (name, model) in enumerate(ks_models):
        rep = build_mixture(model, tail_tol=1e-10)
        a = sample_direct(model, n_ks, RandomStream(seed, 200 + i))
        b = sample_mixture(rep, n_ks, RandomStream(seed, 300 + i))
        d = empirical_kolmogorov(a, b)
        record(f"sampling_equivalence[{name}]", d, crit)

    # pricing route agreement on the gamma-driven model
    model = model_zoo.PRICING_GAMMA
    inputs = PricingInputs(s0=1.0, strike=1.2, rate=0.05, maturity=1.0)
    pi_integral = price_call_integral(model, inputs)
    pi_series = price_call_gamma_series(model, inputs)[0]
    rel = abs(pi_series - pi_integral) / pi_integral
    record("pricing_agreement[otm]", rel, 1e-5, integral=pi_integral,
           series=pi_series)
    atm_inputs = PricingInputs(s0=1.0, strike=1.0, rate=0.05, maturity=1.0)
    pi_atm = price_call_atm(model, atm_inputs)[0]
    pi_atm_integral = price_call_integral(model, atm_inputs)
    rel_atm = abs(pi_atm - pi_atm_integral) / pi_atm
    record("pricing_agreement[atm]", rel_atm, 1e-5,
           integral=pi_atm_integral, closed_form=pi_atm)

    return {
        "suite": suite,
        "seed": seed,
        "corrupt_gamma": corrupt_gamma,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
