"""Acceptance suite: one test per release criterion.

Each test prints its measured figures (visible with -s or on failure); the
pytest -v line is the pass/fail record per criterion.  Tolerances are
pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from bilgamma import (
    LinearCombinationModel,
    PricingInputs,
    RandomStream,
    bound_compound_poisson_k,
    bound_d3_bg,
    bound_d3_normal,
    build_mixture,
    empirical_kolmogorov,
    integrate_zero_to_inf,
    kappa_inputs,
    price_call_atm,
    price_call_gamma_series,
    price_call_integral,
    price_call_monte_carlo,
    sample_compound_poisson,
    sample_direct,
    sample_mixture,
    stein_identity_check,
)
from bilgamma.models import KAPPA_SINGLE, MARTINGALE, MODEL_GRID, PRICING_GAMMA
from bilgamma.stein import STEIN_TEST_FUNCTIONS
from conftest import KS_CRIT_001, block_cumulant_se, single


def test_c01_mixture_cf_identity():
    """Mixture cf equals product cf within 1e-8 + 2*tail_tol, 401 points on
    [-20, 20], under 10 s per model."""
    zs = np.linspace(-20.0, 20.0, 401)
    tail_tol = 1e-12
    tol = 1e-8 + 2.0 * tail_tol
    for name, model in MODEL_GRID.items():
        t0 = time.perf_counter()
        rep = build_mixture(model, tail_tol=tail_tol)
        err = float(np.abs(model.cf(zs) - rep.cf(zs)).max())
        elapsed = time.perf_counter() - t0
        print(f"C1 {name}: sup|cf diff| = {err:.3e} ({elapsed:.2f}s)")
        assert err <= tol, name
        assert elapsed < 10.0, name
    assert len(MODEL_GRID) >= 6
    assert {m.n for m in MODEL_GRID.values()} == {1, 2, 5}


def test_c02_laplace_closed_form():
    """Inverted density of the balanced unit-shape law matches
    (alpha/2) e^(-alpha |x|) within 1e-7, under 5 s."""
    t0 = time.perf_counter()
    xs = np.linspace(-5.0, 5.0, 41)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        model = single(alpha, 1.0, alpha, 1.0)
        closed = 0.5 * alpha * np.exp(-alpha * np.abs(xs))
        vals = np.array([model.pdf_fourier(float(x)) for x in xs])
        worst = max(worst, float(np.abs(vals - closed).max()))
    elapsed = time.perf_counter() - t0
    print(f"C2 max |pdf - closed form| = {worst:.3e} ({elapsed:.2f}s)")
    assert worst <= 1e-7
    assert elapsed < 5.0


def test_c03_density_route_agreement():
    """Series and Fourier densities agree within 1e-6 on 101 points of
    [-5, 5] minus the origin; the density integrates to 1 within 1e-6."""
    xs = [x for x in np.linspace(-5.0, 5.0, 101) if x != 0.0]
    for name, model in MODEL_GRID.items():
        rep = build_mixture(model, tail_tol=1e-10)
        worst = max(abs(rep.pdf_series(float(x)) - model.pdf_fourier(float(x)))
                    for x in xs)
        # window with Chernoff-level tail below 1e-9, then adaptive quad
        sd = math.sqrt(model.variance)
        lo, hi = model.mean - 40.0 * sd, model.mean + 40.0 * sd
        total = quad(lambda x: model.pdf_fourier(x), lo, hi,
                     epsabs=1e-8, epsrel=1e-8, limit=400)[0]
        print(f"C3 {name}: route diff {worst:.3e}, |norm-1| {abs(total-1):.3e}")
        assert worst <= 1e-6, name
        assert abs(total - 1.0) <= 1e-6, name


def test_c04_cumulant_triple_agreement():
    """Closed-form cumulants match quadrature of the Levy-measure integral
    to relative 1e-8 (k = 1..4) and 1e6-sample cumulants to 4 SE."""
    for name, model in MODEL_GRID.items():
        for k in range(1, 5):
            pos = integrate_zero_to_inf(
                lambda u, k=k: u ** k * model.levy_density(u))
            neg = integrate_zero_to_inf(
                lambda u, k=k: (-u) ** k * model.levy_density(-u))
            closed = model.cumulant(k)
            assert abs(pos + neg - closed) <= 1e-8 * max(1e-12, abs(closed)), \
                (name, k)
        draws = sample_direct(model, 1_000_000, RandomStream(1404))
        for k in range(1, 5):
            est, se = block_cumulant_se(draws, k)
            dev = abs(model.cumulant(k) - est)
            assert dev <= 4.0 * se, (name, k, dev, se)
        print(f"C4 {name}: quadrature and sample cumulants agree")


def test_c05_stein_identity():
    """E[A f(T)] is statistically zero (|estimate| <= 4 SE at N = 1e6) for
    the three shipped test functions, under 60 s per (model, f)."""
    for i, (name, model) in enumerate(MODEL_GRID.items()):
        for f in STEIN_TEST_FUNCTIONS:
            t0 = time.perf_counter()
            est, se = stein_identity_check(model, f, 1_000_000,
                                           RandomStream(505, i))
            elapsed = time.perf_counter() - t0
            print(f"C5 {name}/{f.name}: est {est:+.2e} (se {se:.2e}, "
                  f"{elapsed:.1f}s)")
            assert abs(est) <= 4.0 * se, (name, f.name)
            assert elapsed < 60.0, (name, f.name)


def test_c06_compound_poisson_convergence():
    """Empirical Kolmogorov distance to the target is nonincreasing in the
    order m (up to twice the KS sampling noise), lies below the bound with
    the constant fitted at m = 1, and the fitted log-log slope is at most
    -1/5 + 0.1."""
    model = MODEL_GRID["pair_integer"]
    n = 100_000
    orders = [1, 2, 4, 8, 16, 32, 64]
    reference = sample_direct(model, n, RandomStream(606, 0))
    dks = []
    for i, m in enumerate(orders):
        z = sample_compound_poisson(model, m, n, RandomStream(606, i + 1))
        dks.append(empirical_kolmogorov(z, reference))
    noise = KS_CRIT_001 * math.sqrt(2.0 / n)
    print("C6 d_K:", [f"{d:.4f}" for d in dks])
    for a, b in zip(dks, dks[1:]):
        assert b <= a + 2.0 * noise
    c_fit = dks[0] / bound_compound_poisson_k(model, 1)
    for m, dk in zip(orders, dks):
        assert dk <= c_fit * bound_compound_poisson_k(model, m) + 1e-12
    slope = float(np.polyfit(np.log(orders), np.log(dks), 1)[0])
    print(f"C6 log-log slope = {slope:.3f}")
    assert slope <= -0.2 + 0.1


def test_c07_d3_bound_consistency():
    """Every defined (model, target) bound dominates the Monte Carlo sine
    discrepancy within 4 SE; the single-component self-target bound is
    identically zero."""
    targets = [(2.0, 1.0, 2.0, 1.0), (1.5, 0.8, 2.5, 1.2)]
    n = 1_000_000
    pairs = 0
    for name, model in MODEL_GRID.items():
        try:
            kappa_inputs(model)
        except Exception:
            print(f"C7 {name}: amplification factor undefined, skipped")
            continue
        t = sample_direct(model, n, RandomStream(707, 0))
        sin_t = np.sin(t)
        for params in targets:
            target = single(*params)
            z = sample_direct(target, n, RandomStream(707, 1))
            sin_z = np.sin(z)
            diff = abs(sin_t.mean() - sin_z.mean())
            se = math.sqrt(sin_t.var(ddof=1) / n + sin_z.var(ddof=1) / n)
            bound = bound_d3_bg(model, target)
            print(f"C7 {name} vs BG{params}: bound {bound:.3f}, |diff| {diff:.4f}")
            assert bound >= diff - 4.0 * se, (name, params)
            pairs += 1
    assert pairs >= 4
    self_target = single(2.0, 1.3, 2.0, 0.7)
    assert bound_d3_bg(KAPPA_SINGLE, self_target) == pytest.approx(0.0,
                                                                   abs=1e-14)


def test_c08_normal_limit_scaling():
    """The normal-target bound decreases strictly along the
    variance-matched scaling w = 1/sqrt(n), rates n, shapes n^2/2 at
    n in {4, 16, 64} (each combination has unit variance)."""
    vals = []
    for n in (4, 16, 64):
        rows = [(float(n), 0.5 * n * n, float(n), 0.5 * n * n,
                 1.0 / math.sqrt(n), 1.0 / math.sqrt(n))] * n
        model = LinearCombinationModel.from_components(rows)
        assert model.variance == pytest.approx(1.0, rel=1e-12)
        vals.append(bound_d3_normal(model, 1.0))
    print("C8 bounds:", [f"{v:.5f}" for v in vals])
    assert vals[0] > vals[1] > vals[2]


def test_c09_pricing_agreement():
    """Integral, gamma-series, and 1e7-draw Monte Carlo prices agree
    pairwise within max(1e-4 relative, 4 SE); the at-the-money closed form
    matches the integral within 1e-4 relative.  Under 120 s."""
    t0 = time.perf_counter()
    model = PRICING_GAMMA
    inputs = PricingInputs(s0=1.0, strike=1.2, rate=0.05, maturity=1.0)
    p_int = price_call_integral(model, inputs)
    p_ser, _ = price_call_gamma_series(model, inputs)
    p_mc, se = price_call_monte_carlo(model, inputs, 10_000_000,
                                      RandomStream(909))
    print(f"C9 integral {p_int:.6f}, series {p_ser:.6f}, "
          f"mc {p_mc:.6f} (+-{se:.1e})")
    assert abs(p_int - p_ser) <= 1e-4 * max(p_int, p_ser)
    assert abs(p_int - p_mc) <= max(1e-4 * p_int, 4.0 * se)
    assert abs(p_ser - p_mc) <= max(1e-4 * p_ser, 4.0 * se)
    atm_inputs = PricingInputs(s0=1.0, strike=1.0, rate=0.05, maturity=1.0)
    p_atm, _ = price_call_atm(model, atm_inputs)
    p_atm_int = price_call_integral(model, atm_inputs)
    print(f"C9 atm closed {p_atm:.6f}, atm integral {p_atm_int:.6f}")
    assert abs(p_atm - p_atm_int) <= 1e-4 * p_atm
    elapsed = time.perf_counter() - t0
    print(f"C9 elapsed {elapsed:.1f}s")
    assert elapsed < 120.0


def test_c10_martingale_calibration():
    """With rate - dividend set to log E[e^(X_1)], the discounted price at
    t = 1 has empirical mean 1 within 4 SE over 1e6 draws."""
    model = MARTINGALE
    log_m = math.log(model.mgf(1.0))
    n = 1_000_000
    draws = sample_direct(model, n, RandomStream(1010))
    discounted = np.exp(draws - log_m)
    se = discounted.std(ddof=1) / math.sqrt(n)
    dev = abs(discounted.mean() - 1.0)
    print(f"C10 discounted mean deviation {dev:.2e} (se {se:.2e})")
    assert dev <= 4.0 * se


def test_c11_sampling_equivalence():
    """Two-sample Kolmogorov distance between direct and mixture samplers
    exceeds the level-0.01 critical value in at most 1 of 20 seeded
    repetitions per model (N = 1e5 each)."""
    n = 100_000
    crit = KS_CRIT_001 * math.sqrt(2.0 / n)
    for name, model in MODEL_GRID.items():
        rep = build_mixture(model, tail_tol=1e-10)
        rejections = 0
        for r in range(20):
            a = sample_direct(model, n, RandomStream(1111 + r, 0))
            b = sample_mixture(rep, n, RandomStream(1111 + r, 1))
            if empirical_kolmogorov(a, b) > crit:
                rejections += 1
        print(f"C11 {name}: {rejections}/20 rejections")
        assert rejections <= 1, name
