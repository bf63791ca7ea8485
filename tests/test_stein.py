import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from bilgamma import (
    DomainError,
    EmptySampleError,
    KappaUndefinedError,
    LinearCombinationModel,
    ModelMismatchError,
    RandomStream,
    bound_compound_poisson_k,
    bound_d3_bg,
    bound_d3_normal,
    bound_two_sums,
    empirical_kolmogorov,
    kappa_inputs,
    sample_direct,
    stein_identity_check,
)
from bilgamma.models import KAPPA_SINGLE, MODEL_GRID
from bilgamma.stein import (
    SIN_W3,
    STEIN_TEST_FUNCTIONS,
    TestFunction as SteinFunction,
    d3_bg_terms,
    stein_apply_batch,
)
from conftest import KS_CRIT_001, chunked_direct_draws, single, stein_apply


def sin_operator_closed_form(model, x):
    """A sin(x) from the exponential-kernel antiderivatives:
    int_0^inf sin(x+u) e^(-c u) du = (c sin x + cos x) / (1 + c^2)."""
    lam, mu = model.lam, model.mu
    pos = np.sum(model.p * (lam * np.sin(x) + np.cos(x)) / (1.0 + lam ** 2))
    neg = np.sum(model.q * (mu * np.sin(x) - np.cos(x)) / (1.0 + mu ** 2))
    return -x * np.sin(x) + float(pos) - float(neg)


class TestSteinOperator:
    def test_constant_function(self, pair_nonint):
        # A 1(x) = E[T] - x
        for x in (0.0, 1.3, -2.0):
            val = stein_apply(pair_nonint, lambda u: 1.0, x)
            assert val == pytest.approx(pair_nonint.cumulant(1) - x, abs=1e-10)

    def test_identity_function(self, pair_nonint):
        # A x(x) = -x^2 + x E[T] + Var[T]
        for x in (0.0, 0.8, -1.1):
            val = stein_apply(pair_nonint, lambda u: u, x)
            expected = (-x * x + x * pair_nonint.cumulant(1)
                        + pair_nonint.cumulant(2))
            assert val == pytest.approx(expected, abs=1e-9)

    def test_sine_closed_form(self, laplace_model):
        assert stein_apply(laplace_model, math.sin, 0.0) == pytest.approx(
            sin_operator_closed_form(laplace_model, 0.0), abs=1e-8)

    def test_batch_matches_pointwise(self, pair_nonint):
        xs = np.array([-2.2, -0.3, 0.0, 0.7, 3.1])
        batch = stein_apply_batch(pair_nonint, SIN_W3, xs)
        closed = [sin_operator_closed_form(pair_nonint, x) for x in xs]
        np.testing.assert_allclose(batch, closed, atol=1e-11)
        point = [stein_apply(pair_nonint, math.sin, float(x)) for x in xs]
        np.testing.assert_allclose(batch, point, atol=1e-8)

    def test_identity_holds(self, pair_nonint):
        est, se = stein_identity_check(pair_nonint, SIN_W3, 200_000,
                                       RandomStream(71))
        assert abs(est) <= 4.0 * se

    def test_identity_constant_function(self, pair_integer):
        # f = 1 makes the operator E[T] - x, whose mean vanishes
        one = SteinFunction(np.ones_like, "one",
                            lambda x, lam: np.ones_like(x) / lam, 1)
        est, se = stein_identity_check(pair_integer, one, 100_000,
                                       RandomStream(72))
        assert abs(est) <= 4.0 * se

    def test_identity_pinned_below_one_chunk(self):
        # up to 2^16 draws the check reduces one array, bit for bit as the
        # releases that concatenated A f over all draws did
        result = stein_identity_check(MODEL_GRID["five_mixed"], SIN_W3,
                                      50_000, RandomStream(23))
        assert repr(result) == "(0.004492484287895547, 0.004447625105867624)"

    @pytest.mark.parametrize("n", [10_000, 2 ** 16, 2 ** 16 + 1,
                                   3 * 2 ** 16 + 5])
    def test_chunked_mean_is_one_array_mean(self, pair_nonint, n):
        # the merged chunk moments equal vals.mean() and
        # vals.std(ddof=1) / sqrt(n) over the same draws in one array
        vals = stein_apply_batch(pair_nonint, SIN_W3, chunked_direct_draws(
            pair_nonint, n, RandomStream(9, 2)))
        est, se = stein_identity_check(pair_nonint, SIN_W3, n,
                                       RandomStream(9, 2))
        assert est == pytest.approx(vals.mean(), rel=1e-13, abs=0.0)
        assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(n),
                                   rel=1e-13, abs=0.0)

    def test_identity_memory_does_not_grow_with_n(self):
        # the draws and A f of one 2^16 chunk: 30.5 MB held 1e6 values
        tracemalloc.start()
        try:
            stein_identity_check(MODEL_GRID["five_mixed"], SIN_W3, 1_000_000,
                                 RandomStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("n", [2e4, True, None])
    def test_count_must_be_an_integer(self, pair_nonint, n):
        # numpy raised a bare TypeError for 2e4
        with pytest.raises(DomainError, match="integer n"):
            stein_identity_check(pair_nonint, SIN_W3, n, RandomStream(1))

    def test_too_few_draws(self, pair_nonint):
        with pytest.raises(DomainError, match="n >= 10000"):
            stein_identity_check(pair_nonint, SIN_W3, np.int32(9_999),
                                 RandomStream(1))

    def test_shipped_functions_vectorised(self):
        xs = np.linspace(-3, 3, 7)
        for f in STEIN_TEST_FUNCTIONS:
            assert f(xs).shape == xs.shape
            assert np.all(np.abs(f(xs)) <= 1.0)


def laguerre_batch(model, f, xs, nodes=96):
    """A f by the 96-node Gauss-Laguerre rule, each exponential-kernel
    integral as (1/lam_j) E[f(x + V/lam_j)] with V standard exponential: a
    reference for the closed-form kernels that shares none of their code."""
    v, w = np.polynomial.laguerre.laggauss(nodes)
    xs = np.asarray(xs, dtype=float)
    out = -xs * f(xs)
    for j in range(model.n):
        lam_j = model.lam[j]
        out += (model.p[j] / lam_j) * (f(xs[:, None] + v[None, :] / lam_j) @ w)
    for j in range(model.n):
        mu_j = model.mu[j]
        out -= (model.q[j] / mu_j) * (f(xs[:, None] - v[None, :] / mu_j) @ w)
    return out


MP_INTEGRANDS = {
    "sin": mpmath.sin,
    "gauss": lambda y: mpmath.exp(-y * y / 2),
    "x*gauss": lambda y: y * mpmath.exp(-y * y / 2),
}


def mp_kernel(name, x, lam):
    """int_0^inf f(x+u) e^(-lam u) du by mpmath quadrature: period-summed
    for sin, split around the integrand's peak u = -x - lam otherwise."""
    f = MP_INTEGRANDS[name]

    def integrand(u):
        return f(x + u) * mpmath.exp(-lam * u)

    with mpmath.workdps(20):
        if name == "sin":
            return float(mpmath.quadosc(integrand, [0, mpmath.inf], omega=1))
        peak = max(0.0, -x - lam)
        points = sorted({0.0, max(0.0, peak - 10.0), peak, peak + 10.0})
        return float(mpmath.quad(integrand, points + [mpmath.inf]))


class TestClosedFormKernels:
    @pytest.mark.parametrize("f", STEIN_TEST_FUNCTIONS, ids=lambda f: f.name)
    def test_kernel_matches_mpmath(self, f):
        for x in (-40.0, -6.0, -1.0, 0.0, 0.7, 5.0, 40.0):
            for lam in (0.05, 0.5, 1.0, 7.0, 50.0):
                got = float(f.kernel(np.array([x]), lam)[0])
                assert got == pytest.approx(mp_kernel(f.name, x, lam),
                                            abs=1e-12), (x, lam)

    @pytest.mark.parametrize("f", STEIN_TEST_FUNCTIONS, ids=lambda f: f.name)
    def test_kernel_finite_over_wide_range(self, f):
        xs = np.linspace(-1e3, 1e3, 4001)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for lam in (1e-3, 0.05, 1.0, 50.0, 1e3):
                assert np.all(np.isfinite(f.kernel(xs, lam))), lam

    @pytest.mark.parametrize("name", list(MODEL_GRID))
    def test_batch_matches_laguerre_fallback(self, name):
        model = MODEL_GRID[name]
        xs = np.concatenate([np.linspace(-8.0, 8.0, 65),
                             sample_direct(model, 2000, RandomStream(73))])
        for f in STEIN_TEST_FUNCTIONS:
            np.testing.assert_allclose(stein_apply_batch(model, f, xs),
                                       laguerre_batch(model, f.evaluator, xs),
                                       rtol=0.0, atol=1e-10, err_msg=f.name)

    def test_kernel_needs_parity(self):
        with pytest.raises(DomainError, match="parity"):
            SteinFunction(np.sin, "sin", SIN_W3.kernel, 0)

    def test_plain_callable_rejected(self, pair_nonint, monkeypatch):
        def no_draws(*args):
            raise AssertionError("sampled before checking the function")
        monkeypatch.setattr("bilgamma.stein.sample_direct", no_draws)
        for f in (np.sin, lambda x: x):
            with pytest.raises(DomainError, match="TestFunction"):
                stein_apply_batch(pair_nonint, f, np.zeros(3))
            with pytest.raises(DomainError, match="TestFunction"):
                stein_identity_check(pair_nonint, f, 10_000, RandomStream(74))


class TestEmpiricalDistances:
    def test_kolmogorov_identical(self):
        a = np.array([0.1, 0.5, 2.0])
        assert empirical_kolmogorov(a, a.copy()) == 0.0

    def test_kolmogorov_disjoint(self):
        assert empirical_kolmogorov([0.0, 1.0], [5.0, 6.0, 7.0]) == 1.0

    def test_kolmogorov_same_law(self, pair_integer):
        n = 100_000
        a = sample_direct(pair_integer, n, RandomStream(81, 0))
        b = sample_direct(pair_integer, n, RandomStream(81, 1))
        assert empirical_kolmogorov(a, b) < KS_CRIT_001 * math.sqrt(2.0 / n)

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            empirical_kolmogorov([], [1.0])
        with pytest.raises(EmptySampleError):
            empirical_kolmogorov([1.0], [])

    @pytest.mark.parametrize("a, b, name", [
        ([math.nan], [1.0], "sample_a"),
        ([0.1, math.nan, 0.3], [0.2, 0.4], "sample_a"),
        ([0.2, 0.4], [0.1, math.nan, 0.3], "sample_b"),
    ])
    def test_nan_is_a_domain_error(self, a, b, name):
        # a NaN has no rank; counted as the largest value these read 1.0 and 0.333
        with pytest.raises(DomainError, match=f"{name} holds a NaN"):
            empirical_kolmogorov(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_kolmogorov_brute_force(self, seed):
        # rounded draws tie inside and across samples of unequal sizes, and
        # -inf and inf are order statistics like any other value
        rng = np.random.default_rng(seed)
        a = np.round(rng.standard_normal(301), 1)
        b = np.round(0.3 * seed + rng.standard_normal(170), 1)
        a[:3] = -math.inf, math.inf, math.inf
        b[:2] = -math.inf, -math.inf
        pooled = np.concatenate([a, b])
        expected = float(np.abs(
            np.count_nonzero(a <= pooled[:, None], axis=1) / a.size
            - np.count_nonzero(b <= pooled[:, None], axis=1) / b.size).max())
        d = empirical_kolmogorov(a, b)
        assert d == expected > 0.0
        assert empirical_kolmogorov(b, a) == d
        assert empirical_kolmogorov(rng.permutation(a), rng.permutation(b)) == d


class TestKappa:
    def test_balanced_single(self):
        kap = kappa_inputs(single(2.0, 1.0, 2.0, 1.0))
        assert kap.log_g_n == pytest.approx(math.log(4.0))
        assert kap.log_h_n == pytest.approx(math.log(1.0))
        assert kap.kappa_n == pytest.approx(4.0 / 3.0)

    def test_boundary_undefined(self):
        with pytest.raises(KappaUndefinedError) as err:
            kappa_inputs(single(1.0, 1.0, 1.0, 1.0))
        assert err.value.log_g_n == pytest.approx(math.log(1.0))
        assert err.value.log_h_n == pytest.approx(math.log(1.0))

    def test_offset_rates(self):
        kap = kappa_inputs(single(2.0, 1.0, 3.0, 1.0))
        assert kap.log_g_n == pytest.approx(math.log(6.0))
        assert kap.log_h_n == pytest.approx(math.log(2.0))
        assert kap.kappa_n == pytest.approx(1.5)

    def test_many_components_stay_finite(self):
        # g = 1600^128 overflows a double; its log and kappa do not
        model = LinearCombinationModel.from_components([(40, 1, 40, 1, 1, 1)] * 128)
        kap = kappa_inputs(model)
        assert kap.log_g_n == pytest.approx(128 * math.log(1600.0))
        assert kap.log_h_n == pytest.approx(kap.log_g_n + math.log(0.08))
        assert kap.kappa_n == pytest.approx(1.0 / 0.92)


class TestTwoSumsBound:
    def test_identical_weights_vanish(self, pair_nonint):
        assert bound_two_sums(pair_nonint, pair_nonint) == 0.0

    def test_single_component_value(self):
        a = single(2.0, 1.0, 3.0, 1.0, w1=2.0, w2=1.0)
        b = single(2.0, 1.0, 3.0, 1.0, w1=1.0, w2=1.0)
        # (p/sqrt(2 alpha)) |w - pi| / sqrt(w + pi) = (1/2) / sqrt(3)
        assert bound_two_sums(a, b) == pytest.approx(0.5 / math.sqrt(3.0))

    def test_model_mismatch(self, pair_nonint, pair_integer):
        with pytest.raises(ModelMismatchError):
            bound_two_sums(pair_nonint, pair_integer)


class TestCompoundPoissonBound:
    def test_symmetric_value(self):
        model = single(1.0, 1.0, 1.0, 1.0)
        # |C1| + |C2| = 0 + 2
        assert bound_compound_poisson_k(model, 1) == pytest.approx(2.0 ** 0.4)

    @pytest.mark.parametrize("m", [0, 2 ** 53 + 1, 2.5, np.float64(3.0), True])
    def test_order_checked_as_the_sampler_does(self, pair_integer, m):
        # 2.5 gave 1.1698
        with pytest.raises(DomainError, match="compound-Poisson order m"):
            bound_compound_poisson_k(pair_integer, m)

    def test_numpy_integer_order(self, pair_integer):
        assert (bound_compound_poisson_k(pair_integer, np.int64(4))
                == bound_compound_poisson_k(pair_integer, 4))

    def test_rate_law(self, pair_integer):
        b1 = bound_compound_poisson_k(pair_integer, 1)
        b32 = bound_compound_poisson_k(pair_integer, 32)
        assert b32 / b1 == pytest.approx(0.5)

    def test_monotone_decay(self, pair_integer):
        vals = [bound_compound_poisson_k(pair_integer, m)
                for m in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestD3Bounds:
    def test_self_target_vanishes(self, kappa_single):
        target = single(2.0, 1.3, 2.0, 0.7)
        terms = d3_bg_terms(kappa_single, target)
        for name, val in terms.items():
            assert val == pytest.approx(0.0, abs=1e-14), name

    @pytest.mark.parametrize("model", [MODEL_GRID["single_asym"], KAPPA_SINGLE],
                             ids=["single_asym", "kappa_single"])
    def test_model_as_own_target_vanishes(self, model):
        # the target's law is read through its effective rates, so a
        # weighted one-component model is its own zero-distance target
        for name, val in d3_bg_terms(model, model).items():
            assert val == pytest.approx(0.0, abs=1e-14), name
        assert bound_d3_bg(model, model) == pytest.approx(0.0, abs=1e-14)

    def test_multi_component_target_rejected(self, kappa_single, pair_integer):
        with pytest.raises(DomainError, match="one component"):
            bound_d3_bg(kappa_single, pair_integer)

    def test_generic_value_second_path(self, pair_nonint):
        # independent re-evaluation of the four-term expression
        target = single(2.0, 1.0, 2.0, 1.0)
        kap = kappa_inputs(pair_nonint).kappa_n
        m = pair_nonint
        mean_t = m.cumulant(1)
        w12_ab = float(np.sum(m.w1 * m.w2 / (m.alpha * m.beta)))
        rate_diff = float(np.sum(m.w1 / m.alpha - m.w2 / m.beta))
        shape_term = float(np.sum(m.w1 * m.w2 * (m.p + m.q) / (m.alpha * m.beta)))
        expected = ((2.0 + abs(mean_t) / 3.0) * kap * abs(w12_ab - 0.25)
                    + (2.0 + abs(mean_t) / 2.0) * kap * abs(rate_diff - 0.0)
                    + 0.5 * kap * abs(shape_term - 0.5)
                    + kap * abs(mean_t - 0.0))
        assert bound_d3_bg(pair_nonint, target) == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_undefined_kappa_propagates(self, laplace_model):
        with pytest.raises(KappaUndefinedError):
            bound_d3_bg(laplace_model, single(1, 1, 1, 1))

    def test_vg_symmetric_target_drops_rate_term(self):
        model = single(3.0, 0.9, 3.0, 0.9)
        # model is symmetric and the target has alpha = beta, so the
        # rate-difference term vanishes entirely
        terms = d3_bg_terms(model, single(2.0, 1.1, 2.0, 1.1))
        assert terms["first_derivative"] == pytest.approx(0.0, abs=1e-15)

    def test_normal_matched_variance_drops_shape_term(self):
        from bilgamma.stein import d3_normal_terms
        model = single(2.0, 1.3, 2.0, 0.7)
        sigma2 = float(np.sum(model.w1 * model.w2 * (model.p + model.q)
                              / (model.alpha * model.beta)))
        terms = d3_normal_terms(model, math.sqrt(sigma2))
        assert terms["shape"] == pytest.approx(0.0, abs=1e-15)
        assert terms["second_derivative"] > 0.0

    def test_normal_domain(self, kappa_single):
        with pytest.raises(DomainError):
            bound_d3_normal(kappa_single, 0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_normal_non_finite_sigma(self, kappa_single, sigma):
        # both used to reach the bounds report as NaN or Infinity
        with pytest.raises(DomainError, match="sigma must be finite and > 0"):
            bound_d3_normal(kappa_single, sigma)

    def test_bound_dominates_single_test_function(self, kappa_single):
        # metric ordering: the order-3 bound dominates |E sin(T) - E sin(Z)|
        target = single(2.5, 1.0, 2.0, 0.8)
        n = 200_000
        t = sample_direct(kappa_single, n, RandomStream(90, 0))
        z = sample_direct(target, n, RandomStream(90, 1))
        diff = abs(np.sin(t).mean() - np.sin(z).mean())
        se = math.sqrt(np.sin(t).var(ddof=1) / n + np.sin(z).var(ddof=1) / n)
        assert bound_d3_bg(kappa_single, target) >= diff - 4.0 * se
