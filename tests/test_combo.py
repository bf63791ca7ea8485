import json
import math

import numpy as np
import pytest

from bilgamma import (
    BilateralGamma,
    DomainError,
    LevyDensity,
    LinearCombinationModel,
    ModelFileError,
    OutOfStripError,
    RandomStream,
    SingularPointError,
    TruncationFailureError,
    build_mixture,
    integrate_zero_to_inf,
    load_model,
    sample_direct,
)
from conftest import block_cumulant_se, single

GEOMETRIC_PAIR = LinearCombinationModel.from_components(
    [(1.0, 1.0, 3.0, 1.0, 1.0, 1.0), (2.0, 1.0, 4.0, 1.0, 1.0, 1.0)])


class TestModelValidation:
    def test_requires_positive_entries(self):
        with pytest.raises(DomainError, match="component 1.*'beta'"):
            LinearCombinationModel.from_components(
                [(1, 1, 1, 1, 1, 1), (1, 1, -2.0, 1, 1, 1)])

    def test_requires_component(self):
        with pytest.raises(DomainError):
            LinearCombinationModel.from_components([])

    def test_json_round_trip(self, pair_nonint, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(pair_nonint.to_json_obj()))
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.alpha, pair_nonint.alpha)
        np.testing.assert_array_equal(loaded.w2, pair_nonint.w2)

    def test_loader_names_offending_index(self, tmp_path):
        doc = {"components": [
            {"alpha": 1, "p": 1, "beta": 1, "q": 1, "w1": 1, "w2": 1},
            {"alpha": 1, "p": 1, "beta": 1, "q": -3, "w1": 1, "w2": 1},
        ]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="component 1.*'q'"):
            load_model(path)

    def test_fields_read_only(self, pair_nonint):
        with pytest.raises(ValueError):
            pair_nonint.alpha[0] = -5.0

    def test_caller_array_not_shared(self):
        alpha = np.array([2.0, 3.0])
        model = LinearCombinationModel(alpha, [1.0, 1.0], [1.0, 1.0],
                                       [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        alpha[0] = -5.0
        np.testing.assert_array_equal(model.alpha, [2.0, 3.0])

    def test_loader_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": [{"alpha": 1}]}))
        with pytest.raises(ModelFileError, match="component 0.*missing"):
            load_model(path)


class TestMixtureConstruction:
    def test_single_component_collapses(self):
        # one component with unit weights is exactly its bilateral-gamma law
        rep = build_mixture(single(2.0, 1.0, 3.0, 1.0))
        assert rep.eta == 2.0 and rep.xi == 3.0
        assert rep.c_n == 1.0 and rep.d_n == 1.0
        np.testing.assert_array_equal(rep.pmf_pos, [1.0])
        np.testing.assert_array_equal(rep.pmf_neg, [1.0])
        assert rep.a_seq.size == 0

    def test_geometric_positive_side(self):
        # rates (1, 2), unit shapes: P(L=k) = (1/2)^(k+1), a_i = (1/i) 2^-i
        rep = build_mixture(GEOMETRIC_PAIR)
        kk = np.arange(len(rep.pmf_pos))
        np.testing.assert_allclose(rep.pmf_pos, 0.5 ** (kk + 1), rtol=1e-13)
        ii = np.arange(1, len(rep.a_seq) + 1)
        np.testing.assert_allclose(rep.a_seq, 0.5 ** ii / ii, rtol=1e-13)
        assert rep.c_n == pytest.approx(0.5)

    def test_truncation_contract(self, model_grid):
        for model in model_grid.values():
            rep = build_mixture(model, tail_tol=1e-12)
            assert rep.pmf_pos.sum() >= 1.0 - 1e-12
            assert rep.pmf_neg.sum() >= 1.0 - 1e-12
            assert np.all(rep.gamma_seq >= 0.0)
            assert np.all(rep.delta_seq >= 0.0)

    def test_truncation_failure(self, pair_nonint):
        with pytest.raises(TruncationFailureError):
            build_mixture(pair_nonint, tail_tol=1e-12, k_max=3)

    def test_rate_identity(self, model_grid):
        # eta = max lam_j coincides with a*/(1 - a*) for a* = max a_j/(w_j + a_j)
        for model in model_grid.values():
            rep = build_mixture(model, tail_tol=1e-6)
            a_star = float(np.max(model.alpha / (model.w1 + model.alpha)))
            assert rep.eta == pytest.approx(a_star / (1.0 - a_star), rel=1e-13)
            assert rep.alpha_star == pytest.approx(a_star, rel=1e-13)


class TestCharacteristicFunction:
    def test_at_origin(self, model_grid):
        for model in model_grid.values():
            assert model.cf(0.0) == pytest.approx(1.0 + 0.0j)

    def test_single_reduces_to_bilateral(self):
        model = single(2.0, 3.0, 5.0, 0.5)
        law = BilateralGamma(2.0, 3.0, 5.0, 0.5)
        zs = np.linspace(-10, 10, 41)
        np.testing.assert_allclose(model.cf(zs), law.cf(zs), atol=1e-15)

    def test_mixture_identity(self, model_grid, mixture_grid):
        # the executable form of the randomised-shape representation
        zs = np.linspace(-20.0, 20.0, 401)
        for name, model in model_grid.items():
            rep = mixture_grid[name]
            err = np.abs(model.cf(zs) - rep.cf(zs)).max()
            assert err <= 1e-8 + 2e-12, name

    def test_mixture_cf_at_origin(self, mixture_grid):
        for rep in mixture_grid.values():
            assert abs(rep.cf(0.0) - 1.0) <= 2.0 * rep.tail_tol + 1e-13

    def test_degenerate_mixture_cf(self):
        rep = build_mixture(single(2.0, 1.0, 3.0, 1.0))
        law = BilateralGamma(2.0, 1.0, 3.0, 1.0)
        for z in (0.0, 0.7, -4.0):
            assert rep.cf(z) == pytest.approx(law.cf(z), abs=1e-14)


class TestDensityRoutes:
    def test_laplace_closed_form(self, laplace_model):
        assert laplace_model.pdf_fourier(1.0) == pytest.approx(
            0.5 * math.exp(-1.0), abs=1e-9)

    def test_series_laplace_closed_form(self, mixture_grid):
        rep = mixture_grid["laplace"]
        assert rep.pdf_series(0.5) == pytest.approx(0.5 * math.exp(-0.5),
                                                    abs=1e-9)

    def test_symmetric_model_density(self):
        model = LinearCombinationModel.from_components(
            [(2.0, 1.5, 2.0, 1.5, 1.0, 1.0), (3.0, 0.8, 3.0, 0.8, 0.6, 0.6)])
        rep = build_mixture(model, tail_tol=1e-10)
        for x in (0.4, 1.1, 2.5):
            assert model.pdf_fourier(x) == pytest.approx(
                model.pdf_fourier(-x), abs=1e-9)
            assert rep.pdf_series(x) == pytest.approx(rep.pdf_series(-x),
                                                      rel=1e-9)

    def test_routes_agree(self, pair_nonint):
        rep = build_mixture(pair_nonint, tail_tol=1e-10)
        for x in (-2.5, -0.6, 0.35, 1.7, 4.0):
            f = pair_nonint.pdf_fourier(x)
            s = rep.pdf_series(x)
            assert abs(f - s) < 1e-6

    def test_histogram_against_monte_carlo(self, pair_integer):
        # binned counts of exact draws vs quadrature of the density
        n = 1_000_000
        draws = sample_direct(pair_integer, n, RandomStream(2024))
        edges = np.linspace(-3.0, 5.0, 21)
        counts, _ = np.histogram(draws, bins=edges)
        from scipy.integrate import quad
        for lo, hi, count in zip(edges[:-1], edges[1:], counts):
            prob = quad(lambda x: pair_integer.pdf_fourier(x),
                        lo, hi, epsabs=1e-9, limit=200)[0]
            sd = math.sqrt(n * prob * (1.0 - prob))
            assert abs(count - n * prob) <= 4.0 * sd

    def test_series_singular_origin(self, mixture_grid):
        with pytest.raises(SingularPointError):
            mixture_grid["laplace"].pdf_series(0.0)

    def test_inversion_precondition(self):
        from bilgamma import InversionNotIntegrableError
        thin = single(1.0, 0.3, 1.0, 0.3)
        with pytest.raises(InversionNotIntegrableError):
            thin.pdf_fourier(1.0)


class TestMomentTransform:
    def test_mgf_at_zero(self, mixture_grid):
        for rep in mixture_grid.values():
            assert abs(rep.mgf(0.0) - 1.0) <= 2.0 * rep.tail_tol + 1e-13

    def test_mgf_single_closed_form(self):
        rep = build_mixture(single(2.0, 1.0, 3.0, 1.0))
        assert rep.mgf(1.0) == pytest.approx(1.5)

    def test_mgf_matches_product_form(self, pair_integer):
        rep = build_mixture(pair_integer, tail_tol=1e-13)
        for z in (-1.5, -0.4, 0.2, 0.5, 0.9):
            assert rep.mgf(z) == pytest.approx(pair_integer.mgf(z), abs=1e-8)

    def test_mgf_strip(self, pair_integer):
        rep = build_mixture(pair_integer, tail_tol=1e-10)
        # exact strip is (-min mu_j, min lam_j) = (-3, 1)
        with pytest.raises(OutOfStripError):
            rep.mgf(1.0)
        with pytest.raises(OutOfStripError):
            rep.mgf(-3.0)

    def test_log_convexity(self, pair_nonint):
        rep = build_mixture(pair_nonint, tail_tol=1e-12)
        zs = np.linspace(-0.9, 0.9, 13) * min(rep.model.lam_min, rep.model.mu_min)
        logm = np.log([rep.mgf(float(z)) for z in zs])
        second = np.diff(logm, 2)
        assert np.all(second > -1e-9)

    def test_moment_first_closed_form(self, model_grid, mixture_grid):
        for name, model in model_grid.items():
            rep = mixture_grid[name]
            expected = float(np.sum(model.p * model.w1 / model.alpha
                                    - model.q * model.w2 / model.beta))
            assert rep.moment(1) == pytest.approx(expected, abs=1e-9)

    def test_symmetric_first_moment(self):
        rep = build_mixture(single(2.0, 1.5, 2.0, 1.5))
        assert rep.moment(1) == pytest.approx(0.0, abs=1e-12)

    def test_laplace_variance(self, mixture_grid):
        assert mixture_grid["laplace"].moment(2) == pytest.approx(2.0)

    def test_third_moment_against_samples(self, pair_integer):
        rep = build_mixture(pair_integer, tail_tol=1e-13)
        draws = sample_direct(pair_integer, 1_000_000, RandomStream(31))
        est = (draws ** 3).mean()
        se = (draws ** 3).std(ddof=1) / math.sqrt(len(draws))
        assert abs(rep.moment(3) - est) <= 4.0 * se

    def test_moment_cumulant_conversion(self, model_grid, mixture_grid_deep):
        # m1=c1, m2=c2+c1^2, m3=c3+3c2c1+c1^3, m4=c4+4c3c1+3c2^2+6c2c1^2+c1^4
        for name, model in model_grid.items():
            rep = mixture_grid_deep[name]
            c = [model.cumulant(k) for k in range(1, 5)]
            m_expected = [
                c[0],
                c[1] + c[0] ** 2,
                c[2] + 3 * c[1] * c[0] + c[0] ** 3,
                c[3] + 4 * c[2] * c[0] + 3 * c[1] ** 2
                + 6 * c[1] * c[0] ** 2 + c[0] ** 4,
            ]
            for k in range(1, 5):
                got = rep.moment(k)
                assert got == pytest.approx(m_expected[k - 1], rel=1e-6,
                                            abs=1e-9), (name, k)


class TestLevyAndCumulants:
    def test_single_reduces(self):
        model = single(2.0, 3.0, 5.0, 0.5)
        law = BilateralGamma(2.0, 3.0, 5.0, 0.5)
        for u in (0.3, -0.3, 2.0, -2.0):
            assert model.levy_density(u) == pytest.approx(law.levy_density(u))
        for k in range(1, 5):
            assert model.cumulant(k) == pytest.approx(law.cumulant(k))

    def test_two_component_value(self, pair_integer):
        assert pair_integer.levy_density(1.0) == pytest.approx(
            math.exp(-1.0) + math.exp(-2.0))
        assert pair_integer.levy_density(-1.0) == pytest.approx(
            math.exp(-3.0) + math.exp(-4.0))

    def test_cumulant_matches_levy_quadrature(self, model_grid):
        for model in model_grid.values():
            for k in range(1, 5):
                pos = integrate_zero_to_inf(
                    lambda u, k=k: u ** k * model.levy_density(u))
                neg = integrate_zero_to_inf(
                    lambda u, k=k: (-u) ** k * model.levy_density(-u))
                closed = model.cumulant(k)
                assert abs(pos + neg - closed) <= 1e-8 * max(1e-12, abs(closed))

    def test_first_cumulant_is_mean(self, model_grid, mixture_grid):
        for name in model_grid:
            assert model_grid[name].cumulant(1) == pytest.approx(
                mixture_grid[name].moment(1), abs=1e-9)

    def test_levy_density_object(self, pair_integer):
        nu = LevyDensity(pair_integer)
        assert nu(1.0) == pair_integer.levy_density(1.0)
        # finite first absolute moment
        direct = integrate_zero_to_inf(lambda u: u * nu(u)) \
            + integrate_zero_to_inf(lambda u: u * nu(-u))
        assert nu.abs_moment(1) == pytest.approx(direct, rel=1e-8)

    def test_cumulant_against_samples(self, pair_nonint):
        draws = sample_direct(pair_nonint, 1_000_000, RandomStream(77))
        for k in (1, 2, 3):
            est, se = block_cumulant_se(draws, k)
            assert abs(pair_nonint.cumulant(k) - est) <= 4.0 * se


class TestGammaMixtureLimit:
    def test_degenerate_is_gamma(self):
        from scipy.stats import gamma as gamma_dist
        rep = build_mixture(single(2.0, 1.7, 3.0, 1.0))
        for x in (0.2, 1.0, 3.5):
            assert rep.gamma_mixture_pdf(x) == pytest.approx(
                gamma_dist.pdf(x, a=1.7, scale=0.5), rel=1e-10)

    def test_two_exponential_convolution(self):
        # positive part of the geometric pair is Exp(1) + Exp(2), whose
        # density 2 e^(-x) (1 - e^(-x)) gives 2 (e-1) e^(-2) at x = 1
        rep = build_mixture(GEOMETRIC_PAIR, tail_tol=1e-13)
        expected = 2.0 * (math.e - 1.0) * math.exp(-2.0)
        assert rep.gamma_mixture_pdf(1.0) == pytest.approx(expected, rel=1e-10)
        for x in (0.3, 0.9, 2.2):
            closed = 2.0 * math.exp(-x) * (1.0 - math.exp(-x))
            assert rep.gamma_mixture_pdf(x) == pytest.approx(closed, rel=1e-10)

    def test_normalises(self, mixture_grid):
        rep = mixture_grid["pair_nonint"]
        total = integrate_zero_to_inf(rep.gamma_mixture_pdf)
        assert abs(total - 1.0) <= 1e-6

    def test_limit_of_full_density(self):
        # negative rates pushed to 1e6: the full density approaches the
        # positive-part gamma mixture
        model = LinearCombinationModel.from_components(
            [(1.0, 1.0, 1e6, 1.0, 1.0, 1.0), (2.0, 1.0, 1e6, 1.0, 1.0, 1.0)])
        rep = build_mixture(model, tail_tol=1e-10)
        for x in (0.5, 1.0, 2.0):
            assert abs(model.pdf_fourier(x) - rep.gamma_mixture_pdf(x)) < 1e-3

    def test_domain(self, mixture_grid):
        with pytest.raises(DomainError):
            mixture_grid["laplace"].gamma_mixture_pdf(-1.0)


class TestScaling:
    def test_scaled_shapes(self, pair_nonint):
        scaled = pair_nonint.scaled(0.25)
        np.testing.assert_allclose(scaled.p, pair_nonint.p * 0.25)
        np.testing.assert_allclose(scaled.q, pair_nonint.q * 0.25)
        np.testing.assert_array_equal(scaled.alpha, pair_nonint.alpha)

    def test_cf_exponent_scaling(self, pair_nonint):
        # time-t cf is the unit-time cf raised to the t-th power
        zs = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(pair_nonint.scaled(0.5).cf(zs) ** 2,
                                   pair_nonint.cf(zs), atol=1e-12)
