"""The single bilateral-gamma law BG(alpha, p, beta, q), stated as a
one-component model with unit weights: validation, cf, cumulants, Levy
density and sampling, with the convolution oracle for its density."""

import math

import numpy as np
import pytest

from bilgamma import (
    DomainError,
    RandomStream,
    SingularPointError,
    build_mixture,
    integrate_zero_to_inf,
    sample_direct,
)
from bilgamma.quadrature import fourier_density
from conftest import bg_pdf, single

LAPLACE = single(1.0, 1.0, 1.0, 1.0)
SKEWED = single(2.0, 3.0, 5.0, 0.5)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0, p=1, beta=1, q=1),
        dict(alpha=1, p=-2.0, beta=1, q=1),
        dict(alpha=1, p=1, beta=math.inf, q=1),
        dict(alpha=1, p=1, beta=1, q=0),
    ])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            single(**bad)

    def test_accepts_numpy_scalars(self):
        law = single(np.int64(2), np.float64(1.5), np.float32(1.0), 1)
        assert (law.alpha[0], law.p[0], law.beta[0], law.q[0]) == (2.0, 1.5, 1.0, 1.0)
        assert all(getattr(law, name).dtype == np.float64
                   for name in ("alpha", "p", "beta", "q", "w1", "w2"))


class TestCharacteristicFunction:
    def test_at_origin(self):
        assert LAPLACE.cf(0.0) == pytest.approx(1.0 + 0.0j)

    def test_laplace_at_one(self):
        # 1 / ((1 - i)(1 + i)) = 1/2
        assert LAPLACE.cf(1.0) == pytest.approx(0.5 + 0.0j)

    def test_skewed_value(self):
        # direct complex arithmetic: (1 - 1.7i/2)^-3 (1 + 1.7i/5)^-0.5
        expected = -0.15917537365447243 + 0.39989673323657765j
        assert SKEWED.cf(1.7) == pytest.approx(expected, abs=1e-14)

    def test_matches_empirical_cf(self):
        # Monte Carlo oracle: empirical cf of simulated gamma differences
        n = 1_000_000
        draws = sample_direct(SKEWED, n, RandomStream(909))
        z = 1.7
        emp = np.exp(1j * z * draws)
        est = emp.mean()
        se = math.sqrt((np.abs(emp - est) ** 2).mean() / n)
        assert abs(est - SKEWED.cf(z)) <= 4.0 * se

    def test_modulus_and_symmetry(self):
        zs = np.linspace(-30.0, 30.0, 301)
        vals = SKEWED.cf(zs)
        assert np.all(np.abs(vals) <= 1.0 + 1e-14)
        np.testing.assert_allclose(SKEWED.cf(-zs), np.conj(vals), atol=1e-15)


class TestDensity:
    def test_laplace_closed_form(self):
        # difference of unit exponentials has density e^(-|x|)/2
        for x in (1.0, -1.0, 0.3, -2.7):
            assert bg_pdf(LAPLACE, x) == pytest.approx(0.5 * math.exp(-abs(x)),
                                                       abs=1e-10)

    def test_symmetry(self):
        assert bg_pdf(LAPLACE, 1.0) == pytest.approx(bg_pdf(LAPLACE, -1.0),
                                                     abs=1e-12)

    def test_symmetric_variance_gamma(self):
        # equal rates and equal shapes give a symmetric law
        law = single(2.0, 1.7, 2.0, 1.7)
        for x in (0.4, 1.2, 3.0):
            assert bg_pdf(law, x) == pytest.approx(bg_pdf(law, -x), rel=1e-10)

    def test_matches_fourier_inversion(self):
        law = single(2.0, 2.0, 3.0, 1.0)
        for x in (0.7, -0.4, 1.9):
            conv = bg_pdf(law, x)
            inv = fourier_density(law.cf, x)
            assert abs(conv - inv) < 1e-7

    def test_normalisation_grid(self):
        for law in (LAPLACE, SKEWED, single(0.8, 1.6, 1.4, 2.3)):
            total = (integrate_zero_to_inf(lambda x, law=law: bg_pdf(law, x))
                     + integrate_zero_to_inf(lambda x, law=law: bg_pdf(law, -x)))
            assert abs(total - 1.0) < 1e-6

    def test_origin_inversion_route(self):
        # p + q > 1: the Fourier route evaluates x = 0, where the density
        # is continuous, so it meets the oracle's limits from both sides
        law = single(2.0, 2.0, 3.0, 1.0)
        mid = law.pdf_fourier(0.0)
        assert mid == pytest.approx(fourier_density(law.cf, 0.0), abs=1e-12)
        for x in (1e-7, -1e-7):
            assert abs(bg_pdf(law, x) - mid) < 1e-6

    @pytest.mark.parametrize("total_shape", [1.02, 1.05, 1.2, 2.0])
    def test_origin_closed_form(self, total_shape):
        # BG(1, a, 2, a) at 0 is int_0^inf f_Ga(a,1)(y) f_Ga(a,2)(y) dy =
        # 2^a Gamma(2a - 1) / (Gamma(a)^2 3^(2a - 1)); the cf decays only
        # as |z|^-2a, so near 2a = 1 the x = 0 rule meets a slow tail
        a = 0.5 * total_shape
        closed = (2.0 ** a * math.gamma(2.0 * a - 1.0)
                  / (math.gamma(a) ** 2 * 3.0 ** (2.0 * a - 1.0)))
        assert single(1.0, a, 2.0, a).pdf_fourier(0.0) == pytest.approx(
            closed, rel=1e-11)

    def test_origin_singularity(self):
        # p + q <= 1: the density is unbounded at 0 and neither route
        # returns a number there
        law = single(1.0, 0.4, 1.0, 0.5)
        with pytest.raises(SingularPointError):
            build_mixture(law).pdf_series(0.0)
        with pytest.raises(SingularPointError):
            law.pdf_fourier(0.0)

    def test_laplace_family_pointwise(self):
        # p = q = 1 with alpha = beta is Laplace with rate alpha
        for a in (0.5, 2.0):
            law = single(a, 1.0, a, 1.0)
            for x in np.linspace(-3.0, 3.0, 13):
                if x == 0.0:
                    continue
                assert abs(bg_pdf(law, float(x))
                           - 0.5 * a * math.exp(-a * abs(x))) < 1e-8

    def test_gamma_limit(self):
        # beta -> inf collapses to Ga(alpha, p)
        from scipy.stats import gamma as gamma_dist
        law = single(1.5, 2.0, 1.0e6, 1.0)
        xs = np.linspace(0.1, 10.0, 34)
        ref = gamma_dist.pdf(xs, a=2.0, scale=1.0 / 1.5)
        vals = np.array([bg_pdf(law, float(x)) for x in xs])
        assert np.abs(vals - ref).max() < 1e-3


class TestCumulants:
    def test_symmetric_mean(self):
        assert LAPLACE.cumulant(1) == 0.0

    def test_fourth_cumulant(self):
        # 3! (1 + 1) = 12 for the unit Laplace parameters
        assert LAPLACE.cumulant(4) == pytest.approx(12.0)

    def test_direct_substitution(self):
        assert SKEWED.cumulant(2) == pytest.approx(3.0 / 4.0 + 0.5 / 25.0)

    def test_against_levy_integral(self):
        # k-th cumulant equals int u^k against the Levy measure
        law = single(1.7, 0.9, 2.4, 1.8)
        for k in range(1, 5):
            pos = integrate_zero_to_inf(
                lambda u, k=k: u ** k * law.levy_density(u))
            neg = integrate_zero_to_inf(
                lambda u, k=k: (-u) ** k * law.levy_density(-u))
            quad_val = pos + neg
            assert abs(quad_val - law.cumulant(k)) <= 1e-8 * abs(law.cumulant(k))


class TestLevyDensity:
    def test_exponential_branches(self):
        assert LAPLACE.levy_density(1.0) == pytest.approx(math.exp(-1.0))
        assert LAPLACE.levy_density(-1.0) == pytest.approx(math.exp(-1.0))

    def test_direct_substitution(self):
        assert SKEWED.levy_density(0.1) == pytest.approx(
            (3.0 / 0.1) * math.exp(-0.2))

    def test_positive_both_sides(self):
        for u in (-3.0, -0.01, 0.01, 3.0):
            assert SKEWED.levy_density(u) > 0.0

    def test_origin_error(self):
        with pytest.raises(DomainError):
            LAPLACE.levy_density(0.0)

    def test_non_finite_argument(self):
        # NaN is outside the domain (it returned nan); the density tends
        # to 0 at both infinities, and that limit is its value there
        with pytest.raises(DomainError):
            SKEWED.levy_density(math.nan)
        assert SKEWED.levy_density(math.inf) == 0.0
        assert SKEWED.levy_density(-math.inf) == 0.0


class TestSampling:
    def test_symmetric_mean(self):
        n = 1_000_000
        draws = sample_direct(LAPLACE, n, RandomStream(12))
        assert abs(draws.mean()) <= 4.0 * math.sqrt(2.0 / n)

    def test_skewed_mean(self):
        n = 1_000_000
        draws = sample_direct(SKEWED, n, RandomStream(13))
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 1.4) <= 4.0 * se

    def test_determinism(self):
        a = sample_direct(SKEWED, 1, RandomStream(99, 3))
        b = sample_direct(SKEWED, 1, RandomStream(99, 3))
        assert a[0] == b[0]
