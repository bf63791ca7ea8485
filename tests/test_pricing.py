import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bilgamma import (
    DomainError,
    LinearCombinationModel,
    NonFiniteResultError,
    OutOfStripError,
    PricingInputs,
    RandomStream,
    SeriesDivergenceError,
    build_mixture,
    martingale_gap,
    price_call_atm,
    price_call_gamma_series,
    price_call_integral,
    price_call_monte_carlo,
)
from bilgamma import pricing
from bilgamma.combo import GammaMixture
from bilgamma.models import MARTINGALE, MODEL_GRID, PRICING_GAMMA
from bilgamma.pricing import _tail_probability, negative_part_bound
from bilgamma.quadrature import integrate_zero_to_inf
from conftest import chunked_direct_draws, single

# shapes sum to 0.7 < 1: the cf is not absolutely integrable, so there is no
# pointwise Fourier density, but the Gil-Pelaez tails still converge
LOW_SHAPE = single(3.0, 0.4, 4.0, 0.3)


def base_inputs(strike=1.2, s0=1.0, rate=0.05, maturity=1.0, **kw):
    return PricingInputs(s0=s0, strike=strike, rate=rate, maturity=maturity,
                         **kw)


class TestPricingInputs:
    def test_requires_rate_above_dividend(self):
        with pytest.raises(DomainError):
            PricingInputs(s0=1, strike=1, rate=0.01, dividend=0.02, maturity=1)

    def test_requires_maturity_after_now(self):
        with pytest.raises(DomainError):
            PricingInputs(s0=1, strike=1, rate=0.0, maturity=0.5, t_now=0.5)

    def test_spot_defaults_to_s0(self):
        inp = PricingInputs(s0=2.0, strike=1.0, rate=0.0, maturity=1.0)
        assert inp.spot_at_t == 2.0

    def test_spot_other_than_s0_refused_at_origin(self):
        # at t = 0 the spot is S0; a second spot used to be priced silently
        with pytest.raises(DomainError, match="at t_now = 0 the spot is s0"):
            PricingInputs(s0=1.0, strike=1.0, rate=0.0, maturity=1.0,
                          spot_at_t=2.0)
        inp = PricingInputs(s0=1.0, strike=1.0, rate=0.0, maturity=1.0,
                            spot_at_t=1.0)
        assert inp.spot_at_t == 1.0

    def test_spot_required_later(self):
        with pytest.raises(DomainError):
            PricingInputs(s0=1, strike=1, rate=0.0, maturity=1.0, t_now=0.3)

    @pytest.mark.parametrize("field, value", [
        ("s0", math.nan), ("strike", math.nan), ("strike", math.inf),
        ("rate", math.inf), ("maturity", math.inf), ("spot_at_t", math.nan)])
    def test_rejects_non_finite(self, field, value):
        kw = {"s0": 1.0, "strike": 1.0, "rate": 0.0, "maturity": 1.0}
        kw[field] = value
        with pytest.raises(DomainError):
            PricingInputs(**kw)


class TestTailProbability:
    @pytest.mark.parametrize("level", [0.1, 0.5, 1.0, 3.0, 8.0])
    def test_single_gamma_component(self, level):
        from scipy.special import gammaincc
        model = single(2.0, 1.5, 1e8, 1e-8)
        got = _tail_probability(model.cf, level)
        assert got == pytest.approx(gammaincc(1.5, 2.0 * level), abs=1e-10)

    def test_symmetric_half_at_origin(self, laplace_model):
        assert _tail_probability(laplace_model.cf, 0.0) == \
            pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("level", [0.3, 1.0, 4.0])
    def test_symmetric_tails_complement(self, laplace_model, level):
        lower = _tail_probability(laplace_model.cf, -level)
        upper = _tail_probability(laplace_model.cf, level)
        assert lower + upper == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(0.5 * math.exp(-level), abs=1e-10)

    @pytest.mark.parametrize("name", ["pair_nonint", "five_mixed"])
    @pytest.mark.parametrize("level", [-1.5, 0.5, 2.0])
    def test_matches_series_density(self, model_grid, mixture_grid, name,
                                    level):
        # the series density shares no code with the cf: integrated over
        # the half-line beyond a positive level, and below a negative one,
        # so that the integral never meets x = 0, where the series is singular
        rep = mixture_grid[name]
        if level > 0.0:
            tail = integrate_zero_to_inf(lambda t: rep.pdf_series(level + t))
        else:
            tail = 1.0 - integrate_zero_to_inf(
                lambda t: rep.pdf_series(level - t))
        got = _tail_probability(model_grid[name].cf, level)
        assert got == pytest.approx(tail, abs=1e-10)

    @pytest.mark.parametrize("t_prime", [0.01, 0.05, 0.25, 1.0, 2.0])
    @pytest.mark.parametrize("model", [MARTINGALE, MODEL_GRID["five_mixed"],
                                       MODEL_GRID["pair_nonint"]],
                             ids=["MARTINGALE", "five_mixed", "pair_nonint"])
    def test_origin_beta_mixture(self, model, t_prime):
        # the at-the-money tail P(G > N), G ~ Ga(p + j, eta) and N ~
        # Ga(q + k, xi) mixed by the pmfs of L and M, is the mixture of
        # P(Beta(p + j, q + k) > eta / (eta + xi)); short maturities leave
        # shapes near 0, whose cf decays slowly
        from scipy.special import betaincc
        scaled = model.scaled(t_prime)
        rep = build_mixture(scaled, tail_tol=1e-14)
        pos, neg = rep.pos, rep.neg
        j, k = np.ix_(np.arange(len(pos.pmf)), np.arange(len(neg.pmf)))
        cut = pos.rate / (pos.rate + neg.rate)
        reference = float(np.sum(np.outer(pos.pmf, neg.pmf) * betaincc(
            pos.shape + j, neg.shape + k, cut)))
        assert _tail_probability(scaled.cf, 0.0) == pytest.approx(
            reference, abs=1e-12)

    def test_cf_never_read_at_origin(self, monkeypatch):
        # the tail reads only its cf, and the Gil-Pelaez integrand's limit
        # at z = 0 is never needed: QUADPACK's nodes on [0, 1] are interior,
        # and the Fourier rule's array of nodes lies in [1, inf)
        nodes = []

        def spy(cf, level):
            def recorded(z):
                nodes.extend(np.atleast_1d(z))
                return cf(z)
            return _tail_probability(recorded, level)

        monkeypatch.setattr(pricing, "_tail_probability", spy)
        for model in (MARTINGALE, PRICING_GAMMA):
            for strike in (0.5, 0.9, 1.0, 1.2, 3.0):
                for maturity in (0.1, 1.0, 5.0):
                    price_call_integral(model, base_inputs(strike=strike,
                                                           maturity=maturity))
        head = [z for z in nodes if z < 1.0]
        assert len(head) >= 30 * 2 * 21
        assert min(nodes) > 0.0


class TestMartingaleCondition:
    def test_single_component_value(self):
        # E[e^X] = (2/1)(3/4) = 1.5 for rates (2, 3) and unit shapes
        model = single(2.0, 1.0, 3.0, 1.0)
        assert martingale_gap(model, 0.0, 0.0) == pytest.approx(0.5)

    def test_calibrated_gap_vanishes(self, martingale_model):
        r = math.log(martingale_model.mgf(1.0))
        assert martingale_gap(martingale_model, r, 0.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_strip_boundary(self):
        model = single(1.0, 1.0, 3.0, 1.0)  # alpha/w1 = 1
        with pytest.raises(OutOfStripError):
            martingale_gap(model, 0.0, 0.0)


class TestIntegralPrice:
    def test_deep_out_of_the_money(self, pricing_gamma):
        price = price_call_integral(pricing_gamma, base_inputs(strike=1.0e6))
        assert 0.0 <= price < 1e-8

    def test_monotone_and_convex_in_strike(self, pricing_gamma):
        strikes = [1.0, 1.2, 1.4, 1.6, 1.8]
        prices = [price_call_integral(pricing_gamma, base_inputs(strike=k))
                  for k in strikes]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        second = np.diff(prices, 2)
        assert np.all(second >= -1e-8)

    def test_monte_carlo_cross_check(self, pricing_gamma):
        inputs = base_inputs()
        price = price_call_integral(pricing_gamma, inputs)
        mc, se = price_call_monte_carlo(pricing_gamma, inputs, 1_000_000,
                                        RandomStream(41))
        assert abs(price - mc) <= 4.0 * se

    @pytest.mark.parametrize("model, strike", [
        (MARTINGALE, 0.9), (MARTINGALE, 1.0), (LOW_SHAPE, 0.9),
        (LOW_SHAPE, 1.0)], ids=["martingale-0.9", "martingale-1.0",
                                "low-shape-0.9", "low-shape-1.0"])
    def test_monte_carlo_cross_check_bilateral(self, model, strike):
        inputs = base_inputs(strike=strike)
        price = price_call_integral(model, inputs)
        mc, se = price_call_monte_carlo(model, inputs, 1_000_000,
                                        RandomStream(41))
        assert abs(price - mc) <= 4.0 * se

    def test_shapes_below_one_have_fourier_density(self):
        # total shape 0.7: the cf is not absolutely integrable, but the
        # Fourier inversion converges at x != 0 and meets the series
        rep = build_mixture(LOW_SHAPE)
        for x in (-2.0, -1e-3, 1e-3, 0.5, 1.0, 3.0):
            assert LOW_SHAPE.pdf_fourier(x) == pytest.approx(
                rep.pdf_series(x), rel=1e-8, abs=1e-12), x

    def test_out_of_strip(self):
        model = single(1.0, 1.0, 3.0, 1.0)
        with pytest.raises(OutOfStripError):
            price_call_integral(model, base_inputs())


class TestMonteCarloPrice:
    @pytest.mark.parametrize("strike, pinned", [
        (0.9, "(0.2724973186750486, 0.013701287163892179)"),
        (1.0, "(0.21601043379559315, 0.013001172372724926)"),
        (1.2, "(0.1365011269725839, 0.011455538954416908)"),
    ])
    def test_pinned(self, strike, pinned):
        # (price, SE) of releases that took payoff.mean() and
        # payoff.std(ddof=1) on a separate payoff array, to the last bit
        result = price_call_monte_carlo(MARTINGALE, base_inputs(strike=strike),
                                        1000, RandomStream(19, 6))
        assert repr(result) == pinned

    @pytest.mark.parametrize("n", [2, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5])
    def test_chunked_mean_is_one_array_mean(self, n):
        # the merged chunk moments equal payoff.mean() and
        # payoff.std(ddof=1) / sqrt(n) over the same draws in one array
        inputs = base_inputs(strike=1.0)
        x = chunked_direct_draws(MARTINGALE.scaled(inputs.t_remaining), n,
                                 RandomStream(8, 1))
        payoff = np.maximum(np.exp(x) - 1.0, 0.0) * math.exp(-0.05)
        price, se = price_call_monte_carlo(MARTINGALE, inputs, n,
                                           RandomStream(8, 1))
        assert price == pytest.approx(payoff.mean(), rel=1e-13, abs=0.0)
        assert se == pytest.approx(payoff.std(ddof=1) / math.sqrt(n),
                                   rel=1e-13, abs=0.0)

    def test_memory_does_not_grow_with_n(self):
        # two 2^16 buffers and the chunk's payoff: 31 MB held 4e6 draws
        tracemalloc.start()
        try:
            price_call_monte_carlo(MARTINGALE, base_inputs(), 4_000_000,
                                   RandomStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_overflow_is_typed(self):
        # spot * e^X overflows at maturity 2000, in one chunk or several
        inputs = base_inputs(strike=1.1, maturity=2000.0)
        for n in (1000, 3 * 2 ** 16):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteResultError, match="mean"):
                    price_call_monte_carlo(PRICING_GAMMA, inputs, n,
                                           RandomStream(1))

    def test_variance_overflow_is_typed(self):
        # payoffs near 1e155 have a finite mean but squares past a double
        inputs = base_inputs(s0=1e155, strike=1e155)
        for n in (1000, 3 * 2 ** 16):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteResultError, match="variance"):
                    price_call_monte_carlo(MARTINGALE, inputs, n,
                                           RandomStream(1))

    def test_needs_two_draws(self):
        with pytest.raises(DomainError, match="n >= 2"):
            price_call_monte_carlo(MARTINGALE, base_inputs(), 1, RandomStream(1))

    @pytest.mark.parametrize("n", [1e4, 2.5, True])
    def test_count_must_be_an_integer(self, n):
        # numpy raised a bare TypeError for 1e4
        with pytest.raises(DomainError, match="integer n"):
            price_call_monte_carlo(MARTINGALE, base_inputs(), n, RandomStream(1))

    def test_numpy_integer_count(self):
        assert price_call_monte_carlo(
            MARTINGALE, base_inputs(), np.int64(1000), RandomStream(19, 6)
        ) == price_call_monte_carlo(MARTINGALE, base_inputs(), 1000,
                                    RandomStream(19, 6))


class TestGammaSeriesPrice:
    def test_single_component_closed_form(self):
        # one gamma component: the j = 0 term alone prices the call
        from scipy.special import gammaincc
        model = single(2.0, 1.5, 1e8, 1e-8)
        inputs = base_inputs(strike=1.3, rate=0.02)
        level = math.log(1.3)
        expected = math.exp(-0.02) * (
            1.0 * (2.0 / 1.0) ** 1.5 * gammaincc(1.5, 1.0 * level)
            - 1.3 * gammaincc(1.5, 2.0 * level))
        got, _ = price_call_gamma_series(model, inputs)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_integral(self, pricing_gamma):
        inputs = base_inputs()
        series, _ = price_call_gamma_series(pricing_gamma, inputs)
        integral = price_call_integral(pricing_gamma, inputs)
        assert abs(series - integral) / integral < 1e-6

    def test_strike_at_spot_matches_atm(self, pricing_gamma, monkeypatch):
        # at ln(K/s) = 0 the K-sum is the total mass 1, not a truncated sum
        # plus its extrapolated tail (6.2e-6 relative off at tail_tol 1e-3)
        # (the series builds its side at GammaMixture.build's default cut)
        inputs = base_inputs(strike=1.0)
        for tail_tol in (1e-3, 1e-6, 1e-12):
            monkeypatch.setattr(GammaMixture.build.__func__, "__defaults__",
                                (tail_tol,))
            assert (price_call_gamma_series(pricing_gamma, inputs)
                    == price_call_atm(pricing_gamma, inputs))

    def test_requires_eta_above_one(self):
        with pytest.raises(DomainError):
            price_call_gamma_series(single(0.8, 1.0, 1e6, 1e-6), base_inputs())

    @pytest.mark.parametrize("maturity, t_now", [(1.0, 0.0), (2.0, 0.0),
                                                 (1.5, 0.5)])
    @pytest.mark.parametrize("strike", [0.5, 0.9, 0.99])
    def test_below_spot_is_the_forward_value(self, pricing_gamma, strike,
                                             maturity, t_now):
        # at ln(K/s) <= 0 every Q is 1: e^(-rT) (s E[e^G] - K); the series
        # refused K < s, and the integral wrote 0.78296 at K = 0.9999999
        m = pricing_gamma
        inputs = base_inputs(strike=strike, maturity=maturity, t_now=t_now,
                             spot_at_t=1.0)
        price, tolerance = price_call_gamma_series(m, inputs)
        mgf_g = float(np.prod((m.lam / (m.lam - 1.0)) ** (m.p * inputs.t_remaining)))
        forward = math.exp(-0.05 * maturity) * (mgf_g - strike)
        assert abs(price - forward) <= tolerance
        integral = price_call_integral(m, inputs)
        assert abs(price - integral) / integral < 1e-9

    def test_tail_bound_reported(self, pricing_gamma):
        _, completion = price_call_gamma_series(pricing_gamma, base_inputs())
        assert completion < 1e-9


class TestTimeScaledGammaRoutes:
    """Both gamma-only routes sum the pmf of the time-t' law."""

    @pytest.mark.parametrize("maturity, t_now", [(0.5, 0.0), (2.0, 0.0),
                                                 (1.5, 0.5), (2.5, 0.5)])
    @pytest.mark.parametrize("route, strike", [
        (price_call_gamma_series, 1.2), (price_call_atm, 1.0)],
        ids=["series", "atm"])
    def test_agrees_with_integral(self, pricing_gamma, route, strike,
                                  maturity, t_now):
        inputs = base_inputs(strike=strike, maturity=maturity, t_now=t_now,
                             spot_at_t=1.0)
        integral = price_call_integral(pricing_gamma, inputs)
        price, _ = route(pricing_gamma, inputs)
        assert abs(price - integral) / integral < 1e-6

    @pytest.mark.parametrize("route, strike", [
        (price_call_gamma_series, 1.2), (price_call_atm, 1.0)],
        ids=["series", "atm"])
    def test_builds_only_the_positive_side(self, pricing_gamma, builds,
                                           route, strike):
        route(pricing_gamma, base_inputs(strike=strike))
        assert len(builds) == 1


_STRIKES = np.linspace(0.6, 1.6, 41)


def _series_price(model, inputs):
    return price_call_gamma_series(model, inputs)[0]


def _strike_strip(route, model, maturity):
    return np.array([route(model, base_inputs(strike=float(k), maturity=maturity))
                     for k in _STRIKES])


@pytest.mark.parametrize("maturity", [0.25, 1.0])
class TestStrikeShape:
    """A call price falls and is convex in the strike, with slopes in
    [-e^(-rT), 0]; on K = 0.6..1.6 at s0 = 1 and r = 0.05."""

    @pytest.mark.parametrize("route, model", [
        (price_call_integral, MARTINGALE), (price_call_integral, PRICING_GAMMA),
        (_series_price, PRICING_GAMMA)],
        ids=["integral-martingale", "integral-gamma", "series-gamma"])
    def test_decreasing_convex_bounded_slope(self, route, model, maturity):
        prices = _strike_strip(route, model, maturity)
        assert np.all(np.diff(prices) < 0.0)
        # worst -3.3e-15 on the integral route and -4.4e-16 on the series
        assert np.diff(prices, 2).min() >= -1e-12
        slopes = np.diff(prices) / np.diff(_STRIKES)
        assert slopes.min() >= -math.exp(-0.05 * maturity) - 1e-9
        assert slopes.max() <= 0.0

    @pytest.mark.parametrize("model", [MARTINGALE, PRICING_GAMMA,
                                       MODEL_GRID["pair_kappa"]],
                             ids=["martingale", "gamma", "pair_kappa"])
    def test_deep_in_the_money_put_bounds(self, model, maturity):
        # the put that parity with the model's own forward s M_T(1) implies
        # lies in [0, e^(-rT) K] and does not fall as K rises: lowest
        # -2.2e-15 (gamma), largest put / (e^(-rT) K) 0.13 (pair_kappa, T = 1)
        strikes = np.array([0.01, 0.1, 0.3, 0.6, 0.9])
        discount = math.exp(-0.05 * maturity)
        calls = np.array([price_call_integral(model, base_inputs(
            strike=float(k), maturity=maturity)) for k in strikes])
        puts = calls - discount * (model.scaled(maturity).mgf(1.0) - strikes)
        assert puts.min() >= -1e-12
        assert np.all(puts <= discount * strikes)
        assert np.diff(puts).min() >= -1e-12

    def test_series_matches_integral(self, maturity):
        # worst 2.2e-10 relative, at T = 0.25
        series = _strike_strip(_series_price, PRICING_GAMMA, maturity)
        integral = _strike_strip(price_call_integral, PRICING_GAMMA, maturity)
        assert np.max(np.abs(series - integral) / integral) < 1e-8


class TestGeometricCompletion:
    def test_exact_on_geometric_pmf(self, monkeypatch):
        # rates (3, 6) and unit shapes: P(L=k) = (1/2)^(k+1) exactly, so the
        # geometric completion of a shallow pmf recovers the full sum
        model = LinearCombinationModel.from_components(
            [(3.0, 1.0, 1e8, 1e-8, 1.0, 1.0), (6.0, 1.0, 1e8, 1e-8, 1.0, 1.0)])
        inputs = base_inputs(strike=1.0)
        expected = math.exp(-0.05) * ((3.0 / 2.0) * (6.0 / 5.0) - 1.0)
        monkeypatch.setattr(GammaMixture.build.__func__, "__defaults__", (1e-3,))
        price, _ = price_call_atm(model, inputs)
        assert price == pytest.approx(expected, rel=1e-12)


class TestNegativePartGuard:
    def test_bound_closed_form(self):
        # s (lam/(lam-1))^p (1 - (mu/(mu+1))^q) = 2 (1 - 3/4)
        model = single(2.0, 1.0, 3.0, 1.0)
        inputs = PricingInputs(s0=1.0, strike=1.0, rate=0.0, maturity=1.0)
        assert negative_part_bound(model, inputs) == pytest.approx(0.5)

    def test_bound_covers_dropped_negative_part(self, martingale_model):
        m = martingale_model
        positive_only = type(m)(m.alpha, m.p, m.beta * 1e8, m.q * 1e-8,
                                m.w1, m.w2)
        inputs = base_inputs(strike=1.0)
        gap = abs(price_call_integral(m, inputs)
                  - price_call_integral(positive_only, inputs))
        assert 0.0 < gap <= negative_part_bound(m, inputs)

    @pytest.mark.parametrize("route, strike", [(price_call_gamma_series, 1.2),
                                               (price_call_atm, 1.0)])
    def test_tolerance_covers_accepted_negative_part(self, route, strike):
        # negative shapes 1e-8 at rate 4: a bound of 9.0e-9, which the guard
        # accepts.  The dropped part moves the price by 7.3e-9 (series) and
        # 8.2e-9 (atm), while the geometric completion alone is 2.5e-10
        model = LinearCombinationModel.from_components(
            [(3.0, 1.1, 4.0, 1e-8, 1.0, 1.0), (4.0, 0.9, 4.0, 1e-8, 1.0, 1.0)])
        inputs = base_inputs(strike=strike)
        price, tolerance = route(model, inputs)
        assert abs(price - price_call_integral(model, inputs)) <= tolerance

    @pytest.mark.parametrize("route", [price_call_atm,
                                       price_call_gamma_series])
    def test_bilateral_model_rejected(self, martingale_model, route):
        with pytest.raises(DomainError, match="negative part"):
            route(martingale_model, base_inputs(strike=1.0))


class TestAtmPrice:
    def test_degenerate_closed_form(self):
        # eta = 2, p = 1, t' = 1, K = 1, r = 0: price is 2/(2-1) - 1 = 1
        model = single(2.0, 1.0, 1e8, 1e-8)
        inputs = PricingInputs(s0=1.0, strike=1.0, rate=0.0, maturity=1.0)
        price, _ = price_call_atm(model, inputs)
        assert price == pytest.approx(1.0, rel=1e-9)

    def test_divergence_detected(self, pair_integer):
        # geometric mixture with ratio 1/2 against growth eta/(eta-1) = 2:
        # the expectation is infinite and must raise, not truncate
        inputs = PricingInputs(s0=1.0, strike=1.0, rate=0.0, maturity=1.0)
        with pytest.raises(SeriesDivergenceError):
            price_call_atm(pair_integer, inputs)

    def test_monte_carlo_agreement(self, pricing_gamma):
        inputs = base_inputs(strike=1.0)
        atm, _ = price_call_atm(pricing_gamma, inputs)
        mc, se = price_call_monte_carlo(pricing_gamma, inputs, 1_000_000,
                                        RandomStream(43))
        assert abs(atm - mc) <= 4.0 * se

    def test_requires_spot_equal_strike(self, pricing_gamma):
        with pytest.raises(DomainError):
            price_call_atm(pricing_gamma, base_inputs(strike=1.1))


class TestDiscount:
    def test_discounts_over_full_maturity(self, pricing_gamma):
        later = PricingInputs(s0=1.0, strike=1.2, rate=0.05, maturity=2.0,
                              t_now=1.0, spot_at_t=1.0)
        now = base_inputs(strike=1.2, rate=0.05, maturity=1.0)
        # both price against the same t' = 1 law; discounting over T vs
        # over t' differs by e^(-r (T - t'))
        assert price_call_integral(pricing_gamma, later) == pytest.approx(
            price_call_integral(pricing_gamma, now) * math.exp(-0.05),
            rel=1e-9)
