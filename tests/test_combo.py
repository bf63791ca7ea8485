import json
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import bilgamma.combo
from bilgamma import (
    BilgammaError,
    DomainError,
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
from bilgamma.models import PRICING_GAMMA
from bilgamma.quadrature import log_hyperint
from conftest import block_cumulant_se, pdf_series_pairwise, single

GEOMETRIC_PAIR = LinearCombinationModel.from_components(
    [(1.0, 1.0, 3.0, 1.0, 1.0, 1.0), (2.0, 1.0, 4.0, 1.0, 1.0, 1.0)])

# positive rates spanning a ratio of 200: a positive pmf of about 5.5k terms
DEEP_LAM = (4.0 / 200.0, 4.0 / math.sqrt(200.0), 4.0)
DEEP_SHAPES = (1.0, 1.05, 0.95)
DEEP_MODEL = LinearCombinationModel.from_components(
    [(lam, p, 2.0 + j, 1.0, 1.0, 1.0)
     for j, (lam, p) in enumerate(zip(DEEP_LAM, DEEP_SHAPES))])

# pmf_pos[0] = 2^-50 lies below pdf_series' weight cut and the pmf peaks
# at 48, so a loop that stops at the first small weight returns 0
INTERIOR_MODE = LinearCombinationModel.from_components(
    [(1.0, 50.0, 10.0, 0.5, 1.0, 1.0), (2.0, 0.5, 10.0, 0.5, 1.0, 1.0)])
INTERIOR_MIRROR = LinearCombinationModel(
    INTERIOR_MODE.beta, INTERIOR_MODE.q, INTERIOR_MODE.alpha,
    INTERIOR_MODE.p, INTERIOR_MODE.w2, INTERIOR_MODE.w1)

# L has 506 terms and M one, so the x > 0 kernels reach log_hyperint at
# a = 0.5, 1 with b up to ~520
LARGE_B = LinearCombinationModel.from_components(
    [(1.0, 15.0, 10.0, 0.5, 1.0, 1.0), (10.0, 0.5, 10.0, 0.5, 1.0, 1.0)])

# the fuzzing ranges for rates (weights included) and shapes
RATES = st.floats(1e-2, 1e2)
SHAPES = st.floats(1e-2, 50.0)


def two_deep_sides(ratio):
    """Rates 4/ratio, 4/sqrt(ratio), 4 on both sides: both pmfs run to
    hundreds of terms (454 each at ratio 20 and tail_tol 1e-10)."""
    rates = (4.0 / ratio, 4.0 / math.sqrt(ratio), 4.0)
    return LinearCombinationModel.from_components(
        [(r, s, r, s, 1.0, 1.0) for r, s in zip(rates, DEEP_SHAPES)])


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

    def test_loader_unreadable_files(self, tmp_path):
        with pytest.raises(ModelFileError, match="model file not found"):
            load_model(tmp_path / "none.json")
        with pytest.raises(ModelFileError, match="model file not found"):
            load_model(tmp_path)
        path = tmp_path / "latin1.json"
        path.write_bytes('{"components": "é"}'.encode("latin-1"))
        with pytest.raises(ModelFileError, match="cannot read model file"):
            load_model(path)


class TestMixtureConstruction:
    def test_single_component_collapses(self):
        # one component with unit weights is exactly its bilateral-gamma law
        rep = build_mixture(single(2.0, 1.0, 3.0, 1.0))
        assert rep.eta == 2.0 and rep.xi == 3.0
        assert rep.pmf_pos[0] == 1.0 and rep.pmf_neg[0] == 1.0
        np.testing.assert_array_equal(rep.pmf_pos, [1.0])
        np.testing.assert_array_equal(rep.pmf_neg, [1.0])
        assert len(rep.pmf_pos) == 1

    def test_geometric_positive_side(self):
        # rates (1, 2), unit shapes: P(L=k) = (1/2)^(k+1)
        rep = build_mixture(GEOMETRIC_PAIR)
        kk = np.arange(len(rep.pmf_pos))
        np.testing.assert_allclose(rep.pmf_pos, 0.5 ** (kk + 1), rtol=1e-13)
        assert rep.pmf_pos[0] == pytest.approx(0.5)

    def test_truncation_contract(self, model_grid):
        for model in model_grid.values():
            rep = build_mixture(model, tail_tol=1e-12)
            assert rep.pmf_pos.sum() >= 1.0 - 1e-12
            assert rep.pmf_neg.sum() >= 1.0 - 1e-12
            assert np.all(rep.pmf_pos >= 0.0)
            assert np.all(rep.pmf_neg >= 0.0)

    def test_pmfs_read_only(self, pair_integer):
        rep = build_mixture(pair_integer)
        with pytest.raises(ValueError):
            rep.pmf_pos[1] *= 1.5
        with pytest.raises(ValueError):
            rep.pmf_neg[0] = 0.0

    def test_truncation_failure(self, pair_nonint):
        with pytest.raises(TruncationFailureError):
            build_mixture(pair_nonint, tail_tol=1e-12, k_max=3)

    @pytest.mark.parametrize("neg", [
        # log P(M=0) = -902.9: P(0) underflows to 0
        [(1.0, 1.0), (0.5, 135.0), (384.0, 0.01)],
        # log P(M=0) = -719.0: P(0) is subnormal and g_k = P(k)/P(0)
        # overflows after 3284 terms
        [(1.0, 240.0), (20.0, 0.01)],
    ])
    def test_pmf_overflow_is_an_error(self, neg):
        # both returned a pmf ending in NaN; the overflow is reported by
        # the error alone, with no numpy warning
        model = LinearCombinationModel.from_components(
            [(1.0, 1.0, beta, q, 1.0, 1.0) for beta, q in neg])
        with pytest.raises(TruncationFailureError):
            build_mixture(model)

    def test_k_max_is_not_preallocated(self, pair_nonint):
        # k_max only bounds the recursion: a cap of 1e9 terms allocates as
        # little and gives the same pmfs as the default cap
        ref = build_mixture(pair_nonint, tail_tol=1e-12)
        tracemalloc.start()
        try:
            rep = build_mixture(pair_nonint, tail_tol=1e-12, k_max=10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        np.testing.assert_array_equal(rep.pmf_pos, ref.pmf_pos)
        np.testing.assert_array_equal(rep.pmf_neg, ref.pmf_neg)

    def test_deep_pmf_is_negative_binomial_convolution(self):
        # L is the sum of independent NB(p_j, lam_j/eta) counts; the
        # component with lam_j = eta contributes nothing
        rep = build_mixture(DEEP_MODEL, tail_tol=1e-12)
        eta = DEEP_LAM[-1]
        kk = np.arange(len(rep.pmf_pos))
        nb = [stats.nbinom(p, lam / eta).pmf(kk)
              for lam, p in zip(DEEP_LAM[:2], DEEP_SHAPES[:2])]
        expected = np.convolve(nb[0], nb[1])[:len(kk)]
        assert len(kk) > 5000
        keep = expected > 1e-300
        np.testing.assert_allclose(rep.pmf_pos[keep], expected[keep], rtol=1e-12)

    def test_rate_identity(self, model_grid):
        # eta = max lam_j coincides with a*/(1 - a*) for a* = max a_j/(w_j + a_j)
        for model in model_grid.values():
            rep = build_mixture(model, tail_tol=1e-6)
            a_star = float(np.max(model.alpha / (model.w1 + model.alpha)))
            assert rep.eta == pytest.approx(a_star / (1.0 - a_star), rel=1e-13)


class TestCharacteristicFunction:
    def test_at_origin(self, model_grid):
        for model in model_grid.values():
            assert model.cf(0.0) == pytest.approx(1.0 + 0.0j)

    def test_single_reduces_to_bilateral(self):
        # closed-form BG(2, 3, 5, 0.5) cf: (1 - iz/2)^-3 (1 + iz/5)^-0.5
        model = single(2.0, 3.0, 5.0, 0.5)
        zs = np.linspace(-10, 10, 41)
        law_cf = (1.0 - 1j * zs / 2.0) ** -3.0 * (1.0 + 1j * zs / 5.0) ** -0.5
        np.testing.assert_allclose(model.cf(zs), law_cf, atol=1e-15)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(comps=st.lists(st.tuples(RATES, SHAPES, RATES, SHAPES, RATES, RATES),
                          min_size=1, max_size=20),
           z=st.floats(-1e3, 1e3), k=st.integers(-1000, 1000))
    def test_scalar_path_matches_array_path(self, comps, z, k):
        # a real scalar runs the cmath loop, an array the numpy broadcast
        model = LinearCombinationModel.from_components(comps)
        ref_z, ref_k = model.cf(np.array([z, float(k)]))
        for arg, ref in ((z, ref_z), (np.float64(z), ref_z), (k, ref_k)):
            val = model.cf(arg)
            assert type(val) is complex
            assert abs(val - ref) <= 1e-14

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

    def test_mixture_cf_matches_mpmath(self):
        # the power sums of the same truncated pmfs at 40 digits, each
        # power of r = 1/(1 -+ iz/rate) built by exact-enough multiplication
        rep = build_mixture(DEEP_MODEL, tail_tol=1e-12)

        def power_sum(pmf, shape, r):
            acc, power = mpmath.mpc(0), r ** shape
            for w in pmf.tolist():
                acc += w * power
                power *= r
            return acc

        with mpmath.workdps(40):
            for z in (-17.3, -2.0, 0.0, 0.7, 5.5, 19.9):
                iz = mpmath.mpc(0, z)
                ref = (power_sum(rep.pmf_pos, rep.p, 1 / (1 - iz / rep.eta))
                       * power_sum(rep.pmf_neg, rep.q, 1 / (1 + iz / rep.xi)))
                assert abs(rep.cf(z) - complex(ref)) <= 1e-15, z

    def test_mixture_cf_grid_independent(self):
        # a point's value does not depend on the other points of the call
        # or on how the points are blocked
        rep = build_mixture(DEEP_MODEL, tail_tol=1e-12)
        zs = np.linspace(-20.0, 20.0, 401)
        vals = rep.cf(zs)
        singles = np.array([rep.cf(float(z)) for z in zs])
        np.testing.assert_array_equal(vals, singles)
        chunks = np.concatenate([rep.cf(zs[i:i + 7]) for i in range(0, len(zs), 7)])
        np.testing.assert_array_equal(vals, chunks)
        grid = zs[150:171].reshape(3, 7)
        out = rep.cf(grid)
        assert out.shape == (3, 7)
        np.testing.assert_array_equal(out, vals[150:171].reshape(3, 7))
        val = rep.cf(0.7)
        assert type(val) is complex
        assert val == rep.cf(np.array([0.7]))[0]

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(comps=st.lists(st.tuples(RATES, SHAPES, RATES, SHAPES, RATES, RATES),
                          min_size=1, max_size=6))
    def test_mixture_identity_random_models(self, comps):
        # C1 on random models: product and mixture cf on 401 points
        model = LinearCombinationModel.from_components(comps)
        try:
            rep = build_mixture(model)
        except TruncationFailureError:
            assume(False)
        zs = np.linspace(-20.0, 20.0, 401)
        err = np.abs(model.cf(zs) - rep.cf(zs)).max()
        assert err <= 1e-8 + 2.0 * rep.tail_tol

    def test_degenerate_mixture_cf(self):
        # closed-form BG(2, 1, 3, 1) cf: 1 / ((1 - iz/2)(1 + iz/3))
        rep = build_mixture(single(2.0, 1.0, 3.0, 1.0))
        for z in (0.0, 0.7, -4.0):
            law_cf = 1.0 / ((1.0 - 1j * z / 2.0) * (1.0 + 1j * z / 3.0))
            assert rep.cf(z) == pytest.approx(law_cf, abs=1e-14)


class TestDensityRoutes:
    def test_laplace_closed_form(self, laplace_model):
        assert laplace_model.pdf_fourier(1.0) == pytest.approx(
            0.5 * math.exp(-1.0), abs=1e-9)

    def test_series_near_one_sided(self, monkeypatch):
        # PRICING_GAMMA's negative side has shape 2e-8, so every x > 0
        # kernel has a = 2e-8 + k: the series was 3.5e-7 to 4.1e-7 high
        # against the same series seeded by mpmath
        def mp_seed(a, b, x, spec):
            with mpmath.workdps(60):
                return float(mpmath.log(mpmath.gamma(a) * mpmath.hyperu(a, b, x)))

        rep = build_mixture(PRICING_GAMMA, tail_tol=1e-10)
        xs = (0.25, 1.0, 2.5, 5.0)
        got = [rep.pdf_series(x) for x in xs]
        monkeypatch.setattr(bilgamma.combo, "log_hyperint", mp_seed)
        ref = [rep.pdf_series(x) for x in xs]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

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

    def test_series_interior_pmf_mode(self):
        # both loops of the double series: the deep side is L, then M
        for model, sign in ((INTERIOR_MODE, 1.0), (INTERIOR_MIRROR, -1.0)):
            rep = build_mixture(model, tail_tol=1e-10)
            for x in (42.0, 50.0, 58.0):
                ref = model.pdf_fourier(sign * x)
                assert ref > 0.02
                assert abs(rep.pdf_series(sign * x) - ref) <= 1e-6

    def test_series_small_shape_large_b_kernels(self):
        model = LARGE_B
        rep = build_mixture(model, tail_tol=1e-10)
        assert (len(rep.pmf_pos), len(rep.pmf_neg)) == (506, 1)
        ref = model.pdf_fourier(1.0)
        got = rep.pdf_series(1.0)
        assert abs(got - ref) <= 1e-6
        assert got == pytest.approx(ref, rel=1e-3)

    def test_series_matches_pairwise_oracle(self, mixture_grid):
        # the row recurrences against one quadrature per kept pair
        cases = [(rep, x) for rep in mixture_grid.values()
                 for x in (-2.5, -0.05, 0.05, 2.5)]
        for model in (INTERIOR_MODE, INTERIOR_MIRROR):
            rep = build_mixture(model, tail_tol=1e-10)
            cases += [(rep, s * x) for s in (1.0, -1.0) for x in (42.0, 50.0, 58.0)]
        rep = build_mixture(LARGE_B, tail_tol=1e-10)
        cases += [(rep, x) for x in (-1.0, 0.2, 1.0, 5.0)]
        for rep, x in cases:
            assert rep.pdf_series(x) == pytest.approx(
                pdf_series_pairwise(rep, x), rel=1e-12, abs=0.0), x

    def test_series_two_deep_sides(self):
        # 124k kept pairs at ratio 20: one quadrature per pair takes about
        # 45 s a point, the row kernel about 0.15 s
        model = two_deep_sides(20.0)
        rep = build_mixture(model, tail_tol=1e-10)
        assert (len(rep.pmf_pos), len(rep.pmf_neg)) == (454, 454)
        t0 = time.perf_counter()
        for x in (-20.0, -1.0, 0.2, 5.0):
            assert abs(rep.pdf_series(x) - model.pdf_fourier(x)) <= 1e-6, x
        assert time.perf_counter() - t0 < 10.0

    def test_series_deep_seeds_find_their_peak(self):
        # at ratio 40 the row seeds at x = 0.2 are kernels whose peak lies
        # far out in t: a rule over all of [1, inf) in t missed it and left
        # the series 2.8e-5 low here
        model = two_deep_sides(40.0)
        rep = build_mixture(model, tail_tol=1e-10)
        assert abs(rep.pdf_series(0.2) - model.pdf_fourier(0.2)) <= 1e-6

    def test_series_seeds_per_point(self, monkeypatch):
        # the kernel grid is seeded on its diagonal, so a point costs at
        # most 3 log_hyperint quadratures however deep the row side runs
        # (one per row made 506 at LARGE_B's x = -1)
        calls = []

        def counted(a, b, x, spec):
            calls.append((a, b))
            return log_hyperint(a, b, x, spec)

        monkeypatch.setattr(bilgamma.combo, "log_hyperint", counted)
        for model, xs in ((LARGE_B, (-1.0,)), (two_deep_sides(20.0), (-1.0, 0.2))):
            rep = build_mixture(model, tail_tol=1e-10)
            for x in xs:
                calls.clear()
                assert rep.pdf_series(x) > 0.0
                assert 1 <= len(calls) <= 3, (x, calls)

    def test_series_singular_origin(self, mixture_grid):
        with pytest.raises(SingularPointError):
            mixture_grid["laplace"].pdf_series(0.0)

    @pytest.mark.parametrize("x", [1e6, -1e6, 1e300, -1e300])
    def test_series_far_tail(self, mixture_grid, x):
        # the kernels at (eta + xi)|x| up to 1e301 are a spike near t = 0,
        # which a rule over [0, 1] in t missed: it raised at 1e6 and gave
        # NaN at 1e300; the density there underflows to 0
        try:
            val = mixture_grid["five_mixed"].pdf_series(x)
        except BilgammaError:
            return
        assert val == 0.0

    @pytest.mark.parametrize("x", [1.7e308, -1.7e308])
    def test_series_kernel_argument_overflow(self, mixture_grid, x):
        # (eta + xi)|x| overflows to inf at a finite x; the density has
        # underflowed long before, so it is 0, not an error about x = inf
        for name, rep in mixture_grid.items():
            assert rep.pdf_series(x) == 0.0, name
        rep = build_mixture(LARGE_B, tail_tol=1e-10)
        assert math.isinf((rep.eta + rep.xi) * 1e307)
        assert rep.pdf_series(math.copysign(1e307, x)) == 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, mixture_grid, x):
        rep = mixture_grid["five_mixed"]
        with pytest.raises(DomainError):
            rep.pdf_series(x)
        with pytest.raises(DomainError):
            rep.model.pdf_fourier(x)

    def test_inversion_precondition(self):
        from bilgamma import InversionNotIntegrableError
        thin = single(1.0, 0.3, 1.0, 0.3)
        with pytest.raises(InversionNotIntegrableError):
            thin.pdf_fourier(1.0)


class TestMomentTransform:
    def test_mgf_single_closed_form(self):
        assert single(2.0, 1.0, 3.0, 1.0).mgf(1.0) == pytest.approx(1.5)

    def test_mgf_strip(self, pair_integer):
        # exact strip is (-min mu_j, min lam_j) = (-3, 1), both edges open
        for z in (1.0, -3.0, 2.5, -5.0):
            with pytest.raises(OutOfStripError):
                pair_integer.mgf(z)
        assert math.isfinite(pair_integer.mgf(0.999))
        assert math.isfinite(pair_integer.mgf(-2.999))

    def test_log_convexity(self, pair_nonint):
        zs = np.linspace(-0.9, 0.9, 13) * min(pair_nonint.lam_min,
                                             pair_nonint.mu_min)
        logm = np.log([pair_nonint.mgf(float(z)) for z in zs])
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

    def test_shallow_pmf_moment_fails(self, pair_nonint):
        rep = build_mixture(pair_nonint, tail_tol=1e-4)
        with pytest.raises(TruncationFailureError,
                           match=r"moment\(2\) extrapolated tail .* exceeds "
                                 r"tolerance 1e-06; rebuild"):
            rep.moment(2)

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
        # BG(2, 3, 5, 0.5): (3/u) e^(-2u) for u > 0, (0.5/|u|) e^(-5|u|) for
        # u < 0, and cumulants (k-1)! (3/2^k + (-1)^k 0.5/5^k)
        model = single(2.0, 3.0, 5.0, 0.5)
        for u in (0.3, 2.0):
            assert model.levy_density(u) == pytest.approx(3.0 / u * math.exp(-2.0 * u))
            assert model.levy_density(-u) == pytest.approx(0.5 / u * math.exp(-5.0 * u))
        for k in range(1, 5):
            assert model.cumulant(k) == pytest.approx(
                math.factorial(k - 1) * (3.0 / 2.0 ** k + (-1) ** k * 0.5 / 5.0 ** k))

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
        # finite first absolute moment: int |u| nu(du) = sum p/lam + q/mu
        nu = pair_integer.levy_density
        direct = integrate_zero_to_inf(lambda u: u * nu(u)) \
            + integrate_zero_to_inf(lambda u: u * nu(-u))
        closed = float(np.sum(pair_integer.p / pair_integer.lam)
                       + np.sum(pair_integer.q / pair_integer.mu))
        assert closed == pytest.approx(direct, rel=1e-8)

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

    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
    def test_non_finite_x_rejected(self, mixture_grid, x):
        # inf and nan passed the x <= 0 guard and returned NaN
        with pytest.raises(DomainError):
            mixture_grid["laplace"].gamma_mixture_pdf(x)


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
