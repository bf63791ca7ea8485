import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from bilgamma import (
    DomainError,
    GridError,
    LinearCombinationModel,
    RandomStream,
    TruncationFailureError,
    build_mixture,
    empirical_kolmogorov,
    sample_compound_poisson,
    sample_direct,
    sample_mixture,
    sample_path,
)
from bilgamma import sampling
from bilgamma.models import MODEL_GRID
from conftest import KS_CRIT_001, block_cumulant_se, single


class TestRandomStream:
    def test_same_identity_same_draws(self, pair_nonint):
        a = sample_direct(pair_nonint, 1000, RandomStream(5, 2))
        b = sample_direct(pair_nonint, 1000, RandomStream(5, 2))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self, pair_nonint):
        a = sample_direct(pair_nonint, 1000, RandomStream(5, 0))
        b = sample_direct(pair_nonint, 1000, RandomStream(5, 1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream_id", [
        (-1, 0), (1, -1), (1.5, 0), (1, 2.0), (None, 0), (True, False),
        (1, True)])
    def test_identity_is_two_non_negative_integers(self, seed, stream_id):
        with pytest.raises(DomainError, match="must be non-negative integers"):
            RandomStream(seed, stream_id)

    def test_numpy_integer_identity(self, pair_nonint):
        stream = RandomStream(np.int64(5), np.uint8(2))
        np.testing.assert_array_equal(
            sample_direct(pair_nonint, 10, stream),
            sample_direct(pair_nonint, 10, RandomStream(5, 2)))

    def test_only_streams_accepted(self, pair_nonint):
        with pytest.raises(DomainError, match="expected a RandomStream"):
            sample_direct(pair_nonint, 10, np.random.default_rng(5))


class TestDirectSampler:
    def test_mean_and_variance(self, pair_nonint):
        n = 1_000_000
        draws = sample_direct(pair_nonint, n, RandomStream(8))
        se_mean = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - pair_nonint.cumulant(1)) <= 4.0 * se_mean
        est, se = block_cumulant_se(draws, 2)
        assert abs(est - pair_nonint.cumulant(2)) <= 4.0 * se

    def test_size_validation(self, pair_nonint):
        with pytest.raises(DomainError):
            sample_direct(pair_nonint, 0, RandomStream(1))


def _samplers(model):
    rep = build_mixture(model, tail_tol=1e-10)
    return {"direct": lambda n, rng: sample_direct(model, n, rng),
            "mixture": lambda n, rng: sample_mixture(rep, n, rng),
            "compound_poisson":
                lambda n, rng: sample_compound_poisson(model, 2, n, rng)}


class TestSampleCount:
    @pytest.mark.parametrize("sampler", ["direct", "mixture", "compound_poisson"])
    @pytest.mark.parametrize("n", [2.5, 10.0, True, "10", None])
    def test_not_an_integer(self, pair_integer, sampler, n):
        # each raised a bare TypeError (from numpy, or from `n < 1`)
        with pytest.raises(DomainError, match="integer n"):
            _samplers(pair_integer)[sampler](n, RandomStream(1))

    @pytest.mark.parametrize("sampler", ["direct", "mixture", "compound_poisson"])
    @pytest.mark.parametrize("n", [0, -3, np.int64(0)])
    def test_below_one(self, pair_integer, sampler, n):
        with pytest.raises(DomainError, match="n >= 1"):
            _samplers(pair_integer)[sampler](n, RandomStream(1))

    @pytest.mark.parametrize("sampler", ["direct", "mixture", "compound_poisson"])
    def test_numpy_integer(self, pair_integer, sampler):
        draw = _samplers(pair_integer)[sampler]
        assert (draw(np.uint16(50), RandomStream(3)).tobytes()
                == draw(50, RandomStream(3)).tobytes())


class TestMixtureSampler:
    def test_agrees_with_direct(self, pair_integer):
        rep = build_mixture(pair_integer, tail_tol=1e-10)
        n = 100_000
        a = sample_direct(pair_integer, n, RandomStream(21, 0))
        b = sample_mixture(rep, n, RandomStream(21, 1))
        assert empirical_kolmogorov(a, b) < KS_CRIT_001 * math.sqrt(2.0 / n)

    def test_degenerate_single_component(self):
        model = single(2.0, 3.0, 5.0, 0.5)
        rep = build_mixture(model)
        n = 100_000
        a = sample_direct(model, n, RandomStream(33, 0))
        b = sample_mixture(rep, n, RandomStream(33, 1))
        assert empirical_kolmogorov(a, b) < KS_CRIT_001 * math.sqrt(2.0 / n)

    def test_badly_truncated_mixture_refused(self):
        # at tail_tol 0.3 the positive pmf drops 29% of its mass; put on
        # the last support point it gave a mean of -0.166 (SE 0.0015)
        # against the model's 0.0833 over 200 000 draws
        model = LinearCombinationModel.from_components(
            [(1, 0.5, 3, 1, 1, 1), (2, 0.5, 3, 1, 1, 1)])
        rep = build_mixture(model, tail_tol=0.3)
        with pytest.raises(TruncationFailureError,
                           match=r"positive pmf drops mass 0\.293 > 1e-06"):
            sample_mixture(rep, 200_000, RandomStream(1))

    def test_determinism(self, pair_integer):
        rep = build_mixture(pair_integer, tail_tol=1e-10)
        a = sample_mixture(rep, 500, RandomStream(4, 7))
        b = sample_mixture(rep, 500, RandomStream(4, 7))
        np.testing.assert_array_equal(a, b)


class TestCompoundPoisson:
    @pytest.mark.parametrize("m", [0, 2 ** 53 + 1, 10 ** 20])
    def test_order_out_of_range(self, pair_integer, m):
        # numpy's Poisson sampler rejected 1e20 with a bare ValueError; the
        # lower end is combo._check_count's
        message = "needs n >= 1, got 0" if m == 0 else r"must be in \[1, 2\*\*53\]"
        with pytest.raises(DomainError, match=f"compound-Poisson order m.*{message}"):
            sample_compound_poisson(pair_integer, m, 10, RandomStream(6))

    @pytest.mark.parametrize("m", [2.5, 3.0, np.float64(3.0), True])
    def test_order_must_be_an_integer(self, pair_integer, m):
        # each of these returned draws
        with pytest.raises(DomainError, match="order m = n needs an integer n"):
            sample_compound_poisson(pair_integer, m, 3, RandomStream(1))

    def test_numpy_integer_order(self, pair_integer):
        np.testing.assert_array_equal(
            sample_compound_poisson(pair_integer, np.int64(3), 10, RandomStream(1)),
            sample_compound_poisson(pair_integer, 3, 10, RandomStream(1)))

    def test_atom_at_zero(self, pair_integer):
        # P(Z = 0) >= P(N = 0) = e^(-m)
        n = 20_000
        draws = sample_compound_poisson(pair_integer, 1, n, RandomStream(6))
        frac = float(np.mean(draws == 0.0))
        p0 = math.exp(-1.0)
        assert abs(frac - p0) <= 4.0 * math.sqrt(p0 * (1.0 - p0) / n)

    def test_wald_mean(self, pair_integer):
        # m = 1: jump law is the combination itself, so E[Z] = E[T]
        n = 1_000_000
        draws = sample_compound_poisson(pair_integer, 1, n, RandomStream(9))
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - pair_integer.cumulant(1)) <= 4.0 * se

    def test_empirical_cf_matches_target(self, pair_integer):
        # cf of Z_m is exp(m (phi^(1/m) - 1))
        m, n, z = 4, 1_000_000, 1.0
        draws = sample_compound_poisson(pair_integer, m, n, RandomStream(10))
        target = np.exp(m * (pair_integer.cf(z) ** (1.0 / m) - 1.0))
        emp = np.exp(1j * z * draws)
        est = emp.mean()
        se_re = emp.real.std(ddof=1) / math.sqrt(n)
        se_im = emp.imag.std(ddof=1) / math.sqrt(n)
        assert abs(est.real - target.real) <= 4.0 * se_re
        assert abs(est.imag - target.imag) <= 4.0 * se_im

    def test_cumulant_identity(self, pair_integer):
        # C_k(Z_m) = m * E[J^k] with J the 1/m-scaled jump law
        m, n = 3, 1_000_000
        rep_jump = build_mixture(pair_integer.scaled(1.0 / m), tail_tol=1e-13)
        draws = sample_compound_poisson(pair_integer, m, n, RandomStream(11))
        for k in (1, 2, 3):
            est, se = block_cumulant_se(draws, k)
            assert abs(est - m * rep_jump.moment(k)) <= 4.0 * se

    def test_determinism(self, pair_integer):
        a = sample_compound_poisson(pair_integer, 2, 300, RandomStream(1, 1))
        b = sample_compound_poisson(pair_integer, 2, 300, RandomStream(1, 1))
        np.testing.assert_array_equal(a, b)

    def test_memory_independent_of_jump_count(self, pair_integer):
        # given N jumps the sum is one draw at time N/m: no per-jump arrays
        # (1e6 jumps would take about 8 MB each)
        tracemalloc.start()
        try:
            sample_compound_poisson(pair_integer, 100, 10_000, RandomStream(13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestProcessPath:
    def test_grid_contract(self, pair_integer):
        with pytest.raises(GridError):
            sample_path(pair_integer, [0.5, 1.0], RandomStream(2))
        with pytest.raises(GridError):
            sample_path(pair_integer, [0.0, 0.5, 0.5], RandomStream(2))
        # a NaN or infinite time returned NaN, with a RuntimeWarning
        for grid in ([0.0, math.nan], [0.0, 1.0, math.inf], [0.0, math.inf]):
            with pytest.raises(GridError):
                sample_path(pair_integer, grid, RandomStream(2))

    def test_starts_at_zero(self, pair_integer):
        path = sample_path(pair_integer, [0.0, 0.5, 1.0], RandomStream(3))
        assert path[0] == 0.0 and len(path) == 3

    def test_increments_sum_exactly(self, pair_integer):
        path = sample_path(pair_integer, [0.0, 0.5, 1.0], RandomStream(3))
        inc = np.diff(path)
        assert path[2] == pytest.approx(inc.sum() + path[0], abs=0.0)

    def test_time_one_law(self, pair_integer):
        # path value at t = 1 is distributed as the unit-time combination
        n = 40_000
        grid = np.linspace(0.0, 1.0, 5)
        vals = np.array([sample_path(pair_integer, grid, RandomStream(50, i))[-1]
                         for i in range(n)])
        ref = sample_direct(pair_integer, n, RandomStream(51))
        assert empirical_kolmogorov(vals, ref) < KS_CRIT_001 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("name", sorted(MODEL_GRID))
    def test_unit_step_is_direct_draw(self, name):
        # one step of length 1 takes the direct sampler's variates
        model = MODEL_GRID[name]
        for s in range(5):
            path = sample_path(model, [0.0, 1.0], RandomStream(s))
            assert path[1] == sample_direct(model, 1, RandomStream(s))[0]

    def test_determinism(self, pair_integer):
        g = np.linspace(0.0, 2.0, 9)
        a = sample_path(pair_integer, g, RandomStream(12, 3))
        b = sample_path(pair_integer, g, RandomStream(12, 3))
        np.testing.assert_array_equal(a, b)


def _digest(draws: np.ndarray) -> str:
    return hashlib.sha256(draws.tobytes()).hexdigest()


# a 65 537-step grid with unequal steps: more than one kernel chunk
_LONG_GRID = np.cumsum(np.r_[0.0, np.linspace(0.5, 1.5, 2 ** 16 + 1)]) / 2 ** 16


class TestPinnedDraws:
    """SHA-256 of the draws of releases that drew each side in one
    ``gen.gamma`` call: the chunked kernel must reproduce them bit for bit.
    Sizes sit on either side of the kernel's 2**16-variate chunk."""

    @pytest.mark.parametrize("n, digest", [
        (1, "d010defbc9f64f7c51e00c22ae4ad825a059cb4518964971a7fb5a8d8d2180a0"),
        (2 ** 16 - 1,
         "758f5bd02393e3535836fa39e08f74e1182b71ae2dc2d076f16a9e812daf6293"),
        (2 ** 16 + 1,
         "678c2380a2a03025557047a30d643aad9456173f6391d71fde77f7abf5336c0c"),
        (200_001,
         "8d266ab9400cacb22e4a7ace7e2c0f07585194c725743902bca58d62b25f64f2"),
    ])
    def test_direct(self, n, digest):
        draws = sample_direct(MODEL_GRID["five_mixed"], n, RandomStream(19, 2))
        assert _digest(draws) == digest

    @pytest.mark.parametrize("m, digest", [
        (1, "9d7688bae2d01c3442460efb8a9b58bd68b6c2f72c2fbc7d5929585013abce17"),
        (3, "5c4d5f4a9c6b8f1bd0bad339aecbdb3f0ef7be276fb2817e4402cc4dd20d8199"),
    ])
    def test_compound_poisson(self, m, digest):
        draws = sample_compound_poisson(MODEL_GRID["five_mixed"], m, 2 ** 16 + 1,
                                        RandomStream(19, 3))
        assert _digest(draws) == digest

    def test_path(self):
        path = sample_path(MODEL_GRID["five_mixed"], _LONG_GRID, RandomStream(19, 4))
        assert _digest(path) == (
            "723ec9da7e0b321efcf1e429c6978f261683d931434bc35c71696a7516fa5500")

    def test_mixture(self):
        rep = build_mixture(MODEL_GRID["pair_nonint"], tail_tol=1e-12)
        draws = sample_mixture(rep, 2 ** 16 + 1, RandomStream(19, 5))
        assert _digest(draws) == (
            "e9b61967868287f02a436be4e2b3c5443d3d922f96e4a114a53916f39d4dd4ec")

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunk_size_does_not_change_draws(self, monkeypatch, chunk):
        model = MODEL_GRID["five_mixed"]
        grid = _LONG_GRID[:2001]
        before = (sample_direct(model, 2001, RandomStream(2)),
                  sample_compound_poisson(model, 3, 2001, RandomStream(2)),
                  sample_path(model, grid, RandomStream(2)))
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        after = (sample_direct(model, 2001, RandomStream(2)),
                 sample_compound_poisson(model, 3, 2001, RandomStream(2)),
                 sample_path(model, grid, RandomStream(2)))
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()
