import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import hyperu

import bilgamma.combo
from bilgamma import (
    BilgammaError,
    DomainError,
    LinearCombinationModel,
    NonConvergenceError,
    PricingInputs,
    build_mixture,
    integrate_zero_to_inf,
    price_call_gamma_series,
    price_call_integral,
    quadrature,
)
from bilgamma.combo import log_hyperint_blocks
from bilgamma.models import MODEL_GRID, PRICING_GAMMA
from bilgamma.quadrature import (
    fourier_density,
    log_hyperint,
    oscillatory_integral,
)
from conftest import single


def hyperint_F(a, b, x):
    # the second-kind confluent hypergeometric F(a, b, x) = U(a, b, x), the
    # integral I(a, b, x) of log_hyperint over Gamma(a)
    return math.exp(log_hyperint(a, b, x) - math.lgamma(a))


class TestIntegrateEngine:
    @staticmethod
    def real_line(f):
        # two mirrored semi-infinite halves
        return integrate_zero_to_inf(f) + integrate_zero_to_inf(lambda t: f(-t))

    def test_gaussian_normalises(self):
        val = self.real_line(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))
        assert abs(val - 1.0) < 1e-10

    def test_laplace_normalises(self):
        val = self.real_line(lambda x: 0.5 * math.exp(-abs(x)))
        assert abs(val - 1.0) < 1e-10

    def test_gamma_second_moment(self):
        # x^2 e^(-x) on (0, inf) integrates to Gamma(3) = 2
        val = integrate_zero_to_inf(lambda x: x * x * math.exp(-x))
        assert abs(val - 2.0) < 1e-10

    def test_deterministic(self):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        assert integrate_zero_to_inf(f) == integrate_zero_to_inf(f)

    def test_nonconvergence_raises(self, monkeypatch):
        # sin is not integrable on (0, inf); the subdivision limit of QAGI
        # runs out.  The message is one line naming the library, the
        # interval as given and the reason, not scipy's six-line advice
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 50)
        with pytest.raises(NonConvergenceError) as err:
            integrate_zero_to_inf(math.sin)
        assert str(err.value) == (
            "QUADPACK quadrature failed on [0.0, inf]: The maximum number of "
            "subdivisions (50) has been achieved.")

    def test_oscillatory_nonconvergence_names_the_cycle(self, monkeypatch):
        # the Fourier rule's reason is one line: how many levels of step
        # h = 0.2 / 2^k ran, and how far apart the last two were
        monkeypatch.setattr(quadrature, "_FOURIER_LEVELS", 2)
        with pytest.raises(NonConvergenceError) as err:
            MODEL_GRID["pair_nonint"].pdf_fourier(0.01)
        assert str(err.value) == (
            "Fourier quadrature failed on [0.0, inf) at x=0.01: 2 levels, "
            "the last two 3.02e-07 apart")


class TestConfHypergeomF:
    def test_unit_kernel(self):
        # b = a + 1 makes (1+t)^(b-a-1) = 1, so F(1, 2, x) = 1/x
        assert abs(hyperint_F(1.0, 2.0, 3.0) - 1.0 / 3.0) < 1e-12

    def test_frozen_oracle_values(self):
        # fixed-grid Simpson oracle of int e^(-t) t (1+t)^(-1) dt at 1e-12
        assert abs(hyperint_F(2.0, 2.0, 1.0) - 0.40365263767680593) < 1e-11
        # substitution t = s^2 oracle for the a = 1/2 endpoint singularity
        assert abs(hyperint_F(0.5, 1.0, 2.0) - 0.64569414838203467) < 1e-11

    def test_singular_endpoint_is_finite(self):
        val = hyperint_F(0.5, 1.0, 2.0)
        assert math.isfinite(val) and val > 0.0

    def test_matches_tricomi_u(self):
        # the integral form equals the second-kind confluent hypergeometric;
        # the loose tolerance budgets for hyperu's own error (up to ~3e-7
        # relative in this region, while the quadrature stays below 1e-11)
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0.2, 8.0)
            b = a + rng.uniform(-1.5, 6.0)
            x = rng.uniform(0.1, 20.0)
            ours = hyperint_F(a, b, x)
            ref = float(hyperu(a, b, x))
            assert abs(ours - ref) <= 1e-6 * max(1.0, abs(ref))

    def test_reciprocal_identity(self):
        # b = a + 1 collapses the kernel to e^(-xt) t^(a-1), whose integral
        # is Gamma(a)/x^a, i.e. F(a, a+1, x) * x^a = 1 for all a, x > 0
        # (the a = 1 special case is F(1, 2, x) * x = 1)
        for a in (0.3, 0.7, 1.0, 2.5, 7.0):
            for x in (0.1, 1.0, 4.0, 30.0):
                assert abs(hyperint_F(a, a + 1.0, x) * x ** a - 1.0) < 1e-10

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                     (1.0, -2.0)])
    def test_domain_errors(self, a, x):
        with pytest.raises(DomainError):
            hyperint_F(a, 2.0, x)

    def test_deterministic(self):
        assert hyperint_F(1.7, 2.2, 0.9) == hyperint_F(1.7, 2.2, 0.9)


class TestLogHyperint:
    @pytest.mark.parametrize("a,b,x", [
        # a <= 1 with large b: the unscaled pieces used to overflow
        (1.0, 365.5, 20.0), (0.5, 400.0, 20.0), (0.3, 500.0, 10.0),
        # a = 1 with the [0, 1] peak at t = 0, and two small-value cases
        (1.0, 2.0, 800.0), (0.5, 1.6, 800.0), (0.2, 0.5, 0.01),
        # the [1, inf) peak t_star lies far out (about 160 to 900): a rule
        # over all of it sees a narrow spike and returned values e^28 and
        # more too small
        (0.5, 400.0, 1.0), (2.0, 400.0, 1.0), (3.0, 800.0, 1.0),
        (600.0, 650.0, 4.0), (300.0, 303.0, 0.8), (600.0, 900.0, 1.6),
        (900.0, 903.0, 1.6),
        # a tiny a, as in PRICING_GAMMA's x > 0 kernels (a = 2e-8 + k),
        # where the split rule was up to 3.8e-7 off: right of the peak x e^s
        # ends the integrand at d of about 18, far inside the peak's
        # curvature width of 2e4, and left of it e^(a d) runs for 1/a
        (1e-8, 1.1, 2.5e7), (2e-8, 2.1, 1e8), (1e-8, 0.5, 3.0),
        (7.915e-7, 4.708, 0.01298), (4.074e-9, 3.257, 2.017),
    ])
    def test_small_shape_matches_mpmath(self, a, b, x):
        # log Gamma(a) U(a, b, x) at 30 digits
        with mpmath.workdps(30):
            ref = float(mpmath.log(mpmath.gamma(a) * mpmath.hyperu(a, b, x)))
        assert log_hyperint(a, b, x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a,b,x", [
        # the mass is a spike near t = 0, at (a-1)/x or within 1/x of 0: a
        # rule over [0, 1] in t summed it to 0 ("underflowed"), and the
        # peak overflowed to NaN past x = 1e154
        (28.0, 32.3, 8.3e6), (28.0, 32.3, 8.3e300), (0.5, 4.8, 1e10),
        (1.0, 51.0, 1e6), (0.05, 0.05, 1e100), (300.0, 350.0, 1.7e308),
        # a split rule missed the spike with no error, and returned -467.46,
        # -78.27 and -6257.85 for -152.73, -34.86 and -6006.31
        (13.68, 42.73, 3.455e5), (3.30, 134.01, 5.239e4),
        (864.46, 1015.78, 3.303e5),
    ])
    def test_spike_near_zero_matches_mpmath(self, a, b, x):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.gamma(a) * mpmath.hyperu(a, b, x)))
        assert abs(log_hyperint(a, b, x) - ref) <= 1e-10

    @pytest.mark.parametrize("a", [1e-30, 1e-100, 1e-300])
    def test_vanishing_shape_is_one_over_a(self, a):
        # I(a, b, x) = 1/a + O(log x) as a -> 0 when b stays small, almost
        # all of it from the e^(a d) tail left of the peak, up to 1e300
        # long
        for b in (a - 0.5, a, a + 1.0, a + 2.5):
            for x in (0.3, 1e5, 1e300):
                assert log_hyperint(a, b, x) == pytest.approx(
                    -math.log(a), rel=1e-14, abs=0.0), (b, x)

    def test_random_arguments_match_mpmath(self):
        # a from 1e-10 to 1000, b - a from -0.99 to 1000, x from 1e-3 to
        # 1e308: 100 seeded uniform draws of (log10 a, b - a, log10 x),
        # then the corners and the case below.  mpmath's hyperu is itself
        # wrong at some of these (at (425.34, 768.33, 560.47) it gives
        # -177.32 up to 100 digits and -324.31 at 200), so a reference
        # counts only where 50 and 200 digits agree, and at least 90 of
        # the draws must have one
        ranges = ((-10.0, 3.0), (-0.99, 1000.0), (-3.0, 308.0))
        draws = np.random.default_rng(1).uniform(*np.array(ranges).T, (100, 3))
        fixed = [*itertools.product(*ranges),
                 (math.log10(425.34), 768.33 - 425.34, math.log10(560.47))]
        evaluated = 0
        for i, (log_a, d, log_x) in enumerate([*draws.tolist(), *fixed]):
            a, x = 10.0 ** log_a, 10.0 ** log_x
            b = a + d
            refs = []
            for dps in (50, 200):
                with mpmath.workdps(dps):
                    refs.append(float(mpmath.log(mpmath.gamma(a)
                                                 * mpmath.hyperu(a, b, x))))
            ref = refs[1]
            if abs(refs[0] - ref) > 1e-13 * max(1.0, abs(ref)):
                continue
            evaluated += i < len(draws)
            assert abs(log_hyperint(a, b, x) - ref) <= \
                1e-12 * max(1.0, abs(ref)), (a, b, x)
        assert evaluated >= 90

    @pytest.mark.parametrize("a,b,x", [
        (1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (1.0, -math.inf, 1.0),
        (math.inf, 2.0, 1.0), (1.0, 2.0, math.inf)])
    def test_non_finite_arguments_rejected(self, a, b, x):
        # each gave NaN with no error under the QUADPACK rule
        with pytest.raises(DomainError, match="require finite a, x > 0 and b"):
            log_hyperint(a, b, x)
        with pytest.raises(DomainError, match="require finite a, x > 0 and b"):
            log_hyperint([1.5, a], [2.0, b], [0.8, x])

    def test_levels_exhausted_raise(self, monkeypatch):
        # (0.5, 400, 1) needs h = 1/64; capped at h = 1/32 it fails with one
        # line naming the argument, the levels and the last gap, also when
        # the other arguments of the call converge
        monkeypatch.setattr(quadrature, "_HYPERINT_LEVELS", 1)
        message = (r"^log_hyperint failed at \(a, b, x\) = \(0\.5, 400\.0, "
                   r"1\.0\): 2 levels, the last two \S+ apart$")
        with pytest.raises(NonConvergenceError, match=message):
            log_hyperint(0.5, 400.0, 1.0)
        with pytest.raises(NonConvergenceError, match=message):
            log_hyperint([1.5, 0.5, 2.0], [2.0, 400.0, 3.5], [0.8, 1.0, 1.5])

    def test_batch_is_bitwise_the_scalar_calls(self):
        # each argument closes at its own level (these 40 at h = 1/32, 1/64
        # and 1/128) and sums its own row, so an entry does not depend on
        # the others: permuted, duplicated or alone
        draws = np.random.default_rng(4).uniform(
            (-10.0, -0.99, -3.0), (3.0, 1000.0, 308.0), (40, 3))
        a, x = 10.0 ** draws[:, 0], 10.0 ** draws[:, 2]
        b = a + draws[:, 1]
        alone = [log_hyperint(*v) for v in zip(a.tolist(), b.tolist(), x.tolist())]
        assert all(type(v) is float for v in alone)
        order = np.random.default_rng(5).permutation(np.repeat(np.arange(40), 2))
        got = log_hyperint(a[order], b[order], x[order])
        assert got.tolist() == [alone[i] for i in order]
        # broadcasting keeps the shape; a 0-d call is a float
        grid = log_hyperint(a[:6].reshape(2, 3), b[:6].reshape(2, 3), x[0])
        assert grid.shape == (2, 3)
        assert grid.ravel().tolist() == [log_hyperint(*v) for v in
                                         zip(a[:6].tolist(), b[:6].tolist(), [x[0]] * 6)]

    @staticmethod
    def _relation_arguments(seed, ranges):
        """(a, b, x) for 100 seeded uniform draws of (a, b - a, x) over
        ``ranges``, then every corner of them."""
        draws = np.random.default_rng(seed).uniform(*np.array(ranges).T, (100, 3))
        for a, d, x in [*draws.tolist(), *itertools.product(*ranges)]:
            yield a, a + d, x

    def test_contiguous_relations(self):
        # (A) I(a, b+1) = I(a, b) + I(a+1, b+1)           (DLMF 13.3.10)
        # (B) x I(a, b+1) + (b-a-1) I(a, b-1) = (b-1+x) I(a, b)  (13.3.8)
        for a, b, x in self._relation_arguments(
                2, ((0.05, 600.0), (-0.9, 300.0), (0.05, 30.0))):
            l0, l_up = log_hyperint(a, b, x), log_hyperint(a, b + 1.0, x)
            l_down = log_hyperint(a, b - 1.0, x)
            l_diag = log_hyperint(a + 1.0, b + 1.0, x)
            assert abs(l_up - np.logaddexp(l0, l_diag)) <= 1e-10, (a, b, x)
            terms = (x * math.exp(l_up - l0),
                     (b - a - 1.0) * math.exp(l_down - l0), -(b - 1.0 + x))
            assert abs(math.fsum(terms)) <= 1e-10 * sum(map(abs, terms)), \
                (a, b, x)

    def test_diagonal_relation(self):
        # (D) a I(a, b) + (b - x) I(a+1, b+1) = x I(a+2, b+2), by parts on
        # d/dt [t^a (1+t)^(b-a) e^(-xt)]
        for a, b, x in self._relation_arguments(
                3, ((0.05, 600.0), (-0.9, 300.0), (0.05, 400.0))):
            l0 = log_hyperint(a, b, x)
            l1 = log_hyperint(a + 1.0, b + 1.0, x)
            l2 = log_hyperint(a + 2.0, b + 2.0, x)
            terms = (a, (b - x) * math.exp(l1 - l0), -x * math.exp(l2 - l0))
            assert abs(math.fsum(terms)) <= 1e-10 * sum(map(abs, terms)), \
                (a, b, x)


def kernel_grid(a0, b0, x, rows, cols):
    """The grid of log_hyperint_blocks, checking that its blocks tile it
    once each."""
    grid, hits = np.full((rows, cols), np.nan), np.zeros((rows, cols), int)
    [blocks] = log_hyperint_blocks([(a0, b0, x, rows, cols)])
    for i, j, block in blocks:
        m, n = block.shape
        grid[i:i + m, j:j + n] = block
        hits[i:i + m, j:j + n] += 1
    assert (hits == 1).all()
    return grid


def counting_seed(seeds):
    """log_hyperint, recording each (a, b) it integrates, arrays or floats."""
    def seed(a, b, x):
        seeds.extend(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))
        return log_hyperint(a, b, x)
    return seed


class TestLogHyperintRows:
    @pytest.mark.parametrize("a0,b0,x,rows,cols", [
        (0.7, 1.2, 0.3, 5, 7), (40.0, 45.5, 2.0, 5, 7), (2.5, 300.0, 1.0, 5, 7),
        # k0 = ceil(x - b0) = 400 is interior: 400 steps of the diagonal
        # relation backward and 200 forward
        (0.05, 0.3, 400.0, 600, 3),
        # k0 clipped at 0 (x < b0): forward only
        (0.5, 30.0, 2.0, 60, 4),
        # k0 clipped at the top (x - b0 past the grid): backward only
        (1.5, 2.0, 90.0, 40, 5),
        # LARGE_B's x = -1 grid (506 rows of one column) and its x = 0.2
        # grid (one row of 506 columns)
        (15.5, 16.5, 20.0, 506, 1), (1.0, 16.5, 4.0, 1, 506),
    ])
    def test_matches_pointwise_by_diagonal(self, a0, b0, x, rows, cols,
                                           monkeypatch):
        # the walk runs along rows where rows <= cols (the wide grids
        # above) and along columns otherwise (the tall ones)
        seeds = []
        monkeypatch.setattr(bilgamma.combo, "log_hyperint", counting_seed(seeds))
        got = kernel_grid(a0, b0, x, rows, cols)
        assert len(seeds) <= 2
        # every seed lies on the diagonal b - a = b0 - a0
        assert all(b - a == pytest.approx(b0 - a0) for a, b in seeds)
        for i, row in enumerate(got):
            ref = [log_hyperint(a0 + i, b0 + i + j, x) for j in range(cols)]
            np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0.0)

    def test_blocks_bound_memory(self):
        # a block holds whole rows (or columns) of about 2^16 entries
        for rows, cols in ((3, 70_000), (70_000, 3), (300, 300)):
            [blocks] = log_hyperint_blocks([(2.0, 3.5, 1.5, rows, cols)])
            blocks = list(blocks)
            assert max(b.size for *_, b in blocks) <= max(2 ** 16, rows, cols)
            assert sum(b.size for *_, b in blocks) == rows * cols

    def test_single_column_and_row(self, monkeypatch):
        seeds = []
        monkeypatch.setattr(bilgamma.combo, "log_hyperint", counting_seed(seeds))
        assert kernel_grid(1.5, 2.0, 0.8, 1, 1).tolist() == [
            [log_hyperint(1.5, 2.0, 0.8)]]
        assert seeds == [(1.5, 2.0)]

    def test_grids_share_one_seed_call(self, monkeypatch):
        # one log_hyperint call seeds every grid, and each grid's blocks are
        # bitwise what they are when it is seeded alone
        grids = [(0.7, 1.2, 0.3, 5, 7), (0.05, 0.3, 400.0, 600, 3),
                 (1.5, 2.0, 0.8, 1, 1), (15.5, 16.5, 20.0, 506, 1),
                 (1.0, 16.5, 4.0, 1, 506), (0.7, 1.2, 0.3, 5, 7)]
        alone = [kernel_grid(*grid) for grid in grids]
        calls = []

        def counted(a, b, x):
            calls.append(np.size(a))
            return log_hyperint(a, b, x)

        monkeypatch.setattr(bilgamma.combo, "log_hyperint", counted)
        for blocks, ref in zip(log_hyperint_blocks(grids), alone):
            got = np.full(ref.shape, np.nan)
            for i, j, block in blocks:
                got[i:i + block.shape[0], j:j + block.shape[1]] = block
            assert got.tobytes() == ref.tobytes()
        assert calls == [11]
        assert log_hyperint_blocks([]) == []

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0)])
    def test_empty_grid_rejected(self, rows, cols):
        with pytest.raises(DomainError):
            log_hyperint_blocks([(1.0, 2.0, 1.0, rows, cols)])

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_bad_x_rejected(self, x):
        with pytest.raises(DomainError):
            log_hyperint_blocks([(1.0, 2.0, x, 3, 3)])


class TestOscillatoryIntegral:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        # QUADPACK's Fourier rule does not return from a non-finite wvar
        g = MODEL_GRID["five_mixed"].cf
        with pytest.raises(DomainError):
            oscillatory_integral(g, x, 0.0)
        with pytest.raises(DomainError):
            fourier_density(g, x)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 0.5), (3.0, 7.0)])
    def test_exponential_difference_closed_form(self, alpha, beta):
        # BG(alpha, 1, beta, 1) is Exp(alpha) - Exp(beta): its density is
        # alpha beta / (alpha + beta) times e^(-alpha x) for x > 0 and
        # e^(beta x) for x < 0, from |x| = 1e-9 out to 30
        model = single(alpha, 1.0, beta, 1.0)
        scale = alpha * beta / (alpha + beta)
        for size in (1e-9, 1e-6, 0.3, 5.0, 30.0):
            for x, rate in ((size, alpha), (-size, beta)):
                closed = scale * math.exp(-rate * size)
                assert abs(model.pdf_fourier(x) - closed) <= 1e-13, x

    @pytest.mark.parametrize("name", ["laplace", "pair_nonint", "five_mixed"])
    def test_grid_is_bitwise_the_pointwise_calls(self, name):
        # each x of a grid keeps its own nodes and stopping test, and a
        # level shares only its one call of g, so an entry is bitwise its
        # float call: signs mixed, |x| from 1e-9 to 50, x = 0 on QUADPACK's
        # infinite-range rule, duplicates, points that close at different
        # levels, a one-point array, and the Gil-Pelaez tail's g on [1, inf)
        model = MODEL_GRID[name]
        rng = np.random.default_rng(37)
        sizes = np.exp(rng.uniform(math.log(1e-9), math.log(50.0), 16))
        xs = np.concatenate([sizes * rng.choice([-1.0, 1.0], 16),
                             [0.0, 1e-9, -50.0]])
        xs = np.concatenate([xs, xs[[3, 16, 0]]])
        levels = []

        def counted(z):
            levels[-1] += isinstance(z, np.ndarray)
            return model.cf(z)

        alone = []
        for x in xs.tolist():
            levels.append(0)
            alone.append(oscillatory_integral(counted, x, 0.0))
        assert all(type(v) is float for v in alone)
        assert len({n for n in levels if n}) >= 3, levels
        got = oscillatory_integral(model.cf, xs, 0.0)
        assert got.tolist() == alone
        assert oscillatory_integral(model.cf, xs[::-1].reshape(2, 11), 0.0
                                    ).ravel().tolist() == alone[::-1]
        assert oscillatory_integral(model.cf, xs[[5]], 0.0).tolist() == [alone[5]]
        assert model.pdf_fourier(xs).tolist() == [
            model.pdf_fourier(x) for x in xs.tolist()]
        assert type(model.pdf_fourier(0.5)) is float

        def tail(z):
            return -1j * model.cf(z) / z

        levels_at = xs[:8]
        assert oscillatory_integral(tail, levels_at, 1.0).tolist() == [
            oscillatory_integral(tail, x, 1.0) for x in levels_at.tolist()]

    def test_grid_raises_its_first_failing_x(self, monkeypatch):
        # every x runs; the error raised is the first in grid order, named
        # by its x, whichever failed first in time
        monkeypatch.setattr(quadrature, "_FOURIER_LEVELS", 2)
        model = MODEL_GRID["pair_nonint"]
        with pytest.raises(NonConvergenceError, match=(
                r"^Fourier quadrature failed on \[0\.0, inf\) at x=0\.3: "
                r"2 levels, the last two \S+ apart$")):
            model.pdf_fourier(np.array([-3.0, 0.3, 0.01, 2.0]))
        with pytest.raises(DomainError, match=r"got x=nan$"):
            model.pdf_fourier(np.array([-3.0, math.nan, 0.01]))
        with pytest.raises(NonConvergenceError, match=r"at x=1e-300: \|x\| "
                           r"is below its reach$"):
            model.pdf_fourier(np.array([1e-300, 0.01]))

    def test_below_reach_raises(self):
        # the node tables run until their weights underflow, which at
        # |x| = 1e-300 leaves every node far past the cf's mass: a typed
        # error, not a density of 0
        with pytest.raises(NonConvergenceError, match=r"at x=1e-300: \|x\| "
                           r"is below its reach$"):
            MODEL_GRID["laplace"].pdf_fourier(1e-300)

    def test_agrees_across_scales(self):
        # the nodes must sample the cf's mass at every |x|: QUADPACK's first
        # cycle, pi/|x| long, missed it, and pdf_fourier gave 4.5e-27 at
        # x = 1e-6 on five_mixed, where the density is 0.43.  At |x|
        # log-uniform in [1e-9, 1], both signs, the Fourier density matches
        # the series within C3's 1e-6 (relative above 1) or raises a typed
        # error, on the model grid and on seeded models whose effective
        # rates and weights are log-uniform in [0.1, 10], every other one of
        # total shape below 1
        rng = np.random.default_rng(35)

        def log_uniform(low, high, size):
            return np.exp(rng.uniform(math.log(low), math.log(high), size))

        models = list(MODEL_GRID.values())
        for i in range(12):
            n = int(rng.integers(1, 5))
            rate, weight = log_uniform(0.1, 10.0, (2, n)), log_uniform(0.1, 10.0, (2, n))
            shapes = (rng.dirichlet(np.ones(2 * n)) * rng.uniform(0.05, 1.0)
                      if i % 2 else log_uniform(0.1, 10.0, 2 * n) / 2.0)
            models.append(LinearCombinationModel(
                rate[0] * weight[0], shapes[:n], rate[1] * weight[1],
                shapes[n:], weight[0], weight[1]))
        agreed = 0
        for model in models:
            rep = build_mixture(model)
            xs = log_uniform(1e-9, 1.0, 12) * rng.choice([-1.0, 1.0], 12)
            for x in map(float, xs):
                series = rep.pdf_series(x)
                try:
                    fourier = model.pdf_fourier(x)
                except BilgammaError:
                    continue
                assert abs(fourier - series) <= 1e-6 * max(1.0, series), x
                agreed += 1
        assert agreed >= 0.9 * 12 * len(models)
        # near the money, where the Gil-Pelaez tails' level is near 0 (the
        # integral price was 0.78296 at K = 1.0000001 against 0.97377), and
        # far out of it, where the integral route reports 1e-8 absolute
        for size in log_uniform(1e-10, 1e-3, 6):
            for level in (size, -size):
                inputs = PricingInputs(s0=1.0, strike=math.exp(level),
                                       rate=0.05, maturity=1.0)
                series = price_call_gamma_series(PRICING_GAMMA, inputs)[0]
                assert price_call_integral(PRICING_GAMMA, inputs) == \
                    pytest.approx(series, rel=1e-9), level
        for strike in (1e4, 3e5, 1e6, 1e7, 1e9):
            inputs = PricingInputs(s0=1.0, strike=strike, rate=0.05,
                                   maturity=1.0)
            series = price_call_gamma_series(PRICING_GAMMA, inputs)[0]
            assert abs(price_call_integral(PRICING_GAMMA, inputs) - series) \
                <= 1e-8, strike
