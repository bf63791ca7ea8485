import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyperu

import bilgamma.combo
from bilgamma import (
    DomainError,
    NonConvergenceError,
    QuadratureSpec,
    integrate_zero_to_inf,
)
from bilgamma.combo import log_hyperint_rows
from bilgamma.models import MODEL_GRID
from bilgamma.quadrature import (
    DEFAULT_QUAD,
    fourier_density,
    log_hyperint,
    oscillatory_integral,
)


def hyperint_F(a, b, x):
    # the second-kind confluent hypergeometric F(a, b, x) = U(a, b, x), the
    # integral I(a, b, x) of log_hyperint over Gamma(a)
    return math.exp(log_hyperint(a, b, x) - math.lgamma(a))


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-10
        assert spec.max_subdivisions == 2000

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0}, {"abs_tol": -1e-3}, {"rel_tol": 0.0},
        {"max_subdivisions": 0}, {"abs_tol": math.inf}, {"rel_tol": math.nan},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


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

    def test_nonconvergence_raises(self):
        # sin is not integrable on (0, inf); the subdivision budget runs out.
        # The message is one line naming the rule, the interval and the
        # reason, not scipy's six-line advice
        with pytest.raises(NonConvergenceError) as err:
            integrate_zero_to_inf(math.sin, QuadratureSpec(max_subdivisions=50))
        assert str(err.value) == (
            "QAGS quadrature failed on [0.0, 1.0]: The maximum number of "
            "subdivisions (50) has been achieved.")

    def test_oscillatory_nonconvergence_names_the_cycle(self):
        # QAWF's reason is the first failing cycle's explanation, not
        # scipy's table of all five explanations
        with pytest.raises(NonConvergenceError) as err:
            MODEL_GRID["pair_nonint"].pdf_fourier(
                0.5, QuadratureSpec(max_subdivisions=1))
        assert str(err.value) == (
            "oscillatory quadrature (QAWF, cos part) failed on [0.0, inf) at "
            "x=0.5: cycle 1: The maximum number of subdivisions (= limit) has "
            "been achieved on this cycle.")


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
    ])
    def test_matches_pointwise_by_diagonal(self, a0, b0, x, rows, cols,
                                           monkeypatch):
        seeds = []

        def seed(a, b, x, spec):
            seeds.append((a, b))
            return log_hyperint(a, b, x, spec)

        monkeypatch.setattr(bilgamma.combo, "log_hyperint", seed)
        got = {i: row.copy() for i, row in
               log_hyperint_rows(a0, b0, x, rows, cols)}
        assert sorted(got) == list(range(rows))
        assert len(seeds) <= 3
        # every seed lies on the diagonal b - a = b0 - a0
        assert all(b - a == pytest.approx(b0 - a0) for a, b in seeds)
        for i, row in got.items():
            ref = [log_hyperint(a0 + i, b0 + i + j, x) for j in range(cols)]
            np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0.0)

    def test_single_column_and_row(self, monkeypatch):
        seeds = []

        def seed(a, b, x, spec):
            seeds.append((a, b))
            return log_hyperint(a, b, x, spec)

        monkeypatch.setattr(bilgamma.combo, "log_hyperint", seed)
        (i, row), = log_hyperint_rows(1.5, 2.0, 0.8, 1, 1)
        assert i == 0 and row.tolist() == [log_hyperint(1.5, 2.0, 0.8)]
        assert seeds == [(1.5, 2.0)]

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0)])
    def test_empty_grid_rejected(self, rows, cols):
        with pytest.raises(DomainError):
            next(log_hyperint_rows(1.0, 2.0, 1.0, rows, cols))

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_bad_x_rejected(self, x):
        with pytest.raises(DomainError):
            next(log_hyperint_rows(1.0, 2.0, x, 3, 3))


def two_pass_integral(g, x, lower, spec=DEFAULT_QUAD, nodes=None):
    """int_lower^inf Re(e^(-ixz) g(z)) dz as two QAWF passes that each call
    ``g`` at every node they visit, recording the nodes in ``nodes``."""
    def at(z):
        if nodes is not None:
            nodes.append(z)
        return g(z)

    return sum(quad(part, lower, np.inf, weight=weight, wvar=x,
                    epsabs=spec.abs_tol, limlst=150,
                    limit=spec.max_subdivisions)[0]
               for part, weight in ((lambda z: at(z).real, "cos"),
                                    (lambda z: at(z).imag, "sin")))


class TestOscillatoryIntegral:
    @pytest.mark.parametrize("x,lower", [(-4.3, 0.0), (1.7, 0.0), (0.6, 1.0)])
    def test_one_call_per_distinct_node(self, x, lower):
        g = MODEL_GRID["five_mixed"].cf
        calls, visited = [], []

        def counted(z):
            calls.append(z)
            return g(z)

        got = oscillatory_integral(counted, x, lower, DEFAULT_QUAD)
        ref = two_pass_integral(g, x, lower, nodes=visited)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(visited)
        # the cos and sin passes share nodes, so each node once is fewer calls
        assert len(calls) < len(visited)
        assert got == ref

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        # QUADPACK's Fourier rule does not return from a non-finite wvar
        g = MODEL_GRID["five_mixed"].cf
        with pytest.raises(DomainError):
            oscillatory_integral(g, x, 0.0, DEFAULT_QUAD)
        with pytest.raises(DomainError):
            fourier_density(g, x)

    @pytest.mark.parametrize("name", ["single_asym", "five_mixed"])
    def test_fourier_density_matches_two_pass_reference(self, name):
        cf = MODEL_GRID[name].cf
        for x in (-4.3, -0.9, 0.4, 2.6):
            assert fourier_density(cf, x) == two_pass_integral(cf, x, 0.0) / math.pi
