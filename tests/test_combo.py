import hashlib
import itertools
import json
import math
import re
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import stats

import bilgamma.combo
from bilgamma import (
    BilgammaError,
    DomainError,
    LinearCombinationModel,
    ModelFileError,
    NonConvergenceError,
    NonFiniteResultError,
    OutOfStripError,
    RandomStream,
    SingularPointError,
    TruncationFailureError,
    build_mixture,
    integrate_zero_to_inf,
    load_model,
    sample_direct,
)
from bilgamma.combo import GammaMixture, read_fields
from bilgamma.models import MODEL_GRID, PRICING_GAMMA
from bilgamma.quadrature import log_hyperint
from conftest import block_cumulant_se, pdf_series_pairwise, run_child, single

GEOMETRIC_PAIR = LinearCombinationModel.from_components(
    [(1.0, 1.0, 3.0, 1.0, 1.0, 1.0), (2.0, 1.0, 4.0, 1.0, 1.0, 1.0)])

# positive rates spanning a ratio of 200: a positive pmf of about 5.5k terms
DEEP_LAM = (4.0 / 200.0, 4.0 / math.sqrt(200.0), 4.0)
DEEP_SHAPES = (1.0, 1.05, 0.95)
DEEP_MODEL = LinearCombinationModel.from_components(
    [(lam, p, 2.0 + j, 1.0, 1.0, 1.0)
     for j, (lam, p) in enumerate(zip(DEEP_LAM, DEEP_SHAPES))])

# positive rates spanning a ratio of 290: a positive pmf of 8017 terms
WIDE_MODEL = LinearCombinationModel.from_components(
    [(lam, 1.0, 2.0 + j, 1.0, 1.0, 1.0)
     for j, lam in enumerate((4.0 / 290.0, 4.0 / 17.0, 4.0))])

# pos.pmf[0] = 2^-50 and the pmf peaks at 48, so a series that stops at
# its first small weight returns 0
INTERIOR_MODE = LinearCombinationModel.from_components(
    [(1.0, 50.0, 10.0, 0.5, 1.0, 1.0), (2.0, 0.5, 10.0, 0.5, 1.0, 1.0)])
INTERIOR_MIRROR = LinearCombinationModel(
    INTERIOR_MODE.beta, INTERIOR_MODE.q, INTERIOR_MODE.alpha,
    INTERIOR_MODE.p, INTERIOR_MODE.w2, INTERIOR_MODE.w1)

# its positive pmf is P(0) = 2^-0.5 alone at tail_tol 0.3, with tail ratio 1/2
SHALLOW = LinearCombinationModel.from_components(
    [(1, 0.5, 3, 1, 1, 1), (2, 0.5, 3, 1, 1, 1)])

# L has 506 terms and M one, so the x > 0 kernels reach log_hyperint at
# a = 0.5, 1 with b up to ~520
LARGE_B = LinearCombinationModel.from_components(
    [(1.0, 15.0, 10.0, 0.5, 1.0, 1.0), (10.0, 0.5, 10.0, 0.5, 1.0, 1.0)])

# the fuzzing ranges for rates (weights included) and shapes
RATE_RANGE, SHAPE_RANGE = (1e-2, 1e2), (1e-2, 50.0)

# the errors that say a pmf is out of reach: the term cap, a tail_tol
# below the precision of the computed terms, and P(0) underflowing
PMF_OUT_OF_REACH = (r"pmf mass \S+ below 1 - \S+ after 10000 terms$"
                    r"|tail_tol \S+ is below the computed pmf's precision floor"
                    r"|pmf mass at 0 underflows")


def random_models(seed, count, max_n=6):
    """``count`` seeded models of 1 to ``max_n`` components, with rates and
    weights log-uniform over RATE_RANGE and shapes over SHAPE_RANGE.
    Numpy draws, not hypothesis: hypothesis (6.155) feeds literals from
    the loaded modules into its draws, so a derandomized test's examples
    change with the constants in src and with the test order."""
    rng = np.random.default_rng(seed)

    def log_uniform(bounds, size):
        return np.exp(rng.uniform(*np.log(bounds), size))

    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        rate, shape = log_uniform(RATE_RANGE, (4, n)), log_uniform(SHAPE_RANGE, (2, n))
        yield LinearCombinationModel(rate[0], shape[0], rate[1], shape[1],
                                     rate[2], rate[3])


def build_in_reach(model, tail_tol):
    """The mixture of ``model``, or None when its pmf is out of reach."""
    try:
        return build_mixture(model, tail_tol=tail_tol)
    except TruncationFailureError as exc:
        assert re.match(PMF_OUT_OF_REACH, str(exc)), exc
        return None


def two_deep_sides(ratio):
    """Rates 4/ratio, 4/sqrt(ratio), 4 on both sides: both pmfs run to
    hundreds of terms (454 each at ratio 20 and tail_tol 1e-10)."""
    rates = (4.0 / ratio, 4.0 / math.sqrt(ratio), 4.0)
    return LinearCombinationModel.from_components(
        [(r, s, r, s, 1.0, 1.0) for r, s in zip(rates, DEEP_SHAPES)])


def positive_side(model):
    """The inputs ``build_mixture`` passes ``_mixture_pmf`` for L:
    theta_j, the shapes and log P(L = 0)."""
    ratio = model.lam / model.eta
    return 1.0 - ratio, model.p, float(np.sum(model.p * np.log(ratio)))


def pmf_mpmath(theta, shapes, log_mass0, terms):
    """The first ``terms`` pmf entries by the classical recursion
    g_k = (1/k) sum_{i<=k} s_i g_(k-i), s_i = sum_j shapes_j theta_j^i,
    at 40 digits from the same float inputs as ``_mixture_pmf``."""
    with mpmath.workdps(40):
        th = [mpmath.mpf(t) for t in theta.tolist()]
        sh = [mpmath.mpf(v) for v in shapes.tolist()]
        powers = [mpmath.mpf(1)] * len(th)
        s, g = [], [mpmath.mpf(1)]
        for k in range(1, terms):
            powers = [a * b for a, b in zip(powers, th)]
            s.append(mpmath.fdot(sh, powers))
            g.append(mpmath.fdot(s, g[::-1]) / k)
        mass0 = mpmath.exp(log_mass0)
        return np.array([float(mass0 * v) for v in g])


def raw_moments(cumulant):
    """E[T^k], k = 1..4, from the cumulants c_k = cumulant(k)."""
    c1, c2, c3, c4 = (cumulant(k) for k in range(1, 5))
    return [c1, c2 + c1 ** 2, c3 + 3 * c2 * c1 + c1 ** 3,
            c4 + 4 * c3 * c1 + 3 * c2 ** 2 + 6 * c2 * c1 ** 2 + c1 ** 4]


class TestModelValidation:
    def test_requires_positive_entries(self):
        with pytest.raises(DomainError, match="component 1.*'beta'"):
            LinearCombinationModel.from_components(
                [(1, 1, 1, 1, 1, 1), (1, 1, -2.0, 1, 1, 1)])

    def test_requires_component(self):
        with pytest.raises(DomainError):
            LinearCombinationModel.from_components([])

    def test_ragged_components_rejected(self):
        # zip truncated to the shortest row and dropped the 9
        with pytest.raises(DomainError, match="exactly 6 entries"):
            LinearCombinationModel.from_components(
                [(1, 1, 1, 1, 1, 1, 9), (2, 1, 1, 1, 1, 1)])

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

    @pytest.mark.parametrize("obj, message", [
        ({"a": 1}, "doc: missing field 'b'"),
        ({"a": 1, "b": 2, "c": [3]}, "doc: field 'c' is not a number: [3]"),
        # a JSON integer literal past the largest double used to escape as
        # an OverflowError traceback (exit 1)
        ({"a": 10 ** 400, "b": 1}, "doc: field 'a' overflows a double"),
    ])
    def test_read_fields_names_document_and_field(self, obj, message):
        with pytest.raises(ModelFileError) as err:
            read_fields(obj, "doc", ("a", "b"), ("c",))
        assert str(err.value) == message

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
        assert rep.pos.rate == 2.0 and rep.neg.rate == 3.0
        assert rep.pos.pmf[0] == 1.0 and rep.neg.pmf[0] == 1.0
        np.testing.assert_array_equal(rep.pos.pmf, [1.0])
        np.testing.assert_array_equal(rep.neg.pmf, [1.0])
        assert len(rep.pos.pmf) == 1

    def test_geometric_positive_side(self):
        # rates (1, 2), unit shapes: P(L=k) = (1/2)^(k+1)
        rep = build_mixture(GEOMETRIC_PAIR)
        kk = np.arange(len(rep.pos.pmf))
        np.testing.assert_allclose(rep.pos.pmf, 0.5 ** (kk + 1), rtol=1e-13)
        assert rep.pos.pmf[0] == pytest.approx(0.5)

    def test_truncation_contract(self, model_grid):
        for model in model_grid.values():
            rep = build_mixture(model, tail_tol=1e-12)
            assert rep.pos.pmf.sum() >= 1.0 - 1e-12
            assert rep.neg.pmf.sum() >= 1.0 - 1e-12
            assert np.all(rep.pos.pmf >= 0.0)
            assert np.all(rep.neg.pmf >= 0.0)

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, 2.0, -1.0, math.nan])
    def test_tail_tol_outside_unit_interval(self, pair_nonint, tail_tol):
        # one side alone checks it: 2 and nan returned a one-term pmf of
        # mass 0.43, and -1 ran to the term cap
        with pytest.raises(DomainError, match=r"tail_tol must be in \(0, 1\)"):
            GammaMixture.build(pair_nonint.lam, pair_nonint.p, tail_tol)

    def test_pmfs_read_only(self, pair_integer):
        rep = build_mixture(pair_integer)
        with pytest.raises(ValueError):
            rep.pos.pmf[1] *= 1.5
        with pytest.raises(ValueError):
            rep.neg.pmf[0] = 0.0

    def test_truncation_failure(self, pair_nonint, monkeypatch):
        monkeypatch.setattr(bilgamma.combo, "_PMF_MAX_TERMS", 3)
        with pytest.raises(TruncationFailureError,
                           match=r"^pmf mass \S+ below 1 - 1e-12 after 3 terms$"):
            build_mixture(pair_nonint, tail_tol=1e-12)

    @pytest.mark.parametrize("neg", [
        # log P(M=0) = -902.9: P(0) underflows to 0
        [(1.0, 1.0), (0.5, 135.0), (384.0, 0.01)],
    ])
    def test_pmf_overflow_is_an_error(self, neg):
        # this returned a pmf ending in NaN; the underflow is reported by
        # the error alone, with no numpy warning
        model = LinearCombinationModel.from_components(
            [(1.0, 1.0, beta, q, 1.0, 1.0) for beta, q in neg])
        with pytest.raises(TruncationFailureError):
            build_mixture(model)

    def test_subnormal_mass0_is_negative_binomial(self):
        # log P(M=0) = -719.0, a subnormal P(0); the second component has
        # theta = 0, so M ~ NB(240, 1/20) exactly.  g_k = P(k)/P(0) passes
        # 2**512 at k = 307 and overflowed at 3284 before the rescale
        model = LinearCombinationModel.from_components(
            [(1.0, 1.0, 1.0, 240.0, 1.0, 1.0), (1.0, 1.0, 20.0, 0.01, 1.0, 1.0)])
        pmf = build_mixture(model).neg.pmf
        theta = 1.0 - 1.0 / 20.0
        with mpmath.workdps(40):
            ref = [mpmath.exp(float(np.sum(model.q * np.log(model.mu / model.xi))))]
            for k in range(1, len(pmf)):
                ref.append(ref[-1] * theta * (239 + k) / k)
            ref = np.array([float(v) for v in ref])
        assert math.fsum(pmf) >= 1.0 - 1e-12 - len(pmf) * np.finfo(float).eps
        # subnormal entries carry fewer digits: compare them absolutely
        normal = ref >= sys.float_info.min
        np.testing.assert_allclose(pmf[normal], ref[normal], rtol=1e-13)
        np.testing.assert_allclose(pmf[~normal], ref[~normal], rtol=0,
                                   atol=sys.float_info.min * 1e-15)

    def test_pmf_past_former_overflow(self, monkeypatch):
        # P(L=0) = e^-713.5 is subnormal, so g_k = P(k)/P(0) outgrows the
        # float range: this overflowed after 9936 terms, where the pmf
        # needs about 23.1k
        model = LinearCombinationModel.from_components(
            [(1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 0.25, 1), (1, 15, 1, 1, 10, 1),
             (1, 50, 1, 1, 15, 1), (1, 50, 1, 1, 16, 1), (1, 50, 1, 1, 33, 1)])
        with pytest.raises(TruncationFailureError,
                           match=r"pmf mass 0\.000\d+ below 1 - 1e-12 after "
                                 r"10000 terms"):
            build_mixture(model)
        monkeypatch.setattr(bilgamma.combo, "_PMF_MAX_TERMS", 30000)
        pmf = build_mixture(model).pos.pmf
        assert 23000 < len(pmf) < 23200
        slack = len(pmf) * np.finfo(float).eps
        assert 1.0 - 1e-12 - slack <= pmf.sum() <= 1.0 + slack
        # the first rescale is at k = 477
        ref = pmf_mpmath(*positive_side(model), 600)
        np.testing.assert_allclose(pmf[1:600], ref[1:], rtol=1e-13)

    @pytest.mark.parametrize("model,terms", [(LARGE_B, None), (DEEP_MODEL, 1000)],
                             ids=["LARGE_B", "DEEP_MODEL"])
    def test_pmf_matches_mpmath_recursion(self, model, terms):
        # every entry of LARGE_B's L, the first 1000 of DEEP_MODEL's
        pmf = build_mixture(model).pos.pmf
        inputs = positive_side(model)
        np.testing.assert_array_equal(
            pmf, bilgamma.combo._mixture_pmf(*inputs, 1e-12))
        terms = terms or len(pmf)
        np.testing.assert_allclose(pmf[:terms], pmf_mpmath(*inputs, terms),
                                   rtol=1e-13)

    def test_pmf_depths(self, model_grid):
        # (len(pos.pmf), len(neg.pmf)) at tail_tol 1e-12; DEEP_MODEL's
        # 5527 is exact, where a plain float sum of the pmf stopped at 5528
        depths = {"laplace": (1, 1), "single_asym": (1, 1),
                  "pair_integer": (40, 20), "pair_nonint": (75, 15),
                  "pair_kappa": (20, 21), "five_mixed": (93, 25)}
        models = dict(model_grid, DEEP_MODEL=DEEP_MODEL, LARGE_B=LARGE_B)
        depths.update(DEEP_MODEL=(5527, 41), LARGE_B=(563, 1))
        assert set(depths) == set(models)
        for name, model in models.items():
            rep = build_mixture(model, tail_tol=1e-12)
            assert (len(rep.pos.pmf), len(rep.neg.pmf)) == depths[name], name

    @pytest.mark.parametrize("tail_tol", [1e-12, 1e-14])
    def test_pmf_stops_at_exact_mass(self, tail_tol):
        # each pmf ends at the first K whose exact mass (math.fsum) reaches
        # 1 - tail_tol.  A plain float running sum stopped DEEP_MODEL at
        # 5528 for 1e-12, and at 1e-14 stalled at 1 - 1.07e-14 and raised
        rng = np.random.default_rng(11)
        models = [*MODEL_GRID.values(), DEEP_MODEL, LARGE_B]
        for _ in range(6):
            ratio = rng.uniform(150.0, 250.0)
            rates = (4.0 / ratio, 4.0 / math.sqrt(ratio), 4.0)
            models.append(LinearCombinationModel.from_components(
                [(r, s, rng.uniform(1.5, 2.5), rng.uniform(0.9, 1.1), 1.0, 1.0)
                 for r, s in zip(rates, rng.uniform(0.9, 1.1, 3))]))
        target = 1.0 - tail_tol
        for i, model in enumerate(models):
            rep = build_mixture(model, tail_tol=tail_tol)
            for pmf in (rep.pos.pmf, rep.neg.pmf):
                assert math.fsum(pmf) >= target, i
                assert len(pmf) == 1 or math.fsum(pmf[:-1]) < target, i
        assert len(build_mixture(DEEP_MODEL, tail_tol=1e-14).pos.pmf) == 6461

    def test_pmf_precision_floor_is_not_a_cap_hit(self, monkeypatch):
        # perfbench's first deep_model of seed 10: its computed terms sum to
        # 1 - 1.08e-14 (rounding in P(0) and the recursion), so no cap
        # reaches 1 - 1e-14, and the error says so rather than blame the cap
        model = LinearCombinationModel.from_components([
            (0.02002633711962672, 1.001132101546885, 2.0187802630994494,
             1.0134562285187394, 1.0199681643728638, 1.073875344438791),
            (0.27910213355894675, 0.9764902086318907, 1.6631587202940392,
             1.018506034403023, 0.9792775727396205, 0.9286589202295776),
            (3.715049275811318, 1.010833117119748, 2.1446350990944265,
             1.032126703307554, 0.9504583074465109, 1.0887446317081861)])
        floor = (r"tail_tol 1e-14 is below the computed pmf's precision floor: "
                 r"pmf mass 0\.99999999999998923 after {} terms$")
        with pytest.raises(TruncationFailureError, match=floor.format(10000)):
            build_mixture(model, tail_tol=1e-14)
        monkeypatch.setattr(bilgamma.combo, "_PMF_MAX_TERMS", 20000)
        with pytest.raises(TruncationFailureError, match=floor.format(20000)):
            build_mixture(model, tail_tol=1e-14)
        assert len(build_mixture(model, tail_tol=1e-12).pos.pmf) < 10000

    def test_pmf_cap_is_not_preallocated(self, pair_nonint, monkeypatch):
        # the term cap only bounds the recursion: a cap of 1e9 terms
        # allocates as little and gives the same pmfs as the default cap
        ref = build_mixture(pair_nonint, tail_tol=1e-12)
        monkeypatch.setattr(bilgamma.combo, "_PMF_MAX_TERMS", 10 ** 9)
        tracemalloc.start()
        try:
            rep = build_mixture(pair_nonint, tail_tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        np.testing.assert_array_equal(rep.pos.pmf, ref.pos.pmf)
        np.testing.assert_array_equal(rep.neg.pmf, ref.neg.pmf)

    def test_deep_pmf_is_negative_binomial_convolution(self):
        # L is the sum of independent NB(p_j, lam_j/eta) counts; the
        # component with lam_j = eta contributes nothing
        rep = build_mixture(DEEP_MODEL, tail_tol=1e-12)
        eta = DEEP_LAM[-1]
        kk = np.arange(len(rep.pos.pmf))
        nb = [stats.nbinom(p, lam / eta).pmf(kk)
              for lam, p in zip(DEEP_LAM[:2], DEEP_SHAPES[:2])]
        expected = np.convolve(nb[0], nb[1])[:len(kk)]
        assert len(kk) > 5000
        keep = expected > 1e-300
        np.testing.assert_allclose(rep.pos.pmf[keep], expected[keep], rtol=1e-12)

    def test_rate_identity(self, model_grid):
        # eta = max lam_j coincides with a*/(1 - a*) for a* = max a_j/(w_j + a_j)
        for model in model_grid.values():
            rep = build_mixture(model, tail_tol=1e-6)
            a_star = float(np.max(model.alpha / (model.w1 + model.alpha)))
            assert rep.pos.rate == pytest.approx(a_star / (1.0 - a_star), rel=1e-13)


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

    def test_scalar_path_matches_array_path(self):
        # a real scalar runs the math loop, an array the numpy loop: 200
        # seeded models of 1 to 20 components, then the corners of the
        # ranges (every rate and every shape at an end, z and k at an end)
        rng = np.random.default_rng(11)
        cases = [(model, rng.uniform(-1e3, 1e3), int(rng.integers(-1000, 1001)))
                 for model in random_models(12, 200, max_n=20)]
        for n, rate, shape, z, k in itertools.product(
                (1, 20), RATE_RANGE, SHAPE_RANGE, (-1e3, 0.0, 1e3),
                (-1000, 0, 1000)):
            comps = [(rate, shape, rate, shape, rate, rate)] * n
            cases.append((LinearCombinationModel.from_components(comps), z, k))
        for model, z, k in cases:
            ref_z, ref_k = model.cf(np.array([z, float(k)]))
            for arg, ref in ((z, ref_z), (np.float64(z), ref_z), (k, ref_k)):
                val = model.cf(arg)
                assert type(val) is complex
                assert abs(val - ref) <= 1e-14, (model, arg)

    def test_real_form_matches_mpmath(self):
        # log|cf| = -sum (p log hypot(1, u) + q log hypot(1, v)) and arg cf
        # = sum (p atan u - q atan v), against the product of the complex
        # factors at 50 digits: seeded models of 1 to 20 components, |z|
        # log-uniform from 1e-300 to 1e300, so |u| runs past 1.3e154, where
        # u^2 overflows; the float (math) and the array (numpy) path, a 0-d
        # array among the latter
        def reference(model, z):
            with mpmath.workdps(50):
                z, total = mpmath.mpf(z), mpmath.mpf(0)
                for a, p, b, q, w1, w2 in zip(*(getattr(model, f).tolist()
                                                for f in ("alpha", "p", "beta", "q",
                                                          "w1", "w2"))):
                    total -= (p * mpmath.log(1 - 1j * z * mpmath.mpf(w1) / a)
                              + q * mpmath.log(1 + 1j * z * mpmath.mpf(w2) / b))
                return complex(mpmath.exp(total))

        rng = np.random.default_rng(37)
        past_overflow = 0
        for model in random_models(38, 60, max_n=20):
            zs = (np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 12))
                  * rng.choice([-1.0, 1.0], 12))
            zs[0] = 1e300 * np.sign(zs[0])
            past_overflow += int((np.abs(zs) / min(model.lam.min(),
                                                   model.mu.min()) > 1.4e154).sum())
            for z, val in zip(zs.tolist(), model.cf(zs).tolist()):
                ref = reference(model, z)
                for got in (val, model.cf(z), model.cf(np.array(z))):
                    assert abs(got - ref) <= 1e-14, (model, z)
        assert past_overflow >= 100

    def test_exact_symmetries(self, model_grid):
        # cf(-z) is conj(cf(z)) and cf(0) is 1, exactly, on both paths
        zs = np.concatenate([np.linspace(-300.0, 300.0, 601), [1e-300, 1e160, 1e300]])
        for model in [*model_grid.values(), *random_models(39, 20, max_n=20)]:
            vals = model.cf(zs)
            assert (model.cf(-zs) == np.conj(vals)).all()
            for z, val in zip(zs[::20].tolist(), vals[::20].tolist()):
                assert model.cf(-z) == model.cf(z).conjugate()
            assert model.cf(0.0) == 1 + 0j
            assert model.cf(np.zeros(3)).tolist() == [1 + 0j] * 3

    @pytest.mark.parametrize("z", [1j, 0.5 + 0j, np.array([1.0, 2j]),
                                   np.complex128(1.0), [0.5, 1 + 1j]])
    def test_complex_argument_rejected(self, pair_nonint, z):
        with pytest.raises(DomainError, match="takes a real z"):
            pair_nonint.cf(z)

    @pytest.mark.parametrize("z", [-1.2j, np.array(-2j), np.array([0.5, 1j])],
                             ids=["scalar", "0-d", "1-d"])
    @pytest.mark.parametrize("side", ["mixture", "gamma"])
    def test_mixture_cf_rejects_complex(self, mixture_grid, side, z):
        # the truncated series gave a plausible wrong number on pair_nonint:
        # 2.749426640157239 at -1.2j, where the mgf at 1.2 is
        # 2.7519270467759993, and 84713.1 at -2j, past the mgf's strip
        rep = mixture_grid["pair_nonint"]
        cf = rep.cf if side == "mixture" else rep.pos.cf
        with pytest.raises(DomainError, match="takes a real z"):
            cf(z)

    def test_mixture_identity(self, model_grid, mixture_grid):
        # the executable form of the randomised-shape representation
        zs = np.linspace(-20.0, 20.0, 401)
        for name, model in model_grid.items():
            rep = mixture_grid[name]
            err = np.abs(model.cf(zs) - rep.cf(zs)).max()
            assert err <= 1e-8 + 2e-12, name

    def test_mixture_cf_at_origin(self, mixture_grid):
        for rep in mixture_grid.values():
            # twice mixture_grid's tail_tol of 1e-12
            assert abs(rep.cf(0.0) - 1.0) <= 2.0 * 1e-12 + 1e-13

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
                ref = (power_sum(rep.pos.pmf, rep.pos.shape,
                                 1 / (1 - iz / rep.pos.rate))
                       * power_sum(rep.neg.pmf, rep.neg.shape,
                                   1 / (1 + iz / rep.neg.rate)))
                assert abs(rep.cf(z) - complex(ref)) <= 1e-15, z

    def test_deep_pmf_cf_matches_50_digit_sum(self):
        # perfbench's first deep_model of seed 1, a positive pmf of 5548
        # terms: the giant steps are running products, and the baby steps
        # are one exp each, since running products there would compound the
        # rounding of r over the steps (3.9e-15 off at z = 1e-4)
        pos = build_mixture(LinearCombinationModel.from_components([
            (0.020578722920889487, 1.000409767807781, 1.798018897012621,
             0.9425439362893997, 1.0462957778589972, 0.9895376488061844),
            (0.26238415069624993, 1.0672145091210792, 1.9891833007497774,
             0.957235460449877, 0.9035107050379795, 0.9932372834451382),
            (3.6410474191252566, 1.0983718721428084, 1.865456997025744,
             1.022795290723043, 0.9223883614738747, 1.0659708375976384)]),
            tail_tol=1e-12).pos
        assert len(pos.pmf) == 5548
        zs = np.array([1e-4, 1e-3, 1e-2, 0.05, 1.0, -7.0, 20.0, -150.0, 2000.0])
        vals = pos.cf(zs)
        with mpmath.workdps(50):
            for z, val in zip(zs.tolist(), vals):
                r = 1 / (1 - mpmath.mpc(0, z) / pos.rate)
                acc, power = mpmath.mpc(0), r ** pos.shape
                for w in pos.pmf.tolist():
                    acc += w * power
                    power *= r
                assert abs(val - complex(acc)) <= 2e-15 * abs(complex(acc)), z

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

    @pytest.mark.parametrize("model, tail_tol, lengths", [
        (single(2.0, 1.0, 3.0, 1.0), 1e-12, (1, 1)),
        (GEOMETRIC_PAIR, 0.3, (2, 1)),
        (GEOMETRIC_PAIR, 1e-12, (40, 20)),   # blocks zero-padded to 7 x 6
        (WIDE_MODEL, 1e-12, (8017, 41)),
    ], ids=["K1", "K2", "K40", "K8017"])
    def test_mixture_cf_block_shapes(self, model, tail_tol, lengths):
        # each point's inner sums are one matrix-vector product with the
        # (G x B) pmf blocks: at every block shape a grid of more than three
        # row blocks, not a multiple of one, equals its single points, and
        # the points agree with a 40-digit Horner sum of the same pmfs
        rep = build_mixture(model, tail_tol=tail_tol)
        assert (len(rep.pos.pmf), len(rep.neg.pmf)) == lengths
        block = 2 ** 12 // max(map(math.isqrt, lengths))
        zs = np.linspace(-20.0, 20.0, 3 * block + block // 2 + 1)
        vals = rep.cf(zs)
        np.testing.assert_array_equal(vals, [rep.cf(float(z)) for z in zs])

        def horner(pmf, shape, r):
            acc = mpmath.mpc(0)
            for w in reversed(pmf.tolist()):
                acc = acc * r + w
            return acc * r ** shape

        with mpmath.workdps(40):
            for i in range(0, len(zs), len(zs) // 6):
                iz = mpmath.mpc(0, zs[i])
                ref = (horner(rep.pos.pmf, rep.pos.shape, 1 / (1 - iz / rep.pos.rate))
                       * horner(rep.neg.pmf, rep.neg.shape,
                                1 / (1 + iz / rep.neg.rate)))
                assert abs(vals[i] - complex(ref)) <= 1e-15, zs[i]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mixture_cf_blas_threads(self, threads):
        # the BLAS thread count changes no bit of the cf of an 8017-term pmf
        rep = build_mixture(WIDE_MODEL, tail_tol=1e-12)
        done = run_child(
            "import os, sys; os.environ['OPENBLAS_NUM_THREADS'] = sys.argv[1]\n"
            "import json, numpy as np\n"
            "from bilgamma import LinearCombinationModel, build_mixture\n"
            "model = LinearCombinationModel.from_json_obj(json.loads(sys.argv[2]))\n"
            "rep = build_mixture(model, tail_tol=1e-12)\n"
            "print(rep.cf(np.linspace(-20.0, 20.0, 401)).tobytes().hex())",
            threads, json.dumps(WIDE_MODEL.to_json_obj()))
        assert done.returncode == 0, done.stderr
        zs = np.linspace(-20.0, 20.0, 401)
        assert bytes.fromhex(done.stdout.strip()) == rep.cf(zs).tobytes()

    def test_mixture_identity_random_models(self):
        # C1 on random models: product and mixture cf on 401 points
        zs = np.linspace(-20.0, 20.0, 401)
        evaluated = 0
        for i, model in enumerate(random_models(7, 200)):
            rep = build_in_reach(model, 1e-12)
            if rep is None:
                continue
            err = np.abs(model.cf(zs) - rep.cf(zs)).max()
            assert err <= 1e-8 + 2.0 * 1e-12, i
            evaluated += 1
        assert evaluated >= 50, evaluated

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

    def test_fourier_negative_values(self, monkeypatch, laplace_model):
        # a value below -1e-8 names the first such x; one above is clamped
        xs = np.array([-1.0, 0.5, 1.5, 2.0])
        raw = np.array([0.1, -5e-9, -2e-8, 0.3])
        monkeypatch.setattr(bilgamma.combo, "fourier_density",
                            lambda cf, x: raw.copy())
        with pytest.raises(NonConvergenceError,
                           match=r"negative at x=1\.5: -2e-08$"):
            laplace_model.pdf_fourier(xs)
        raw[2] = 0.2
        assert laplace_model.pdf_fourier(xs).tolist() == [0.1, 0.0, 0.2, 0.3]

    def test_series_near_one_sided(self, monkeypatch):
        # PRICING_GAMMA's negative side has shape 2e-8, so every x > 0
        # kernel has a = 2e-8 + k: the series was 3.5e-7 to 4.1e-7 high
        # against the same series seeded by mpmath
        def mp_seed(a, b, x):
            with mpmath.workdps(60):
                return np.array([float(mpmath.log(mpmath.gamma(ai)
                                                  * mpmath.hyperu(ai, bi, xi)))
                                 for ai, bi, xi in zip(*map(
                                     np.ravel, np.broadcast_arrays(a, b, x)))])

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

    def test_routes_agree_random_models(self):
        # series against Fourier density at one x != 0 within 3 sd of the
        # mean, on seeded models whose effective rates (alpha/w1, beta/w2)
        # and weights are log-uniform in [0.1, 10]; every other model has
        # total shape <= 1, where the cf is not absolutely integrable.
        # Seeded numpy draws, not hypothesis: derandomized hypothesis
        # draws change with the constants in src and with the test order
        rng = np.random.default_rng(2026)

        def log_uniform(size):
            return np.exp(rng.uniform(math.log(0.1), math.log(10.0), size))

        evaluated = thin = skipped = 0
        for i in range(200):
            n = int(rng.integers(1, 5))
            rate, weight = log_uniform((2, n)), log_uniform((2, n))
            if i % 2:
                shapes = rng.dirichlet(np.ones(2 * n)) * rng.uniform(0.05, 1.0)
            else:
                shapes = log_uniform(2 * n) / 2.0
            model = LinearCombinationModel(
                rate[0] * weight[0], shapes[:n], rate[1] * weight[1],
                shapes[n:], weight[0], weight[1])
            x = model.mean + math.sqrt(model.variance) * rng.uniform(-3.0, 3.0)
            try:
                rep = build_mixture(model)
            except TruncationFailureError as exc:
                # the pmf cap, and only it
                assert re.match(r"pmf mass \S+ below 1 - \S+ after 10000 terms$",
                                str(exc)), i
                skipped += 1
                continue
            series = rep.pdf_series(x)
            assert abs(model.pdf_fourier(x) - series) <= 1e-6 * series + 1e-9, i
            evaluated += 1
            thin += model.p_total + model.q_total <= 1.0
        assert evaluated >= 150 and thin >= 50, (evaluated, thin, skipped)

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
        assert (len(rep.pos.pmf), len(rep.neg.pmf)) == (506, 1)
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

    def test_series_matches_mpmath_sum(self):
        # the series against a 30-digit sum over every pair of the same
        # truncated pmfs, with each kernel Gamma(a) U(a, b, X) by mpmath
        # (its Gamma(a) cancels a 1/Gamma of the term).  A weight cut that
        # dropped pairs left these points 1.2e-8, 7.9e-6 and 2.1e-9 off
        for name, x in (("pair_nonint", 8.0), ("pair_nonint", 15.0),
                        ("pair_kappa", -6.3)):
            rep = build_mixture(MODEL_GRID[name], tail_tol=1e-10)
            near, far = rep.pos, rep.neg
            if x < 0.0:
                near, far = far, near
            with mpmath.workdps(30):
                ax = mpmath.mpf(abs(x))
                total = mpmath.mpf(0)
                for j, pj in enumerate(near.pmf.tolist()):
                    wj = (pj * near.rate ** (near.shape + j)
                          / mpmath.gamma(near.shape + j))
                    for k, pk in enumerate(far.pmf.tolist()):
                        b = rep.pos.shape + rep.neg.shape + j + k
                        total += (wj * pk * far.rate ** (far.shape + k) * ax ** (b - 1)
                                  * mpmath.hyperu(far.shape + k, b,
                                                  (rep.pos.rate + rep.neg.rate) * ax))
                ref = float(total * mpmath.exp(-near.rate * ax))
            assert rep.pdf_series(x) == pytest.approx(ref, rel=1e-12), (name, x)

    def test_series_two_deep_sides(self):
        # 454 x 454 pairs at ratio 20, every one summed, within a time
        # that one quadrature per pair could not meet
        model = two_deep_sides(20.0)
        rep = build_mixture(model, tail_tol=1e-10)
        assert (len(rep.pos.pmf), len(rep.neg.pmf)) == (454, 454)
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
        # most 2 log_hyperint kernels however deep the row side runs (one
        # per row made 506 at LARGE_B's x = -1)
        calls = []

        def counted(a, b, x):
            calls.extend(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))
            return log_hyperint(a, b, x)

        monkeypatch.setattr(bilgamma.combo, "log_hyperint", counted)
        for model, xs in ((LARGE_B, (-1.0,)), (two_deep_sides(20.0), (-1.0, 0.2))):
            rep = build_mixture(model, tail_tol=1e-10)
            for x in xs:
                calls.clear()
                assert rep.pdf_series(x) > 0.0
                assert 1 <= len(calls) <= 2, (x, calls)

    @pytest.mark.parametrize("name", list(MODEL_GRID))
    def test_series_grid_is_bitwise_the_pointwise_calls(self, mixture_grid,
                                                        name, monkeypatch):
        # one log_hyperint call seeds every point of a grid, and each point
        # walks its own kernel grid, so an entry is bitwise its float call:
        # signs mixed, |x| from 1e-9 to 50, duplicates, a kernel argument
        # that overflows (density 0), a one-point array, any shape
        rep = mixture_grid[name]
        rng = np.random.default_rng(38)
        sizes = np.exp(rng.uniform(math.log(1e-9), math.log(50.0), 12))
        xs = np.concatenate([sizes * rng.choice([-1.0, 1.0], 12),
                             [1e-9, -50.0, 1.7e308]])
        xs = np.concatenate([xs, xs[[2, 0]]])
        alone = [rep.pdf_series(x) for x in xs.tolist()]
        assert all(type(v) is float for v in alone)
        calls = []

        def counted(a, b, x):
            calls.append(np.size(a))
            return log_hyperint(a, b, x)

        monkeypatch.setattr(bilgamma.combo, "log_hyperint", counted)
        assert rep.pdf_series(xs).tolist() == alone
        assert len(calls) == 1 and calls[0] <= 2 * (len(xs) - 1)
        assert rep.pdf_series(xs[::-1].reshape(1, -1, 1)).ravel().tolist() == \
            alone[::-1]
        assert rep.pdf_series(xs[[4]]).tolist() == [alone[4]]

    def test_series_grid_rejects_its_first_bad_x(self, mixture_grid):
        rep = mixture_grid["pair_nonint"]
        with pytest.raises(SingularPointError):
            rep.pdf_series(np.array([1.0, 0.0, math.nan]))
        with pytest.raises(DomainError, match=r"got x=inf$"):
            rep.pdf_series(np.array([1.0, math.inf, 0.0]))

    def test_densities_off_zero_load_no_quadpack(self):
        # at x != 0 neither density route imports scipy.integrate, about
        # 0.3 s of a CLI run: the series seeds its kernels by its own
        # tanh-sinh rule and the Fourier route uses Ooura & Mori's
        done = run_child("""\
import sys
from bilgamma import build_mixture
from bilgamma.models import MODEL_GRID
for name in ("five_mixed", "pair_nonint", "laplace"):
    rep = build_mixture(MODEL_GRID[name], tail_tol=1e-10)
    for x in (-3.0, -0.05, 0.4, 2.5):
        assert rep.pdf_series(x) > 0.0 < MODEL_GRID[name].pdf_fourier(x)
print([m for m in sys.modules if m.startswith("scipy.integrate")])
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]

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
        assert math.isinf((rep.pos.rate + rep.neg.rate) * 1e307)
        assert rep.pdf_series(math.copysign(1e307, x)) == 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, mixture_grid, x):
        rep = mixture_grid["five_mixed"]
        with pytest.raises(DomainError):
            rep.pdf_series(x)
        with pytest.raises(DomainError):
            MODEL_GRID["five_mixed"].pdf_fourier(x)

    def test_densities_refuse_dropped_mass(self):
        # at tail_tol 0.3 the positive pmf is P(0) = 0.707 alone: the series
        # gave 0.0689 at x = 1 against the Fourier density's 0.1602
        rep = build_mixture(SHALLOW, tail_tol=0.3)
        with pytest.raises(TruncationFailureError, match=r"the positive pmf "
                           r"drops mass 0\.293 > 1e-06; rebuild the mixture"):
            rep.pdf_series(1.0)
        with pytest.raises(TruncationFailureError, match=r"the mixture pmf "
                           r"drops mass 0\.293 > 1e-06; rebuild the mixture"):
            rep.pos.pdf(1.0)

    def test_series_values_pinned(self, mixture_grid):
        # SHA-256 of the series density on the grid at tail_tol 1e-12; each
        # value is within 6.7e-15 of the same pairwise sum at 200 digits
        values = [rep.pdf_series(x) for rep in mixture_grid.values()
                  for x in (-3.1, -0.6, 0.45, 2.2)]
        assert len(values) == 24
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == (
            "bb036b69351af9e16929a1fd228b1046e904ba395d136923eedd87594b1c3987")

    def test_series_total_across_kernel_blocks(self, mixture_grid, monkeypatch):
        # the default block holds each point's kernel grid whole; at 64
        # entries the multi-component models' grids split into many blocks,
        # whose exactly totalled sums stay within 2.1e-16 of the whole sum
        xs = (-3.1, -0.6, 0.45, 2.2)
        whole = {name: [rep.pdf_series(x) for x in xs]
                 for name, rep in mixture_grid.items()}
        assert sum(len(rep.pos.pmf) * len(rep.neg.pmf) > 64
                   for rep in mixture_grid.values()) >= 4
        monkeypatch.setattr(bilgamma.combo, "_KERNEL_BLOCK", 64)
        for name, rep in mixture_grid.items():
            for x, expected in zip(xs, whole[name]):
                assert rep.pdf_series(x) == pytest.approx(
                    expected, rel=1e-14, abs=0.0), (name, x)

    def test_inversion_precondition(self):
        # total shape 0.6: the cf is not absolutely integrable, but the
        # inversion converges at every x != 0; the density is infinite at 0
        thin = single(1.0, 0.3, 1.0, 0.3)
        rep = build_mixture(thin)
        for x in (-2.0, -1e-3, 1e-3, 0.5, 1.0, 3.0):
            assert thin.pdf_fourier(x) == pytest.approx(
                rep.pdf_series(x), rel=1e-12, abs=1e-12), x
        with pytest.raises(SingularPointError):
            thin.pdf_fourier(0.0)
        # total shape 0.05, where the density near 0 is steepest
        steep = single(2.0, 0.02, 0.5, 0.03)
        rep = build_mixture(steep)
        for x in (-1e-3, 1e-3):
            assert steep.pdf_fourier(x) == pytest.approx(
                rep.pdf_series(x), rel=1e-11), x


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

    def test_overflow_is_typed(self, laplace_model):
        # log mgf(1) = 1409.85 at time 2000: past the largest double, where
        # the plain exp returned inf with a RuntimeWarning
        with pytest.raises(NonFiniteResultError, match=r"mgf\(1.0\) overflows"):
            PRICING_GAMMA.scaled(2000.0).mgf(1.0)
        with pytest.raises(NonFiniteResultError, match=r"cumulant\(172\)"):
            laplace_model.cumulant(172)
        # E[T^171] is 0 by symmetry, but its binomial sum is inf - inf; at
        # rates 0.1 and 0.2 the weight eta^-400 overflows a Python float
        with pytest.raises(NonFiniteResultError, match=r"moment\(171\) overflows"):
            build_mixture(laplace_model).moment(171)
        slow = build_mixture(single(0.1, 1.0, 0.2, 1.0))
        assert math.isfinite(slow.moment(116))
        with pytest.raises(NonFiniteResultError, match=r"moment\(400\) overflows"):
            slow.moment(400)

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

    @pytest.mark.parametrize("p", [812.4, 5547.9, 123456.7])
    def test_moment_at_large_shape(self, p):
        # one component, so each factorial sum is one rising factorial
        # (p)_r: within 1e-14 of the 50-digit binomial sum, where a
        # difference of log-gammas loses 7.5e-13, 5.4e-12 and 2.5e-10
        rep = build_mixture(single(2.0, p, 3.0, 0.7))
        with mpmath.workdps(50):
            for k in range(1, 5):
                ref = mpmath.fsum(
                    mpmath.binomial(k, j) * (-1) ** j * mpmath.rf(p, k - j)
                    * mpmath.rf(0.7, j) / (mpmath.mpf(2) ** (k - j) * 3 ** j)
                    for j in range(k + 1))
                assert abs(rep.moment(k) - ref) <= 1e-14 * abs(ref), k

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
            m_expected = raw_moments(model.cumulant)
            for k in range(1, 5):
                got = rep.moment(k)
                assert got == pytest.approx(m_expected[k - 1], rel=1e-6,
                                            abs=1e-9), (name, k)

    def test_pmf_mass_and_moments_random_models(self):
        # the tail_tol 1e-14 of mixture_grid_deep, for the same reason; a
        # pmf or moment out of reach is a typed error, never a NaN
        built = checked = refused = 0
        for i, model in enumerate(random_models(8, 200)):
            rep = build_in_reach(model, 1e-14)
            if rep is None:
                continue
            built += 1
            for pmf in (rep.pos.pmf, rep.neg.pmf):
                slack = len(pmf) * np.finfo(float).eps
                assert 1.0 - 1e-14 - slack <= pmf.sum() <= 1.0 + slack, i
            try:
                got = [rep.moment(k) for k in range(1, 5)]
            except TruncationFailureError as exc:
                # the moment's stated domain: a tail that does not contract,
                # or one whose completion is too large a share
                assert re.search(r"non-contracting tail|extrapolated tail",
                                 str(exc)), (i, exc)
                refused += 1
                continue
            # C4's relative 1e-8, taken against E[(X + Y)^k] >= |E[T^k]|
            # (both sides counted positive), the size of the terms the
            # alternating binomial sum in moment() cancels
            expected = raw_moments(model.cumulant)
            scale = raw_moments(lambda k: math.factorial(k - 1) * float(
                np.sum(model.p / model.lam ** k) + np.sum(model.q / model.mu ** k)))
            for k in range(4):
                assert abs(got[k] - expected[k]) <= 1e-8 * scale[k], (i, k + 1)
            checked += 1
        assert built >= 50 and checked >= 50, (built, checked, refused)

    def test_moment_non_contracting_tail(self):
        # pair_nonint at tail_tol 0.5 keeps 2 positive terms, so the order-2
        # factorial series' tail ratio is 0.7 * (1 + 2.5 + 2) / (1 + 2.5)
        rep = build_mixture(MODEL_GRID["pair_nonint"], tail_tol=0.5)
        with pytest.raises(TruncationFailureError,
                           match=r"factorial series of order 2 has "
                                 r"non-contracting tail \(ratio 1\.1\)"):
            rep.moment(2)

    def test_moments_judge_each_order(self):
        # moments(kmax) reads one factorial table of order kmax per side and
        # judges each order as moment(k) does: the same bits, or the error
        # of the first order that fails, whichever of the four it is
        cases = [(model, cut, 8) for model in MODEL_GRID.values()
                 for cut in (1e-4, 1e-12)]
        # theta 0.9: at cut 0.1 order 1 extrapolates too much, and the order
        # 2 tail does not contract; at 0.5 already the order 1 tail does not
        wide = LinearCombinationModel.from_components(
            [(1, 0.5, 3, 1, 1, 1), (10, 0.5, 3, 1, 1, 1)])
        cases += [(wide, 0.1, 4), (wide, 0.5, 4), (SHALLOW, 0.3, 4),
                  (single(0.1, 1.0, 0.2, 1.0), 1e-12, 200)]
        raised = set()
        for model, cut, kmax in cases:
            rep = build_mixture(model, tail_tol=cut)
            try:
                want = [rep.moment(k) for k in range(1, kmax + 1)]
            except BilgammaError as exc:
                raised.add(re.sub(r"[\d.]+(e[+-]?\d+)?", "#", str(exc)))
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    rep.moments(kmax)
            else:
                assert rep.moments(kmax) == want
        assert len(raised) == 4, raised


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

    @pytest.mark.parametrize("order, message", [
        (2.0, "integer n, got 2.0"), (2.5, "integer n, got 2.5"),
        (True, "integer n, got True"), (np.float64(3.0), "integer n"),
        (0, "n >= 1, got 0")])
    def test_order_is_a_typed_integer(self, pair_nonint, mixture_grid, order,
                                      message):
        # a float order raised a bare TypeError, and True was read as 1
        with pytest.raises(DomainError, match=message):
            pair_nonint.cumulant(order)
        with pytest.raises(DomainError, match=message):
            mixture_grid["pair_nonint"].moment(order)

    def test_numpy_integer_order(self, pair_nonint, mixture_grid):
        rep = mixture_grid["pair_nonint"]
        for k in (1, 3):
            assert pair_nonint.cumulant(np.int64(k)) == pair_nonint.cumulant(k)
            assert rep.moment(np.int64(k)) == rep.moment(k)


class TestGammaMixtureLimit:
    def test_degenerate_is_gamma(self):
        from scipy.stats import gamma as gamma_dist
        rep = build_mixture(single(2.0, 1.7, 3.0, 1.0))
        for x in (0.2, 1.0, 3.5):
            assert rep.pos.pdf(x) == pytest.approx(
                gamma_dist.pdf(x, a=1.7, scale=0.5), rel=1e-10)

    def test_two_exponential_convolution(self):
        # positive part of the geometric pair is Exp(1) + Exp(2), whose
        # density 2 e^(-x) (1 - e^(-x)) gives 2 (e-1) e^(-2) at x = 1
        rep = build_mixture(GEOMETRIC_PAIR, tail_tol=1e-13)
        expected = 2.0 * (math.e - 1.0) * math.exp(-2.0)
        assert rep.pos.pdf(1.0) == pytest.approx(expected, rel=1e-10)
        for x in (0.3, 0.9, 2.2):
            closed = 2.0 * math.exp(-x) * (1.0 - math.exp(-x))
            assert rep.pos.pdf(x) == pytest.approx(closed, rel=1e-10)

    def test_normalises(self, mixture_grid):
        rep = mixture_grid["pair_nonint"]
        total = integrate_zero_to_inf(rep.pos.pdf)
        assert abs(total - 1.0) <= 1e-6

    def test_limit_of_full_density(self):
        # negative rates pushed to 1e6: the full density approaches the
        # positive-part gamma mixture
        model = LinearCombinationModel.from_components(
            [(1.0, 1.0, 1e6, 1.0, 1.0, 1.0), (2.0, 1.0, 1e6, 1.0, 1.0, 1.0)])
        rep = build_mixture(model, tail_tol=1e-10)
        for x in (0.5, 1.0, 2.0):
            assert abs(model.pdf_fourier(x) - rep.pos.pdf(x)) < 1e-3

    def test_domain(self, mixture_grid):
        with pytest.raises(DomainError):
            mixture_grid["laplace"].pos.pdf(-1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, -math.inf])
    def test_non_finite_x_rejected(self, mixture_grid, x):
        # inf and nan passed the x <= 0 guard and returned NaN
        with pytest.raises(DomainError):
            mixture_grid["laplace"].pos.pdf(x)



class TestMirror:
    """Swapping (alpha, p, w1) with (beta, q, w2) gives the law of -T: the
    mirror's positive side is the model's negative side, so every route
    that picks a side by the sign of x or z must agree across the swap."""

    @pytest.mark.parametrize("name", sorted(MODEL_GRID))
    def test_mirror_is_minus_t(self, name):
        model = MODEL_GRID[name]
        mirror = LinearCombinationModel(model.beta, model.q, model.alpha,
                                        model.p, model.w2, model.w1)
        rep, rev = build_mixture(model), build_mixture(mirror)
        np.testing.assert_array_equal(rev.pos.pmf, rep.neg.pmf)
        np.testing.assert_array_equal(rev.neg.pmf, rep.pos.pmf)
        for x in (0.05, 0.7, 2.0, 6.5):
            assert rep.pdf_series(-x) == rev.pdf_series(x), x
            assert rep.pdf_series(x) == rev.pdf_series(-x), x
        zs = np.linspace(-20.0, 20.0, 81)
        np.testing.assert_allclose(rev.cf(zs), rep.cf(-zs), rtol=1e-15)
        for k in range(1, 7):
            assert rev.moment(k) == pytest.approx((-1) ** k * rep.moment(k),
                                                  rel=1e-13), k


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
