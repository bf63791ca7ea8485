import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import bilgamma
from bilgamma import (
    DomainError,
    LinearCombinationModel,
    PricingInputs,
    RandomStream,
    bound_d3_bg,
    bound_d3_normal,
    cli,
    price_call_gamma_series,
    quadrature,
    sample_direct,
    sample_path,
)
from bilgamma.cli import main
from bilgamma.models import KAPPA_SINGLE, MARTINGALE, MODEL_GRID, PRICING_GAMMA
from conftest import run_child


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_GRID["laplace"].to_json_obj()))
    return str(path)


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(MODEL_GRID["pair_integer"].to_json_obj()))
    return str(path)


@pytest.fixture()
def kappa_file(tmp_path):
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(KAPPA_SINGLE.to_json_obj()))
    return str(path)


@pytest.fixture()
def gamma_file(tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(PRICING_GAMMA.to_json_obj()))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestPdfCommand:
    def test_laplace_grid(self, model_file, tmp_path):
        out = tmp_path / "pdf.csv"
        code = main(["pdf", "--model", model_file, "--xmin", "-2",
                     "--xmax", "2", "--points", "9", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "pdf_fourier", "pdf_series", "abs_diff"]
        for row in rows:
            x = float(row[0])
            expected = 0.5 * math.exp(-abs(x))
            assert float(row[1]) == pytest.approx(expected, abs=1e-8)
            if x != 0.0:
                assert float(row[3]) < 1e-8

    def test_symmetric_pairs(self, model_file, tmp_path):
        out = tmp_path / "pdf.csv"
        main(["pdf", "--model", model_file, "--xmin", "-2", "--xmax", "2",
              "--points", "5", "--out", str(out)])
        _, rows = read_csv(out)
        vals = {float(r[0]): float(r[1]) for r in rows}
        assert vals[-2.0] == pytest.approx(vals[2.0], abs=1e-10)

    def test_total_shape_below_one(self, tmp_path, capsys):
        # total shape 0.7: every grid exited 3 while the Fourier route
        # refused such models; now only a grid holding x = 0 does
        model = tmp_path / "thin.json"
        model.write_text(json.dumps(LinearCombinationModel.from_components(
            [(3.0, 0.4, 4.0, 0.3, 1.0, 1.0)]).to_json_obj()))
        out = tmp_path / "pdf.csv"
        argv = ["pdf", "--model", str(model), "--xmin", "-1", "--xmax", "1",
                "--out", str(out), "--points"]
        assert main([*argv, "4"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4 and all(float(r[3]) < 1e-10 for r in rows)
        out.unlink()
        assert main([*argv, "3"]) == 3
        assert "SingularPointError" in capsys.readouterr().err
        assert not out.exists()

    def test_one_pass_per_route(self, tmp_path, monkeypatch):
        # each density route takes the whole grid in one call: the product
        # cf is called on arrays once per level of the Fourier rule and
        # batch of about quadrature._NODE_BLOCK nodes, the points sharing
        # the calls (4 here; the x = 0 row's QUADPACK rule calls it on
        # floats), and one log_hyperint call seeds every series point
        calls = {"cf": 0, "log_hyperint": 0}
        cf = LinearCombinationModel.cf

        def counted_cf(self, z):
            calls["cf"] += isinstance(z, np.ndarray)
            return cf(self, z)

        def counted_seed(a, b, x):
            calls["log_hyperint"] += 1
            return quadrature.log_hyperint(a, b, x)

        monkeypatch.setattr(LinearCombinationModel, "cf", counted_cf)
        monkeypatch.setattr(bilgamma.combo, "log_hyperint", counted_seed)
        model = tmp_path / "five_mixed.json"
        model.write_text(json.dumps(MODEL_GRID["five_mixed"].to_json_obj()))
        assert main(["pdf", "--model", str(model), "--xmin", "-5", "--xmax",
                     "5", "--points", "401", "--out", str(tmp_path / "pdf.csv")]) == 0
        assert 1 <= calls["cf"] <= quadrature._FOURIER_LEVELS
        assert calls["log_hyperint"] == 1

    def test_peak_memory_bounded_on_a_large_grid(self, model_file):
        # both routes batch a grid's quadrature nodes, about
        # quadrature._NODE_BLOCK at a time, so 1001 points peak at about
        # 7 MiB; joining every open point's nodes in one array peaks at
        # about 18 MiB in the cf and 32 MiB in log_hyperint
        tracemalloc.start()
        try:
            assert main(["pdf", "--model", model_file, "--xmin", "-5", "--xmax",
                         "5", "--points", "1001", "--out", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20

    def test_series_column_skips_origin(self, tmp_path):
        # the grid's x = 0 takes QUADPACK's infinite-range rule, and the
        # series, which is not evaluated there, writes nan
        model = tmp_path / "five_mixed.json"
        model.write_text(json.dumps(MODEL_GRID["five_mixed"].to_json_obj()))
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--model", str(model), "--xmin", "-1", "--xmax",
                     "1", "--points", "5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[2][0] == "0"
        assert rows[2][2:] == ["nan", "nan"]
        assert float(rows[2][1]) == pytest.approx(
            MODEL_GRID["five_mixed"].pdf_fourier(0.0), rel=1e-11)
        assert all(r[2] != "nan" for r in rows[:2] + rows[3:])

    def test_pair_integer_closed_form(self, pair_file, tmp_path):
        # pair_integer is E1 + E2 - F3 - F4, exponentials of rates lam = 1, 2
        # and mu = 3, 4.  By partial fractions its density for x > 0 is
        #   sum_i prod_{l != i} lam_l/(lam_l - lam_i) lam_i e^(-lam_i x)
        #         * prod_k mu_k/(mu_k + lam_i),
        # and for x < 0 the same with the two sides swapped.  At a pmf cut
        # of 1e-10 the series was 2.3e-5 relative (1.6e-11) off at x = -5
        def side(rates, others, y):
            return sum(math.prod(r / (r - ri) for r in rates if r != ri)
                       * ri * math.exp(-ri * y)
                       * math.prod(o / (o + ri) for o in others)
                       for ri in rates)

        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--model", pair_file, "--xmin", "-5", "--xmax",
                     "5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 401
        for x, fourier, series, _ in ([float(v) for v in r] for r in rows):
            exact = (side((1.0, 2.0), (3.0, 4.0), x) if x > 0.0
                     else side((3.0, 4.0), (1.0, 2.0), -x))
            assert abs(fourier - exact) <= 1e-7 * exact, x
            if x == 0.0:
                assert math.isnan(series)
            else:
                assert abs(series - exact) <= min(1e-6 * exact, 1e-12), x

    @pytest.mark.parametrize("case", ["interior_nonconvergence",
                                      "singular_origin"])
    def test_grid_error_names_its_x(self, tmp_path, capsys, monkeypatch,
                                    case):
        # a route raises for the first failing x of its grid: the exit code
        # and the error class are the pointwise loop's, on one stderr line
        # naming that x
        if case == "interior_nonconvergence":
            # at two levels x = -2 and 2.6 converge alone, the x between not
            monkeypatch.setattr(quadrature, "_FOURIER_LEVELS", 2)
            model = MODEL_GRID["pair_nonint"]
            for x in (-2.0, 2.6):
                model.pdf_fourier(x)
            bounds, line = ("-2", "2.6"), (
                r"error: NonConvergenceError: Fourier quadrature failed on "
                r"\[0\.0, inf\) at x=0\.2999999999999998: 2 levels, the last "
                r"two \S+ apart")
        else:
            model = LinearCombinationModel.from_components(
                [(3.0, 0.4, 4.0, 0.3, 1.0, 1.0)])
            bounds, line = ("-1", "1"), (
                r"error: SingularPointError: density is infinite at x = 0 "
                r"when the total shape is <= 1")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_json_obj()))
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--model", str(path), "--xmin", bounds[0], "--xmax",
                     bounds[1], "--points", "3", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(line + "\n", err), err
        assert not out.exists()

    def test_malformed_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"components": [
            {"alpha": 1, "p": 1, "beta": 1, "q": 1, "w1": 0, "w2": 1}]}))
        code = main(["pdf", "--model", str(bad), "--xmin", "0", "--xmax", "1"])
        assert code == 2
        assert "'w1'" in capsys.readouterr().err

    def test_missing_model_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        code = main(["pdf", "--model", str(missing), "--xmin", "0",
                     "--xmax", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: model file not found: {missing}\n"

    def test_non_utf8_model_exits_2(self, tmp_path, capsys):
        # a UnicodeDecodeError escaped as a traceback with exit 1, the code
        # that means a failed verification
        bad = tmp_path / "model.json"
        bad.write_bytes(b'{"components": "\xff"}')
        assert main(["cf", "--model", str(bad), "--points", "3"]) == 2
        assert "cannot read model file" in capsys.readouterr().err


class TestCfAndMoments:
    def test_cf_identity_column(self, pair_file, tmp_path):
        out = tmp_path / "cf.csv"
        code = main(["cf", "--model", pair_file, "--zmax", "10",
                     "--points", "21", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert max(float(r[5]) for r in rows) < 1e-9

    def test_cf_rows_independent_of_grid(self, tmp_path):
        # positive rates spanning a ratio of 200 (a pmf of about 5.5k
        # terms): a z shared by two grids prints the same mixture cf
        deep = LinearCombinationModel.from_components(
            [(0.02, 1.0, 2.0, 1.0, 1.0, 1.0),
             (4.0 / math.sqrt(200.0), 1.05, 3.0, 1.0, 1.0, 1.0),
             (4.0, 0.95, 4.0, 1.0, 1.0, 1.0)])
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(deep.to_json_obj()))
        tables = []
        for points in ("401", "201"):
            out = tmp_path / f"cf_{points}.csv"
            assert main(["cf", "--model", str(path), "--zmax", "20",
                         "--points", points, "--out", str(out)]) == 0
            _, rows = read_csv(out)
            tables.append({r[0]: r[3:5] for r in rows})
        fine, coarse = tables
        assert len(coarse) == 201 and set(coarse) <= set(fine)
        for z, mixture in coarse.items():
            assert fine[z] == mixture, z

    def test_moments_report(self, pair_file, tmp_path):
        out = tmp_path / "moments.json"
        code = main(["moments", "--model", pair_file, "--kmax", "3",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        model = MODEL_GRID["pair_integer"]
        assert payload["cumulants"]["1"] == pytest.approx(model.cumulant(1))
        assert payload["moments"]["1"] == pytest.approx(model.cumulant(1))


class TestSampleCommand:
    def test_deterministic_output(self, model_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(["sample", "--model", model_file, "--n", "200",
                         "--seed", "42", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stream_layout_independent_of_threads(self, model_file, tmp_path,
                                                  monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("BILGAMMA_THREADS", "1")
        main(["sample", "--model", model_file, "--n", "500", "--seed", "7",
              "--streams", "4", "--out", str(out1)])
        monkeypatch.setenv("BILGAMMA_THREADS", "4")
        main(["sample", "--model", model_file, "--n", "500", "--seed", "7",
              "--streams", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_cap_must_be_an_integer(self, model_file, monkeypatch,
                                           capsys):
        monkeypatch.setenv("BILGAMMA_THREADS", "two")
        assert main(["sample", "--model", model_file, "--n", "10",
                     "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: BILGAMMA_THREADS must be an integer, got 'two'\n")

    def test_values_exact_across_blocks(self, pair_file, tmp_path,
                                        monkeypatch):
        # blocks of 7 one-cell rows put several boundaries inside 200 rows
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 7)
        out = tmp_path / "a.csv"
        assert main(["sample", "--model", pair_file, "--n", "200",
                     "--seed", "9", "--out", str(out)]) == 0
        draws = sample_direct(MODEL_GRID["pair_integer"], 200, RandomStream(9, 0))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["value"])
        writer.writerows([f"{v:.17g}"] for v in draws)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == draws.tolist()

    def test_seed_required(self, model_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--model", model_file, "--n", "10"])
        assert err.value.code == 2

    def test_more_streams_than_draws(self, pair_file, tmp_path):
        # streams that would get no draw are dropped, not sampled empty
        out2, out4 = tmp_path / "s2.csv", tmp_path / "s4.csv"
        for streams, out in (("2", out2), ("4", out4)):
            assert main(["sample", "--model", pair_file, "--n", "2", "--seed",
                         "5", "--streams", streams, "--out", str(out)]) == 0
        assert out4.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [
        pytest.param(["sample", "--n", "300", "--seed", "4"], id="sample"),
        # six mixed formats: the % path, where sample takes the %.17g one
        pytest.param(["cf", "--points", "41"], id="cf"),
    ])
    def test_stdout_matches_out(self, model_file, tmp_path, monkeypatch, argv):
        # without --out the CSV goes through the text stream sys.stdout
        out = tmp_path / "a.csv"
        argv = [argv[0], "--model", model_file, *argv[1:]]
        assert main([*argv, "--out", str(out)]) == 0
        stdout = io.StringIO()
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(argv) == 0
        assert stdout.getvalue().encode("utf-8") == out.read_bytes()

    def test_peak_memory_one_copy_of_draws(self, model_file):
        # 2**22 draws take 32 MiB, on one stream or split over two: a second
        # copy of them (np.concatenate of the streams' draws) or a writer
        # that holds a large block breaks the bound
        for streams in ("1", "2"):
            tracemalloc.start()
            try:
                assert main(["sample", "--model", model_file,
                             "--n", str(2 ** 22), "--seed", "1",
                             "--streams", streams, "--out", os.devnull]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * 8 * 2 ** 22, streams


class TestPinnedCsvOutput:
    """SHA-256 of the CSV each CSV command writes for five_mixed at the
    README settings: the writer must not change a byte.  The sample's
    65 537 rows cross several block boundaries."""

    @pytest.mark.parametrize("argv, digest", [
        pytest.param(["sample", "--n", "65537", "--seed", "19"],
                     "6ca53dc549e235b9a8c709713e05a3aec1ea58d074cc28ed57d69bae938ec9b6",
                     id="sample"),
        pytest.param(["simulate", "--tgrid", "0:0.001:1", "--paths", "3",
                      "--seed", "3"],
                     "4ed89ae7bd9b8697d38ef9b2f4b3d0898d3895118d5b93bb69efa3ea68482d92",
                     id="simulate"),
        pytest.param(["pdf", "--xmin", "-5", "--xmax", "5", "--points", "401"],
                     "0209c15eb4916742ba3aab50b48314bb54093d4dd33b9510eb999e3f65f7e299",
                     id="pdf"),
        pytest.param(["cf", "--zmax", "20", "--points", "401"],
                     "20d80cc169642bda91d39465b2eb98da81813c9943d346f0b20342c5a70c4bfc",
                     id="cf"),
        pytest.param(["cp-sweep", "--m", "1,2,4,8,16,32,64", "--n", "100000",
                      "--seed", "7"],
                     "f0dd6d1a8e443ba29e0ae1e951f166f6d54f388d82ac6a88b3373c35eebe2e2a",
                     id="cp-sweep"),
    ])
    def test_csv_digest(self, tmp_path, argv, digest):
        model = tmp_path / "five_mixed.json"
        model.write_text(json.dumps(MODEL_GRID["five_mixed"].to_json_obj()))
        out = tmp_path / "out.csv"
        assert main([argv[0], "--model", str(model), *argv[1:],
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestPinnedPriceOutput:
    """SHA-256 of the JSON that ``price`` writes by the integral route, at
    s0 = 1 and rate 0.05: the quadrature's calls must not change a byte.
    ``auto`` on MARTINGALE takes the integral route and writes the same
    report."""

    @pytest.mark.parametrize("model, strike, maturity, method, digest", [
        pytest.param(PRICING_GAMMA, 1.2, 1.0, "integral",
                     "8b8c1ed551e3785c5caa682396a0863140167ae51034e60f8b050f83f6fb45f1",
                     id="gamma-T1"),
        pytest.param(PRICING_GAMMA, 1.2, 2.0, "integral",
                     "89e54729a5b8623ed7cab405198ddb25e3d517483721c21c2b14d7029f5e05af",
                     id="gamma-T2"),
        pytest.param(MARTINGALE, 1.0, 1.0, "integral",
                     "bc56fd34d0bf08230c1462e602269196886bde9c50d1226952e9f1e97f84b2c0",
                     id="martingale-T1"),
        pytest.param(MARTINGALE, 1.0, 2.0, "integral",
                     "261207c7e2d2566cae82510d01191ee27eac81bcea4574cfe9b7e91e899ab5f0",
                     id="martingale-T2"),
        pytest.param(MARTINGALE, 1.0, 1.0, "auto",
                     "bc56fd34d0bf08230c1462e602269196886bde9c50d1226952e9f1e97f84b2c0",
                     id="martingale-auto-T1"),
    ])
    def test_json_digest(self, tmp_path, model, strike, maturity, method,
                         digest):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model.to_json_obj()))
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps({"s0": 1.0, "strike": strike,
                                       "rate": 0.05, "maturity": maturity}))
        out = tmp_path / "price.json"
        assert main(["price", "--model", str(model_file), "--pricing",
                     str(pricing), "--method", method, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_POWERS = np.array([float(f"1e{k}") for k in range(-310, 309)])
# values % writes in every way: zeros, infinities, nan, the least subnormal,
# exact 18th-digit ties, trailing zeros, and every power of ten from 1e-310
# to 1e308 with its two float neighbours
_SPECIAL = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
     1234567890123456.25, 1234567890123456.75, -1234567890123456.25,
     1.5, 100.0, 1e16, 1e17, -1.5, 0.1, 1e-5, 123456789012.5],
    _POWERS, -_POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, math.inf)])


def _random_bits(n, seed):
    """n doubles with uniformly random bit patterns: NaNs, infinities and
    subnormals included."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)


class TestWriteCsvOracle:
    """_write_csv against csv.writer fed Python's % of each value, for every
    format the CLI passes it: the vectorised %.<P>g path must write the
    same bytes."""

    FORMATS = ["%.17g", "%.12g", "%.12e", "%.3e", "%.6f", "%d"]

    @staticmethod
    def check(tmp_path, formats, columns):
        header = [f"c{i}" for i in range(len(columns))]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows([f % v for f, v in zip(formats, row)]
                         for row in zip(*(c.tolist() for c in columns)))
        out = tmp_path / "oracle.csv"
        cli._write_csv(str(out), header, formats, columns)
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

    @staticmethod
    def finite_for(fmt, values):
        # %d of nan or an infinity raises in % itself
        return values[np.isfinite(values)] if fmt == "%d" else values

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_random_bit_patterns(self, tmp_path, fmt):
        self.check(tmp_path, [fmt], [self.finite_for(fmt, _random_bits(100_000, 23))])

    # 65 536 cells hold each table here in one block, as the default does
    @pytest.mark.parametrize("block_cells", [1, 7, 65_536])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_special_values(self, tmp_path, monkeypatch, fmt, block_cells):
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_cells)
        self.check(tmp_path, [fmt], [self.finite_for(fmt, _SPECIAL)])

    @pytest.mark.parametrize("block_cells", [1, 7, 65_536])
    @pytest.mark.parametrize("formats", [
        ["%.17g"] * 3, ["%.12g"] * 3, ["%.17g", "%.12g", "%.17g"],
        ["%.12g", "%.12e", "%.3e"]])
    def test_rows_mixing_certified_and_fallback_cells(self, tmp_path,
                                                      monkeypatch, formats,
                                                      block_cells):
        # each row pairs a special value with draws that certify
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(29)
        n = _SPECIAL.size
        self.check(tmp_path, formats, [rng.gamma(0.3, size=n), _SPECIAL,
                                       rng.standard_normal(n) * 1e3])


class TestFastPathShare:
    """_GFormatter declines a whole block for one cell it cannot certify,
    and the %-formatted block costs about 3x more.  Every byte is the same
    either way, so only these counts notice a change that widens the set
    of uncertified cells."""

    @staticmethod
    def declined(precision, columns):
        """Start rows of the blocks of ``columns`` that _GFormatter
        declines, cut as _write_csv cuts them."""
        rows = max(1, cli._CSV_BLOCK_CELLS // len(columns))
        g_format = cli._GFormatter(precision, rows, len(columns))
        return [i for i in range(0, len(columns[0]), rows)
                if g_format(np.column_stack([c[i:i + rows] for c in columns]))
                is None]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sample_blocks_all_formatted(self, seed):
        draws = sample_direct(MODEL_GRID["five_mixed"], 300_000,
                              RandomStream(seed, 0))
        assert self.declined(17, [draws]) == []

    def test_simulate_declines_only_the_block_at_t_zero(self):
        # t = 0 and every path's 0 there are the only uncertified cells
        grid = cli._parse_tgrid("0:0.001:1")
        paths = [sample_path(MODEL_GRID["five_mixed"], grid, RandomStream(5, i))
                 for i in range(20)]
        assert self.declined(12, [grid] + paths) == [0]


class TestBoundsCommand:
    def test_self_target_zeros(self, kappa_file, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(
            {"alpha": 2.0, "p": 1.3, "beta": 2.0, "q": 0.7}))
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--model", kappa_file, "--target", str(target),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["d3_bg"]["value"] == pytest.approx(0.0, abs=1e-12)
        assert payload["constants_default"] is True
        assert payload["kappa"]["kappa_n"] == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("flag", ["--target", "--sigma"])
    def test_values_are_the_library_bounds(self, kappa_file, tmp_path, flag):
        # the report's totals are stein's, bit for bit, and the correctly
        # rounded sums of its terms; here a left-to-right float sum of the
        # terms is an ulp off (0.8629629629629629, 1.4333333333333331)
        target = tmp_path / "target.json"
        target.write_text(json.dumps(
            {"alpha": 1.5, "p": 0.5, "beta": 1.5, "q": 0.3}))
        out = tmp_path / "bounds.json"
        value = str(target) if flag == "--target" else "1.0"
        assert main(["bounds", "--model", kappa_file, flag, value,
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        if flag == "--target":
            key, expected = "d3_bg", bound_d3_bg(
                KAPPA_SINGLE, LinearCombinationModel.from_components(
                    [(1.5, 0.5, 1.5, 0.3, 1.0, 1.0)]))
        else:
            key, expected = "d3_normal", bound_d3_normal(KAPPA_SINGLE, 1.0)
        assert payload[key]["value"] == expected
        assert payload[key]["value"] == math.fsum(payload[key]["terms"].values())

    def test_non_numeric_target_exits_2(self, kappa_file, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(
            {"alpha": "abc", "p": 1.3, "beta": 2.0, "q": 0.7}))
        code = main(["bounds", "--model", kappa_file, "--target", str(target)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: target file: field 'alpha' is not a number: 'abc'\n")

    def test_non_utf8_target_exits_2(self, kappa_file, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_bytes(b'{"alpha": "\xff"}')
        code = main(["bounds", "--model", kappa_file, "--target", str(target)])
        assert code == 2
        assert "cannot read target file" in capsys.readouterr().err

    def test_zero_target_field_exits_3(self, kappa_file, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text(json.dumps(
            {"alpha": 2.0, "p": 1.3, "beta": 0.0, "q": 0.7}))
        code = main(["bounds", "--model", kappa_file, "--target", str(target)])
        assert code == 3
        assert "DomainError" in capsys.readouterr().err

    def test_kappa_undefined_exits_3(self, model_file, tmp_path):
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--model", model_file, "--sigma", "1.0",
                     "--out", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["error"] == "kappa_undefined"
        assert payload["log_g_n"] == pytest.approx(math.log(1.0))
        assert payload["log_h_n"] == pytest.approx(math.log(1.0))

    def test_other_alone_needs_no_kappa(self, model_file, tmp_path):
        # laplace has g = h, so kappa is undefined; the two-sums bound does
        # not use it, but --other alone exited 3 with the kappa error
        other = MODEL_GRID["laplace"].to_json_obj()
        other["components"][0].update(w1=1.2, w2=0.9)
        other_file = tmp_path / "other.json"
        other_file.write_text(json.dumps(other))
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--model", model_file, "--other",
                     str(other_file), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "kappa" not in payload and "error" not in payload
        assert payload["two_sums"]["value"] > 0.0

    @pytest.mark.parametrize("with_target", [False, True],
                             ids=["bare", "target_and_other"])
    def test_kappa_error_kept(self, model_file, tmp_path, with_target):
        # a bare report and --target need kappa, with --other or without
        out = tmp_path / "bounds.json"
        argv = ["bounds", "--model", model_file, "--out", str(out)]
        if with_target:
            target = tmp_path / "target.json"
            target.write_text(json.dumps(
                {"alpha": 2.0, "p": 1.3, "beta": 2.0, "q": 0.7}))
            argv += ["--target", str(target), "--other", model_file]
        assert main(argv) == 3
        assert json.loads(out.read_text())["error"] == "kappa_undefined"

    def test_many_components_write_strict_json(self, tmp_path):
        # g = 1600^128 overflows a double; the report carries its log
        model = tmp_path / "many.json"
        model.write_text(json.dumps(LinearCombinationModel.from_components(
            [(40, 1, 40, 1, 1, 1)] * 128).to_json_obj()))
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--model", str(model), "--sigma", "1.0",
                     "--out", str(out)])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["kappa"]["log_g_n"] == pytest.approx(128 * math.log(1600.0))
        assert payload["kappa"]["kappa_n"] == pytest.approx(1.0 / 0.92)


class TestCpSweepCommand:
    def test_monotone_column(self, pair_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["cp-sweep", "--model", pair_file, "--m", "1,4,16,64",
                     "--n", "20000", "--seed", "7", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        bounds = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        # the fit pins the first point to the bound
        assert float(rows[0][1]) == pytest.approx(bounds[0], rel=1e-9)

    def test_orders_checked_before_any_draw(self, pair_file, tmp_path,
                                            monkeypatch, capsys):
        def no_draws(*args):
            raise AssertionError("sampled before the orders were checked")

        monkeypatch.setattr(cli, "sample_direct", no_draws)
        monkeypatch.setattr(cli, "sample_compound_poisson", no_draws)
        code = main(["cp-sweep", "--model", pair_file,
                     "--m", "1,99999999999999999999", "--seed", "1",
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: DomainError: compound-Poisson order m must be in "
            "[1, 2**53], got 99999999999999999999\n")


class TestPriceCommand:
    def test_atm_uses_closed_form(self, gamma_file, tmp_path):
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.0, "rate": 0.05, "maturity": 1.0}))
        out = tmp_path / "price.json"
        code = main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "auto", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "atm"
        assert payload["price"] == pytest.approx(0.9737696444575116, rel=1e-6)
        assert "martingale_gap" in payload

    def test_atm_auto_at_maturity_two(self, gamma_file, tmp_path):
        # the closed form sums the time-2 pmf and matches the integral route
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.0, "rate": 0.05, "maturity": 2.0}))
        out = tmp_path / "price.json"
        code = main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "auto", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "atm"
        assert payload["price"] == pytest.approx(2.8007839978, rel=1e-8)

    @pytest.mark.parametrize("strike, expected", [
        (1.0000001, 0.97376955), (1.00001, 0.97376013), (1e7, 2.3113e-14),
        (1e9, 1.5058e-18)])
    def test_auto_above_spot_uses_series(self, gamma_file, tmp_path, strike,
                                         expected):
        # the integral route wrote 0.78296 at K = 1.0000001, raised at
        # 1.00001, and wrote 9.35e-7 at 1e7 and 6.35e-5 at 1e9, each with a
        # tolerance of 1e-8
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": strike, "rate": 0.05, "maturity": 1.0}))
        out = tmp_path / "price.json"
        assert main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "auto", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        series = price_call_gamma_series(PRICING_GAMMA, PricingInputs(
            s0=1.0, strike=strike, rate=0.05, maturity=1.0))
        assert payload["method"] == "series"
        assert (payload["price"], payload["tolerance_achieved"]) == series
        assert payload["price"] == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("strike, expected", [
        (0.9999999, 0.97376974), (0.99999, 0.97377916), (0.5, 1.4493843568)])
    def test_auto_below_spot_uses_series(self, gamma_file, tmp_path, strike,
                                         expected):
        # auto took the integral below the money: 0.78296 with a tolerance
        # of 1e-8 at K = 0.9999999, and exit 3 at 0.99999
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": strike, "rate": 0.05, "maturity": 1.0}))
        out = tmp_path / "price.json"
        assert main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "auto", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        series = price_call_gamma_series(PRICING_GAMMA, PricingInputs(
            s0=1.0, strike=strike, rate=0.05, maturity=1.0))
        assert payload["method"] == "series"
        assert (payload["price"], payload["tolerance_achieved"]) == series
        assert payload["price"] == pytest.approx(expected, rel=1e-8)

    def test_atm_bilateral_falls_back_to_integral(self, tmp_path):
        # the gamma-only closed form would ignore MARTINGALE's negative part
        # and return 0.565
        model = tmp_path / "mg.json"
        model.write_text(json.dumps(MARTINGALE.to_json_obj()))
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.0, "rate": 0.05, "maturity": 1.0}))
        out = tmp_path / "price.json"
        code = main(["price", "--model", str(model), "--pricing", str(pricing),
                     "--method", "auto", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "integral"
        assert payload["price"] == pytest.approx(0.2250160845, rel=1e-8)

    def test_integral_at_the_money_small_shapes(self, tmp_path):
        # at K = s both tails run the x = 0 rule; shapes of 0.022 and 0.0056
        # at T = 0.1 leave a slowly decaying cf.  The reference sums both
        # tails (plain and tilted) as beta mixtures of the two pmfs, as in
        # test_pricing's test_origin_beta_mixture
        model = tmp_path / "small.json"
        model.write_text(json.dumps(LinearCombinationModel.from_components([(
            1.2452897069876583, 0.22044315796499303, 3.1816312211953135,
            0.05615180819612869, 0.5550991280346753,
            0.11500072777503195)]).to_json_obj()))
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.0, "rate": 0.05, "maturity": 0.1}))
        out = tmp_path / "price.json"
        assert main(["price", "--model", str(model), "--pricing", str(pricing),
                     "--method", "integral", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["price"] == pytest.approx(
            0.013011769567883918, abs=1e-11)

    def test_auto_builds_one_mixture(self, gamma_file, tmp_path, builds):
        # only the positive side of the time-t' mixture is built: not the
        # time-1 mixture as well, nor the negative side the series never reads
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.0, "rate": 0.05, "maturity": 2.0}))
        out = tmp_path / "price.json"
        assert main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "auto", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "atm"
        assert len(builds) == 1

    def test_auto_bilateral_builds_no_mixture(self, tmp_path, builds):
        # the guard rejects MARTINGALE from the model alone
        model = tmp_path / "mg.json"
        model.write_text(json.dumps(MARTINGALE.to_json_obj()))
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.0, "rate": 0.05, "maturity": 1.0}))
        out = tmp_path / "price.json"
        assert main(["price", "--model", str(model), "--pricing", str(pricing),
                     "--method", "auto", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "integral"
        assert payload["price"] == pytest.approx(0.2250160845, rel=1e-8)
        assert builds == []

    def test_non_utf8_pricing_exits_2(self, gamma_file, tmp_path, capsys):
        pricing = tmp_path / "p.json"
        pricing.write_bytes(b'{"s0": "\xff"}')
        code = main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "atm"])
        assert code == 2
        assert "cannot read pricing file" in capsys.readouterr().err

    def test_non_numeric_field_exits_2(self, gamma_file, tmp_path, capsys):
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": "abc", "strike": 1.0, "rate": 0.05, "maturity": 1.0}))
        code = main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "integral"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: pricing file: field 's0' is not a number: 'abc'\n")

    def test_deep_out_of_the_money(self, gamma_file, tmp_path):
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.0e6, "rate": 0.05, "maturity": 1.0}))
        out = tmp_path / "price.json"
        code = main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "integral", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["price"] < 1e-8

    @pytest.mark.parametrize("maturity", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("strike", [1.0, 1.1, 1.2, 1.5])
    def test_integral_tolerance_holds(self, gamma_file, tmp_path, strike,
                                      maturity):
        # the integral route reports a fixed 1e-8; on PRICING_GAMMA it is
        # at most 7.5e-11 from the series price (at T = 2)
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps({"s0": 1.0, "strike": strike,
                                       "rate": 0.05, "maturity": maturity}))
        reports = {}
        for method in ("integral", "series"):
            out = tmp_path / f"{method}.json"
            assert main(["price", "--model", gamma_file, "--pricing",
                         str(pricing), "--method", method,
                         "--out", str(out)]) == 0
            reports[method] = json.loads(out.read_text())
        integral = reports["integral"]
        assert (abs(integral["price"] - reports["series"]["price"])
                <= integral["tolerance_achieved"])

    def test_quadrature_failure_is_one_line(self, gamma_file, tmp_path, capsys,
                                            monkeypatch):
        # a quadrature failure exits 3 with one stderr line: near the money
        # the Fourier rule needs more than its first two levels
        monkeypatch.setattr(quadrature, "_FOURIER_LEVELS", 2)
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.001, "rate": 0.05, "maturity": 1.0}))
        code = main(["price", "--model", gamma_file, "--pricing", str(pricing),
                     "--method", "integral"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: NonConvergenceError: Fourier quadrature "
                              "failed on [1.0, inf) at x=0.0009995")
        assert err.endswith(": 2 levels, the last two 9.89e-05 apart\n")

    def test_out_of_strip_exits_3(self, tmp_path, capsys):
        weak = tmp_path / "weak.json"
        weak.write_text(json.dumps({"components": [
            {"alpha": 1.0, "p": 1.0, "beta": 3.0, "q": 1.0,
             "w1": 1.0, "w2": 1.0}]}))
        pricing = tmp_path / "p.json"
        pricing.write_text(json.dumps(
            {"s0": 1.0, "strike": 1.2, "rate": 0.0, "maturity": 1.0}))
        code = main(["price", "--model", str(weak), "--pricing", str(pricing),
                     "--method", "integral"])
        assert code == 3
        assert "OutOfStrip" in capsys.readouterr().err


class TestSimulateCommand:
    def test_paths_csv(self, pair_file, tmp_path):
        out = tmp_path / "paths.csv"
        code = main(["simulate", "--model", pair_file, "--tgrid", "0:0.25:1",
                     "--paths", "3", "--seed", "3", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "path_0", "path_1", "path_2"]
        assert len(rows) == 5
        assert [float(v) for v in rows[0][1:]] == [0.0, 0.0, 0.0]

    def test_no_paths_writes_time_column(self, pair_file, tmp_path):
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--model", pair_file, "--tgrid", "0:0.5:1",
                     "--paths", "0", "--seed", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t"] and rows == [["0"], ["0.5"], ["1"]]

    @pytest.mark.parametrize("text, grid", [
        ("0:0.1:1", 0.1 * np.arange(11)),
        ("1:0.1:2", 1.0 + 0.1 * np.arange(11)),
        # 1/0.6 steps: rounding to 2 ran the grid out to 1.2
        ("0:0.6:1", [0.0, 0.6]),
    ])
    def test_grid_ends_at_stop(self, text, grid):
        got = cli._parse_tgrid(text)
        assert got.tolist() == list(grid)
        assert got[-1] <= float(text.split(":")[2])

    def test_bad_grid_exits_2(self, pair_file):
        assert main(["simulate", "--model", pair_file, "--tgrid", "1:0:0",
                     "--paths", "1", "--seed", "3"]) == 2

    def test_columns_exact_across_blocks(self, pair_file, tmp_path,
                                         monkeypatch):
        # 9 cells, 3 rows of 3 columns, put block boundaries inside 11 rows
        monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 9)
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--model", pair_file, "--tgrid", "0:0.1:1",
                     "--paths", "2", "--seed", "4", "--out", str(out)]) == 0
        grid = 0.1 * np.arange(11)
        paths = [sample_path(MODEL_GRID["pair_integer"], grid, RandomStream(4, i))
                 for i in range(2)]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["t", "path_0", "path_1"])
        writer.writerows([f"{t:.12g}"] + [f"{p[k]:.12g}" for p in paths]
                         for k, t in enumerate(grid))
        assert out.read_bytes() == expected.getvalue().encode("utf-8")


class TestCountArguments:
    @pytest.mark.parametrize("argv", [
        ["pdf", "--xmin", "-1", "--xmax", "1", "--points", "-2"],
        ["pdf", "--xmin", "-1", "--xmax", "1", "--points", "0"],
        ["cf", "--points", "-1"],
        ["moments", "--kmax", "0"],
        ["moments", "--kmax", "-1"],
        ["simulate", "--tgrid", "0:0.5:1", "--paths", "-3", "--seed", "1"],
        ["price", "--pricing", "p.json", "--method", "monte-carlo",
         "--seed", "1", "--n", "1"],
        ["price", "--pricing", "p.json", "--method", "monte-carlo",
         "--seed", "1", "--n", "0"],
        ["sample", "--n", "0", "--seed", "5", "--streams", "4"],
        ["sample", "--n", "10", "--seed", "5", "--streams", "0"],
        ["sample", "--n", "10", "--seed", "5", "--streams", "-2"],
        ["cp-sweep", "--n", "0", "--seed", "5"],
        ["cf", "--points", "0"],
        ["sample", "--n", "-5", "--seed", "5"],
        # a negative seed exited 1 with numpy's traceback
        ["sample", "--n", "10", "--seed", "-1"],
        ["cp-sweep", "--n", "10", "--seed", "-1"],
        ["simulate", "--tgrid", "0:0.5:1", "--seed", "-1"],
        ["price", "--pricing", "p.json", "--method", "monte-carlo",
         "--seed", "-1"],
        ["verify", "--suite", "quick", "--seed", "-1"],
    ])
    def test_bad_count_exits_2(self, pair_file, argv, capsys):
        model = [] if argv[0] == "verify" else ["--model", pair_file]
        with pytest.raises(SystemExit) as err:
            main(argv[:1] + model + argv[1:])
        assert err.value.code == 2
        assert "must be >= " in capsys.readouterr().err


class TestFiniteArguments:
    @pytest.mark.parametrize("argv", [
        ["pdf", "--xmin", "nan", "--xmax", "1", "--points", "3"],
        ["pdf", "--xmin", "-1", "--xmax", "inf", "--points", "3"],
        ["pdf", "--xmin=-inf", "--xmax", "1", "--points", "3"],
        ["cf", "--zmax", "nan", "--points", "3"],
        ["cf", "--zmax", "inf", "--points", "3"],
        ["bounds", "--sigma", "nan"],
        ["pdf", "--xmin", "-1", "--xmax", "nan", "--points", "3"],
        # a non-finite --tail-tol exited 3 with DomainError
        ["cf", "--points", "3", "--tail-tol", "inf"],
        ["moments", "--tail-tol", "nan"],
        ["bounds", "--sigma=-inf"],
        # finite bounds whose span overflows a double: linspace wrote NaN
        # rows (cf, exit 0) or handed the series a NaN x (pdf, exit 3)
        ["cf", "--zmax", "1e308", "--points", "4"],
        ["pdf", "--xmin=-1.7e308", "--xmax", "1.7e308", "--points", "3"],
    ])
    def test_non_finite_bound_exits_2(self, model_file, tmp_path, argv):
        # in a child interpreter: a non-finite x that reached QUADPACK's
        # Fourier rule would crash the process, and pytest with it
        out = tmp_path / "out.csv"
        done = run_child(
            "import sys; from bilgamma.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            *argv[:1], "--model", model_file, "--out", str(out), *argv[1:])
        assert done.returncode == 2, done.stderr
        assert "must be finite" in done.stderr
        assert not out.exists()


# each subcommand's option strings, in --help order: adding or removing a
# knob is an edit to this table
OPTIONS = {
    "pdf": ["--model", "--xmin", "--xmax", "--points", "--out"],
    "cf": ["--model", "--zmax", "--points", "--tail-tol", "--out"],
    "moments": ["--model", "--kmax", "--tail-tol", "--out"],
    "sample": ["--model", "--n", "--seed", "--streams", "--out"],
    "bounds": ["--model", "--target", "--sigma", "--other", "--out"],
    "cp-sweep": ["--model", "--m", "--n", "--seed", "--out"],
    "price": ["--model", "--pricing", "--method", "--n", "--seed", "--out"],
    "simulate": ["--model", "--tgrid", "--paths", "--seed", "--out"],
    "verify": ["--suite", "--seed", "--out", "--corrupt-gamma"],
}


class TestOptionTable:
    def test_options_pinned(self):
        [commands] = [a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert {name: [s for a in p._actions if a.dest != "help"
                       for s in a.option_strings]
                for name, p in commands.choices.items()} == OPTIONS

    @pytest.mark.parametrize("argv", [
        ["pdf", "--xmin", "1", "--xmax", "2"],
        ["price", "--pricing", "p.json"]])
    def test_tail_tol_unrecognised(self, model_file, capsys, argv):
        # the series depths of pdf and price are fixed
        with pytest.raises(SystemExit) as err:
            main([*argv, "--model", model_file, "--tail-tol", "1e-8"])
        assert err.value.code == 2
        assert ("unrecognized arguments: --tail-tol 1e-8"
                in capsys.readouterr().err)


class TestInputFiles:
    @pytest.mark.parametrize("flaw", ["missing", "non_utf8", "invalid_json"])
    def test_one_reader_for_every_input_file(self, gamma_file, kappa_file,
                                             tmp_path, capsys, flaw):
        bad = tmp_path / "bad.json"
        if flaw == "non_utf8":
            bad.write_bytes(b'{"s0": "\xff"}')
        elif flaw == "invalid_json":
            bad.write_text("{not json")
        errors = {}
        for what, argv in (
                ("model", ["cf", "--model", str(bad), "--points", "3"]),
                ("pricing", ["price", "--model", gamma_file,
                             "--pricing", str(bad)]),
                ("target", ["bounds", "--model", kappa_file,
                            "--target", str(bad)])):
            assert main(argv) == 2, what
            errors[what] = capsys.readouterr().err
        opening = {"missing": "error: model file not found: ",
                   "non_utf8": "error: cannot read model file ",
                   "invalid_json": "error: invalid JSON in model file "}[flaw]
        assert errors["model"].startswith(opening + str(bad))
        for what in ("pricing", "target"):
            assert errors[what] == errors["model"].replace(
                "model file", f"{what} file")

    @pytest.mark.parametrize("flag", ["--pricing", "--target", "--other"])
    def test_model_read_before_other_files(self, tmp_path, capsys, flag):
        # main loads --model before a command opens any other input file
        missing = tmp_path / "none.json"
        command = "price" if flag == "--pricing" else "bounds"
        assert main([command, flag, str(tmp_path / "other.json"),
                     "--model", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: model file not found: {missing}\n"

    @pytest.mark.parametrize("value", ["2.5", " 7 ", True])
    def test_numeric_string_or_boolean_exits_2(self, gamma_file, kappa_file,
                                               tmp_path, capsys, value):
        # float() used to read "2.5" as 2.5 and true as 1.0
        model = MODEL_GRID["laplace"].to_json_obj()
        model["components"][0]["alpha"] = value
        for what, doc, argv in (
                ("component 0", model, ["cf", "--points", "3", "--model"]),
                ("pricing file",
                 {"s0": value, "strike": 1.0, "rate": 0.05, "maturity": 1.0},
                 ["price", "--model", gamma_file, "--pricing"]),
                ("target file", {"alpha": value, "p": 1.3, "beta": 2.0, "q": 0.7},
                 ["bounds", "--model", kappa_file, "--target"])):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert main([*argv, str(bad)]) == 2, what
            field = "s0" if what == "pricing file" else "alpha"
            assert capsys.readouterr().err == (
                f"error: {what}: field '{field}' is not a number: {value!r}\n")

    @pytest.mark.parametrize("doc", [[1, 2], None])
    def test_document_not_an_object(self, gamma_file, kappa_file, tmp_path,
                                    capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for what, argv in (
                ("pricing", ["price", "--model", gamma_file,
                             "--pricing", str(bad)]),
                ("target", ["bounds", "--model", kappa_file,
                            "--target", str(bad)])):
            assert main(argv) == 2, what
            assert capsys.readouterr().err == (
                f"error: {what} file: expected an object\n")


class TestOutPath:
    """An --out the CLI cannot write exited 1, the failed-verification code,
    with a traceback."""

    @pytest.mark.parametrize("command", [
        ["cf", "--points", "3"], ["moments"]])
    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_unwritable_out_exits_2(self, model_file, tmp_path, capsys,
                                    command, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "out"
        code = main([*command, "--model", model_file, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_passing_verify_with_unwritable_out_exits_2(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_suite",
                            lambda **kwargs: {"passed": True, "checks": []})
        out = tmp_path / "missing" / "report.json"
        code = main(["verify", "--suite", "quick", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(out) in err


class TestNonFiniteAndOverflow:
    """Each case used to exit 0 with NaN or Infinity in its JSON, or exit 1
    (the failed-verification code) with a traceback."""

    @pytest.fixture()
    def files(self, tmp_path):
        docs = {
            "gamma": PRICING_GAMMA.to_json_obj(),
            "kappa": KAPPA_SINGLE.to_json_obj(),
            "laplace": MODEL_GRID["laplace"].to_json_obj(),
            "pair": MODEL_GRID["pair_integer"].to_json_obj(),
            "slow": LinearCombinationModel.from_components(
                [(0.1, 1, 0.2, 1, 1, 1)]).to_json_obj(),
            "shallow": LinearCombinationModel.from_components(
                [(1, 0.5, 3, 1, 1, 1), (2, 0.5, 3, 1, 1, 1)]).to_json_obj(),
            "long": {"s0": 1, "strike": 1.1, "rate": 0.05, "maturity": 2000},
            "two_spots": {"s0": 1, "strike": 1, "rate": 0.05, "maturity": 1,
                          "spot_at_t": 2},
        }
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        return lambda name: str(tmp_path / f"{name}.json")

    @pytest.mark.parametrize("argv, code", [
        (["price", "--model", "gamma", "--pricing", "long",
          "--method", "integral"], 3),
        (["price", "--model", "gamma", "--pricing", "long",
          "--method", "monte-carlo", "--n", "1000", "--seed", "1"], 3),
        (["price", "--model", "gamma", "--pricing", "long",
          "--method", "series"], 3),
        (["bounds", "--model", "kappa", "--sigma", "nan"], 2),
        (["bounds", "--model", "kappa", "--sigma", "inf"], 2),
        (["moments", "--model", "laplace", "--kmax", "171"], 3),
        (["moments", "--model", "laplace", "--kmax", "172"], 3),
        (["moments", "--model", "slow", "--kmax", "400"], 3),
        # a one-term pmf P(0) = 2^-0.5 with tail ratio 1/2: moment 1 was
        # written as -0.118 against the mean 0.0833
        (["moments", "--model", "shallow", "--kmax", "2", "--tail-tol", "0.3"],
         3),
        # 1e300 steps: rejected before any grid is allocated
        (["simulate", "--model", "pair", "--tgrid", "0:1e-300:1",
          "--seed", "1"], 2),
        (["simulate", "--model", "pair", "--tgrid", "0:nan:1",
          "--seed", "1"], 2),
        (["cp-sweep", "--model", "pair", "--m", "1,99999999999999999999",
          "--n", "100", "--seed", "1"], 3),
        # orders below 1 exited 2; sampling owns the order range
        (["cp-sweep", "--model", "pair", "--m", "0", "--n", "100",
          "--seed", "1"], 3),
        (["cp-sweep", "--model", "pair", "--m", "4,-1", "--n", "100",
          "--seed", "1"], 3),
        # a spot other than s0 at t_now = 0 used to be priced
        (["price", "--model", "gamma", "--pricing", "two_spots",
          "--method", "integral"], 3),
        # a grid that parses but does not start at 0: sample_path's rule
        (["simulate", "--model", "pair", "--tgrid", "0.5:0.1:1",
          "--seed", "1"], 3),
    ], ids=["integral", "monte_carlo", "series", "sigma_nan", "sigma_inf",
            "kmax_171", "kmax_172", "kmax_400", "one_term_pmf", "tgrid_size",
            "tgrid_nan", "cp_order", "cp_order_0", "cp_order_negative",
            "two_spots", "tgrid_start"])
    def test_typed_exit(self, files, tmp_path, argv, code):
        out = tmp_path / "out"
        argv = [files(v) if prev in ("--model", "--pricing") else v
                for prev, v in zip([None] + argv, argv)]
        done = run_child("import sys; from bilgamma.cli import main; "
                         "sys.exit(main(sys.argv[1:]))",
                         *argv, "--out", str(out))
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines()[-1].startswith(
            ("error: ", "bilgamma "))
        if code == 3:
            # the typed error alone, no numpy warning ahead of it
            assert len(done.stderr.splitlines()) == 1, done.stderr
        if out.exists():
            text = out.read_text()
            assert "NaN" not in text and "Infinity" not in text


class TestVerifyCommand:
    def test_quick_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "quick", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert any(c["name"].startswith("cf_identity") for c in report["checks"])

    def test_check_names(self):
        # the quick suite's checks, in order: the density and price routes
        # are also compared near x = 0 and near the money
        names = [c["name"] for c in bilgamma.verify.run_suite("quick")["checks"]]
        assert names == [
            *(f"cf_identity[{name}]" for name in MODEL_GRID),
            "stein_identity[pair_nonint]", "sampling_equivalence[pair_integer]",
            "density_agreement[near_zero]", "pricing_agreement[otm]",
            "pricing_agreement[near_money]", "pricing_agreement[atm]"]

    def test_near_zero_density_is_the_pointwise_value(self):
        # the check evaluates each model's two points as one grid call per
        # route; its value is that of the float calls
        checks = bilgamma.verify.run_suite("quick")["checks"]
        value = next(c["value"] for c in checks
                     if c["name"] == "density_agreement[near_zero]")
        assert value == max(
            abs(model.pdf_fourier(x) - bilgamma.build_mixture(model).pdf_series(x))
            for model in MODEL_GRID.values() for x in (-1e-6, 1e-6))

    def test_corrupted_recursion_detected(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "quick", "--seed", "1",
                     "--corrupt-gamma", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed and all("cf_identity" in c["name"] for c in failed)
        # one pass rule: a check fails exactly when its value exceeds its
        # threshold
        assert len(failed) < len(report["checks"])
        for c in report["checks"]:
            assert c["passed"] is (c["value"] <= c["threshold"]), c

    @pytest.mark.parametrize("seed", [1, 2])
    def test_p_value_decides_statistical_checks(self, seed):
        # a Monte Carlo record passes exactly when its p-value reaches its
        # gate's level: 4 standard errors for the Stein mean, the level-0.01
        # coefficient 1.628 for the KS distance (seed 2 fails it by chance)
        from scipy.special import kolmogorov
        levels = {"stein_identity": math.erfc(4.0 / math.sqrt(2.0)),
                  "sampling_equivalence": float(kolmogorov(1.628))}
        checks = bilgamma.verify.run_suite("quick", seed)["checks"]
        for c in checks:
            level = levels.get(c["name"].split("[")[0])
            if level is None:
                assert "p_value" not in c, c
            else:
                assert c["passed"] is (c["p_value"] >= level), c
        ks = next(c for c in checks if c["name"].startswith("sampling"))
        assert ks["passed"] is (seed == 1)
        if seed == 2:
            assert ks["p_value"] == pytest.approx(7.0e-4, rel=0.01)

    def test_unknown_suite_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown suite 'bogus'"):
            bilgamma.verify.run_suite("bogus")

    def test_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--suite", "quick", "--seed", "5", "--out", str(a)])
        main(["verify", "--suite", "quick", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


# The child reads a JSON list of argv lists, runs each command and prints
# the scipy modules loaded after the import and, per command, those loaded
# before it, its exit code and those loaded after it.
_COLD_RUN = """\
import json, sys
import bilgamma, bilgamma.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": scipy_modules(), "commands": []}
for argv in json.loads(sys.argv[1]):
    before = scipy_modules()
    code = bilgamma.cli.main(argv)
    report["commands"].append([argv[0], before, code, scipy_modules()])
print(json.dumps(report))
"""


class TestColdStart:
    @pytest.fixture()
    def files(self, tmp_path):
        paths = {}
        for name, obj in (("five", MODEL_GRID["five_mixed"].to_json_obj()),
                          ("pair", MODEL_GRID["pair_integer"].to_json_obj()),
                          ("kappa", MODEL_GRID["pair_kappa"].to_json_obj()),
                          ("gamma", PRICING_GAMMA.to_json_obj()),
                          ("target", {"alpha": 2.0, "p": 1.3, "beta": 2.0,
                                      "q": 0.7}),
                          ("otm", {"s0": 1.0, "strike": 1.2, "rate": 0.05,
                                   "maturity": 1.0}),
                          ("atm", {"s0": 1.0, "strike": 1.0, "rate": 0.05,
                                   "maturity": 1.0})):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        return {k: str(v) for k, v in paths.items()}

    def run_cold(self, argvs):
        done = run_child(_COLD_RUN, json.dumps(argvs))
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_closed_form_commands_load_no_scipy(self, files, tmp_path):
        out = str(tmp_path / "out")
        moments = ["moments", "--model", files["pair"], "--kmax", "3", "--out"]
        argvs = [
            moments + [str(tmp_path / "moments.json")],
            ["cf", "--model", files["five"], "--points", "41", "--out", out],
            ["sample", "--model", files["five"], "--n", "1000", "--seed", "3",
             "--streams", "2", "--out", out],
            ["bounds", "--model", files["kappa"], "--target", files["target"],
             "--sigma", "1.0", "--other", files["kappa"], "--out", out],
            ["simulate", "--model", files["pair"], "--tgrid", "0:0.25:1",
             "--paths", "2", "--seed", "3", "--out", out],
            ["cp-sweep", "--model", files["pair"], "--m", "1,4", "--n", "2000",
             "--seed", "7", "--out", out],
            ["price", "--model", files["gamma"], "--pricing", files["otm"],
             "--method", "monte-carlo", "--n", "1000", "--seed", "1",
             "--out", out],
            ["price", "--model", files["gamma"], "--pricing", files["atm"],
             "--method", "atm", "--out", out],
        ]
        report = self.run_cold(argvs)
        assert report["import"] == []
        assert len(report["commands"]) == len(argvs)
        for name, before, code, after in report["commands"]:
            assert (before, code, after) == ([], 0, []), name
        # a cold command writes what the same command writes warm
        assert main(moments + [str(tmp_path / "warm.json")]) == 0
        data = (tmp_path / "moments.json").read_bytes()
        assert data and data == (tmp_path / "warm.json").read_bytes()

    def test_integrating_commands_cold_match_warm(self, files, tmp_path):
        # each command runs in its own child, which starts without scipy and
        # so takes the deferred imports; its file must equal this process's
        def argv(name, out):
            return {
                "pdf.csv": ["pdf", "--model", files["five"], "--xmin", "-3",
                            "--xmax", "3", "--points", "7"],
                "price.json": ["price", "--model", files["gamma"], "--pricing",
                               files["otm"], "--method", "series"],
            }[name] + ["--out", str(out / name)]

        cold, warm = tmp_path / "cold", tmp_path / "warm"
        cold.mkdir()
        warm.mkdir()
        for name in ("pdf.csv", "price.json"):
            report = self.run_cold([argv(name, cold)])
            [(_, before, code, after)] = report["commands"]
            assert (report["import"], before, code) == ([], [], 0), name
            assert after, name
            assert main(argv(name, warm)) == 0
            data = (cold / name).read_bytes()
            assert data and data == (warm / name).read_bytes(), name
