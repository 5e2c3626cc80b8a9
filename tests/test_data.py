import re
import warnings

import numpy as np
import pytest
from scipy import stats

from garchmc import data
from garchmc.exceptions import DataValidationError, InsufficientDataError


class TestTransformReturns:
    def test_constant_prices(self):
        np.testing.assert_allclose(data.transform_returns([100.0, 100.0, 100.0]), [0.0, 0.0])

    def test_equal_log_returns_demean_to_zero(self):
        out = data.transform_returns([100.0, 101.0, 102.01])
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)

    def test_single_return_equals_its_mean(self):
        np.testing.assert_allclose(data.transform_returns([100.0, 110.0]), [0.0], atol=1e-12)

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(0)
        p = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(500)))
        out = data.transform_returns(p)
        assert out.size == p.size - 1
        assert abs(out.mean()) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        p = 50.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(200)))
        a = data.transform_returns(p)
        b = data.transform_returns(7.3 * p)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_too_few_prices(self):
        with pytest.raises(InsufficientDataError):
            data.transform_returns([100.0])

    def test_non_positive_price(self):
        with pytest.raises(DataValidationError):
            data.transform_returns([100.0, -1.0, 100.0])

    @pytest.mark.parametrize("pair", [(1e-300, 1e300), (1e300, 1e-300)],
                             ids=["ratio-overflows", "ratio-underflows"])
    def test_ratio_leaving_float64_names_the_pair(self, pair):
        with pytest.raises(DataValidationError, match="^" + re.escape(
                f"prices 2 and 3 ({pair[0]}, {pair[1]}): their ratio leaves float64")):
            data.transform_returns([1.0, *pair, 1.0])


class TestLoadPrices:
    def test_with_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,price\n2020-01-01,100\n2020-01-02,101\n")
        np.testing.assert_allclose(data.load_prices(f), [100.0, 101.0])

    def test_without_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("a,100\nb,101\nc,99.5\n")
        np.testing.assert_allclose(data.load_prices(f), [100.0, 101.0, 99.5])

    def test_unparsable_row_is_hard_error(self, tmp_path):
        f = tmp_path / "p.csv"
        for text in ("a,100\nb,oops\nc,99\n", "a,100\nb\nc,99\n"):
            f.write_text(text)
            with pytest.raises(DataValidationError, match="row 2"):
                data.load_prices(f)

    @pytest.mark.parametrize("text, row", [
        ("date,open,close\nd0,100,101\nd1,101,102\n", 1),
        ("date,price\nd0,100\nd1,101,102\nd2,99\n", 3),
        ("d0,100,\nd1,101\nd2,99\n", 1),
    ], ids=["header", "data-row", "trailing-comma"])
    def test_row_of_other_than_two_fields_refused(self, tmp_path, text, row):
        # A chain.csv or an OHLC file would otherwise be sampled on its second column.
        f = tmp_path / "p.csv"
        f.write_text(text)
        with pytest.raises(DataValidationError, match=rf"row {row} has 3 fields, not 2"):
            data.load_prices(f)

    def test_non_positive_price_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        for price in ("0", "-1", "nan", "inf"):
            f.write_text(f"a,100\nb,{price}\nc,99\n")
            with pytest.raises(DataValidationError, match="row 2"):
                data.load_prices(f)

    def test_non_utf8_file_names_byte_offset(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"date,price\na,100\nb,1\xff0\n")
        with pytest.raises(DataValidationError, match=r"p\.csv: byte offset 20\b"):
            data.load_prices(f)

    def test_field_over_csv_limit_names_its_row(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,price\n" + "d" * 200000 + ",100\nb,101\n")
        with pytest.raises(DataValidationError, match=r"p\.csv: row 2: field larger than"):
            data.load_prices(f)

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,price\na,100\n")
        with pytest.raises(InsufficientDataError):
            data.load_prices(f)


class TestGenerateSynthetic:
    def test_deterministic(self):
        theta = (0.05, 0.9, 0.01)
        a = data.generate_synthetic(theta, 500, 42)
        b = data.generate_synthetic(theta, 500, 42)
        assert np.array_equal(a, b)

    def test_variance_matches_stationary_value(self):
        y = data.generate_synthetic((0.05, 0.90, 0.01), 100000, 11)
        target = 0.01 / (1 - 0.05 - 0.90)
        assert y.var() == pytest.approx(target, rel=0.05)

    def test_degenerate_case_is_gaussian(self):
        y = data.generate_synthetic((1e-10, 1e-10, 1.0), 100000, 12)
        assert stats.kurtosis(y, fisher=False) == pytest.approx(3.0, abs=0.15)
        assert y.var() == pytest.approx(1.0, rel=0.02)

    def test_invalid_theta_rejected(self):
        with pytest.raises(DataValidationError):
            data.generate_synthetic((0.5, 0.6, 0.01), 100, 1)

    @pytest.mark.parametrize("theta", [
        (float("nan"), 0.94, 0.011), (0.03, float("inf"), 0.011), (0.03, 0.94, float("inf")),
    ], ids=["nan-alpha", "inf-beta", "inf-omega"])
    def test_non_finite_theta_rejected(self, theta):
        # An infinite omega lies inside the support; only the finite check refuses it.
        with pytest.raises(DataValidationError):
            data.generate_synthetic(theta, 100, 1)


    @pytest.mark.parametrize("seed", [1, 0], ids=["square-overflows", "sum-overflows"])
    def test_overflowing_series_refused_without_warnings(self, seed):
        # At seed 1 a return's square overflows; at seed 0 every square stays
        # finite and the variance recursion's sum reaches inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataValidationError, match="overflows float64"):
                data.generate_synthetic((0.01, 0.98, 1.7e308), 5, seed)
